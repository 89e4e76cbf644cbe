"""Gradient flows on adjoint orbits in the Kahler, normal, and induced
metrics; positivity-preservation classifiers; boundary first-order audits;
Lyapunov, limit-point, and stable-manifold diagnostics.

Flows ascend the height function kappa(L, N). The Kahler flow has the closed
form g(t) = k_factor(exp(t iN) g0); the normal flow is the double-bracket
equation dL/dt = [L, [L, N]]; the induced flow lifts to the unitary group as
dg/dt = ad_inv_L(N) g.
"""

from dataclasses import dataclass
from math import ceil

import numpy as np

from . import flagorbit, linalg
from .errors import DomainError, DriftError, LinalgError
from .flagorbit import OrbitPoint

METRICS = ("kahler", "normal", "induced")

STRICT = "strict"
WEAK = "weak"
NONE = "none"


@dataclass(frozen=True)
class FlowSpec:
    """A gradient flow: its metric, driver N and spectrum lam. step (the first
    step tried) and tol (the error bound) set the Dormand-Prince integrator of
    the normal and induced metrics; the Kahler metric evaluates exactly."""
    metric: str
    N: np.ndarray
    lam: np.ndarray
    step: float = 1e-3
    tol: float = 1e-8


class Trajectory:
    """Flow samples: at times[i], the point L[i] of one (samples, n, n) stack L
    on the orbit of lam, with dimension set K. points is a list of OrbitPoints
    (lam and K from the first) or one OrbitPoint whose L is the stack. Integrator
    steps and the largest accepted error estimate, and the Kahler QRs (chunks),
    are 0 where they do not apply."""

    def __init__(self, times, points, diagnostics=None, accepted=0, rejected=0,
                 max_error=0.0, chunks=0):
        if not isinstance(points, OrbitPoint):
            points = OrbitPoint(np.stack([P.L for P in points]), points[0].lam, points[0].K)
        self.times, self.L, self.lam, self.K = times, points.L, points.lam, points.K
        self.diagnostics = diagnostics or []
        self.accepted, self.rejected, self.max_error, self.chunks = accepted, rejected, max_error, chunks

    @property
    def points(self):
        """One OrbitPoint per sample, viewing the stack, each with its own copy of lam."""
        return [OrbitPoint(L, self.lam.copy(), self.K) for L in self.L]

    def max_drift(self):
        """Largest spectrum drift of a sample from lam."""
        return float(_spectrum_drift(self.L, self.lam).max())


def killing(L, M):
    """kappa(L, M) = 2n tr(LM) - 2 tr(L) tr(M); real on u_n pairs."""
    A = L.L if isinstance(L, OrbitPoint) else linalg.check_skew(L, "killing: first argument")
    B = M.L if isinstance(M, OrbitPoint) else linalg.check_skew(M, "killing: second argument")
    if A.shape != B.shape:
        raise LinalgError("killing: size mismatch")
    n = A.shape[0]
    val = 2 * n * np.trace(A @ B) - 2 * np.trace(A) * np.trace(B)
    return float(val.real)


def lyapunov(L, N):
    """Strict Lyapunov function -kappa(L, N) for the Kahler flow toward the limit point."""
    return -killing(L, N)


def _eig_rep(P):
    """Unitary eigenbasis of -iL ordered by the cached decreasing spectrum."""
    _, U = linalg.herm_eig(-1j * P.L)
    return U


def _offcluster_mask(lam):
    """(n, n) mask of the index pairs (i, j) with lam_i and lam_j in different clusters."""
    labels = np.zeros(len(lam), dtype=int)
    for b, (s, e) in enumerate(linalg.cluster_blocks(lam)):
        labels[s:e] = b
    return labels[:, None] != labels[None, :]


def _adinv_coeffs(lam):
    """ad^{-1} at i diag(lam) as entrywise factors: 1j / (lam_j - lam_i) off-cluster, 0 on it."""
    lam = np.asarray(lam, dtype=float)
    out = np.zeros((len(lam), len(lam)), dtype=complex)
    return np.divide(1j, lam[None, :] - lam[:, None], out=out, where=_offcluster_mask(lam))


def ad_inverse(P, M):
    """Preimage of the image component: [L, ad_inverse(L, M)] = M^L."""
    M = linalg.check_skew(M, "ad_inverse: second argument")
    U = _eig_rep(P)
    return U @ (_adinv_coeffs(P.lam) * (U.conj().T @ M @ U)) @ U.conj().T


def image_component(P, M):
    """M^L: the component of M in the image of ad_L."""
    M = linalg.check_skew(M)
    U = _eig_rep(P)
    return U @ np.where(_offcluster_mask(P.lam), U.conj().T @ M @ U, 0.0) @ U.conj().T


def _kahler_rep(g, mu, W, times, max_exp=14.0):
    """The (samples, n, n) stack of k_factor(exp(t iN) g) over t in times, from the
    spectrum mu and eigenbasis W of iN, and its number of QRs. A time of nch chunks
    takes nch steps t / nch; round c factors the samples of over c chunks at once."""
    times = np.asarray(times, dtype=float)
    diam = float(mu[0] - mu[-1])
    nch = np.array([linalg.split_chunks(t, diam, max_exp) for t in times.tolist()])
    E = linalg.exp_eig(mu, W, (times / nch)[:, None])
    G = linalg.k_factor(E @ g)
    for c in range(1, nch.max()):
        act = nch > c
        G[act] = linalg.k_factor(E[act] @ G[act])
    return G, int(nch.sum())


def kahler_rep_flow(g0, N, t, max_exp=14.0):
    """Unitary representative k_factor(exp(t iN) g0), evaluated in chunks.

    Chunking (semigroup property of the flag flow) plus per-chunk rescaling
    keeps the QR numerically meaningful for large |t| * spectral diameter.
    """
    mu, W = linalg.herm_eig(1j * linalg.check_skew(N, "flow driver N"))
    return _kahler_rep(linalg.as_matrix(g0), mu, W, (t,), max_exp)[0][0]


def _kahler_points(L0, N, times):
    """Exact Kahler flow points at each time, as one OrbitPoint whose L is their
    stack, from one eigendecomposition of iN and of L0; and the number of QRs."""
    mu, W = linalg.herm_eig(1j * linalg.check_skew(N, "flow driver N"))
    G, chunks = _kahler_rep(_eig_rep(L0), mu, W, times)
    return flagorbit.orbit_from_rep(G, L0.lam, L0.K), chunks


def kahler_flow(L0, N, t):
    """Exact Kahler-metric gradient flow point at time t."""
    P = _kahler_points(L0, N, (t,))[0]
    return OrbitPoint(P.L[0], P.lam, P.K)


def kahler_flow_projection(L0, N, t):
    """Same point via the projection formula: each P_k(t) is the orthogonal
    projection onto exp(t iN) V_k(0); no Iwasawa decomposition involved."""
    N = linalg.check_skew(N, "flow driver N")
    mu, W = linalg.herm_eig(1j * N)
    U = _eig_rep(L0)
    E = linalg.exp_eig(mu, W, t)
    return _from_projections(L0.lam, L0.K, [np.linalg.qr(E @ U[:, :k])[0] for k in L0.K])


def _from_projections(lam, K, frames):
    """The orbit point i (sum over k in K of (lam_k - lam_{k+1}) Q_k Q_k* + lam_n I)
    from orthonormal n x k frames Q_k, one for each k in K."""
    M = lam[-1] * np.eye(len(lam), dtype=complex)
    for k, Q in zip(K, frames):
        M += (lam[k - 1] - lam[k]) * (Q @ Q.conj().T)
    return OrbitPoint(linalg.skew_part(1j * M), lam.copy(), tuple(K))


def _spectrum_drift(L, lam):
    """max |spec(-iL) - lam| (decreasing spectrum) of each matrix of a (samples, n, n) stack."""
    return np.abs(np.linalg.eigvalsh(-1j * L)[:, ::-1] - lam).max(axis=1)


def _diagnose_all(L, lam0, N):
    """Spectrum drift, skew defect and Lyapunov value -kappa(L, N) of every
    point of a (samples, n, n) stack L, each computed on the whole stack at once."""
    N = linalg.check_skew(N, "killing: second argument")
    if not np.all(np.isfinite(L)):
        raise LinalgError("matrix entries must be finite")
    n = L.shape[1]
    kappa = 2 * n * np.trace(L @ N, axis1=1, axis2=2) - 2 * np.trace(L, axis1=1, axis2=2) * np.trace(N)
    skew = np.abs(L + L.conj().swapaxes(1, 2)).max(axis=(1, 2))
    return [{"spectrum_drift": float(d), "unitarity_drift": float(u), "lyapunov": -float(k)}
            for d, u, k in zip(_spectrum_drift(L, lam0), skew, kappa.real)]


def _sample_grid(t0, t1, samples):
    if samples < 1:
        raise LinalgError("samples must be >= 1")
    if not (np.isfinite(t0) and np.isfinite(t1)):
        raise LinalgError(f"times must be finite, got t0 = {t0}, t1 = {t1}")
    return np.linspace(t0, t1, samples)


def kahler_trajectory(L0, N, t1, t0=0.0, samples=51):
    """Exact Kahler flow from L0 at samples times from t0 to t1, as one stack."""
    times = _sample_grid(t0, t1, samples)
    P, chunks = _kahler_points(L0, N, times)
    return Trajectory(times, P, _diagnose_all(P.L, L0.lam, N), chunks=chunks)


def run(spec, L0, t1, t0=0.0, samples=51):
    """Trajectory of the gradient flow described by a FlowSpec from an orbit
    point; the Kahler metric evaluates exactly, the others integrate with
    Dormand-Prince 5(4) (see _integrate)."""
    if spec.metric == "kahler":
        return kahler_trajectory(L0, spec.N, t1, t0=t0, samples=samples)
    if spec.metric == "normal":
        return normal_flow(L0, spec.N, t1, t0=t0, step=spec.step, tol=spec.tol,
                           samples=samples)
    if spec.metric == "induced":
        g0 = flagorbit.orbit_to_flag(L0).rep
        return induced_flow(g0, spec.N, spec.lam, t1, t0=t0, step=spec.step,
                            tol=spec.tol, samples=samples)
    raise LinalgError(f"unknown metric {spec.metric!r}")


# Dormand-Prince 5(4) (Dormand & Prince 1980; Hairer, Norsett & Wanner, Solving
# ODEs I, II.5-6): the stage coefficients, the fifth-order weights (the seventh
# stage is f at the new point, so it is the next step's first), the weights of
# the error estimate (fifth- minus embedded fourth-order solution), and the
# fourth-order continuous extension X(t + theta dt) = X + dt (theta**p @ _DP_DENSE) @ K,
# p = 1..4, over the (7, n, n) stage stack K (Hairer's dense output of DOPRI5).
_DP_A = np.array([[0, 0, 0, 0, 0],
                  [1 / 5, 0, 0, 0, 0],
                  [3 / 40, 9 / 40, 0, 0, 0],
                  [44 / 45, -56 / 15, 32 / 9, 0, 0],
                  [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
                  [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]])
_DP_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0])
_DP_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
_DP_D = np.array([-12715105075 / 11282082432, 0, 87487479700 / 32700410799,
                  -10690763975 / 1880347072, 701980252875 / 199316789632,
                  -1453857185 / 822651844, 69997945 / 29380423])
_E1, _E7 = np.eye(7)[[0, 6]]
_DP_DENSE = np.array([_E1, 3 * _DP_B - 2 * _E1 - _E7 + _DP_D,
                      _E1 + _E7 - 2 * _DP_B - 2 * _DP_D, _DP_D])


def _rk4(f, X, dt, k1):
    """One Dormand-Prince 5(4) step from X with k1 = f(X), named _rk4 because the
    benchmark trace counts steps by that name: the fifth-order X1 and the (7, ...)
    stage stack, whose last stage, f at the projected X1, the caller sets."""
    K = np.empty((7,) + X.shape, dtype=complex)
    K[0] = k1
    flat = K.reshape(7, -1)
    for s in range(1, 6):
        K[s] = f(X + (dt * _DP_A[s, :s] @ flat[:s]).reshape(X.shape))
    return X + (dt * _DP_B[:6] @ flat[:6]).reshape(X.shape), K


def _integrate(f, X0, times, step, tol, project):
    """Dormand-Prince 5(4) from X0 at times[0] to times[-1], projecting after every
    step; returns the (samples, ...) stack at times and the step counts. Steps do
    not stop at sample times and the last lands exactly on times[-1]: a sample at
    a step's end is its projected endpoint, the samples inside one accepted step
    are its continuous extension, projected together.
    A step's error estimate |dt| max|sum_i e_i k_i| (k7 = f(X1) is the next k1)
    must be at most tol |dt| / |t1 - t0|, so tol bounds the sum of accepted
    estimates. step is the first step tried; with step size h the rest of the span
    takes ceil(|rest| / h (1 - 1e-12)) equal steps, so a step within rounding of
    the rest finishes it. DriftError when a rejected step's share of tol is below
    the rounding of X1 (eps max|X1|), so rounding alone could exceed tol, or at
    step * 2**-12."""
    if not (np.isfinite(step) and step > 0):
        raise LinalgError(f"step must be finite and > 0, got {step}")
    span = float(times[-1] - times[0])
    reach = np.abs(times - times[0])   # progress is kept from t0, on the scale of span
    rate = tol / (abs(span) or 1.0)
    h, hmin, eps = step, step * 2 ** -12, np.finfo(float).eps
    X, k1 = X0, f(X0)
    out = np.empty((len(times),) + X0.shape, dtype=complex)
    j = int(np.count_nonzero(reach == 0.0))
    out[:j] = X0
    done = 0.0
    accepted, rejected, max_error = 0, 0, 0.0
    while j < len(times):
        rest = span - done
        nsub = max(1, int(ceil(abs(rest) / h * (1 - 1e-12))))
        dt = rest / nsub
        X1, K = _rk4(f, X, dt, k1)
        X1 = project(X1)
        K[6] = f(X1)
        flat = K.reshape(7, -1)
        err = abs(dt) * float(np.abs(_DP_E @ flat).max())
        bound = rate * abs(dt)
        if err <= bound:
            end = span if nsub == 1 else done + dt
            k = j + int(np.count_nonzero(reach[j:] <= abs(end)))
            last = k - 1 if k > j and reach[k - 1] == abs(end) else k
            if last > j:
                theta = (reach[j:last] - abs(done)) / abs(dt)
                W = theta[:, None] ** np.arange(1, 5) @ _DP_DENSE
                out[j:last] = project(X + (dt * W @ flat).reshape((last - j,) + X.shape))
            out[last:k] = X1
            X, k1, done, j = X1, K[6], end, k
            accepted += 1
            max_error = max(max_error, err)
        else:
            rejected += 1
            if bound <= eps * float(np.abs(X1).max()) or abs(dt) <= hmin:
                raise DriftError(f"tol {tol:.3e} cannot be met: error {err:.3e} at step {dt:.3e}")
        h = abs(dt) * (5.0 if err == 0 else min(5.0, max(0.2, 0.9 * (bound / err) ** 0.2)))
    return out, accepted, rejected, max_error


def _drift_controlled(f, X0, project, point, N, t1, t0, step, tol, samples):
    """Integrate X' = f(X) from X0 with the Dormand-Prince 5(4) of _integrate and map
    the stack of samples to orbit points with point. The spectrum drift of every
    sample is reported in the diagnostics; it does not control the step."""
    if not tol > 0:   # no error estimate is below 0 or NaN
        raise LinalgError(f"tol must be > 0, got {tol}")
    times = _sample_grid(t0, t1, samples)
    Xs, accepted, rejected, max_error = _integrate(f, X0, times, step, tol, project)
    P = point(Xs)
    return Trajectory(times, P, _diagnose_all(P.L, P.lam, N), accepted, rejected, max_error)


def normal_flow(L0, N, t1, t0=0.0, step=1e-3, tol=1e-8, samples=51):
    """Double-bracket gradient flow dL/dt = [L, [L, N]] in the normal metric by
    Dormand-Prince 5(4), projected to skew-Hermitian after each step and at each
    sample: step is the first step, tol bounds the error (see _integrate)."""
    N = linalg.check_skew(N, "flow driver N")

    def f(L):
        B = L @ N - N @ L
        return L @ B - B @ L

    return _drift_controlled(f, L0.L.astype(complex), linalg.skew_part,
                             lambda L: OrbitPoint(L, L0.lam.copy(), tuple(L0.K)),
                             N, t1, t0, step, tol, samples)


def _polar_unitary(g):
    U, _, Vh = np.linalg.svd(g)
    return U @ Vh


def induced_flow(g0, N, lam, t1, t0=0.0, step=1e-3, tol=1e-8, samples=51):
    """Induced-metric gradient flow, integrated on the unitary lift
    dg/dt = ad_inv_L(N) g by Dormand-Prince 5(4), re-unitarized by polar
    projection after each step and at each sample: step is the first step, tol
    bounds the error (see _integrate)."""
    N = linalg.check_skew(N, "flow driver N")
    lam = np.asarray(lam, dtype=float)
    g0 = linalg.as_matrix(g0)
    K = linalg.multiplicity_set(lam)
    C = _adinv_coeffs(lam)

    def f(g):
        return g @ (C * (g.conj().T @ N @ g))

    return _drift_controlled(f, g0, _polar_unitary, lambda g: flagorbit.orbit_from_rep(g, lam, K),
                             N, t1, t0, step, tol, samples)


def induced_flow_twisted(h0, N, lam, t1, t0=0.0, step=1e-3, tol=1e-8, samples=51):
    """Twisted form of the induced flow: dh/dt = -ad_inv(h delta N delta h*) h.
    The trajectory h(t) stays equal to iota(g(t)) for the untwisted lift; it is
    integrated like induced_flow."""
    N = linalg.check_skew(N, "flow driver N")
    lam = np.asarray(lam, dtype=float)
    n = len(lam)
    from . import perms
    d = perms.delta_matrix(n)
    Nd = d @ N @ d
    K = linalg.multiplicity_set(lam)
    C = _adinv_coeffs(lam)
    h0 = linalg.as_matrix(h0)

    def f(h):
        return -(C * (h @ Nd @ h.conj().T)) @ h

    def point(h):   # h = iota(g), so the untwisted representatives are g = delta h* delta
        return flagorbit.orbit_from_rep(d @ h.conj().swapaxes(-1, -2) @ d, lam, K)

    return _drift_controlled(f, h0, _polar_unitary, point, N, t1, t0, step, tol, samples)


def _graph_connected(adj):
    n = adj.shape[0]
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if adj[i, j] and j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == n


def classify_kahler(N, lam, tol=1e-9):
    """Positivity-preservation class of the Kahler gradient flow: strict,
    weak, or none.

    Grassmannian orbits follow the cyclic-band pattern rules with the corner
    sign (-1)^(k-1) i N_{n,1} >= 0, plus connectivity of the support graph for
    strictness. Other orbits require iN tridiagonal with nonnegative
    (positive for strict) off-diagonal entries.
    """
    A = linalg.square(N)
    lam = np.asarray(lam, dtype=float)
    n = A.shape[0]
    scale = max(1.0, float(np.abs(A).max()))
    M = 1j * A
    if np.abs(M.imag).max() > tol * scale or np.abs(M - M.T.conj()).max() > tol * scale:
        return NONE
    M = M.real
    K = linalg.multiplicity_set(lam)
    if len(K) == 0:
        return WEAK          # point orbit: constant flow
    offdiag = M - np.diag(np.diag(M))

    def connected():
        adj = np.abs(offdiag) > tol * scale
        return _graph_connected(adj)

    if len(K) >= 2:
        for i in range(n):
            for j in range(n):
                if abs(i - j) >= 2 and abs(M[i, j]) > tol * scale:
                    return NONE
        sup = np.array([M[i, i + 1] for i in range(n - 1)])
        if np.any(sup < -tol * scale):
            return NONE
        if np.all(sup > tol * scale):
            return STRICT
        return WEAK

    k = K[0]
    if k == 1 or k == n - 1:
        sgn = np.ones((n, n)) if k == 1 else np.fromfunction(
            lambda i, j: (-1.0) ** (i + j + 1), (n, n))
        vals = sgn * offdiag
        if np.any(vals < -tol * scale):
            return NONE
        return STRICT if connected() else WEAK
    # 2 <= k <= n-2: cyclic band
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            diff = (i - j) % n
            if diff not in (1, n - 1) and abs(M[i, j]) > tol * scale:
                return NONE
    band = [M[i, i + 1] for i in range(n - 1)]
    corner = (-1.0) ** (k - 1) * M[n - 1, 0]
    if any(b < -tol * scale for b in band) or corner < -tol * scale:
        return NONE
    return STRICT if connected() else WEAK


def _kahler_rep_derivative(g0, N):
    X = g0.conj().T @ (1j * N) @ g0
    return g0 @ linalg.k_project(X)


def boundary_derivative(metric, lam, N, g0, I, tol=1e-9):
    """First-order derivative at t = 0 of the flag minor Delta_I(g(t)) for a
    boundary configuration (Delta_I(g0) = 0), in the given metric."""
    if metric not in METRICS:
        raise LinalgError(f"unknown metric {metric!r}")
    N = linalg.check_skew(N, "flow driver N")
    lam = np.asarray(lam, dtype=float)
    g0 = linalg.as_matrix(g0)
    n = g0.shape[0]
    I = linalg.index_set(I, n)
    k = len(I)
    base = linalg.left_minor(g0, I)
    if abs(base) > 1e-8:
        raise DomainError(f"boundary_derivative: Delta_{I}(g0) = {base:.3e} is not on the boundary")
    if metric == "kahler":
        gdot = _kahler_rep_derivative(g0, N)
    elif metric == "normal":
        L0 = g0 @ (1j * np.diag(lam)) @ g0.conj().T
        gdot = -(L0 @ N - N @ L0) @ g0
    else:
        gdot = g0 @ (_adinv_coeffs(lam) * (g0.conj().T @ N @ g0))
    rows = [i - 1 for i in I]
    S = np.repeat(g0[None, rows, :k], k, axis=0)   # S[j] is g0's block with column j from gdot
    S[np.arange(k), :, np.arange(k)] = gdot[rows, :k].T
    total = sum(linalg._dets(S).tolist(), 0.0 + 0.0j)
    if abs(total.imag) > 1e-8 * max(1.0, abs(total)):
        raise LinalgError("boundary_derivative: non-real derivative")
    return float(total.real)


def normal_audit_configs_n3():
    """The boundary configurations from the normal-metric no-go argument at
    n = 3, with the closed forms their derivatives must equal.

    Returns (g0, I, coeff) triples: the derivative equals coeff(lam, iN).
    """
    s = 1 / np.sqrt(2)
    confs = []
    g = np.array([[1, 0, 0], [0, s, -s], [0, s, s]], dtype=float)
    confs.append((g, (3,), lambda lam, M: -(lam[1] - lam[2]) / 2 * M[1, 0]))
    g = np.array([[0, -s, s], [0, -s, -s], [1, 0, 0]], dtype=float)
    confs.append((g, (1,), lambda lam, M: -(lam[1] - lam[2]) / 2 * M[1, 2]))
    g = np.array([[s, -0.5, 0.5], [s, 0.5, -0.5], [0, s, s]], dtype=float)
    confs.append((g, (3,), lambda lam, M: (lam[1] - lam[2]) / 4 * (M[0, 0] - M[1, 1])))
    g = np.array([[0, -s, s], [s, -0.5, -0.5], [s, 0.5, 0.5]], dtype=float)
    confs.append((g, (1,), lambda lam, M: (lam[1] - lam[2]) / 4 * (M[2, 2] - M[1, 1])))
    g = np.array([[0.5, -0.5, s], [0.5, -0.5, -s], [s, s, 0]], dtype=float)
    confs.append((g, (1, 2), lambda lam, M: (lam[0] - lam[1]) / 4 * (M[1, 1] - M[0, 0])))
    g = np.array([[s, -s, 0], [0.5, 0.5, -s], [0.5, 0.5, s]], dtype=float)
    confs.append((g, (2, 3), lambda lam, M: (lam[0] - lam[1]) / 4 * (M[1, 1] - M[2, 2])))
    return confs


def induced_audit_n3(lam, N, tol=1e-9, grid=400):
    """First-order boundary audit of the induced-metric flow at n = 3.

    Evaluates the closed-form edge inequalities, the face inequality family
    over a grid in the two cell angles, and the eigenvalue-spacing interval
    criterion max(c/d, d/c) <= 2 + 2 sqrt(2). Admissibility of the inequality
    family is necessary for positivity preservation, not sufficient.
    """
    lam = np.asarray(lam, dtype=float)
    if len(lam) != 3:
        raise LinalgError("induced_audit_n3: n = 3 only")
    if not linalg.is_strictly_decreasing(lam):
        raise DomainError("induced_audit_n3: lam must be strictly decreasing")
    A = linalg.square(N)
    scale = max(1.0, float(np.abs(A).max()))
    M = (1j * A)
    report = {"admissible": False, "edges": [], "faces": [], "interval_ok": None, "note": None}
    c = float(lam[0] - lam[1])
    d = float(lam[1] - lam[2])
    report["interval_ok"] = bool(max(c / d, d / c) <= 2 + 2 * np.sqrt(2) + 1e-12)
    if np.abs(M.imag).max() > tol * scale or np.abs(M - M.T.conj()).max() > tol * scale:
        report["note"] = "iN is not real symmetric"
        return report
    M = M.real
    if abs(M[0, 2]) > tol * scale or M[0, 1] < -tol * scale or M[1, 2] < -tol * scale:
        report["note"] = "iN is not in the nonnegative tridiagonal cone"
        return report
    shift = M[1, 1]
    p, q = M[0, 0] - shift, M[2, 2] - shift
    u, v = max(M[0, 1], 0.0), max(M[1, 2], 0.0)

    s = np.hypot(u, v)
    edges = [c * (u - s) + 2 * d * u, c * (v - s) + 2 * d * v,
             d * (u - s) + 2 * c * u, d * (v - s) + 2 * c * v]
    report["edges"] = [float(e) for e in edges]

    eps = 1e-4
    al = np.linspace(eps, np.pi / 2 - eps, grid)
    be = np.linspace(eps, np.pi / 2 - eps, grid)
    Al, Be = np.meshgrid(al, be, indexing="ij")

    def face_min(cc, dd, pp, qq, uu, vv):
        F = (cc * qq * np.sin(2 * Al) * np.cos(Be)
             + cc * uu * (1 - np.cos(2 * Al))
             + cc * vv * np.sin(2 * Al) * np.cos(2 * Be) / np.sin(Be)
             + 2 * dd * uu)
        return float(F.min())

    images = [(c, d, p, q, u, v), (d, c, -p, -q, u, v),
              (c, d, q, p, v, u), (d, c, -q, -p, v, u)]
    report["faces"] = [face_min(*img) for img in images]

    atol = 1e-7 * max(1.0, c + d) * max(1.0, abs(p), abs(q), u, v)
    edges_ok = all(e >= -atol for e in edges)
    faces_ok = all(f >= -atol for f in report["faces"])
    report["admissible"] = bool(edges_ok and faces_ok)
    return report


def limit_point(N, lam):
    """Global attractor of the Kahler flow: sum of (lam_k - lam_{k+1}) times
    the leading spectral projections of iN, plus lam_n iI."""
    N = linalg.check_skew(N, "flow driver N")
    lam = np.asarray(lam, dtype=float)
    K = linalg.multiplicity_set(lam)
    W = _gapped_eigvecs(N, K, "limit_point")
    return _from_projections(lam, K, [W[:, :k] for k in K])


def _gapped_eigvecs(N, K, who):
    """Eigenbasis of iN (decreasing eigenvalues), checked to have a spectral gap
    after each k in K."""
    mu, W = linalg.herm_eig(1j * N)
    diam = float(mu[0] - mu[-1])
    for k in K:
        if mu[k - 1] - mu[k] <= linalg.CLUSTER_RTOL * max(diam, 1e-300):
            raise DomainError(f"{who}: eigenvalue gap condition fails at k = {k}")
    return W


def in_stable_manifold(P, N):
    """rank(Pinf_k P_k) = k for all k in K: the flow from P converges to the
    limit point."""
    N = linalg.check_skew(N, "flow driver N")
    W = _gapped_eigvecs(N, P.K, "in_stable_manifold")
    for k, (_, Pk) in zip(P.K, flagorbit.decompose_orbit(P)):
        Pinf = W[:, :k] @ W[:, :k].conj().T
        # both factors have unit spectral norm, so rank against an absolute scale
        sv = np.linalg.svd(Pinf @ Pk, compute_uv=False)
        if int(np.sum(sv > linalg.RANK_RTOL)) < k:
            return False
    return True
