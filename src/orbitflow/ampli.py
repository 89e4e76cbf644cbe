"""Amplituhedron machinery: the Z-map, twisted Vandermonde Z matrices,
kernel-invariance checks, projected driving matrices, and forward sampling.

Membership testing of arbitrary points is not provided; only forward images
of certified totally positive Grassmannian points are produced.
"""

from dataclasses import dataclass

import numpy as np

from . import flagorbit, jacobi, linalg, positivity
from .errors import CertificationError, DomainError, LinalgError


@dataclass(frozen=True)
class ZData:
    n: int
    k: int
    m: int
    Z: np.ndarray
    orthonormal_rows: bool


def make_zdata(Z, k, tol=1e-9):
    """Validated Z matrix with positive top-order minors.

    Row signs are canonicalized: the lexicographically first nonzero
    top-order minor is made positive by negating row 1 if needed, then all
    top-order minors must certify positive.
    """
    A = linalg.as_matrix(Z)
    scale = max(1.0, float(np.abs(A).max()))
    if np.abs(A.imag).max() > tol * scale:
        raise DomainError("make_zdata: Z must be real")
    R = A.real.copy()
    r, n = R.shape
    k = int(k)
    if not (0 <= k <= r):
        raise LinalgError(f"make_zdata: k must lie in [0, {r}]")
    if r > n:
        raise LinalgError("make_zdata: Z must have at most as many rows as columns")
    if linalg.rank_of(R) < r:
        raise LinalgError("make_zdata: Z must have full row rank")
    cols = linalg.index_sets(n, r)
    vals = linalg.left_minors(R.T, r)[-1]   # det R[:, J] is the left-justified minor of R^T on rows J
    s = linalg.row_norm_scales(R, linalg.index_sets(r, r), cols)[0]
    nonzero = np.abs(vals) > tol * s
    if not nonzero.any():
        raise LinalgError("make_zdata: all top-order minors vanish")
    if vals[int(np.argmax(nonzero))] < 0:
        R[0, :] = -R[0, :]
        vals = -vals   # row 1 is in every minor, so each negates exactly
    low = vals <= tol * s
    if low.any():
        raise CertificationError(
            f"make_zdata: top-order minor on columns {cols[int(np.argmax(low))]} is not positive")
    ortho = float(np.abs(R @ R.T - np.eye(r)).max()) <= 1e-10
    return ZData(n, k, r - k, R, ortho)


def zmap(zd, V):
    """Column span of Z V as a point of Gr_{k, k+m}; the input span must miss ker(Z)."""
    A = linalg.as_matrix(V)
    if A.shape != (zd.n, zd.k):
        raise LinalgError(f"zmap: expected an {zd.n} x {zd.k} representative, got {A.shape}")
    W = zd.Z.astype(complex) @ A
    # rank against the input scales: a kernel collision makes W numerically zero
    scale = (np.linalg.svd(zd.Z, compute_uv=False)[0]
             * np.linalg.svd(A, compute_uv=False)[0])
    sv = np.linalg.svd(W, compute_uv=False)
    if int(np.sum(sv > linalg.RANK_RTOL * scale)) < zd.k:
        raise DomainError("zmap: the subspace meets ker(Z); the image is undefined")
    return W


def kernel_basis(zd):
    _, _, Vh = np.linalg.svd(zd.Z)
    r = zd.k + zd.m
    return Vh[r:, :].conj().T


def kernel_invariant(zd, N):
    """True when N maps ker(Z) into itself, so Z projects the flow coherently."""
    N = linalg.square(N)
    Kb = kernel_basis(zd)
    if Kb.shape[1] == 0:
        return True
    B = np.hstack([Kb, N @ Kb])
    return linalg.rank_of(B) == zd.n - zd.k - zd.m


def project_N(zd, N):
    """M = Z N Z^T, the projected driving matrix; needs orthonormal rows and
    an invariant kernel, and then Z exp(t iN) = exp(t iM) Z."""
    N = linalg.check_skew(N, "project_N: N")
    if not zd.orthonormal_rows:
        raise DomainError("project_N: Z must have orthonormal rows")
    if not kernel_invariant(zd, N):
        raise DomainError("project_N: ker(Z) is not invariant under N")
    return linalg.skew_part(zd.Z @ N @ zd.Z.T)


def commutation_residual(zd, N, t):
    """Max-norm of Z exp(t iN) - exp(t iM) Z, both exponentials of Hermitian
    matrices taken from their eigendecompositions."""
    def exp_t(H):
        mu, W = linalg.herm_eig(H)
        return linalg.exp_eig(mu, W, t) * np.exp((t * mu).max())

    M = project_N(zd, N)
    return float(np.abs(zd.Z @ exp_t(1j * N) - exp_t(1j * M) @ zd.Z).max())


def twisted_vdm_Z(d, r, k=None):
    """Z whose rows are the first r columns of the canonical representative of
    the twisted Vandermonde flag; all top-order minors are positive."""
    if not (1 <= r <= len(d.lam)):
        raise LinalgError("twisted_vdm_Z: need 1 <= r <= n")
    tw = flagorbit.twist_flag(jacobi.vandermonde_flag(d))
    return make_zdata(tw.rep[:, :r].T, r if k is None else k)


def sample_amplituhedron(zd, count, rng):
    """Interior amplituhedron points: images of spans of the first k columns
    of certified totally positive matrices."""
    if zd.k < 1:
        raise LinalgError("sample_amplituhedron: k must be >= 1")
    out = []
    for _ in range(int(count)):
        A = positivity.sample_tp(zd.n, rng)
        out.append(zmap(zd, A[:, :zd.k].astype(complex)))
    return out


def in_conic_hull(y, vertices):
    """Feasibility of y = sum_i c_i v_i with c >= 0 (projective membership for
    k = 1 points), decided by linear programming. scipy is imported here, on
    first use, so that importing orbitflow loads only numpy."""
    import scipy.optimize

    y = np.asarray(y, dtype=float).reshape(-1)
    Vm = np.asarray(vertices, dtype=float)
    y = y / np.linalg.norm(y)
    res = scipy.optimize.linprog(
        c=np.zeros(Vm.shape[1]), A_eq=Vm, b_eq=y,
        bounds=[(0, None)] * Vm.shape[1], method="highs")
    return bool(res.status == 0)
