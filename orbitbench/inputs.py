"""Seeded workload inputs and independent oracles, in plain numpy.

Nothing here calls orbitflow: inputs must not change when the library's own
samplers or parameter ranges change, and the oracles must not share code
with the functions they check.
"""

from itertools import combinations

import numpy as np


def word(n):
    """Reduced word for the longest permutation, as bidiagonal factor indices."""
    out = []
    for k in range(1, n):
        out.extend(range(k, 0, -1))
    return out


PARAM_RANGE = (0.9, 1.1)   # narrow enough that n = 6 minors stay far above double precision


def tp_matrix(rng, n, skip_lower=0):
    """Product L D U of elementary bidiagonal factors with parameters drawn
    log-uniformly from PARAM_RANGE.

    With skip_lower = 0 every factor of a reduced word is present, so the
    matrix is totally positive. Dropping lower factors leaves it totally
    nonnegative with some left-justified minors exactly zero.
    """
    lo, hi = np.log(PARAM_RANGE)
    w = word(n)
    dropped = set(rng.choice(len(w), size=skip_lower, replace=False)) if skip_lower else set()
    A = np.eye(n)
    for pos, i in enumerate(w):
        if pos in dropped:
            continue
        F = np.eye(n)
        F[i, i - 1] = np.exp(rng.uniform(lo, hi))
        A = A @ F
    A = A @ np.diag(np.exp(rng.uniform(lo, hi, size=n)))
    for i in reversed(w):
        F = np.eye(n)
        F[i - 1, i] = np.exp(rng.uniform(lo, hi))
        A = A @ F
    return A


def q_factor(A):
    """Orthogonal QR factor with a positive R diagonal (the Iwasawa k factor)."""
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))[None, :]


def random_unitary(rng, n, real=False):
    G = rng.normal(size=(n, n))
    if not real:
        G = G + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(G)
    d = np.diag(R)
    return Q * (d / np.abs(d))[None, :]


def random_phases(rng, n):
    return np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=n))


def spectrum(rng, n):
    """Strictly decreasing spectrum with gaps in [0.4, 1], centred."""
    lam = -np.cumsum(np.concatenate([[0.0], rng.uniform(0.4, 1.0, size=n - 1)]))
    return lam - lam.mean()


def skew_hermitian(rng, n):
    """Random skew-Hermitian flow matrix N with spectral norm 1/2."""
    H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    H = (H + H.conj().T) / 2
    return -0.5j * H / np.linalg.norm(H, 2)


def jacobi_matrix(rng, n):
    """Real symmetric tridiagonal J with positive off-diagonal entries."""
    b = rng.uniform(0.4, 1.2, size=n - 1)
    a = rng.uniform(-1.0, 1.0, size=n)
    return np.diag(a) + np.diag(b, 1) + np.diag(b, -1)


def delta(n):
    return np.diag([(-1.0) ** i for i in range(n)])


def tnn_signed_perm(w):
    """Permutation matrix of w (1-based images) with column signs chosen so
    every nonzero left-justified minor is positive."""
    n = len(w)
    M = np.zeros((n, n))
    for j, i in enumerate(w):
        M[i - 1, j] = 1.0
    for k in range(1, n + 1):
        rows = sorted(i - 1 for i in w[:k])
        if np.linalg.det(M[np.ix_(rows, range(k))]) < 0:
            M[:, k - 1] = -M[:, k - 1]
    return M


def random_perm(rng, n):
    return tuple(int(i) + 1 for i in rng.permutation(n))


OUTSIDE_MARGIN = 1e-3   # outside inputs have a scaled minor at least this far below zero


def outside_matrix(rng, n):
    """Gaussian matrix with a clearly negative scaled minor."""
    while True:
        B = rng.normal(size=(n, n))
        if worst_scaled_minor(B) < -OUTSIDE_MARGIN:
            return B


def outside_orthogonal(rng, n):
    """Random orthogonal matrix with a clearly negative scaled left-justified
    minor and a clearly negative normalized Plucker coordinate (small n draws
    totally nonnegative ones often enough to need the test)."""
    while True:
        Q = random_unitary(rng, n, real=True)
        if worst_left(Q, False) < -OUTSIDE_MARGIN and worst_left(Q, True) < -OUTSIDE_MARGIN:
            return Q


# ---- oracles ---------------------------------------------------------------

def all_minors(A, k):
    """Every order-k minor of a square matrix, batched through np.linalg.det.

    Returns (row sets, col sets, values, row-norm scales), 1-based sets.
    """
    n = A.shape[0]
    S = np.array(list(combinations(range(n), k)))
    subs = A[S[:, None, :, None], S[None, :, None, :]]
    vals = np.linalg.det(subs)
    scales = np.prod(np.linalg.norm(subs, axis=3), axis=2)
    scales[scales == 0.0] = 1.0
    m = len(S)
    rows = np.repeat(np.arange(m), m)
    cols = np.tile(np.arange(m), m)
    return S[rows] + 1, S[cols] + 1, vals.reshape(-1), scales.reshape(-1)


def worst_scaled_minor(A):
    """The minimum over all minors of the minor over its row-norm product."""
    worst = np.inf
    for k in range(1, A.shape[0] + 1):
        _, _, v, s = all_minors(A, k)
        worst = min(worst, float((v / s).min()))
    return worst


def left_minors(A, k):
    """Left-justified order-k minors: (row sets, values, row-norm scales)."""
    n = A.shape[0]
    S = np.array(list(combinations(range(n), k)))
    subs = A[S[:, :, None], np.arange(k)[None, None, :]]
    vals = np.linalg.det(subs)
    scales = np.prod(np.linalg.norm(subs, axis=2), axis=1)
    scales[scales == 0.0] = 1.0
    return S + 1, vals, scales


def left_rel(Q, k, plucker):
    """Left-justified order-k minors of Q: (row sets, values, relative values).

    Relative means over the row-norm product, or for Plucker coordinates
    after making the largest-modulus one positive, over its modulus.
    """
    S, vals, scales = left_minors(Q, k)
    if plucker:
        big = vals[np.argmax(np.abs(vals))]
        vals = vals * np.sign(big)
        return S, vals, vals / abs(big)
    return S, vals, vals / scales


def worst_left(Q, plucker):
    """Minimum relative left-justified minor over the orders a verdict checks:
    1..n-1 (the flag's Plucker coordinates) or 1..n."""
    n = Q.shape[0]
    orders = range(1, n) if plucker else range(1, n + 1)
    return min(float(left_rel(Q, k, plucker)[2].min()) for k in orders)


def minor_and_scale(A, rows, cols):
    """Minor on 1-based index sets and the row-norm product of its submatrix."""
    sub = A[np.ix_([i - 1 for i in rows], [j - 1 for j in cols])]
    s = float(np.prod(np.linalg.norm(sub, axis=1)))
    return np.linalg.det(sub), (s if s > 0 else 1.0)


def projector(V):
    Q = np.linalg.qr(V)[0]
    return Q @ Q.conj().T


def flag_gap(A, B, ks):
    """Max over k of the deviation between the column-prefix projectors."""
    return max(float(np.abs(projector(A[:, :k]) - projector(B[:, :k])).max()) for k in ks)


def killing(L, N):
    n = L.shape[0]
    return float((2 * n * np.trace(L @ N) - 2 * np.trace(L) * np.trace(N)).real)


def symes(L0, t):
    """Toda point Q* L0 Q with Q the unitary QR factor of exp(-t i L0)."""
    w, W = np.linalg.eigh(1j * L0)
    ex = -t * w
    E = (W * np.exp(ex - ex.max())[None, :]) @ W.conj().T
    Q, R = np.linalg.qr(E)
    d = np.diag(R)
    Q = Q * (d / np.abs(d))[None, :]
    L = Q.conj().T @ L0 @ Q
    return (L - L.conj().T) / 2
