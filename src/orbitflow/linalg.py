"""Dense complex linear algebra: minors, index-set combinatorics, the Iwasawa
(QR) decomposition, the matrix exponential, and eigendecompositions.

Index sets are strictly increasing tuples of 1-based indices. Everything here
is numpy, except mat_exp, which imports scipy on its first call.
"""

from dataclasses import dataclass
from itertools import combinations
from math import ceil, isfinite

import numpy as np

from .errors import LinalgError

RANK_RTOL = 1e-9      # singularity threshold, relative to the largest singular value
CLUSTER_RTOL = 1e-8   # eigenvalue cluster rule, relative to the spectral diameter
MAX_CHUNKS = 10 ** 5  # closed-form chunks (one QR each) per time; tests, demos and benchmark need <= 30


def check_tol(tol):
    """Refuse a tolerance that is not finite and > 0: no verdict, rank or error
    bound rests on it."""
    if not (isfinite(tol) and tol > 0):
        raise LinalgError(f"tol must be finite and > 0, got {tol}")


def as_matrix(M):
    A = np.array(M, dtype=complex)
    if A.ndim != 2 or min(A.shape) < 1:
        raise LinalgError(f"expected a 2-d matrix with at least one row and column, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise LinalgError("matrix entries must be finite")
    return A


def square(M):
    A = as_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise LinalgError(f"expected a square matrix, got shape {A.shape}")
    return A


def index_set(I, n):
    I = tuple(int(i) for i in I)
    for a, b in zip(I, I[1:]):
        if a >= b:
            raise LinalgError(f"index set must be strictly increasing, got {I}")
    if I and (I[0] < 1 or I[-1] > n):
        raise LinalgError(f"index set {I} out of bounds for [1, {n}]")
    return I


_SETS, _ROWS = {}, {}   # (n, k) -> index_sets(n, k); id of each -> (it, its 0-based index array)


def index_sets(n, k):
    """All k-element subsets of [n] as increasing 1-based tuples, built once per (n, k)."""
    if (n, k) not in _SETS:
        sets = _SETS[n, k] = tuple(combinations(range(1, n + 1), k))
        rows = np.array(sets, dtype=np.intp).reshape(len(sets), k) - 1
        rows.flags.writeable = False   # one array for every caller
        _ROWS[id(sets)] = sets, rows   # holding sets keeps its id from being reused
    return _SETS[n, k]


def _rows(sets):
    """0-based index array of a family of 1-based index sets, index_sets' cached one."""
    plan = _ROWS.get(id(sets))
    return np.subtract(sets, 1) if plan is None else plan[1]


def inv_count(I, J):
    """Number of pairs (i, j) in I x J with i > j."""
    return sum(1 for i in I for j in J if i > j)


def _mul(a, b):
    """Elementwise product; complex ones unfused, as a scalar multiply rounds."""
    if not np.iscomplexobj(a):
        return a * b
    out = np.array(a.real * b.real - a.imag * b.imag, dtype=complex)
    out.imag = a.real * b.imag + a.imag * b.real
    return out


_DROP = {2: np.array([[1], [0]]), 3: np.array([[1, 2], [0, 2], [0, 1]])}   # all columns but j


def _dets(S):
    """Determinants of a (..., k, k) stack in its dtype: for 1 <= k <= 3 the closed
    forms (first-row Laplace, terms added left to right), else LU with pivoting."""
    k = S.shape[-1]
    if k == 0 or k > 3:
        return np.linalg.det(S)
    if k == 1:
        return S[..., 0, 0]
    t = _mul(S[..., 0, :], _dets(S[..., 1:, _DROP[k]].swapaxes(-2, -3)))
    d = t[..., 0] - t[..., 1]
    return d + t[..., 2] if k == 3 else d


def _det(A):
    return complex(_dets(A))


def minors(M, rows, cols):
    """Every minor of M on rows x cols, two families of 1-based index sets of
    one order k, from one (len(rows), len(cols), k, k) stack of submatrices.
    Returns (minors, scale) of that shape in the dtype of M; scale is the
    product of each submatrix's row norms, or 1 where that is 0."""
    S = np.asarray(M)[_rows(rows)[:, None, :, None], _rows(cols)[None, :, None, :]]
    s = np.linalg.norm(S, axis=-1).prod(axis=-1)
    return _dets(S), np.where(s > 0.0, s, 1.0)


def left_minors(M, rows):
    """minors of one family of row sets on the first columns, 1-d, on complex
    entries like left_minor."""
    vals, scale = minors(as_matrix(M), rows, index_sets(len(rows[0]), len(rows[0])))
    return vals[:, 0], scale[:, 0]


def minor(M, rows, cols):
    """Determinant of the submatrix on 1-based row/column index sets."""
    A = as_matrix(M)
    I = index_set(rows, A.shape[0])
    J = index_set(cols, A.shape[1])
    if len(I) != len(J):
        raise LinalgError(f"minor needs |I| = |J|, got {len(I)} and {len(J)}")
    return _det(A[np.ix_([i - 1 for i in I], [j - 1 for j in J])])


def left_minor(M, rows):
    """Left-justified minor: rows I against the first |I| columns."""
    I = tuple(rows)
    return minor(M, I, tuple(range(1, len(I) + 1)))


@dataclass(frozen=True)
class IwasawaFactors:
    k_factor: np.ndarray   # unitary
    h_factor: np.ndarray   # positive diagonal
    n_factor: np.ndarray   # unit upper-triangular

    def reconstruct(self):
        return self.k_factor @ self.h_factor @ self.n_factor


def _qr(g):
    """Q, R of a square nonsingular g, and the unit phases of diag(R); an
    unchecked (..., n, n) stack gives the stacks of each."""
    A = square(g) if np.ndim(g) == 2 else g
    sv = np.linalg.svd(A, compute_uv=False).T   # sv[0], sv[-1] are scalars for one matrix
    if np.count_nonzero(sv[-1] <= RANK_RTOL * sv[0]):
        raise LinalgError("iwasawa: singular input")
    Q, R = np.linalg.qr(A)
    d = R.diagonal(0, -2, -1)
    return Q, R, d / np.abs(d)


def iwasawa(g):
    """g = k h n with k unitary, h positive diagonal, n unit upper-triangular."""
    Q, R, phase = _qr(g)
    h = np.abs(np.diag(R))
    N = R / phase[:, None] / h[:, None]
    np.fill_diagonal(N, 1.0)
    return IwasawaFactors(Q * phase[None, :], np.diag(h), N)


def k_factor(g):
    """The unitary Iwasawa factor of g, equal to iwasawa(g).k_factor; of each
    matrix of a (..., n, n) stack, in one stacked SVD check and QR."""
    Q, _, phase = _qr(g)
    return Q * phase[..., None, :]


def k_project(L):
    """Skew-Hermitian K with L - K upper-triangular with real diagonal."""
    return _k_project(square(L))


def _k_project(A, lower=None):
    """k_project of a complex square array, unchecked; lower, its strictly-lower mask
    (np.tril costs more), is built here unless the caller passes it."""
    n = A.shape[0]
    if lower is None:
        lower = np.arange(n)[:, None] > np.arange(n)
    K = np.where(lower, A, 0)
    K = K - K.conj().T
    K.flat[::n + 1] = 1j * np.imag(A.flat[::n + 1])
    return K


def exp_eig(mu, W, t):
    """exp(t H) for H = W diag(mu) W* with W unitary, scaled by exp(-max(t mu))
    so that its largest eigenvalue is 1; a (samples, 1) column of times t gives
    the (samples, n, n) stack of them."""
    ex = t * mu
    return (W * np.exp(ex - ex.max(axis=-1, keepdims=True))[..., None, :]) @ W.conj().T


def mat_exp(L):
    """General matrix exponential. scipy is imported here, on first use, so
    that importing orbitflow loads only numpy."""
    import scipy.linalg

    return scipy.linalg.expm(square(L))


def herm_eig(H, tol=1e-10):
    """Eigenvalues (decreasing) and orthonormal eigenvectors of a Hermitian matrix."""
    A = square(H)
    scale = max(1.0, float(np.abs(A).max()))
    if np.abs(A - A.conj().T).max() > tol * scale:
        raise LinalgError("herm_eig: input is not Hermitian within tolerance")
    w, U = np.linalg.eigh((A + A.conj().T) / 2)
    return w[::-1].copy(), U[:, ::-1].copy()


def general_eig(g, rtol=RANK_RTOL):
    """Eigendecomposition sorted by decreasing modulus, then real, then imaginary part.

    Columns of V are unit eigenvectors with the largest-modulus entry made
    positive real, so the output is deterministic for simple spectra.
    """
    A = square(g)
    w, V = np.linalg.eig(A)
    order = sorted(range(len(w)), key=lambda i: (-abs(w[i]), -w[i].real, -w[i].imag))
    w = w[order]
    V = V[:, order]
    V = phase_normalize(V / np.array([np.linalg.norm(col) for col in V.T]))
    sv = np.linalg.svd(V, compute_uv=False)
    if sv[-1] <= rtol * sv[0]:
        raise LinalgError("general_eig: matrix is defective beyond tolerance")
    return w, V


def phase_normalize(M):
    """M with each column (a 1-d M is one column) divided by the unit phase of
    its first largest-modulus entry, which becomes positive real."""
    M = np.asarray(M)
    cols = M.reshape(len(M), -1)
    top = cols[np.argmax(np.abs(cols), axis=0), np.arange(cols.shape[1])]
    # each phase p / |p| on a numpy scalar: the array form rounds differently
    return M / np.array([p / abs(p) for p in top]).reshape(M.shape[1:])


def rank_of(A, rtol=RANK_RTOL):
    A = as_matrix(A)
    sv = np.linalg.svd(A, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rtol * sv[0]))


def unitary_defect(g):
    A = square(g)
    return float(np.abs(A.conj().T @ A - np.eye(A.shape[0])).max())


def skew_part(L):
    """(L - L*) / 2, over the last two axes."""
    return (L - L.conj().swapaxes(-1, -2)) / 2


def skew_defect(L):
    A = square(L)
    return float(np.abs(A + A.conj().T).max())


def check_skew(M, what="matrix"):
    """M as a square complex array, checked skew-Hermitian to 1e-8 of its largest entry."""
    A = square(M)
    if skew_defect(A) > 1e-8 * max(1.0, float(np.abs(A).max())):
        raise LinalgError(f"{what} must be skew-Hermitian")
    return A


def cluster_blocks(values, rtol=CLUSTER_RTOL):
    """Partition an ordered spectrum into blocks of near-equal values.

    Consecutive values closer than rtol times the spectral diameter share a
    block. Returns a list of (start, stop) half-open 0-based ranges.
    """
    v = np.asarray(values)
    n = len(v)
    if n == 0:
        return []
    diam = float(np.abs(v[None, :] - v[:, None]).max())
    thresh = rtol * diam
    blocks = []
    start = 0
    for i in range(n - 1):
        if abs(v[i] - v[i + 1]) > thresh:
            blocks.append((start, i + 1))
            start = i + 1
    blocks.append((start, n))
    return blocks


def multiplicity_set(lam, rtol=CLUSTER_RTOL):
    """K = { k : lam_k > lam_{k+1} } under the clustering rule, 1-based."""
    blocks = cluster_blocks(lam, rtol)
    return tuple(stop for _, stop in blocks[:-1])


def is_strictly_decreasing(lam, rtol=CLUSTER_RTOL):
    lam = np.asarray(lam, dtype=float)
    return multiplicity_set(lam, rtol) == tuple(range(1, len(lam)))


def split_chunks(t, diameter, max_exp=14.0):
    """Number of equal chunks so one chunk keeps |dt| * diameter <= max_exp.

    Closed-form flows through exp() lose relative accuracy like
    eps * exp(dt * diameter); chunking with re-orthonormalization keeps each
    factor's dynamic range within the working precision. A time that needs
    more than MAX_CHUNKS chunks is refused rather than run for hours.
    """
    if not isfinite(t):
        raise LinalgError(f"time must be finite, got {t}")
    if t == 0.0 or diameter <= 0.0:
        return 1
    chunks = abs(t) * diameter / max_exp
    if chunks > MAX_CHUNKS:
        raise LinalgError(f"time {t:.6g} needs {chunks:.3g} chunks at spectral diameter {diameter:.6g}, "
                          f"more than {MAX_CHUNKS}")
    return max(1, int(ceil(chunks)))
