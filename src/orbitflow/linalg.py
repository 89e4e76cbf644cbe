"""Dense complex linear algebra: minors, index-set combinatorics, the Iwasawa
(QR) decomposition, exponentials of Hermitian matrices from their
eigendecompositions, and eigendecompositions.

Index sets are strictly increasing tuples of 1-based indices. Everything here
is numpy.

Minor families (every minor of a matrix, or its left-justified ones) are built
order by order by Laplace expansion against the order below (_expand): each
order is one np.take per operand, one multiply and k adds, and no LU. The takes
read through flat index plans cached in _PLANS, integer arrays laid out with
the Laplace term first, keyed on the operand's shape (so its row stride: an
n x r view such as R.T indexes right) and the order, or for row_norm_scales on
a cached index_sets family, never on an uncached tuple, whose id can be
reused. At n = 8 they hold 0.91 MB, 0.82 MB of it minors' (k, C, C) plans.
The certificates' Hadamard scales come flat, every order of a family in one
array in the order of its minors: minor_scales and left_scales take one pass
of squared moduli, one gather and reduce for the row norms and one gather and
product per row position, bit for bit row_norm_scales order by order (sums of
fewer than PAIRWISE_TERMS terms in order, longer ones as numpy's contiguous
reduce forms them, products left to right over the rows). Their plans add
0.53 MB at n = 8, nearly all of it minor_scales'.
Orders k <= 3 are the closed forms of _dets, bit for bit: _nested expands the
operands that one take per row gathers through _closed_plan, for a stack of
matrices and for left_minors alike. Above, each level rounds by O(k eps) times
the Hadamard bound (the product of the submatrix's row norms), so a minor is
accurate to a small multiple of eps times that scale, not to its own value; a
value that is reported, such as a verdict's witness, comes from one _det of
its submatrix of the matrix as given (complex). A real matrix's minors are
taken in float64: _mul dispatches on the dtype, and with every imaginary part 0
a complex product's real part is the real product exactly, so these are the
complex family's real parts, bit for bit up to the sign of a zero, at about
half the cost.
"""

from dataclasses import dataclass
from itertools import combinations
from math import ceil, isfinite

import numpy as np

from .errors import LinalgError

RANK_RTOL = 1e-9      # singularity threshold, relative to the largest singular value
CLUSTER_RTOL = 1e-8   # eigenvalue cluster rule, relative to the spectral diameter
MAX_EXP = 14.0        # largest |dt| * spectral diameter of one closed-form chunk (exp range e^14)
MAX_CHUNKS = 10 ** 5  # closed-form chunks (one QR each) per time; tests, demos and benchmark need <= 30
PAIRWISE_TERMS = 8    # numpy adds fewer terms in order, and this many or more pairwise (a contiguous reduce)


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
_PLANS = {}             # (kind, shape of the operand, order or id of a cached family) -> index plan


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


def _plan(key, build):
    """The index plan (an array, or a tuple of them) cached under key, built by
    build() on first use. Plans stay writeable: np.take copies an index array
    it may not write, 0.4 MB per call for minor_scales' factors at n = 8."""
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS[key] = build()
    return plan


def _drops(n, k):
    """The drop-one plan of index_sets(n, k), k >= 2, (k, C): row m, column a is
    the position in index_sets(n, k - 1) of the a-th set without its m-th element."""
    def build():
        pos = {s: i for i, s in enumerate(index_sets(n, k - 1))}
        return np.array([[pos[s[:m] + s[m + 1:]] for s in index_sets(n, k)] for m in range(k)], dtype=np.intp)
    return _plan(("drops", n, k), build)


def _minor_plans(n, k):
    """The two flat plans of order k >= 2 of minors on an n x n matrix, each
    (k, C, C) with the Laplace term m first: entry [m, a, b] of the first reads
    A[I_a[0], J_b[m]] (0-based), of the second the order-(k - 1) minor on I_a
    without its first row against J_b without its m-th column."""
    def build():
        rows, drop = _rows(index_sets(n, k)), _drops(n, k)
        return np.stack([rows[:, 0, None] * n + rows.T[:, None, :],
                         drop[0, :, None] * len(index_sets(n, k - 1)) + drop[:, None, :]])
    return _plan(("minors", n, k), build)


def _closed_plan(k):
    """Where the closed form of a k x k determinant, 1 <= k <= 3, reads its
    operands, as row-major positions r * k + c: one array per row r, from the
    last up, each of shape (k - r, ..., k). Row r's entry [m_r, ..., m_0] is the
    m_r-th column left after the first-row Laplace expansions above it dropped
    column m_0, then m_1, ... (see _nested)."""
    def build():
        levels = []
        for r in range(k):
            level = np.empty(range(k - r, k + 1), dtype=np.intp)
            for idx in np.ndindex(level.shape):
                cols = list(range(k))
                for m in reversed(idx[1:]):
                    del cols[m]
                level[idx] = r * k + cols[idx[0]]
            levels.append(level)
        return tuple(reversed(levels))
    return _plan(("closed", k), build)


def _left_plan(shape, j):
    """Flat plan of order j of left-justified minors on a matrix of this shape
    (row stride shape[1]): for j <= 3 one array per level of _closed_plan(j),
    read on every row set (the set last), above that the (j, C) entries of
    column j, the Laplace term first."""
    def build():
        rows = _rows(index_sets(shape[0], j)).T
        if j <= 3:
            return tuple(rows[p // j] * shape[1] + (p % j)[..., None] for p in _closed_plan(j))
        return rows * shape[1] + (j - 1)
    return _plan(("left", shape, j), build)


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


def _expand(entries, cofactors):
    """Laplace expansion along one line: the sum over m of (-1)^m entries[m]
    cofactors[m], products through _mul, terms added left to right."""
    t = _mul(entries, cofactors)
    d = t[0]
    for m in range(1, len(t)):
        d = d - t[m] if m % 2 else d + t[m]
    return d


def _dets(S):
    """Determinants of a (..., k, k) stack of unrelated matrices in its dtype: for
    1 <= k <= 3 the closed forms (first-row Laplace, see _expand), else LU with
    pivoting."""
    k = S.shape[-1]
    if k == 0 or k > 3:
        return np.linalg.det(S)
    entries = S.reshape(S.shape[:-2] + (k * k,)).T   # the stack axes reversed, last
    return _nested([entries.take(p, axis=0) for p in _closed_plan(k)]).T


def _nested(levels):
    """The closed forms: the operands of _closed_plan, gathered, expanded from the
    last row up, each level along its first row against the one below."""
    d = levels[0][0]
    for entries in levels[1:]:
        d = _expand(entries, d)
    return d


def _det(A):
    return complex(_dets(A))


def _minor(A, rows, cols):
    """_det of A's submatrix on 1-based index sets, unchecked, in the dtype of A."""
    return _det(A[np.ix_(np.subtract(rows, 1), np.subtract(cols, 1))])


def minors(M):
    """Every minor of a square M: yields, for k = 1..n, the (C(n, k), C(n, k)) table
    of the order-k minors, rows and columns in index_sets(n, k) order, in the dtype
    of M. Each order expands every submatrix along its first row against the table
    below (see the module docstring), so orders k <= 3 are _dets' closed forms."""
    A = table = np.asarray(M)
    a = A.ravel()
    yield table
    for k in range(2, A.shape[0] + 1):
        entries, cofactors = _minor_plans(A.shape[0], k)
        table = _expand(a.take(entries), table.take(cofactors))
        yield table


def left_minors(M, k):
    """The left-justified minors of M (row sets I against the first |I| columns) of
    orders 1..k, one 1-d array per order, rows in index_sets order, in the dtype of
    M: _dets' closed forms up to order 3, then each order expanded along its last
    column against the order below."""
    A = np.asarray(M)
    a = A.ravel()
    out = []
    for j in range(1, k + 1):
        plan = _left_plan(A.shape, j)
        if j <= 3:
            out.append(_nested([a.take(p) for p in plan]))
        else:
            d = _expand(a.take(plan), out[-1].take(_drops(A.shape[0], j)))
            out.append(d if j % 2 else -d)   # the last column's cofactor signs start at (-1)^(j-1)
    return out


def row_norm_scales(M, rows, cols):
    """The product of the row norms of each submatrix of M on rows x cols, two
    families of 1-based index sets of one order, or 1 where that is 0. Each row's
    norm is taken once per column set, as numpy's norm takes it (the sum of the
    squared moduli, reduced over a contiguous axis: the reduction order depends on
    the layout), and multiplied over the rows in order."""
    A = np.asarray(M)

    def build():   # [i, b, m]: the squared modulus of row i in the m-th column of set b
        return np.arange(A.shape[0])[:, None, None] * A.shape[1] + _rows(cols)

    # cached for index_sets' families only: an uncached family's id can be reused
    plan = _plan(("norms", A.shape, id(cols)), build) if id(cols) in _ROWS else build()
    norms = np.sqrt(np.add.reduce((A.conj() * A).real.take(plan), axis=-1))
    s = np.multiply.reduce(norms.take(_rows(rows).T, axis=0), axis=0)   # left to right, from 1.0
    return np.where(s > 0.0, s, 1.0)


def _product_plan(orders):
    """The factors of a flat family's row-norm products, from one index array
    per order k = 1, 2, ... whose [..., m] is the norm of an entry's m-th row:
    factor m of every entry of order > m, m major, so that the entries factor
    m reaches are a suffix of the family. With it, per m, the first entry it
    reaches and where its factors start and stop."""
    firsts = np.cumsum([0] + [o[..., 0].size for o in orders[:-1]])
    reach = firsts[-1] + orders[-1][..., 0].size - firsts
    stops = np.cumsum(reach)
    factors = np.concatenate([o[..., m].ravel() for m in range(len(orders)) for o in orders[m:]])
    return factors, np.stack([firsts, stops - reach, stops], axis=-1)


def _scales(norms, factors, bounds):
    """The row-norm products of a family through its _product_plan: one
    in-place multiply per row position, so each entry's norms are multiplied
    left to right over its rows; 1 where the product is 0."""
    f = norms.take(factors)
    (_, _, stop), *rest = bounds.tolist()
    s = f[:stop]
    for first, lo, hi in rest:
        s[first:] *= f[lo:hi]
    return np.where(s > 0.0, s, 1.0)


def _minor_scale_plans(n):
    """minor_scales' plans on an n x n matrix: the sums of the column sets of
    fewer than PAIRWISE_TERMS columns, (m, t * n + i) the m-th column of set t
    in row i (position n * n, a 0, past the set's end); the _product_plan
    into the norms laid out t * n + i; and a (C, n, k) plan per wider order k."""
    def build():
        fams = [_rows(index_sets(n, k)) for k in range(1, n + 1)]
        kp = min(n, PAIRWISE_TERMS - 1)
        sets = np.concatenate([np.pad(J, ((0, 0), (0, kp - J.shape[1])), constant_values=-1) for J in fams[:kp]])
        short = np.where(sets[:, None, :] < 0, n * n, n * np.arange(n)[:, None] + sets[:, None, :])
        first = np.cumsum([0] + [len(J) for J in fams[:-1]])   # each order's first column set
        products = _product_plan([n * (t + np.arange(len(J)))[:, None] + J[:, None, :]
                                  for t, J in zip(first, fams)])   # [a, b, m]: row I_a[m] on set b
        wide = [n * np.arange(n)[:, None] + J[:, None, :] for J in fams[kp:]]
        return (short.transpose(2, 0, 1).reshape(kp, -1), *products, *wide)
    return _plan(("minor_scales", n), build)


def minor_scales(M):
    """row_norm_scales(M, S, S) of every order's S, bit for bit, flat in minors'
    order (each order's table raveled, the orders concatenated): a row norm
    adds fewer than PAIRWISE_TERMS squared moduli in order, more as numpy's
    contiguous reduce does."""
    short, factors, bounds, *wide = _minor_scale_plans(len(M))
    q = np.append((M.conj() * M).real, 0.0)   # the squared moduli row-major, then the padding 0
    sums = np.add.reduce(q.take(short), axis=0)   # over the leading axis: in order
    if wide:
        sums = np.concatenate([sums, *(np.add.reduce(q.take(w), axis=-1).ravel() for w in wide)])
    return _scales(np.sqrt(sums), factors, bounds)


def left_scales(M):
    """row_norm_scales(M, S, index_sets(k, k)) of every order k, bit for bit,
    flat in left_minors' order: the norm of a row's first k entries is the
    prefix sum of its squared moduli, in order below PAIRWISE_TERMS terms and
    as numpy's contiguous reduce from there."""
    n, q = len(M), (M.conj() * M).real
    sums = np.cumsum(q, axis=1)
    for k in range(PAIRWISE_TERMS, n + 1):
        sums[:, k - 1] = np.add.reduce(np.ascontiguousarray(q[:, :k]), axis=1)
    plan = _plan(("left_scales", n), lambda: _product_plan([n * _rows(index_sets(n, k)) + k - 1
                                                            for k in range(1, n + 1)]))
    return _scales(np.sqrt(sums), *plan)


def minor(M, rows, cols):
    """Determinant of the submatrix on 1-based row/column index sets."""
    A = as_matrix(M)
    I = index_set(rows, A.shape[0])
    J = index_set(cols, A.shape[1])
    if len(I) != len(J):
        raise LinalgError(f"minor needs |I| = |J|, got {len(I)} and {len(J)}")
    return _minor(A, I, J)


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
    return _qr_phases(A)


def _qr_phases(A):
    """_qr without the singularity check."""
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


def exp_k_factor(w, U, t):
    """k_factor(exp_eig(w, U, t)) for a decreasing spectrum w. The singular values
    of exp_eig are exp(t w) over one common scale, so k_factor's singularity check
    is their known ratio exp(-|t| (w[0] - w[-1])) against RANK_RTOL, and no SVD is
    taken."""
    if np.exp(-abs(t) * (w[0] - w[-1])) <= RANK_RTOL:
        raise LinalgError("iwasawa: singular input")
    Q, _, phase = _qr_phases(exp_eig(w, U, t))
    return Q * phase[None, :]


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


def herm_eig(H):
    """Eigenvalues (decreasing) and orthonormal eigenvectors of a Hermitian matrix."""
    A = square(H)
    scale = max(1.0, float(np.abs(A).max()))
    if np.abs(A - A.conj().T).max() > 1e-10 * scale:
        raise LinalgError("herm_eig: input is not Hermitian within tolerance")
    w, U = np.linalg.eigh((A + A.conj().T) / 2)
    return w[::-1].copy(), U[:, ::-1].copy()


def general_eig(g):
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
    if sv[-1] <= RANK_RTOL * sv[0]:
        raise LinalgError("general_eig: matrix is defective beyond tolerance")
    return w, V


def unit_phases(M):
    """The unit phase of the first largest-modulus entry of each column of M (a
    1-d M is one column), in the shape M.shape[1:]."""
    M = np.asarray(M)
    cols = M.reshape(len(M), -1)
    top = cols[np.argmax(np.abs(cols), axis=0), np.arange(cols.shape[1])]
    # each phase p / |p| on a numpy scalar: the array form rounds differently
    return np.array([p / abs(p) for p in top]).reshape(M.shape[1:])


def phase_normalize(M):
    """M with each column (a 1-d M is one column) divided by the unit phase of
    its first largest-modulus entry, which becomes positive real."""
    return np.asarray(M) / unit_phases(M)


def rank_of(A):
    A = as_matrix(A)
    sv = np.linalg.svd(A, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_RTOL * sv[0]))


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


def cluster_blocks(values):
    """Partition an ordered spectrum into blocks of near-equal values.

    Consecutive values closer than CLUSTER_RTOL times the spectral diameter share a
    block. Returns a list of (start, stop) half-open 0-based ranges. A diameter
    that is not finite (a value that is not, or a spread that overflows) raises.
    """
    v = np.asarray(values)
    n = len(v)
    if n == 0:
        return []
    with np.errstate(over="ignore", invalid="ignore"):   # reported below
        diam = float(np.abs(v[None, :] - v[:, None]).max())
    if not isfinite(diam):
        raise LinalgError(f"spectral diameter is {diam}: the values and their spread must be finite")
    thresh = CLUSTER_RTOL * diam
    blocks = []
    start = 0
    for i in range(n - 1):
        if abs(v[i] - v[i + 1]) > thresh:
            blocks.append((start, i + 1))
            start = i + 1
    blocks.append((start, n))
    return blocks


def multiplicity_set(lam):
    """K = { k : lam_k > lam_{k+1} } under the clustering rule, 1-based."""
    blocks = cluster_blocks(lam)
    return tuple(stop for _, stop in blocks[:-1])


def is_strictly_decreasing(lam):
    lam = np.asarray(lam, dtype=float)
    return multiplicity_set(lam) == tuple(range(1, len(lam)))


def split_chunks(t, diameter):
    """Number of equal chunks so one chunk keeps |dt| * diameter <= MAX_EXP.

    Closed-form flows through exp() lose relative accuracy like
    eps * exp(dt * diameter); chunking with re-orthonormalization keeps each
    factor's dynamic range within the working precision. A time that needs
    more than MAX_CHUNKS chunks is refused rather than run for hours.
    """
    if not isfinite(t):
        raise LinalgError(f"time must be finite, got {t}")
    if t == 0.0 or diameter <= 0.0:
        return 1
    chunks = abs(t) * diameter / MAX_EXP
    if chunks > MAX_CHUNKS:
        raise LinalgError(f"time {t:.6g} needs {chunks:.3g} chunks at spectral diameter {diameter:.6g}, "
                          f"more than {MAX_CHUNKS}")
    return max(1, int(ceil(chunks)))
