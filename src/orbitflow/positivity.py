"""Positivity certification: totally positive matrices, the tridiagonal cone,
totally nonnegative unitary representatives, Plucker positivity, eventual
total positivity, and certified random samples.

All testers return a Verdict with status "positive", "nonnegative", or
"outside"; an outside verdict carries a witness minor or entry. A minor
certificate (is_tp_matrix, is_tnn_unitary, is_plucker_nonneg) reads its
family in one pass: one flat array of every order's minors, one of their
scales, one verdict reduction (_verdict). Events keep the order a scan of the
orders one by one would meet them in: an overflow raises, then a non-real
minor is the witness, then (is_plucker_nonneg) a degenerate order raises; the
witness is the first smallest scaled minor. A minor verdict also reports its
margin (the least scaled minor it read), how many it read, and its path.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import linalg, perms
from .errors import CertificationError, DomainError, LinalgError

POSITIVE = "positive"
NONNEGATIVE = "nonnegative"
OUTSIDE = "outside"

FEKETE = "fekete"           # positive from the consecutive-row minors alone
EXHAUSTIVE = "exhaustive"   # a scan of every minor of the family

MAX_EXHAUSTIVE_N = 8
UNITARY_ATOL = 1e-8


@dataclass(frozen=True)
class Witness:
    rows: tuple
    cols: tuple
    value: float


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: Optional[Witness]
    tol: float
    note: Optional[str] = None
    margin: Optional[float] = field(default=None, compare=False)   # the least scaled minor checked
    checked: Optional[int] = field(default=None, compare=False)    # how many minors the verdict read
    path: Optional[str] = field(default=None, compare=False)       # FEKETE or EXHAUSTIVE

    @property
    def is_positive(self):
        return self.status == POSITIVE

    @property
    def is_nonnegative(self):
        return self.status in (POSITIVE, NONNEGATIVE)


def _require_real(A, tol, scale, what):
    if np.abs(A.imag).max() > tol * scale:
        raise DomainError(f"{what}: complex entries beyond tolerance")
    return A.real


def _verdict(vals, scale, families, tol, value, note=None, nonreal_note=None, allow_positive=True,
             stop=None):
    """Verdict from one flat array of minors and one of their scales, the
    orders one after another, families holding each order's (rows, cols)
    (its minors rows-major). The witness is the first smallest minor / scale,
    the one a sequential `<` scan finds; a minor with |imag| > tol * scale is
    outside at once. The value a witness reports is value(rows, cols), one
    _det of its submatrix in the matrix as given (LU above order 3): the
    minors are accurate to eps times their scale, not to their value, and may
    be taken in a smaller field. A non-finite minor or scale (overflow)
    raises, so the callers compute with numpy's overflow warnings off: no
    verdict may rest on the orders that did not overflow. Events come in the
    order a scan of the orders meets them: an overflow, then a non-real minor,
    and with neither, stop (an exception) if given, in place of a verdict."""
    def locate(i):   # (order position, rows, cols) of flat index i
        for order, (rows, cols) in enumerate(families):
            if i < len(rows) * len(cols):
                a, b = divmod(i, len(cols))
                return order, rows[a], cols[b]
            i -= len(rows) * len(cols)

    rel = vals.real / scale
    finite = np.isfinite(rel + scale)   # finite iff both are: |rel| <= 1 (Hadamard)
    over = len(families) if finite.all() else locate(int(np.argmin(finite)))[0]
    if np.iscomplexobj(vals):   # a real minor's imaginary part 0 never exceeds tol * scale > 0
        nonreal = np.abs(vals.imag) > tol * scale
        if nonreal.any():
            i = int(np.argmax(nonreal))
            order, I, J = locate(i)
            if order < over:
                return Verdict(OUTSIDE, Witness(I, J, float(value(I, J).imag)), tol, note=nonreal_note,
                               margin=float(rel[:i + 1].min()), checked=i + 1, path=EXHAUSTIVE)
    if over < len(families):
        raise LinalgError(f"order-{len(families[over][0][0])} minors overflow; rescale the input")
    if stop is not None:
        raise stop
    i = int(np.argmin(rel))
    worst = float(rel[i])
    if allow_positive and worst > tol:
        return Verdict(POSITIVE, None, tol, note=note, margin=worst, checked=len(rel), path=EXHAUSTIVE)
    _, I, J = locate(i)
    return Verdict(NONNEGATIVE if worst > -tol else OUTSIDE, Witness(I, J, float(value(I, J).real)), tol,
                   note=note, margin=worst, checked=len(rel), path=EXHAUSTIVE)


def _left_sets(n, k):
    """All order-k row sets, and the first k columns as a family of one."""
    return linalg.index_sets(n, k), linalg.index_sets(k, k)


def _fekete(n):
    """Positions of the minors on consecutive rows in the flat left-justified
    family of orders 1..n."""
    def build():
        rows = [linalg._rows(linalg.index_sets(n, k)) for k in range(1, n + 1)]
        return np.flatnonzero(np.concatenate([r[:, -1] - r[:, 0] == r.shape[1] - 1 for r in rows]))
    return linalg._plan(("fekete", n), build)


def is_tp_matrix(M, tol=1e-9):
    """Certify a real square matrix as totally positive / nonnegative.

    Every minor is compared against tol times the product of the row norms of its
    submatrix (its Hadamard bound); n <= 8. The minors come from linalg.minors,
    each order by Laplace expansion against the order below, accurate to a small
    multiple of eps times that scale; the witness reports the value of one _det
    of its submatrix.
    """
    linalg.check_tol(tol)
    A = linalg.square(M)
    n = A.shape[0]
    if n > MAX_EXHAUSTIVE_N:
        raise LinalgError(f"is_tp_matrix: exhaustive minor test capped at n = {MAX_EXHAUSTIVE_N}")
    scale0 = max(1.0, float(np.abs(A).max()))
    R = _require_real(A, tol, scale0, "is_tp_matrix")
    sets = [linalg.index_sets(n, k) for k in range(1, n + 1)]
    with np.errstate(over="ignore", invalid="ignore"):   # _verdict reports overflow
        vals = np.concatenate([table.ravel() for table in linalg.minors(R)])
        return _verdict(vals, linalg.minor_scales(R), [(S, S) for S in sets], tol,
                        lambda I, J: linalg._minor(R, I, J))


def is_jacobi_cone(L, tol=1e-9):
    """Certify membership in the tridiagonal cone: tridiagonal with positive
    (nonnegative) entries immediately above and below the diagonal. Witness: the
    first off-band entry (row-major), else the first least of (1,2), (2,1), (2,3), ..."""
    linalg.check_tol(tol)
    A = linalg.square(L)
    n = A.shape[0]
    scale = max(1.0, float(np.abs(A).max()))
    R = _require_real(A, tol, scale, "is_jacobi_cone")
    i, j = np.indices((n, n))
    off = (np.abs(i - j) >= 2) & (np.abs(R) > tol * scale)
    if off.any():
        a, b = divmod(int(np.argmax(off)), n)
        return Verdict(OUTSIDE, Witness((a + 1,), (b + 1,), float(R[a, b])), tol)
    if n == 1:
        return Verdict(NONNEGATIVE, None, tol)
    rows = np.arange(n - 1).repeat(2) + [0, 1] * (n - 1)   # 0, 1, 1, 2, 2, 3, ...
    cols = rows + [1, -1] * (n - 1)                         # 1, 0, 2, 1, 3, 2, ...
    band = R[rows, cols] / scale
    k = int(np.argmin(band))
    if band[k] > tol:
        return Verdict(POSITIVE, None, tol)
    w = Witness((int(rows[k]) + 1,), (int(cols[k]) + 1,), float(R[rows[k], cols[k]]))
    return Verdict(NONNEGATIVE if band[k] > -tol else OUTSIDE, w, tol)


def is_tnn_unitary(g, tol=1e-9):
    """Certify a unitary matrix as totally positive / nonnegative.

    Positive means all left-justified minors are positive real numbers. They
    all come from linalg.left_minors, in float64 when g has no imaginary part
    (the same bits as the real parts of the complex ones); positivity is read
    off those on consecutive rows alone (Fekete), nonnegativity off all of them.
    A witness value is one _det of its submatrix of g as given.
    """
    linalg.check_tol(tol)
    A = linalg.square(g)
    n = A.shape[0]
    if linalg.unitary_defect(A) > UNITARY_ATOL:
        raise DomainError("is_tnn_unitary: input is not unitary within tolerance")
    if n > MAX_EXHAUSTIVE_N:
        raise LinalgError(f"is_tnn_unitary: exhaustive minor test capped at n = {MAX_EXHAUSTIVE_N}")
    R = A if A.imag.any() else A.real
    vals, scale = np.concatenate(linalg.left_minors(R, n)), linalg.left_scales(R)
    # Fekete: consecutive-row minors positive => totally positive.
    fekete = _fekete(n)
    fv, fs = vals.take(fekete), scale.take(fekete)
    lim = tol * fs
    if not ((fv.real <= lim).any() or np.iscomplexobj(fv) and (np.abs(fv.imag) > lim).any()):
        return Verdict(POSITIVE, None, tol, margin=float((fv.real / fs).min()), checked=len(fv), path=FEKETE)
    with np.errstate(over="ignore", invalid="ignore"):   # _verdict reports overflow
        return _verdict(vals, scale, [_left_sets(n, k) for k in range(1, n + 1)], tol,
                        lambda I, J: linalg._minor(A, I, J), nonreal_note="non-real minor",
                        allow_positive=False)


def is_plucker_nonneg(rep, K, tol=1e-9):
    """Certify Plucker positivity of the flag spanned by the column prefixes
    of rep, for each order k in K.

    Coordinates of each order are normalized so the largest-modulus one is
    positive real, all orders computed in one pass, in float64 when rep has
    no imaginary part. The phase is still that of the complex coordinate
    (a numpy complex division, which can be 1 ulp off +-1), and a witness value
    is one _det of its submatrix of rep as given, divided by it. For
    consecutive K this coincides with Lusztig positivity; otherwise only the
    Plucker notion is certified.
    """
    linalg.check_tol(tol)
    A = linalg.square(rep)
    n = A.shape[0]
    K = tuple(sorted(set(int(k) for k in K)))
    if not K or K[0] < 1 or K[-1] > n - 1:
        raise LinalgError(f"is_plucker_nonneg: K must be a nonempty subset of [1, {n - 1}]")
    degenerate = DomainError("is_plucker_nonneg: degenerate representative")
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[-1] <= linalg.RANK_RTOL * sv[0]:
        raise degenerate
    consecutive = all(b - a == 1 for a, b in zip(K, K[1:]))
    note = ("consecutive K: Plucker positivity coincides with Lusztig positivity" if consecutive
            else "non-consecutive K: certifies Plucker positivity only")
    sizes = [len(linalg.index_sets(n, k)) for k in K]
    with np.errstate(over="ignore", invalid="ignore"):   # _verdict reports overflow
        tables = linalg.left_minors(A if A.imag.any() else A.real, K[-1])
        vals = np.concatenate([tables[k - 1] for k in K])
        cols = np.zeros((max(sizes), len(K)), dtype=complex)   # column j: order K[j], then zeros
        for j, k in enumerate(K):
            cols[:sizes[j], j] = tables[k - 1]
        tops = np.abs(cols).max(axis=0)
        zero = tops <= 0.0
        m = int(np.argmax(zero)) if zero.any() else len(K)   # the orders before a degenerate one
        if m == 0:
            raise degenerate
        phases = linalg.unit_phases(cols[:, :m])   # one scalar division per order
        return _verdict(vals[:sum(sizes[:m])] / phases.repeat(sizes[:m]), tops[:m].repeat(sizes[:m]),
                        [_left_sets(n, k) for k in K[:m]], tol,
                        lambda I, J: linalg._minor(A, I, J) / phases[K.index(len(I))], note=note,
                        nonreal_note="non-real coordinate after phase normalization",
                        stop=degenerate if m < len(K) else None)


def is_eventually_tp(L, m_max, tol=1e-9):
    """Smallest power m <= m_max with L^m totally positive, else None.

    Absence at m_max is not a disproof: the required power can be arbitrarily
    large even for matrices that are eventually totally positive.
    """
    linalg.check_tol(tol)
    A = linalg.square(L)
    n = A.shape[0]
    if n > MAX_EXHAUSTIVE_N:
        raise LinalgError(f"is_eventually_tp: capped at n = {MAX_EXHAUSTIVE_N}")
    scale = max(1.0, float(np.abs(A).max()))
    R = _require_real(A, tol, scale, "is_eventually_tp")
    if np.abs(R - R.T).max() > tol * scale:
        raise DomainError("is_eventually_tp: input must be symmetric")
    w, _ = linalg.herm_eig(R)
    if w[-1] <= tol * max(1.0, abs(w[0])):
        raise DomainError("is_eventually_tp: eigenvalues must all be positive")
    B = R / w[0]          # positive rescaling preserves every verdict
    P = np.eye(n)
    for m in range(1, int(m_max) + 1):
        P = P @ B
        if is_tp_matrix(P, tol).status == POSITIVE:
            return m
    return None


def _elementary_word(n):
    """Index word for a full reduced-word pattern of bidiagonal factors."""
    word = []
    for k in range(1, n):
        word.extend(range(k, 0, -1))
    return word


# Parameter ranges shrink with n: minors of totally positive products sit far
# below the Hadamard (row-norm) bound, so wide parameter spreads at larger n
# push the scaled certification below double precision.
_PARAM_RANGE = {1: (0.1, 10.0), 2: (0.1, 10.0), 3: (0.1, 10.0), 4: (0.1, 10.0),
                5: (0.35, 3.0), 6: (0.7, 1.5), 7: (0.85, 1.2), 8: (0.9, 1.12)}
_CERT_TOL = {1: 1e-9, 2: 1e-9, 3: 1e-9, 4: 1e-9, 5: 1e-12, 6: 1e-13}


def sample_tp_cert_tol(n):
    """Certification tolerance sample_tp can actually guarantee at size n."""
    return _CERT_TOL.get(n, 1e-13)


def sample_tp(n, rng):
    """Random totally positive matrix: a full product of elementary bidiagonal
    factors (I + t E_{i,i+1}), (I + s E_{i+1,i}) with log-uniform parameters
    and a positive diagonal, certified before return; a failure draws fresh
    parameters, up to 12 draws.

    n <= 6: certified by is_tp_matrix at sample_tp_cert_tol(n). n in {7, 8}:
    the matrix-level scaled minors fall below double precision, so the
    unitary factor is certified totally positive instead. n > 8: returned
    uncertified (exhaustive enumeration is capped).
    """
    if n < 1:
        raise LinalgError("sample_tp: n must be >= 1")
    lo, hi = _PARAM_RANGE.get(n, (0.95, 1.05))
    lo, hi = np.log(lo), np.log(hi)
    for _ in range(12):
        lower = np.eye(n)
        for i in _elementary_word(n):
            F = np.eye(n)
            F[i, i - 1] = np.exp(rng.uniform(lo, hi))
            lower = lower @ F
        upper = np.eye(n)
        for i in reversed(_elementary_word(n)):
            F = np.eye(n)
            F[i - 1, i] = np.exp(rng.uniform(lo, hi))
            upper = upper @ F
        D = np.diag(np.exp(rng.uniform(lo, hi, size=n)))
        A = lower @ D @ upper
        if n > MAX_EXHAUSTIVE_N:
            return A
        if n <= 6:
            if is_tp_matrix(A, sample_tp_cert_tol(n)).status == POSITIVE:
                return A
        else:
            if is_tnn_unitary(linalg.k_factor(A)).status == POSITIVE:
                return A
    raise CertificationError("sample_tp: certification failed after retries")


def sample_tnn_flag(n, rng, w=None, boundary=False, tol=1e-9):
    """Unitary totally nonnegative flag representative.

    Default: interior point k_factor(sample_tp(n)), certified positive.
    w given: the signed permutation matrix for w (a boundary point).
    boundary=True: k_factor of (partial positive factors) x (random signed
    permutation), certified nonnegative, up to 16 draws.
    """
    if n < 1:
        raise LinalgError("sample_tnn_flag: n must be >= 1")
    if w is not None:
        g = perms.signed_perm(w)
        if is_tnn_unitary(g, tol).status == OUTSIDE:
            raise CertificationError("sample_tnn_flag: permutation seed not certified")
        return g
    if not boundary:
        g = linalg.k_factor(sample_tp(n, rng))
        if is_tnn_unitary(g, tol).status != POSITIVE:
            raise CertificationError("sample_tnn_flag: interior sample not certified positive")
        return g
    word = _elementary_word(n)
    for _ in range(16):
        wperm = perms.random_perm(n, rng)
        A = np.eye(n)
        for i in word:
            if rng.random() < 0.4:
                F = np.eye(n)
                if rng.random() < 0.5:
                    F[i, i - 1] = np.exp(rng.uniform(np.log(0.1), np.log(10.0)))
                else:
                    F[i - 1, i] = np.exp(rng.uniform(np.log(0.1), np.log(10.0)))
                A = A @ F
        g = linalg.k_factor(A @ perms.signed_perm(wperm))
        from .flagorbit import canonical_tnn_rep   # late import: avoids a cycle
        try:
            g = canonical_tnn_rep(g)
        except DomainError:
            continue
        v = is_tnn_unitary(g, tol)
        if v.is_nonnegative and not v.is_positive:
            return g
    raise CertificationError("sample_tnn_flag: no certified boundary sample after retries")
