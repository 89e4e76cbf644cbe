"""Positivity certification: totally positive matrices, the tridiagonal cone,
totally nonnegative unitary representatives, Plucker positivity, eventual
total positivity, and certified random samples.

All testers return a Verdict with status "positive", "nonnegative", or
"outside"; an outside verdict carries a witness minor or entry.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg, perms
from .errors import CertificationError, DomainError, LinalgError

POSITIVE = "positive"
NONNEGATIVE = "nonnegative"
OUTSIDE = "outside"

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


def _verdict(batches, tol, value, note=None, nonreal_note=None, allow_positive=True):
    """Verdict from batches (rows, cols, minors, scale) of one order each. The
    witness is the first smallest minor / scale, as a sequential `<` scan
    finds it; a minor with |imag| > tol * scale is outside at once. The value a
    witness reports is value(rows, cols), one _det of its submatrix in the
    matrix as given (LU above order 3): the batches' minors are accurate to eps
    times their scale, not to their value, and may be taken in a smaller field.
    A non-finite minor or scale (overflow) raises: no verdict may rest on the
    orders that did not overflow."""
    worst, worst_w = np.inf, None

    def witness(rows, cols, i):
        a, b = divmod(i, len(cols))
        return rows[a], cols[b], value(rows[a], cols[b])

    with np.errstate(over="ignore", invalid="ignore"):   # overflow is reported below
        for rows, cols, vals, scale in batches:
            rel = vals.real / scale
            if not np.isfinite(rel + scale).all():   # finite iff both are: |rel| <= 1 (Hadamard)
                raise LinalgError(f"order-{len(rows[0])} minors overflow; rescale the input")
            nonreal = np.abs(vals.imag) > tol * scale
            if nonreal.any():
                I, J, z = witness(rows, cols, int(np.argmax(nonreal)))
                return Verdict(OUTSIDE, Witness(I, J, float(z.imag)), tol, note=nonreal_note)
            i = int(np.argmin(rel))
            if rel.flat[i] < worst:
                worst, worst_w = rel.flat[i], (rows, cols, i)
    if allow_positive and worst > tol:
        return Verdict(POSITIVE, None, tol, note=note)
    I, J, z = witness(*worst_w)
    return Verdict(NONNEGATIVE if worst > -tol else OUTSIDE, Witness(I, J, float(z.real)), tol, note=note)


def _left_sets(n, k):
    """All order-k row sets, and the first k columns as a family of one."""
    return linalg.index_sets(n, k), linalg.index_sets(k, k)


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
    batches = ((S, S, vals, linalg.row_norm_scales(R, S, S)) for S, vals in zip(sets, linalg.minors(R)))
    return _verdict(batches, tol, lambda I, J: linalg._minor(R, I, J))


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
    batches = []
    for k, vals in enumerate(linalg.left_minors(R, n), 1):
        rows, cols = _left_sets(n, k)
        batches.append((rows, cols, vals[:, None], linalg.row_norm_scales(R, rows, cols)))
    # Fekete fast path: consecutive-row minors positive => totally positive.
    for rows, _, vals, s in batches:
        r = linalg._rows(rows)
        fekete = r[:, -1] - r[:, 0] == r.shape[1] - 1
        vals, s = vals[fekete], s[fekete]
        if np.any((np.abs(vals.imag) > tol * s) | (vals.real <= tol * s)):
            break
    else:
        return Verdict(POSITIVE, None, tol)
    return _verdict(batches, tol, lambda I, J: linalg._minor(A, I, J),
                    nonreal_note="non-real minor", allow_positive=False)


def is_plucker_nonneg(rep, K, tol=1e-9):
    """Certify Plucker positivity of the flag spanned by the column prefixes
    of rep, for each order k in K.

    Coordinates of each order are normalized so the largest-modulus one is
    positive real, all of one order computed in one batch, in float64 when rep
    has no imaginary part. The phase is still that of the complex coordinate
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
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[-1] <= linalg.RANK_RTOL * sv[0]:
        raise DomainError("is_plucker_nonneg: degenerate representative")
    consecutive = all(b - a == 1 for a, b in zip(K, K[1:]))
    note = ("consecutive K: Plucker positivity coincides with Lusztig positivity" if consecutive
            else "non-consecutive K: certifies Plucker positivity only")
    phases = {}

    def batches():
        tables = linalg.left_minors(A if A.imag.any() else A.real, K[-1])
        for k in K:
            vals = tables[k - 1]
            top = np.abs(vals).max()
            if top <= 0.0:
                raise DomainError("is_plucker_nonneg: degenerate representative")
            phases[k] = linalg.unit_phases(vals.astype(complex))
            yield *_left_sets(n, k), (vals / phases[k])[:, None], top

    return _verdict(batches(), tol, lambda I, J: linalg._minor(A, I, J) / phases[len(I)], note=note,
                    nonreal_note="non-real coordinate after phase normalization")


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
