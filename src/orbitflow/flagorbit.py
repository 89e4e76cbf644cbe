"""Partial flags, Plucker coordinates, the flag <-> orbit dictionary,
projection matrices, the reversal/duality/twist involutions, eigenflags,
and Bruhat cell location.

A PartialFlag stores a unitary n x n representative whose column prefixes
span the flag's subspaces; only the projection matrices P_k for k in K are
contractually meaningful. An OrbitPoint is a skew-Hermitian matrix with
cached weakly decreasing spectrum of -iL; one built by orbit_point also
carries the eigendecomposition of -iL it was validated with.
"""

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

import numpy as np

from . import linalg, perms, positivity
from .errors import DomainError, LinalgError

CHART_ATOL = 1e-10    # minor-sum threshold for the totally nonnegative chart
UNITARY_REP_ATOL = 1e-10   # unitary defect up to which a matrix is its own unitary representative


@dataclass(frozen=True)
class PartialFlag:
    n: int
    K: tuple
    rep: np.ndarray

    def projection(self, k):
        cols = self.rep[:, :k]
        return cols @ cols.conj().T

    def projections(self):
        return {k: self.projection(k) for k in self.K}


@dataclass(frozen=True)
class OrbitPoint:
    """L with the spectrum lam of -iL and its dimension set K. eig is the pair
    (w, U) of linalg.herm_eig(-1j L) when orbit_point computed it, else None;
    orbit_eig reads it, never writes it. It takes no part in comparisons."""
    L: np.ndarray
    lam: np.ndarray
    K: tuple
    eig: Optional[tuple] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class CellLabel:
    v: tuple
    w: tuple


def complete_K(n):
    return tuple(range(1, n))


def flag_from_matrix(A, K=None):
    """Flag spanned by the column prefixes of an invertible matrix."""
    A = linalg.square(A)
    n = A.shape[0]
    K = complete_K(n) if K is None else tuple(sorted(set(int(k) for k in K)))
    if not K or K[0] < 1 or K[-1] > n - 1:
        raise LinalgError(f"flag dimension set must be a nonempty subset of [1, {n - 1}]")
    rep = A if linalg.unitary_defect(A) <= UNITARY_REP_ATOL else linalg.k_factor(A)
    return PartialFlag(n, K, rep)


def flag_distance(V, W):
    """Representative-independent distance: max over shared k of |P_k - P'_k|."""
    ks = set(V.K) & set(W.K)
    if not ks:
        raise LinalgError("flags share no dimensions")
    return max(float(np.abs(V.projection(k) - W.projection(k)).max()) for k in ks)


def orbit_point(L, lam=None):
    """Validated orbit point; lam, a finite 1-d list of n floats, defaults to the
    spectrum of -iL. The point keeps the eigendecomposition of -iL."""
    A = linalg.square(L)
    if linalg.skew_defect(A) > 1e-10 * max(1.0, float(np.abs(A).max())):
        raise LinalgError("orbit_point: matrix is not skew-Hermitian within tolerance")
    w, U = linalg.herm_eig(-1j * A)
    if lam is None:
        lam = w
    else:
        try:
            lam = np.array(lam, dtype=float)
        except (TypeError, ValueError) as exc:
            raise LinalgError(f"orbit_point: lambda must be a list of floats: {exc}")
        if lam.shape != w.shape or not np.all(np.isfinite(lam)):
            raise LinalgError(f"orbit_point: lambda must be a finite 1-d list of {len(w)} floats")
        if np.abs(lam - w).max() > 1e-8 * max(1.0, np.abs(w).max()):
            raise LinalgError("orbit_point: cached spectrum does not match the matrix")
    return OrbitPoint(A, lam, linalg.multiplicity_set(lam), (w, U))


def orbit_from_rep(g, lam, K):
    """The orbit point g (i diag lam) g*, skew part taken, with its own copy of lam.
    A (..., n, n) stack of representatives gives one OrbitPoint whose L is the
    stack of their points."""
    L = g @ (1j * np.diag(lam)) @ g.conj().swapaxes(-1, -2)
    return OrbitPoint(linalg.skew_part(L), np.array(lam, dtype=float), tuple(K))


def canonical_tnn_rep(A):
    """Canonical real orthogonal representative of a flag in the totally
    nonnegative chart, as a float64 matrix: every order-k sum of left-justified
    minors is positive.

    Column phases are first normalized (largest-modulus entry positive real);
    a residual imaginary part means the flag has no real representative.
    The chart sums S_k are computed once, on the unflipped real representative
    in float64 (its complex copy gives the same real parts, bit for bit), each
    order's minors in one batch summed left to right; |S_k| <= CHART_ATOL means
    the flag is outside the chart, where the map is undefined. Column k's sign
    is sign(S_k) sign(S_(k-1)), S_0 = 1: negating a column negates each minor
    containing it exactly, so this is the column-by-column rule, bit for bit.
    """
    g = linalg.square(A)
    n = g.shape[0]
    if linalg.unitary_defect(g) > UNITARY_REP_ATOL:
        g = linalg.k_factor(g)
    g = linalg.phase_normalize(g)
    if np.abs(g.imag).max() > 1e-8:
        raise DomainError("canonical_tnn_rep: flag admits no real orthogonal representative")
    gr = np.linalg.qr(g.real)[0]
    S = np.array([sum(v.tolist()) for v in linalg.left_minors(gr, n)])
    if np.any(np.abs(S) <= CHART_ATOL):
        raise DomainError("canonical_tnn_rep: flag lies outside the totally nonnegative chart")
    sign = np.sign(S)
    return gr * sign * np.append(1.0, sign[:-1])


def pluecker(V, k):
    """Left-justified order-k minors of the representative, normalized so the
    largest-modulus coordinate is positive real."""
    if k not in V.K:
        raise DomainError(f"pluecker: order {k} not in the flag dimension set {V.K}")
    vals = linalg.left_minors(linalg.as_matrix(V.rep), k)[-1]
    return dict(zip(linalg.index_sets(V.n, k), linalg.phase_normalize(vals).tolist()))


def flag_to_orbit(V, lam):
    """L = rep (i diag lam) rep*; the multiplicity set of lam must equal V.K."""
    lam = np.asarray(lam, dtype=float)
    if np.any(np.diff(lam) > 1e-12):
        raise LinalgError("flag_to_orbit: lam must be weakly decreasing")
    if linalg.multiplicity_set(lam) != tuple(V.K):
        raise DomainError(
            f"flag_to_orbit: multiplicity set {linalg.multiplicity_set(lam)} != flag dims {tuple(V.K)}")
    return orbit_from_rep(V.rep, lam, V.K)


def orbit_eig(P):
    """The pair (w, U) of linalg.herm_eig(-1j L): the one orbit_point cached on
    P.eig, else computed. Callers must not write into it."""
    return P.eig or linalg.herm_eig(-1j * P.L)


def orbit_eigenbasis(P):
    """Eigenvectors of -iL by decreasing eigenvalue, each cluster's block
    orthonormalized by QR (in a copy of orbit_eig's U), and the dimension set
    from the clustering rule (empty for a point orbit)."""
    w, U = orbit_eig(P)
    blocks = linalg.cluster_blocks(w)
    U = U.copy()
    for (a, b) in blocks:
        if b - a > 1:
            U[:, a:b] = np.linalg.qr(U[:, a:b])[0]
    return U, tuple(stop for _, stop in blocks[:-1])


def orbit_to_flag(P):
    """Eigenflag of -iL with decreasing eigenvalues and canonical column signs,
    from the eigendecomposition orbit_point cached on P, if any.

    Totally nonnegative orbit points get the chart-canonical real
    representative; otherwise columns are phase-normalized only.
    """
    U, K = orbit_eigenbasis(P)
    return PartialFlag(P.L.shape[0], K, _canonical_or_phased(U))


def _canonical_or_phased(g):
    """canonical_tnn_rep(g), or outside the chart g with its column phases normalized."""
    try:
        return canonical_tnn_rep(g)
    except DomainError:
        return linalg.phase_normalize(g)


def proj_matrix(V):
    """Orthogonal projection onto the column span of an n x k matrix."""
    A = linalg.as_matrix(V)
    if linalg.rank_of(A) < A.shape[1]:
        raise LinalgError("proj_matrix: rank-deficient input")
    Q = np.linalg.qr(A)[0]
    return Q @ Q.conj().T


def projection_minor_closed_form(V, I, J):
    """Minor of Proj_V straight from the Plucker coordinates of V:

        sum over K in C([n] - (I u J), k - l) of
        (-1)^(inv(I,K) + inv(J,K)) D_{I u K}(V) conj(D_{J u K}(V)),
    normalized by sum |D_K(V)|^2 over all order-k sets K.
    """
    A = linalg.as_matrix(V)
    n, k = A.shape
    I = linalg.index_set(I, n)
    J = linalg.index_set(J, n)
    if len(I) != len(J):
        raise LinalgError("projection_minor_closed_form: |I| must equal |J|")
    l = len(I)
    D = dict(zip(linalg.index_sets(n, k), linalg.left_minors(A, k)[-1].tolist()))
    denom = sum(abs(d) ** 2 for d in D.values())
    if l > k:
        return 0.0 + 0.0j
    used = set(I) | set(J)
    rest = [r for r in range(1, n + 1) if r not in used]
    num = 0.0 + 0.0j
    for Kset in combinations(rest, k - l):
        sgn = (-1) ** (linalg.inv_count(I, Kset) + linalg.inv_count(J, Kset))
        dI = D[tuple(sorted(set(I) | set(Kset)))]
        dJ = D[tuple(sorted(set(J) | set(Kset)))]
        num += sgn * dI * np.conj(dJ)
    return complex(num / denom)


def decompose_orbit(P):
    """-iL = sum over k in K of (lam_k - lam_{k+1}) P_k  +  lam_n I."""
    V = orbit_to_flag(P)
    out = []
    lam = P.lam
    for k in P.K:
        out.append((float(lam[k - 1] - lam[k]), V.projection(k)))
    return out


def rev_flag(V):
    """Reverse the ground set: rep -> w0_signed delta rep delta."""
    n = V.n
    d = perms.delta_matrix(n)
    rep = perms.signed_perm(perms.longest_perm(n)) @ d @ V.rep @ d
    return PartialFlag(n, tuple(V.K), rep)


def dual_flag(V):
    """Orthogonal-complement dual: rep -> delta rep delta w0_signed; dims K -> K-perp."""
    n = V.n
    d = perms.delta_matrix(n)
    rep = d @ V.rep @ d @ perms.signed_perm(perms.longest_perm(n))
    rep = linalg.k_factor(rep)
    Kperp = tuple(sorted(n - k for k in V.K))
    return PartialFlag(n, Kperp, rep)


def _iota(g):
    """iota(g) = delta g* delta, which is delta g^{-1} delta for a unitary g
    (unchecked), over the last two axes."""
    d = perms.delta_matrix(g.shape[-1])
    return d @ g.conj().swapaxes(-1, -2) @ d


def twist_unitary(g):
    """iota(g) = delta g^{-1} delta: _iota for a unitary g (defect <= UNITARY_REP_ATOL,
    so never singular), else the inverse, after an SVD singularity check."""
    A = linalg.square(g)
    if linalg.unitary_defect(A) <= UNITARY_REP_ATOL:
        return _iota(A)
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[-1] <= linalg.RANK_RTOL * sv[0]:
        raise LinalgError("twist_unitary: singular input")
    d = perms.delta_matrix(A.shape[0])
    return d @ np.linalg.inv(A) @ d


def twist_flag(V):
    """Iwasawa twist: flag of iota(canonical representative).

    Defined on complete flags inside the totally nonnegative chart (and in
    particular on all totally nonnegative complete flags); errors outside.
    """
    if tuple(V.K) != complete_K(V.n):
        raise DomainError("twist_flag: the twist map is defined on complete flags")
    return PartialFlag(V.n, tuple(V.K), canonical_tnn_rep(_iota(canonical_tnn_rep(V.rep))))


def twist_orbit(P):
    """Orbit twist: g (i diag lam) g^{-1} -> delta g^{-1} (i diag lam) g delta,
    with g the canonical totally nonnegative representative of the eigenbasis."""
    if not linalg.is_strictly_decreasing(P.lam):
        raise DomainError("twist_orbit: eigenvalues must be strictly decreasing")
    return orbit_from_rep(_iota(canonical_tnn_rep(orbit_eigenbasis(P)[0])), P.lam, P.K)


def eigenflag(g):
    """Flag of nested spans of leading eigenvectors, ordered by decreasing
    eigenvalue (modulus first); dimension set from the clustering rule."""
    w, Vv = linalg.general_eig(g)
    K = linalg.multiplicity_set(w)
    rep = _canonical_or_phased(linalg.k_factor(Vv))
    return PartialFlag(len(w), K if K else complete_K(len(w)), rep)


def _corner_ranks(g, tol):
    """Ranks of the corner submatrices of g, rows i..n (t = 0) or 1..i (t = 1)
    by columns 1..j, as ranks[t, i-1, j-1], and whether a singular value is in
    the guard band, as ambiguous[t, i-1, j-1]. See locate_cell."""
    n = g.shape[0]
    r = np.arange(n)
    lo = np.vstack([g, np.zeros((n, n))])[r[:, None] + r]    # [i-1]: rows i..n, moved up
    hi = g * (r[:, None] <= r[:, None, None])                 # [i-1]: rows 1..i
    sv = np.linalg.svd(np.stack([lo, hi])[:, :, None] * (r <= r[:, None])[:, None],
                       compute_uv=False)                      # [t, i-1, j-1]: columns 1..j
    rows = np.stack([n - r, r + 1])[:, :, None]               # [t, i-1, 0]: row count
    sv = np.where(r < np.minimum(rows, r + 1)[..., None], sv, 0.0)   # own values only
    return (sv > tol).sum(-1), ((sv > tol * 1e-2) & (sv < tol * 1e2)).any(-1)


def locate_cell(V, tol=linalg.RANK_RTOL):
    """Bruhat cell label (v, w) of a totally nonnegative complete flag.

    w(j) is the largest row i where the rank of the submatrix on rows i..n and
    columns 1..j of the canonical representative jumps by one at column j;
    v(j) is the smallest with rows 1..i. The 2n^2 submatrices, zero-padded top
    left to n x n, go through one stacked SVD; only the leading min(rows, cols)
    singular values of each, its own, count, not the padding's. The
    representative is orthogonal, so they are at most 1 and tol is absolute. A
    value in (tol 1e-2, tol 1e2) aborts rather than guess, at the first such
    column, w's table first.
    """
    linalg.check_tol(tol)
    if tuple(V.K) != complete_K(V.n):
        raise DomainError("locate_cell: complete flags only")
    g = canonical_tnn_rep(V.rep)
    n = V.n
    ranks, ambiguous = _corner_ranks(g, tol)
    jumps = np.diff(ranks, axis=-1, prepend=0) == 1           # [t, i-1, j-1]
    for amb, jump in zip(ambiguous, jumps):
        bad = amb.any(0) | ~jump.any(0)
        if bad.any():
            j = int(np.argmax(bad))
            raise DomainError("locate_cell: ambiguous numerical rank near tolerance" if amb[:, j].any()
                              else "locate_cell: no rank jump found")
    w = tuple((n - np.argmax(jumps[0, ::-1], axis=0)).tolist())
    v = tuple((1 + np.argmax(jumps[1], axis=0)).tolist())
    perms.check_perm(v)
    perms.check_perm(w)
    if not perms.bruhat_leq(v, w):
        raise DomainError("locate_cell: labels violate Bruhat comparability")
    return CellLabel(v, w)


def certify_flag_tnn(V, tol=1e-9):
    """Positivity verdict for a flag via its canonical representative."""
    g = canonical_tnn_rep(V.rep)
    return positivity.is_tnn_unitary(g, tol)
