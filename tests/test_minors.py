"""The minor kernels against per-minor references, bit for bit.

The references below take one minor at a time, on scalars: the written-out
closed forms for k <= 3, and above them the Laplace expansion the kernels use
(along the first row for every minor, along the last column for left-justified
ones), memoised over the order below and with its terms added in the same order;
verdicts, witnesses and flag data must not move by a single bit. A verdict's
witness value is one LU of its submatrix, as before the kernels. The order-k >= 4
minors are also checked against 50-digit mpmath, and the verdicts against the
LU scan the package made before the recursion.
"""

from itertools import combinations

import mpmath
import numpy as np
import pytest

from orbitflow import ampli, flagorbit, linalg, perms, positivity
from orbitflow.errors import DomainError
from orbitflow.positivity import NONNEGATIVE, OUTSIDE, POSITIVE, Verdict, Witness


def closed_form(A):
    """Determinant of a k x k matrix, k <= 3, written out on scalars of its dtype."""
    n = A.shape[0]
    if n == 1:
        return A[0, 0]
    if n == 2:
        return A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    return (A[0, 0] * (A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1])
            - A[0, 1] * (A[1, 0] * A[2, 2] - A[1, 2] * A[2, 0])
            + A[0, 2] * (A[1, 0] * A[2, 1] - A[1, 1] * A[2, 0]))


def scalar_det(A):
    """Per-minor determinant: closed forms on scalars for k <= 3, else LU."""
    return complex(closed_form(A) if A.shape[0] <= 3 else np.linalg.det(A))


def alternating(terms):
    """t0 - t1 + t2 - ..., added left to right."""
    d = terms[0]
    for m, t in enumerate(terms[1:], 1):
        d = d - t if m % 2 else d + t
    return d


def laplace(A, I, J, memo):
    """Minor on I x J by first-row Laplace expansion, memoised by (I, J)."""
    if (I, J) not in memo:
        memo[I, J] = (A[I[0] - 1, J[0] - 1] if len(I) == 1 else
                      alternating([A[I[0] - 1, j - 1] * laplace(A, I[1:], J[:m] + J[m + 1:], memo)
                                   for m, j in enumerate(J)]))
    return memo[I, J]


def left_laplace(A, I, memo):
    """Left-justified minor on rows I: the closed forms up to order 3, then the
    expansion along the last column, memoised by I."""
    k = len(I)
    if I not in memo:
        if k <= 3:
            memo[I] = closed_form(sub(A, I, range(1, k + 1)))
        else:
            d = alternating([A[i - 1, k - 1] * left_laplace(A, I[:m] + I[m + 1:], memo)
                             for m, i in enumerate(I)])
            memo[I] = d if k % 2 else -d
    return memo[I]


def sub(A, I, J):
    return A[np.ix_([i - 1 for i in I], [j - 1 for j in J])]


def row_norm_scale(S):
    s = float(np.prod(np.linalg.norm(S, axis=1)))
    return s if s > 0.0 else 1.0


def left_items(A, k, memo=None):
    n = A.shape[0]
    memo = {} if memo is None else memo
    return [(I, complex(left_laplace(A, I, memo))) for I in combinations(range(1, n + 1), k)]


def lu_left_items(A, k):
    n = A.shape[0]
    return [(I, scalar_det(sub(A, I, range(1, k + 1)))) for I in combinations(range(1, n + 1), k)]


def ref_is_tp_matrix(M, tol=1e-9, lu_scan=False):
    """The verdict from a sequential scan of the Laplace minors (of the LU ones,
    the package's scan before the recursion, with lu_scan)."""
    R = np.asarray(M, dtype=complex).real
    n = R.shape[0]
    memo = {}
    worst, worst_w = np.inf, None
    for k in range(1, n + 1):
        for I in combinations(range(1, n + 1), k):
            for J in combinations(range(1, n + 1), k):
                S = sub(R, I, J)
                val = (scalar_det(S) if lu_scan else complex(laplace(R, I, J, memo))).real
                rel = val / row_norm_scale(S)
                if rel < worst:
                    worst, worst_w = rel, Witness(I, J, float(scalar_det(S).real))
    if worst > tol:
        return Verdict(POSITIVE, None, tol)
    return Verdict(NONNEGATIVE if worst > -tol else OUTSIDE, worst_w, tol)


def ref_is_tnn_unitary(g, tol=1e-9, lu_scan=False):
    A = np.asarray(g, dtype=complex)
    n = A.shape[0]
    memo = {}
    items = {k: lu_left_items(A, k) if lu_scan else left_items(A, k, memo) for k in range(1, n + 1)}
    fekete = True
    for k in range(1, n + 1):
        for I, val in items[k]:
            if I[-1] - I[0] == k - 1:
                s = row_norm_scale(sub(A, I, range(1, k + 1)))
                fekete = fekete and abs(val.imag) <= tol * s and val.real > tol * s
    if fekete:
        return Verdict(POSITIVE, None, tol)
    worst, worst_w = np.inf, None
    for k in range(1, n + 1):
        cols = tuple(range(1, k + 1))
        for I, val in items[k]:
            S = sub(A, I, cols)
            s = row_norm_scale(S)
            if abs(val.imag) > tol * s:
                return Verdict(OUTSIDE, Witness(I, cols, float(scalar_det(S).imag)), tol,
                               note="non-real minor")
            if val.real / s < worst:
                worst, worst_w = val.real / s, Witness(I, cols, float(scalar_det(S).real))
    return Verdict(NONNEGATIVE if worst > -tol else OUTSIDE, worst_w, tol)


def ref_is_plucker_nonneg(rep, K, tol=1e-9, lu_scan=False):
    A = np.asarray(rep, dtype=complex)
    consecutive = all(b - a == 1 for a, b in zip(K, K[1:]))
    note = ("consecutive K: Plucker positivity coincides with Lusztig positivity" if consecutive
            else "non-consecutive K: certifies Plucker positivity only")
    memo = {}
    worst, worst_w = np.inf, None
    for k in K:
        cols = tuple(range(1, k + 1))
        items = lu_left_items(A, k) if lu_scan else left_items(A, k, memo)
        vals = np.array([v for _, v in items])
        top = np.abs(vals).max()
        ph = vals[int(np.argmax(np.abs(vals)))]
        ph = ph / abs(ph)
        vals = vals / ph
        for (I, _), v in zip(items, vals):
            if abs(v.imag) > tol * top:
                return Verdict(OUTSIDE, Witness(I, cols, float((scalar_det(sub(A, I, cols)) / ph).imag)),
                               tol, note="non-real coordinate after phase normalization")
            if v.real / top < worst:
                worst, worst_w = v.real / top, Witness(I, cols, float((scalar_det(sub(A, I, cols)) / ph).real))
    if worst > tol:
        return Verdict(POSITIVE, None, tol, note=note)
    return Verdict(NONNEGATIVE if worst > -tol else OUTSIDE, worst_w, tol, note=note)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def tp_product(rng, n, drop=0):
    """Product of elementary bidiagonal factors: totally positive, or totally
    nonnegative on the boundary when `drop` lower factors are left out."""
    word = [i for k in range(1, n) for i in range(k, 0, -1)]
    skip = set(rng.choice(len(word), size=min(drop, len(word)), replace=False)) if drop else set()
    A = np.diag(rng.uniform(0.9, 1.1, size=n))
    for pos, i in enumerate(word):
        L, U = np.eye(n), np.eye(n)
        L[i, i - 1] = 0.0 if pos in skip else rng.uniform(0.9, 1.1)
        U[i - 1, i] = rng.uniform(0.9, 1.1)
        A = L @ A @ U
    return A


def signed_perm_matrix(rng, n):
    M = np.zeros((n, n))
    M[rng.permutation(n), np.arange(n)] = rng.choice([-1.0, 1.0], size=n)
    return M


def q_factor(A):
    Q, R = np.linalg.qr(A)
    return Q * np.where(np.diag(R) < 0, -1.0, 1.0)[None, :]


def phases_fixed(g):
    """Columns scaled so each largest-modulus entry is positive real."""
    g = np.array(g, dtype=complex)
    for j in range(g.shape[1]):
        ph = g[int(np.argmax(np.abs(g[:, j]))), j]
        g[:, j] = g[:, j] / (ph / abs(ph))
    return g


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("dtype", [float, complex])
def test_minors_match_per_minor_reference_bit_for_bit(n, dtype):
    rng = np.random.default_rng(100 + n)
    A = rng.normal(size=(n, n)) * 3.0
    if dtype is complex:
        A = A + 1j * rng.normal(size=(n, n))
    memo, left_memo = {}, {}
    tables, left = list(linalg.minors(A)), linalg.left_minors(A, n)
    assert len(tables) == len(left) == n
    for k, vals in enumerate(tables, 1):
        sets = linalg.index_sets(n, k)
        first = tuple(range(1, k + 1))
        assert vals.dtype == A.dtype and vals.shape == (len(sets), len(sets))
        assert same_bits(vals, [[complex(laplace(A, I, J, memo)) for J in sets] for I in sets])
        assert same_bits(linalg.row_norm_scales(A, sets, sets),
                         [[row_norm_scale(sub(A, I, J)) for J in sets] for I in sets])
        assert left[k - 1].dtype == A.dtype
        assert same_bits(left[k - 1], [left_laplace(A, I, left_memo) for I in sets])
        assert same_bits(linalg.row_norm_scales(A, sets, (first,))[:, 0],
                         [row_norm_scale(sub(A, I, first)) for I in sets])
        if k <= 3:   # the recursions are the closed forms of every single minor
            assert same_bits(vals, [[linalg._det(sub(A, I, J)) for J in sets] for I in sets])
            assert same_bits(vals, [[scalar_det(sub(A, I, J)) for J in sets] for I in sets])
            assert same_bits(linalg.left_minors(A + 0j, k)[-1], [linalg.left_minor(A, I) for I in sets])


def plan_cache_sizes():
    return [len(c) for c in (linalg._SETS, linalg._ROWS, linalg._PLANS)]


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("dtype", [float, complex])
def test_rectangular_minors_match_per_minor_reference_bit_for_bit(n, dtype):
    """n x m inputs, m < n, as make_zdata (R.T) and projection_minor_closed_form
    pass them: contiguous, and the transposed view of an m x n matrix, whose
    flat plans must index with the row stride m. A second call adds no plan."""
    rng = np.random.default_rng(300 + n)
    for m in sorted({1, n // 2, n - 1}):
        W = rng.normal(size=(m, n)) * 3.0
        if dtype is complex:
            W = W + 1j * rng.normal(size=(m, n))
        for A in (np.ascontiguousarray(W.T), W.T):
            for attempt in range(2):
                sizes = plan_cache_sizes()
                memo = {}
                left = linalg.left_minors(A, m)
                assert len(left) == m
                for k, vals in enumerate(left, 1):
                    rows, cols = linalg.index_sets(n, k), linalg.index_sets(m, k)
                    first = tuple(range(1, k + 1))
                    assert vals.dtype == A.dtype
                    assert same_bits(vals, [left_laplace(A, I, memo) for I in rows])
                    assert same_bits(linalg.row_norm_scales(A, rows, cols),
                                     [[row_norm_scale(sub(A, I, J)) for J in cols] for I in rows])
                    for fam in (linalg.index_sets(k, k), (first,)):
                        assert same_bits(linalg.row_norm_scales(A, rows, fam)[:, 0],
                                         [row_norm_scale(sub(A, I, first)) for I in rows])
                    # the wide m x n matrix, its rows against column sets as make_zdata takes them
                    assert same_bits(linalg.row_norm_scales(W, cols, rows),
                                     [[row_norm_scale(sub(W, I, J)) for J in rows] for I in cols])
                if attempt:
                    assert plan_cache_sizes() == sizes


def test_second_call_adds_no_plan():
    rng = np.random.default_rng(5)
    for n in (1, 4, 8):
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        sets = [linalg.index_sets(n, k) for k in range(1, n + 1)]

        def every_family():
            tables = [t.copy() for t in linalg.minors(A)] + linalg.left_minors(A, n)
            for k, S in enumerate(sets, 1):
                tables += [linalg.row_norm_scales(A, S, S), linalg.row_norm_scales(A, S, linalg.index_sets(k, k))]
            return tables

        first = every_family()
        sizes = plan_cache_sizes()
        assert all(same_bits(a, b) for a, b in zip(first, every_family()))
        assert plan_cache_sizes() == sizes


@pytest.mark.parametrize("n", range(5, 9))
@pytest.mark.parametrize("dtype", [float, complex])
def test_minors_match_mpmath_within_k_eps_scale(n, dtype):
    """Every minor of order k >= 4, full table and left-justified, within
    k eps times its row-norm scale of the 50-digit minor. Each level of the
    recursion rounds by O(k eps) times the Hadamard bound; the error carried up
    from the level below can grow by sqrt(k) per level in the worst case, but on
    these inputs the largest is about 1.2 eps, so c_k = k leaves room without
    hiding a wrong term, whose error is of the order of the minor itself."""
    mpmath.mp.dps = 50
    rng = np.random.default_rng(200 + n)
    inputs = [rng.normal(size=(n, n)) * 3.0]
    if dtype is complex:
        inputs[0] = inputs[0] + 1j * rng.normal(size=(n, n))
    else:   # a totally positive product: its minors sit far below their scales
        inputs.append(matrix_inputs(n)[0])
    eps = np.finfo(float).eps
    for A in inputs:
        M = mpmath.matrix(A.tolist())
        exact = {}   # 50-digit minors by the same expansion, order by order
        for I in linalg.index_sets(n, 1):
            for J in linalg.index_sets(n, 1):
                exact[I, J] = M[I[0] - 1, J[0] - 1]
        for k in range(2, n + 1):
            for I in linalg.index_sets(n, k):
                for J in linalg.index_sets(n, k):
                    exact[I, J] = alternating([M[I[0] - 1, j - 1] * exact[I[1:], J[:m] + J[m + 1:]]
                                               for m, j in enumerate(J)])
        full = tuple(range(1, n + 1))
        assert abs(exact[full, full] - mpmath.det(M)) <= 1e-40 * row_norm_scale(A)
        left = linalg.left_minors(A, n)
        for k, vals in enumerate(linalg.minors(A), 1):
            if k < 4:
                continue
            sets = linalg.index_sets(n, k)
            first = tuple(range(1, k + 1))
            scale = linalg.row_norm_scales(A, sets, sets)
            err = [[abs(complex(vals[a, b]) - exact[I, J]) for b, J in enumerate(sets)]
                   for a, I in enumerate(sets)]
            assert np.all(np.array(err, dtype=float) <= k * eps * scale)
            lerr = [abs(complex(left[k - 1][a]) - exact[I, first]) for a, I in enumerate(sets)]
            assert np.all(np.array(lerr, dtype=float)
                          <= k * eps * linalg.row_norm_scales(A, sets, (first,))[:, 0])


def matrix_inputs(n):
    """TP, boundary and outside inputs; np.eye, signed permutations and integer
    matrices tie many minors, so the first one in (k, I, J) order must win."""
    rng = np.random.default_rng(7 * n)
    out = [tp_product(rng, n), np.eye(n), signed_perm_matrix(rng, n), rng.normal(size=(n, n)),
           np.round(rng.normal(size=(n, n)))]
    if n >= 2:
        out.append(tp_product(rng, n, drop=1 + n // 2))
    return out


def same_decision(v, w):
    """Equal status and witness index sets (the witness value aside)."""
    return v.status == w.status and (v.witness is None) == (w.witness is None) and (
        v.witness is None or (v.witness.rows, v.witness.cols) == (w.witness.rows, w.witness.cols))


@pytest.mark.parametrize("n", range(1, 9))
def test_is_tp_matrix_matches_per_minor_reference(n):
    for M in matrix_inputs(n):
        v = positivity.is_tp_matrix(M)
        assert v == ref_is_tp_matrix(M)
        assert same_decision(v, ref_is_tp_matrix(M, lu_scan=True))


@pytest.mark.parametrize("n", range(1, 9))
def test_left_minor_verdicts_match_per_minor_reference(n):
    rng = np.random.default_rng(11 * n)
    unitaries = [q_factor(M) for M in matrix_inputs(n)] + [np.eye(n), signed_perm_matrix(rng, n)]
    H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    unitaries.append(np.linalg.qr(H)[0])                       # non-real minors
    unitaries.append(q_factor(tp_product(rng, n)) * np.exp(0.3j))   # non-real after phases
    Ks = [tuple(range(1, n)), (1,), (n - 1,), tuple(range(1, n, 2))] if n >= 2 else []
    statuses = set()
    for g in unitaries:
        v = positivity.is_tnn_unitary(g)
        assert v == ref_is_tnn_unitary(g)
        assert same_decision(v, ref_is_tnn_unitary(g, lu_scan=True))
        statuses.add((v.status, v.note))
        for K in Ks:
            v = positivity.is_plucker_nonneg(g, K)
            assert v == ref_is_plucker_nonneg(g, K)
            assert same_decision(v, ref_is_plucker_nonneg(g, K, lu_scan=True))
    if n >= 3:
        assert {(POSITIVE, None), (NONNEGATIVE, None), ("outside", "non-real minor")} <= statuses


def ref_canonical_tnn_rep(g):
    """canonical_tnn_rep's sign fixing one order at a time: each order's sum is
    taken on the representative as flipped so far, and column k is negated
    when it is negative. Returns the representative and the sums' moduli."""
    gr = np.linalg.qr(phases_fixed(g).real)[0]
    sums = []
    for k in range(1, gr.shape[0] + 1):   # minor sums in sequential order
        s = sum(v.real for _, v in left_items(gr.astype(complex), k))
        if abs(s) <= flagorbit.CHART_ATOL:
            raise DomainError("outside the chart")
        if s < 0:
            gr[:, k - 1] = -gr[:, k - 1]
        sums.append(abs(s))
    return gr, sums


def outside_chart(n):
    """Orthogonal matrices with an order-1 or an order-2 chart sum of exactly
    0, so canonical_tnn_rep must raise."""
    c = 1 / np.sqrt(2)
    out = []
    for B in ([[c, c], [-c, c]], [[1, 0, 0], [0, c, c], [0, -c, c]]):   # S_1 = c - c; S_2 = c - c
        if len(B) <= n:
            g = np.eye(n)
            g[:len(B), :len(B)] = B
            out.append(g)
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_flag_data_match_per_minor_reference(n, monkeypatch):
    rng = np.random.default_rng(13 * n)
    inputs = [q_factor(tp_product(rng, n)), q_factor(tp_product(rng, n, drop=1)),
              q_factor(rng.normal(size=(n, n))), perms.signed_perm(perms.random_perm(n, rng)),
              signed_perm_matrix(rng, n)]
    if n >= 2:   # a 1 x 1 flag has no boundary
        inputs.append(positivity.sample_tnn_flag(n, rng, boundary=True))
    most_flips = 0
    for g in inputs:
        ref, sums = ref_canonical_tnn_rep(g)
        assert same_bits(flagorbit.canonical_tnn_rep(g), ref)
        least = min(sums)   # the raise decision sits exactly on the least sum's bits
        with monkeypatch.context() as m, pytest.raises(DomainError):
            m.setattr(flagorbit, "CHART_ATOL", least)
            flagorbit.canonical_tnn_rep(g)
        with monkeypatch.context() as m:
            m.setattr(flagorbit, "CHART_ATOL", np.nextafter(least, 0.0))
            assert same_bits(flagorbit.canonical_tnn_rep(g), ref)
        flipped = np.any(ref != np.linalg.qr(phases_fixed(g).real)[0], axis=0)
        most_flips = max(most_flips, int(flipped.sum()))
    assert most_flips >= min(n - 1, 2)   # order sums of mixed signs: several columns flip
    for g in outside_chart(n):
        with pytest.raises(DomainError):
            ref_canonical_tnn_rep(g)
        with pytest.raises(DomainError, match="outside the totally nonnegative chart"):
            flagorbit.canonical_tnn_rep(g)
    if n == 1:
        return
    for g in inputs[:3]:
        V = flagorbit.flag_from_matrix(g)
        for k in range(1, n):
            items = left_items(V.rep, k)
            vals = np.array([v for _, v in items])
            ph = vals[int(np.argmax(np.abs(vals)))]
            ph = ph / abs(ph)
            assert flagorbit.pluecker(V, k) == {I: complex(v / ph) for I, v in items}
    W = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    D = dict(left_items(W.astype(complex), 2))
    denom = sum(abs(d) ** 2 for d in D.values())
    for I, J in [((1,), (n,)), ((1, 2), (1, n)), ((1,), (1,))]:
        rest = [r for r in range(1, n + 1) if r not in set(I) | set(J)]
        num = 0.0 + 0.0j
        for Kset in combinations(rest, 2 - len(I)):
            sgn = (-1) ** (linalg.inv_count(I, Kset) + linalg.inv_count(J, Kset))
            num += (sgn * D[tuple(sorted(set(I) | set(Kset)))]
                    * np.conj(D[tuple(sorted(set(J) | set(Kset)))]))
        assert same_bits(flagorbit.projection_minor_closed_form(W, I, J), num / denom)


def test_no_minor_family_reaches_lu(monkeypatch):
    """Every family enumeration runs on the recursion alone: with
    np.linalg.det gone they all still run. Only a witness of order >= 4,
    whose value is reported, takes one LU (none here: every verdict is positive)."""
    rng = np.random.default_rng(3)
    A, Q = tp_product(rng, 5), q_factor(tp_product(rng, 8))
    W = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
    Z = np.vander(np.linspace(0.5, 2.0, 8), 5, increasing=True).T   # positive maximal minors

    def no_lu(*args, **kwargs):
        raise AssertionError("LU in a minor family")

    monkeypatch.setattr(np.linalg, "det", no_lu)
    assert len(list(linalg.minors(Q))) == len(linalg.left_minors(Q, 8)) == 8
    assert positivity.is_tp_matrix(A, positivity.sample_tp_cert_tol(5)).status == POSITIVE
    assert positivity.is_tnn_unitary(Q).status == POSITIVE
    assert positivity.is_plucker_nonneg(Q, range(1, 8)).status == POSITIVE
    V = flagorbit.PartialFlag(8, tuple(range(1, 8)), flagorbit.canonical_tnn_rep(Q))
    assert len(flagorbit.pluecker(V, 5)) == 56
    flagorbit.projection_minor_closed_form(W, (1, 2, 3, 4), (2, 3, 5, 8))
    assert ampli.make_zdata(Z, 1).Z.shape == (5, 8)


def real_inputs(n):
    """Real matrices whose minors the callers take in float64: random, totally
    positive products, and signed permutations whose zeros are 0.0 and -0.0."""
    rng = np.random.default_rng(17 * n)
    P = signed_perm_matrix(rng, n)
    P[(P == 0) & (rng.random((n, n)) < 0.5)] = -0.0
    return [rng.normal(size=(n, n)), tp_product(rng, n), P, -P]


@pytest.mark.parametrize("n", range(1, 9))
def test_real_minor_tables_are_the_real_parts_of_the_complex_ones(n):
    """With every imaginary part 0 a complex product's real part is the real
    product exactly, so the float64 tables equal the complex copy's real parts
    (up to the sign of a zero) and the complex ones have no imaginary part."""
    for R in real_inputs(n):
        C = R.astype(complex)
        assert np.signbit(C.real).tolist() == np.signbit(R).tolist()
        pairs = list(zip(linalg.minors(R), linalg.minors(C))) + list(zip(linalg.left_minors(R, n),
                                                                         linalg.left_minors(C, n)))
        assert len(pairs) == 2 * n
        for real, cplx in pairs:
            assert real.dtype == float and cplx.dtype == complex
            assert np.array_equal(real, cplx.real) and not cplx.imag.any()
        for k in range(1, n + 1):
            sets, first = linalg.index_sets(n, k), linalg.index_sets(k, k)
            for cols in (sets, first):
                assert same_bits(linalg.row_norm_scales(R, sets, cols), linalg.row_norm_scales(C, sets, cols))


def forced_complex(monkeypatch, f, *args):
    """f(*args) with every minor table and row-norm scale taken on a complex copy."""
    with monkeypatch.context() as m:
        for name in ("left_minors", "row_norm_scales"):
            m.setattr(linalg, name,
                      lambda M, *a, g=getattr(linalg, name): g(np.asarray(M, dtype=complex), *a))
        return f(*args)


def exact(v):
    """A verdict with its witness value as float.hex: equal exactly, zero signs aside."""
    w = v.witness and (v.witness.rows, v.witness.cols, float(v.witness.value + 0.0).hex())
    return v.status, v.note, v.tol, w


@pytest.mark.parametrize("n", range(1, 9))
def test_real_input_verdicts_match_complex_minors(n, monkeypatch):
    """is_tnn_unitary and is_plucker_nonneg take a real input's minors in
    float64 and still give the verdicts of complex minors, witness values to
    the bit. The last input's top coordinate 6.125 has the numpy complex phase
    6.125 (1 / 6.125) = 1 - 2^-53, so dividing by a real phase, exactly 1,
    would move its witness value by one ulp."""
    rng = np.random.default_rng(19 * n)
    unitaries = [q_factor(M) for M in real_inputs(n) + matrix_inputs(n)]
    reps = unitaries + [M for M in real_inputs(n) if np.linalg.svd(M, compute_uv=False)[-1] > 1e-6]
    if n >= 2:
        B = np.eye(n)
        B[:, 0] = [6.125, -1.0, 0.5, *rng.uniform(-1, 1, max(n - 3, 0))][:n]
        reps.append(B)
    Ks = [tuple(range(1, n)), (1,), tuple(range(1, n, 2))] if n >= 2 else []
    statuses = set()
    for g in unitaries:
        v = positivity.is_tnn_unitary(g)
        assert exact(v) == exact(forced_complex(monkeypatch, positivity.is_tnn_unitary, g))
        statuses.add(v.status)
    for g in reps:
        for K in Ks:
            v = positivity.is_plucker_nonneg(g, K)
            assert exact(v) == exact(forced_complex(monkeypatch, positivity.is_plucker_nonneg, g, K))
            statuses.add(v.status)
    if n >= 2:
        v = positivity.is_plucker_nonneg(B, (1,))
        assert v.status == OUTSIDE and v.witness.rows == (2,) and v.witness.value == -1 / (1 - 2 ** -53)
    if n >= 3:
        assert {POSITIVE, NONNEGATIVE, OUTSIDE} <= statuses


def test_real_input_minors_take_no_complex_product(monkeypatch):
    """On real input, canonical_tnn_rep and the two testers multiply in float64
    only: a wrapped _mul sees no complex operand. (A verdict with a witness of
    order >= 2 takes one complex _det of it, of the matrix as given; these
    verdicts are positive.)"""
    seen = []

    def mul(a, b, f=linalg._mul):
        seen.append(np.iscomplexobj(a) or np.iscomplexobj(b))
        return f(a, b)

    rng = np.random.default_rng(23)
    reps = [q_factor(tp_product(rng, n)) for n in range(2, 9)]
    monkeypatch.setattr(linalg, "_mul", mul)
    for Q in reps:
        n = Q.shape[0]
        assert np.abs(flagorbit.canonical_tnn_rep(Q) - Q).max() < 1e-12
        assert positivity.is_tnn_unitary(Q).status == POSITIVE
        assert positivity.is_plucker_nonneg(Q, range(1, n)).status == POSITIVE
    assert seen and not any(seen)
