"""The batched minor kernel against per-minor references, bit for bit.

The references below enumerate minors one at a time with np.ix_ and the
written-out closed forms, the way the package computed every minor before the
kernel; verdicts, witnesses and flag data must not move by a single bit.
"""

from itertools import combinations

import numpy as np
import pytest

from orbitflow import flagorbit, linalg, perms, positivity
from orbitflow.errors import DomainError
from orbitflow.positivity import NONNEGATIVE, OUTSIDE, POSITIVE, Verdict, Witness


def scalar_det(A):
    """Per-minor determinant: closed forms on scalars for k <= 3, else LU."""
    n = A.shape[0]
    if n == 1:
        return complex(A[0, 0])
    if n == 2:
        return complex(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0])
    if n == 3:
        return complex(
            A[0, 0] * (A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1])
            - A[0, 1] * (A[1, 0] * A[2, 2] - A[1, 2] * A[2, 0])
            + A[0, 2] * (A[1, 0] * A[2, 1] - A[1, 1] * A[2, 0])
        )
    return complex(np.linalg.det(A))


def sub(A, I, J):
    return A[np.ix_([i - 1 for i in I], [j - 1 for j in J])]


def row_norm_scale(S):
    s = float(np.prod(np.linalg.norm(S, axis=1)))
    return s if s > 0.0 else 1.0


def left_items(A, k):
    n = A.shape[0]
    return [(I, scalar_det(sub(A, I, range(1, k + 1)))) for I in combinations(range(1, n + 1), k)]


def ref_is_tp_matrix(M, tol=1e-9):
    R = np.asarray(M, dtype=complex).real
    n = R.shape[0]
    worst, worst_w = np.inf, None
    for k in range(1, n + 1):
        for I in combinations(range(1, n + 1), k):
            for J in combinations(range(1, n + 1), k):
                S = sub(R, I, J)
                val = scalar_det(S).real
                rel = val / row_norm_scale(S)
                if rel < worst:
                    worst, worst_w = rel, Witness(I, J, float(val))
    if worst > tol:
        return Verdict(POSITIVE, None, tol)
    return Verdict(NONNEGATIVE if worst > -tol else OUTSIDE, worst_w, tol)


def ref_is_tnn_unitary(g, tol=1e-9):
    A = np.asarray(g, dtype=complex)
    n = A.shape[0]
    fekete = True
    for k in range(1, n + 1):
        for i in range(1, n - k + 2):
            S = sub(A, range(i, i + k), range(1, k + 1))
            val, s = scalar_det(S), row_norm_scale(S)
            fekete = fekete and abs(val.imag) <= tol * s and val.real > tol * s
    if fekete:
        return Verdict(POSITIVE, None, tol)
    worst, worst_w = np.inf, None
    for k in range(1, n + 1):
        cols = tuple(range(1, k + 1))
        for I, val in left_items(A, k):
            s = row_norm_scale(sub(A, I, cols))
            if abs(val.imag) > tol * s:
                return Verdict(OUTSIDE, Witness(I, cols, float(val.imag)), tol, note="non-real minor")
            if val.real / s < worst:
                worst, worst_w = val.real / s, Witness(I, cols, float(val.real))
    return Verdict(NONNEGATIVE if worst > -tol else OUTSIDE, worst_w, tol)


def ref_is_plucker_nonneg(rep, K, tol=1e-9):
    A = np.asarray(rep, dtype=complex)
    consecutive = all(b - a == 1 for a, b in zip(K, K[1:]))
    note = ("consecutive K: Plucker positivity coincides with Lusztig positivity" if consecutive
            else "non-consecutive K: certifies Plucker positivity only")
    worst, worst_w = np.inf, None
    for k in K:
        cols = tuple(range(1, k + 1))
        items = left_items(A, k)
        vals = np.array([v for _, v in items])
        top = np.abs(vals).max()
        ph = vals[int(np.argmax(np.abs(vals)))]
        vals = vals / (ph / abs(ph))
        for (I, _), v in zip(items, vals):
            if abs(v.imag) > tol * top:
                return Verdict(OUTSIDE, Witness(I, cols, float(v.imag)), tol,
                               note="non-real coordinate after phase normalization")
            if v.real / top < worst:
                worst, worst_w = v.real / top, Witness(I, cols, float(v.real))
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
    for k in range(1, n + 1):
        sets = linalg.index_sets(n, k)
        vals, scale = linalg.minors(A, sets, sets)
        assert vals.dtype == A.dtype and vals.shape == (len(sets), len(sets))
        ref = np.array([[scalar_det(sub(A, I, J)) for J in sets] for I in sets])
        assert same_bits(vals, ref)
        assert same_bits(vals, [[linalg._det(sub(A, I, J)) for J in sets] for I in sets])
        assert same_bits(scale, [[row_norm_scale(sub(A, I, J)) for J in sets] for I in sets])
        lvals, lscale = linalg.left_minors(A, sets)
        assert same_bits(lvals, [linalg.left_minor(A, I) for I in sets])
        assert same_bits(lscale, [row_norm_scale(sub(A + 0j, I, range(1, k + 1))) for I in sets])


def matrix_inputs(n):
    """TP, boundary and outside inputs; np.eye, signed permutations and integer
    matrices tie many minors, so the first one in (k, I, J) order must win."""
    rng = np.random.default_rng(7 * n)
    out = [tp_product(rng, n), np.eye(n), signed_perm_matrix(rng, n), rng.normal(size=(n, n)),
           np.round(rng.normal(size=(n, n)))]
    if n >= 2:
        out.append(tp_product(rng, n, drop=1 + n // 2))
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_is_tp_matrix_matches_per_minor_reference(n):
    for M in matrix_inputs(n):
        assert positivity.is_tp_matrix(M) == ref_is_tp_matrix(M)


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
        statuses.add((v.status, v.note))
        for K in Ks:
            assert positivity.is_plucker_nonneg(g, K) == ref_is_plucker_nonneg(g, K)
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
def test_flag_data_match_per_minor_reference(n):
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
        with pytest.raises(DomainError):
            flagorbit.canonical_tnn_rep(g, chart_atol=least)
        assert same_bits(flagorbit.canonical_tnn_rep(g, chart_atol=np.nextafter(least, 0.0)), ref)
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
