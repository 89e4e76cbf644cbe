import io as sio
import sys
from itertools import permutations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from orbitflow import flagorbit, linalg, perms, positivity
from orbitflow import io as oio
from orbitflow.cli import main
from orbitflow.errors import DomainError, LinalgError


def interior_flag(n, rng):
    return flagorbit.flag_from_matrix(positivity.sample_tnn_flag(n, rng))


def intro_matrix():
    s3, s2 = np.sqrt(3), np.sqrt(2)
    return np.array([[s3 / 2, -1 / (2 * s2), 1 / (2 * s2)],
                     [s3 / 4, 1 / (4 * s2), -5 / (4 * s2)],
                     [1 / 4, 3 * s3 / (4 * s2), s3 / (4 * s2)]])


def intro_twisted():
    s3, s2 = np.sqrt(3), np.sqrt(2)
    return np.array([[s3 / 2, -s3 / 4, 1 / 4],
                     [1 / (2 * s2), 1 / (4 * s2), -3 * s3 / (4 * s2)],
                     [1 / (2 * s2), 5 / (4 * s2), s3 / (4 * s2)]])


# ---------------------------------------------------------------- pluecker

def test_pluecker_known_flag():
    g = np.array([[1.0, 0, 0, 0], [1, 1, 0, 0], [1, 1, 2, 0], [1, 0, 1, 1]])
    V = flagorbit.flag_from_matrix(g, K=(1, 3))
    c1 = flagorbit.pluecker(V, 1)
    vals = np.array([c1[(i,)].real for i in range(1, 5)])
    assert_allclose(vals, vals[0], atol=1e-12)
    c3 = flagorbit.pluecker(V, 3)
    base = c3[(1, 2, 3)].real
    assert_allclose(c3[(2, 3, 4)].real / base, 1.0, atol=1e-12)
    assert_allclose(c3[(1, 2, 4)].real / base, 0.5, atol=1e-12)
    assert_allclose(c3[(1, 3, 4)].real / base, 0.5, atol=1e-12)
    with pytest.raises(DomainError):
        flagorbit.pluecker(V, 2)


def test_pluecker_identity():
    V = flagorbit.flag_from_matrix(np.eye(4))
    for k in (1, 2, 3):
        c = flagorbit.pluecker(V, k)
        for I, v in c.items():
            expect = 1.0 if I == tuple(range(1, k + 1)) else 0.0
            assert abs(v - expect) < 1e-12


def test_grassmann_pluecker_relation():
    rng = np.random.default_rng(0)
    for _ in range(5):
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rep = flagorbit.flag_from_matrix(A).rep
        D1 = {I: linalg.left_minor(rep, I) for I in linalg.index_sets(3, 1)}
        D2 = {I: linalg.left_minor(rep, I) for I in linalg.index_sets(3, 2)}
        res = D1[(2,)] * D2[(1, 3)] - D1[(1,)] * D2[(2, 3)] - D1[(3,)] * D2[(1, 2)]
        assert abs(res) < 1e-10


# ------------------------------------------------- flag <-> orbit dictionary

def test_flag_to_orbit_identity():
    lam = np.array([3.0, 1.0, -2.0])
    P = flagorbit.flag_to_orbit(flagorbit.flag_from_matrix(np.eye(3)), lam)
    assert_allclose(P.L, 1j * np.diag(lam), atol=1e-14)


def test_flag_to_orbit_keeps_its_own_spectrum():
    lam = np.array([3.0, 1.0, -2.0])
    P = flagorbit.flag_to_orbit(flagorbit.flag_from_matrix(np.eye(3)), lam)
    lam[0] = 5.0
    assert P.lam.tolist() == [3.0, 1.0, -2.0]


def test_orbit_point_keeps_its_own_spectrum():
    lam = np.array([3.0, 1.0, -2.0])
    P = flagorbit.orbit_point(1j * np.diag(lam), lam=lam)
    lam[0] = 5.0
    assert P.lam.tolist() == [3.0, 1.0, -2.0]


def test_flag_to_orbit_rotation_closed_form():
    a = 0.8
    l1, l2 = 2.0, -1.0
    g = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    P = flagorbit.flag_to_orbit(flagorbit.flag_from_matrix(g, K=(1,)), np.array([l1, l2]))
    expect = 1j * np.array([
        [l1 * np.cos(a) ** 2 + l2 * np.sin(a) ** 2, (l1 - l2) * np.sin(a) * np.cos(a)],
        [(l1 - l2) * np.sin(a) * np.cos(a), l1 * np.sin(a) ** 2 + l2 * np.cos(a) ** 2]])
    assert np.abs(P.L - expect).max() < 1e-12


def test_flag_to_orbit_multiplicity_mismatch():
    with pytest.raises(DomainError):
        flagorbit.flag_to_orbit(flagorbit.flag_from_matrix(np.eye(3)), np.array([1.0, 1.0, 0.0]))


def test_orbit_roundtrip_projections():
    rng = np.random.default_rng(1)
    lam = np.array([2.0, 0.5, -1.0, -1.5])
    V = interior_flag(4, rng)
    P = flagorbit.flag_to_orbit(V, lam)
    W = flagorbit.orbit_to_flag(P)
    assert flagorbit.flag_distance(V, W) < 1e-9


def test_orbit_to_flag_diagonal():
    lam = np.array([2.0, 1.0, -1.0])
    P = flagorbit.orbit_point(1j * np.diag(lam))
    W = flagorbit.orbit_to_flag(P)
    assert_allclose(np.real(W.rep), np.eye(3), atol=1e-12)


def test_orbit_to_flag_jacobi_example():
    a, b = np.sqrt(6) / 3, np.sqrt(3) / 3
    P = flagorbit.orbit_point(1j * np.array([[0, a, 0], [a, 0, b], [0, b, 0]]))
    W = flagorbit.orbit_to_flag(P)
    assert positivity.is_tnn_unitary(W.rep).is_nonnegative
    # first column of iota(rep) is proportional to (1, 1, 1)
    col = np.real(flagorbit.twist_unitary(W.rep)[:, 0])
    assert_allclose(col, col[0], atol=1e-9)


def test_orbit_roundtrip_tnn_representatives():
    rng = np.random.default_rng(2)
    lam = np.array([1.5, 0.0, -1.5])
    for _ in range(5):
        g = positivity.sample_tnn_flag(3, rng)
        P = flagorbit.flag_to_orbit(flagorbit.flag_from_matrix(g), lam)
        W = flagorbit.orbit_to_flag(P)
        assert np.abs(W.rep - g).max() < 1e-8


# ------------------------------------------------------- projection matrices

def test_proj_matrix_examples():
    P = flagorbit.proj_matrix(np.array([[1.0], [0.0]]))
    assert_allclose(P, np.array([[1.0, 0], [0, 0]]), atol=1e-14)
    P = flagorbit.proj_matrix(np.array([[1.0], [1.0]]) / np.sqrt(2))
    assert_allclose(P, np.full((2, 2), 0.5), atol=1e-14)
    rng = np.random.default_rng(3)
    V = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    P = flagorbit.proj_matrix(V)
    assert np.abs(P @ P - P).max() < 1e-10
    assert np.abs(P - P.conj().T).max() < 1e-10
    assert abs(np.trace(P) - 2) < 1e-10


def test_projection_minor_closed_form_top_order():
    rng = np.random.default_rng(4)
    V = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    denom = sum(abs(linalg.left_minor(V, K)) ** 2 for K in linalg.index_sets(4, 2))
    for I in linalg.index_sets(4, 2):
        for J in linalg.index_sets(4, 2):
            got = flagorbit.projection_minor_closed_form(V, I, J)
            expect = linalg.left_minor(V, I) * np.conj(linalg.left_minor(V, J)) / denom
            assert abs(got - expect) < 1e-12


def test_projection_minor_closed_form_coordinate_span():
    V = np.eye(4)[:, :2].astype(complex)
    assert abs(flagorbit.projection_minor_closed_form(V, (1, 2), (1, 2)) - 1) < 1e-14


def test_projection_minor_matches_direct():
    rng = np.random.default_rng(5)
    for (n, k) in [(4, 2), (5, 3), (6, 2)]:
        V = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
        P = flagorbit.proj_matrix(V)
        for l in range(1, k + 1):
            for I in linalg.index_sets(n, l):
                for J in linalg.index_sets(n, l):
                    a = linalg.minor(P, I, J)
                    b = flagorbit.projection_minor_closed_form(V, I, J)
                    assert abs(a - b) < 1e-9


def test_decompose_orbit():
    P = flagorbit.orbit_point(1j * np.diag([2.0, 1.0, 0.0]))
    parts = flagorbit.decompose_orbit(P)
    assert len(parts) == 2
    (w1, P1), (w2, P2) = parts
    assert_allclose([w1, w2], [1.0, 1.0])
    E11 = np.zeros((3, 3)); E11[0, 0] = 1
    assert_allclose(np.real(P1), E11, atol=1e-12)
    assert_allclose(np.real(P2), np.diag([1.0, 1, 0]), atol=1e-12)


def test_decompose_orbit_reconstruction():
    a, b = np.sqrt(6) / 3, np.sqrt(3) / 3
    P = flagorbit.orbit_point(1j * np.array([[0, a, 0], [a, 0, b], [0, b, 0]]))
    M = P.lam[-1] * np.eye(3, dtype=complex)
    for w, Pk in flagorbit.decompose_orbit(P):
        M += w * Pk
    assert np.abs(-1j * P.L - M).max() < 1e-9


def test_decompose_orbit_grassmannian_single_term():
    rng = np.random.default_rng(6)
    V = rng.normal(size=(4, 2))
    L = 1j * flagorbit.proj_matrix(V)
    P = flagorbit.orbit_point(L)
    parts = flagorbit.decompose_orbit(P)
    assert len(parts) == 1
    assert np.abs(parts[0][1] - (-1j * L)).max() < 1e-9


# --------------------------------------------------------------- involutions

def test_dual_flag_rotation():
    a = 0.6
    g = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    W = flagorbit.dual_flag(flagorbit.flag_from_matrix(g))
    expect = np.array([[np.sin(a), -np.cos(a)], [np.cos(a), np.sin(a)]])
    assert np.abs(np.real(W.rep) - expect).max() < 1e-12


def test_rev_involution():
    rng = np.random.default_rng(7)
    V = interior_flag(4, rng)
    W = flagorbit.rev_flag(flagorbit.rev_flag(V))
    assert flagorbit.flag_distance(V, W) < 1e-12


def test_dual_minor_identity():
    rng = np.random.default_rng(8)
    for n in (3, 4):
        V = interior_flag(n, rng)
        W = flagorbit.dual_flag(V)
        for k in V.K:
            cd = flagorbit.pluecker(W, n - k)
            cv = flagorbit.pluecker(V, k)
            # Delta_I(rho(V)) = conj(Delta_{[n]-I}(V)) up to a common positive scale
            pairs = [(cd[I], np.conj(cv[tuple(sorted(set(range(1, n + 1)) - set(I)))]))
                     for I in linalg.index_sets(n, n - k)]
            base = next((b / a) for a, b in pairs if abs(a) > 1e-8)
            for a, b in pairs:
                assert abs(a * base - b) < 1e-8


def test_twist_unitary_2x2_formula():
    g = np.array([[1.0, 2.0], [0.5, 3.0]])
    det = 1 * 3 - 2 * 0.5
    expect = np.array([[3.0, 2.0], [0.5, 1.0]]) / det
    assert_allclose(np.real(flagorbit.twist_unitary(g)), expect, atol=1e-12)
    rng = np.random.default_rng(9)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.abs(flagorbit.twist_unitary(flagorbit.twist_unitary(A)) - A).max() < 1e-10


def test_twist_unitary_preserves_positivity():
    rng = np.random.default_rng(10)
    g = positivity.sample_tnn_flag(3, rng)
    assert positivity.is_tnn_unitary(flagorbit.twist_unitary(g)).status == "positive"


def test_twist_flag_intro_golden():
    V = flagorbit.flag_from_matrix(intro_matrix())
    W = flagorbit.twist_flag(V)
    assert np.abs(np.real(W.rep) - intro_twisted()).max() < 1e-10


def test_twist_flag_small_n_identity():
    for n in (1, 2):
        g = np.eye(n) if n == 1 else np.array([[np.cos(0.3), -np.sin(0.3)],
                                               [np.sin(0.3), np.cos(0.3)]])
        if n == 1:
            continue   # flags need K nonempty; n = 1 has no flag data
        V = flagorbit.flag_from_matrix(g)
        W = flagorbit.twist_flag(V)
        assert flagorbit.flag_distance(V, W) < 1e-12


def test_twist_flag_pluecker_images():
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = np.real(flagorbit.canonical_tnn_rep(positivity.sample_tnn_flag(3, rng)))
        W = flagorbit.twist_flag(flagorbit.flag_from_matrix(g))
        h = np.real(W.rep)
        D = {I: linalg.left_minor(g, I).real for k in (1, 2) for I in linalg.index_sets(3, k)}
        Dt = {I: linalg.left_minor(h, I).real for k in (1, 2) for I in linalg.index_sets(3, k)}
        assert abs(Dt[(1,)] - D[(1,)]) < 1e-10
        assert abs(Dt[(2,)] - (D[(2,)] * D[(1, 2)] + D[(3,)] * D[(1, 3)])) < 1e-10
        assert abs(Dt[(3,)] - D[(2, 3)]) < 1e-10
        assert abs(Dt[(1, 2)] - D[(1, 2)]) < 1e-10
        assert abs(Dt[(2, 3)] - D[(3,)]) < 1e-10


def test_twist_flag_outside_domain():
    with pytest.raises(DomainError):
        flagorbit.twist_flag(flagorbit.flag_from_matrix(np.eye(4), K=(1, 2)))
    # a genuinely complex flag has no real representative
    rng = np.random.default_rng(12)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    with pytest.raises(DomainError):
        flagorbit.twist_flag(flagorbit.flag_from_matrix(A))


def test_twist_orbit_examples():
    # n = 2: the twist is the identity map
    L = flagorbit.orbit_point(1j * np.array([[0.3, 0.9], [0.9, -0.3]]))
    assert np.abs(flagorbit.twist_orbit(L).L - L.L).max() < 1e-12
    lam = np.array([2.0, 1.0, -1.0])
    P = flagorbit.orbit_point(1j * np.diag(lam))
    assert np.abs(flagorbit.twist_orbit(P).L - P.L).max() < 1e-12
    with pytest.raises(DomainError):
        flagorbit.twist_orbit(flagorbit.orbit_point(1j * np.diag([1.0, 1.0, 0.0])))


def test_twist_orbit_involution_seeded():
    rng = np.random.default_rng(13)
    lam = np.array([1.7, 0.2, -0.8, -1.9])
    for _ in range(5):
        g = positivity.sample_tnn_flag(4, rng)
        P = flagorbit.flag_to_orbit(flagorbit.flag_from_matrix(g), lam)
        Q = flagorbit.twist_orbit(flagorbit.twist_orbit(P))
        assert np.abs(Q.L - P.L).max() < 1e-8


# ----------------------------------------------------------------- eigenflag

def test_eigenflag_tp_example_certified():
    g = np.array([[1.0, 2, 1], [1, 3, 2], [1, 4, 4]])
    V = flagorbit.eigenflag(g)
    assert positivity.is_tnn_unitary(V.rep).status == "positive"


def test_eigenflag_diagonal():
    V = flagorbit.eigenflag(np.diag([3.0, 2.0, 1.0]))
    assert_allclose(np.abs(np.real(V.rep)), np.eye(3), atol=1e-12)


def test_eigenflag_leading_span_plucker_positive():
    rng = np.random.default_rng(14)
    A = positivity.sample_tp(4, rng)
    V = flagorbit.eigenflag(A)
    for k in (1, 2, 3):
        assert positivity.is_plucker_nonneg(V.rep, (k,)).status == "positive"


# -------------------------------------------------------------------- cells

def test_locate_cell_examples():
    g = np.array([[0.7, -1, 0], [0, 0, -1], [1, 0, 0]])
    c = flagorbit.locate_cell(flagorbit.flag_from_matrix(g))
    assert (c.v, c.w) == ((1, 3, 2), (3, 1, 2))
    c = flagorbit.locate_cell(flagorbit.flag_from_matrix(np.eye(4)))
    assert (c.v, c.w) == ((1, 2, 3, 4), (1, 2, 3, 4))
    tw = flagorbit.twist_flag(flagorbit.flag_from_matrix(g))
    c = flagorbit.locate_cell(tw)
    assert (c.v, c.w) == ((1, 3, 2), (2, 3, 1))


def reference_cell(V, tol=linalg.RANK_RTOL):
    """The per-submatrix rank scan locate_cell replaced: one SVD per rank, each
    guarded, columns in order, w before v. Returns the label or the error text."""
    g = np.real(flagorbit.canonical_tnn_rep(V.rep))
    n = V.n

    def rank(A):
        if A.size == 0:
            return 0
        sv = np.linalg.svd(A, compute_uv=False)
        if np.any((sv > tol * 1e-2) & (sv < tol * 1e2)):
            raise DomainError("locate_cell: ambiguous numerical rank near tolerance")
        return int(np.sum(sv > tol))

    def label(sub, pick):
        out = []
        for j in range(1, n + 1):
            cands = [i for i in range(1, n + 1) if rank(sub(i, j)) == rank(sub(i, j - 1)) + 1]
            if not cands:
                raise DomainError("locate_cell: no rank jump found")
            out.append(pick(cands))
        return tuple(out)

    try:
        w = label(lambda i, j: g[i - 1:, :j], max)
        v = label(lambda i, j: g[:i, :j], min)
    except DomainError as exc:
        return str(exc)
    return v, w


def cell_or_error(V, tol=linalg.RANK_RTOL):
    try:
        c = flagorbit.locate_cell(V, tol)
    except DomainError as exc:
        return str(exc)
    return c.v, c.w


def test_locate_cell_matches_reference_on_permutation_cells():
    for n in (2, 3, 4):
        for w in permutations(range(1, n + 1)):
            V = flagorbit.flag_from_matrix(perms.signed_perm(w))
            got = cell_or_error(V)
            assert got == reference_cell(V)
            assert got[1] == w


def test_locate_cell_matches_reference_on_random_flags():
    rng = np.random.default_rng(21)
    seen = set()
    for n in range(3, 9):
        for boundary in (True, True, True, False):
            V = flagorbit.flag_from_matrix(positivity.sample_tnn_flag(n, rng, boundary=boundary))
            got = cell_or_error(V)
            assert got == reference_cell(V)
            seen.add(got[1] == perms.longest_perm(n))
    assert seen == {True, False}   # interior flags and proper boundary cells both met


def givens(n, k, theta):
    G = np.eye(n)
    c, s = np.cos(theta), np.sin(theta)
    G[k - 1:k + 1, k - 1:k + 1] = [[c, -s], [s, c]]
    return G


def test_locate_cell_guard_band_matches_reference():
    """A rotation by theta plants a corner singular value sin(theta): inside the
    band (tol 1e-2, tol 1e2) both scans abort with the same error; outside it
    both return the same label."""
    rng = np.random.default_rng(22)
    ambiguous = 0
    for n in (3, 4, 5):
        for theta in (3e-12, 2e-11, 1e-9, 5e-8, 3e-7):
            for k in range(1, n):
                w = perms.random_perm(n, rng)
                V = flagorbit.flag_from_matrix(givens(n, k, theta) @ perms.signed_perm(w))
                got = cell_or_error(V)
                assert got == reference_cell(V)
                ambiguous += got == "locate_cell: ambiguous numerical rank near tolerance"
    assert ambiguous > 0
    V = flagorbit.flag_from_matrix(givens(3, 1, 1e-9))
    with pytest.raises(DomainError, match="ambiguous numerical rank"):
        flagorbit.locate_cell(V)


def plant_in_padding(monkeypatch, value):
    """Make np.linalg.svd report value, not 0, for every singular value of a
    stacked matrix beyond its count of nonzero rows or columns."""
    svd = np.linalg.svd

    def planted(A, *args, **kwargs):
        sv = svd(A, *args, **kwargs)
        nz = A != 0
        k = np.minimum(nz.any(-1).sum(-1), nz.any(-2).sum(-1))
        return np.where(np.arange(sv.shape[-1]) < k[..., None], sv, value)

    monkeypatch.setattr(np.linalg, "svd", planted)


def test_locate_cell_padding_neither_trips_the_guard_nor_counts(monkeypatch):
    """At tol = 1e-15 the guard band is (1e-17, 1e-13). Padding singular values
    of 3e-16 (the size a zero-padded LAPACK SVD can leave) would trip it, and
    ones of 1e-12 would count toward rank; interior flags have corner
    submatrices of full rank, so every value past the nonzero rows or columns
    is padding."""
    rng = np.random.default_rng(23)
    flags = [interior_flag(n, rng) for n in (3, 4, 5, 6)]
    expect = [reference_cell(V, 1e-15) for V in flags]
    assert all(isinstance(e, tuple) for e in expect)
    assert [cell_or_error(V, 1e-15) for V in flags] == expect
    for value in (3e-16, 1e-12):
        with monkeypatch.context() as m:
            plant_in_padding(m, value)
            assert [cell_or_error(V, 1e-15) for V in flags] == expect


def test_locate_cell_takes_one_svd(monkeypatch):
    rng = np.random.default_rng(24)
    for n in (3, 8):
        V = flagorbit.flag_from_matrix(positivity.sample_tnn_flag(n, rng, boundary=True))
        calls = []
        svd = np.linalg.svd

        def counting(A, *args, **kwargs):
            calls.append(A.shape)
            return svd(A, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "svd", counting)
            flagorbit.locate_cell(V)
        assert calls == [(2, n, n, n, n)]


def test_corner_ranks_match_mpmath():
    """Every rank of the table against 50-digit singular values of the same
    double-valued submatrices, on boundary flags at n <= 5."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(25)
    tol = linalg.RANK_RTOL
    for n in (3, 4, 5):
        for _ in range(3):
            g = np.real(flagorbit.canonical_tnn_rep(positivity.sample_tnn_flag(n, rng, boundary=True)))
            ranks, ambiguous = flagorbit._corner_ranks(g, tol)
            assert not ambiguous.any()
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    for t, sub in enumerate((g[i - 1:, :j], g[:i, :j])):
                        with mpmath.workdps(50):
                            sv = mpmath.svd_r(mpmath.matrix(sub.tolist()), compute_uv=False)
                            exact = sum(1 for s in sv if s > tol)
                            assert not any(tol * 1e-2 < s < tol * 1e2 for s in sv)
                        assert ranks[t, i - 1, j - 1] == exact


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_locate_cell_refuses_bad_tol(tol):
    V = flagorbit.flag_from_matrix(positivity.sample_tnn_flag(5, np.random.default_rng(5), boundary=True))
    with pytest.raises(LinalgError, match="tol must be finite and > 0"):
        flagorbit.locate_cell(V, tol=tol)


def test_signed_perm_examples():
    assert_allclose(perms.signed_perm((1, 2, 3)), np.eye(3), atol=0)
    assert_allclose(perms.signed_perm((3, 1, 2)),
                    np.array([[0.0, -1, 0], [0, 0, -1], [1, 0, 0]]), atol=0)
    assert_allclose(perms.signed_perm((3, 2, 1)),
                    np.array([[0.0, 0, 1], [0, -1, 0], [1, 0, 0]]), atol=0)


def test_signed_perm_inverse_identity_and_certification():
    rng = np.random.default_rng(15)
    for n in (3, 4, 5):
        w = perms.random_perm(n, rng)
        lhs = perms.signed_perm(perms.inverse_perm(w))
        d = perms.delta_matrix(n)
        rhs = d @ np.linalg.inv(perms.signed_perm(w)) @ d
        assert np.abs(lhs - rhs).max() < 1e-12
        assert positivity.is_tnn_unitary(perms.signed_perm(w)).is_nonnegative


# ------------------------------------------------------ structural invariants

def test_twist_rev_twist_equals_rho():
    rng = np.random.default_rng(16)
    for n in (3, 4):
        V = interior_flag(n, rng)
        lhs = flagorbit.twist_flag(flagorbit.rev_flag(flagorbit.twist_flag(V)))
        rhs = flagorbit.dual_flag(V)
        assert flagorbit.flag_distance(lhs, rhs) < 1e-8


def test_cell_equivariance():
    rng = np.random.default_rng(17)
    n = 3
    w0 = perms.longest_perm(n)
    for trial in range(6):
        g = positivity.sample_tnn_flag(n, rng, boundary=(trial % 2 == 0))
        V = flagorbit.flag_from_matrix(g)
        c = flagorbit.locate_cell(V)
        ct = flagorbit.locate_cell(flagorbit.twist_flag(V))
        assert (ct.v, ct.w) == (perms.inverse_perm(c.v), perms.inverse_perm(c.w))
        cr = flagorbit.locate_cell(flagorbit.rev_flag(V))
        assert (cr.v, cr.w) == (perms.compose_perm(w0, c.w), perms.compose_perm(w0, c.v))
        cd = flagorbit.locate_cell(flagorbit.dual_flag(V))
        assert (cd.v, cd.w) == (perms.compose_perm(c.w, w0), perms.compose_perm(c.v, w0))


def test_evenness_dichotomy():
    rng = np.random.default_rng(18)
    n, k = 4, 2
    for _ in range(3):
        A = positivity.sample_tp(n, rng)
        P = flagorbit.proj_matrix(A[:, :k].astype(complex))
        for l in (1, 2):
            for I in linalg.index_sets(n, l):
                for J in linalg.index_sets(n, l):
                    multi = sorted(list(I) + list(J))
                    comp = [x for x in range(0, n + 2) if x not in set(I) | set(J)]
                    even = all(sum(1 for m in multi if x < m < y) % 2 == 0
                               for x, y in zip(comp, comp[1:]))
                    if not even:
                        continue
                    val = linalg.minor(P, I, J).real
                    if len(set(I) & set(J)) >= k + l - n:
                        assert val > 0
                    else:
                        assert abs(val) < 1e-10


def test_tp_action_on_tnn_flags():
    rng = np.random.default_rng(19)
    n = 4
    A = positivity.sample_tp(n, rng)
    g = positivity.sample_tnn_flag(n, rng, boundary=True)
    W = flagorbit.flag_from_matrix(A @ g)
    assert flagorbit.certify_flag_tnn(W).status == "positive"


def test_torus_action_preserves_cells():
    rng = np.random.default_rng(20)
    n = 3
    for trial in range(4):
        g = positivity.sample_tnn_flag(n, rng, boundary=True)
        V = flagorbit.flag_from_matrix(g)
        c0 = flagorbit.locate_cell(V)
        h = np.diag(np.exp(rng.uniform(-1, 1, size=n)))
        W = flagorbit.flag_from_matrix(h @ g)
        c1 = flagorbit.locate_cell(W)
        assert (c0.v, c0.w) == (c1.v, c1.w)


def test_orbit_point_refuses_malformed_lambda():
    L = 1j * np.array([[0.0, 1], [1, 0]])
    for lam in ("x", "1", [[1], [-1]], [[1, -1]], [1.0], [1.0, -1.0, 0.0], [1.0, float("nan")],
                [float("inf"), -1.0], {"a": 1}, [None, 1.0]):
        with pytest.raises(LinalgError, match="lambda must be"):
            flagorbit.orbit_point(L, lam)
    assert flagorbit.orbit_point(L, [1, -1]).lam.tolist() == [1.0, -1.0]


# ------------------------------------- one orbit -> flag -> twist chain

def chart_orbit_points(rng, n):
    """Orbit points with strictly decreasing lam whose eigenflags are totally
    positive, built by orbit_point (so they carry the eigendecomposition)."""
    lam = np.sort(rng.normal(size=n))[::-1]
    out = []
    for _ in range(3):
        P = flagorbit.flag_to_orbit(interior_flag(n, rng), lam)
        out.append(flagorbit.orbit_point(P.L, P.lam))
    return out


def old_twist_orbit(P):
    """twist_orbit as it was: canonical_tnn_rep of the eigenflag's representative,
    itself canonical, then delta g^T delta in complex."""
    g = flagorbit.canonical_tnn_rep(flagorbit.orbit_to_flag(P).rep)
    d = perms.delta_matrix(P.L.shape[0])
    return flagorbit.orbit_from_rep((d @ np.real(g).T @ d).astype(complex), P.lam, P.K)


def record_callers(monkeypatch, module, name):
    """Wrap module.name; the list gets the name of each call's calling function."""
    callers = []
    real = getattr(module, name)

    def wrapped(*args, **kw):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args, **kw)
    monkeypatch.setattr(module, name, wrapped)
    return callers


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_canonical_rep_is_float64_and_twist_flag_is_the_two_step_chain(n):
    rng = np.random.default_rng(70 + n)
    d = perms.delta_matrix(n)
    for _ in range(3):
        g = positivity.sample_tnn_flag(n, rng)
        for rep in (g, g * np.exp(1j * rng.uniform(0, 6, n)), linalg.k_factor(positivity.sample_tp(n, rng))):
            h = flagorbit.canonical_tnn_rep(rep)
            assert h.dtype == np.float64
            V = flagorbit.PartialFlag(n, flagorbit.complete_K(n), rep)
            ref = flagorbit.canonical_tnn_rep(d @ flagorbit.canonical_tnn_rep(rep).T @ d)
            assert flagorbit.twist_flag(V).rep.tobytes() == ref.tobytes()


def test_twist_unitary_takes_svd_only_off_the_unitary_branch(monkeypatch):
    rng = np.random.default_rng(71)
    U = linalg.k_factor(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    A = rng.normal(size=(5, 5))
    d = perms.delta_matrix(5)
    calls = record_callers(monkeypatch, np.linalg, "svd")
    assert flagorbit.twist_unitary(U).tobytes() == (d @ U.conj().T @ d).tobytes()
    assert calls == []
    assert np.abs(flagorbit.twist_unitary(A) - d @ np.linalg.inv(A) @ d).max() < 1e-12
    assert calls == ["twist_unitary"]
    with pytest.raises(LinalgError, match="singular"):
        flagorbit.twist_unitary(np.ones((3, 3)))


def test_twist_orbit_canonicalizes_once_within_1e14_of_the_old_chain(monkeypatch):
    rng = np.random.default_rng(72)
    points = [P for n in (3, 5, 8) for P in chart_orbit_points(rng, n)]
    refs = [old_twist_orbit(P) for P in points]
    calls = record_callers(monkeypatch, flagorbit, "canonical_tnn_rep")
    for P, ref in zip(points, refs):
        del calls[:]
        got = flagorbit.twist_orbit(P)
        assert calls == ["twist_orbit"]
        assert got.K == ref.K and got.lam.tobytes() == ref.lam.tobytes()
        assert np.abs(got.L - ref.L).max() <= 1e-14
    c = 1 / np.sqrt(2)   # the first eigenvector (c, -c, 0) has chart sum S_1 = 0
    g = np.array([[c, c, 0], [-c, c, 0], [0, 0, 1]])
    outside = flagorbit.orbit_point(flagorbit.orbit_from_rep(g, [1.0, 0.0, -1.0], (1, 2)).L)
    with pytest.raises(DomainError):
        old_twist_orbit(outside)
    with pytest.raises(DomainError, match="outside the totally nonnegative chart"):
        flagorbit.twist_orbit(outside)


def test_cli_positivity_on_an_orbit_canonicalizes_once(tmp_path, monkeypatch):
    rng = np.random.default_rng(73)
    path = tmp_path / "orbit.json"
    path.write_text(oio.dumps(oio.orbit_to_json(chart_orbit_points(rng, 4)[0])))
    calls = record_callers(monkeypatch, flagorbit, "canonical_tnn_rep")
    for kind in ("unitary", "plucker"):
        del calls[:]
        assert main(["positivity", "--kind", kind, "--K", "1,2", "--in", str(path)], out=sio.StringIO()) == 0
        assert calls == ["cmd_positivity"]


def test_orbit_to_flag_reuses_the_cached_eigendecomposition(monkeypatch):
    rng = np.random.default_rng(74)
    lam = np.array([2.0, 2.0, 0.5, -1.0, -1.0, -1.0])
    V = flagorbit.flag_from_matrix(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)),
                                   K=linalg.multiplicity_set(lam))
    P = flagorbit.orbit_point(flagorbit.flag_to_orbit(V, lam).L, lam)
    bare = flagorbit.OrbitPoint(P.L, P.lam, P.K)
    ref = flagorbit.orbit_to_flag(bare)
    w, U = (a.tobytes() for a in P.eig)
    calls = record_callers(monkeypatch, linalg, "herm_eig")
    W = flagorbit.orbit_to_flag(P)
    assert calls == []
    assert P.eig[0].tobytes() == w and P.eig[1].tobytes() == U
    assert W.K == ref.K == (2, 3) and W.rep.tobytes() == ref.rep.tobytes()
    assert flagorbit.flag_distance(W, V) < 1e-10
