import numpy as np
import pytest
from numpy.testing import assert_allclose

from orbitflow import linalg, perms, positivity
from orbitflow.errors import DomainError, LinalgError


def rotation(a):
    return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])


def test_is_tp_matrix_known_positive():
    M = np.array([[1.0, 2, 1], [1, 3, 2], [1, 4, 4]])
    assert positivity.is_tp_matrix(M).status == "positive"


def test_is_tp_matrix_identity_nonnegative():
    v = positivity.is_tp_matrix(np.eye(3))
    assert v.status == "nonnegative"


def test_is_tp_matrix_outside_with_witness():
    M = np.array([[11, 3 * np.sqrt(2), -1],
                  [3 * np.sqrt(2), 10, 3 * np.sqrt(2)],
                  [-1, 3 * np.sqrt(2), 11]])
    v = positivity.is_tp_matrix(M)
    assert v.status == "outside"
    assert v.witness is not None and v.witness.value < 0


def test_is_tp_matrix_rejects_complex_and_large():
    with pytest.raises(DomainError):
        positivity.is_tp_matrix(np.eye(2) * (1 + 1j))
    with pytest.raises(LinalgError):
        positivity.is_tp_matrix(np.eye(9))


def test_is_jacobi_cone_examples():
    assert positivity.is_jacobi_cone(np.diag([1.0, 2, 3])).status == "nonnegative"
    a, b = np.sqrt(6) / 3, np.sqrt(3) / 3
    J = np.array([[0, a, 0], [a, 0, b], [0, b, 0]])
    assert positivity.is_jacobi_cone(J).status == "positive"
    M = J.copy()
    M[0, 2] = 0.1
    v = positivity.is_jacobi_cone(M)
    assert v.status == "outside"
    assert v.witness.rows == (1,) and v.witness.cols == (3,)


def reference_jacobi_cone(L, tol=1e-9):
    """The per-entry loops is_jacobi_cone replaced."""
    A = linalg.square(L)
    n = A.shape[0]
    scale = max(1.0, float(np.abs(A).max()))
    R = A.real
    for i in range(n):
        for j in range(n):
            if abs(i - j) >= 2 and abs(R[i, j]) > tol * scale:
                return positivity.Verdict("outside", positivity.Witness((i + 1,), (j + 1,), float(R[i, j])), tol)
    worst, worst_w = np.inf, None
    for i in range(n - 1):
        for (a, b) in ((i, i + 1), (i + 1, i)):
            val = R[a, b] / scale
            if val < worst:
                worst, worst_w = val, positivity.Witness((a + 1,), (b + 1,), float(R[a, b]))
    if n == 1:
        return positivity.Verdict("nonnegative", None, tol)
    if worst > tol:
        return positivity.Verdict("positive", None, tol)
    return positivity.Verdict("nonnegative" if worst > -tol else "outside", worst_w, tol)


def test_is_jacobi_cone_matches_reference_loop():
    """Tridiagonal, perturbed off-band and tied inputs: same verdict and witness,
    the first of tied entries included."""
    rng = np.random.default_rng(30)
    cases = [np.eye(1), -np.eye(1), np.zeros((4, 4))]
    for n in range(2, 8):
        for _ in range(6):
            T = np.diag(rng.normal(size=n)) + np.diag(rng.uniform(-0.2, 1, size=n - 1), 1)
            T += np.diag(rng.uniform(-0.2, 1, size=n - 1), -1)
            cases.append(T)
            P = T.copy()
            if n > 2:
                for _ in range(2):
                    i, j = rng.integers(0, n, size=2)
                    if abs(i - j) >= 2:
                        P[i, j] = rng.choice([1e-12, -3e-9, 0.5, -0.5])
                cases.append(P)
            tied = np.diag(np.ones(n)) + np.diag(np.full(n - 1, 0.3), 1) + np.diag(np.full(n - 1, 0.3), -1)
            tied[n // 2, n // 2 - 1] = tied[n // 2 - 1, n // 2] = rng.choice([0.0, -0.1, 0.3])
            if n > 2:
                tied[0, 2] = tied[2, 0] = rng.choice([0.0, 2e-9, 5.0])
            cases.append(tied)
            cases.append(np.diag(rng.integers(-1, 2, size=n - 1).astype(float), 1)
                         + np.diag(rng.integers(-1, 2, size=n - 1).astype(float), -1))
    statuses = set()
    for M in cases:
        for tol in (1e-9, 1e-3):
            got = positivity.is_jacobi_cone(M, tol)
            assert got == reference_jacobi_cone(M, tol)
            statuses.add((got.status, got.witness is None))
    assert statuses == {("positive", True), ("nonnegative", True), ("nonnegative", False),
                        ("outside", False)}


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_testers_refuse_bad_tol(tol):
    g = rotation(0.6)
    for check in (lambda: positivity.is_tp_matrix(g, tol), lambda: positivity.is_jacobi_cone(g, tol),
                  lambda: positivity.is_tnn_unitary(g, tol),
                  lambda: positivity.is_plucker_nonneg(g, (1,), tol),
                  lambda: positivity.is_eventually_tp(np.eye(2) + 0.5, 3, tol)):
        with pytest.raises(LinalgError, match="tol must be finite and > 0"):
            check()


def test_is_tnn_unitary_rotation():
    assert positivity.is_tnn_unitary(rotation(0.6)).status == "positive"
    assert positivity.is_tnn_unitary(rotation(-0.6)).status == "outside"


def test_is_tnn_unitary_signed_permutation():
    g = np.array([[0.0, -1, 0], [0, 0, -1], [1, 0, 0]])
    assert positivity.is_tnn_unitary(g).status == "nonnegative"


def test_is_tnn_unitary_rejects_non_unitary():
    with pytest.raises(DomainError):
        positivity.is_tnn_unitary(np.array([[1.0, 1], [0, 1]]))


def test_is_plucker_nonneg_known_flag():
    g = np.array([[1.0, 0, 0, 0], [1, 1, 0, 0], [1, 1, 2, 0], [1, 0, 1, 1]])
    v = positivity.is_plucker_nonneg(g, (1, 3))
    assert v.status == "positive"
    assert "non-consecutive" in v.note


def test_is_plucker_nonneg_identity():
    assert positivity.is_plucker_nonneg(np.eye(4), (2,)).status == "nonnegative"


def test_is_plucker_nonneg_outside():
    # Gr(2,4) representative with a negated Plucker coordinate
    g = np.array([[1.0, 0, 0, 0], [0, -1, 0, 0], [1, 1, 1, 0], [1, 2, 0, 1]])
    v = positivity.is_plucker_nonneg(g, (2,))
    assert v.status == "outside"


def test_is_eventually_tp_immediate():
    assert positivity.is_eventually_tp(np.array([[2.0, 1], [1, 2]]), 10) == 1


def test_is_eventually_tp_remark_matrix():
    B = np.array([[11, 3 * np.sqrt(2), -1],
                  [3 * np.sqrt(2), 10, 3 * np.sqrt(2)],
                  [-1, 3 * np.sqrt(2), 11]]) / 4
    m = positivity.is_eventually_tp(B, 60)
    assert m is not None and m > 1
    # entry (1,3) of B^m turns positive only from m = 3 on
    assert m == 3


def test_is_eventually_tp_absent():
    # the alpha = 0 construction: (L^m)_{1,3} < 0 for every m
    C = np.array([[2.0, 0, -1], [0, 4, 0], [-1, 0, 2]])
    assert positivity.is_eventually_tp(C, 60) is None


def test_is_eventually_tp_preconditions():
    with pytest.raises(DomainError):
        positivity.is_eventually_tp(np.array([[0.0, 1], [1, 0]]), 5)   # negative eigenvalue
    with pytest.raises(DomainError):
        positivity.is_eventually_tp(np.array([[2.0, 1], [0, 2]]), 5)   # not symmetric


def test_sample_tp_scalar():
    rng = np.random.default_rng(0)
    A = positivity.sample_tp(1, rng)
    assert A.shape == (1, 1) and A[0, 0] > 0


def test_sample_tp_seeded_certifies():
    rng = np.random.default_rng(1)
    A = positivity.sample_tp(3, rng)
    assert positivity.is_tp_matrix(A).status == "positive"


def test_sample_tp_statistical():
    rng = np.random.default_rng(2)
    tol = positivity.sample_tp_cert_tol(5)
    for _ in range(100):
        A = positivity.sample_tp(5, rng)
        assert positivity.is_tp_matrix(A, tol).status == "positive"


def test_semigroup_property():
    rng = np.random.default_rng(3)
    A = positivity.sample_tp(4, rng)
    B = positivity.sample_tp(4, rng)
    tol = positivity.sample_tp_cert_tol(4)
    assert positivity.is_tp_matrix(A @ B, min(tol, 1e-12)).status == "positive"


def test_tp_implies_distinct_positive_real_eigenvalues():
    rng = np.random.default_rng(4)
    for _ in range(5):
        A = positivity.sample_tp(4, rng)
        w, _ = linalg.general_eig(A)
        assert np.abs(w.imag).max() < 1e-8 * np.abs(w).max()
        wr = np.sort(w.real)[::-1]
        assert wr[-1] > 0
        assert np.min(-np.diff(wr)) > 1e-10 * wr[0]


def test_iota_stability_and_first_row_alternation():
    rng = np.random.default_rng(5)
    for n in (3, 4, 5):
        g = positivity.sample_tnn_flag(n, rng)
        d = perms.delta_matrix(n)
        assert positivity.is_tnn_unitary(d @ g.T @ d).status == "positive"
        signs = np.array([(-1.0) ** j for j in range(n)])
        assert np.all(signs * np.real(g[0, :]) > 0)


def test_sample_tnn_flag_examples():
    rng = np.random.default_rng(6)
    assert_allclose(positivity.sample_tnn_flag(3, rng, w=(1, 2, 3)), np.eye(3), atol=0)
    g = positivity.sample_tnn_flag(4, rng)
    assert positivity.is_tnn_unitary(g).status == "positive"
    w0 = positivity.sample_tnn_flag(3, rng, w=(3, 2, 1))
    assert positivity.is_tnn_unitary(w0).status == "nonnegative"
    b = positivity.sample_tnn_flag(4, rng, boundary=True)
    v = positivity.is_tnn_unitary(b)
    assert v.status == "nonnegative"


# 1- and 2-minors positive, determinant -1: outside.
OUTSIDE_3 = np.array([[1.0, 2, 1], [1, 3, 4], [1, 4, 6]])


def test_overflowing_minors_raise():
    with pytest.raises(LinalgError, match="overflow"):
        positivity.is_tp_matrix(OUTSIDE_3 * 1e120)


def test_large_finite_scale_keeps_verdict():
    for A in (OUTSIDE_3, np.array([[1.0, 2, 1], [1, 3, 2], [1, 4, 4]]), np.eye(3)):
        assert positivity.is_tp_matrix(A * 1e100).status == positivity.is_tp_matrix(A).status
