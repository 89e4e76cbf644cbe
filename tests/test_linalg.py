import numpy as np
import pytest
from numpy.testing import assert_allclose

from orbitflow import linalg
from orbitflow.errors import LinalgError


def rand_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_minor_identity_submatrix():
    assert linalg.minor(np.eye(3), (1, 2), (1, 2)) == 1.0


def test_minor_hand_cofactor():
    M = np.array([[1.0, 2, 1], [1, 3, 2], [1, 4, 4]])
    assert_allclose(linalg.minor(M, (1, 2, 3), (1, 2, 3)).real, 1.0, atol=1e-12)


def test_minor_errors():
    with pytest.raises(LinalgError):
        linalg.minor(np.eye(3), (1, 2), (1,))
    with pytest.raises(LinalgError):
        linalg.minor(np.eye(3), (0, 1), (1, 2))
    with pytest.raises(LinalgError):
        linalg.minor(np.eye(3), (2, 1), (1, 2))


def test_cauchy_binet_on_product():
    rng = np.random.default_rng(0)
    L = rand_complex(rng, (5, 5))
    M = rand_complex(rng, (5, 5))
    P = L @ M
    for I in linalg.index_sets(5, 2):
        for J in linalg.index_sets(5, 2):
            direct = linalg.minor(P, I, J)
            summed = sum(linalg.minor(L, I, K) * linalg.minor(M, K, J)
                         for K in linalg.index_sets(5, 2))
            assert abs(direct - summed) < 1e-10 * max(1.0, abs(direct))


def test_cauchy_binet_rectangular_all_orders():
    rng = np.random.default_rng(1)
    A = rand_complex(rng, (4, 6))
    B = rand_complex(rng, (6, 5))
    P = A @ B
    for k in range(1, 5):
        for I in linalg.index_sets(4, k):
            for J in linalg.index_sets(5, k):
                direct = linalg.minor(P, I, J)
                summed = sum(linalg.minor(A, I, K) * linalg.minor(B, K, J)
                             for K in linalg.index_sets(6, k))
                assert abs(direct - summed) < 1e-9 * max(1.0, abs(direct))


def test_laplace_expansion():
    rng = np.random.default_rng(2)
    M = rand_complex(rng, (5, 5))
    det = linalg._det(M)
    for I in linalg.index_sets(5, 2):
        total = 0.0
        for J in linalg.index_sets(5, 2):
            sgn = (-1) ** (sum(I) + sum(J))
            rest_I = tuple(i for i in range(1, 6) if i not in I)
            rest_J = tuple(j for j in range(1, 6) if j not in J)
            total += sgn * linalg.minor(M, I, J) * linalg.minor(M, rest_I, rest_J)
        assert abs(total - det) < 1e-9 * abs(det)


def test_jacobi_formula():
    rng = np.random.default_rng(3)
    g = rand_complex(rng, (5, 5))
    ginv = np.linalg.inv(g)
    det = linalg._det(g)
    for k in (1, 2, 3):
        for I in linalg.index_sets(5, k):
            for J in linalg.index_sets(5, k):
                lhs = linalg.minor(ginv, I, J)
                sgn = (-1) ** (sum(I) + sum(J))
                rest_I = tuple(i for i in range(1, 6) if i not in I)
                rest_J = tuple(j for j in range(1, 6) if j not in J)
                rhs = sgn / det * linalg.minor(g, rest_J, rest_I)
                assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_vandermonde_identity(n):
    rng = np.random.default_rng(n)
    lam = rng.normal(size=n) * 2
    V = np.vander(lam, n, increasing=True)
    det = linalg._det(V)
    prod = np.prod([lam[j] - lam[i] for i in range(n) for j in range(i + 1, n)])
    assert abs(det - prod) < 1e-9 * max(1.0, abs(prod))


def test_iwasawa_identity():
    f = linalg.iwasawa(np.eye(4))
    assert_allclose(f.k_factor, np.eye(4), atol=1e-14)
    assert_allclose(f.h_factor, np.eye(4), atol=1e-14)
    assert_allclose(f.n_factor, np.eye(4), atol=1e-14)


def test_iwasawa_2x2_closed_form():
    f = linalg.iwasawa(np.array([[1.0, 1], [1, 2]]))
    s = 1 / np.sqrt(2)
    assert_allclose(f.k_factor.real, np.array([[s, -s], [s, s]]), atol=1e-14)
    assert_allclose(np.diag(f.h_factor).real, [np.sqrt(2), 1 / np.sqrt(2)], atol=1e-14)
    # QR gives the n-entry (a^2 b + a c d + b c^2) / (a (a^2 + c^2)) at a=b=c=d=1
    assert_allclose(f.n_factor[0, 1].real, 1.5, atol=1e-14)


def test_iwasawa_reconstruction_random():
    rng = np.random.default_rng(4)
    g = rand_complex(rng, (5, 5))
    f = linalg.iwasawa(g)
    assert np.abs(f.reconstruct() - g).max() < 1e-10
    assert linalg.unitary_defect(f.k_factor) < 1e-12
    assert np.abs(np.diag(f.n_factor) - 1).max() == 0.0
    assert np.all(np.diag(f.h_factor).real > 0)


def test_iwasawa_idempotent_on_unitary():
    rng = np.random.default_rng(5)
    u = linalg.k_factor(rand_complex(rng, (4, 4)))
    assert np.abs(linalg.k_factor(u) - u).max() < 1e-12


def test_iwasawa_singular():
    with pytest.raises(LinalgError):
        linalg.iwasawa(np.array([[1.0, 1], [1, 1]]))
    with pytest.raises(LinalgError, match="singular"):
        linalg.k_factor(np.array([[1.0, 1], [1, 1]]))


def iwasawa_reference(g):
    """The Iwasawa factors as one function: SVD check, QR, phases of diag(R)."""
    A = np.array(g, dtype=complex)
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[-1] <= linalg.RANK_RTOL * sv[0]:
        raise LinalgError("singular")
    Q, R = np.linalg.qr(A)
    d = np.diag(R).copy()
    phase = d / np.abs(d)
    h = np.abs(d)
    N = (R / phase[:, None]) / h[:, None]
    np.fill_diagonal(N, 1.0)
    return Q * phase[None, :], np.diag(h), N


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_k_factor_and_iwasawa_match_reference_bits(n):
    rng = np.random.default_rng(40 + n)
    for g in (rand_complex(rng, (n, n)), rng.normal(size=(n, n))):
        K, H, N = iwasawa_reference(g)
        f = linalg.iwasawa(g)
        assert np.array_equal(linalg.k_factor(g), K)
        assert np.array_equal(f.k_factor, K)
        assert np.array_equal(f.h_factor, H)
        assert np.array_equal(f.n_factor, N)


def test_k_project_strictly_upper():
    L = np.triu(np.ones((3, 3)), 1)
    assert_allclose(linalg.k_project(L), np.zeros((3, 3)), atol=0)


def test_k_project_symmetric_tridiagonal():
    b1, a, b2 = 0.3, 1.7, -0.2
    L = np.array([[b1, a], [a, b2]])
    assert_allclose(linalg.k_project(L), np.array([[0, -a], [a, 0]]), atol=1e-15)


def test_k_project_decomposition():
    rng = np.random.default_rng(6)
    L = rand_complex(rng, (4, 4))
    K = linalg.k_project(L)
    assert linalg.skew_defect(K) < 1e-14
    R = L - K
    assert np.abs(np.tril(R, -1)).max() < 1e-14
    assert np.abs(np.imag(np.diag(R))).max() < 1e-14


def test_mat_exp_zero_and_diagonal():
    assert_allclose(linalg.mat_exp(np.zeros((3, 3))), np.eye(3), atol=1e-14)
    mu = np.array([0.3, -1.2, 2.0])
    assert_allclose(linalg.mat_exp(np.diag(mu)), np.diag(np.exp(mu)), rtol=1e-12)


def test_mat_exp_unitary_closed_form():
    t = 0.77
    X = 1j * t * np.array([[0.0, 1], [1, 0]])
    E = linalg.mat_exp(X)
    expected = np.array([[np.cos(t), 1j * np.sin(t)], [1j * np.sin(t), np.cos(t)]])
    assert np.abs(E - expected).max() < 1e-12
    assert linalg.unitary_defect(E) < 1e-12


def test_herm_eig_diagonal_sorting():
    w, U = linalg.herm_eig(np.diag([3.0, 1.0, 2.0]))
    assert_allclose(w, [3, 2, 1], atol=1e-14)


def test_herm_eig_known_tridiagonal():
    a, b = np.sqrt(6) / 3, np.sqrt(3) / 3
    H = np.array([[0, a, 0], [a, 0, b], [0, b, 0]])
    w, U = linalg.herm_eig(H)
    assert_allclose(w, [1, 0, -1], atol=1e-9)


def test_herm_eig_reconstruction():
    rng = np.random.default_rng(7)
    H = rand_complex(rng, (6, 6))
    H = (H + H.conj().T) / 2
    w, U = linalg.herm_eig(H)
    assert np.abs(U @ np.diag(w) @ U.conj().T - H).max() < 1e-9
    assert linalg.unitary_defect(U) < 1e-12


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(LinalgError):
        linalg.herm_eig(np.array([[0.0, 1], [0, 0]]))


def test_general_eig_diagonal():
    w, V = linalg.general_eig(np.diag([2.0, 1.0]))
    assert_allclose(w, [2, 1], atol=1e-14)
    assert_allclose(np.abs(V), np.eye(2), atol=1e-14)


def test_general_eig_tp_example():
    g = np.array([[1.0, 2, 1], [1, 3, 2], [1, 4, 4]])
    w, V = linalg.general_eig(g)
    s5 = np.sqrt(5)
    assert_allclose(w.real, [(7 + 3 * s5) / 2, 1.0, (7 - 3 * s5) / 2], atol=1e-10)
    assert np.abs(w.imag).max() < 1e-10
    assert np.abs(g @ V - V @ np.diag(w)).max() < 1e-8


def test_general_eig_residual_random():
    rng = np.random.default_rng(8)
    g = rand_complex(rng, (4, 4))
    w, V = linalg.general_eig(g)
    assert np.abs(g @ V - V @ np.diag(w)).max() < 1e-8 * max(1.0, np.abs(g).max())


def phase_normalize_loop(M):
    """Each column divided by ph / abs(ph), ph its first largest-modulus entry,
    one column at a time on numpy scalars."""
    A = np.array(M)
    cols = A if A.ndim == 2 else A[:, None]
    for j in range(cols.shape[1]):
        col = cols[:, j]
        ph = col[int(np.argmax(np.abs(col)))]
        cols[:, j] = col / (ph / abs(ph))
    return A


@pytest.mark.parametrize("n", range(1, 9))
def test_phase_normalize_matches_column_loop_bit_for_bit(n):
    rng = np.random.default_rng(40 + n)
    for M in (rng.normal(size=(n, n)), rand_complex(rng, (n, n)), rand_complex(rng, (n, 3)),
              rng.normal(size=n), rand_complex(rng, n)):
        got = linalg.phase_normalize(M)
        ref = phase_normalize_loop(M)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_phase_normalize_first_tied_maximum_wins():
    M = np.array([[0.5, 2.0], [-2.0, 2j], [2j, -2.0], [-2.0, 1.0]])
    got = linalg.phase_normalize(M)
    assert got.tobytes() == phase_normalize_loop(M).tobytes()
    assert got[:, 0].tolist() == [-0.5, 2.0, -2j, 2.0]
    assert got[:, 1].tolist() == [2.0, 2j, -2.0, 1.0]
    v = np.array([1j, -1.0, 1.0])
    assert linalg.phase_normalize(v).tolist() == [1.0, 1j, -1j]


def test_general_eig_defective():
    with pytest.raises(LinalgError):
        linalg.general_eig(np.array([[1.0, 1], [0, 1]]))


def test_cluster_blocks_and_multiplicity():
    lam = np.array([2.0, 2.0, 1.0, 0.0, 0.0])
    assert linalg.cluster_blocks(lam) == [(0, 2), (2, 3), (3, 5)]
    assert linalg.multiplicity_set(lam) == (2, 3)
    assert linalg.multiplicity_set([1.0, 1.0, 1.0]) == ()
    assert linalg.is_strictly_decreasing([3.0, 1.0, 0.0])
    assert not linalg.is_strictly_decreasing([3.0, 3.0, 0.0])


def test_rank_of():
    assert linalg.rank_of(np.eye(3)) == 3
    A = np.ones((3, 3))
    assert linalg.rank_of(A) == 1


def test_check_skew():
    A = np.array([[1j, 2.0], [-2.0, 0.5j]])
    assert np.array_equal(linalg.check_skew(A), A)
    with pytest.raises(LinalgError, match="^flow driver N must be skew-Hermitian$"):
        linalg.check_skew(A + np.eye(2), "flow driver N")
    with pytest.raises(LinalgError, match="square"):
        linalg.check_skew(np.zeros((2, 3)))


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_split_chunks_rejects_non_finite_time(t):
    with pytest.raises(LinalgError, match="finite"):
        linalg.split_chunks(t, 1.0)


def test_split_chunks_caps_the_chunk_count():
    cap = linalg.MAX_CHUNKS
    assert linalg.split_chunks(cap * 14.0, 1.0) == cap
    with pytest.raises(LinalgError, match=r"^time 1e\+15 needs"):
        linalg.split_chunks(1e15, 1.0)
    with pytest.raises(LinalgError, match="more than"):
        linalg.split_chunks(-1e300, 1e300)   # |t| * diameter overflows to inf
