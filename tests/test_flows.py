import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from orbitflow import flagorbit, flows, linalg, positivity
from orbitflow.errors import DomainError, LinalgError


def two_by_two_data():
    a, b, p, q = 1.3, 0.8, -0.4, 0.9
    L0 = flagorbit.orbit_point(1j * np.array([[a, b], [b, -a]]))
    N = -1j * np.array([[p, q], [q, -p]])
    direction = 1j * np.array([[-b, a], [a, b]])
    return a, b, p, q, L0, N, direction


def rand_symmetric(rng, n):
    A = rng.normal(size=(n, n))
    return (A + A.T) / 2


# ----------------------------------------------------------------- killing

def test_killing_examples():
    L = 1j * np.array([[1.0, 0], [0, 0]])
    assert flows.killing(L, np.zeros((2, 2))) == 0.0
    assert_allclose(flows.killing(L, L), -2.0, atol=1e-14)


def test_killing_ad_invariance():
    rng = np.random.default_rng(0)
    for _ in range(5):
        X, Y, Z = (1j * rand_symmetric(rng, 4) + np.triu(rng.normal(size=(4, 4)), 1)
                   - np.triu(rng.normal(size=(4, 4)), 1).T for _ in range(3))
        X, Y, Z = [(M - M.conj().T) / 2 for M in (X, Y, Z)]
        lhs = flows.killing(X @ Y - Y @ X, Z)
        rhs = -flows.killing(Y, X @ Z - Z @ X)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_killing_size_mismatch():
    with pytest.raises(LinalgError):
        flows.killing(1j * np.eye(2), 1j * np.eye(3))


# ------------------------------------------------------------- kahler flow

def test_kahler_closed_form_tanh_sech():
    L0 = flagorbit.orbit_point(1j * np.array([[0.0, 1], [1, 0]]))
    N = -1j * np.diag([1.0, -1.0])
    for t in (-2.0, -1.0, 0.0, 1.0, 2.0):
        got = flows.kahler_flow(L0, N, t).L
        expect = 1j * np.array([[np.tanh(2 * t), 1 / np.cosh(2 * t)],
                                [1 / np.cosh(2 * t), -np.tanh(2 * t)]])
        assert np.abs(got - expect).max() < 1e-9
    t = np.log(2.0) / 2
    got = flows.kahler_flow(L0, N, t).L
    assert np.abs(got - 1j * np.array([[0.6, 0.8], [0.8, -0.6]])).max() < 1e-12


def test_kahler_zero_driver_constant():
    _, _, _, _, L0, _, _ = two_by_two_data()
    got = flows.kahler_flow(L0, np.zeros((2, 2), dtype=complex), 1.7).L
    assert np.abs(got - L0.L).max() < 1e-12


def test_kahler_derivative_closed_form():
    a, b, p, q, L0, N, direction = two_by_two_data()
    lam1 = np.hypot(a, b)
    h = 1e-5
    fd = (flows.kahler_flow(L0, N, h).L - flows.kahler_flow(L0, N, -h).L) / (2 * h)
    assert np.abs(fd - 2 * (a * q - b * p) / lam1 * direction).max() < 1e-6


def test_kahler_projection_formula_cross_check():
    rng = np.random.default_rng(1)
    lam = np.array([2.0, 0.5, 0.5, -1.0])
    g = positivity.sample_tnn_flag(4, rng)
    L0 = flagorbit.flag_to_orbit(flagorbit.flag_from_matrix(g, K=(1, 3)), lam)
    N = -1j * rand_symmetric(rng, 4)
    for t in (-1.0, 0.3, 2.0):
        A = flows.kahler_flow(L0, N, t)
        B = flows.kahler_flow_projection(L0, N, t)
        assert np.abs(A.L - B.L).max() < 1e-9


# ------------------------------------------------------------- normal flow

def test_normal_derivative_closed_form():
    # a = b = 1, p = 0, q = 1 gives dL/dt(0) = 4 i [[-1, 1], [1, 1]]
    L0 = flagorbit.orbit_point(1j * np.array([[1.0, 1], [1, -1]]))
    N = -1j * np.array([[0.0, 1], [1, 0]])
    B = L0.L @ N - N @ L0.L
    got = L0.L @ B - B @ L0.L
    assert np.abs(got - 4 * 1j * np.array([[-1.0, 1], [1, 1]])).max() < 1e-12


def test_normal_flow_equilibrium():
    lam = np.array([2.0, -1.0])
    L0 = flagorbit.orbit_point(1j * np.diag(lam))
    N = -1j * np.diag([0.7, 0.1])
    traj = flows.normal_flow(L0, N, 1.0, samples=5)
    assert max(np.abs(P.L - L0.L).max() for P in traj.points) < 1e-12


def test_normal_flow_derivative_fd():
    a, b, p, q, L0, N, direction = two_by_two_data()
    h = 1e-5
    fwd = flows.normal_flow(L0, N, h, samples=2, step=h / 8).points[1].L
    bwd = flows.normal_flow(L0, N, -h, samples=2, step=h / 8).points[1].L
    assert np.abs((fwd - bwd) / (2 * h) - 4 * (a * q - b * p) * direction).max() < 1e-7


def test_isospectral_drift_control():
    rng = np.random.default_rng(2)
    lam = np.array([1.5, 0.5, -0.5, -1.5])
    g = positivity.sample_tnn_flag(4, rng)
    L0 = flagorbit.flag_to_orbit(flagorbit.flag_from_matrix(g), lam)
    N = -1j * rand_symmetric(rng, 4)
    traj = flows.normal_flow(L0, N, 2.0, samples=9, tol=1e-8)
    assert traj.max_drift() < 1e-8


# --------------------------------------------------------------- ad_inverse

def test_ad_inverse_2x2_example():
    p, q = 0.4, 1.1
    L0 = flagorbit.orbit_point(1j * np.diag([1.0, -1.0]))
    N = -1j * np.array([[p, q], [q, -p]])
    got = flows.ad_inverse(L0, N)
    assert np.abs(got - q / 2 * np.array([[0, -1], [1, 0]])).max() < 1e-12


def test_ad_inverse_commuting_is_zero():
    L0 = flagorbit.orbit_point(1j * np.diag([1.0, 1.0, -1.0]))
    M = -1j * np.diag([0.3, 0.7, 0.2])
    assert np.abs(flows.ad_inverse(L0, M)).max() < 1e-14


def test_ad_inverse_bracket_property():
    rng = np.random.default_rng(3)
    lam = np.array([2.0, 2.0, 0.0, -1.0])
    g = linalg.k_factor(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    L0 = flagorbit.flag_to_orbit(flagorbit.flag_from_matrix(g, K=(2, 3)), lam)
    M = -1j * rand_symmetric(rng, 4)
    X = flows.ad_inverse(L0, M)
    lhs = L0.L @ X - X @ L0.L
    rhs = flows.image_component(L0, M)
    assert np.abs(lhs - rhs).max() < 1e-9


# ------------------------------------------------------------- induced flow

def test_induced_derivative_closed_form():
    a, b, p, q, L0, N, direction = two_by_two_data()
    g0 = flagorbit.orbit_to_flag(L0).rep
    h = 1e-5
    fwd = flows.induced_flow(g0, N, L0.lam, h, samples=2, step=h / 8).points[1].L
    bwd = flows.induced_flow(g0, N, L0.lam, -h, samples=2, step=h / 8).points[1].L
    expect = (a * q - b * p) / (a * a + b * b) * direction
    assert np.abs((fwd - bwd) / (2 * h) - expect).max() < 1e-7


def test_induced_zero_driver_constant():
    _, _, _, _, L0, _, _ = two_by_two_data()
    g0 = flagorbit.orbit_to_flag(L0).rep
    traj = flows.induced_flow(g0, np.zeros((2, 2), dtype=complex), L0.lam, 1.0, samples=4)
    assert max(np.abs(P.L - L0.L).max() for P in traj.points) < 1e-12


def test_grassmannian_metric_dilation():
    rng = np.random.default_rng(4)
    lam = np.array([3.0, 3.0, 1.0, 1.0])   # K = {2}, lam_1 - lam_n = 2
    g = positivity.sample_tnn_flag(4, rng)
    L0 = flagorbit.flag_to_orbit(flagorbit.flag_from_matrix(g, K=(2,)), lam)
    N = -1j * rand_symmetric(rng, 4)
    ts = np.linspace(0.0, 2.0, 9)
    trn = flows.normal_flow(L0, N, 2.0, samples=9, tol=1e-9)
    for t, P in zip(ts, trn.points):
        assert np.abs(flows.kahler_flow(L0, N, 2 * t).L - P.L).max() < 1e-6
    tri = flows.induced_flow(flagorbit.orbit_to_flag(L0).rep, N, lam, 2.0, samples=9, tol=1e-9)
    for t, P in zip(ts, tri.points):
        assert np.abs(flows.kahler_flow(L0, N, t / 2).L - P.L).max() < 1e-6


def test_induced_twisted_variant_matches():
    rng = np.random.default_rng(5)
    lam = np.array([1.0, 0.0, -1.0])
    g0 = positivity.sample_tnn_flag(3, rng)
    iN = np.zeros((3, 3))
    iN[0, 1] = iN[1, 0] = 0.8
    iN[1, 2] = iN[2, 1] = 1.1
    N = -1j * iN
    tr = flows.induced_flow(g0, N, lam, 1.0, samples=5)
    h0 = flagorbit.twist_unitary(g0)
    trt = flows.induced_flow_twisted(h0, N, lam, 1.0, samples=5)
    for P, Q in zip(tr.points, trt.points):
        assert np.abs(P.L - Q.L).max() < 1e-7


# ---------------------------------------------------------------- classifier

def test_classify_kahler_examples():
    iN = np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert flows.classify_kahler(-1j * iN, [1.0, 0.0, -1.0]) == "strict"
    iN4 = np.zeros((4, 4))
    for i in range(3):
        iN4[i, i + 1] = iN4[i + 1, i] = 1.0
    iN4[3, 0] = iN4[0, 3] = -1.0
    assert flows.classify_kahler(-1j * iN4, [1.0, 1.0, 0.0, 0.0]) == "strict"
    assert flows.classify_kahler(1.4j * np.eye(3), [1.0, 0.0, -1.0]) == "weak"


def test_classify_kahler_none_cases():
    iN = np.zeros((3, 3))
    iN[0, 2] = iN[2, 0] = 1.0
    assert flows.classify_kahler(-1j * iN, [1.0, 0.0, -1.0]) == "none"
    # non-symmetric iN
    N = np.array([[0, 1.0, 0], [-1, 0, 0], [0, 0, 0]])
    assert flows.classify_kahler(N, [1.0, 0.0, -1.0]) == "none"
    # negative corner sign for k = 1 on the Grassmannian
    iN = np.array([[0.0, 1, -0.5], [1, 0, 1], [-0.5, 1, 0]])
    assert flows.classify_kahler(-1j * iN, [1.0, 0.0, 0.0]) == "none"


def test_classify_kahler_grassmannian_k1_dense():
    rng = np.random.default_rng(6)
    iN = np.abs(rng.normal(size=(4, 4)))
    iN = (iN + iN.T) / 2
    assert flows.classify_kahler(-1j * iN, [1.0, 0.0, 0.0, 0.0]) == "strict"


def test_classify_kahler_weak_vs_strict_tridiagonal():
    iN = np.zeros((4, 4))
    iN[0, 1] = iN[1, 0] = 1.0
    iN[2, 3] = iN[3, 2] = 1.0   # disconnected support
    lam = [2.0, 1.0, 0.0, -1.0]
    assert flows.classify_kahler(-1j * iN, lam) == "weak"
    iN[1, 2] = iN[2, 1] = 0.5
    assert flows.classify_kahler(-1j * iN, lam) == "strict"


def graph_connected_loop(adj):
    n = adj.shape[0]
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if adj[i, j] and j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == n


def classify_kahler_loops(N, lam, tol=1e-9):
    """classify_kahler as it was written with Python loops over the entries:
    the reference its mask form is pinned against."""
    A = linalg.square(N)
    n = A.shape[0]
    scale = max(1.0, float(np.abs(A).max()))
    M = 1j * A
    if np.abs(M.imag).max() > tol * scale or np.abs(M - M.T.conj()).max() > tol * scale:
        return "none"
    M = M.real
    K = linalg.multiplicity_set(np.asarray(lam, dtype=float))
    if len(K) == 0:
        return "weak"
    offdiag = M - np.diag(np.diag(M))

    def connected():
        return graph_connected_loop(np.abs(offdiag) > tol * scale)

    if len(K) >= 2:
        for i in range(n):
            for j in range(n):
                if abs(i - j) >= 2 and abs(M[i, j]) > tol * scale:
                    return "none"
        sup = np.array([M[i, i + 1] for i in range(n - 1)])
        if np.any(sup < -tol * scale):
            return "none"
        if np.all(sup > tol * scale):
            return "strict"
        return "weak"
    k = K[0]
    if k == 1 or k == n - 1:
        sgn = np.ones((n, n)) if k == 1 else np.fromfunction(
            lambda i, j: (-1.0) ** (i + j + 1), (n, n))
        if np.any(sgn * offdiag < -tol * scale):
            return "none"
        return "strict" if connected() else "weak"
    for i in range(n):
        for j in range(n):
            if i != j and (i - j) % n not in (1, n - 1) and abs(M[i, j]) > tol * scale:
                return "none"
    band = [M[i, i + 1] for i in range(n - 1)]
    corner = (-1.0) ** (k - 1) * M[n - 1, 0]
    if any(b < -tol * scale for b in band) or corner < -tol * scale:
        return "none"
    return "strict" if connected() else "weak"


@pytest.mark.parametrize("n", [3, 4])
def test_classify_kahler_matches_the_loops_on_every_sign_pattern(n):
    """Every sign and zero pattern of the symmetric off-diagonal entries of iN
    (so every tridiagonal and cyclic-band driver among them), with each zero
    also as an entry just inside tol, and non-Hermitian and non-real drivers,
    for a spectrum of each dimension set K (the empty one a point orbit)."""
    rng = np.random.default_rng(31 + n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    spectra = [[-float(sum(k <= i for k in K)) for i in range(n)]
               for r in range(n) for K in itertools.combinations(range(1, n), r)]
    seen = set()
    for signs in itertools.product((-1.0, 0.0, 1.0), repeat=len(pairs)):
        for near_zero in (0.0, 0.4e-9):
            M = np.diag(rng.normal(size=n))
            for (i, j), s in zip(pairs, signs):
                M[i, j] = M[j, i] = s * rng.uniform(0.5, 2.0) if s else near_zero * rng.choice((-1.0, 1.0))
            for N in (-1j * M, -1j * (M + 1e-6 * np.eye(n, k=1)), -1j * M + 1e-6 * np.eye(n)):
                for lam in spectra:
                    verdict = flows.classify_kahler(N, lam)
                    assert verdict == classify_kahler_loops(N, lam), (M, lam)
                    seen.add((len(linalg.multiplicity_set(lam)), verdict))
    assert {(1, v) for v in ("strict", "weak", "none")} <= seen
    assert {(2, v) for v in ("strict", "weak", "none")} <= seen


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_boundary_checks_refuse_bad_tol(tol):
    N = 1j * np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0]])   # iN = -[[0,1,0],[1,0,1],[0,1,0]]
    lam = [1.0, 0.0, -1.0]
    g0, I, coeff = flows.normal_audit_configs_n3()[0]
    for check in (lambda: flows.classify_kahler(N, lam, tol),
                  lambda: flows.boundary_derivative("normal", lam, N, g0, I, tol),
                  lambda: flows.induced_audit_n3(lam, N, tol)):
        with pytest.raises(LinalgError, match="tol must be finite and > 0"):
            check()
    assert flows.classify_kahler(N, lam) == "none"   # the default tol keeps its results
    assert_allclose(flows.boundary_derivative("normal", lam, N, g0, I), coeff(lam, -N.imag), atol=1e-12)
    assert not flows.induced_audit_n3(lam, N)["admissible"]


# -------------------------------------------------------- boundary derivative

def test_boundary_derivative_tests_against_tol():
    """Delta_(3)(g0) = 5e-9 is on the boundary at tol 1e-3, not at 1e-12; a
    derivative with imaginary part 1e-6 is non-real at 1e-9, not at 1e-3."""
    lam = np.array([2.0, 0.5, -1.0])
    iN = np.array([[0.3, 0.7, 0.0], [0.7, -0.1, 0.4], [0.0, 0.4, 0.2]])
    g0, I, _ = flows.normal_audit_configs_n3()[0]
    g0 = g0.copy()
    g0[2, 0] = 5e-9
    with pytest.raises(DomainError, match="not on the boundary"):
        flows.boundary_derivative("normal", lam, -1j * iN, g0, I, tol=1e-12)
    assert_allclose(flows.boundary_derivative("normal", lam, -1j * iN, g0, I, tol=1e-3),
                    -(lam[1] - lam[2]) / 2 * iN[1, 0], atol=1e-8)
    H = iN.astype(complex)
    H[1, 0], H[0, 1] = 0.7 + 1e-6j, 0.7 - 1e-6j
    with pytest.raises(LinalgError, match="non-real derivative"):
        flows.boundary_derivative("kahler", lam, -1j * H, np.eye(3), (2,))
    assert flows.boundary_derivative("kahler", lam, -1j * H, np.eye(3), (2,), tol=1e-3) == 0.7



def test_boundary_derivative_normal_config():
    lam = np.array([2.0, 0.5, -1.0])
    iN = np.array([[0.3, 0.7, 0.0], [0.7, -0.1, 0.4], [0.0, 0.4, 0.2]])
    N = -1j * iN
    g0, I, _ = flows.normal_audit_configs_n3()[0]
    val = flows.boundary_derivative("normal", lam, N, g0, I)
    assert_allclose(val, -(lam[1] - lam[2]) / 2 * iN[1, 0], atol=1e-12)


def test_boundary_derivative_normal_diagonal_configs():
    lam = np.array([2.0, 0.5, -1.0])
    iN = np.diag([0.9, -0.3, 0.4])
    N = -1j * iN
    for g0, I, coeff in flows.normal_audit_configs_n3():
        val = flows.boundary_derivative("normal", lam, N, g0, I)
        assert_allclose(val, coeff(lam, iN), atol=1e-12)


def test_boundary_derivative_induced_identity_start():
    lam = np.array([1.5, 0.2, -1.1])
    iN = np.array([[0.3, 0.7, 0.0], [0.7, -0.1, 0.4], [0.0, 0.4, 0.2]])
    N = -1j * iN
    for (i, j) in [(2, 1), (3, 1), (3, 2)]:
        I = tuple(sorted(set(range(1, j)) | {i}))
        val = flows.boundary_derivative("induced", lam, N, np.eye(3), I)
        assert_allclose(val, iN[i - 1, j - 1] / (lam[j - 1] - lam[i - 1]), atol=1e-12)


def test_boundary_derivative_rejects_interior():
    lam = np.array([1.0, 0.0, -1.0])
    N = -1j * np.eye(3)
    with pytest.raises(DomainError):
        flows.boundary_derivative("kahler", lam, N, np.eye(3), (1, 2))


# ----------------------------------------------------------- induced audit

def test_induced_audit_examples():
    iN = -1j * np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0]])
    rep = flows.induced_audit_n3([1.0, 0.0, -1.0], iN)
    assert rep["admissible"] and rep["interval_ok"]
    rep = flows.induced_audit_n3([6.0, 0.0, -1.0], iN)
    assert not rep["admissible"] and not rep["interval_ok"]
    rep = flows.induced_audit_n3([6.0, 0.0, -1.0], np.zeros((3, 3)))
    assert rep["admissible"]
    with pytest.raises(LinalgError):
        flows.induced_audit_n3([1.0, 0.0, -1.0, -2.0], -1j * np.eye(4))


def test_induced_audit_threshold():
    iN = -1j * np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0]])
    thr = 2 + 2 * np.sqrt(2)
    assert flows.induced_audit_n3([thr - 0.2, 0.0, -1.0], iN)["admissible"]
    assert not flows.induced_audit_n3([thr + 0.2, 0.0, -1.0], iN)["admissible"]


# ----------------------------------------------- Lyapunov / limit / stability

def test_limit_point_2x2_closed_form():
    p, q = 0.6, 0.8
    N = -1j * np.array([[p, q], [q, -p]])
    lam = np.array([2.0, -1.0])
    mu1 = np.hypot(p, q)
    got = flows.limit_point(N, lam).L
    expect = ((lam[0] - lam[1]) / (2 * mu1) * 1j * np.array([[p, q], [q, -p]])
              + (lam[0] + lam[1]) / 2 * 1j * np.eye(2))
    assert np.abs(got - expect).max() < 1e-12


def test_limit_point_diagonal_driver():
    lam = np.array([1.0, 0.0, -1.0])
    N = -1j * np.diag([3.0, 2.0, 1.0])
    assert np.abs(flows.limit_point(N, lam).L - 1j * np.diag(lam)).max() < 1e-12


def test_limit_point_gap_condition():
    with pytest.raises(DomainError):
        flows.limit_point(-1j * np.diag([1.0, 1.0, 0.0]), np.array([1.0, 0.0, -1.0]))


def test_long_time_kahler_reaches_limit():
    rng = np.random.default_rng(7)
    lam = np.array([1.0, 0.0, -1.0])
    iN = np.zeros((3, 3))
    iN[0, 1] = iN[1, 0] = 1.0
    iN[1, 2] = iN[2, 1] = 0.7
    N = -1j * iN
    mu, _ = linalg.herm_eig(iN)
    gap = float(np.min(-np.diff(mu)))
    Linf = flows.limit_point(N, lam)
    for _ in range(3):
        g = positivity.sample_tnn_flag(3, rng)
        L0 = flagorbit.flag_to_orbit(flagorbit.flag_from_matrix(g), lam)
        LT = flows.kahler_flow(L0, N, 30.0 / gap)
        assert np.abs(LT.L - Linf.L).max() < 1e-6


def test_lyapunov_examples():
    rng = np.random.default_rng(8)
    lam = np.array([1.0, 0.0, -1.0])
    iN = np.zeros((3, 3))
    iN[0, 1] = iN[1, 0] = 1.2
    iN[1, 2] = iN[2, 1] = 0.9
    N = -1j * iN
    Linf = flows.limit_point(N, lam)
    vmin = flows.lyapunov(Linf, N)
    for _ in range(5):
        g = positivity.sample_tnn_flag(3, rng)
        L0 = flagorbit.flag_to_orbit(flagorbit.flag_from_matrix(g), lam)
        assert flows.lyapunov(L0, N) > vmin - 1e-12
    # constant along the flow when N commutes with L0
    L0 = flagorbit.orbit_point(1j * np.diag(lam))
    Nc = -1j * np.diag([2.0, 1.0, 0.5])
    traj = flows.kahler_trajectory(L0, Nc, 2.0, samples=5)
    vals = [d["lyapunov"] for d in traj.diagnostics]
    assert max(vals) - min(vals) < 1e-10


def test_lyapunov_strictly_decreasing_along_flow():
    rng = np.random.default_rng(9)
    lam = np.array([1.0, 0.0, -1.0])
    iN = np.zeros((3, 3))
    iN[0, 1] = iN[1, 0] = 1.0
    iN[1, 2] = iN[2, 1] = 1.3
    N = -1j * iN
    g = positivity.sample_tnn_flag(3, rng)
    L0 = flagorbit.flag_to_orbit(flagorbit.flag_from_matrix(g), lam)
    traj = flows.kahler_trajectory(L0, N, 3.0, samples=50)
    vals = [d["lyapunov"] for d in traj.diagnostics]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_stable_manifold_examples():
    p, q = 0.6, 0.8
    N = -1j * np.array([[p, q], [q, -p]])
    lam = np.array([2.0, -1.0])
    mu1 = np.hypot(p, q)
    Linf = flows.limit_point(N, lam)
    anti = flagorbit.orbit_point(
        -(lam[0] - lam[1]) / (2 * mu1) * 1j * np.array([[p, q], [q, -p]])
        + (lam[0] + lam[1]) / 2 * 1j * np.eye(2))
    assert flows.in_stable_manifold(Linf, N)
    assert not flows.in_stable_manifold(anti, N)


def test_stable_manifold_contains_tnn():
    rng = np.random.default_rng(10)
    lam = np.array([1.5, 0.5, -2.0])
    iN = np.zeros((3, 3))
    iN[0, 1] = iN[1, 0] = 0.9
    iN[1, 2] = iN[2, 1] = 1.4
    N = -1j * iN
    assert flows.classify_kahler(N, lam) == "strict"
    for trial in range(6):
        g = positivity.sample_tnn_flag(3, rng, boundary=(trial % 2 == 0))
        L0 = flagorbit.flag_to_orbit(flagorbit.flag_from_matrix(g), lam)
        assert flows.in_stable_manifold(L0, N)


# ----------------------------------------------------- preservation theorems

def test_strict_preservation_from_boundary_starts():
    rng = np.random.default_rng(11)
    for trial in range(25):
        n = 3 + trial % 2
        iN = np.diag(rng.normal(size=n))
        for i in range(n - 1):
            iN[i, i + 1] = iN[i + 1, i] = rng.uniform(0.3, 2.0)
        N = -1j * iN
        lam = np.sort(rng.normal(size=n) * 2)[::-1]
        while np.min(-np.diff(lam)) < 0.2:
            lam = np.sort(rng.normal(size=n) * 2)[::-1]
        assert flows.classify_kahler(N, lam) == "strict"
        g0 = positivity.sample_tnn_flag(n, rng, boundary=True)
        L0 = flagorbit.flag_to_orbit(flagorbit.flag_from_matrix(g0), lam)
        for t in (0.1, 1.0):
            Lt = flows.kahler_flow(L0, N, t)
            assert flagorbit.certify_flag_tnn(flagorbit.orbit_to_flag(Lt)).status == "positive"


def test_normal_metric_no_go():
    rng = np.random.default_rng(12)
    for trial in range(12):
        lam = np.sort(rng.normal(size=3) * 2)[::-1]
        while np.min(-np.diff(lam)) < 0.2:
            lam = np.sort(rng.normal(size=3) * 2)[::-1]
        iN = np.diag(rng.normal(size=3))
        mode = trial % 3
        if mode == 0:
            iN[0, 1] = iN[1, 0] = rng.uniform(0.2, 2)
            iN[1, 2] = iN[2, 1] = rng.uniform(0.2, 2)
        elif mode == 1:
            iN[1, 2] = iN[2, 1] = rng.uniform(0.2, 2)
        # non-scalar by construction (random distinct diagonal)
        N = -1j * iN
        vals = [flows.boundary_derivative("normal", lam, N, g0, I)
                for g0, I, _ in flows.normal_audit_configs_n3()]
        assert min(vals) < -1e-9


def test_gradient_ascent_sign_all_metrics():
    rng = np.random.default_rng(13)
    h = 1e-5
    for _ in range(4):
        lam = np.sort(rng.normal(size=3) * 2)[::-1]
        while np.min(-np.diff(lam)) < 0.2:
            lam = np.sort(rng.normal(size=3) * 2)[::-1]
        N = -1j * rand_symmetric(rng, 3)
        g0 = positivity.sample_tnn_flag(3, rng)
        L0 = flagorbit.flag_to_orbit(flagorbit.flag_from_matrix(g0), lam)
        k0 = flows.killing(L0, N)
        dk = (flows.killing(flows.kahler_flow(L0, N, h), N) - k0) / h
        dn = (flows.killing(flows.normal_flow(L0, N, h, samples=2, step=h / 4).points[1], N) - k0) / h
        di = (flows.killing(flows.induced_flow(flagorbit.orbit_to_flag(L0).rep, N, lam,
                                               h, samples=2, step=h / 4).points[1], N) - k0) / h
        assert dk > -1e-6 and dn > -1e-6 and di > -1e-6


def test_classifier_consistent_with_boundary_audits():
    rng = np.random.default_rng(14)
    checked = 0
    for trial in range(60):
        n = 3 + trial % 2
        lam = np.sort(rng.normal(size=n) * 2)[::-1]
        if trial % 3 == 0:
            lam[1] = lam[0]   # Grassmannian-type orbit
        mode = trial % 4
        iN = np.diag(rng.normal(size=n))
        if mode == 0:
            for i in range(n - 1):
                iN[i, i + 1] = iN[i + 1, i] = rng.uniform(0, 1.5)
        elif mode == 1:
            iN = rand_symmetric(rng, n)
        elif mode == 2:
            iN = np.abs(rand_symmetric(rng, n))
        N = -1j * iN
        verdict = flows.classify_kahler(N, lam)
        if verdict == "none":
            continue
        checked += 1
        K = linalg.multiplicity_set(lam)
        for g0, I, _ in flows.normal_audit_configs_n3() if n == 3 else []:
            if len(I) not in K:
                continue
            val = flows.boundary_derivative("kahler", lam, N, g0, I)
            assert val > -1e-9
        for j in range(1, n):
            for i in range(j + 1, n + 1):
                I = tuple(sorted(set(range(1, j)) | {i}))
                if len(I) not in K:
                    continue
                val = flows.boundary_derivative("kahler", lam, N, np.eye(n), I)
                assert val > -1e-9
    assert checked >= 15
