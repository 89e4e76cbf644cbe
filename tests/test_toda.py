import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from orbitflow import flagorbit, flows, jacobi, linalg, positivity, toda
from orbitflow.errors import DomainError, LinalgError


def jacobi_start(seed=0, n=3):
    rng = np.random.default_rng(seed)
    lam = {3: [1.2, 0.1, -1.4], 4: [1.5, 0.5, -0.5, -1.5]}[n]
    d = jacobi.moser_data(lam, rng.uniform(0.3, 2.0, size=n))
    return jacobi.jacobi_from_moser(d)


def test_symes_2x2_closed_form():
    L0 = flagorbit.orbit_point(1j * np.array([[0.0, 1], [1, 0]]))
    for t in (-1.5, 0.3, 2.0):
        got = toda.toda_symes(L0, t).L
        expect = 1j * np.array([[np.tanh(2 * t), 1 / np.cosh(2 * t)],
                                [1 / np.cosh(2 * t), -np.tanh(2 * t)]])
        assert np.abs(got - expect).max() < 1e-12


def test_symes_diagonal_equilibrium():
    L0 = flagorbit.orbit_point(1j * np.diag([2.0, 0.0, -1.0]))
    assert np.abs(toda.toda_symes(L0, 1.7).L - L0.L).max() < 1e-12


def test_symes_isospectral_random():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    L0 = flagorbit.orbit_point((A - A.conj().T) / 2)
    for t in (-3.0, -1.0, 0.5, 3.0):
        w, _ = linalg.herm_eig(-1j * toda.toda_symes(L0, t).L)
        assert np.abs(w - L0.lam).max() < 1e-9


def test_ode_matches_flaschka_equations():
    P = jacobi_start(seed=2)
    h = 1e-5
    fwd = toda.toda_ode(P, h, samples=2, step=h / 8).points[1].L
    bwd = toda.toda_ode(P, -h, samples=2, step=h / 8).points[1].L
    dJ = np.real(-1j * (fwd - bwd)) / (2 * h)
    J = np.real(-1j * P.L)
    a = np.diag(J, 1)
    b = np.diag(J)
    da = np.array([a[i] * (b[i + 1] - b[i]) for i in range(2)])
    db = np.array([2 * (a[0] ** 2), 2 * (a[1] ** 2 - a[0] ** 2), 2 * (-a[1] ** 2)])
    assert np.abs(np.diag(dJ, 1) - da).max() < 1e-6
    assert np.abs(np.diag(dJ) - db).max() < 1e-6


def test_ode_diagonal_constant():
    L0 = flagorbit.orbit_point(1j * np.diag([1.0, 0.0, -1.0]))
    traj = toda.toda_ode(L0, 1.0, samples=5)
    assert max(np.abs(P.L - L0.L).max() for P in traj.points) < 1e-12


def test_ode_cross_validates_symes():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 4))
    L0 = flagorbit.orbit_point(1j * (A + A.T) / 2)
    traj = toda.toda_ode(L0, 5.0, samples=11, step=1e-3)
    worst = max(np.abs(toda.toda_symes(L0, float(t)).L - Q.L).max()
                for t, Q in zip(traj.times, traj.points))
    assert worst < 1e-6
    assert traj.max_drift() < 1e-8


def test_twist_residual_n2_and_t0():
    L0 = flagorbit.orbit_point(1j * np.array([[0.0, 1], [1, 0]]))
    assert toda.toda_twist_residual(L0, 0.0) < 1e-12
    assert toda.toda_twist_residual(L0, 0.8) < 1e-8


def test_twist_residual_jacobi_starts():
    P = jacobi_start(seed=4)
    for t in (0.5, 2.0):
        assert toda.toda_twist_residual(P, t) < 1e-7


def test_twist_residual_rejects_degenerate():
    with pytest.raises(DomainError):
        toda.toda_twist_residual(
            flagorbit.orbit_point(1j * np.diag([1.0, 1.0, 0.0])), 1.0)


def test_limits_2x2():
    L0 = flagorbit.orbit_point(1j * np.array([[0.0, 1], [1, 0]]))
    Lp, Lm = toda.toda_limits(L0)
    assert np.abs(Lp.L - 1j * np.diag([1.0, -1.0])).max() < 1e-4
    assert np.abs(Lm.L - 1j * np.diag([-1.0, 1.0])).max() < 1e-4


def test_limits_diagonal_fixed():
    L0 = flagorbit.orbit_point(1j * np.diag([2.0, 1.0, -1.0]))
    Lp, Lm = toda.toda_limits(L0)
    assert np.abs(Lp.L - L0.L).max() < 1e-10
    assert np.abs(Lm.L - L0.L).max() < 1e-10


def test_limits_sorting_n4():
    P = jacobi_start(seed=5, n=4)
    Lp, Lm = toda.toda_limits(P)
    assert np.abs(Lp.L - 1j * np.diag(P.lam)).max() < 1e-4
    assert np.abs(Lm.L - 1j * np.diag(P.lam[::-1])).max() < 1e-4


def test_tridiagonal_bracket_identity():
    rng = np.random.default_rng(6)
    for n in (3, 5):
        a = rng.uniform(0.2, 2.0, size=n - 1)
        b = rng.normal(size=n)
        L = 1j * (np.diag(b) + np.diag(a, 1) + np.diag(a, -1))
        N = toda.toda_bracket_partner(n)
        lhs = linalg.k_project(-1j * L)
        rhs = L @ N - N @ L
        assert np.abs(lhs - rhs).max() < 1e-10


def test_tridiagonal_toda_is_normal_gradient_flow():
    P = jacobi_start(seed=7)
    N = toda.toda_bracket_partner(3)
    tr_toda = toda.toda_ode(P, 2.0, samples=9, step=1e-3)
    tr_norm = flows.normal_flow(P, N, 2.0, samples=9, step=1e-3)
    worst = max(np.abs(a.L - b.L).max() for a, b in zip(tr_toda.points, tr_norm.points))
    assert worst < 1e-6


def test_cell_invariance_along_twisted_flow():
    P = jacobi_start(seed=8)
    labels = set()
    for t in np.linspace(-3.0, 3.0, 7):
        Lt = toda.toda_symes(P, float(t))
        c = flagorbit.locate_cell(flagorbit.orbit_to_flag(flagorbit.twist_orbit(Lt)))
        labels.add((c.v, c.w))
    assert len(labels) == 1


def test_jacobi_cone_preserved_both_directions():
    P = jacobi_start(seed=9, n=4)
    for t in np.linspace(-3.0, 3.0, 13):
        Lt = toda.toda_symes(P, float(t))
        assert positivity.is_jacobi_cone(-1j * Lt.L).is_nonnegative


def mp_symes(L0, t):
    """50-digit Symes point: exp(-t iL0) from mpmath's Hermitian eigensolver,
    its QR with the phases of diag(R) moved into Q, and Q* L0 Q."""
    mpmath.mp.dps = 50
    L = mpmath.matrix(L0.tolist())
    w, V = mpmath.eighe(L * 1j)
    Q, R = mpmath.qr(V * mpmath.diag([mpmath.exp(-t * x) for x in w]) * V.H)
    for j in range(L0.shape[0]):
        ph = R[j, j] / abs(R[j, j])
        for i in range(L0.shape[0]):
            Q[i, j] *= ph
    return np.array((Q.H * L * Q).tolist(), dtype=complex)


def svd_checked_symes(P, t):
    """toda_symes as it was: each chunk diagonalises iL and takes k_factor,
    whose SVD checks that exp(-dt iL) is not singular."""
    nch = linalg.split_chunks(t, float(P.lam[0] - P.lam[-1]))
    L = P.L.astype(complex)
    for _ in range(nch):
        w, W = linalg.herm_eig(1j * L)
        Q = linalg.k_factor(linalg.exp_eig(w, W, -t / nch))
        L = linalg.skew_part(Q.conj().T @ L @ Q)
    return L


def test_symes_as_close_to_mpmath_as_the_svd_checked_form():
    """Single cases differ either way by rounding, so the comparison is the
    geometric mean of the errors over one- and multi-chunk times, n = 3-6."""
    rng = np.random.default_rng(8)
    new, old = [], []
    for n in (3, 4, 5, 6):
        for _ in range(2):
            lam = np.sort(rng.uniform(-2, 2, size=n))[::-1]
            P = flagorbit.orbit_point(
                jacobi.jacobi_from_moser(jacobi.moser_data(lam, rng.uniform(0.3, 2.0, size=n))).L)
            diam = lam[0] - lam[-1]
            for t in (0.7, -1.9, 20.0 / diam, -45.0 / diam):
                ref = mp_symes(P.L, t)
                new.append(np.abs(toda.toda_symes(P, t).L - ref).max())
                old.append(np.abs(svd_checked_symes(P, t) - ref).max())
    assert max(new) < 1e-12
    assert np.exp(np.mean(np.log(new) - np.log(old))) <= 1.25


def test_symes_refuses_a_singular_chunk_as_the_svd_did(monkeypatch):
    P = jacobi_start(seed=3)
    t = 30.0 / float(P.lam[0] - P.lam[-1])   # one chunk with dt * diam = 30: ratio exp(-30) < RANK_RTOL
    monkeypatch.setattr(linalg, "MAX_EXP", 30.0)
    with pytest.raises(LinalgError, match="singular"):
        svd_checked_symes(P, t)
    with pytest.raises(LinalgError, match="singular"):
        toda.toda_symes(P, t)
    toda.toda_symes(P, 0.5 * t)   # exp(-15) is above it
