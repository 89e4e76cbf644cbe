"""Parity of the hoisted flow kernels with the per-call forms they replace.

Each test keeps the straightforward per-entry or per-point computation as the
reference and requires the same bits (or, for the batched diagnostics, the
same values within a rounding tolerance).
"""

import numpy as np
import pytest

from orbitflow import flagorbit, flows, io, jacobi, linalg, toda
from orbitflow.errors import LinalgError


def random_skew(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (A - A.conj().T) / 2


def random_orbit_point(rng, lam):
    n = len(lam)
    g = linalg.k_factor(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    L = g @ (1j * np.diag(lam)) @ g.conj().T
    return flagorbit.orbit_point((L - L.conj().T) / 2, lam)


def adinv_loop(M, lam):
    """ad^{-1} at i diag(lam), one entry at a time."""
    labels = np.zeros(len(lam), dtype=int)
    for b, (s, e) in enumerate(linalg.cluster_blocks(lam)):
        labels[s:e] = b
    out = np.zeros(M.shape, dtype=complex)
    for i in range(len(lam)):
        for j in range(len(lam)):
            if labels[i] != labels[j]:
                out[i, j] = 1j / (lam[j] - lam[i]) * M[i, j]
    return out


@pytest.mark.parametrize("lam", [[3.0, 1.5, 0.2, -1.0, -2.7], [1.0, 1.0, 0.0, -2.0],
                                 [2.0, 2.0, 2.0], [0.5, -0.5], [4.0]])
def test_adinv_coeffs_match_entry_loop(lam):
    lam = np.array(lam)
    rng = np.random.default_rng(len(lam))
    for _ in range(5):
        M = rng.normal(size=(len(lam),) * 2) + 1j * rng.normal(size=(len(lam),) * 2)
        got = flows._adinv_coeffs(lam) * M
        ref = adinv_loop(M, lam)
        off = flows._offcluster_mask(lam)
        assert np.array_equal(got, ref)
        assert got[off].tobytes() == ref[off].tobytes()


class Captured(Exception):
    pass


def test_toda_rhs_matches_checked_projection(monkeypatch):
    rhs = []

    def capture(f, X, dt):
        rhs.append(f)
        raise Captured

    monkeypatch.setattr(flows, "_rk4", capture)
    P = jacobi.jacobi_from_moser(jacobi.moser_data([2.0, 0.5, -0.3, -1.0], [1.0, 0.7, 0.4, 0.9]))
    with pytest.raises(Captured):
        toda.toda_ode(P, 0.1)
    rng = np.random.default_rng(1)
    for L in [P.L.astype(complex)] + [random_skew(rng, 4) for _ in range(4)]:
        B = linalg.k_project(-1j * L)
        assert rhs[0](L).tobytes() == (L @ B - B @ L).tobytes()


def test_substep_count_is_not_inflated_by_rounding(monkeypatch):
    calls = []
    rk4 = flows._rk4

    def counting(f, X, dt):
        calls.append(dt)
        return rk4(f, X, dt)

    monkeypatch.setattr(flows, "_rk4", counting)
    P = jacobi.jacobi_from_moser(jacobi.moser_data([1.0, 0.0, -1.0], [1.0, 2.0, 0.5]))
    toda.toda_ode(P, 0.2)
    assert len(calls) == 200
    calls.clear()
    toda.toda_ode(P, 1.0, samples=11)
    assert len(calls) == 1000
    calls.clear()
    toda.toda_ode(P, 0.2, step=3e-3, samples=3)   # 0.1 / 3e-3 = 33.3: rounds up
    assert len(calls) == 68


def test_diagnose_all_matches_per_point_diagnostics():
    rng = np.random.default_rng(7)
    lam = np.array([2.0, 0.7, -0.1, -1.5])
    N = random_skew(rng, 4)
    P0 = random_orbit_point(rng, lam)
    pts = flows.kahler_trajectory(P0, N, 2.0, samples=9).points + [random_orbit_point(rng, lam)]
    for P, d in zip(pts, flows._diagnose_all(pts, lam, N)):
        w, _ = linalg.herm_eig(-1j * P.L)
        lyap = flows.lyapunov(P, N)
        assert abs(d["spectrum_drift"] - np.abs(w - lam).max()) <= 1e-13
        assert abs(d["unitarity_drift"] - linalg.skew_defect(P.L)) <= 1e-13
        assert abs(d["lyapunov"] - lyap) <= 1e-13 * max(1.0, abs(lyap))


def test_diagnose_all_rejects_bad_points():
    rng = np.random.default_rng(8)
    lam = np.array([1.0, 0.0, -1.0])
    P = random_orbit_point(rng, lam)
    bad = flagorbit.OrbitPoint(np.full((3, 3), np.nan + 0j), lam, P.K)
    with pytest.raises(LinalgError, match="finite"):
        flows._diagnose_all([P, bad], lam, random_skew(rng, 3))
    with pytest.raises(LinalgError, match="skew-Hermitian"):
        flows._diagnose_all([P], lam, np.eye(3))


@pytest.mark.parametrize("t1", [1.0, -3.0, 40.0])
def test_kahler_trajectory_equals_pointwise_kahler_flow(t1):
    rng = np.random.default_rng(11)
    lam = np.array([1.5, 1.5, 0.0, -2.0])
    P0 = random_orbit_point(rng, lam)
    N = random_skew(rng, 4)
    traj = flows.kahler_trajectory(P0, N, t1, samples=13)
    for t, P in zip(traj.times, traj.points):
        assert P.L.tobytes() == flows.kahler_flow(P0, N, float(t)).L.tobytes()
        assert P.K == P0.K and P.lam.tobytes() == P0.lam.tobytes()
        # the per-call form: both eigendecompositions redone for every sample
        g = flows.kahler_rep_flow(flows._eig_rep(P0), N, float(t))
        L = g @ (1j * np.diag(lam)) @ g.conj().T
        assert P.L.tobytes() == ((L - L.conj().T) / 2).tobytes()


def csv_lines_elementwise(traj):
    yield next(io.trajectory_csv_lines(traj))
    for t, P in zip(traj.times, traj.points):
        row = [repr(float(t))]
        for z in P.L.reshape(-1):
            row.append(repr(float(z.real)))
            row.append(repr(float(z.imag)))
        yield ",".join(row)


def test_trajectory_csv_matches_elementwise_repr():
    rng = np.random.default_rng(3)
    lam = np.array([1.0, 0.25, -1.25])
    P0 = random_orbit_point(rng, lam)
    traj = flows.kahler_trajectory(P0, random_skew(rng, 3), 0.5, samples=5)
    special = np.array([[0.0, -0.0 + 1e-300j, 1e300], [-0.0j, 5e-324, -1.5 - 0.0j],
                        [np.pi, -1e-17j, 123456789.123]])
    traj.points.append(flagorbit.OrbitPoint(special, lam, P0.K))
    traj.points.append(flagorbit.OrbitPoint(np.asfortranarray(traj.points[1].L.T), lam, P0.K))
    traj.times = np.append(traj.times, [0.6, 0.7])
    assert "\n".join(io.trajectory_csv_lines(traj)) == "\n".join(csv_lines_elementwise(traj))


@pytest.mark.parametrize("step", [0.0, -1e-3, np.nan, np.inf])
def test_integrators_reject_bad_step(step):
    rng = np.random.default_rng(12)
    lam = np.array([1.0, 0.0, -1.0])
    P0 = random_orbit_point(rng, lam)
    N = random_skew(rng, 3)
    g0 = flagorbit.orbit_to_flag(P0).rep
    with pytest.raises(LinalgError, match="step"):
        flows.normal_flow(P0, N, 0.5, step=step, samples=3)
    with pytest.raises(LinalgError, match="step"):
        flows.induced_flow(g0, N, lam, 0.5, step=step, samples=3)
    with pytest.raises(LinalgError, match="step"):
        toda.toda_ode(P0, 0.5, step=step, samples=3)


@pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan])
def test_drift_control_rejects_tol_it_cannot_meet(tol):
    rng = np.random.default_rng(14)
    P0 = random_orbit_point(rng, np.array([1.0, 0.0, -1.0]))
    with pytest.raises(LinalgError, match="tol"):
        flows.normal_flow(P0, random_skew(rng, 3), 0.5, tol=tol, samples=3)
    with pytest.raises(LinalgError, match="tol"):
        toda.toda_ode(P0, 0.5, tol=tol, samples=3)


@pytest.mark.parametrize("t0, t1", [(0.0, np.nan), (0.0, np.inf), (-np.inf, 1.0)])
def test_trajectories_reject_non_finite_times(t0, t1):
    rng = np.random.default_rng(13)
    lam = np.array([1.0, 0.0, -1.0])
    P0 = random_orbit_point(rng, lam)
    N = random_skew(rng, 3)
    with pytest.raises(LinalgError, match="finite"):
        flows.kahler_trajectory(P0, N, t1, t0=t0, samples=3)
    with pytest.raises(LinalgError, match="finite"):
        flows.normal_flow(P0, N, t1, t0=t0, samples=3)
