"""Parity of the hoisted flow kernels with the per-call forms they replace.

Each test keeps the straightforward per-entry or per-point computation as the
reference and requires the same bits (or, for the batched diagnostics, the
same values within a rounding tolerance).
"""

import time

import mpmath
import numpy as np
import pytest

from orbitflow import flagorbit, flows, io, jacobi, linalg, toda
from orbitflow.errors import DriftError, LinalgError


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

    def capture(f, X, dt, k1):
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


def k_project_tril(A):
    """The np.tril form of linalg._k_project."""
    K = np.tril(A, -1)
    K = K - K.conj().T
    np.fill_diagonal(K, 1j * np.imag(np.diag(A)))
    return K


def test_k_project_matches_tril_form():
    rng = np.random.default_rng(4)
    for n in range(1, 9):
        for _ in range(20):
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert linalg._k_project(A).tobytes() == k_project_tril(A).tobytes()
            assert linalg._k_project(-1j * A).tobytes() == k_project_tril(-1j * A).tobytes()


def counting_rk4(monkeypatch):
    calls = []
    rk4 = flows._rk4

    def counting(f, X, dt, k1):
        calls.append(dt)
        return rk4(f, X, dt, k1)

    monkeypatch.setattr(flows, "_rk4", counting)
    return calls


def test_substep_count_is_not_inflated_by_rounding(monkeypatch):
    calls = counting_rk4(monkeypatch)
    P = jacobi.jacobi_from_moser(jacobi.moser_data([1.0, 0.0, -1.0], [1.0, 2.0, 0.5]))
    for kwargs, most in [(dict(t1=0.2), 10), (dict(t1=1.0, samples=11), 40),
                         (dict(t1=0.2, step=3e-3, samples=3), 9),
                         (dict(t1=0.2, step=np.nextafter(0.004, 0.0)), 9)]:
        calls.clear()
        toda.toda_ode(P, **kwargs)
        assert len(calls) <= most   # fewer than the 50 sample intervals at the default samples
    for t1 in (0.05, -0.05):   # a first step one ulp below the whole span takes it in one step
        calls.clear()
        traj = toda.toda_ode(P, t1, step=np.nextafter(abs(t1), 0.0))
        assert calls == [t1] and traj.accepted == 1 and traj.rejected == 0


def recording_steps(monkeypatch):
    """Record the fifth-order point of every _rk4 call."""
    steps = []
    rk4 = flows._rk4

    def recording(f, X, dt, k1):
        X1, K = rk4(f, X, dt, k1)
        steps.append(X1.copy())
        return X1, K

    monkeypatch.setattr(flows, "_rk4", recording)
    return steps


def test_final_sample_is_the_projected_endpoint(monkeypatch):
    steps = recording_steps(monkeypatch)
    rng = np.random.default_rng(26)
    lam = np.array([1.5, 0.5, -0.25, -1.0])
    P0 = random_orbit_point(rng, lam)
    g0 = flagorbit.orbit_to_flag(P0).rep
    N = random_skew(rng, 4)
    traj = toda.toda_ode(P0, 0.7, samples=9)
    assert traj.L[-1].tobytes() == linalg.skew_part(steps[-1]).tobytes()
    samples = recording_integrate(monkeypatch)
    steps.clear()
    flows.induced_flow(g0, N, lam, -0.4, samples=9)
    assert samples[0][-1].tobytes() == flows._polar_unitary(steps[-1]).tobytes()


@pytest.mark.parametrize("n", [4, 6])
def test_tight_toda_takes_fewer_steps_than_the_fixed_grid(n, monkeypatch):
    calls = counting_rk4(monkeypatch)
    rng = np.random.default_rng(n)
    A = rng.normal(size=(n, n))
    L0 = flagorbit.orbit_point(1j * (A + A.T) / 2)
    traj = toda.toda_ode(L0, 5.0, samples=11, tol=1e-10)
    assert len(calls) < 5000   # the old fixed grid of step 1e-3
    assert max(np.abs(toda.toda_symes(L0, float(t)).L - L).max()
               for t, L in zip(traj.times, traj.L)) <= 1e-10


def test_trajectory_counts_every_rk4_step(monkeypatch):
    calls = counting_rk4(monkeypatch)
    rng = np.random.default_rng(15)
    lam = np.array([1.5, 0.5, -0.25, -1.0])
    P0 = random_orbit_point(rng, lam)
    N = random_skew(rng, 4)
    g0 = flagorbit.orbit_to_flag(P0).rep
    runs = [lambda: flows.normal_flow(P0, N, 0.5, step=0.05, samples=3),
            lambda: flows.induced_flow(g0, N, lam, 0.5, step=0.05, tol=1e-10, samples=3),
            lambda: flows.induced_flow_twisted(g0, N, lam, 0.5, samples=5),
            lambda: toda.toda_ode(P0, 1.0, step=0.2, samples=3)]
    rejected = []
    for run in runs:
        calls.clear()
        traj = run()
        assert traj.accepted == len(calls) - traj.rejected
        assert traj.accepted > 0 and 0.0 < traj.max_error
        rejected.append(traj.rejected)
    assert any(rejected)   # the count is checked with rejected steps too
    kahler = flows.kahler_trajectory(P0, N, 0.5, samples=3)
    assert (kahler.accepted, kahler.rejected, kahler.max_error) == (0, 0, 0.0)


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_toda_error_against_symes_is_within_tol(n, tol, monkeypatch):
    calls = counting_rk4(monkeypatch)
    rng = np.random.default_rng(n)
    A = rng.normal(size=(n, n))
    L0 = flagorbit.orbit_point(1j * (A + A.T) / 2)
    traj = toda.toda_ode(L0, 5.0, samples=11, tol=tol)
    worst = max(np.abs(toda.toda_symes(L0, float(t)).L - Q.L).max()
                for t, Q in zip(traj.times, traj.points))
    assert worst <= tol
    # each accepted estimate is within its step's share of tol
    assert traj.max_error <= tol * max(abs(dt) for dt in calls) / 5.0


@pytest.mark.parametrize("tol", [1e-300, 1e-16])
def test_unmeetable_tol_raises_at_once(tol):
    rng = np.random.default_rng(16)
    lam = np.array([2.0, 0.5, -0.3, -1.0])
    P = jacobi.jacobi_from_moser(jacobi.moser_data(lam, [1.0, 0.7, 0.4, 0.9]))
    N = random_skew(rng, 4)
    g0 = flagorbit.orbit_to_flag(P).rep
    for run in [lambda: toda.toda_ode(P, 0.1, tol=tol),
                lambda: flows.normal_flow(P, N, 0.1, tol=tol),
                lambda: flows.induced_flow(g0, N, lam, 0.1, tol=tol)]:
        start = time.perf_counter()
        with pytest.raises(DriftError, match="cannot be met"):
            run()
        assert time.perf_counter() - start < 0.1


def boundary_derivative_loop(metric, lam, N, g0, I):
    """flows.boundary_derivative as one single-matrix determinant per column,
    summed left to right."""
    g0 = linalg.as_matrix(g0)
    if metric == "kahler":
        gdot = flows._kahler_rep_derivative(g0, N)
    elif metric == "normal":
        L0 = g0 @ (1j * np.diag(lam)) @ g0.conj().T
        gdot = -(L0 @ N - N @ L0) @ g0
    else:
        gdot = g0 @ (flows._adinv_coeffs(lam) * (g0.conj().T @ N @ g0))
    k = len(I)
    rows = [i - 1 for i in I]
    total = 0.0 + 0.0j
    for j in range(k):
        block = g0[:, :k].copy()
        block[:, j] = gdot[:, j]
        total += linalg._det(block[rows, :])
    return float(total.real)


def test_boundary_derivative_matches_per_column_determinants():
    rng = np.random.default_rng(17)
    checked = 0
    for n in (3, 4, 5):
        configs = [(g0, I) for g0, I, _ in flows.normal_audit_configs_n3()] if n == 3 else []
        for j in range(1, n):   # the identity-start boundary configurations of acceptance 07
            for i in range(j + 1, n + 1):
                configs.append((np.eye(n), tuple(sorted(set(range(1, j)) | {i}))))
                if i >= j + 2:
                    configs.append((np.eye(n), tuple(sorted(set(range(1, j)) | {j + 1, i}))))
        for k in range(1, n):   # dense starts whose minor vanishes through a zero row
            I = tuple(sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False)))
            g0 = rng.normal(size=(n, n))   # real, so that every derivative is real
            g0[I[-1] - 1, :k] = 0.0
            configs.append((g0, I))
        for _ in range(4):
            lam = np.sort(rng.normal(size=n))[::-1] * 2
            A = rng.normal(size=(n, n))
            N = -1j * (A + A.T) / 2
            for g0, I in configs:
                if abs(linalg.left_minor(g0, I)) > 1e-10:
                    continue
                for metric in flows.METRICS:
                    got = flows.boundary_derivative(metric, lam, N, g0, I)
                    assert np.float64(got).tobytes() == np.float64(
                        boundary_derivative_loop(metric, lam, N, g0, I)).tobytes()
                    checked += 1
    assert checked > 300


def test_diagnose_all_matches_per_point_diagnostics():
    rng = np.random.default_rng(7)
    lam = np.array([2.0, 0.7, -0.1, -1.5])
    N = random_skew(rng, 4)
    P0 = random_orbit_point(rng, lam)
    pts = flows.kahler_trajectory(P0, N, 2.0, samples=9).points + [random_orbit_point(rng, lam)]
    for P, d in zip(pts, flows._diagnose_all(np.stack([P.L for P in pts]), lam, N)):
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
        flows._diagnose_all(np.stack([P.L, bad.L]), lam, random_skew(rng, 3))
    with pytest.raises(LinalgError, match="skew-Hermitian"):
        flows._diagnose_all(P.L[None], lam, np.eye(3))


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
        g = flows.kahler_rep_flow(flagorbit.orbit_eig(P0)[1], N, float(t))
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
    extra = [flagorbit.OrbitPoint(special, lam, P0.K),
             flagorbit.OrbitPoint(np.asfortranarray(traj.points[1].L.T), lam, P0.K)]
    traj = flows.Trajectory(np.append(traj.times, [0.6, 0.7]), traj.points + extra)
    assert len(traj.L) == 7
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


@pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan, np.inf])
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


# ---- one (samples, n, n) stack per trajectory --------------------------------
# The per-sample reference: one SVD check, one QR, one exp_eig and one
# orbit_from_rep per sample and chunk, each in its one-matrix form.

def k_factor_one(g):
    sv = np.linalg.svd(g, compute_uv=False)
    if sv[-1] <= linalg.RANK_RTOL * sv[0]:
        raise LinalgError("iwasawa: singular input")
    Q, R = np.linalg.qr(g)
    d = np.diag(R)
    return Q * (d / np.abs(d))[None, :]


def kahler_rep_loop(g, mu, W, t):
    nch = linalg.split_chunks(t, float(mu[0] - mu[-1]))
    dt = t / nch
    for _ in range(nch):
        ex = dt * mu
        g = k_factor_one((W * np.exp(ex - ex.max())[None, :]) @ W.conj().T @ g)
    return g, nch


def orbit_L_one(g, lam):
    L = g @ (1j * np.diag(lam)) @ g.conj().T
    return (L - L.conj().T) / 2


@pytest.mark.parametrize("case", ["plain", "zero_driver", "chunked", "negative_t0"])
def test_stacked_kahler_matches_per_sample_loop(case):
    rng = np.random.default_rng(21)
    for n in (2, 3, 5):
        lam = np.sort(rng.normal(size=n))[::-1] * (6.0 if case == "chunked" else 1.0)
        P0 = random_orbit_point(rng, lam)
        N = 0 * random_skew(rng, n) if case == "zero_driver" else random_skew(rng, n)
        if case == "chunked":   # a spread spectrum of iN, so long times take many chunks
            N = N + 1j * np.diag(np.linspace(4.0, -4.0, n))
        t0, t1 = {"plain": (0.0, 1.0), "zero_driver": (0.0, 3.0), "chunked": (0.0, 40.0),
                  "negative_t0": (-25.0, 25.0)}[case]
        traj = flows.kahler_trajectory(P0, N, t1, t0=t0, samples=13)
        mu, W = linalg.herm_eig(1j * N)
        U = flagorbit.orbit_eig(P0)[1]
        total = 0
        for t, L in zip(traj.times, traj.L):
            g, nch = kahler_rep_loop(U, mu, W, float(t))
            assert L.tobytes() == orbit_L_one(g, lam).tobytes()
            total += nch
        assert traj.chunks == total
        if case in ("chunked", "negative_t0"):
            assert total > 2 * len(traj.times)   # several rounds, not all samples in each


def test_kahler_chunks_count_the_stacked_qrs(monkeypatch):
    stacks = []
    k_factor = linalg.k_factor

    def counting(g):
        stacks.append(len(g))
        return k_factor(g)

    rng = np.random.default_rng(22)
    P0 = random_orbit_point(rng, np.array([3.0, 0.5, -2.0]))
    N = random_skew(rng, 3) + 1j * np.diag([5.0, 0.0, -5.0])
    monkeypatch.setattr(linalg, "k_factor", counting)
    traj = flows.kahler_trajectory(P0, N, 30.0)
    assert len(stacks) > 1 and traj.chunks == sum(stacks)
    assert flows.normal_flow(P0, random_skew(rng, 3), 0.1, samples=3).chunks == 0


def test_stacked_k_factor_rejects_a_singular_sample():
    rng = np.random.default_rng(23)
    good = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    singular = good.copy()
    singular[:, 2] = singular[:, 0]
    with pytest.raises(LinalgError) as ref:
        k_factor_one(singular)
    with pytest.raises(LinalgError) as got:
        linalg.k_factor(np.stack([good, singular, good]))
    assert str(got.value) == str(ref.value) == "iwasawa: singular input"
    mu, W = linalg.herm_eig(1j * random_skew(rng, 3))
    with pytest.raises(LinalgError, match=r"^iwasawa: singular input$"):
        flows._kahler_rep(singular, mu, W, np.array([0.5, 1.0]))
    with pytest.raises(LinalgError, match=r"^iwasawa: singular input$"):
        flows.kahler_rep_flow(singular, random_skew(rng, 3), 0.5)


def recording_integrate(monkeypatch):
    samples = []
    integrate = flows._integrate

    def recording(*args):
        res = integrate(*args)
        samples.append([X.copy() for X in res[0]])
        return res

    monkeypatch.setattr(flows, "_integrate", recording)
    return samples


def test_stacked_point_maps_of_the_induced_flows(monkeypatch):
    samples = recording_integrate(monkeypatch)
    rng = np.random.default_rng(24)
    for n in (2, 4, 5):
        lam = np.sort(rng.normal(size=n))[::-1]
        if n == 4:
            lam[1] = lam[0]   # a cluster: K drops a dimension
        g0 = linalg.k_factor(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        N = random_skew(rng, n)
        d = np.diag([(-1.0) ** i for i in range(n)])
        samples.clear()
        traj = flows.induced_flow(g0, N, lam, 0.2, samples=7)
        twisted = flows.induced_flow_twisted(d @ g0.conj().T @ d, N, lam, 0.2, samples=7)
        plain, lifted = samples
        assert len(plain) == len(traj.L) == len(lifted) == len(twisted.L) == 7
        for g, h, L, M in zip(plain, lifted, traj.L, twisted.L):
            assert L.tobytes() == orbit_L_one(g, lam).tobytes()
            assert M.tobytes() == orbit_L_one(d @ h.conj().T @ d, lam).tobytes()
        assert traj.K == twisted.K == linalg.multiplicity_set(lam)


def test_trajectory_points_have_their_own_lam():
    rng = np.random.default_rng(25)
    lam = np.array([1.0, 0.0, -1.0])
    P0 = random_orbit_point(rng, lam)
    for traj in (flows.kahler_trajectory(P0, random_skew(rng, 3), 1.0, samples=4),
                 toda.toda_ode(P0, 0.1, samples=4)):
        pts = traj.points
        pts[0].lam[0] = 99.0
        assert pts[1].lam.tobytes() == lam.tobytes()
        assert traj.lam.tobytes() == traj.points[0].lam.tobytes() == lam.tobytes()
        assert pts[2].L.tobytes() == traj.L[2].tobytes()


def test_max_drift_without_diagnostics():
    P = jacobi.jacobi_from_moser(jacobi.moser_data([2.0, 0.5, -1.0], [1.0, 0.7, 0.4]))
    times = np.linspace(0.0, 2.0, 5)
    traj = flows.Trajectory(times, [toda.toda_symes(P, float(t)) for t in times])
    assert traj.diagnostics == [] and 0.0 <= traj.max_drift() < 1e-12
    ode = toda.toda_ode(P, 2.0, samples=5)
    assert ode.max_drift() == max(d["spectrum_drift"] for d in ode.diagnostics)


def projection_inputs():
    """Orbit points (simple and two-cluster spectra), drivers and times at
    n = 2..8; the largest times need several chunks."""
    rng = np.random.default_rng(29)
    for n in range(2, 9):
        for lam in (np.sort(rng.normal(size=n))[::-1], np.repeat([1.0, -1.0], [n // 2, n - n // 2])):
            P0 = random_orbit_point(rng, lam)
            N = random_skew(rng, n)
            for t in (-1.3, 0.2, 2.5):
                yield P0, N, t


def test_projection_prefix_frames_match_per_order_qrs():
    """kahler_flow_projection's frames are the column prefixes of the last QR
    of its chunk chain Q <- qr(E Q), E = exp(dt iN), dt = t / split_chunks;
    the QR of each prefix (E Q)[:, :k] of that last step gives the same bits.
    The product E @ Q[:, :k] of the per-order form rounds differently from the
    prefix of E @ Q (BLAS picks its kernel by shape), so that form agrees only
    to the conditioning of exp(dt iN) Q."""
    chunked = 0
    for P0, N, t in projection_inputs():
        mu, W = linalg.herm_eig(1j * N)
        nch = linalg.split_chunks(t, float(mu[0] - mu[-1]))
        E, Q = linalg.exp_eig(mu, W, t / nch), linalg.herm_eig(-1j * P0.L)[1]
        for _ in range(nch - 1):
            Q = np.linalg.qr(E @ Q)[0]
        chunked += nch > 1
        got = flows.kahler_flow_projection(P0, N, t).L
        ref = flows._from_projections(P0.lam, P0.K, [np.linalg.qr((E @ Q)[:, :k])[0] for k in P0.K])
        assert got.tobytes() == ref.L.tobytes()
        per_order = flows._from_projections(P0.lam, P0.K, [np.linalg.qr(E @ Q[:, :k])[0] for k in P0.K])
        assert np.abs(got - per_order.L).max() <= 1e-9
    assert chunked >= 5


def test_projection_matches_mpmath_within_1e_12():
    """The chunked projection formula against the same formula at 50 digits,
    P_k = V_k (V_k* V_k)^-1 V_k* with V = exp(t iN) U: within 1e-12 (about
    1.7e-13 here, as close as the chunked Kahler closed form; in one piece it
    was up to 2.3e-10 off at t = 2.5, n = 8)."""
    mpmath.mp.dps = 50
    for P0, N, t in projection_inputs():
        n = len(P0.lam)
        V = mpmath.expm(mpmath.matrix((1j * t * N).tolist())) * mpmath.matrix(
            linalg.herm_eig(-1j * P0.L)[1].tolist())
        M = mpmath.eye(n) * float(P0.lam[-1])
        for k in P0.K:
            Vk = V[:, :k]
            M += float(P0.lam[k - 1] - P0.lam[k]) * (Vk * mpmath.inverse(Vk.H * Vk) * Vk.H)
        ref = np.array((1j * M).tolist(), dtype=complex)
        assert np.abs(flows.kahler_flow_projection(P0, N, t).L - ref).max() <= 1e-12


def test_orbit_point_eigenbasis_is_reused_bit_for_bit():
    """orbit_point keeps herm_eig(-1j L); every flow that reads L's eigenbasis
    gives the same bits with it as a point without it, which computes it."""
    rng = np.random.default_rng(31)
    lam = np.array([1.5, 0.4, 0.4, -1.0])
    P = random_orbit_point(rng, lam)
    bare = flagorbit.OrbitPoint(P.L, P.lam, P.K)
    w, U = linalg.herm_eig(-1j * P.L)
    assert P.eig[0].tobytes() == w.tobytes() and P.eig[1].tobytes() == U.tobytes()
    assert bare.eig is None and bare == P and "eig" not in repr(P)
    assert flagorbit.orbit_eig(P)[1] is P.eig[1] and flagorbit.orbit_eig(bare)[1].tobytes() == U.tobytes()
    M, N = random_skew(rng, 4), random_skew(rng, 4)
    for f in (flows.ad_inverse, flows.image_component):
        assert f(P, M).tobytes() == f(bare, M).tobytes()
    for f in (flows.kahler_flow, flows.kahler_flow_projection):
        assert f(P, N, 0.7).L.tobytes() == f(bare, N, 0.7).L.tobytes()
    assert (flows.kahler_trajectory(P, N, 1.0, samples=5).L.tobytes()
            == flows.kahler_trajectory(bare, N, 1.0, samples=5).L.tobytes())
