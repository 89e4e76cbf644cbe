"""Property tests: flow invariants on hypothesis-drawn inputs, checked against
closed forms that share no code with the path under test (the projection
formula, Symes), the spectrum, or the relation between two flows."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitflow import flagorbit, flows, linalg, perms, toda


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1),
       t0=st.floats(-6.0, 6.0), t1=st.floats(-6.0, 6.0), samples=st.integers(1, 9))
def test_kahler_trajectory_equals_projection_formula(n, seed, t0, t1, samples):
    """Every sample of the stacked, chunked QR evaluation equals the projection
    formula, which takes no QR of exp(t iN) g0 and no chunks. iN has spectral
    diameter 2, so |t| * diameter stays within the range the unchunked
    projection formula resolves to 1e-9."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    H = (A + A.conj().T) / 2
    w = np.linalg.eigvalsh(H)
    N = -1j * (H - w.mean() * np.eye(n)) * (2.0 / max(w[-1] - w[0], 1e-12))
    lam = np.sort(rng.normal(size=n))[::-1]
    g = linalg.k_factor(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    L0 = g @ (1j * np.diag(lam)) @ g.conj().T
    P0 = flagorbit.orbit_point((L0 - L0.conj().T) / 2, lam)
    traj = flows.kahler_trajectory(P0, N, t1, t0=t0, samples=samples)
    for t, L in zip(traj.times, traj.L):
        ref = flows.kahler_flow_projection(P0, N, float(t))
        assert np.abs(L - ref.L).max() <= 1e-9


def _symmetric_or_jacobi(rng, n, jacobi):
    """i S for a random real symmetric S, tridiagonal with positive off-diagonals
    when jacobi is set."""
    A = rng.normal(size=(n, n))
    S = (A + A.T) / 2
    if jacobi:
        off = rng.uniform(0.2, 1.5, size=n - 1)
        S = np.diag(np.diag(S)) + np.diag(off, 1) + np.diag(off, -1)
    return flagorbit.orbit_point(1j * S)


def _induced_start(rng, n):
    """Unitary g0, a spectrum with gaps in [0.3, 2] and a driver N of norm about 1."""
    g0 = linalg.k_factor(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    lam = np.cumsum(rng.uniform(0.3, 2.0, size=n))[::-1]
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return g0, lam, (A - A.conj().T) / (2 * np.abs(A).max())


ODE_SETTINGS = dict(max_examples=60, deadline=None, derandomize=True, database=None)
ODE_INPUTS = dict(n=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1),
                  t0=st.floats(-3.0, 3.0), t1=st.floats(-3.0, 3.0), samples=st.integers(2, 60),
                  tol=st.sampled_from([1e-6, 1e-8, 1e-10]))


@settings(**ODE_SETTINGS)
@given(jacobi=st.booleans(), **ODE_INPUTS)
def test_toda_ode_samples_match_symes(n, seed, t0, t1, samples, tol, jacobi):
    """Every sample of the integrated Toda flow, the ones the continuous
    extension gives inside a step included, is within tol of the Symes closed
    form (a QR of exp(-t iL0), no integrator) and has the start's spectrum."""
    P = _symmetric_or_jacobi(np.random.default_rng(seed), n, jacobi)
    traj = toda.toda_ode(P, t1, t0=t0, samples=samples, tol=tol)
    for t, L in zip(traj.times, traj.L):
        assert np.abs(L - toda.toda_symes(P, float(t - t0)).L).max() <= tol
        assert np.abs(np.linalg.eigvalsh(-1j * L)[::-1] - P.lam).max() <= tol


@settings(**ODE_SETTINGS)
@given(**ODE_INPUTS)
def test_twisted_induced_flow_is_iota_of_the_lift(n, seed, t0, t1, samples, tol):
    g0, lam, N = _induced_start(np.random.default_rng(seed), n)
    d = perms.delta_matrix(n)
    plain = flows.induced_flow(g0, N, lam, t1, t0=t0, samples=samples, tol=tol)
    twisted = flows.induced_flow_twisted(d @ g0.conj().T @ d, N, lam, t1, t0=t0,
                                         samples=samples, tol=tol)
    assert np.abs(plain.L - twisted.L).max() <= tol


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1), t=st.floats(-3.0, 3.0),
       samples=st.integers(1, 60))
def test_zero_span_returns_copies_of_the_start(n, seed, t, samples):
    rng = np.random.default_rng(seed)
    P = _symmetric_or_jacobi(rng, n, False)
    g0, lam, N = _induced_start(rng, n)
    for traj, start in [(toda.toda_ode(P, t, t0=t, samples=samples), P.L),
                        (flows.normal_flow(P, N, t, t0=t, samples=samples), P.L),
                        (flows.induced_flow(g0, N, lam, t, t0=t, samples=samples),
                         flagorbit.orbit_from_rep(g0, lam, linalg.multiplicity_set(lam)).L)]:
        assert traj.accepted == 0 and traj.rejected == 0 and len(traj.L) == samples
        assert all(L.tobytes() == start.astype(complex).tobytes() for L in traj.L)
