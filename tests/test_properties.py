"""Property tests: flow invariants on hypothesis-drawn inputs, each checked
against an oracle that shares no code with the path under test."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitflow import flagorbit, flows, linalg


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
