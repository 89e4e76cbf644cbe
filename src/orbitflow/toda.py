"""Symmetric Toda flow on adjoint orbits: Symes closed form, the Flaschka
ODE, twisted-gradient comparison, and sorting limits.

The flow is dL/dt = [L, pi_k(-iL)]; its closed-form solution conjugates L0 by
the unitary Iwasawa factor of exp(-t iL0).
"""

import numpy as np

from . import flagorbit, flows, linalg
from .errors import DomainError
from .flagorbit import OrbitPoint


def toda_symes(P, t):
    """Closed-form Toda solution L(t) = Q(t)^{-1} L0 Q(t), Q = k_factor(exp(-t iL0)).

    Long times are evaluated by composing shorter chunks (the flow property),
    which keeps the QR factors within the working precision; each factor is
    rescaled to avoid overflow. exp(-dt iL) is built from the eigendecomposition
    of -iL (for the first chunk, the one P carries, if any), so its singular
    values are known and linalg.exp_k_factor takes no SVD.
    """
    lam = P.lam
    diam = float(lam[0] - lam[-1])
    nch = linalg.split_chunks(t, diam)
    dt = t / nch
    L = P.L.astype(complex)
    for c in range(nch):
        w, U = flagorbit.orbit_eig(P) if c == 0 else linalg.herm_eig(-1j * L)
        Q = linalg.exp_k_factor(w, U, dt)
        L = linalg.skew_part(Q.conj().T @ L @ Q)
    return OrbitPoint(L, lam.copy(), tuple(P.K))


def toda_ode(P, t1, t0=0.0, step=1e-3, tol=1e-8, samples=51):
    """Flaschka form by Dormand-Prince 5(4), projected to skew-Hermitian after
    each step: step is the first step, tol bounds the error (see
    flows._integrate); the spectrum drift is a diagnostic only."""
    lower = np.tri(len(P.lam), k=-1, dtype=bool)   # built once, not on every right-hand side

    def f(L):
        B = linalg._k_project(-1j * L, lower)
        return L @ B - B @ L

    N = -1j * np.diag(P.lam)   # diagnostics only: Lyapunov values along the flow
    return flows._drift_controlled(f, P.L.astype(complex), linalg.skew_part,
                                   lambda L: OrbitPoint(L, P.lam.copy(), tuple(P.K)),
                                   N, t1, t0, step, tol, samples)


def toda_twist_residual(P, t):
    """Max-norm gap between the twisted Toda point and the Kahler flow with
    N = -i diag(lam) started at the twisted point; the twisted-gradient
    theorem makes this vanish on totally nonnegative starts."""
    if not linalg.is_strictly_decreasing(P.lam):
        raise DomainError("toda_twist_residual: lam must be strictly decreasing")
    N = -1j * np.diag(P.lam)
    A = flagorbit.twist_orbit(toda_symes(P, t))
    B = flows.kahler_flow(flagorbit.twist_orbit(P), N, t)
    return float(np.abs(A.L - B.L).max())


def toda_limits(P, t_max=None):
    """Forward and backward sorting limits of the Toda flow.

    For totally positive starts these are i diag(lam) and i diag(reversed lam);
    t_max defaults to 30 over the smallest spectral gap."""
    gaps = -np.diff(P.lam)
    if np.any(gaps <= 0):
        raise DomainError("toda_limits: lam must be strictly decreasing")
    if t_max is None:
        t_max = 30.0 / float(gaps.min())
    return toda_symes(P, t_max), toda_symes(P, -t_max)


def toda_bracket_partner(n):
    """N with [L, N] = pi_k(-iL) for tridiagonal L: N = -i diag(n-1, ..., 1, 0)."""
    return -1j * np.diag(np.arange(n - 1, -1, -1, dtype=float))
