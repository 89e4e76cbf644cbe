"""Vandermonde flags, Jacobi matrices from Moser variables, the inverse
spectral map, and reconstruction from a {1,2}-flag.

A Jacobi matrix here is an orbit point i*J with J real symmetric tridiagonal
and positive off-diagonal entries; its eigenflag is a twisted Vandermonde
flag, which is what makes the reconstructions below work.
"""

from dataclasses import dataclass

import numpy as np

from . import flagorbit, linalg, positivity
from .errors import CertificationError, DomainError, LinalgError


@dataclass(frozen=True)
class MoserData:
    lam: np.ndarray   # strictly decreasing
    x: np.ndarray     # positive, normalized to sum of squares 1


def moser_data(lam, x):
    lam = np.asarray(lam, dtype=float)
    x = np.asarray(x, dtype=float)
    if len(lam) != len(x):
        raise LinalgError("moser_data: lam and x must have equal length")
    if len(lam) < 2:
        raise LinalgError(f"moser_data: need at least 2 eigenvalues, got {len(lam)}")
    if not linalg.is_strictly_decreasing(lam):
        raise DomainError("moser_data: lam must be strictly decreasing")
    with np.errstate(over="ignore"):   # _rescaled centres lam on (lam_1 + lam_n) / 2
        sum_ends = lam[0] + lam[-1]
    if not np.isfinite(sum_ends):
        raise LinalgError(f"moser_data: lam_1 + lam_n = {lam[0]:.6g} + {lam[-1]:.6g} overflows")
    if not np.all((x > 0) & np.isfinite(x)):
        raise DomainError("moser_data: x must be finite and strictly positive")
    with np.errstate(over="ignore"):   # a sum of squares out of range is rescaled below
        sumsq = x @ x
    if not np.isfinite(sumsq) or sumsq < np.finfo(float).tiny:
        x = x / x.max()   # its sum of squares lies in [1, n]
    x = x / np.linalg.norm(x)
    if not np.all(x > 0):
        raise DomainError("moser_data: x spans too wide a range: its smallest entries vanish "
                          "when x is normalized")
    return MoserData(lam, x)


def _rescaled(lam):
    """Affine rescale of lam to [-1, 1]; same Krylov flags, better conditioning."""
    a = (lam[0] - lam[-1]) / 2
    b = (lam[0] + lam[-1]) / 2
    return (lam - b) / a, a, b


def vandermonde_matrix(d):
    lamr, _, _ = _rescaled(d.lam)
    n = len(lamr)
    return d.x[:, None] * np.vander(lamr, n, increasing=True)


def vandermonde_flag(d):
    """Complete flag of Krylov subspaces of diag(lam) applied to x."""
    return flagorbit.flag_from_matrix(linalg.k_factor(vandermonde_matrix(d)))


def jacobi_from_moser(d):
    """Jacobi matrix with spectrum lam and Moser variables x.

    u = canonical representative of the Vandermonde flag, g = iota(u); then
    L = g (i diag lam) g* is tridiagonal with positive off-diagonals.
    """
    lamr, a, b = _rescaled(d.lam)
    g = flagorbit._iota(flagorbit.canonical_tnn_rep(linalg.k_factor(vandermonde_matrix(d))))
    Lr = g @ (1j * np.diag(lamr)) @ g.conj().T
    M = a * Lr + b * 1j * np.eye(len(lamr))
    with np.errstate(over="ignore", invalid="ignore"):   # reported below
        L = linalg.skew_part(M)
    if not np.all(np.isfinite(L)):
        raise LinalgError(f"jacobi_from_moser: Jacobi matrix entries reach {np.abs(M).max():.6g}, "
                          "and twice that overflows; rescale lambda")
    verdict = positivity.is_jacobi_cone(-1j * L)
    if verdict.status != positivity.POSITIVE:
        raise CertificationError("jacobi_from_moser: result failed the Jacobi-cone certification")
    return flagorbit.OrbitPoint(L, d.lam.copy(), linalg.multiplicity_set(d.lam))


def moser_from_jacobi(P):
    """Spectrum (decreasing) and positive normalized first eigenvector
    components of a Jacobi matrix; inverse of jacobi_from_moser."""
    if not positivity.is_jacobi_cone(-1j * P.L).is_positive:
        raise DomainError("moser_from_jacobi: input is not in the positive Jacobi cone")
    x = flagorbit._iota(flagorbit.canonical_tnn_rep(flagorbit.orbit_eigenbasis(P)[0]))[:, 0]
    if np.any(x <= 0):
        raise DomainError("moser_from_jacobi: first eigenvector components are not all positive")
    return MoserData(P.lam.copy(), x / np.linalg.norm(x))


def jacobi_from_12flag(V1, V2, n):
    """Jacobi matrix whose top two eigenpairs realize a Plucker-positive
    {1,2}-flag, with eigenvalues 0 and -1.

    v spans V1 (positive after sign fixing); u is the component of V2
    orthogonal to v, signed so w = u/v is strictly decreasing. Solving
    L v = 0, L u = -u for a symmetric tridiagonal L gives

        a_i = (v_1 u_1 + ... + v_i u_i) / (v_i v_{i+1} (w_i - w_{i+1})),
        b_i = -(a_{i-1} v_{i-1} + a_i v_{i+1}) / v_i,

    which for v = (1, ..., 1) is the running-sum formula in the y variables.
    """
    v = np.asarray(V1, dtype=complex).reshape(-1)
    if v.shape[0] != n:
        raise LinalgError(f"jacobi_from_12flag: V1 must be a vector of length {n}")
    B = linalg.as_matrix(V2)
    if B.shape != (n, 2):
        raise LinalgError(f"jacobi_from_12flag: V2 must be an n x 2 basis, got {B.shape}")
    v = linalg.phase_normalize(v)
    if np.abs(v.imag).max() > 1e-10 or np.any(v.real <= 0):
        raise DomainError("jacobi_from_12flag: V1 is not a positive line")
    v = v.real / np.linalg.norm(v.real)
    # V1 must lie inside V2
    Q = np.linalg.qr(B)[0]
    if np.linalg.norm(Q @ (Q.conj().T @ v) - v) > 1e-8:
        raise DomainError("jacobi_from_12flag: V1 is not contained in V2")
    # component of V2 orthogonal to v
    z = Q[:, int(np.argmin(np.abs(Q.conj().T @ v)))]
    u = z - np.vdot(v, z) * v
    if np.linalg.norm(u) < 1e-12:
        raise DomainError("jacobi_from_12flag: V2 is degenerate")
    u = linalg.phase_normalize(u)
    if np.abs(u.imag).max() > 1e-9:
        raise DomainError("jacobi_from_12flag: flag is not real")
    u = u.real / np.linalg.norm(u.real)
    w = u / v
    dw = np.diff(w)
    if np.all(dw > 0):
        u, w, dw = -u, -w, -dw
    if not np.all(dw < 0):
        raise DomainError("jacobi_from_12flag: ratio vector is not strictly monotone")
    partial = np.cumsum(v * u)[:-1]
    a = partial / (v[:-1] * v[1:] * (-dw))
    if np.any(a <= 0):
        raise DomainError("jacobi_from_12flag: flag is not Plucker-positive")
    b = np.empty(n)
    for i in range(n):
        left = a[i - 1] * v[i - 1] if i > 0 else 0.0
        right = a[i] * v[i + 1] if i < n - 1 else 0.0
        b[i] = -(left + right) / v[i]
    J = np.diag(b).astype(complex)
    J += np.diag(a, 1) + np.diag(a, -1)
    lam, _ = linalg.herm_eig(J)
    return flagorbit.OrbitPoint(1j * J, lam, linalg.multiplicity_set(lam))
