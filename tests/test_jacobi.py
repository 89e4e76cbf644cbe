import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from orbitflow import flagorbit, jacobi, linalg, positivity
from orbitflow.errors import DomainError, LinalgError


def closed_form_jacobi(x):
    """Entries of the tridiagonal matrix for lam = (1, 0, -1) and positive x."""
    x1, x2, x3 = x
    S = x1 ** 2 + x2 ** 2 + x3 ** 2
    T = x1 ** 2 * x2 ** 2 + 4 * x1 ** 2 * x3 ** 2 + x2 ** 2 * x3 ** 2
    J = np.zeros((3, 3))
    J[0, 0] = (x1 ** 2 - x3 ** 2) / S
    J[0, 1] = J[1, 0] = np.sqrt(T) / S
    J[1, 1] = (x1 ** 2 - x3 ** 2) * (x2 ** 4 - 4 * x1 ** 2 * x3 ** 2) / (S * T)
    J[1, 2] = J[2, 1] = 2 * x1 * x2 * x3 * np.sqrt(S) / T
    J[2, 2] = x2 ** 2 * (x3 ** 2 - x1 ** 2) / T
    return J


def test_moser_data_validation():
    with pytest.raises(DomainError):
        jacobi.moser_data([1.0, 1.0, 0.0], [1, 1, 1])
    with pytest.raises(DomainError):
        jacobi.moser_data([1.0, 0.0, -1.0], [1, -1, 1])
    for x in ([np.nan, 1, 1], [np.inf, 1, 1]):
        with pytest.raises(DomainError, match="x must be finite"):
            jacobi.moser_data([1.0, 0.0, -1.0], x)
    with pytest.raises(LinalgError, match="at least 2 eigenvalues"):
        jacobi.moser_data([1.0], [1.0])
    with pytest.raises(LinalgError, match="spectral diameter is inf"):
        jacobi.moser_data([1e308, 0.0, -1e308], [1, 1, 1])


def test_vandermonde_flag_matrix():
    d = jacobi.moser_data([1.0, 0.0, -1.0], [2.0, 3.0, 5.0])
    M = jacobi.vandermonde_matrix(d)
    x = d.x
    expect = np.array([[x[0], x[0], x[0]], [x[1], 0, 0], [x[2], -x[2], x[2]]])
    assert_allclose(M, expect, atol=1e-14)


def test_vandermonde_flag_is_totally_positive():
    d = jacobi.moser_data([2.0, 0.3, -1.2], [1.0, 0.4, 2.2])
    V = jacobi.vandermonde_flag(d)
    assert flagorbit.certify_flag_tnn(V).status == "positive"


def test_vandermonde_torus_action():
    d = jacobi.moser_data([1.0, 0.0, -1.0], [1.0, 2.0, 0.5])
    h = np.array([0.7, 1.9, 1.1])
    lhs = flagorbit.flag_from_matrix(np.diag(h) @ jacobi.vandermonde_matrix(d))
    rhs = jacobi.vandermonde_flag(jacobi.moser_data(d.lam, h * d.x))
    assert flagorbit.flag_distance(lhs, rhs) < 1e-9


def test_jacobi_from_moser_uniform_x():
    d = jacobi.moser_data([1.0, 0.0, -1.0], [1.0, 1.0, 1.0])
    P = jacobi.jacobi_from_moser(d)
    expect = np.array([[0, np.sqrt(6) / 3, 0],
                       [np.sqrt(6) / 3, 0, np.sqrt(3) / 3],
                       [0, np.sqrt(3) / 3, 0]])
    assert np.abs(np.real(-1j * P.L) - expect).max() < 1e-12


def test_jacobi_from_moser_closed_form_entries():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.uniform(0.2, 3.0, size=3)
        d = jacobi.moser_data([1.0, 0.0, -1.0], x)
        J = np.real(-1j * jacobi.jacobi_from_moser(d).L)
        assert np.abs(J - closed_form_jacobi(d.x)).max() < 1e-9


def test_jacobi_from_moser_n2():
    d = jacobi.moser_data([1.0, -1.0], [1.0, 1.0])
    P = jacobi.jacobi_from_moser(d)
    assert np.abs(np.real(-1j * P.L) - np.array([[0, 1], [1, 0]])).max() < 1e-12


def test_moser_from_jacobi_examples():
    d = jacobi.moser_data([1.0, 0.0, -1.0], [1.0, 1.0, 1.0])
    back = jacobi.moser_from_jacobi(jacobi.jacobi_from_moser(d))
    assert_allclose(back.x, np.full(3, 1 / np.sqrt(3)), atol=1e-10)
    P = flagorbit.orbit_point(1j * np.array([[0.0, 1], [1, 0]]))
    back = jacobi.moser_from_jacobi(P)
    assert_allclose(back.lam, [1, -1], atol=1e-12)
    assert_allclose(back.x, np.full(2, 1 / np.sqrt(2)), atol=1e-12)


def test_moser_from_jacobi_rejects_non_jacobi():
    with pytest.raises(DomainError):
        jacobi.moser_from_jacobi(flagorbit.orbit_point(1j * np.diag([1.0, 0.0, -1.0])))


def test_l12_squared_identity():
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.uniform(0.3, 2.0, size=3)
        d = jacobi.moser_data([1.0, 0.0, -1.0], x)
        J = np.real(-1j * jacobi.jacobi_from_moser(d).L)
        r = d.x
        rhs = sum(((lam_j - J[0, 0]) * rj) ** 2 for lam_j, rj in zip(d.lam, r))
        assert abs(J[0, 1] ** 2 - rhs) < 1e-9


def test_roundtrip_random():
    rng = np.random.default_rng(2)
    for n in (3, 4, 5):
        lam = np.sort(rng.normal(size=n) * 2)[::-1]
        while np.min(-np.diff(lam)) < 0.1:
            lam = np.sort(rng.normal(size=n) * 2)[::-1]
        x = rng.uniform(0.2, 2.0, size=n)
        d = jacobi.moser_data(lam, x)
        P = jacobi.jacobi_from_moser(d)
        back = jacobi.moser_from_jacobi(P)
        assert np.abs(back.x - d.x).max() < 1e-8
        assert np.abs(back.lam - d.lam).max() < 1e-8
        P2 = jacobi.jacobi_from_moser(back)
        assert np.abs(P2.L - P.L).max() < 1e-8


def test_jacobi_from_12flag_n2():
    P = jacobi.jacobi_from_12flag(np.array([1.0, 1.0]) / np.sqrt(2), np.eye(2), 2)
    J = np.real(-1j * P.L)
    assert_allclose(J, np.array([[-0.5, 0.5], [0.5, -0.5]]), atol=1e-12)


def test_jacobi_from_12flag_all_ones_eigenvector():
    rng = np.random.default_rng(3)
    n = 4
    lam = np.array([0.0, -1.0, -2.5, -4.0])
    d = jacobi.moser_data(lam, rng.uniform(0.3, 2.0, size=n))
    V = flagorbit.orbit_to_flag(jacobi.jacobi_from_moser(d))
    P = jacobi.jacobi_from_12flag(V.rep[:, 0], V.rep[:, :2], n)
    v1 = np.real(V.rep[:, 0])
    resid = (-1j * P.L) @ v1
    assert np.abs(resid).max() < 1e-9
    assert_allclose(np.sort(P.lam)[::-1][:2], [0.0, -1.0], atol=1e-9)


def test_jacobi_from_12flag_roundtrip():
    rng = np.random.default_rng(4)
    for n in (3, 4, 5):
        lam = np.concatenate([[0.0, -1.0], np.sort(rng.uniform(-6, -2, size=n - 2))[::-1]])
        d = jacobi.moser_data(lam, rng.uniform(0.3, 2.0, size=n))
        P = jacobi.jacobi_from_moser(d)
        V = flagorbit.orbit_to_flag(P)
        Q = jacobi.jacobi_from_12flag(V.rep[:, 0], V.rep[:, :2], n)
        W = flagorbit.orbit_to_flag(Q)
        assert np.abs(V.projection(1) - W.projection(1)).max() < 1e-8
        assert np.abs(V.projection(2) - W.projection(2)).max() < 1e-8
        assert np.abs(Q.L - P.L).max() < 1e-8


def test_jacobi_from_12flag_rejects_bad_inputs():
    with pytest.raises(DomainError):
        jacobi.jacobi_from_12flag(np.array([1.0, -1.0]), np.eye(2), 2)
    with pytest.raises(DomainError):
        # V1 not inside V2
        jacobi.jacobi_from_12flag(np.array([1.0, 1.0, 1.0]), np.eye(3)[:, 1:], 3)


def test_rev_on_vandermonde_flags():
    d = jacobi.moser_data([1.3, 0.0, -0.9], [1.0, 2.0, 0.7])
    lhs = flagorbit.rev_flag(jacobi.vandermonde_flag(d))
    rhs = jacobi.vandermonde_flag(jacobi.moser_data(-d.lam[::-1] + 0.0, d.x[::-1]))
    assert flagorbit.flag_distance(lhs, rhs) < 1e-8


def test_rho_on_vandermonde_flags():
    lam = np.array([1.0, 0.0, -1.0])
    x = np.array([0.8, 1.7, 0.5])
    d = jacobi.moser_data(lam, x)
    y = np.array([(-1.0) ** i / (x[i] * np.prod([lam[i] - lam[j] for j in range(3) if j != i]))
                  for i in range(3)])
    assert np.all(y > 0)
    lhs = flagorbit.dual_flag(jacobi.vandermonde_flag(d))
    rhs = jacobi.vandermonde_flag(jacobi.moser_data(lam, y))
    assert flagorbit.flag_distance(lhs, rhs) < 1e-8


def test_torus_conjugation_stays_in_cone():
    d = jacobi.moser_data([1.0, 0.0, -1.0], [1.0, 2.0, 0.5])
    J = np.real(-1j * jacobi.jacobi_from_moser(d).L)
    h = np.diag([0.5, 1.7, 0.9])
    conj = h @ J @ np.linalg.inv(h)
    assert positivity.is_jacobi_cone(conj).status == "positive"


def old_moser_x(P):
    """moser_from_jacobi's x as it was: the eigenflag's representative, itself
    canonical, canonicalized again and twisted by twist_unitary."""
    g = flagorbit.canonical_tnn_rep(flagorbit.orbit_to_flag(P).rep)
    x = np.real(flagorbit.twist_unitary(g)[:, 0])
    return x / np.linalg.norm(x)


def moser_cases(rng):
    return [jacobi.moser_data(np.sort(rng.normal(size=n))[::-1], rng.uniform(0.3, 1.0, n))
            for n in (2, 3, 5, 8) for _ in range(3)]


def record_callers(monkeypatch, module, name):
    """Wrap module.name; the list gets the name of each call's calling function."""
    callers = []
    real = getattr(module, name)

    def wrapped(*args, **kw):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args, **kw)
    monkeypatch.setattr(module, name, wrapped)
    return callers


def test_moser_round_trip_canonicalizes_once_and_twists_without_svd(monkeypatch):
    rng = np.random.default_rng(40)
    points = [jacobi.jacobi_from_moser(d) for d in moser_cases(rng)]
    refs = [old_moser_x(P) for P in points]
    canon = record_callers(monkeypatch, flagorbit, "canonical_tnn_rep")
    svd = record_callers(monkeypatch, np.linalg, "svd")
    for P, ref in zip(points, refs):
        del canon[:], svd[:]
        back = jacobi.moser_from_jacobi(P)
        assert canon == ["moser_from_jacobi"] and svd == []
        assert back.lam.tobytes() == P.lam.tobytes() and np.abs(back.x - ref).max() <= 1e-14
    for d in moser_cases(rng):
        del canon[:], svd[:]
        jacobi.jacobi_from_moser(d)
        assert canon == ["jacobi_from_moser"]
        assert svd == ["_qr"]   # k_factor's singularity check of the Vandermonde matrix, not the twist
