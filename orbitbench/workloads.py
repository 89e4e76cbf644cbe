"""The three benchmark workloads as lists of checked operations.

Each Op runs one call into orbitflow's public surface (`run`, timed) and then
checks the result against an independent oracle (`check`, untimed). A check
raises WrongAnswer when the program answered wrongly; `run` raising is a
failure too.

Inputs come from inputs.py, seeded by the workload seed; orbitflow's own
samplers appear only as operations under test, never as input generators.
"""

import contextlib
from dataclasses import dataclass
from itertools import combinations
from time import perf_counter
from typing import Callable

import numpy as np
from orbitflow import ampli, flagorbit, flows, io, jacobi, positivity, toda

import inputs as gen

VARIANTS = 2          # distinct inputs per (operation kind, n) in one run
TP_TOL = {5: 1e-9, 6: 1e-13}   # is_tp_matrix tolerance the certify inputs clear by >= 20x
VERDICT_TOL = 1e-9
MATCH_TOL = 1e-9      # matrices and flags against their oracles
FLOW_TOL = 1e-8       # trajectories against closed forms and the iota relation


class WrongAnswer(Exception):
    """The program returned a result its oracle rejects."""


@dataclass
class Op:
    kind: str
    n: int
    run: Callable[[], object]
    check: Callable[[object], None]


def expect(cond, what):
    if not cond:
        raise WrongAnswer(what)


def _rng(seed, *tag):
    return np.random.default_rng([seed, *tag])


def complete(n):
    return tuple(range(1, n))


def _expect_status(v, status):
    expect(v.status == status, f"verdict {v.status}, expected {status}")


def _expect_witness(A, v):
    """The witness minor, recomputed, matches the value the verdict reports."""
    expect(v.witness is not None, "verdict without a witness")
    val, s = gen.minor_and_scale(A, v.witness.rows, v.witness.cols)
    expect(abs(val.real - v.witness.value) <= MATCH_TOL * s, "witness value does not match its minor")
    return val.real / s


# ---- certify ---------------------------------------------------------------

def certify(seed):
    ops = []
    for v in range(VARIANTS):
        for n in (5, 6):
            A = gen.tp_matrix(_rng(seed, 1, n, v), n)
            ops.append(Op("is_tp_matrix/positive", n,
                          lambda A=A, n=n: positivity.is_tp_matrix(A, TP_TOL[n]),
                          lambda res: _expect_status(res, "positive")))
        for n in (5, 6, 7, 8):
            r = _rng(seed, 2, n, v)
            Q = gen.q_factor(gen.tp_matrix(r, n))
            ph = gen.random_phases(r, n)
            d = gen.delta(n)
            ops.append(Op("is_tnn_unitary/positive", n,
                          lambda Q=Q: positivity.is_tnn_unitary(Q),
                          lambda res: _expect_status(res, "positive")))
            K = complete(n) if v == 0 else (1, 3, n - 1)
            ops.append(Op("is_plucker_nonneg/positive", n,
                          lambda rep=Q * ph[None, :], K=K: positivity.is_plucker_nonneg(rep, K),
                          lambda res: _expect_status(res, "positive")))

            def check_canonical(g, Q=Q):
                expect(np.abs(g - Q).max() <= MATCH_TOL, "canonical representative differs from Q")
            ops.append(Op("canonical_tnn_rep", n,
                          lambda g=Q * ph[None, :]: flagorbit.canonical_tnn_rep(g), check_canonical))

            V = flagorbit.PartialFlag(n, complete(n), Q * ph[None, :])

            def check_twist(W, Q=Q, d=d, n=n, V=V):
                expect(gen.flag_gap(W.rep, d @ Q.T @ d, complete(n)) <= MATCH_TOL,
                       "twist differs from delta Q^T delta")
                back = flagorbit.twist_flag(W)
                expect(gen.flag_gap(back.rep, V.rep, complete(n)) <= MATCH_TOL,
                       "twist is not an involution")
            ops.append(Op("twist_flag", n, lambda V=V: flagorbit.twist_flag(V), check_twist))

            lam = gen.spectrum(r, n)
            x = r.uniform(0.3, 1.0, size=n)
            md = jacobi.moser_data(lam, x)

            def round_trip(md=md):
                P = jacobi.jacobi_from_moser(md)
                return P, jacobi.moser_from_jacobi(P)

            def check_jacobi(res, lam=lam, x=x, n=n):
                P, back = res
                J = (-1j * P.L)
                expect(np.abs(J.imag).max() <= MATCH_TOL, "Jacobi matrix is not real")
                J = J.real
                expect(np.abs(np.triu(J, 2)).max(initial=0.0) <= MATCH_TOL
                       and np.abs(np.tril(J, -2)).max(initial=0.0) <= MATCH_TOL, "not tridiagonal")
                expect(np.all(np.diag(J, 1) > 0), "off-diagonal entries not positive")
                w, U = np.linalg.eigh((J + J.T) / 2)
                expect(np.abs(w[::-1] - lam).max() <= MATCH_TOL, "spectrum differs from lambda")
                xn = x / np.linalg.norm(x)
                expect(np.abs(np.abs(U[0, ::-1]) - xn).max() <= 1e-8, "eigenvector heads differ from x")
                expect(np.abs(back.x - xn).max() <= 1e-8, "moser_from_jacobi does not invert")
            ops.append(Op("jacobi_round_trip", n, round_trip, check_jacobi))

            rz = 2 + v % 2

            def check_z(zd, rz=rz, n=n):
                Z = zd.Z
                expect(Z.shape == (rz, n) and zd.k == 1 and zd.m == rz - 1, "Z has the wrong shape")
                expect(np.abs(Z @ Z.T - np.eye(rz)).max() <= MATCH_TOL, "Z rows are not orthonormal")
                dets = np.linalg.det(np.stack([Z[:, list(c)] for c in combinations(range(n), rz)]))
                expect(np.all(dets > 0), "a maximal minor of Z is not positive")
            ops.append(Op("twisted_vdm_Z", n, lambda md=md, rz=rz: ampli.twisted_vdm_Z(md, rz, k=1),
                          check_z))
    return ops


# ---- boundary --------------------------------------------------------------

WORST_SLACK = 1e-12   # scaled minors can tie (all 1x1 minors of a unitary are +-1)


def _check_worst_witness(A, v, worst):
    """Outside verdict whose witness minor attains the worst scaled value."""
    _expect_status(v, "outside")
    expect(_expect_witness(A, v) <= worst + WORST_SLACK, "witness is not the worst scaled minor")


def _check_worst_left(Q, v, plucker):
    """Outside verdict whose witness attains the worst relative left-justified
    minor (see inputs.left_rel)."""
    _expect_status(v, "outside")
    k = len(v.witness.rows)
    expect(tuple(v.witness.cols) == tuple(range(1, k + 1)), "witness is not left-justified")
    S, vals, rel = gen.left_rel(Q, k, plucker)
    i = [tuple(int(x) for x in row) for row in S].index(tuple(v.witness.rows))
    expect(abs(vals[i] - v.witness.value) <= MATCH_TOL, "witness value does not match its minor")
    expect(rel[i] <= gen.worst_left(Q, plucker) + WORST_SLACK, "witness is not the worst minor")


def _check_left_nonneg(g, what):
    n = g.shape[0]
    expect(np.abs(g.conj().T @ g - np.eye(n)).max() <= MATCH_TOL, f"{what}: not unitary")
    worst, zero = np.inf, False
    for k in range(1, n + 1):
        _, vals, scales = gen.left_minors(g, k)
        expect(np.abs(vals.imag).max() <= VERDICT_TOL, f"{what}: non-real left minor")
        rel = vals.real / scales
        worst = min(worst, rel.min())
        zero = zero or bool(np.any(np.abs(rel) <= VERDICT_TOL))
    expect(worst >= -VERDICT_TOL, f"{what}: negative left minor")
    expect(zero, f"{what}: no vanishing left minor, so not a boundary point")


def boundary(seed):
    ops = []
    sizes = (3, 4, 5, 6, 7, 8)
    for v in range(VARIANTS):
        for n in sizes:
            r = _rng(seed, 10, n, v)
            skip = 1 + int(r.integers(len(gen.word(n)) // 2 + 1))
            A = gen.tp_matrix(r, n, skip_lower=skip)

            def check_nonneg(res, A=A):
                _expect_status(res, "nonnegative")
                expect(abs(_expect_witness(A, res)) <= VERDICT_TOL, "witness is not near zero")
            ops.append(Op("is_tp_matrix/nonnegative", n,
                          lambda A=A: positivity.is_tp_matrix(A), check_nonneg))

            B = gen.outside_matrix(r, n)
            ops.append(Op("is_tp_matrix/outside", n, lambda B=B: positivity.is_tp_matrix(B),
                          lambda res, B=B, w=gen.worst_scaled_minor(B): _check_worst_witness(B, res, w)))

            Qb = gen.q_factor(A)

            def check_unitary_nonneg(res, Qb=Qb):
                _expect_status(res, "nonnegative")
                expect(abs(_expect_witness(Qb, res)) <= VERDICT_TOL, "witness is not near zero")
            ops.append(Op("is_tnn_unitary/nonnegative", n,
                          lambda Qb=Qb: positivity.is_tnn_unitary(Qb), check_unitary_nonneg))

            Qo = gen.outside_orthogonal(r, n)
            ops.append(Op("is_tnn_unitary/outside", n, lambda Qo=Qo: positivity.is_tnn_unitary(Qo),
                          lambda res, Qo=Qo: _check_worst_left(Qo, res, plucker=False)))

            ops.append(Op("is_plucker_nonneg/nonnegative", n,
                          lambda Qb=Qb, n=n: positivity.is_plucker_nonneg(Qb, complete(n)),
                          lambda res: _expect_status(res, "nonnegative")))
            ops.append(Op("is_plucker_nonneg/outside", n,
                          lambda Qo=Qo, n=n: positivity.is_plucker_nonneg(Qo, complete(n)),
                          lambda res, Qo=Qo: _check_worst_left(Qo, res, plucker=True)))

            ops.append(Op("sample_tnn_flag/boundary", n,
                          lambda n=n, v=v: positivity.sample_tnn_flag(n, _rng(seed, 11, n, v),
                                                                     boundary=True),
                          lambda g: _check_left_nonneg(g, "sample_tnn_flag")))

            if n <= 6:
                def check_tp(A):
                    expect(np.abs(np.imag(A)).max(initial=0.0) == 0.0, "sample is not real")
                    for k in range(1, A.shape[0] + 1):
                        expect(np.all(gen.all_minors(np.real(A), k)[2] > 0), "a minor is not positive")
                ops.append(Op("sample_tp", n,
                              lambda n=n, v=v: positivity.sample_tp(n, _rng(seed, 12, n, v)), check_tp))

            if v == 0:
                w = gen.random_perm(r, n)
                V = flagorbit.PartialFlag(n, complete(n), gen.tnn_signed_perm(w).astype(complex))
                cell = (w, w)
            else:
                V = flagorbit.PartialFlag(n, complete(n),
                                          gen.q_factor(gen.tp_matrix(r, n)).astype(complex))
                cell = (tuple(range(1, n + 1)), tuple(range(n, 0, -1)))
            ops.append(Op("locate_cell", n, lambda V=V: flagorbit.locate_cell(V),
                          lambda c, cell=cell: expect((c.v, c.w) == cell, f"cell {c}, expected {cell}")))

            k = n // 2
            l = 1 + v % k   # fixed order per variant, so the cost does not depend on the seed
            Vm = r.normal(size=(n, k)) + 1j * r.normal(size=(n, k))
            I = tuple(sorted(int(i) + 1 for i in r.choice(n, l, replace=False)))
            J = tuple(sorted(int(i) + 1 for i in r.choice(n, l, replace=False)))
            ref = np.linalg.det(gen.projector(Vm)[np.ix_([i - 1 for i in I], [j - 1 for j in J])])
            ops.append(Op("projection_minor_closed_form", n,
                          lambda Vm=Vm, I=I, J=J: flagorbit.projection_minor_closed_form(Vm, I, J),
                          lambda z, ref=ref: expect(abs(z - ref) <= MATCH_TOL,
                                                    "closed form differs from the projection minor")))
    return ops


# ---- flow ------------------------------------------------------------------

T_ODE = 0.2       # toda_ode and normal_flow horizon
T_INDUCED = 0.125 # induced_flow and its twisted form
T_KAHLER = 1.0
T_SYMES = 2.0     # t * spectral diameter stays below 14, so one QR is exact


def _csv_checked(traj, lines):
    n = traj.points[0].L.shape[0]
    expect(len(lines) == len(traj.times) + 1, "CSV row count")
    expect(lines[0].split(",")[0] == "t" and len(lines[0].split(",")) == 1 + 2 * n * n, "CSV header")
    for t, P, line in zip(traj.times, traj.points, lines[1:]):
        vals = np.array([float(s) for s in line.split(",")])
        flat = P.L.reshape(-1)
        expect(vals[0] == float(t) and np.array_equal(vals[1::2], flat.real)
               and np.array_equal(vals[2::2], flat.imag), "CSV row does not round-trip")


def _isospectral(traj, lam):
    for P in traj.points:
        w = np.linalg.eigvalsh(-1j * P.L)[::-1]
        expect(np.abs(w - lam).max() <= FLOW_TOL, "trajectory left the orbit")


def flow(seed):
    ops = []
    memo = {}

    def encoded(traj):
        return traj, list(io.trajectory_csv_lines(traj))

    for v in range(VARIANTS):
        for n in (3, 4, 5, 6):
            r = _rng(seed, 20, n, v)
            P = flagorbit.orbit_point(1j * gen.jacobi_matrix(r, n))
            lam = gen.spectrum(r, n)
            g0 = gen.random_unitary(r, n)
            N = gen.skew_hermitian(r, n)
            d = gen.delta(n)
            L0 = g0 @ (1j * np.diag(lam)) @ g0.conj().T
            P0 = flagorbit.orbit_point((L0 - L0.conj().T) / 2, lam)
            partner = -1j * np.diag(np.arange(n - 1, -1, -1, dtype=float))

            def check_symes(res, P=P):
                traj, lines = res
                _csv_checked(traj, lines)
                _isospectral(traj, P.lam)
                for t, Q in zip(traj.times, traj.points):
                    expect(np.abs(Q.L - toda.toda_symes(P, float(t)).L).max() <= FLOW_TOL,
                           "trajectory differs from the Symes solution")
            ops.append(Op("toda_ode", n, lambda P=P: encoded(toda.toda_ode(P, T_ODE)), check_symes))
            # For tridiagonal L, [L, partner] is the Toda projection, so the
            # double-bracket flow with this N is the Toda flow.
            ops.append(Op("normal_flow", n,
                          lambda P=P, N=partner: encoded(flows.normal_flow(P, N, T_ODE)), check_symes))

            def check_induced(res, key=(n, v), lam=lam, N=N):
                traj, lines = res
                _csv_checked(traj, lines)
                _isospectral(traj, lam)
                k = np.array([gen.killing(P.L, N) for P in traj.points])
                expect(np.all(np.diff(k) >= -FLOW_TOL * max(1.0, np.abs(k).max())),
                       "height function decreased along the gradient flow")
                memo[key] = traj

            def check_twisted(res, key=(n, v), g0=g0, N=N, lam=lam):
                traj, lines = res
                _csv_checked(traj, lines)
                ref = memo.get(key) or flows.induced_flow(g0, N, lam, T_INDUCED)
                for P, Q in zip(traj.points, ref.points):
                    expect(np.abs(P.L - Q.L).max() <= FLOW_TOL, "twisted flow is not iota of the lift")
            ops.append(Op("induced_flow", n,
                          lambda g0=g0, N=N, lam=lam: encoded(flows.induced_flow(g0, N, lam, T_INDUCED)),
                          check_induced))
            ops.append(Op("induced_flow_twisted", n,
                          lambda h0=d @ g0.conj().T @ d, N=N, lam=lam:
                          encoded(flows.induced_flow_twisted(h0, N, lam, T_INDUCED)), check_twisted))

            def check_kahler(res, P0=P0, N=N):
                traj, lines = res
                _csv_checked(traj, lines)
                for t, Q in zip(traj.times, traj.points):
                    ref = flows.kahler_flow_projection(P0, N, float(t))
                    expect(np.abs(Q.L - ref.L).max() <= FLOW_TOL, "Kahler trajectory differs from projection")
            ops.append(Op("kahler_trajectory", n,
                          lambda P0=P0, N=N: encoded(flows.kahler_trajectory(P0, N, T_KAHLER)), check_kahler))

            def symes_trajectory(P=P):
                times = np.linspace(0.0, T_SYMES, 11)
                return encoded(flows.Trajectory(times, [toda.toda_symes(P, float(t)) for t in times]))

            def check_own_symes(res, P=P):
                traj, lines = res
                _csv_checked(traj, lines)
                for t, Q in zip(traj.times, traj.points):
                    expect(np.abs(Q.L - gen.symes(P.L, float(t))).max() <= FLOW_TOL,
                           "Symes point differs from the QR formula")
            ops.append(Op("toda_symes", n, symes_trajectory, check_own_symes))
    return ops


def build(name, seed):
    return {"certify": certify, "boundary": boundary, "flow": flow}[name](seed)


def warmup(ops):
    """Run the first operation of each kind once, so lazy set-up is done.
    Returns the summed time of the runs. Results are not checked here and an
    error is not raised: every operation runs again in the checked loop, which
    counts it."""
    seen, busy = set(), 0.0
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            t0 = perf_counter()
            with contextlib.suppress(Exception):
                op.run()
            busy += perf_counter() - t0
    return busy
