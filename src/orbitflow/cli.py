"""Command-line surface: JSON in, JSON/CSV out, deterministic under --seed.

Exit codes: 0 success, 1 an "outside" verdict or failed verification,
2 malformed input (bad JSON, dimension mismatch, domain errors), 3 an
internal error.
"""

import argparse
import json
import sys

import numpy as np

from . import ampli, flagorbit, flows, io, jacobi, linalg, positivity, toda
from .errors import CertificationError, DomainError, DriftError, LinalgError


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise LinalgError(f"cannot read JSON from {path!r}: {exc}")


def _emit(obj, out):
    out.write(io.dumps(obj) + "\n")


def _emit_lines(lines, out):
    for line in lines:
        out.write(line + "\n")


# the options each jacobi / ampli action reads, checked before it runs
_NEEDS = {
    "from-moser": ("--lambda", "--x"),
    "to-moser": ("--in",),
    "from-12flag": ("--in",),
    "build-Z": ("--lambda", "--x", "--r"),
    "zmap": ("--Z", "--V"),
    "project-N": ("--Z", "--N"),
    "sample": ("--Z",),
}
_DEST = {"--lambda": "lam", "--in": "infile"}


_EXAMPLE = {"--lambda": "1,0,-1", "--x": "1,1,1", "--K": "1,2"}


def _list_help(what, flag):
    """Help of a comma-separated list option. argparse reads a value such as
    -1,-2 after a space as an option, so a list that starts with '-' takes '='."""
    return (f"{what}, comma-separated (e.g. {flag} {_EXAMPLE[flag]}); "
            f"a list that starts with '-' needs '=', as {flag}=-1,-2")


def _check_needs(args):
    for flag in _NEEDS[args.action]:
        if getattr(args, _DEST.get(flag, flag[2:])) is None:
            raise LinalgError(f"{args.command} {args.action} needs option {flag}")


def _orbit_from_path(path, lam=None):
    """The orbit point of an orbit or matrix JSON file; lam, if given, is
    checked against its spectrum either way."""
    obj = _load_json(path)
    if isinstance(obj, dict) and "L" in obj:
        P = io.orbit_from_json(obj)
        return P if lam is None else flagorbit.orbit_point(P.L, lam=lam)
    return flagorbit.orbit_point(io.matrix_from_json(obj), lam=lam)


def _flag_from_path(path):
    obj = _load_json(path)
    if isinstance(obj, dict) and "rep" in obj:
        return io.flag_from_json(obj)
    return flagorbit.flag_from_matrix(io.matrix_from_json(obj))


def cmd_positivity(args, out):
    tol = args.tol
    obj = _load_json(args.infile)
    if isinstance(obj, dict) and "L" in obj:
        # orbit point: tridiagonal/matrix checks act on -iL, flag checks on
        # the canonical representative of its eigenflag
        P = io.orbit_from_json(obj)
        if args.kind in ("tp", "jacobi"):
            M = -1j * P.L
        else:
            M = flagorbit.canonical_tnn_rep(flagorbit.orbit_eigenbasis(P)[0])
    elif isinstance(obj, dict) and "rep" in obj:
        M = io.matrix_from_json(obj["rep"])
    else:
        M = io.matrix_from_json(obj)
    if args.kind == "tp":
        v = positivity.is_tp_matrix(M, tol)
    elif args.kind == "jacobi":
        v = positivity.is_jacobi_cone(M, tol)
    elif args.kind == "unitary":
        v = positivity.is_tnn_unitary(M, tol)
    else:
        if not args.K:
            raise LinalgError("field 'K' is required for --kind plucker")
        v = positivity.is_plucker_nonneg(M, [io.as_int(k, "field 'K'") for k in args.K.split(",")], tol)
    _emit(io.verdict_to_json(v), out)
    return 1 if v.status == positivity.OUTSIDE else 0


def cmd_twist(args, out):
    if args.n is not None:
        obj = _load_json(args.infile)
        rows = obj.get("rows", obj.get("n")) if isinstance(obj, dict) else None
        size = None if rows is None else io.as_int(rows, "field 'rows'/'n'")
        if size is not None and size != args.n:
            raise LinalgError(f"field 'rows'/'n' is {rows}, expected {args.n}")
    if args.map == "iota":
        M = io.matrix_from_json(_load_json(args.infile))
        _emit(io.matrix_to_json(flagorbit.twist_unitary(M)), out)
    elif args.map == "theta":
        V = _flag_from_path(args.infile)
        _emit(io.flag_to_json(flagorbit.twist_flag(V)), out)
    elif args.map == "theta-lambda":
        P = _orbit_from_path(args.infile)
        _emit(io.orbit_to_json(flagorbit.twist_orbit(P)), out)
    elif args.map == "rev":
        V = _flag_from_path(args.infile)
        _emit(io.flag_to_json(flagorbit.rev_flag(V)), out)
    else:
        V = _flag_from_path(args.infile)
        _emit(io.flag_to_json(flagorbit.dual_flag(V)), out)
    return 0


def cmd_cell(args, out):
    V = _flag_from_path(args.infile)
    c = flagorbit.locate_cell(V, tol=args.tol)
    _emit({"v": list(c.v), "w": list(c.w)}, out)
    return 0


def cmd_flow(args, out):
    P = _orbit_from_path(args.infile, lam=io.as_floats(args.lam, "field 'lambda'") if args.lam else None)
    lam = P.lam
    if args.N:
        N = io.matrix_from_json(_load_json(args.N))
        if N.shape != (len(lam), len(lam)):
            raise LinalgError(f"driver N has shape {N.shape}, expected {len(lam)} x {len(lam)}")
    else:
        N = np.zeros((len(lam), len(lam)), dtype=complex)   # constant flow
    if args.metric == "kahler":   # exact; step and tol set the integrator of the other two
        traj = flows.kahler_trajectory(P, N, args.t1, t0=args.t0, samples=args.samples)
    else:
        ode = dict(t0=args.t0, step=args.step, tol=args.tol, samples=args.samples)
        traj = (flows.normal_flow(P, N, args.t1, **ode) if args.metric == "normal" else
                flows.induced_flow(flagorbit.orbit_to_flag(P).rep, N, lam, args.t1, **ode))
    _emit_lines(io.trajectory_csv_lines(traj), out)
    return 0


def cmd_toda(args, out):
    P = _orbit_from_path(args.infile)
    if args.limits:
        Lp, Lm = toda.toda_limits(P, t_max=args.t_max)
        _emit({"forward": io.orbit_to_json(Lp), "backward": io.orbit_to_json(Lm)}, out)
        return 0
    if args.twist_check:
        times = flows._sample_grid(args.t0, args.t1, max(args.samples, 2))[1:]
        res = max(toda.toda_twist_residual(P, float(t)) for t in times)
        _emit({"max_twist_residual": res}, out)
        return 0
    if args.cross_check:
        traj = toda.toda_ode(P, args.t1, t0=args.t0, step=args.step,
                             tol=args.tol, samples=args.samples)
        res = max(float(np.abs(toda.toda_symes(P, float(t)).L - L).max())
                  for t, L in zip(traj.times, traj.L))
        _emit({"max_residual": res}, out)
        return 0
    if args.ode:
        traj = toda.toda_ode(P, args.t1, t0=args.t0, step=args.step,
                             tol=args.tol, samples=args.samples)
    else:
        times = flows._sample_grid(args.t0, args.t1, args.samples)
        traj = flows.Trajectory(times, [toda.toda_symes(P, float(t)) for t in times])
        traj.diagnostics = flows._diagnose_all(traj.L, P.lam, -1j * np.diag(P.lam))
    _emit_lines(io.trajectory_csv_lines(traj), out)
    return 0


def cmd_jacobi(args, out):
    _check_needs(args)
    if args.action == "from-moser":
        d = jacobi.moser_data(io.as_floats(args.lam, "field 'lambda'"), io.as_floats(args.x, "field 'x'"))
        _emit(io.orbit_to_json(jacobi.jacobi_from_moser(d)), out)
    elif args.action == "to-moser":
        P = _orbit_from_path(args.infile)
        _emit(io.moser_to_json(jacobi.moser_from_jacobi(P)), out)
    else:
        V = _flag_from_path(args.infile)
        if 1 not in V.K or 2 not in V.K:
            raise LinalgError("field 'K' must contain 1 and 2 for from-12flag")
        P = jacobi.jacobi_from_12flag(V.rep[:, 0], V.rep[:, :2], V.n)
        _emit(io.orbit_to_json(P), out)
    return 0


def cmd_ampli(args, out):
    _check_needs(args)
    if args.action == "build-Z":
        d = jacobi.moser_data(io.as_floats(args.lam, "field 'lambda'"), io.as_floats(args.x, "field 'x'"))
        zd = ampli.twisted_vdm_Z(d, args.r, k=args.k)
        _emit(io.zdata_to_json(zd), out)
        return 0
    zd = io.zdata_from_json(_load_json(args.Z))
    if args.action == "zmap":
        V = io.matrix_from_json(_load_json(args.V))
        _emit(io.matrix_to_json(ampli.zmap(zd, V)), out)
    elif args.action == "project-N":
        N = io.matrix_from_json(_load_json(args.N))
        _emit(io.matrix_to_json(ampli.project_N(zd, N)), out)
    else:
        rng = np.random.default_rng(args.seed)
        samples = ampli.sample_amplituhedron(zd, args.count, rng)
        _emit_lines(io.samples_csv_lines(samples), out)
    return 0


def _verify_suites(seed):
    rng = np.random.default_rng(seed)

    def det_identities():
        for _ in range(5):
            M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            det = linalg._det(M)
            I = (1, 3)
            total = 0.0
            for J in linalg.index_sets(5, 2):
                sgn = (-1) ** (sum(I) + sum(J))
                rest_I = tuple(i for i in range(1, 6) if i not in I)
                rest_J = tuple(j for j in range(1, 6) if j not in J)
                total += sgn * linalg.minor(M, I, J) * linalg.minor(M, rest_I, rest_J)
            if abs(total - det) > 1e-9 * max(1.0, abs(det)):
                return False
            A = rng.normal(size=(4, 6))
            B = rng.normal(size=(6, 5))
            lhs = linalg.minor(A @ B, (1, 3), (2, 4))
            rhs = sum(linalg.minor(A, (1, 3), Kc) * linalg.minor(B, Kc, (2, 4))
                      for Kc in linalg.index_sets(6, 2))
            if abs(lhs - rhs) > 1e-10 * max(1.0, abs(lhs)):
                return False
        return True

    def iwasawa_suite():
        for _ in range(5):
            g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            f = linalg.iwasawa(g)
            if np.abs(f.reconstruct() - g).max() > 1e-10:
                return False
        u = linalg.k_factor(rng.normal(size=(4, 4)))
        return np.abs(linalg.k_factor(u) - u).max() < 1e-12

    def twist_suite():
        for n in (3, 4, 5):
            g = linalg.k_factor(positivity.sample_tp(n, rng))
            V = flagorbit.flag_from_matrix(g)
            W = flagorbit.twist_flag(flagorbit.twist_flag(V))
            if flagorbit.flag_distance(V, W) > 1e-8:
                return False
        return True

    def toda_suite():
        d = jacobi.moser_data([1.0, 0.0, -1.0], [1.0, 2.0, 0.5])
        P = jacobi.jacobi_from_moser(d)
        traj = toda.toda_ode(P, 1.0, samples=5, step=1e-3)
        res = max(np.abs(toda.toda_symes(P, float(t)).L - Q.L).max()
                  for t, Q in zip(traj.times, traj.points))
        return res < 1e-6 and toda.toda_twist_residual(P, 0.7) < 1e-7

    def ampli_suite():
        d = jacobi.moser_data([1.0, 0.0, -1.0], [1.0, 1.0, 1.0])
        zd = ampli.twisted_vdm_Z(d, 2, k=1)
        N = -jacobi.jacobi_from_moser(d).L
        return ampli.kernel_invariant(zd, N) and ampli.commutation_residual(zd, N, 1.0) < 1e-8

    suites = [("determinant-identities", det_identities),
              ("iwasawa", iwasawa_suite),
              ("twist-involution", twist_suite),
              ("toda-cross-check", toda_suite),
              ("amplituhedron-projection", ampli_suite)]
    return suites


def cmd_verify(args, out):
    failed = 0
    for name, suite in _verify_suites(args.seed):
        ok = suite()
        out.write(f"{name}: {'PASS' if ok else 'FAIL'}\n")
        failed += 0 if ok else 1
    return 1 if failed else 0


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                        help="verdict tolerance; flow error tolerance (default 1e-9)")
    common.add_argument("--step", type=float, default=argparse.SUPPRESS,
                        help="first step the adaptive flow integrator tries (default 1e-3)")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="RNG seed (default 0)")
    p = argparse.ArgumentParser(prog="orbitflow", parents=[common],
                                description="total positivity on adjoint orbits: "
                                            "positivity testers, twist maps, gradient flows, "
                                            "Toda dynamics, amplituhedra")
    p.set_defaults(tol=1e-9, step=1e-3, seed=0)
    sub = p.add_subparsers(dest="command", required=True, parser_class=lambda **kw:
                           argparse.ArgumentParser(parents=[common], **kw))

    q = sub.add_parser("positivity", help="matrix / flag / orbit positivity verdicts")
    q.add_argument("--kind", required=True, choices=["tp", "jacobi", "unitary", "plucker"])
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--K", default=None, help=_list_help("dimension set for plucker", "--K"))
    q.set_defaults(func=cmd_positivity)

    q = sub.add_parser("twist", help="iota / theta / theta-lambda / rev / rho")
    q.add_argument("--map", default="theta",
                   choices=["iota", "theta", "theta-lambda", "rev", "rho"])
    q.add_argument("--n", type=int, default=None, help="expected size (checked if given)")
    q.add_argument("--in", dest="infile", required=True)
    q.set_defaults(func=cmd_twist)

    q = sub.add_parser("cell", help="locate the Bruhat cell of a TNN flag")
    q.add_argument("--in", dest="infile", required=True)
    q.set_defaults(func=cmd_cell)

    q = sub.add_parser("flow", help="gradient flow trajectory (CSV)")
    q.add_argument("--metric", required=True, choices=list(flows.METRICS))
    q.add_argument("--N", default=None, help="driving matrix JSON file")
    q.add_argument("--lambda", dest="lam", default=None, help=_list_help("spectrum", "--lambda"))
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--t0", type=float, default=0.0)
    q.add_argument("--t1", type=float, required=True)
    q.add_argument("--samples", type=int, default=51)
    q.set_defaults(func=cmd_flow)

    q = sub.add_parser("toda", help="symmetric Toda flow")
    q.add_argument("--symes", action="store_true")
    q.add_argument("--ode", action="store_true")
    q.add_argument("--twist-check", dest="twist_check", action="store_true")
    q.add_argument("--limits", action="store_true")
    q.add_argument("--cross-check", dest="cross_check", action="store_true")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--t0", type=float, default=0.0)
    q.add_argument("--t1", type=float, default=5.0)
    q.add_argument("--t-max", dest="t_max", type=float, default=None)
    q.add_argument("--samples", type=int, default=11)
    q.set_defaults(func=cmd_toda)

    q = sub.add_parser("jacobi", help="Moser / flag reconstructions")
    q.add_argument("action", choices=["from-moser", "to-moser", "from-12flag"])
    q.add_argument("--lambda", dest="lam", default=None, help=_list_help("strictly decreasing spectrum", "--lambda"))
    q.add_argument("--x", default=None, help=_list_help("positive Moser variables", "--x"))
    q.add_argument("--in", dest="infile", default=None)
    q.set_defaults(func=cmd_jacobi)

    q = sub.add_parser("ampli", help="amplituhedron operations")
    q.add_argument("action", choices=["build-Z", "zmap", "project-N", "sample"])
    q.add_argument("--lambda", dest="lam", default=None, help=_list_help("strictly decreasing spectrum", "--lambda"))
    q.add_argument("--x", default=None, help=_list_help("positive Moser variables", "--x"))
    q.add_argument("--r", type=int, default=None)
    q.add_argument("--k", type=int, default=None)
    q.add_argument("--Z", default=None)
    q.add_argument("--V", default=None)
    q.add_argument("--N", default=None)
    q.add_argument("--count", type=int, default=10)
    q.set_defaults(func=cmd_ampli)

    q = sub.add_parser("verify", help="run the property suites")
    q.set_defaults(func=cmd_verify)
    return p


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for field in ("samples", "count"):
            if getattr(args, field, 1) < 1:
                raise LinalgError(f"field {field!r} must be >= 1, got {getattr(args, field)}")
        linalg.check_tol(args.tol)   # refused even where the subcommand reads no tol
        return args.func(args, out)
    except (LinalgError, DomainError, CertificationError, DriftError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:   # a defect, not bad input: report it without a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
