"""orbitflow benchmark runner.

    python3 orbitbench/run.py --workload certify|boundary|flow --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src. Each
workload is a closed loop: one client in this process issues one operation at
a time, BLAS and OpenMP pinned to one thread. Every operation is checked
against an independent oracle after it is timed.

--trace 0 prints the end-to-end metrics. --trace 1 runs whole cycles of the
operations untraced for --seconds, then exactly one cycle traced, and prints
the per-layer metrics of that cycle (so counts repeat exactly for a seed) and
the tracing overhead. Human-readable lines come first; the last line of
stdout is the JSON result.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:   # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse   # noqa: E402
import json   # noqa: E402
import math   # noqa: E402
import platform   # noqa: E402
import resource   # noqa: E402
import statistics   # noqa: E402
import subprocess   # noqa: E402
import sys   # noqa: E402
from pathlib import Path   # noqa: E402
from time import perf_counter   # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_DIR = str(BENCH_DIR / "out")
SETUP_SAMPLES = 7      # fresh interpreters per run for setup_s
IMPORT_SAMPLES = 3     # fresh interpreters per traced run for cli.import_s
WALL_CAP = 3.0         # the loop stops after this many times --seconds of its own wall time
P90_MIN_BEYOND = 10    # p90 is reported only with this many samples above it


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def setup_sample(workload):
    """(import_s, warmup_s) from one fresh interpreter."""
    p = subprocess.run([sys.executable, str(BENCH_DIR / "probe.py"), workload],
                       cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120)
    if p.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{p.stderr}")
    rec = json.loads(p.stdout.strip().splitlines()[-1])
    return rec["import_s"], rec["warmup_s"]


class Loop:
    """Closed-loop client: issues the operations in order, cycling, and
    records latencies and failures."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.lat = []
        self.busy = 0.0    # summed operation time
        self.wall = 0.0    # summed wall time inside run(), oracle checks included
        self.failed = self.wrong = 0
        self.messages = {}

    def run(self, seconds, whole_cycles=False, max_cycles=None):
        """Go on until the summed operation time since the first call reaches
        `seconds` and at least one whole cycle is done (with whole_cycles, to
        the end of a cycle), or stop after max_cycles cycles in all. Past the
        first cycle, also stop once the loop's own wall time reaches WALL_CAP
        times `seconds`."""
        start = perf_counter() - self.wall
        m = len(self.ops)
        limit = max_cycles * m if max_cycles else None
        while self.attempted != limit:
            i = self.attempted
            done = self.busy >= seconds and (not whole_cycles or i % m == 0)
            if i >= m and (done or perf_counter() - start >= WALL_CAP * seconds):
                break
            self.busy += self.step(self.ops[i % m], i)
        self.wall = perf_counter() - start

    @property
    def correct(self):
        """No operation failed (a wrong answer is a failure too)."""
        return not self.failed

    def rate(self):
        """Operations completed per second of operation time."""
        return self.attempted / self.busy

    def best_rate(self):
        """Operations per second at each operation's best latency: the
        operations of a cycle over the sum of the fastest latency of each.
        The shared machine only ever adds time to an operation, and does so
        in phases of seconds, so the fastest of an operation's repetitions
        spread over the run is the steadiest estimate of its cost."""
        m = len(self.ops)
        return m / sum(min(self.lat[j::m]) for j in range(m))

    def step(self, op, i):
        import workloads
        span = self.tracer.begin_op(i, op.kind) if self.tracer else None
        t0 = perf_counter()
        err = None
        try:
            res = op.run()
        except Exception as exc:   # counted as a failed operation, never dropped
            err = exc
        dt = perf_counter() - t0
        if self.tracer:
            self.tracer.end_op(span, int(err is None))
        self.lat.append(dt)
        if err is None:
            try:
                op.check(res)
            except workloads.WrongAnswer as exc:
                err = exc
                self.wrong += 1
        if err is not None:
            self.failed += 1
            msg = f"{op.kind}{f' n={op.n}' if op.n else ''}: {type(err).__name__}: {err}"
            self.messages[msg] = self.messages.get(msg, 0) + 1
        return dt

    @property
    def attempted(self):
        return len(self.lat)


def quantile_ms(lat, q):
    s = sorted(lat)
    return 1e3 * s[min(len(s) - 1, int(q * len(s)))]


def environment():
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def say(line):
    print(line, flush=True)


def end_to_end(args, ops):
    import workloads
    workloads.warmup(ops)
    loop = Loop(ops)
    setup = []
    for k in range(1, SETUP_SAMPLES + 1):   # probes spread over the run, between operations
        setup.append(setup_sample(args.workload))
        loop.run(args.seconds * k / SETUP_SAMPLES, whole_cycles=k == SETUP_SAMPLES)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(a + b for a, b in setup)
    n = loop.attempted
    metrics = {
        "best_ops_per_s": (loop.best_rate(), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    say(f"samples {n}; setup per interpreter (import_s, warmup_s): "
        + ", ".join(f"({a:.4f}, {b:.4f})" for a, b in setup))
    say(f"ops_per_s {loop.rate():.6g} 1/s ({n} samples)")
    say(f"latency_p50_ms {1e3 * statistics.median(loop.lat):.4f} ms ({n} samples)")
    beyond = n - int(0.9 * n) - 1
    if beyond >= P90_MIN_BEYOND:
        say(f"latency_p90_ms {quantile_ms(loop.lat, 0.9):.4f} ms ({n} samples, {beyond} beyond)")
    else:
        say(f"latency_p90_ms omitted: {n} samples leave {beyond} beyond p90 (< {P90_MIN_BEYOND})")
    say(f"fail_ratio {loop.failed / n:.6f} ({loop.failed}/{n}); wrong answers {loop.wrong}")
    return [loop], metrics


def traced(args, ops):
    import tracing
    import workloads
    workloads.warmup(ops)
    plain = Loop(ops)
    plain.run(args.seconds, whole_cycles=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:   # one cycle: every count then repeats exactly for a given seed
        loop = Loop(ops, tracer)
        loop.run(math.inf, max_cycles=1)
    finally:
        tracer.uninstall()
    os.makedirs(WORK_DIR, exist_ok=True)
    tracer.save(os.path.join(WORK_DIR, f"spans-{args.workload}.npz"))
    metrics = {name: (value, unit) for name, (unit, value) in tracer.layer_metrics().items()}
    imports = [setup_sample("cli")[0] for _ in range(IMPORT_SAMPLES)]
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    metrics["trace.overhead_ratio"] = (loop.rate() / plain.rate(), "ratio")
    say(f"traced {loop.attempted} ops, untraced {plain.attempted}; {len(tracer.start)} spans")
    return [plain, loop], metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["certify", "boundary", "flow"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "orbitflow" / "__init__.py").is_file():
        print(f"error: no orbitflow package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    say("env " + json.dumps(environment(), sort_keys=True))
    say(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    ops = workloads.build(args.workload, args.seed)
    loops, metrics = (traced if args.trace else end_to_end)(args, ops)
    for name, (value, unit) in metrics.items():
        say(f"{name} {value:.6g} {unit}")
    for loop in loops:
        for msg, count in loop.messages.items():
            print(f"failure x{count}: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": all(loop.correct for loop in loops),
        "attempted": sum(loop.attempted for loop in loops),
        "failed": sum(loop.failed for loop in loops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
