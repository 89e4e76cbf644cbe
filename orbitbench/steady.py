"""Steadiness check: run each workload repeatedly, one seed per run, and
report per end-to-end metric the median, the quartiles and the quartile
spread as a share of the median, against the bound in BENCHMARK.json.

    python3 orbitbench/steady.py [--runs 10] [--seed0 1]
                                 [--save set1.json] [--compare set0.json]

Run from the root of a checkout. Every workload of BENCHMARK.json runs for
its run_seconds. --save keeps the raw values; --compare checks each median
against an earlier saved set (worse by more than the bound fails). Exits 1
when a run is not correct, or a spread or a comparison exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def run_once(workload, seed, seconds):
    p = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                       capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {p.returncode}:\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None):
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args(argv)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    saved, bad = {}, 0
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in metrics}
        failed = attempted = 0
        t0 = time.monotonic()
        for i in range(args.runs):
            res = run_once(workload, args.seed0 + i, spec["run_seconds"])
            failed += res["failed"]
            attempted += res["attempted"]
            bad += int(not res["correct"])
            for name in metrics:
                values[name].append(res["metrics"][name]["value"])
        saved[workload] = values
        wall = (time.monotonic() - t0) / args.runs
        print(f"{workload}: {args.runs} runs of {wall:.1f} s wall each, failed {failed}/{attempted}")
        for name, m in metrics.items():
            med, q1, q3, spread = summary(values[name])
            verdict = "ok" if spread <= m["bound"] / 3 else "over bound/3"
            if spread > m["bound"]:
                verdict, bad = "OVER BOUND", bad + 1
            line = (f"  {name:16s} median {med:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
                    f"spread {spread:.4f} (bound {m['bound']}) {verdict}")
            if workload in earlier:
                before = statistics.median(earlier[workload][name])
                change = (med - before) / before * (1 if m["better"] == "lower" else -1)
                worse = change > m["bound"]
                bad += int(worse)
                line += f"  vs earlier median {before:.6g}: {'WORSE' if worse else 'ok'} ({change:+.4f})"
            print(line, flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
