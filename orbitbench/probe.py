"""One set-up sample, in a fresh interpreter started by run.py.

Prints one JSON line: the import time of what the workload calls and the
time of its warm-up, one operation of each kind. Only the operations are
timed: building their inputs is the benchmark's own work, and their results
are checked in the run itself. The inputs come from one fixed seed, so the
figure does not depend on the run's seed. With `cli` in place of a workload
it times only the import of orbitflow.cli, which every CLI process pays.

    python3 orbitbench/probe.py certify|boundary|flow|cli
"""

import json
import sys
from time import perf_counter

SETUP_SEED = 0


def main():
    workload = sys.argv[1]
    t0 = perf_counter()
    if workload == "cli":
        import orbitflow.cli   # noqa: F401
    else:
        import orbitflow   # noqa: F401
    import_s = perf_counter() - t0
    warmup_s = 0.0
    if workload != "cli":
        import workloads
        warmup_s = workloads.warmup(workloads.build(workload, SETUP_SEED))
    print(json.dumps({"import_s": import_s, "warmup_s": warmup_s}))


if __name__ == "__main__":
    main()
