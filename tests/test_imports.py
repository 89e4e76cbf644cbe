"""orbitflow imports only numpy: scipy loads on the first call of the one
function that needs it, ampli.in_conic_hull, and `orbitflow verify` does not
call it."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = r"""
import json, sys
import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import orbitflow
after_package = scipy_modules()
import orbitflow.cli
after_cli = scipy_modules()
from orbitflow import ampli
hull = [ampli.in_conic_hull([1.0, 2.0], np.eye(2)), ampli.in_conic_hull([1.0, -2.0], np.eye(2))]
print(json.dumps({"after_package": after_package, "after_cli": after_cli,
                  "hull": hull, "scipy_after_calls": "scipy.optimize" in sys.modules}))
"""


def test_import_loads_no_scipy_and_lazy_calls_work():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    got = json.loads(res.stdout)
    assert got["after_package"] == [] and got["after_cli"] == []
    assert got["hull"] == [True, False]
    assert got["scipy_after_calls"]


VERIFY_CHILD = r"""
import io, json, sys
from orbitflow.cli import main

buf = io.StringIO()
rc = main(["verify"], out=buf)
print(json.dumps({"rc": rc, "out": buf.getvalue(),
                  "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def test_verify_passes_without_loading_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", VERIFY_CHILD], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    got = json.loads(res.stdout)
    assert got["rc"] == 0
    lines = got["out"].splitlines()
    assert len(lines) == 5 and all(line.endswith(": PASS") for line in lines)
    assert got["scipy"] == []
