"""orbitflow imports only numpy: scipy loads on the first call of the two
functions that need it, linalg.mat_exp and ampli.in_conic_hull, and
`orbitflow verify` calls neither."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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
from orbitflow import ampli, linalg
t = 0.77
E = linalg.mat_exp(1j * t * np.array([[0.0, 1], [1, 0]]))
hull = [ampli.in_conic_hull([1.0, 2.0], np.eye(2)), ampli.in_conic_hull([1.0, -2.0], np.eye(2))]
print(json.dumps({"after_package": after_package, "after_cli": after_cli,
                  "E": [[z.real, z.imag] for z in E.reshape(-1).tolist()], "hull": hull,
                  "scipy_after_calls": "scipy.linalg" in sys.modules and "scipy.optimize" in sys.modules}))
"""


def test_import_loads_no_scipy_and_lazy_calls_work():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    got = json.loads(res.stdout)
    assert got["after_package"] == [] and got["after_cli"] == []
    t = 0.77
    E = np.array([complex(re, im) for re, im in got["E"]]).reshape(2, 2)
    expected = np.array([[np.cos(t), 1j * np.sin(t)], [1j * np.sin(t), np.cos(t)]])
    assert np.abs(E - expected).max() < 1e-12
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
