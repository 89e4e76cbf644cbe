"""JSON and CSV encodings shared by every module and the command line.

Matrix JSON: {"rows": n, "cols": m, "data": [[re, im], ...]} with data listed
row-major. Floats serialize with Python's shortest round-trip repr; keys are
sorted, so equal objects produce byte-identical output.
"""

import json

import numpy as np

from . import ampli, flagorbit
from .errors import LinalgError


def as_int(value, what):
    """value as an int if it is one exactly (3, 3.0, "3"), else LinalgError (1.5, "a", nan)."""
    try:
        out = int(value)
        if out != value and not isinstance(value, str):
            raise ValueError(f"{value!r} is not an integer")
    except (TypeError, ValueError, OverflowError) as exc:
        raise LinalgError(f"{what} must be an integer: {exc}")
    return out


def as_floats(text, what):
    """A comma-separated list of floats, else LinalgError ("1,,2", "1,", "a")."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise LinalgError(f"{what} must be a comma-separated float list: {exc}")


def matrix_to_json(A):
    A = np.asarray(A, dtype=complex)
    return {
        "rows": int(A.shape[0]),
        "cols": int(A.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in A.reshape(-1)],
    }


def matrix_from_json(obj):
    for field in ("rows", "cols", "data"):
        if not isinstance(obj, dict) or field not in obj:
            raise LinalgError(f"matrix JSON missing field {field!r}")
    rows, cols = (as_int(obj[f], f"matrix JSON field {f!r}") for f in ("rows", "cols"))
    data = obj["data"]
    if min(rows, cols) < 0 or not isinstance(data, list):
        raise LinalgError("matrix JSON needs 'rows' and 'cols' >= 0 and a list in 'data'")
    if len(data) != rows * cols:
        raise LinalgError(f"matrix JSON field 'data' has {len(data)} entries, expected {rows * cols}")
    try:
        flat = np.array([complex(re, im) for re, im in data])
    except (TypeError, ValueError) as exc:
        raise LinalgError(f"matrix JSON field 'data' must hold [re, im] pairs: {exc}")
    return flat.reshape(rows, cols)


def flag_to_json(V):
    return {"n": int(V.n), "K": [int(k) for k in V.K], "rep": matrix_to_json(V.rep)}


def flag_from_json(obj):
    for field in ("n", "K", "rep"):
        if not isinstance(obj, dict) or field not in obj:
            raise LinalgError(f"flag JSON missing field {field!r}")
    if not isinstance(obj["K"], list):
        raise LinalgError("flag JSON field 'K' must be a list of integers")
    K = [as_int(k, "flag JSON field 'K'") for k in obj["K"]]
    return flagorbit.flag_from_matrix(matrix_from_json(obj["rep"]), K=K)


def orbit_to_json(P):
    return {"lambda": [float(x) for x in P.lam], "L": matrix_to_json(P.L)}


def orbit_from_json(obj):
    for field in ("lambda", "L"):
        if not isinstance(obj, dict) or field not in obj:
            raise LinalgError(f"orbit JSON missing field {field!r}")
    return flagorbit.orbit_point(matrix_from_json(obj["L"]), lam=obj["lambda"])


def moser_to_json(d):
    return {"lambda": [float(x) for x in d.lam], "x": [float(x) for x in d.x]}


def zdata_to_json(zd):
    return {"n": int(zd.n), "k": int(zd.k), "m": int(zd.m), "Z": matrix_to_json(zd.Z)}


def zdata_from_json(obj):
    for field in ("n", "k", "m", "Z"):
        if not isinstance(obj, dict) or field not in obj:
            raise LinalgError(f"Z JSON missing field {field!r}")
    n, k, m = (as_int(obj[f], f"Z JSON field {f!r}") for f in ("n", "k", "m"))
    zd = ampli.make_zdata(matrix_from_json(obj["Z"]), k)
    if zd.n != n or zd.m != m:
        raise LinalgError("Z JSON fields 'n'/'m' are inconsistent with the matrix shape")
    return zd


def verdict_to_json(v):
    out = {"status": v.status, "tol": float(v.tol)}
    if v.witness is not None:
        out["witness"] = {
            "rows": [int(i) for i in v.witness.rows],
            "cols": [int(j) for j in v.witness.cols],
            "value": float(v.witness.value),
        }
    if v.note:
        out["note"] = v.note
    return out


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ": "))


def _csv_lines(first, name, firsts, stack):
    """A header, then one row per matrix of the stack: its first field, then the
    re/im parts of the matrix row-major (headers name_re[i][j], name_im[i][j],
    0-based), each as Python's shortest repr."""
    stack = np.asarray(stack, dtype=complex)
    r, c = stack.shape[1:]
    yield ",".join([first] + [f"{name}_{p}[{i}][{j}]" for i in range(r) for j in range(c) for p in ("re", "im")])
    for f, row in zip(firsts, stack.reshape(len(stack), -1).view(float).tolist()):
        yield ",".join([f, *map(repr, row)])


def trajectory_csv_lines(traj):
    """CSV rows: t, then interleaved re/im of L row-major (0-based headers)."""
    return _csv_lines("t", "L", [repr(float(t)) for t in traj.times], traj.L)


def samples_csv_lines(samples):
    """CSV rows of flattened (k+m) x k representatives, one sample per row."""
    return _csv_lines("idx", "V", [str(idx) for idx in range(len(samples))], samples)
