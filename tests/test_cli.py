import io as sio
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from orbitflow import flows
from orbitflow import io as oio
from orbitflow.cli import main


def run_cli(argv):
    buf = sio.StringIO()
    rc = main(argv, out=buf)
    return rc, buf.getvalue()


def write_matrix(tmp_path, name, A):
    path = tmp_path / name
    path.write_text(json.dumps(oio.matrix_to_json(np.asarray(A, dtype=complex))))
    return str(path)


def intro_matrix():
    s3, s2 = np.sqrt(3), np.sqrt(2)
    return np.array([[s3 / 2, -1 / (2 * s2), 1 / (2 * s2)],
                     [s3 / 4, 1 / (4 * s2), -5 / (4 * s2)],
                     [1 / 4, 3 * s3 / (4 * s2), s3 / (4 * s2)]])


def test_twist_intro_golden(tmp_path):
    path = write_matrix(tmp_path, "intro.json", intro_matrix())
    rc, out = run_cli(["twist", "--map", "theta", "--n", "3", "--in", path])
    assert rc == 0
    rep = oio.matrix_from_json(json.loads(out)["rep"])
    s3, s2 = np.sqrt(3), np.sqrt(2)
    target = np.array([[s3 / 2, -s3 / 4, 1 / 4],
                       [1 / (2 * s2), 1 / (4 * s2), -3 * s3 / (4 * s2)],
                       [1 / (2 * s2), 5 / (4 * s2), s3 / (4 * s2)]])
    assert np.abs(np.real(rep) - target).max() < 1e-8


def test_flow_echo_at_t1_zero(tmp_path):
    path = write_matrix(tmp_path, "L0.json", 1j * np.array([[0.0, 1], [1, 0]]))
    # no --N: the driver defaults to zero and the flow is constant
    rc, out = run_cli(["flow", "--metric", "kahler", "--lambda", "1,-1",
                       "--in", path, "--t1", "0", "--samples", "3"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("t,L_re[0][0],L_im[0][0]")
    assert len(lines) == 4
    row = [float(x) for x in lines[1].split(",")]
    assert abs(row[0]) == 0.0
    assert abs(row[4] - 1.0) < 1e-12   # L_im[0][1] = 1


def test_toda_cross_check(tmp_path):
    path = write_matrix(tmp_path, "L0.json", 1j * np.array([[0.0, 1], [1, 0]]))
    rc, out = run_cli(["toda", "--ode", "--symes", "--cross-check",
                       "--in", path, "--t1", "2", "--samples", "5"])
    assert rc == 0
    assert json.loads(out)["max_residual"] < 1e-6


def test_positivity_exit_codes(tmp_path):
    good = write_matrix(tmp_path, "tp.json", [[1.0, 2, 1], [1, 3, 2], [1, 4, 4]])
    rc, out = run_cli(["positivity", "--kind", "tp", "--in", good])
    assert rc == 0 and json.loads(out)["status"] == "positive"
    bad = write_matrix(tmp_path, "bad.json", [[1.0, -2], [3, 4]])
    rc, out = run_cli(["positivity", "--kind", "tp", "--in", bad])
    assert rc == 1 and json.loads(out)["status"] == "outside"


def test_positivity_accepts_orbit_and_flag_json(tmp_path):
    rc, out = run_cli(["jacobi", "from-moser", "--lambda", "1,0,-1", "--x", "1,2,0.5"])
    opath = tmp_path / "orbit.json"
    opath.write_text(out)
    rc, out = run_cli(["positivity", "--kind", "jacobi", "--in", str(opath)])
    assert rc == 0 and json.loads(out)["status"] == "positive"
    rc, out = run_cli(["positivity", "--kind", "unitary", "--in", str(opath)])
    assert rc == 0 and json.loads(out)["status"] == "positive"
    rep = intro_matrix()
    fpath = tmp_path / "flag.json"
    fpath.write_text(json.dumps({"n": 3, "K": [1, 2],
                                 "rep": oio.matrix_to_json(rep.astype(complex))}))
    rc, out = run_cli(["positivity", "--kind", "unitary", "--in", str(fpath)])
    assert rc == 0 and json.loads(out)["status"] == "positive"


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": 2, "cols": 2}')
    rc, _ = run_cli(["positivity", "--kind", "tp", "--in", str(path)])
    assert rc == 2
    path.write_text("not json at all")
    rc, _ = run_cli(["positivity", "--kind", "tp", "--in", str(path)])
    assert rc == 2


def test_dimension_mismatch_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "data": [[1, 0], [0, 0], [0, 0]]}))
    rc, _ = run_cli(["positivity", "--kind", "tp", "--in", str(path)])
    assert rc == 2


def test_jacobi_roundtrip_and_determinism(tmp_path):
    rc1, out1 = run_cli(["jacobi", "from-moser", "--lambda", "1,0,-1", "--x", "1,1,1"])
    rc2, out2 = run_cli(["jacobi", "from-moser", "--lambda", "1,0,-1", "--x", "1,1,1"])
    assert rc1 == rc2 == 0
    assert out1 == out2   # byte-identical output
    orbit = json.loads(out1)
    path = tmp_path / "orbit.json"
    path.write_text(json.dumps(orbit))
    rc, out = run_cli(["jacobi", "to-moser", "--in", str(path)])
    assert rc == 0
    back = json.loads(out)
    assert_allclose(back["x"], np.full(3, 1 / np.sqrt(3)), atol=1e-9)


def test_jacobi_from_12flag(tmp_path):
    # V1 = span(1,1,1), V2 = V1 + span(1,0,-1): the running-sum formulas give
    # a = (1, 1) and b = (-1, -2, -1)
    rep = np.column_stack([np.full(3, 1 / np.sqrt(3)),
                           np.array([1.0, 0, -1]) / np.sqrt(2),
                           np.array([1.0, -2, 1]) / np.sqrt(6)])
    flag = {"n": 3, "K": [1, 2], "rep": oio.matrix_to_json(rep.astype(complex))}
    path = tmp_path / "flag.json"
    path.write_text(json.dumps(flag))
    rc, out = run_cli(["jacobi", "from-12flag", "--in", str(path)])
    assert rc == 0
    L = oio.matrix_from_json(json.loads(out)["L"])
    expect = np.array([[-1.0, 1, 0], [1, -2, 1], [0, 1, -1]])
    assert np.abs(np.real(-1j * L) - expect).max() < 1e-9


def test_ampli_pipeline(tmp_path):
    rc, out = run_cli(["ampli", "build-Z", "--lambda", "1,0,-1", "--x", "1,1,1",
                       "--r", "2", "--k", "1"])
    assert rc == 0
    zpath = tmp_path / "Z.json"
    zpath.write_text(out)
    vpath = write_matrix(tmp_path, "V.json", np.array([[1.0], [1.0], [1.0]]))
    rc, out = run_cli(["ampli", "zmap", "--Z", str(zpath), "--V", vpath])
    assert rc == 0
    rc, out = run_cli(["ampli", "sample", "--Z", str(zpath), "--count", "3", "--seed", "7"])
    assert rc == 0
    assert len(out.strip().split("\n")) == 4
    rc2, out2 = run_cli(["ampli", "sample", "--Z", str(zpath), "--count", "3", "--seed", "7"])
    assert out == out2


def test_toda_twist_check_and_limits(tmp_path):
    rc, out = run_cli(["jacobi", "from-moser", "--lambda", "1,0,-1", "--x", "1,2,0.5"])
    path = tmp_path / "orbit.json"
    path.write_text(out)
    rc, out = run_cli(["toda", "--twist-check", "--in", str(path),
                       "--t1", "2", "--samples", "5"])
    assert rc == 0 and json.loads(out)["max_twist_residual"] < 1e-7
    rc, out = run_cli(["toda", "--limits", "--in", str(path)])
    assert rc == 0
    fwd = oio.matrix_from_json(json.loads(out)["forward"]["L"])
    assert np.abs(np.imag(np.diag(fwd)) - np.array([1.0, 0.0, -1.0])).max() < 1e-4


def test_twist_iota_rev_rho(tmp_path):
    path = write_matrix(tmp_path, "g.json", intro_matrix())
    rc, out = run_cli(["twist", "--map", "iota", "--in", path])
    assert rc == 0
    got = oio.matrix_from_json(json.loads(out))
    d = np.diag([1.0, -1.0, 1.0])
    assert np.abs(got - d @ np.linalg.inv(intro_matrix()) @ d).max() < 1e-10
    for mp in ("rev", "rho"):
        rc, out = run_cli(["twist", "--map", mp, "--in", path])
        assert rc == 0 and json.loads(out)["n"] == 3


def test_flow_normal_metric(tmp_path):
    lpath = write_matrix(tmp_path, "L0.json", 1j * np.array([[0.0, 1], [1, 0]]))
    npath = write_matrix(tmp_path, "N.json", -1j * np.diag([1.0, -1.0]))
    rc, out = run_cli(["flow", "--metric", "normal", "--N", npath, "--in", lpath,
                       "--t1", "0.5", "--samples", "3"])
    assert rc == 0
    last = [float(x) for x in out.strip().split("\n")[-1].split(",")]
    # normal = Kahler at (lam1 - lam2) t = 2t on this rank-one orbit
    assert abs(last[2] - np.tanh(2.0)) < 1e-6   # L_im[0][0] at t = 0.5


def test_ampli_project_N(tmp_path):
    rc, zout = run_cli(["ampli", "build-Z", "--lambda", "1,0,-1", "--x", "1,1,1",
                        "--r", "2", "--k", "1"])
    zpath = tmp_path / "Z.json"
    zpath.write_text(zout)
    rc, jout = run_cli(["jacobi", "from-moser", "--lambda", "1,0,-1", "--x", "1,1,1"])
    NJ = -oio.matrix_from_json(json.loads(jout)["L"])
    npath = write_matrix(tmp_path, "N.json", NJ)
    rc, out = run_cli(["ampli", "project-N", "--Z", str(zpath), "--N", npath])
    assert rc == 0
    M = oio.matrix_from_json(json.loads(out))
    assert M.shape == (2, 2)
    assert np.abs(M + M.conj().T).max() < 1e-12


def test_cell_command(tmp_path):
    path = write_matrix(tmp_path, "g.json", [[0.7, -1, 0], [0, 0, -1], [1, 0, 0]])
    rc, out = run_cli(["cell", "--in", path])
    assert rc == 0
    assert json.loads(out) == {"v": [1, 3, 2], "w": [3, 1, 2]}


def test_verify_passes():
    rc, out = run_cli(["verify"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5 and all(line.endswith("PASS") for line in lines)


def assert_malformed(capsys, argv):
    rc, out = run_cli(argv)
    err = capsys.readouterr().err
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_bad_matrix_dimensions_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for rows, data in (("x", [[1, 0]] * 4), (-1, [[1, 0]] * 2), (2, 4)):
        path.write_text(json.dumps({"rows": rows, "cols": -2 if rows == -1 else 2, "data": data}))
        assert_malformed(capsys, ["positivity", "--kind", "tp", "--in", str(path)])


def test_non_integer_flag_K_exits_2(tmp_path, capsys):
    path = tmp_path / "flag.json"
    path.write_text(json.dumps({"n": 3, "K": ["a"],
                                "rep": oio.matrix_to_json(intro_matrix().astype(complex))}))
    assert_malformed(capsys, ["twist", "--map", "theta", "--in", str(path)])


def test_zero_samples_exits_2(tmp_path, capsys):
    path = write_matrix(tmp_path, "L0.json", 1j * np.array([[0.0, 1], [1, 0]]))
    assert_malformed(capsys, ["toda", "--in", path, "--samples", "0"])
    assert_malformed(capsys, ["flow", "--metric", "kahler", "--lambda", "1,-1", "--in", path,
                              "--t1", "1", "--samples", "0"])


def test_overflowing_minors_exit_2(tmp_path, capsys):
    path = write_matrix(tmp_path, "big.json", np.array([[1.0, 2, 1], [1, 3, 4], [1, 4, 6]]) * 1e120)
    assert_malformed(capsys, ["positivity", "--kind", "tp", "--in", path])


def test_stray_exception_exits_3(tmp_path, capsys, monkeypatch):
    from orbitflow import cli

    def broken(args, out):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_positivity", broken)
    rc, out = run_cli(["positivity", "--kind", "tp", "--in", write_matrix(tmp_path, "a.json", np.eye(2))])
    err = capsys.readouterr().err
    assert rc == 3 and out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_flow_driver_size_mismatch_exits_2(tmp_path, capsys):
    path = write_matrix(tmp_path, "L0.json", 1j * np.array([[0.0, 1], [1, 0]]))
    N = write_matrix(tmp_path, "N.json", 1j * np.eye(3))
    for metric in ("kahler", "normal", "induced"):
        assert_malformed(capsys, ["flow", "--metric", metric, "--lambda", "1,-1", "--in", path,
                                  "--N", N, "--t1", "0.1", "--samples", "3"])


def test_zero_or_nan_step_exits_2(tmp_path, capsys):
    path = write_matrix(tmp_path, "L0.json", 1j * np.array([[0.0, 1], [1, 0]]))
    N = write_matrix(tmp_path, "N.json", 1j * np.array([[0.0, 1], [1, 0]]))
    for step in ("0", "nan"):
        assert_malformed(capsys, ["toda", "--ode", "--in", path, "--t1", "1", "--step", step])
        for metric in ("normal", "induced"):
            assert_malformed(capsys, ["flow", "--metric", metric, "--in", path, "--N", N,
                                      "--t1", "1", "--samples", "3", "--step", step])


def test_negative_or_infinite_step_exits_2(tmp_path, capsys):
    path = write_matrix(tmp_path, "L0.json", 1j * np.array([[0.0, 1], [1, 0]]))
    N = write_matrix(tmp_path, "N.json", 1j * np.array([[0.0, 1], [1, 0]]))
    for step in ("-0.1", "inf"):
        assert_malformed(capsys, ["flow", "--metric", "normal", "--in", path, "--N", N,
                                  "--t1", "1", "--samples", "3", "--step", step])


def test_non_finite_times_exit_2(tmp_path, capsys):
    path = write_matrix(tmp_path, "L0.json", 1j * np.array([[0.0, 1], [1, 0]]))
    for t1 in ("nan", "inf"):
        assert_malformed(capsys, ["toda", "--symes", "--in", path, "--t1", t1])
        assert_malformed(capsys, ["toda", "--twist-check", "--in", path, "--t1", t1])
        assert_malformed(capsys, ["toda", "--limits", "--in", path, "--t-max", t1])
        for metric in flows.METRICS:
            assert_malformed(capsys, ["flow", "--metric", metric, "--lambda", "1,-1", "--in", path,
                                      "--t1", t1, "--samples", "3"])


def assert_refused_at_once(capsys, argv):
    start = time.perf_counter()
    assert_malformed(capsys, argv)
    assert time.perf_counter() - start < 1.0


def jacobi_path(tmp_path):
    return write_matrix(tmp_path, "J.json", 1j * np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0]]))


def test_symes_time_beyond_chunk_cap_exits_2(tmp_path, capsys):
    assert_refused_at_once(capsys, ["toda", "--in", jacobi_path(tmp_path),
                                    "--t1", "1e15", "--samples", "3"])


def test_kahler_time_beyond_chunk_cap_exits_2(tmp_path, capsys):
    path = jacobi_path(tmp_path)
    assert_refused_at_once(capsys, ["flow", "--metric", "kahler", "--in", path, "--N", path,
                                    "--t1", "1e15", "--samples", "3"])


def test_limits_time_beyond_chunk_cap_exits_2(tmp_path, capsys):
    assert_refused_at_once(capsys, ["toda", "--limits", "--in", jacobi_path(tmp_path),
                                    "--t-max", "1e15"])


def test_missing_jacobi_options_exit_2(capsys):
    assert_malformed(capsys, ["jacobi", "from-moser", "--x", "1,2,0.5"])
    assert_malformed(capsys, ["jacobi", "from-moser", "--lambda", "1,0,-1"])
    assert_malformed(capsys, ["jacobi", "to-moser"])
    assert_malformed(capsys, ["jacobi", "from-12flag"])


def test_missing_ampli_options_exit_2(tmp_path, capsys):
    assert_malformed(capsys, ["ampli", "build-Z", "--lambda", "1,0,-1", "--x", "1,1,1"])
    for action in ("zmap", "project-N", "sample"):
        assert_malformed(capsys, ["ampli", action])
    rc, out = run_cli(["ampli", "build-Z", "--lambda", "1,0,-1", "--x", "1,1,1", "--r", "2", "--k", "1"])
    zpath = tmp_path / "Z.json"
    zpath.write_text(out)
    assert_malformed(capsys, ["ampli", "zmap", "--Z", str(zpath)])
    assert_malformed(capsys, ["ampli", "project-N", "--Z", str(zpath)])
    assert_malformed(capsys, ["ampli", "sample", "--Z", str(zpath), "--count", "0"])


def test_non_integer_rows_with_n_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rows": "x", "cols": 3, "data": [[1, 0]] * 9}))
    for kind in ("theta", "iota"):
        assert_malformed(capsys, ["twist", "--map", kind, "--n", "3", "--in", str(path)])


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_tol_not_finite_and_positive_exits_2(tmp_path, capsys, tol):
    eye = write_matrix(tmp_path, "eye.json", np.eye(2))
    cell = write_matrix(tmp_path, "g.json", [[0.7, -1, 0], [0, 0, -1], [1, 0, 0]])
    L0 = write_matrix(tmp_path, "L0.json", 1j * np.array([[0.0, 1], [1, 0]]))
    N = write_matrix(tmp_path, "N.json", 1j * np.array([[0.0, 1], [1, 0]]))
    for kind in ("tp", "jacobi", "unitary"):
        assert_malformed(capsys, ["positivity", "--kind", kind, "--in", eye, "--tol", tol])
    assert_malformed(capsys, ["positivity", "--kind", "plucker", "--K", "1", "--in", eye, "--tol", tol])
    assert_malformed(capsys, ["cell", "--in", cell, "--tol", tol])
    for metric in flows.METRICS:
        assert_malformed(capsys, ["flow", "--metric", metric, "--in", L0, "--N", N,
                                  "--t1", "1", "--samples", "3", "--tol", tol])
    assert_malformed(capsys, ["toda", "--ode", "--in", L0, "--t1", "1", "--tol", tol])


def test_malformed_orbit_lambda_exits_2(tmp_path, capsys):
    L = oio.matrix_to_json(1j * np.array([[0.0, 1], [1, 0]]))
    path = tmp_path / "orbit.json"
    for lam in ("x", [[1], [1]], [[1], [-1]], [1.0], [1.0, "nan"], {"a": 1}):
        path.write_text(json.dumps({"lambda": lam, "L": L}))
        assert_malformed(capsys, ["toda", "--in", str(path), "--t1", "1", "--samples", "3"])
        assert_malformed(capsys, ["flow", "--metric", "kahler", "--in", str(path),
                                  "--t1", "1", "--samples", "3"])


@pytest.mark.parametrize("K", ["nan", "inf", "1.5", "1,2.0", "1e0"])
def test_non_integer_plucker_K_exits_2(tmp_path, capsys, K):
    eye = write_matrix(tmp_path, "eye.json", np.eye(3))
    assert_malformed(capsys, ["positivity", "--kind", "plucker", "--K", K, "--in", eye])


def test_non_integer_Z_fields_exit_2(tmp_path, capsys):
    rc, out = run_cli(["ampli", "build-Z", "--lambda", "1,0,-1", "--x", "1,1,1", "--r", "2", "--k", "1"])
    assert rc == 0
    V = write_matrix(tmp_path, "V.json", np.ones((3, 1)))
    zpath = tmp_path / "Z.json"
    for field, value in (("k", "a"), ("k", None), ("k", 1.5), ("n", "a"), ("m", [1])):
        zpath.write_text(json.dumps({**json.loads(out), field: value}))
        assert_malformed(capsys, ["ampli", "sample", "--Z", str(zpath), "--count", "1"])
        assert_malformed(capsys, ["ampli", "zmap", "--Z", str(zpath), "--V", V])


def test_flow_lambda_checked_against_orbit_json(tmp_path, capsys):
    rc, out = run_cli(["jacobi", "from-moser", "--lambda", "1,0,-1", "--x", "1,2,0.5"])
    path = tmp_path / "orbit.json"
    path.write_text(out)
    for metric in ("kahler", "normal"):
        assert_malformed(capsys, ["flow", "--metric", metric, "--lambda", "1,0", "--in", str(path),
                                  "--t1", "1", "--samples", "3"])
    argv = ["flow", "--metric", "kahler", "--in", str(path), "--t1", "1", "--samples", "3"]
    assert run_cli(argv) == run_cli(argv[:3] + ["--lambda", "1,0,-1"] + argv[3:])


@pytest.mark.parametrize("field", ["1,,0,-1", "1,0,-1,", ",1,0,-1"])
def test_empty_list_field_exits_2(tmp_path, capsys, field):
    eye = write_matrix(tmp_path, "eye.json", np.eye(3))
    for argv, why in (
            (["jacobi", "from-moser", "--lambda", field, "--x", "1,1,1,1"], "float list"),
            (["jacobi", "from-moser", "--lambda", "1,0,-1,-2", "--x", field.replace("-", "")], "float list"),
            (["ampli", "build-Z", "--lambda", field, "--x", "1,1,1,1", "--r", "2"], "float list"),
            (["flow", "--metric", "kahler", "--lambda", field, "--in", eye, "--t1", "1"], "float list"),
            (["positivity", "--kind", "plucker", "--K", field.replace("-1", "2"), "--in", eye], "integer")):
        rc, out = run_cli(argv)
        err = capsys.readouterr().err
        assert rc == 2 and out == "" and err.startswith("error: ")
        assert why in err and "''" in err, err


def fresh_cli(*argv):
    """One CLI run in a fresh interpreter, so that a RuntimeWarning on the way shows on stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "orbitflow.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("lam, x, cause", [
    ("1", "1", "need at least 2 eigenvalues"),
    ("1e308,0,-1e308", "1,1,1", "spectral diameter is inf"),
    ("nan,0,-1", "1,1,1", "spectral diameter is nan"),
    ("1,0,-1", "nan,1,1", "x must be finite and strictly positive"),
    ("1.5e308,1e308", "1,1", "lam_1 + lam_n = 1.5e+308 + 1e+308 overflows"),
])
def test_moser_edge_cases_print_one_error_line(lam, x, cause):
    for argv in (["jacobi", "from-moser"], ["ampli", "build-Z", "--r", "1"]):
        res = fresh_cli(*argv, "--lambda", lam, "--x", x)
        assert res.returncode == 2 and res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and cause in lines[0], res.stderr


def test_jacobi_that_overflows_prints_one_error_line():
    """The spectrum passes moser_data, but the Jacobi matrix's entries near
    1.7e308 overflow when its skew part doubles them: refused by name. The
    Z build never forms that matrix, and a 2 x 2 one stays in range."""
    res = fresh_cli("jacobi", "from-moser", "--lambda=1.7e308,1e308,0", "--x", "1,1,1")
    assert res.returncode == 2 and res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "entries reach 1.04795e+308" in lines[0], res.stderr
    for argv in (["ampli", "build-Z", "--r", "1", "--lambda=1.7e308,1e308,0", "--x", "1,1,1"],
                 ["jacobi", "from-moser", "--lambda=1.7e308,0", "--x", "1,1"]):
        res = fresh_cli(*argv)
        assert res.returncode == 0 and res.stderr == "" and res.stdout


@pytest.mark.parametrize("x", ["1e308,1e308,1e308", "1e-200,1e-200,1e-200"])
def test_moser_x_normalized_without_overflow_or_underflow(x):
    """An x whose sum of squares overflows or underflows is divided by its
    largest entry first: the same Moser data, bytes and all, as x = 1,1,1."""
    for argv in (["jacobi", "from-moser", "--lambda", "1,0,-1"],
                 ["ampli", "build-Z", "--lambda", "1,0,-1", "--r", "2", "--k", "1"]):
        res, ref = fresh_cli(*argv, "--x", x), fresh_cli(*argv, "--x", "1,1,1")
        assert res.returncode == ref.returncode == 0 and res.stderr == ref.stderr == ""
        assert res.stdout == ref.stdout


@pytest.mark.parametrize("x", ["1e17,1,1", "1e300,1,1"])
def test_singular_vandermonde_names_lam_and_x(x):
    """x spread so wide that the Vandermonde matrix of lam and x is singular
    (every entry still positive once normalized): one error line naming that
    matrix, not the QR step, from both commands that build it."""
    for argv in (["jacobi", "from-moser"], ["ampli", "build-Z", "--r", "2"]):
        res = fresh_cli(*argv, "--lambda", "1,0,-1", "--x", x)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == ("error: the Vandermonde matrix of lam and x is singular to working precision\n"), res.stderr


def test_moser_x_too_wide_to_normalize_exits_2():
    rc, out = run_cli(["jacobi", "from-moser", "--lambda", "1,0,-1", "--x", "1e150,1e150,1e-320"])
    assert rc == 2 and out == ""


def test_help_documents_negative_lists(capsys):
    """A comma list that starts with '-' must be joined by '=' (argparse reads
    it as an option after a space); the help says so, and that form works."""
    for argv in (["jacobi", "--help"], ["ampli", "--help"], ["flow", "--help"], ["positivity", "--help"]):
        with pytest.raises(SystemExit):
            main(argv)
        text = " ".join(capsys.readouterr().out.split())
        assert "comma-separated" in text and "needs '='" in text, text
    assert "--lambda=-1,-2" in " ".join(fresh_cli("jacobi", "--help").stdout.split())
    rc, out = run_cli(["jacobi", "from-moser", "--lambda=-1,-2", "--x", "1,1"])
    assert rc == 0 and json.loads(out)["lambda"] == [-1.0, -2.0]
