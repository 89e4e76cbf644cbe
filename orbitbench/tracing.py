"""Span tracing of orbitflow's modules from outside, for the per-layer run.

Tracer.install() replaces each traced function with a wrapper, on the module
object itself, so calls between modules (which all go through module
attributes) are recorded too. A span is (function, start, end, parent span,
operation id, returned normally); spans live in flat arrays in memory and are
written out once, when the run ends. Self time is a span's duration minus the
durations of its direct children.
"""

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

MODULES = ("linalg", "positivity", "flagorbit", "flows", "toda", "jacobi", "ampli", "io")
EXTRA_MODULES = ("perms",)   # traced for the sampler counts; not in the per-module list
PRIVATE = {"linalg._det", "flows._rk4", "flows._integrate", "flows._drift_controlled"}
ENCODERS = {"io.trajectory_csv_lines", "io.samples_csv_lines"}   # generators of CSV lines


def _traced(modname, name):
    return not name.startswith("_") or f"{modname}.{name}" in PRIVATE


class Tracer:
    def __init__(self):
        self.on = False
        self.names = []
        self.fid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.ok = array("b")
        self.stack = []
        self.op_id = -1
        self.bytes_out = 0
        self._ids = {}
        self._saved = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, fid):
        idx = len(self.start)
        self.fid.append(fid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.ok.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx, ok):
        self.end[idx] = perf_counter()
        self.ok[idx] = ok
        self.stack.pop()

    def _wrap(self, module, modname, name):
        fn = getattr(module, name)
        qual = f"{modname}.{name}"
        fid = self._id(qual)
        encoder = qual in ENCODERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = self._open(fid)
            ok = 0
            try:
                res = fn(*args, **kwargs)
                if encoder:   # a generator: do the encoding inside the span
                    res = list(res)
                    self.bytes_out += sum(len(line) + 1 for line in res)
                    res = iter(res)
                ok = 1
                return res
            finally:
                self._close(idx, ok)

        setattr(module, name, wrapper)
        self._saved.append((module, name, fn))

    def install(self):
        for modname in MODULES + EXTRA_MODULES:
            module = importlib.import_module(f"orbitflow.{modname}")
            for name, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and _traced(modname, name)):
                    self._wrap(module, modname, name)

    def uninstall(self):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def begin_op(self, op_id, kind):
        """Open the root span of one benchmark operation and start recording."""
        self.op_id = op_id
        self.on = True
        return self._open(self._id(f"op:{kind}"))

    def end_op(self, idx, ok):
        self._close(idx, ok)
        self.on = False

    # ---- analysis ----------------------------------------------------------

    def columns(self):
        """Copies of the span arrays (views would pin the arrays' buffers)."""
        return {name: np.frombuffer(getattr(self, name), dtype=dt).copy()
                for name, dt in (("fid", np.int32), ("start", np.float64), ("end", np.float64),
                                 ("parent", np.int32), ("op", np.int32), ("ok", np.int8))}

    def arrays(self):
        c = self.columns()
        dur = c["end"] - c["start"]
        children = np.zeros_like(dur)
        has = c["parent"] >= 0
        np.add.at(children, c["parent"][has], dur[has])
        return c["fid"], c["parent"], dur, dur - children, c["ok"]

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.columns())

    def layer_metrics(self):
        """Per-layer metrics by name: calls, self and total seconds, ratios."""
        fid, parent, dur, self_s, ok = self.arrays()
        ids = self._ids
        mask = {name: fid == i for name, i in ids.items()}
        none = np.zeros_like(fid, dtype=bool)

        def m(name):
            return mask.get(name, none)

        def total(name):
            """Inclusive seconds, not counting a span nested in one of the same function."""
            if name not in ids:
                return 0.0
            i = ids[name]
            s = 0.0
            for idx in np.flatnonzero(fid == i):
                p = parent[idx]
                while p >= 0 and fid[p] != i:
                    p = parent[p]
                if p < 0:
                    s += dur[idx]
            return float(s)

        def children_of(child, parent_name):
            if parent_name not in ids:
                return 0
            sel = m(child) & (parent >= 0)
            return int(np.count_nonzero(fid[parent[sel]] == ids[parent_name]))

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "linalg.det.calls": ("count", int(m("linalg._det").sum())),
            "linalg.det.self_s": ("s", float(self_s[m("linalg._det")].sum())),
        }
        for name in ("positivity.is_tp_matrix", "positivity.is_tnn_unitary",
                     "positivity.is_plucker_nonneg", "flagorbit.canonical_tnn_rep",
                     "flagorbit.twist_flag", "flagorbit.projection_minor_closed_form",
                     "flagorbit.locate_cell", "ampli.make_zdata"):
            out[f"{name}.total_s"] = ("s", total(name))
        builds = int(m("flows._integrate").sum())
        done = int((m("flows._drift_controlled") & (ok == 1)).sum())
        out["flows.rk4.calls"] = ("count", int(m("flows._rk4").sum()))
        out["flows.rk4.self_s"] = ("s", float(self_s[m("flows._rk4")].sum()))
        out["flows.integrate.builds"] = ("count", builds)
        out["flows.integrate.useful_ratio"] = ("ratio", ratio(done, builds))
        for name in ("flows.normal_flow", "flows.induced_flow", "flows.induced_flow_twisted",
                     "flows.kahler_trajectory", "toda.toda_ode", "toda.toda_symes"):
            out[f"{name}.total_s"] = ("s", total(name))
        out["linalg.k_factor.calls"] = ("count", int(m("linalg.k_factor").sum()))
        out["linalg.k_factor.total_s"] = ("s", total("linalg.k_factor"))
        out["linalg.herm_eig.calls"] = ("count", int(m("linalg.herm_eig").sum()))
        out["linalg.herm_eig.self_s"] = ("s", float(self_s[m("linalg.herm_eig")].sum()))
        tnn_ok = int((m("positivity.sample_tnn_flag") & (ok == 1)).sum())
        out["positivity.sample_tnn_flag.useful_ratio"] = (
            "ratio", ratio(tnn_ok, children_of("perms.random_perm", "positivity.sample_tnn_flag")))
        tp_ok = int((m("positivity.sample_tp") & (ok == 1)).sum())
        tp_tries = (children_of("positivity.is_tp_matrix", "positivity.sample_tp")
                    + children_of("positivity.is_tnn_unitary", "positivity.sample_tp"))
        out["positivity.sample_tp.useful_ratio"] = ("ratio", ratio(tp_ok, tp_tries))
        out["io.trajectory_csv_lines.total_s"] = ("s", total("io.trajectory_csv_lines"))
        out["io.bytes_out"] = ("bytes", self.bytes_out)
        for mod in MODULES:
            sel = np.isin(fid, [i for name, i in ids.items() if name.startswith(mod + ".")])
            out[f"{mod}.calls"] = ("count", int(sel.sum()))
            out[f"{mod}.self_s"] = ("s", float(self_s[sel].sum()))
        return out
