"""Spans around the program's public functions, for the traced run.

The tracer replaces each listed function by a wrapper everywhere it is bound
by name inside the package (``cifusion.simulator.solve_ci`` and
``cifusion.optimizer.solve_ci`` are the same function and get the same
wrapper), records one span per call (name, start, end, parent, operation)
in memory, and counts ``numpy.linalg`` calls against the innermost open
span.  ``uninstall`` puts every original back.  The per-layer metrics are
computed from the spans afterwards.
"""

from __future__ import annotations

import functools
import gzip
import math
import sys
import time

import numpy as np

# module -> public functions wrapped in it
FUNCTIONS = {
    "cli": ("load_problem_file", "cmd_verify"),
    "optimizer": ("solve_ci", "solve_ci_det", "solve_ci_trace", "ku_rule",
                  "delta_value", "extended_cost"),
    "linalg": ("adjugate",),
    "verifier": ("lmi_certificate", "petersen_certificate", "petersen_objective",
                 "adversarial_x_search", "monte_carlo_joint"),
    "simulator": ("init_network", "make_schedule", "run_schedule"),
}
# module -> (class, method) wrapped in it
METHODS = {
    "problem": (("PartialEstimate", "__init__"), ("FusionProblem", "__init__")),
    "simulator": (("GroundTruth", "apply_fusion"),),
}
#: counted per solve as ``linalg.spectral_calls_per_solve``
NUMPY_LINALG = ("eigvalsh", "eigh", "svd", "cholesky", "inv", "det", "solve")

SETUP, OP = "setup", "op"

#: per-layer metric -> (unit, workload whose traced operations measure it)
PER_LAYER = {
    "cli.load_problem_ms": ("ms", "verify"),
    "cli.verify_self_ms": ("ms", "verify"),
    "problem.build_ms": ("ms", "solve"),
    "optimizer.det_search_ms": ("ms", "solve"),
    "optimizer.trace_search_ms": ("ms", "solve"),
    "optimizer.delta_evals_per_solve": ("count", "solve"),
    "optimizer.cost_evals_per_solve": ("count", "solve"),
    "optimizer.ku_rule_ms": ("ms", "solve"),
    "optimizer.certify_ms": ("ms", "solve"),
    "linalg.spectral_calls_per_solve": ("count", "solve"),
    "linalg.adjugate_ms_per_solve": ("ms", "solve"),
    "verifier.lmi_ms": ("ms", "verify"),
    "verifier.petersen_ms": ("ms", "verify"),
    "verifier.petersen_evals": ("count", "verify"),
    "verifier.adversarial_ms": ("ms", "verify"),
    "verifier.monte_carlo_ms": ("ms", "verify"),
    "simulator.apply_fusion_ms": ("ms", "sim"),
    "simulator.solve_ms": ("ms", "sim"),
    "simulator.event_self_ms": ("ms", "sim"),
    "simulator.joint_dim": ("count", "sim"),
    "simulator.init_network_s": ("s", "sim"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.linalg_calls: dict[int, int] = {}
        self.op_id = -1
        #: spans are recorded only while this is true
        self.active = True
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.op_ids.append(self.op_id)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)

        return traced

    def _count(self, fn):
        calls, stack = self.linalg_calls, self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack:
                calls[stack[-1]] = calls.get(stack[-1], 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the listed functions in every loaded ``cifusion`` module."""
        package = [m for name, m in sys.modules.items()
                   if m is not None and (name == "cifusion" or name.startswith("cifusion."))]
        for layer, names in FUNCTIONS.items():
            home = sys.modules[f"cifusion.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in package:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        for layer, methods in METHODS.items():
            home = sys.modules[f"cifusion.{layer}"]
            for cls_name, meth in methods:
                cls = getattr(home, cls_name)
                label = cls_name if meth == "__init__" else f"{cls_name}.{meth}"
                self._patch(cls, meth, self._wrap(f"{layer}.{label}", getattr(cls, meth)))
        for fname in NUMPY_LINALG:
            self._patch(np.linalg, fname, self._count(getattr(np.linalg, fname)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str, workload: str) -> None:
        """Append the spans as CSV rows to a gzip file."""
        with gzip.open(path, "at") as fh:
            for i, name in enumerate(self.names):
                fh.write(f"{workload},{i},{name},{self.starts[i]:.9f},{self.ends[i]:.9f},"
                         f"{self.parents[i]},{self.op_ids[i]},{self.linalg_calls.get(i, 0)}\n")


class SpanTable:
    """Array views of a tracer's spans with the queries the metrics need."""

    def __init__(self, tracer: Tracer):
        self.names = np.array(tracer.names, dtype=object)
        self.parents = np.array(tracer.parents, dtype=int)
        self.dur = np.array(tracer.ends) - np.array(tracer.starts)
        child = np.zeros(len(self.dur))
        has_parent = self.parents >= 0
        np.add.at(child, self.parents[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        self.calls = np.zeros(len(self.dur))
        for idx, count in tracer.linalg_calls.items():
            self.calls[idx] = count
        self._nearest: dict[str, np.ndarray] = {}

    def where(self, name: str, parent: str | None = None) -> np.ndarray:
        mask = self.names == name
        if parent is not None:
            has = self.parents >= 0
            pnames = np.where(has, self.names[np.maximum(self.parents, 0)], None)
            mask &= pnames == parent
        return mask

    def nearest(self, name: str) -> np.ndarray:
        """Index of each span's nearest ancestor (or itself) named ``name``."""
        if name not in self._nearest:
            out = np.full(len(self.names), -1)
            for i, (nm, par) in enumerate(zip(self.names, self.parents)):
                out[i] = i if nm == name else (out[par] if par >= 0 else -1)
            self._nearest[name] = out
        return self._nearest[name]

    def under(self, name: str, ancestor: str) -> np.ndarray:
        """Spans named ``name`` with an ancestor named ``ancestor``."""
        return (self.names == name) & (self.nearest(ancestor) >= 0)


def _mean(values) -> float:
    values = np.asarray(values, dtype=float)
    return float(values.mean()) if values.size else math.nan


def per_layer_metrics(workload: str, table: SpanTable, joint_dims=()) -> dict:
    """The per-layer metrics measured on ``workload``'s traced spans."""
    t, ms = table, 1e3
    m = {}
    if workload == "solve":
        fusion = t.under("problem.FusionProblem", SETUP)
        builds = (t.where("problem.PartialEstimate") | t.where("problem.FusionProblem")) \
            & (t.nearest(SETUP) >= 0)
        m["problem.build_ms"] = ms * t.dur[builds].sum() / max(fusion.sum(), 1)
        for cost in ("det", "trace"):
            solver = t.where(f"optimizer.solve_ci_{cost}")
            rule = t.where("optimizer.ku_rule", parent=f"optimizer.solve_ci_{cost}")
            rule_of = np.zeros(len(t.dur))
            np.add.at(rule_of, t.parents[rule], t.dur[rule])
            m[f"optimizer.{cost}_search_ms"] = ms * _mean((t.dur - rule_of)[solver])
        det, trace = t.where("optimizer.solve_ci_det"), t.where("optimizer.solve_ci_trace")
        m["optimizer.delta_evals_per_solve"] = \
            t.under("optimizer.delta_value", "optimizer.solve_ci_det").sum() / max(det.sum(), 1)
        m["optimizer.cost_evals_per_solve"] = \
            t.under("optimizer.extended_cost", "optimizer.solve_ci_trace").sum() / max(trace.sum(), 1)
        m["optimizer.ku_rule_ms"] = ms * _mean(t.dur[t.under("optimizer.ku_rule", OP)])
        m["optimizer.certify_ms"] = ms * _mean(
            t.dur[t.where("verifier.lmi_certificate", parent="optimizer.solve_ci")])
        solves = t.where("optimizer.solve_ci")
        in_solve = t.nearest("optimizer.solve_ci") >= 0
        m["linalg.spectral_calls_per_solve"] = t.calls[in_solve].sum() / max(solves.sum(), 1)
        m["linalg.adjugate_ms_per_solve"] = \
            ms * t.dur[t.where("linalg.adjugate") & in_solve].sum() / max(solves.sum(), 1)
    elif workload == "verify":
        m["cli.load_problem_ms"] = ms * _mean(t.dur[t.where("cli.load_problem_file")])
        m["cli.verify_self_ms"] = ms * _mean(t.self_time[t.where("cli.cmd_verify")])
        m["verifier.lmi_ms"] = ms * _mean(
            t.dur[t.where("verifier.lmi_certificate", parent="cli.cmd_verify")])
        petersen = t.where("verifier.petersen_certificate")
        m["verifier.petersen_ms"] = ms * _mean(t.dur[petersen])
        m["verifier.petersen_evals"] = t.under(
            "verifier.petersen_objective", "verifier.petersen_certificate").sum() / max(petersen.sum(), 1)
        m["verifier.adversarial_ms"] = ms * _mean(t.dur[t.where("verifier.adversarial_x_search")])
        m["verifier.monte_carlo_ms"] = ms * _mean(t.dur[t.where("verifier.monte_carlo_joint")])
    elif workload == "sim":
        m["simulator.apply_fusion_ms"] = ms * _mean(
            t.dur[t.under("simulator.GroundTruth.apply_fusion", OP)])
        m["simulator.solve_ms"] = ms * _mean(
            t.dur[t.where("optimizer.solve_ci", parent="simulator.run_schedule")])
        m["simulator.event_self_ms"] = ms * _mean(t.self_time[t.where("simulator.run_schedule")])
        m["simulator.joint_dim"] = _mean(joint_dims)
        m["simulator.init_network_s"] = _mean(t.dur[t.where("simulator.init_network")])
    return {k: float(v) for k, v in m.items()}
