"""The benchmark under ``bench/`` still runs against the package.

``bench/tracing.py`` wraps package functions by name and computes each
per-layer metric from the spans of the calls it wraps.  A wrapped name that
the package drops makes a traced run exit 1; a wrapped function that stops
being called on the path that measures it leaves its metric NaN, which the
run prints as a last line that is not JSON.  So each workload runs here for
one traced pass at seed 2, as a traced ``bench/run.py`` run samples the
workloads it is not timing.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

with mock.patch.dict(os.environ):  # run.py pins the BLAS threads of its own process
    import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_every_wrapped_name_resolves():
    for layer, names in tracing.FUNCTIONS.items():
        module = importlib.import_module(f"cifusion.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"cifusion.{layer}.{name}"
    for layer, methods in tracing.METHODS.items():
        module = importlib.import_module(f"cifusion.{layer}")
        for cls_name, meth in methods:
            assert callable(getattr(getattr(module, cls_name, None), meth, None)), \
                f"cifusion.{layer}.{cls_name}.{meth}"


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """One traced pass of each workload at seed 2, with its per-layer metrics."""
    runs = {}
    for name, workload in WORKLOADS.items():
        runner = run.Runner(workload(2, str(tmp_path_factory.mktemp(name))), tracing.Tracer())
        try:
            runner.measure(1, 1, 0.0)
        finally:
            runner.tracer.uninstall()
        metrics = tracing.per_layer_metrics(
            name, tracing.SpanTable(runner.tracer), getattr(runner.wl, "joint_dims", ()))
        runs[name] = runner, metrics
    return runs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_is_correct(traced_runs, name):
    runner, _ = traced_runs[name]
    assert runner.check_errors == []
    assert sum(runner.failures.values()) <= len(runner.wl.may_fail_ops)


def test_every_per_layer_metric_is_finite(traced_runs):
    metrics = {}
    for _, layer in traced_runs.values():
        metrics.update(layer)
    assert set(metrics) == set(tracing.PER_LAYER)
    assert len(metrics) == 21
    bad = {k: v for k, v in metrics.items() if not math.isfinite(v)}
    assert not bad, bad


def test_handlers_wrapped_after_the_first_cli_call_are_traced(tmp_path):
    # cli.main keeps the parser of its first call; a tracer installed after
    # that call must still see cli.cmd_verify and the spans beneath it
    from cifusion import cli

    code = cli.main(["sim", "--nodes", "2", "--events", "1", "--out", str(tmp_path / "sim.txt")])
    assert code == cli.EXIT_OK
    runner = run.Runner(WORKLOADS["verify"](2, str(tmp_path)), tracing.Tracer())
    try:
        runner.measure(1, 1, 0.0)
    finally:
        runner.tracer.uninstall()
    assert runner.check_errors == []
    metrics = tracing.per_layer_metrics("verify", tracing.SpanTable(runner.tracer))
    bad = {k: v for k, v in metrics.items() if not math.isfinite(v)}
    assert not bad, bad
