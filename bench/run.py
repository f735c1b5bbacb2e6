#!/usr/bin/env python3
"""Benchmark of the cifusion package: solve, verify and sim workloads.

Run from the repository root:

    python3 bench/run.py                      # every workload, each in a fresh process
    python3 bench/run.py --workload solve --seed 3 --trace 0

The program is imported from ``src/`` next to this directory.  A workload
generates its inputs from ``--seed``, sets the program up several times
(the median is ``setup_s``), warms up, and then runs whole passes over its
operation list, one caller in a closed loop, checking every output.  The
number of passes follows from ``--seconds`` and the workload's nominal rate,
so a run does a fixed amount of work.  Times are scaled by a reference loop
sampled between operations (``HostReference``).  With ``--trace 1`` the public
functions of the package are wrapped in spans and the per-layer metrics are
printed instead of the end-to-end ones.  The last line of the output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread: a noisy two-CPU host gives steadier figures without
# a second thread competing with other processes
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
#: untimed passes worth this many seconds at the nominal rate (at least one)
WARMUP_S = 1.5
#: each operation's latency is a median over at least this many passes
MIN_PASSES = 5
#: host reference samples are this far apart at the nominal rate
REF_INTERVAL_S = 0.1

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def fix_mmap_threshold() -> None:
    """Serve every allocation of 1 MiB or more by its own mapping (glibc).

    By default glibc raises this threshold as large blocks are freed, after
    which large arrays come from the heap, and the peak resident set then
    depends on how the heap happened to fragment: runs of the same program
    read 97 or 109 MB.  A fixed threshold makes the peak follow the arrays
    that are alive.  Elsewhere than glibc this does nothing.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    m_mmap_threshold = -3
    libc.mallopt(m_mmap_threshold, 1 << 20)


class ProgramMissing(Exception):
    pass


def import_program():
    """Import ``cifusion`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "cifusion" / "__init__.py").is_file():
        raise ProgramMissing(f"no cifusion package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cifusion
    import cifusion.cli
    import cifusion.simulator

    if Path(cifusion.__file__).resolve().parent != SRC / "cifusion":
        raise ProgramMissing(f"cifusion imported from {cifusion.__file__}, not {SRC}")
    return cifusion


class HostReference:
    """Rate of a fixed loop that does the same kind of work as the workload.

    The host this benchmark was built on changes speed by up to 1.8x for
    seconds at a time, for every process alike (CPU time tracks wall time,
    so the process is not descheduled: the cores run slower).  The loop is
    sampled every few operations and each timing is scaled by the mean rate
    of the samples on either side of it over the loop's nominal rate, so
    the time metrics read as if the host ran at its nominal speed and a
    slow host is told apart from a slow program.  Two loops exist, neither
    touching the program.  "small" (solve, verify) is interpreter arithmetic
    plus 6x6 eigensolves, deletions, products and traces; "dense" (sim) is a
    256x256 matrix product plus a copy of a 512x512 array.  The copy is far
    smaller than the simulated joint, so that the benchmark's own memory
    stays below the program's; it follows sim as closely as a copy of the
    whole joint.  The README gives how closely each loop follows its
    workloads.
    """

    NOMINAL = {"small": 500.0, "dense": 750.0}

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        if kind == "dense":
            self._product = rng.standard_normal((256, 256))
            self._block = rng.standard_normal((512, 512))
            self._copy = np.empty_like(self._block)
        else:
            m = rng.standard_normal((6, 6))
            self._small = m @ m.T
        self.kind = kind
        self.nominal = self.NOMINAL[kind]
        self.samples: list[float] = []

    def _loop(self) -> None:
        if self.kind == "dense":
            self._product @ self._product
            np.copyto(self._copy, self._block)
            return
        acc = 0
        for i in range(5_000):
            acc += i * i
        s = self._small
        for _ in range(25):
            np.linalg.eigvalsh(s)
        for _ in range(30):
            np.delete(np.delete(s, 2, axis=0), 1, axis=1)
            np.linalg.eigvalsh(s)
            np.trace(s @ s)
            0.5 * (s + s.T)

    def sample(self) -> int:
        """Time three loops, keep one as a rate; return the sample's index.

        The "small" loop keeps the median of the three and the "dense" loop
        the fastest: over the same ten runs of each workload, that choice
        gave the steadiest scaled figures (see the README).
        """
        times = []
        for _ in range(3):
            start = time.perf_counter()
            self._loop()
            times.append(time.perf_counter() - start)
        pick = statistics.median if self.kind == "small" else min
        self.samples.append(1.0 / pick(times))
        return len(self.samples) - 1

    def scale(self, i: int) -> float:
        """Nominal seconds per wall second between samples ``i`` and ``i + 1``."""
        return 0.5 * (self.samples[i] + self.samples[i + 1]) / self.nominal


class Runner:
    """One workload in this process: set-up, warm-up, timed passes, checks."""

    def __init__(self, workload, tracer: tracing.Tracer | None = None):
        self.wl = workload
        self.tracer = tracer
        self.host = HostReference(workload.reference)
        # counts, not clocks, decide when to sample and how long to warm up,
        # so that a seed always runs the same sequence of allocations
        self.ref_every = max(1, round(REF_INTERVAL_S * workload.nominal_ops_per_s))
        self.check_errors: list[str] = []
        self.failures: Counter = Counter()

    def _check(self, errs, what) -> None:
        self.check_errors.extend(f"{what}: {e}" for e in errs)

    def setup(self, repeats: int) -> list[tuple[float, float]]:
        """Import and build the program objects ``repeats`` times.

        Before each repeat but the first, every module loaded since the
        first import is dropped, so each repeat imports the package again.
        Returns (wall, scaled) seconds per repeat.
        """
        before = set(sys.modules)
        times = []
        for k in range(repeats):
            if k:
                if self.tracer:
                    self.tracer.uninstall()
                for name in set(sys.modules) - before:
                    del sys.modules[name]
            gc.collect()
            ref = self.host.sample()
            start = time.perf_counter()
            import_program()
            imported = time.perf_counter()
            if self.tracer:
                self.tracer.install()
                idx = self.tracer.begin(tracing.SETUP)
            built_from = time.perf_counter()
            self.wl.setup()
            end = time.perf_counter()
            if self.tracer:
                self.tracer.end(idx)
            self.host.sample()
            wall = (imported - start) + (end - built_from)
            times.append((wall, wall * self.host.scale(ref)))
        return times

    def one_pass(self, timed: bool, pass_id: int):
        """Run the operation list once.

        Returns (wall latency, scaled latency, ok) per operation, where ok
        is None for an operation that raised.
        """
        wl, tracer, host = self.wl, self.tracer if timed else None, self.host
        self._check(wl.start_pass(), f"pass {pass_id}")
        gc.collect()
        rows, refs = [], []
        for k, op in enumerate(wl.op_list):
            args = wl.prepare(op)
            if k % self.ref_every == 0:
                host.sample()
            refs.append(len(host.samples) - 1)
            if tracer:
                tracer.op_id = pass_id * len(wl.op_list) + k
                idx = tracer.begin(tracing.OP)
            start = time.perf_counter()
            try:
                out = wl.run(args)
            except Exception as exc:  # a failed operation is counted, not fatal
                end = time.perf_counter()
                what = f"{type(exc).__name__}: {exc}"
                if timed:
                    self.failures[what] += 1
                if not (op in wl.may_fail_ops
                        and type(exc).__name__ == wl.known_fault):
                    self._check([f"unexpected {what}"], f"pass {pass_id} op {op!r}")
                rows.append([end - start, None])
            else:
                end = time.perf_counter()
                errs = wl.check(op, out)
                self._check(errs, f"pass {pass_id} op {op!r}")
                rows.append([end - start, not errs])
            finally:
                if tracer:
                    tracer.end(idx)
        host.sample()
        return [(wall, wall * host.scale(ref), ok) for (wall, ok), ref in zip(rows, refs)]

    def passes(self, seconds: float) -> int:
        per_pass = len(self.wl.op_list)
        nominal = round(seconds * self.wl.nominal_ops_per_s / per_pass)
        return max(MIN_PASSES, nominal)

    def measure(self, passes: int, setup_repeats: int, warmup_s: float) -> dict:
        """Set up, warm up (untimed, untraced), then run ``passes`` timed passes."""
        setup_times = self.setup(setup_repeats)
        if self.tracer:
            self.tracer.active = False
        per_pass = len(self.wl.op_list)
        for warm in range(max(1, round(warmup_s * self.wl.nominal_ops_per_s / per_pass))):
            self.one_pass(timed=False, pass_id=-1 - warm)
        if self.tracer:
            self.tracer.active = True
        return {"setup": setup_times,
                "passes": [self.one_pass(timed=True, pass_id=p) for p in range(passes)]}


def _rate(rows, column: int) -> float:
    return sum(1 for r in rows if r[2]) / sum(r[column] for r in rows)


def end_to_end(stats: dict, column: int) -> dict:
    """The end-to-end metrics from scaled (column 1) or wall (column 0) times.

    An operation's latency is its median over the timed passes, so that a
    slow phase of the host in a few passes does not move the percentiles;
    the percentiles are taken over the operation list, leaving out an
    operation that failed in every pass.
    """
    lat = np.array([[r[column] if r[2] is not None else np.nan for r in rows]
                    for rows in stats["passes"]])
    per_op = np.nanmedian(lat[:, ~np.isnan(lat).all(axis=0)], axis=0)
    return {
        "setup_s": statistics.median(t[column] for t in stats["setup"]),
        "ops_per_s": statistics.median(_rate(rows, column) for rows in stats["passes"]),
        "op_p50_ms": 1e3 * float(np.percentile(per_op, 50)),
        "op_p90_ms": 1e3 * float(np.percentile(per_op, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    if not (SRC / "cifusion" / "__init__.py").is_file():
        raise ProgramMissing(f"no cifusion package under {SRC}")
    OUT.mkdir(exist_ok=True)
    fix_mmap_threshold()
    tracer = tracing.Tracer() if traced else None
    runner = Runner(WORKLOADS[name](seed, str(OUT)), tracer)
    stats = runner.measure(runner.passes(seconds), SETUP_REPEATS, WARMUP_S)
    errors = list(runner.check_errors)
    failures = Counter(runner.failures)
    if traced:
        tracer.uninstall()
        trace_path = OUT / f"trace-{name}-seed{seed}.csv.gz"
        trace_path.unlink(missing_ok=True)
        runners = {name: runner}
        # the layers this workload does not reach are measured on one traced
        # pass of the workload that does
        for other in WORKLOADS:
            if other != name:
                sample = Runner(WORKLOADS[other](seed, str(OUT)), tracing.Tracer())
                sample.measure(1, 1, 0.0)
                sample.tracer.uninstall()
                errors += sample.check_errors
                failures += Counter({f"{what} (traced {other} pass)": n
                                     for what, n in sample.failures.items()})
                runners[other] = sample
        layer = {}
        for wname, r in runners.items():
            r.tracer.write(str(trace_path), wname)
            layer.update(tracing.per_layer_metrics(
                wname, tracing.SpanTable(r.tracer), getattr(r.wl, "joint_dims", ())))
        metrics = {k: {"value": layer[k], "unit": unit}
                   for k, (unit, _) in tracing.PER_LAYER.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in end_to_end(stats, 1).items()}
    for err in errors[:20]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    for what, count in failures.most_common():
        print(f"failed operation x{count}: {what}", file=sys.stderr)
    rows = [r for p in stats["passes"] for r in p]
    host = runner.host.samples
    info = {
        "workload": name, "seed": seed, "trace": int(traced),
        "passes": len(stats["passes"]), "ops_per_pass": len(runner.wl.op_list),
        "may_fail_per_pass": len(runner.wl.may_fail_ops),
        "timed_wall_s": round(sum(r[0] for r in rows), 3),
        "wall": {k: round(v, 4) for k, v in end_to_end(stats, 0).items()},
        "scaled_ops_per_s": round(end_to_end(stats, 1)["ops_per_s"], 3),
        "host_ref_per_s": {"before": round(host[0], 1), "after": round(host[-1], 1),
                           "median": round(statistics.median(host), 1),
                           "min": round(min(host), 1), "max": round(max(host), 1),
                           "nominal": runner.host.nominal, "kind": runner.host.kind},
        "blas_threads": int(BLAS_THREADS),
    }
    print("info " + json.dumps(info))
    for k, m in metrics.items():
        print(f"{name:>6} {k:<34} {m['value']:>14.6g} {m['unit']}")
    return {"correct": not errors, "attempted": len(rows),
            "failed": sum(1 for r in rows if r[2] is None), "metrics": metrics}


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in a fresh process.

    End-to-end metric names get the workload as a prefix.  A per-layer
    metric is taken once, unprefixed, from the workload that measures it.
    """
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        print(f"{name:>6} attempted={result['attempted']} failed={result['failed']} "
              f"correct={str(result['correct']).lower()}", flush=True)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, m in result["metrics"].items():
            if not trace:
                total["metrics"][f"{name}.{k}"] = m
            elif tracing.PER_LAYER[k][1] == name:
                total["metrics"][k] = m
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="sets the number of passes; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        seconds = args.seconds
        if seconds is None:
            seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        if args.workload == "all":
            result = run_all(args.seed, seconds, args.trace)
        else:
            result = run_one(args.workload, args.seed, seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
