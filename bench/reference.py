#!/usr/bin/env python3
"""Reference figures: every workload over several seeds, one process per run.

    python3 bench/reference.py --seeds 1-10 [--trace 0]

For each workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and their distance
as a share of the median, next to the metric's bound from BENCHMARK.json,
plus the failed share of operations and the host reference rates.  The
runs are written to ``bench/out/reference-<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    info = next(json.loads(line[5:]) for line in lines if line.startswith("info "))
    return {"seed": seed, "info": info, "result": json.loads(lines[-1])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = {}
    for name in names:
        runs[name] = []
        for seed in seed_list(args.seeds):
            r = run(name, seed, args.trace)
            runs[name].append(r)
            res = r["result"]
            print(f"{name} seed={seed} correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} host={r['info']['host_ref_per_s']} "
                  + " ".join(f"{k}={m['value']:.5g}" for k, m in res["metrics"].items()),
                  flush=True)
    print()
    print(f"{'workload':<8} {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'bound':>6}")
    for name, rs in runs.items():
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in rs}
        for metric in rs[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][metric]["value"] for r in rs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(metric)
            print(f"{name:<8} {metric:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound if bound is not None else '':>6}")
        print(f"{name:<8} failed share per run: {sorted(shares)}; "
              f"correct in every run: {all(r['result']['correct'] for r in rs)}")
    out = HERE / "out" / f"reference-{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
