#!/usr/bin/env python3
"""Print the make-up of each workload's inputs over a range of seeds.

    python3 bench/pools.py --seeds 1-10

For the solve pool it also solves every problem once and tallies the branch
each solver reports, so the README's branch counts can be regenerated.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
from reference import seed_list  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    from cifusion import Cost, FusionProblem, PartialEstimate, solve_ci
    from cifusion.errors import CiFusionError

    seeds = seed_list(args.seeds)
    kinds, sizes, branches = Counter(), Counter(), Counter()
    for seed in seeds:
        for prob in inputs.solve_pool(seed):
            kinds[prob["kind"]] += 1
            sizes[prob["n"]] += 1
            problem = FusionProblem(PartialEstimate(prob["H1"], prob["x1"], prob["P1"]),
                                    PartialEstimate(prob["H2"], prob["x2"], prob["P2"]))
            for cost in (Cost.DET, Cost.TRACE):
                try:
                    branch = solve_ci(problem, cost).diagnostics["branch"]
                except CiFusionError as exc:
                    branch = type(exc).__name__
                branches[(cost.value, prob["kind"], branch)] += 1
    k = len(seeds)
    print(f"solve pool, per seed: {sum(kinds.values()) // k} problems x 2 costs")
    print("  kinds: " + ", ".join(f"{name} {c // k}" for name, c in sorted(kinds.items())))
    print("  n: " + ", ".join(f"{n}: {c // k}" for n, c in sorted(sizes.items())))
    print(f"  branches reported by the program, summed over {k} seeds:")
    for (cost, kind, branch), c in sorted(branches.items()):
        print(f"    {cost:<5} {kind:<18} {branch:<20} {c}")

    cases = inputs.verify_cases(seeds[0])
    print(f"verify files, per seed: {len(cases)}")
    for expect in ("accept", "truth", "reject"):
        group = [c for c in cases if c["expect"] == expect]
        shapes = ", ".join(f"{c['kind']} n={c['n']}" for c in group)
        print(f"  {expect} {len(group)}: {shapes}")

    net = inputs.sim_network(seeds[0])
    rows = Counter(h.shape[0] for h in net["h_list"])
    print(f"sim network: {net['nodes']} nodes, n={net['n']}, rows per node {dict(sorted(rows.items()))}, "
          f"joint {sum(h.shape[0] for h in net['h_list'])} rows before any fusion, "
          f"{inputs.SIM_EVENTS_PER_PASS} events per pass")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
