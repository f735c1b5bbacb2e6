"""The three workloads: what is set up, what one operation is, how it is checked.

Each workload generates its inputs from the seed when constructed (not
timed), builds the program objects in ``setup`` (timed as set-up), and then
runs operations from a fixed list, one pass at a time, in a closed loop
with one caller.  ``prepare`` picks the arguments of an operation (not
timed), ``run`` is the timed call into the program, and ``check`` compares
its output with computations made by the benchmark itself.  An operation
that raises is a failed check, unless it is in ``may_fail_ops`` and raises
the workload's ``known_fault``: a fault of the program that stays in the
workload, counted as failed, until it is mended.
"""

from __future__ import annotations

import contextlib
import io
import os

import numpy as np

import checks
import inputs


def _cifusion():
    import cifusion
    import cifusion.cli
    import cifusion.simulator

    return cifusion


class SolveWorkload:
    """One ``solve_ci(problem, cost)`` per operation over a fixed pool."""

    name = "solve"
    #: the one exception that the operations in ``may_fail_ops`` may raise
    known_fault = "SingularSigmaError"
    #: operations per second on the reference host; sets the run length
    nominal_ops_per_s = 250.0
    #: the host reference loop that resembles this workload's work
    reference = "small"

    def __init__(self, seed: int, workdir: str):
        self.pool = inputs.solve_pool(seed)
        self.op_list = [(i, cost) for i in range(len(self.pool)) for cost in ("det", "trace")]
        # psd_certify floors its strictness test at 1, so a fused covariance
        # whose eigenvalues all lie below 1e-9 is called singular
        self.may_fail_ops = {op for op in self.op_list
                             if self.pool[op[0]]["kind"] == "small_units_below"}
        self._verified: dict = {}

    def setup(self) -> None:
        cf = _cifusion()
        self._costs = {"det": cf.Cost.DET, "trace": cf.Cost.TRACE}
        self._solve = cf.solve_ci
        self.problems = [
            cf.FusionProblem(cf.PartialEstimate(p["H1"], p["x1"], p["P1"]),
                             cf.PartialEstimate(p["H2"], p["x2"], p["P2"]))
            for p in self.pool
        ]

    def start_pass(self) -> list[str]:
        return []

    def prepare(self, op):
        i, cost = op
        return self.problems[i], self._costs[cost]

    def run(self, args):
        return self._solve(*args)

    def check(self, op, result) -> list[str]:
        # the first output of each operation in a run is checked in full;
        # a later one must repeat it bit for bit or is checked in full again
        arrays = (result.K1, result.K2, result.P_hat.data, np.asarray(result.fused_x))
        key = (result.alpha,) + tuple(a.tobytes() for a in arrays)
        if self._verified.get(op) == key:
            return []
        i, cost = op
        errs = checks.check_fusion(self.pool[i], cost, *((result.alpha,) + arrays))
        if not errs:
            self._verified[op] = key
        return errs


class VerifyWorkload:
    """One in-process ``cifusion verify FILE --samples 1000 --seed S``."""

    name = "verify"
    may_fail_ops, known_fault = frozenset(), None
    nominal_ops_per_s = 25.0
    reference = "small"

    def __init__(self, seed: int, workdir: str):
        self.cases = inputs.verify_cases(seed)
        paths = inputs.write_verify_files(self.cases, os.path.join(workdir, f"verify-{seed}"))
        self.argvs = [
            ["verify", path, "--samples", str(inputs.VERIFY_SAMPLES),
             "--seed", str(case["verify_seed"])]
            for path, case in zip(paths, self.cases)
        ]
        self.op_list = list(range(len(self.cases)))

    def setup(self) -> None:
        self._main = _cifusion().cli.main

    def start_pass(self) -> list[str]:
        return []

    def prepare(self, i):
        return self.argvs[i]

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self._main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, i, output) -> list[str]:
        code, out, err = output
        errs = checks.check_verify(self.cases[i], code, out)
        return errs + ([f"stderr: {err.strip()}"] if errs and err.strip() else [])


class SimWorkload:
    """One fusion event of a 200-node network per operation.

    A pass runs ``SIM_EVENTS_PER_PASS`` consecutive events, each a
    ``run_schedule`` call on a one-event slice of one random schedule, so
    the events continue the same network.  Every pass restarts from the
    network as set up (rebuilt from the true covariances, which the first
    pass checks the program's initial joint against), so every pass does
    the same work.
    """

    name = "sim"
    may_fail_ops, known_fault = frozenset(), None
    nominal_ops_per_s = 10.0
    reference = "dense"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.net = inputs.sim_network(seed)
        self.op_list = list(range(inputs.SIM_EVENTS_PER_PASS))
        #: joint dimension after each checked event, for the traced run
        self.joint_dims: list[int] = []

    def setup(self) -> None:
        cf = _cifusion()
        sim = cf.simulator
        spec = sim.NoiseSpec(h_list=self.net["h_list"], p_list=self.net["p_list"])
        self.nodes, self.truth = sim.init_network(
            self.net["n"], self.net["nodes"], self.seed, spec)
        schedule = sim.make_schedule(
            "random", self.net["nodes"], len(self.op_list), cf.Cost.DET, self.seed)
        self.slices = [sim.Schedule(events=(ev,), topology=schedule.topology,
                                    seed=schedule.seed) for ev in schedule.events]
        self._run_schedule = sim.run_schedule
        self._initial = [(node.h, node.x_hat, node.p_hat) for node in self.nodes]
        self._initial_dims = list(self.truth.dims)
        self._fresh = True

    def start_pass(self) -> list[str]:
        # the old copies go before the new ones are made, so that no more
        # than one joint of each side is alive at any time
        self.replay = None
        self.replay = checks.JointReplay(self.net["p_list"],
                                         spare=inputs.SIM_N * len(self.op_list))
        if self._fresh:
            self._fresh = False
            if self.replay.rel_diff(self.truth.joint) != 0.0:
                return ["initial ground-truth joint is not the block diagonal "
                        "of the true covariances"]
            return []
        for node, (h, x, p) in zip(self.nodes, self._initial):
            node.h, node.x_hat, node.p_hat, node.lineage = h, x, p, []
        self.truth.joint = None
        self.truth.joint = self.replay.buf[:self.replay.top, :self.replay.top].copy()
        self.truth.dims = list(self._initial_dims)
        return []

    def prepare(self, i):
        ev = self.slices[i].events[0]
        a, b = self.nodes[ev.node_a], self.nodes[ev.node_b]
        self._prior = [{"h": n.h, "x": n.x_hat, "p": n.p_hat.data} for n in (a, b)]
        return self.slices[i]

    def run(self, one_event):
        return self._run_schedule(self.nodes, self.truth, one_event)

    def check(self, i, report) -> list[str]:
        ev = self.slices[i].events[0]
        self.joint_dims.append(self.truth.joint.shape[0])
        return checks.check_sim_event(
            self.replay, ev.node_a, ev.node_b, self._prior[0], self._prior[1],
            report, self.nodes[ev.node_a], self.truth.joint)


WORKLOADS = {w.name: w for w in (SolveWorkload, VerifyWorkload, SimWorkload)}
