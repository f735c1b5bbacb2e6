"""The benchmark's correctness checks pass on the program's output and fail on
deliberately corrupted output.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from cifusion import Cost, FusionProblem, PartialEstimate, psd_certify, solve_ci  # noqa: E402


def solved(prob: dict, cost: str):
    problem = FusionProblem(PartialEstimate(prob["H1"], prob["x1"], prob["P1"]),
                            PartialEstimate(prob["H2"], prob["x2"], prob["P2"]))
    r = solve_ci(problem, Cost(cost))
    return [r.alpha, r.K1, r.K2, r.P_hat.data, r.fused_x]


def family_member(prob: dict, alpha: float):
    """A consistent fusion at the given weight, optimal or not."""
    p, k1, k2 = checks.family(prob, alpha)
    return [alpha, k1, k2, p, k1 @ prob["x1"] + k2 @ prob["x2"]]


@pytest.fixture(scope="module")
def pool():
    return inputs.solve_pool(7)


@pytest.mark.parametrize("cost", ["det", "trace"])
def test_fusion_check_accepts_program_output(pool, cost):
    for prob in pool:
        if prob["kind"] != "small_units_below":
            assert checks.check_fusion(prob, cost, *solved(prob, cost)) == []


@pytest.mark.parametrize("cost", ["det", "trace"])
@pytest.mark.parametrize("kind", ["partial_both", "full_interior", "small_units_above"])
def test_fusion_check_rejects_corruption(pool, cost, kind):
    prob = next(p for p in pool if p["kind"] == kind)
    good = solved(prob, cost)

    shrunk = list(good)
    shrunk[3] = 0.8 * good[3]
    assert any("P_hat" in e for e in checks.check_fusion(prob, cost, *shrunk))

    gain = list(good)
    gain[1] = good[1] * (1.0 + 1e-4)
    assert any("gain" in e or "K1 H1" in e for e in checks.check_fusion(prob, cost, *gain))

    x = list(good)
    x[4] = good[4] + 1e-3
    assert any("fused_x" in e for e in checks.check_fusion(prob, cost, *x))

    # a consistent family member off the optimum fails on the cost alone
    moved = family_member(prob, good[0] + (0.05 if good[0] < 0.5 else -0.05))
    errs = checks.check_fusion(prob, cost, *moved)
    assert errs and all("cost" in e for e in errs)


def test_certificate_rejects_shrunk_covariance(pool):
    prob = next(p for p in pool if p["kind"] == "partial_both")
    alpha, k1, k2, p_hat, _ = solved(prob, "det")
    q1 = k1 @ checks.sqrt_spd(prob["P1"])
    q2 = k2 @ checks.sqrt_spd(prob["P2"])
    assert checks.certificate_min_eig(p_hat, q1, q2, alpha) >= -checks.PSD_TOL
    assert checks.certificate_min_eig(0.8 * p_hat, q1, q2, alpha) < -1e-4


def test_closed_forms(pool):
    ex2, ex1 = [p for p in pool if p["kind"] == "closed_form"]
    assert checks.check_fusion(ex2, "det", *solved(ex2, "det")) == []
    assert checks.check_fusion(ex1, "trace", *solved(ex1, "trace")) == []
    assert any("exactly 0" in e for e in checks.check_fusion(ex2, "det", *family_member(ex2, 1e-9)))
    assert any("closed form" in e
               for e in checks.check_fusion(ex1, "det", *family_member(ex1, 0.5 + 1e-6)))


def test_own_det_alpha_matches_closed_form(pool):
    ex2, ex1 = [p for p in pool if p["kind"] == "closed_form"]
    for prob, want in ((ex2, 0.0), (ex1, 0.5)):
        s1 = checks.information(prob["H1"], prob["P1"])
        s0 = checks.information(prob["H2"], prob["P2"])
        assert checks.own_det_alpha(s1, s0) == pytest.approx(want, abs=1e-12)


@pytest.fixture(scope="module")
def verify_runs(tmp_path_factory):
    wl = workloads.VerifyWorkload(3, str(tmp_path_factory.mktemp("verify")))
    wl.setup()
    return wl, [wl.run(wl.prepare(i)) for i in wl.op_list]


def test_verify_check_accepts_program_output(verify_runs):
    wl, outputs = verify_runs
    for i, out in zip(wl.op_list, outputs):
        assert wl.check(i, out) == []


def test_verify_check_rejects_wrong_verdicts(verify_runs):
    wl, outputs = verify_runs
    first = {}
    for i, out in zip(wl.op_list, outputs):
        first.setdefault(wl.cases[i]["expect"], (i, out[1]))
    accept, accept_out = first["accept"]
    reject, reject_out = first["reject"]
    truth, truth_out = first["truth"]
    # a passing report on a shrunk covariance, a failing one on a good file
    assert wl.check(reject, (0, accept_out, ""))
    assert wl.check(accept, (1, reject_out, ""))
    assert wl.check(accept, (1, accept_out, ""))
    # the truth row is expected exactly when the file has a truth block
    assert wl.check(truth, (0, accept_out, ""))
    assert wl.check(accept, (0, truth_out, ""))
    failing_row = re.sub(r"(monte-carlo +)PASS", r"\1FAIL", accept_out)
    assert failing_row != accept_out and wl.check(accept, (0, failing_row, ""))


@pytest.fixture()
def sim():
    wl = workloads.SimWorkload(5, "")
    wl.setup()
    assert wl.start_pass() == []
    return wl


def run_event(wl, i):
    return wl.run(wl.prepare(i))


def test_sim_check_accepts_program_output(sim):
    for i in range(3):
        assert sim.check(i, run_event(sim, i)) == []


def test_sim_check_rejects_perturbed_gain(sim):
    truth = sim.truth
    original = truth.apply_fusion

    def perturbed(a, b, k1, k2):
        original(a, b, k1 * (1.0 + 1e-4), k2)

    truth.apply_fusion = perturbed
    errs = sim.check(0, run_event(sim, 0))
    assert any("block-row replay" in e for e in errs)


def test_sim_check_rejects_shrunk_covariance(sim):
    report = run_event(sim, 0)
    a = sim.slices[0].events[0].node_a
    # below the true error covariance of the fused node
    sim.nodes[a].p_hat = psd_certify(0.9 * sim.truth.node_cov(a))
    errs = sim.check(0, report)
    assert any("not conservative" in e for e in errs)
    assert any("P_hat differs" in e for e in errs)


def test_sim_check_rejects_corrupted_joint(sim):
    report = run_event(sim, 0)
    sim.truth.joint = sim.truth.joint.copy()
    sim.truth.joint[0, 0] *= 1.01
    assert any("block-row replay" in e for e in sim.check(0, report))


def test_sim_replay_follows_a_whole_pass_and_restarts(sim):
    for i in sim.op_list:
        assert sim.check(i, run_event(sim, i)) == []
    assert sim.start_pass() == []
    assert sim.check(0, run_event(sim, 0)) == []


def test_only_the_known_fault_may_fail():
    import run

    wl = workloads.SolveWorkload(2, "")
    runner = run.Runner(wl)
    runner.setup(1)
    assert {wl.pool[i]["kind"] for i, _ in wl.may_fail_ops} == {"small_units_below"}
    runner.one_pass(timed=True, pass_id=0)
    assert runner.check_errors == []
    assert sum(runner.failures.values()) == len(wl.may_fail_ops)

    solve = wl._solve
    fails = next(op for op in wl.op_list if op not in wl.may_fail_ops)

    target = wl.prepare(fails)

    def raising(args):
        if args[0] is target[0] and args[1] is target[1]:
            raise RuntimeError("broken")
        return solve(*args)

    wl.run = raising
    runner.one_pass(timed=True, pass_id=1)
    assert any("unexpected RuntimeError: broken" in e for e in runner.check_errors)
