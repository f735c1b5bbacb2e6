"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines on the terminal.
"""

import time

import numpy as np
import pytest

from cifusion import (
    FusionProblem,
    JointCovariance,
    PartialEstimate,
    loewner_compare,
    optimal_fusion_known_cross,
    bar_shalom_campo,
    psd_certify,
)
from cifusion.optimizer import (
    Cost,
    FusionResult,
    SigmaPair,
    ku_rule,
    solve_ci,
)
from cifusion.simulator import init_network, make_schedule, run_schedule
from cifusion.verifier import (
    ZERO_Q_TOL,
    adversarial_x_search,
    alpha_uniqueness_check,
    certificate_tolerance,
    lmi_certificate,
    lmi_feasible_interval,
    monte_carlo_joint,
    petersen_certificate,
    petersen_objective,
    q_pair,
)

from conftest import (
    delta_poly_coeffs,
    first_order_width,
    grid_costs,
    lmi_feasible_grid,
    monte_carlo_sqrt_oracle,
    petersen_golden_oracle,
    random_joint,
    random_problem,
    random_unbiased_gains,
    well_scaled_problems,
)


class Criterion:
    """Collects checks for one criterion and prints a single verdict line."""

    def __init__(self, number: int, label: str, budget_seconds: float):
        self.number = number
        self.label = label
        self.budget = budget_seconds
        self.failures: list[str] = []
        self.start = time.perf_counter()

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def conclude(self) -> None:
        elapsed = time.perf_counter() - self.start
        if elapsed >= self.budget:
            self.failures.append(f"runtime {elapsed:.2f}s exceeds {self.budget:.0f}s")
        verdict = "PASS" if not self.failures else "FAIL"
        print(f"criterion {self.number}: {verdict} - {self.label} [{elapsed:.2f}s]")
        assert not self.failures, f"criterion {self.number}: {self.failures[:5]}"


def example2_problem() -> FusionProblem:
    est1 = PartialEstimate(np.eye(2), [0.0, 0.0], np.eye(2))
    est2 = PartialEstimate(np.eye(2), [1.0, -1.0], np.diag([1.25, 0.1]))
    return FusionProblem(est1, est2)


def example1_problem() -> FusionProblem:
    est1 = PartialEstimate([[1.0, 0.0]], [0.0], [[1.0]])
    est2 = PartialEstimate([[0.0, 1.0]], [0.0], [[1.0]])
    return FusionProblem(est1, est2)


@pytest.fixture(scope="module")
def solved_pool():
    """200 seeded instances with their optimal fusions for both costs."""
    rng = np.random.default_rng(20240901)
    problems = well_scaled_problems(rng, 200)
    solved = {
        cost: [solve_ci(p, cost) for p in problems] for cost in (Cost.DET, Cost.TRACE)
    }
    return problems, solved


def test_criterion_1_det_example_reproduction():
    crit = Criterion(1, "determinant-cost example reproduction", 1.0)
    problem = example2_problem()
    pair = SigmaPair.from_problem(problem)

    coeffs = delta_poly_coeffs(pair)
    crit.check(np.abs(coeffs - np.array([-3.6, -5.2])).max() <= 1e-10,
               f"polynomial coefficients {coeffs}")

    result = solve_ci(problem, Cost.DET)
    crit.check(result.alpha == 0.0, f"alpha* = {result.alpha}, expected exactly 0")

    h = 1e-5
    def det_obj(a):
        sig = a * pair.sigma1.data + (1.0 - a) * pair.sigma0.data
        return float(np.linalg.det(np.linalg.inv(sig)))
    for a in (0.0, 0.25, 0.5, 0.75, 1.0):
        fd = (det_obj(a + h) - det_obj(a - h)) / (2.0 * h)
        closed = 10.0 * (9.0 * a + 13.0) / ((9.0 * a - 10.0) ** 2 * (a + 4.0) ** 2)
        crit.check(abs(fd - closed) <= 1e-6, f"derivative mismatch at {a}: {fd} vs {closed}")
    crit.conclude()


def test_criterion_2_known_cross_example_reproduction():
    crit = Criterion(2, "known-cross example reproduction", 1.0)
    problem = example1_problem()
    ones = np.ones(2)
    for p12 in (-0.9, -0.5, 0.0, 0.5, 0.9):
        joint = JointCovariance([[1.0]], [[p12]], [[1.0]])
        result = optimal_fusion_known_cross(problem, joint)
        p_star_inv = np.linalg.inv(result.P_star.data)
        expected = np.array([[1.0, -p12], [-p12, 1.0]]) / (1.0 - p12**2)
        crit.check(np.abs(p_star_inv - expected).max() <= 1e-12,
                   f"closed form mismatch at P12={p12}")
        value = float(ones @ p_star_inv @ ones)
        crit.check(abs(value - 2.0 / (1.0 + p12)) <= 1e-12,
                   f"corner quadratic form at P12={p12}: {value}")
    for p12 in np.linspace(-0.999, 0.999, 201):
        joint = JointCovariance([[1.0]], [[p12]], [[1.0]])
        result = optimal_fusion_known_cross(problem, joint)
        value = float(ones @ np.linalg.inv(result.P_star.data) @ ones)
        crit.check(value > 1.0, f"corner covered at P12={p12}")
    crit.conclude()


def test_criterion_3_gauss_markov_minimality():
    crit = Criterion(3, "known-cross minimality over random unbiased gains", 30.0)
    rng = np.random.default_rng(7411)
    bsc_checked = 0
    for i in range(100):
        full_state = i % 4 == 0
        problem = random_problem(rng, full_state=full_state)
        joint = random_joint(rng, problem.p1, problem.p2)
        result = optimal_fusion_known_cross(problem, joint)
        gains = random_unbiased_gains(rng, problem, 200)
        pj = joint.assembled.data
        covs = gains @ pj @ np.swapaxes(gains, 1, 2)
        diffs = covs - result.P_star.data
        eigs = np.linalg.eigvalsh(0.5 * (diffs + np.swapaxes(diffs, 1, 2)))
        scales = np.maximum(
            1.0,
            np.maximum(np.abs(covs).max(axis=(1, 2)), np.abs(result.P_star.data).max()),
        )
        bad = int(np.count_nonzero(eigs[:, 0] < -1e-9 * scales))
        crit.check(bad == 0, f"instance {i}: {bad} gains beat the optimum")
        for k in gains[:3]:
            rel = loewner_compare(k @ pj @ k.T, result.P_star.data, 1e-9)
            crit.check(rel.is_ge, f"instance {i}: order relation {rel}")
        if full_state:
            bsc = bar_shalom_campo(joint)
            residual = max(
                np.abs(bsc.K_star - result.K_star).max(),
                np.abs(bsc.P_star.data - result.P_star.data).max(),
            )
            crit.check(residual <= 1e-10, f"instance {i}: two-track residual {residual}")
            bsc_checked += 1
    crit.check(bsc_checked >= 20, "not enough full-state instances")
    crit.conclude()


def test_criterion_4_family_optimality(solved_pool):
    crit = Criterion(4, "weight optimality against the 1001-point grid", 60.0)
    problems, solved = solved_pool
    for cost in (Cost.DET, Cost.TRACE):
        for i, (problem, result) in enumerate(zip(problems, solved[cost])):
            alphas, vals = grid_costs(problem, cost, grid=1001)
            crit.check(result.cost_value <= vals.min() + 1e-9,
                       f"{cost.value} instance {i}: cost gap {result.cost_value - vals.min()}")
            if cost is Cost.DET:
                crit.check(abs(result.alpha - alphas[np.argmin(vals)]) <= 1e-3,
                           f"det instance {i}: root {result.alpha} vs grid argmin")
            elif 0.0 < result.alpha < 1.0:
                residual = result.diagnostics["fixed_point_residual"]
                crit.check(residual <= 1e-6,
                           f"trace instance {i}: fixed-point residual {residual}")
    crit.conclude()


def _mutants(problems, solved):
    """Ten deliberately non-conservative rules over the solved pool."""
    out = []
    interior = [
        (p, r)
        for p, r in zip(problems, solved[Cost.TRACE])
        if 0.0 < r.alpha < 1.0
    ]
    for problem, result in interior[:5]:
        out.append(
            (
                FusionResult(
                    alpha=result.alpha,
                    K1=result.K1,
                    K2=result.K2,
                    P_hat=psd_certify(0.85 * result.P_hat.data),
                    fused_x=result.fused_x,
                ),
                problem,
            )
        )
    for problem, _ in interior[5:10]:
        joint = JointCovariance(
            problem.est1.p_hat,
            np.zeros((problem.p1, problem.p2)),
            problem.est2.p_hat,
        )
        kc = optimal_fusion_known_cross(problem, joint)
        out.append(
            (
                FusionResult(
                    alpha=0.5,
                    K1=kc.K1,
                    K2=kc.K2,
                    P_hat=psd_certify(0.8 * kc.P_star.data),
                    fused_x=kc.fuse(problem.est1.x_hat, problem.est2.x_hat),
                ),
                problem,
            )
        )
    return out


def test_criterion_5_conservativeness_certification(solved_pool):
    crit = Criterion(5, "conservativeness certification suite", 300.0)
    problems, solved = solved_pool
    for cost in (Cost.DET, Cost.TRACE):
        for i, (problem, result) in enumerate(zip(problems, solved[cost])):
            tag = f"{cost.value} instance {i}"
            scale = max(1.0, float(np.diag(result.P_hat.data).max()))
            cert = lmi_certificate(result, problem, result.alpha)
            crit.check(cert.passed and cert.lmi_min_eig >= -1e-9 * scale,
                       f"{tag}: certificate min eig {cert.lmi_min_eig}")
            q1, q2 = q_pair(result, problem)
            tol = certificate_tolerance(result)
            if np.abs(q1).max() <= ZERO_Q_TOL or np.abs(q2).max() <= ZERO_Q_TOL:
                live = q2 if np.abs(q1).max() <= ZERO_Q_TOL else q1
                direct = result.P_hat.data - live @ live.T
                crit.check(np.linalg.eigvalsh(direct)[0] >= -tol,
                           f"{tag}: degenerate one-sided bound fails")
            else:
                eps = petersen_certificate(result, problem)
                crit.check(eps is not None, f"{tag}: scalar certificate infeasible")
                tau = 1.0 / result.alpha - 1.0
                crit.check(petersen_objective(result, problem, tau) <= tol,
                           f"{tag}: weight-transform eps infeasible")
            worst_x = adversarial_x_search(result, problem, samples=1000, seed=1000 + i)
            crit.check(worst_x <= 1e-8, f"{tag}: adversarial violation {worst_x}")
            worst_mc = monte_carlo_joint(result, problem, truth_samples=1000, seed=2000 + i)
            crit.check(worst_mc <= 1e-8, f"{tag}: sampled joint violation {worst_mc}")

    mutants = _mutants(problems, solved)
    crit.check(len(mutants) == 10, f"built {len(mutants)} mutants, expected 10")
    for j, (mutant, problem) in enumerate(mutants):
        tol = certificate_tolerance(mutant)
        rejections = 0
        if not lmi_certificate(mutant, problem, mutant.alpha).passed and (
            lmi_feasible_interval(mutant, problem) is None
        ):
            rejections += 1
        try:
            if petersen_certificate(mutant, problem) is None:
                rejections += 1
        except Exception:
            pass
        if adversarial_x_search(mutant, problem, samples=1000, seed=j) > tol:
            rejections += 1
        if monte_carlo_joint(mutant, problem, truth_samples=1000, seed=j) > tol:
            rejections += 1
        crit.check(rejections >= 2, f"mutant {j} rejected by only {rejections} methods")
    crit.conclude()


def test_monte_carlo_agrees_with_sqrt_oracle_on_mutants(solved_pool):
    # criterion 5's mutants draw the same verdict from the factor-based
    # sampler and from the symmetric-root sampler it replaced
    problems, solved = solved_pool
    for j, (mutant, problem) in enumerate(_mutants(problems, solved)):
        tol = certificate_tolerance(mutant)
        worst = monte_carlo_joint(mutant, problem, truth_samples=1000, seed=j)
        oracle = monte_carlo_sqrt_oracle(mutant, problem, truth_samples=1000, seed=j)
        assert (worst > tol) == (oracle > tol), f"mutant {j}: {worst} against {oracle}"


def test_petersen_agrees_with_golden_oracle_on_mutants(solved_pool):
    # criterion 5's mutants draw the same scalar-certificate verdict from
    # the Newton search and from the golden section it replaced
    problems, solved = solved_pool
    for j, (mutant, problem) in enumerate(_mutants(problems, solved)):
        tol = certificate_tolerance(mutant)
        eps = petersen_certificate(mutant, problem)
        _, minimum = petersen_golden_oracle(mutant, problem)
        if eps is not None:
            assert petersen_objective(mutant, problem, eps) <= tol
        if abs(minimum - tol) > 1e-3 * tol:
            assert (eps is not None) == (minimum <= tol), f"mutant {j}: {eps} against {minimum}"


def _criterion_6_cases(solved_pool):
    """Criterion 6's 50 results with their problems and pool indices.

    The TRACE solves of the pool, skipping equal information matrices; every
    other interior one is replaced by a non-optimal family member.
    """
    problems, solved = solved_pool
    rng = np.random.default_rng(991)
    cases = []
    for idx, (problem, result) in enumerate(zip(problems, solved[Cost.TRACE])):
        if len(cases) == 50:
            break
        if loewner_compare(problem.sigma0, problem.sigma1).value == "equal":
            continue
        if len(cases) % 2 == 1 and 0.0 < result.alpha < 1.0:
            # exercise non-optimal family members too
            blend = float(rng.uniform(0.2, 0.8))
            result = ku_rule(problem, blend)
        cases.append((idx, result, problem))
    return cases


def test_criterion_6_weight_uniqueness(solved_pool):
    crit = Criterion(6, "feasible weights isolated to their first-order width", 60.0)
    cases = _criterion_6_cases(solved_pool)
    for idx, result, problem in cases:
        verdict = alpha_uniqueness_check(result, problem)
        crit.check(verdict is True, f"instance {idx}: verdict {verdict}")
        interval = lmi_feasible_interval(result, problem)
        w1 = first_order_width(result, problem)
        width = None if interval is None else interval[1] - interval[0]
        crit.check(width is not None and abs(width - w1) <= 0.01 * w1,
                   f"instance {idx}: width {width} against first-order width {w1}")
    crit.check(len(cases) == 50, f"only {len(cases)} applicable instances")
    crit.conclude()


def test_grid_feasible_weights_lie_in_the_interval(solved_pool):
    # the 1001-point scan that lmi_feasible_interval replaced finds no
    # feasible weight more than one grid step outside the interval
    step = 1e-3
    for idx, result, problem in _criterion_6_cases(solved_pool):
        lo, hi = lmi_feasible_interval(result, problem)
        grid = lmi_feasible_grid(result, problem, grid=1001)
        assert np.all((grid >= lo - step) & (grid <= hi + step)), (idx, lo, hi, grid)


def test_criterion_7_simulator():
    crit = Criterion(7, "ring simulation stays conservative and deterministic", 30.0)
    for seed in range(10):
        nodes, truth = init_network(4, 5, seed=seed)
        schedule = make_schedule("ring", 5, 20, Cost.DET, seed=seed)
        report = run_schedule(nodes, truth, schedule)
        crit.check(report.violations == 0,
                   f"seed {seed}: {report.violations} violations")
        crit.check(len(report.records) + len(report.skipped) == 20,
                   f"seed {seed}: incomplete schedule")

    def run_text(seed):
        nodes, truth = init_network(4, 5, seed=seed)
        schedule = make_schedule("ring", 5, 20, Cost.DET, seed=seed)
        return run_schedule(nodes, truth, schedule).to_text()

    crit.check(run_text(7) == run_text(7), "report not bit-identical under fixed seed")
    crit.conclude()
