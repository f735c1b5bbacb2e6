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
    psd_certify,
)
from cifusion.linalg import inv_pd
from cifusion.optimizer import (
    Cost,
    FusionResult,
    ku_rule,
    solve_ci,
)
from cifusion import verifier
from cifusion.simulator import init_network, make_schedule, run_schedule
from cifusion.verifier import (
    certificate_tolerance,
    certify,
    lmi_certificate,
    monte_carlo_joint,
    petersen_certificate,
    petersen_objective,
)

from conftest import (
    alpha_uniqueness_check,
    bar_shalom_campo,
    compressed_sensor_pair,
    delta_poly_coeffs,
    first_order_width,
    fixed_point_residual,
    grid_costs,
    information_pair,
    lmi_feasible_grid,
    lmi_feasible_interval,
    lmi_matrix,
    monte_carlo_sqrt_oracle,
    petersen_golden_oracle,
    random_joint,
    random_problem,
    random_unbiased_gains,
    sqrt_q_pair,
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

    coeffs = delta_poly_coeffs(problem)
    crit.check(np.abs(coeffs - np.array([-3.6, -5.2])).max() <= 1e-10,
               f"polynomial coefficients {coeffs}")

    result = solve_ci(problem, Cost.DET)
    crit.check(result.alpha == 0.0, f"alpha* = {result.alpha}, expected exactly 0")

    h = 1e-5
    s1, s0 = information_pair(problem)
    def det_obj(a):
        sig = a * s1 + (1.0 - a) * s0
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
            k1, k2, p_star = bar_shalom_campo(joint)
            residual = max(
                np.abs(np.hstack([k1, k2]) - result.K_star).max(),
                np.abs(p_star - result.P_star.data).max(),
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
                residual = fixed_point_residual(result, problem)
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
                    fused_x=kc.K1 @ problem.est1.x_hat + kc.K2 @ problem.est2.x_hat,
                ),
                problem,
            )
        )
    return out


def test_criterion_5_conservativeness_certification(solved_pool):
    # the rows of verifier.certify, the ones `cifusion verify` prints, judged
    # again against the criterion's own absolute bounds
    crit = Criterion(5, "conservativeness certification suite", 300.0)
    problems, solved = solved_pool
    for cost in (Cost.DET, Cost.TRACE):
        for i, (problem, result) in enumerate(zip(problems, solved[cost])):
            tag = f"{cost.value} instance {i}"
            lmi, scalar, adversarial, sampled = certify(result, problem, samples=1000,
                                                        seed=1000 + i)
            scale = max(1.0, float(np.diag(result.P_hat.data).max()))
            crit.check(lmi.passed and lmi.value >= -1e-9 * scale,
                       f"{tag}: certificate min eig {lmi.value}")
            crit.check(scalar.passed, f"{tag}: {scalar.name} row fails ({scalar.value})")
            if 0.0 < result.alpha < 1.0:  # where the eps form is finite
                tau = 1.0 / result.alpha - 1.0
                tol = certificate_tolerance(result)
                crit.check(petersen_objective(result, problem, tau) <= tol,
                           f"{tag}: weight-transform eps infeasible")
            crit.check(adversarial.passed and adversarial.value <= 1e-8,
                       f"{tag}: adversarial violation {adversarial.value}")
            crit.check(sampled.passed and sampled.value <= 1e-8,
                       f"{tag}: sampled joint violation {sampled.value}")

    mutants = _mutants(problems, solved)
    crit.check(len(mutants) == 10, f"built {len(mutants)} mutants, expected 10")
    for j, (mutant, problem) in enumerate(mutants):
        lmi, *rest = certify(mutant, problem, samples=1000, seed=j)
        rejections = sum(not row.passed for row in rest)
        if not lmi.passed and lmi_feasible_interval(mutant, problem) is None:
            rejections += 1
        crit.check(rejections >= 2, f"mutant {j} rejected by only {rejections} methods")

    # P_hat shrunk by 1e-3 on interior solves: the exact routes reject every
    # one (sampled rank-one draws miss many; Monte Carlo is not gated here)
    tight = _tight_mutants(problems, solved)
    crit.check(len(tight) == 20, f"built {len(tight)} tight mutants, expected 20")
    for j, (mutant, problem) in enumerate(tight):
        rows = certify(mutant, problem, samples=1000, seed=j)
        for row in rows[:3]:
            crit.check(not row.passed, f"tight mutant {j}: {row.name} passes ({row.value})")
        crit.check([row.name for row in rows[:3]] == ["lmi", "petersen", "adversarial-x"],
                   f"tight mutant {j}: rows {[row.name for row in rows]}")
    crit.conclude()


def _tight_mutants(problems, solved):
    """Ten DET and ten TRACE interior solves, each with P_hat shrunk to (1 - 1e-3) P_hat."""
    out = []
    for cost in (Cost.DET, Cost.TRACE):
        interior = [(p, r) for p, r in zip(problems, solved[cost]) if 0.0 < r.alpha < 1.0]
        for problem, result in interior[:10]:
            p_hat = psd_certify((1.0 - 1e-3) * result.P_hat.data)
            out.append((FusionResult(alpha=result.alpha, K1=result.K1, K2=result.K2,
                                     P_hat=p_hat, fused_x=result.fused_x), problem))
    return out


def test_lmi_certificate_agrees_with_symmetric_root_blocks(solved_pool, monkeypatch):
    # the block on Q = K L is orthogonally congruent to the one on the
    # oracle's Q = K P^{1/2}: the same verdict, the same smallest eigenvalue
    # up to rounding, on the solved pool and on criterion 5's mutants
    problems, solved = solved_pool
    cases = [(r, p) for cost in (Cost.DET, Cost.TRACE) for p, r in zip(problems, solved[cost])]
    cases += _mutants(problems, solved)
    chol = [lmi_certificate(r, p, r.alpha) for r, p in cases]
    monkeypatch.setattr(verifier, "q_pair", sqrt_q_pair)
    verdicts = set()
    for (result, problem), got in zip(cases, chol):
        want = lmi_certificate(result, problem, result.alpha)
        block = lmi_matrix(result.P_hat.data, *sqrt_q_pair(result, problem), result.alpha)
        scale = np.linalg.norm(block, 2)
        assert got.passed == want.passed
        assert abs(got.lmi_min_eig - want.lmi_min_eig) <= 1e-12 * scale
        verdicts.add(got.passed)
    assert verdicts == {True, False}


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
        s1, s0 = information_pair(problem)
        if loewner_compare(s0, s1).value == "equal":
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


def _rule_bounds(problem, gains, alphas):
    """Conservative bounds ``Q1 Q1' / alpha + Q2 Q2' / (1 - alpha)`` of stacked rules.

    Each pair ``(K, alpha)`` of the two stacks gives ``Q_i = K_i L_i``, ``L_i``
    the Cholesky factor of ``P_i``; no admissible cross covariance makes the
    rule's error covariance exceed the bound (Petersen's inequality).  A term
    over a zero weight is 0 when its ``Q_i`` is zero (0/0); the returned mask
    flags the pairs where it is not, whose bound is infinite.
    """
    p1 = problem.p1
    bound = np.zeros((len(alphas), problem.n, problem.n))
    infinite = np.zeros(len(alphas), dtype=bool)
    for q, w in ((gains[:, :, :p1] @ problem.est1.p_chol, alphas),
                 (gains[:, :, p1:] @ problem.est2.p_chol, 1.0 - alphas)):
        live = w > 0.0
        bound[live] += q[live] @ np.swapaxes(q[live], 1, 2) / w[live, None, None]
        infinite |= ~live & (np.abs(q).max(axis=(1, 2)) > 0.0)
    return bound, infinite


def _bound_margins(problem, cost, gains, alphas, reference):
    """Relative cost margins of :func:`_rule_bounds` over the CI optimum's ``reference``.

    ``log det P - reference`` for DET (``reference`` the CI log det) and
    ``trace P / reference - 1`` for TRACE: the theorem says neither is ever
    negative.  An infinite bound has an infinite margin.
    """
    bound, infinite = _rule_bounds(problem, gains, alphas)
    if cost is Cost.DET:
        sign, logdet = np.linalg.slogdet(bound)
        margin = np.where(sign > 0.0, logdet - reference, -np.inf)
    else:
        margin = np.trace(bound, axis1=1, axis2=2) / reference - 1.0
    return np.where(infinite, np.inf, margin)


def _ci_member_gains(problem, weights):
    """Gains ``[a P H1' P1^-1, (1 - a) P H2' P2^-1]``, ``P = (a Sigma1 + (1 - a) Sigma0)^-1``.

    Built by ``numpy.linalg.inv`` of the blend, independent of ``ku_rule``.
    """
    est1, est2 = problem.est1, problem.est2
    w = weights[:, None, None]
    s1, s0 = information_pair(problem)
    fused = np.linalg.inv(w * s1 + (1.0 - w) * s0)
    return np.concatenate([w * fused @ (est1.h.T @ inv_pd(est1.p_hat.data)),
                           (1.0 - w) * fused @ (est2.h.T @ inv_pd(est2.p_hat.data))], axis=2)


def _criterion_8_problems(rng):
    """40 random instances, then 8 whose first sensor lacks full row rank.

    Of those 8, the even ones have dependent rows (rank below n), the odd
    ones more rows than the state (rank n); each has one to three rows
    more than its rank.  They are drawn lazily, so the gains drawn for one
    instance come before the next instance's draws.
    """
    for i in range(40):
        yield random_problem(rng, full_state=i % 4 == 0)
    for i in range(8):
        n = int(rng.integers(2, 6))
        rank = n if i % 2 else int(rng.integers(1, n))
        yield compressed_sensor_pair(rng, n, rank, rank + int(rng.integers(1, 4)))[0]


def test_criterion_8_no_conservative_rule_beats_ci():
    crit = Criterion(8, "no conservative unbiased linear rule beats CI", 5.0)
    rng = np.random.default_rng(123)
    grid = np.linspace(0.0, 1.0, 35)[1:-1]
    members = np.linspace(0.0, 1.0, 18)[1:-1]
    tol = 1e-9
    perturbed = stationary = without_row_rank = 0
    for i, problem in enumerate(_criterion_8_problems(rng)):
        h = problem.h_stacked
        nullspace = np.eye(h.shape[0]) - h @ np.linalg.pinv(h)
        for cost in (Cost.DET, Cost.TRACE):
            tag = f"{cost.value} instance {i}"
            result = solve_ci(problem, cost)
            p_ci = result.P_hat.data
            reference = (np.linalg.slogdet(p_ci)[1] if cost is Cost.DET
                         else float(np.trace(p_ci)))
            k_ci = np.hstack([result.K1, result.K2])
            alpha = result.alpha
            # the solver's own rule reproduces its cost
            own = _bound_margins(problem, cost, k_ci[None], np.array([alpha]), reference)
            crit.check(abs(own[0]) <= tol, f"{tag}: own rule margin {own[0]:.3g}")
            # random unbiased gains, known-cross optimal gains of random
            # joints and CI members at other weights, each over the grid
            known = [optimal_fusion_known_cross(problem, random_joint(rng, problem.p1, problem.p2))
                     for _ in range(10)]
            gains = np.concatenate([
                random_unbiased_gains(rng, problem, 20),
                np.stack([np.hstack([kc.K1, kc.K2]) for kc in known]),
                _ci_member_gains(problem, members),
            ])
            margins = _bound_margins(problem, cost, np.repeat(gains, grid.size, axis=0),
                                     np.tile(grid, len(gains)), reference)
            crit.check(margins.min() >= -tol, f"{tag}: a rule beats CI by {-margins.min():.3g}")
            if h.shape[0] == problem.n:
                continue  # square H: the CI gain is the only unbiased one
            # the sharp test: K_CI + eps N with N H = 0, at weights near alpha*
            dirs = rng.standard_normal((20, problem.n, h.shape[0])) @ nullspace
            dirs *= np.linalg.norm(k_ci) / np.linalg.norm(dirs, axis=(1, 2))[:, None, None]
            near = alpha + np.array([-1e-3, -1e-4, 0.0, 1e-4, 1e-3])
            near = near[(near > 0.0) & (near < 1.0)]
            if alpha in (0.0, 1.0):
                near = np.append(near, np.abs(alpha - np.array([1e-6, 1e-5, 1e-2])))
            for eps in (1e-2, 1e-3):
                cand = k_ci + eps * dirs
                margins = _bound_margins(problem, cost, np.repeat(cand, near.size, axis=0),
                                         np.tile(near, len(cand)), reference)
                crit.check(margins.min() >= -tol,
                           f"{tag}: a perturbed gain beats CI by {-margins.min():.3g} (eps {eps})")
            perturbed += 1
            without_row_rank += i >= 40
            if 0.0 < alpha < 1.0:
                # stationarity: the bound is quadratic in K, so its central
                # difference along N is the first-order change, which the CI
                # gains' K_i P_i / w_i = P H_i' make vanish
                plus, _ = _rule_bounds(problem, k_ci + dirs[:5], np.full(5, alpha))
                minus, _ = _rule_bounds(problem, k_ci - dirs[:5], np.full(5, alpha))
                change = np.abs(plus - minus).max() / 2.0
                scale = max(np.abs(plus).max(), np.abs(minus).max())
                crit.check(change <= 1e-12 * scale,
                           f"{tag}: first-order change {change / scale:.3g} of the bound")
                stationary += 1
    crit.check(perturbed >= 40 and stationary >= 20,
               f"only {perturbed} perturbed and {stationary} stationarity solves")
    # every solve on a sensor without full row rank takes the sharp test:
    # its stack has more rows than the state
    crit.check(without_row_rank == 16,
               f"only {without_row_rank} perturbed solves lack full row rank")
    crit.conclude()

