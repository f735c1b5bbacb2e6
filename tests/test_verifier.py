import dataclasses
import itertools
import sys
import threading

import numpy as np
import pytest

from cifusion import (
    FusionProblem,
    PartialEstimate,
    loewner_compare,
    optimal_fusion_known_cross,
    psd_certify,
)
from cifusion.errors import DegenerateQError, InternalInconsistencyError
from cifusion.known_cross import JointCovariance
from cifusion.linalg import PETERSEN_WIDTH
from cifusion.optimizer import Cost, FusionResult, ku_rule, solve_ci
from cifusion.verifier import (
    SCREEN_CANDIDATES,
    Method,
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
    sampled_violations,
    worst_violation,
)
from cifusion import verifier
from cifusion.verifier import (
    _draw_cross,
    _random_contraction_factors,
    _screen,
    _violation_stack,
    stack_max_eigenvalue,
)

from conftest import (
    dominated_problem,
    haar_contraction_draws,
    lmi_feasible_grid,
    lmi_matrix,
    monte_carlo_draws,
    monte_carlo_sqrt_oracle,
    petersen_golden_oracle,
    random_joint,
    random_orthogonal,
    random_problem,
    random_spd,
    rank_one_draws,
    well_scaled_problems,
)


def example2_problem():
    est1 = PartialEstimate(np.eye(2), [0.0, 0.0], np.eye(2))
    est2 = PartialEstimate(np.eye(2), [1.0, -1.0], np.diag([1.25, 0.1]))
    return FusionProblem(est1, est2)


def interior_problem():
    est1 = PartialEstimate([[1.0, 0.0]], [0.0], [[1.0]])
    est2 = PartialEstimate([[0.0, 1.0]], [0.0], [[1.0]])
    return FusionProblem(est1, est2)


def shrink_result(result, factor: float) -> FusionResult:
    return FusionResult(
        alpha=result.alpha,
        K1=result.K1,
        K2=result.K2,
        P_hat=psd_certify(factor * result.P_hat.data),
        fused_x=result.fused_x,
    )


def naive_rule(problem, shrink: float = 1.0) -> FusionResult:
    """Fusion that assumes independent errors: conservative only at X = 0."""
    joint = JointCovariance(
        problem.est1.p_hat, np.zeros((problem.p1, problem.p2)), problem.est2.p_hat
    )
    kc = optimal_fusion_known_cross(problem, joint)
    p_hat = psd_certify(shrink * kc.P_star.data)
    return FusionResult(
        alpha=0.5,
        K1=kc.K1,
        K2=kc.K2,
        P_hat=p_hat,
        fused_x=kc.fuse(problem.est1.x_hat, problem.est2.x_hat),
    )


class TestQPair:
    def test_gains_reconstructible_from_scaled_blocks(self):
        rng = np.random.default_rng(1)
        for problem in well_scaled_problems(rng, 10):
            result = solve_ci(problem, Cost.TRACE)
            q1, q2 = q_pair(result, problem)
            # Q = K L, so K' = L^-T Q'
            k1 = np.linalg.solve(problem.est1.p_chol.T, q1.T).T
            k2 = np.linalg.solve(problem.est2.p_chol.T, q2.T).T
            assert np.abs(k1 - result.K1).max() <= 1e-10
            assert np.abs(k2 - result.K2).max() <= 1e-10


class TestLmiCertificate:
    def test_ci_solution_passes(self):
        for cost in (Cost.DET, Cost.TRACE):
            problem = example2_problem()
            result = solve_ci(problem, cost)
            cert = lmi_certificate(result, problem, result.alpha)
            assert cert.passed and cert.method is Method.LMI
            scale = max(1.0, np.diag(result.P_hat.data).max())
            assert cert.lmi_min_eig >= -1e-9 * scale

    def test_shrunken_covariance_fails(self):
        problem = interior_problem()
        result = solve_ci(problem, Cost.DET)
        bad = shrink_result(result, 0.5)
        cert = lmi_certificate(bad, problem, result.alpha)
        assert not cert.passed and cert.lmi_min_eig < 0.0

    def test_endpoint_zero_gain_block(self):
        problem = example2_problem()
        result = solve_ci(problem, Cost.DET)  # alpha* = 0, K1 = 0
        cert = lmi_certificate(result, problem, 0.0)
        assert cert.passed and cert.tau is None

    def test_tau_matches_alpha(self):
        problem = interior_problem()
        result = solve_ci(problem, Cost.TRACE)
        cert = lmi_certificate(result, problem, result.alpha)
        assert cert.tau == pytest.approx(1.0 / result.alpha - 1.0, abs=1e-12)


    def test_min_eig_is_that_of_the_assembled_block(self):
        # the check takes R's eigenvalues as they stand, but the recorded
        # margin is still the eigvalsh of the whole block, bit for bit
        rng = np.random.default_rng(44)
        pool = [example2_problem(), example2_problem().swapped(), interior_problem()]
        pool += [random_problem(rng, n=int(rng.integers(2, 7))) for _ in range(20)]
        alphas = set()
        for problem in pool:
            for cost in (Cost.DET, Cost.TRACE):
                result = solve_ci(problem, cost)
                q1, q2 = q_pair(result, problem)
                for alpha in {result.alpha, 0.0, 1.0}:
                    block = lmi_matrix(result.P_hat.data, q1, q2, alpha)
                    cert = lmi_certificate(result, problem, alpha)
                    assert cert.lmi_min_eig == np.linalg.eigvalsh(block)[0]
                alphas.add(result.alpha)
        assert {0.0, 1.0} <= alphas and any(0.0 < a < 1.0 for a in alphas)


class TestAlphaUniqueness:
    def test_endpoint_solution_isolated(self):
        problem = example2_problem()
        result = solve_ci(problem, Cost.DET)
        lo, hi = lmi_feasible_interval(result, problem)
        assert lo == 0.0 and 0.0 < hi <= 1e-3
        feasible = lmi_feasible_grid(result, problem)
        assert feasible.size >= 1 and np.all(np.abs(feasible) <= 1e-3)
        assert alpha_uniqueness_check(result, problem) is True

    def test_equal_information_not_applicable(self):
        p = np.diag([1.0, 2.0])
        est1 = PartialEstimate(np.eye(2), [0.0, 0.0], p)
        est2 = PartialEstimate(np.eye(2), [1.0, 1.0], p)
        problem = FusionProblem(est1, est2)
        result = solve_ci(problem, Cost.DET)
        assert alpha_uniqueness_check(result, problem) is None

    def test_interior_solution_isolated(self):
        rng = np.random.default_rng(3)
        for problem in well_scaled_problems(rng, 10):
            result = solve_ci(problem, Cost.TRACE)
            assert alpha_uniqueness_check(result, problem) is True

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6, 1e9, 1e12])
    def test_verdict_does_not_depend_on_units(self, scale):
        # the solver finds the interior root alpha = 0.5 at every scale, and
        # the check classifies the pair as the solver does: distinct pairs
        # are isolated, equal ones not applicable (an absolute floor on the
        # information matrices called every pair below ~1e-9 equal)
        def problem_of(p2):
            return FusionProblem(
                PartialEstimate(np.eye(2), [0.0, 0.0], scale * np.diag([1.0, 2.0])),
                PartialEstimate(np.eye(2), [0.0, 0.0], scale * np.diag(p2)),
            )

        problem = problem_of([2.0, 1.0])
        result = solve_ci(problem, Cost.DET)
        assert result.alpha == 0.5 and result.diagnostics["branch"] == "interior_root"
        assert alpha_uniqueness_check(result, problem) is True
        equal = problem_of([1.0, 2.0])
        assert alpha_uniqueness_check(solve_ci(equal, Cost.DET), equal) is None


def schur_max_eig(result, problem, alpha: float) -> float:
    """``lambda_max(S1/alpha + S2/(1 - alpha) - P_hat)``.

    ``S_i/0`` is 0 when ``Q_i`` counts as zero, and the value is inf otherwise.
    """
    m = -result.P_hat.data
    for q, t in zip(q_pair(result, problem), (alpha, 1.0 - alpha)):
        if np.abs(q).max() > ZERO_Q_TOL:
            if t == 0.0:
                return np.inf
            m = m + q @ q.T / t
    return float(np.linalg.eigvalsh(m)[-1])


class TestFeasibleInterval:
    def pool(self):
        """Solves, family members and shrunk results, interior and at both ends."""
        rng = np.random.default_rng(37)
        problems = [example2_problem(), example2_problem().swapped(), interior_problem()]
        problems += well_scaled_problems(rng, 15)
        problems += [dominated_problem(rng, int(rng.integers(2, 5)), first)
                     for first in (True, False)]
        for problem in problems:
            for cost in (Cost.DET, Cost.TRACE):
                result = solve_ci(problem, cost)
                yield result, problem
                yield shrink_result(result, 1.001), problem
                yield shrink_result(result, 0.999), problem
                if 0.0 < result.alpha < 1.0:
                    yield ku_rule(problem, float(rng.uniform(0.2, 0.8))), problem

    def test_ends_are_tight(self):
        # f(lo) <= tol, and f > tol a hair outside unless the end is the
        # end of [0, 1]; an end is exactly 0.0 or 1.0 when that end qualifies
        ends = {0.0: 0, 1.0: 0, "inside": 0}
        for result, problem in self.pool():
            interval = lmi_feasible_interval(result, problem)
            if interval is None:
                continue
            tol = certificate_tolerance(result)
            for end, edge, outward in zip(interval, (0.0, 1.0), (-1.0, 1.0)):
                assert schur_max_eig(result, problem, end) <= tol
                if schur_max_eig(result, problem, edge) <= tol:
                    assert end == edge
                    ends[edge] += 1
                else:
                    beyond = min(max(end + outward * 2.0 * PETERSEN_WIDTH, 0.0), 1.0)
                    assert schur_max_eig(result, problem, beyond) > tol
                    ends["inside"] += 1
        assert min(ends.values()) >= 5, ends

    def test_shrunk_covariance_has_no_feasible_weight(self):
        rng = np.random.default_rng(41)
        for problem in well_scaled_problems(rng, 10) + [example2_problem()]:
            for cost in (Cost.DET, Cost.TRACE):
                shrunk = shrink_result(solve_ci(problem, cost), 0.999)
                assert lmi_feasible_interval(shrunk, problem) is None

    def test_matches_block_certificate_at_own_weight(self):
        # the interval holds the result's weight exactly when the assembled
        # block certificate passes there, outside the tolerance band
        checked = 0
        for result, problem in self.pool():
            tol = certificate_tolerance(result)
            if abs(schur_max_eig(result, problem, result.alpha) - tol) <= 1e-3 * tol:
                continue
            interval = lmi_feasible_interval(result, problem)
            inside = interval is not None and interval[0] <= result.alpha <= interval[1]
            assert inside == lmi_certificate(result, problem, result.alpha).passed
            checked += 1
        assert checked >= 100


class TestAdversarialSearch:
    def test_zero_cross_term_is_safe_for_ci(self):
        problem = interior_problem()
        result = solve_ci(problem, Cost.DET)
        q1, q2 = q_pair(result, problem)
        diag_case = q1 @ q1.T + q2 @ q2.T - result.P_hat.data
        assert np.linalg.eigvalsh(diag_case)[-1] <= 1e-12

    def test_ci_solution_clean(self):
        problem = example2_problem()
        for cost in (Cost.DET, Cost.TRACE):
            result = solve_ci(problem, cost)
            worst = adversarial_x_search(result, problem, samples=1000, seed=0)
            assert worst <= 1e-8

    def test_shrunken_covariance_exposed(self):
        problem = interior_problem()
        result = solve_ci(problem, Cost.DET)
        bad = shrink_result(result, 0.9)
        assert adversarial_x_search(bad, problem, samples=10, seed=0) > 1e-8

    def test_deterministic_in_seed(self):
        problem = example2_problem()
        result = solve_ci(problem, Cost.TRACE)
        a = adversarial_x_search(result, problem, samples=200, seed=42)
        b = adversarial_x_search(result, problem, samples=200, seed=42)
        assert a == b


class TestPetersenCertificate:
    def test_interior_solution_matches_weight_transform(self):
        problem = interior_problem()
        result = solve_ci(problem, Cost.TRACE)
        eps = petersen_certificate(result, problem)
        assert eps is not None
        tau = 1.0 / result.alpha - 1.0
        scale = max(1.0, np.diag(result.P_hat.data).max())
        assert petersen_objective(result, problem, tau) <= 1e-8 * scale
        assert eps == pytest.approx(tau, rel=1e-4)

    def test_shrunken_covariance_infeasible(self):
        problem = interior_problem()
        result = solve_ci(problem, Cost.DET)
        bad = shrink_result(result, 0.9)
        assert petersen_certificate(bad, problem) is None

    def test_zero_gain_block_degenerate(self):
        problem = example2_problem()
        result = solve_ci(problem, Cost.DET)
        assert np.abs(q_pair(result, problem)[0]).max() <= ZERO_Q_TOL
        with pytest.raises(DegenerateQError):
            petersen_certificate(result, problem)

    def test_agrees_with_golden_oracle(self):
        # the Newton search and the golden section it replaced give the same
        # verdict on 200 DET and TRACE solves, as solved and with P_hat
        # scaled by 0.999 and 1.001, outside a band of 1e-3 tol around tol;
        # each case also runs with its weight field moved, so that the search
        # starts away from the feasible weights and has to find them
        rng = np.random.default_rng(17)
        verdicts = []
        for problem in well_scaled_problems(rng, 100):
            for cost in (Cost.DET, Cost.TRACE):
                solved = solve_ci(problem, cost)
                q1, q2 = q_pair(solved, problem)
                if np.abs(q1).max() <= ZERO_Q_TOL or np.abs(q2).max() <= ZERO_Q_TOL:
                    continue
                moved = float(rng.uniform(0.05, 0.95))
                for factor, alpha in itertools.product((1.0, 0.999, 1.001), (None, moved)):
                    result = shrink_result(solved, factor)
                    if alpha is not None:
                        result = dataclasses.replace(result, alpha=alpha)
                    tol = certificate_tolerance(result)
                    eps = petersen_certificate(result, problem)
                    if eps is not None:
                        assert petersen_objective(result, problem, eps) <= tol
                    _, minimum = petersen_golden_oracle(result, problem)
                    if abs(minimum - tol) <= 1e-3 * tol:
                        continue
                    assert (eps is not None) == (minimum <= tol), (factor, minimum, tol)
                    verdicts.append(eps is not None)
        assert len(verdicts) >= 800 and 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("start", [0.0, 1.0, 1e-12])
    def test_extreme_start_weights_agree_with_golden_oracle(self, start):
        # with both gain blocks nonzero M is infinite at weights 0 and 1:
        # the search starts or bisects away from them and never evaluates
        # there, and its verdict matches the golden section's
        rng = np.random.default_rng(31)
        verdicts = []
        for problem in well_scaled_problems(rng, 30):
            for cost in (Cost.DET, Cost.TRACE):
                solved = solve_ci(problem, cost)
                q1, q2 = q_pair(solved, problem)
                if np.abs(q1).max() <= ZERO_Q_TOL or np.abs(q2).max() <= ZERO_Q_TOL:
                    continue
                for factor in (1.0, 0.999, 1.001, 0.9):
                    result = dataclasses.replace(shrink_result(solved, factor), alpha=start)
                    tol = certificate_tolerance(result)
                    eps = petersen_certificate(result, problem)
                    if eps is not None:
                        assert petersen_objective(result, problem, eps) <= tol
                    _, minimum = petersen_golden_oracle(result, problem)
                    if abs(minimum - tol) > 1e-3 * tol:
                        assert (eps is not None) == (minimum <= tol), (factor, minimum, tol)
                        verdicts.append(eps is not None)
        assert len(verdicts) >= 150 and 0 < sum(verdicts) < len(verdicts)

    def test_returns_the_first_certifying_iterate(self):
        # a conservative interior solve certifies at its own weight, which is
        # the first iterate, so the eps is exactly 1/alpha - 1
        rng = np.random.default_rng(19)
        checked = 0
        for problem in well_scaled_problems(rng, 20):
            for cost in (Cost.DET, Cost.TRACE):
                result = solve_ci(problem, cost)
                if not 1e-6 < result.alpha < 1.0 - 1e-6:
                    continue
                assert petersen_certificate(result, problem) == 1.0 / result.alpha - 1.0
                checked += 1
        assert checked >= 20

    def test_tangent_bound_stops_infeasible_search_early(self, monkeypatch):
        # on shrunk covariances the tangent lines at the bracket ends prove
        # the minimum above tol within a few evaluations, long before the
        # bracket narrows to PETERSEN_WIDTH
        evals = []
        eigh = np.linalg.eigh

        def counting(m):
            evals.append(m)
            return eigh(m)

        rng = np.random.default_rng(23)
        problems = well_scaled_problems(rng, 20)
        monkeypatch.setattr(np.linalg, "eigh", counting)
        for problem in problems:
            result = shrink_result(solve_ci(problem, Cost.TRACE), 0.9)
            q1, q2 = q_pair(result, problem)
            if np.abs(q1).max() <= ZERO_Q_TOL or np.abs(q2).max() <= ZERO_Q_TOL:
                continue
            evals.clear()
            assert petersen_certificate(result, problem) is None
            assert 1 <= len(evals) <= 10


class TestMonteCarloJoint:
    def test_diagonal_truth_respects_bound(self):
        # P1 = P_hat1, P2 = P_hat2, P12 = 0 is admissible, and the fused
        # truth equals Q1 Q1' + Q2 Q2' which must stay below P_hat
        problem = interior_problem()
        result = solve_ci(problem, Cost.TRACE)
        joint = JointCovariance(
            problem.est1.p_hat, np.zeros((1, 1)), problem.est2.p_hat
        )
        k = np.hstack([result.K1, result.K2])
        fused_truth = k @ joint.assembled.data @ k.T
        q1, q2 = q_pair(result, problem)
        np.testing.assert_allclose(fused_truth, q1 @ q1.T + q2 @ q2.T, atol=1e-12)
        assert loewner_compare(result.P_hat.data, fused_truth).is_ge

    def test_ci_solution_clean(self):
        rng = np.random.default_rng(5)
        for problem in well_scaled_problems(rng, 5):
            result = solve_ci(problem, Cost.DET)
            worst = monte_carlo_joint(result, problem, truth_samples=1000, seed=1)
            assert worst <= 1e-8

    def test_naive_rule_exposed(self):
        problem = interior_problem()
        bad = naive_rule(problem, shrink=0.8)
        assert monte_carlo_joint(bad, problem, truth_samples=1000, seed=2) > 1e-8

    def test_prop1_equivalence_on_mutants(self):
        # varying only the cross block finds violations exactly when the
        # full shrunken-diagonal sampling does, on 10 non-conservative rules
        rng = np.random.default_rng(7)
        problems = well_scaled_problems(rng, 10)
        mutants = []
        for i, problem in enumerate(problems):
            if i % 2 == 0:
                result = solve_ci(problem, Cost.TRACE)
                mutants.append((shrink_result(result, 0.85), problem))
            else:
                mutants.append((naive_rule(problem, shrink=0.8), problem))
        for result, problem in mutants:
            tol = certificate_tolerance(result)
            fixed = adversarial_x_search(result, problem, samples=500, seed=11)
            shrunk = monte_carlo_joint(result, problem, truth_samples=500, seed=11)
            assert (fixed > tol) == (shrunk > tol)
            assert fixed > tol  # every mutant here is genuinely non-conservative


    def test_agrees_with_sqrt_oracle_on_conservative_solves(self):
        # the factor-based sampler and the symmetric-root sampler it replaced
        # both find no violation on 20 conservative solves
        rng = np.random.default_rng(13)
        for i, problem in enumerate(well_scaled_problems(rng, 10)):
            for cost in (Cost.DET, Cost.TRACE):
                result = solve_ci(problem, cost)
                tol = certificate_tolerance(result)
                worst = monte_carlo_joint(result, problem, truth_samples=1000, seed=i)
                oracle = monte_carlo_sqrt_oracle(result, problem, truth_samples=1000, seed=i)
                assert worst <= tol and oracle <= tol


def truth_result(rng, problem) -> FusionResult:
    """The optimal known-cross fusion under a random admissible joint."""
    kc = optimal_fusion_known_cross(problem, random_joint(rng, problem.p1, problem.p2))
    return FusionResult(
        alpha=0.5,
        K1=kc.K1,
        K2=kc.K2,
        P_hat=kc.P_star,
        fused_x=kc.fuse(problem.est1.x_hat, problem.est2.x_hat),
    )


def sampled_cases(n: int):
    """Solved, endpoint, truth and shrunk results of state dimension ``n``."""
    rng = np.random.default_rng(1300 + n)
    problem = random_problem(rng, n)
    solved = solve_ci(problem, Cost.DET)
    cases = [(solved, problem), (solve_ci(problem, Cost.TRACE), problem),
             (shrink_result(solved, 0.9), problem), (truth_result(rng, problem), problem)]
    for dominant_first in (True, False):
        dominated = dominated_problem(rng, n, dominant_first)
        cases.append((solve_ci(dominated, Cost.DET), dominated))
    return cases


def sequential(result, problem, samples: int, seed: int) -> tuple[float, float]:
    return (adversarial_x_search(result, problem, samples, seed),
            monte_carlo_joint(result, problem, samples, seed))


def bits(values) -> list[int]:
    return np.array(values, dtype=float).view(np.int64).tolist()


def outcome(call):
    """``call()``'s value, or the type of the exception it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc)


class TestSamplerStrength:
    """Rank-one cross draws on CI solves shrunk to ``(1 - 1e-2) P_hat``."""

    SHRINK = 1.0 - 1e-2
    SOLVES = 40

    def shrunk_solves(self):
        # DET and TRACE solves with both gain blocks nonzero, so the cross
        # term matters and the scalar certificate is not degenerate
        rng = np.random.default_rng(2024)
        cases = []
        while len(cases) < self.SOLVES:
            problem = random_problem(rng)
            for cost in (Cost.DET, Cost.TRACE):
                result = solve_ci(problem, cost)
                q1, q2 = q_pair(result, problem)
                if np.abs(q1).max() > ZERO_Q_TOL and np.abs(q2).max() > ZERO_Q_TOL:
                    cases.append((shrink_result(result, self.SHRINK), problem))
        return cases

    def test_adversarial_search_flags_every_shrunk_solve(self):
        # sup over |X| <= 1 is attained at a rank-one X of norm one
        # (Petersen), so 1000 such draws find every 1% shrink here
        cases = self.shrunk_solves()
        for seed, (result, problem) in enumerate(cases):
            worst = adversarial_x_search(result, problem, 1000, seed)
            assert worst > certificate_tolerance(result), (seed, worst)

    def test_samplers_stay_below_the_scalar_bound(self):
        # every value of the scalar certificate bounds the supremum from
        # above, so a sampled value above the golden minimum would mean a
        # draw that is not a contraction
        for seed, (result, problem) in enumerate(self.shrunk_solves()):
            _, minimum = petersen_golden_oracle(result, problem)
            slack = 1e-12 * np.linalg.norm(result.P_hat.data, 2)
            for value in sequential(result, problem, 1000, seed):
                assert value <= minimum + slack, (seed, value, minimum)


class TestSampledViolations:
    """Monte Carlo on a worker thread while the caller runs the adversarial search."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_bitwise_equal_to_sequential_calls(self, n):
        cases = sampled_cases(n)
        assert {result.alpha for result, _ in cases[-2:]} == {0.0, 1.0}
        for seed, (result, problem) in enumerate(cases):
            expected = sequential(result, problem, 300, seed)
            assert bits(sampled_violations(result, problem, 300, seed)) == bits(expected)
        # the shrunk result is non-conservative, so both samplers flag it
        tol = certificate_tolerance(cases[2][0])
        assert min(sampled_violations(*cases[2], 300, 2)) > tol

    def test_concurrent_callers_get_their_sequential_values(self):
        # more callers than CPUs, each with its worker, switching often
        calls = [(*sampled_cases(n)[k], 400, 10 + n) for n, k in ((2, 0), (3, 2), (5, 3), (6, 4))]
        expected = [bits(sequential(*call)) for call in calls]
        before = threading.active_count()
        start = threading.Barrier(len(calls))
        got = [None] * len(calls)

        def caller(i):
            start.wait(timeout=60)
            got[i] = bits(sampled_violations(*calls[i]))

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(calls))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == expected
        assert threading.active_count() == before

    @pytest.mark.parametrize("divide", ["raise", "ignore"])
    def test_worker_takes_the_callers_errstate(self, monkeypatch, divide):
        # numpy keeps np.errstate per context: a thread started without the
        # caller's context would warn (an error under this suite's filter)
        result, problem = sampled_cases(3)[0]

        def dividing(*args):
            return float(np.divide(1.0, np.zeros(1))[0])

        monkeypatch.setattr(verifier, "monte_carlo_joint", dividing)
        with np.errstate(divide=divide):
            on_caller = outcome(lambda: dividing(result, problem, 50, 0))
            concurrent = outcome(lambda: sampled_violations(result, problem, 50, 0))
        assert on_caller == (FloatingPointError if divide == "raise" else np.inf)
        if on_caller is not FloatingPointError:
            on_caller = (adversarial_x_search(result, problem, 50, 0), on_caller)
        assert concurrent == on_caller


class TestWorstViolationKernel:
    SEEDS = (0, 1, 2, 3)
    COUNT = 50

    def cases(self):
        for seed in self.SEEDS:
            problem = random_problem(np.random.default_rng(100 + seed))
            result = solve_ci(problem, Cost.TRACE)
            yield seed, problem, result
            yield seed, problem, shrink_result(result, 0.9)

    def test_sampler_feeds_kernel_the_factored_joints(self, monkeypatch):
        # monte_carlo_joint hands the kernel G_i = K_i F_i for the two aligned
        # extremes at the full diagonal, then for each drawn joint
        calls = []

        def spy(*args):
            calls.append(args)
            return worst_violation(*args)

        monkeypatch.setattr(verifier, "worst_violation", spy)
        for seed, problem, result in self.cases():
            calls.clear()
            worst = monte_carlo_joint(result, problem, truth_samples=self.COUNT, seed=seed)
            (g1, g2, xs, p_hat), = calls
            assert worst == worst_violation(g1, g2, xs, p_hat)
            assert p_hat is result.P_hat.data
            f1, f2, x_draws, b1, b2 = monte_carlo_draws(problem, seed, self.COUNT)
            q1, q2 = q_pair(result, problem)
            u, _, vt = np.linalg.svd(q1.T @ q2, full_matrices=False)
            extreme = u @ vt * (1.0 - 1e-6)
            np.testing.assert_array_equal(g1[:2], [q1, q1])
            np.testing.assert_array_equal(g2[:2], [q2, q2])
            np.testing.assert_allclose(xs[:2], [extreme, -extreme], rtol=0.0, atol=1e-14)
            np.testing.assert_allclose(xs[2:], x_draws, rtol=1e-13, atol=0.0)
            for g, k, f, block in ((g1, result.K1, f1, b1), (g2, result.K2, f2, b2)):
                np.testing.assert_allclose(g[2:], k @ f, rtol=0.0, atol=1e-13 * np.abs(k @ f).max())
                # F F' is the shrunken prior block: F differs from its
                # symmetric root only by an orthogonal factor on the right
                np.testing.assert_allclose(f @ np.swapaxes(f, 1, 2), block, rtol=0.0,
                                           atol=1e-13 * np.abs(block).max())

    def test_matches_dense_joint_per_sample(self):
        for seed, problem, result in self.cases():
            p_hat = result.P_hat.data
            scale = np.linalg.norm(p_hat, 2)
            k = np.hstack([result.K1, result.K2])
            f1, f2, xs, _, _ = monte_carlo_draws(problem, seed, self.COUNT)
            for s in range(self.COUNT):
                p12 = f1[s] @ xs[s] @ f2[s].T
                joint = np.block([[f1[s] @ f1[s].T, p12], [p12.T, f2[s] @ f2[s].T]])
                dense = np.linalg.eigvalsh(k @ joint @ k.T - p_hat)[-1]
                kernel = worst_violation(result.K1 @ f1[s], result.K2 @ f2[s], xs[s][None], p_hat)
                assert abs(kernel - dense) <= 1e-12 * scale
                assert np.linalg.eigvalsh(joint)[0] >= -1e-12 * np.linalg.norm(joint, 2)
                for f, est in ((f1[s], problem.est1), (f2[s], problem.est2)):
                    p = est.p_hat.data
                    assert np.linalg.eigvalsh(p - f @ f.T)[0] >= -1e-12 * np.linalg.norm(p, 2)
                assert np.linalg.svd(xs[s], compute_uv=False)[0] < 1.0

    def test_shared_factor_equals_stacked_copies(self):
        for seed, problem, result in self.cases():
            q1, q2 = q_pair(result, problem)
            xs = monte_carlo_draws(problem, seed, self.COUNT)[2]
            stack = (self.COUNT,)
            shared = worst_violation(q1, q2, xs, result.P_hat.data)
            stacked = worst_violation(np.broadcast_to(q1, stack + q1.shape),
                                      np.broadcast_to(q2, stack + q2.shape), xs, result.P_hat.data)
            assert abs(shared - stacked) <= 1e-12 * np.linalg.norm(result.P_hat.data, 2)

    @pytest.mark.parametrize("p1", range(1, 7))
    @pytest.mark.parametrize("p2", range(1, 7))
    def test_cross_draws_are_rank_one_contractions(self, monkeypatch, p1, p2):
        # both samplers draw X = a b' from unit Gaussian directions, rebuilt
        # here from the raw stream: spectral norm one for the adversarial
        # search, and Monte Carlo's radius, drawn after the two directions
        calls = []

        def spy(*args):
            calls.append(args)
            return worst_violation(*args)

        monkeypatch.setattr(verifier, "worst_violation", spy)
        eps, count, seed = np.finfo(float).eps, 200, p1 * 10 + p2
        problem = random_problem(np.random.default_rng(seed), max(p1, p2), p1, p2)
        result = solve_ci(problem, Cost.TRACE)
        adversarial_x_search(result, problem, samples=count, seed=seed)
        monte_carlo_joint(result, problem, truth_samples=count, seed=seed)
        (_, _, xs_adv, _), (_, _, xs_mc, _) = calls
        xs_adv, xs_mc = xs_adv[3:], xs_mc[2:]
        unit = rank_one_draws(np.random.default_rng(seed), count, p1, p2)
        np.testing.assert_allclose(xs_adv, unit, rtol=1e-13, atol=0.0)
        rng = np.random.default_rng(seed)
        haar_contraction_draws(rng, p1, count)
        haar_contraction_draws(rng, p2, count)
        unit = rank_one_draws(rng, count, p1, p2)
        radii = rng.uniform(size=count) * (1.0 - 1e-12)
        np.testing.assert_allclose(xs_mc, unit * radii[:, None, None], rtol=1e-13, atol=0.0)
        for xs, norms in ((xs_adv, np.ones(count)), (xs_mc, radii)):
            sv = np.linalg.svd(xs, compute_uv=False)
            assert (sv[:, 1:] <= 1e-15 * sv[:, :1]).all()
            assert (np.abs(sv[:, 0] - norms) <= 4.0 * eps * norms).all()
        assert (np.linalg.svd(xs_mc, compute_uv=False)[:, 0] < 1.0).all()


def strided(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` as a view that is contiguous along no axis."""
    buf = np.zeros(tuple(2 * d for d in a.shape))
    view = buf[tuple(slice(None, None, 2) for _ in a.shape)]
    view[...] = a
    return view


class ZeroColumnGenerator:
    """Gaussian stream with one column of one sample set exactly to zero."""

    def __init__(self, column: int):
        self.column = column
        self.rng = np.random.default_rng(0)

    def standard_normal(self, size):
        gauss = self.rng.standard_normal(size)
        gauss[3, :, self.column] = 0.0
        return gauss

    def uniform(self, low, high, size):
        return self.rng.uniform(low, high, size)


class TestSampleLastSampler:
    @pytest.mark.parametrize("dim", range(1, 13))
    def test_haar_factors_match_sign_fixed_qr(self, dim):
        # Gram-Schmidt gives R a positive diagonal, so U is the sign-fixed
        # Householder Q up to rounding that grows with the draw's condition
        count, seed = 300, 1000 + dim
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        factors = _random_contraction_factors(rng, dim, count)
        assert factors.shape == (dim, dim, count) and factors.flags.c_contiguous
        u_ref, e = haar_contraction_draws(oracle, dim, count)
        u = np.moveaxis(factors, -1, 0) / np.sqrt(e)[:, None, :]
        cond = np.linalg.cond(np.random.default_rng(seed).standard_normal((count, dim, dim)))
        assert (np.abs(u - u_ref).max(axis=(1, 2)) <= 1e-12 * cond).all()
        gram = np.einsum("sij,sik->sjk", u, u)
        assert np.abs(gram - np.eye(dim)).max() <= 1e-14 * dim
        # the sampler consumed exactly the oracle's draws
        assert rng.standard_normal() == oracle.standard_normal()

    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_zero_residual_column_raises(self, column):
        with pytest.raises(InternalInconsistencyError):
            _random_contraction_factors(ZeroColumnGenerator(column), 3, 10)

    @pytest.mark.parametrize("n, p1, p2", [(1, 1, 1), (1, 2, 3), (3, 1, 2), (4, 3, 1), (5, 3, 3), (6, 4, 6)])
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("layout", ["sample_first", "sample_last", "strided"])
    def test_violation_stack_matches_per_sample_products(self, n, p1, p2, shared, layout):
        rng = np.random.default_rng(n * 100 + p1 * 10 + p2)
        count = 30
        lead = () if shared else (count,)
        g1 = rng.standard_normal(lead + (n, p1))
        g2 = rng.standard_normal(lead + (n, p2))
        xs = _draw_cross(rng, count, p1, p2)
        p_hat = random_spd(rng, n)
        args = [np.ascontiguousarray(a) for a in (g1, g2, xs)]
        if layout == "sample_last":
            args = [a if a.ndim == 2 else np.moveaxis(np.moveaxis(a, 0, -1).copy(), -1, 0)
                    for a in args]
        elif layout == "strided":
            args = [strided(a) for a in args]
        stack = _violation_stack(*args, p_hat)
        assert stack.shape == (count, n, n)
        assert np.moveaxis(stack, 0, -1).flags.c_contiguous
        for s in range(count):
            a, b = (g1, g2) if shared else (g1[s], g2[s])
            cross = a @ xs[s] @ b.T
            ref = a @ a.T + b @ b.T - p_hat + cross + cross.T
            scale = (np.abs(a @ a.T).max() + np.abs(b @ b.T).max() + np.abs(p_hat).max()
                     + 2.0 * np.abs(cross).max())
            np.testing.assert_allclose(stack[s], ref, rtol=0.0, atol=1e-13 * scale)

    def test_samplers_hand_the_kernel_views_of_sample_last_memory(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return worst_violation(*args)

        monkeypatch.setattr(verifier, "worst_violation", spy)
        problem = random_problem(np.random.default_rng(31))
        result = solve_ci(problem, Cost.TRACE)
        adversarial_x_search(result, problem, samples=20, seed=3)
        monte_carlo_joint(result, problem, truth_samples=20, seed=3)
        (q1, q2, xs_adv, _), (g1, g2, xs_mc, _) = calls
        assert q1.ndim == q2.ndim == 2
        for stack, count in ((xs_adv, 23), (g1, 22), (g2, 22), (xs_mc, 22)):
            assert len(stack) == count
            assert np.moveaxis(stack, 0, -1).flags.c_contiguous


def unscreened(mats: np.ndarray) -> float:
    return np.linalg.eigvalsh(mats)[:, -1].max()


def symmetric_stack(rng, count: int, n: int) -> np.ndarray:
    a = rng.standard_normal((count, n, n))
    return a + np.swapaxes(a, 1, 2)


def near_tie_stack(rng, count: int, n: int) -> np.ndarray:
    """``U diag(lambda) U'`` whose largest eigenvalues are 3 up to 1e-15 relative."""
    u = np.array([random_orthogonal(rng, n) for _ in range(count)])
    lam = rng.uniform(-2.0, 1.0, size=(count, n))
    lam[:, -1] = 3.0 * (1.0 + 1e-15 * rng.standard_normal(count))
    return (u * lam[:, None, :]) @ np.swapaxes(u, 1, 2)


class TestScreenedKernel:
    """The screened maximum equals ``eigvalsh(M)[:, -1].max()`` bit for bit."""

    @pytest.mark.parametrize("n", range(1, 21))
    def test_bitwise_equal_to_unscreened(self, n):
        rng = np.random.default_rng(500 + n)
        count = 300
        p1, p2 = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
        xs = _draw_cross(rng, count, p1, p2)
        shared = (rng.standard_normal((n, p1)), rng.standard_normal((n, p2)))
        per_sample = (rng.standard_normal((count, n, p1)), rng.standard_normal((count, n, p2)))
        p_hat = random_spd(rng, n)
        for g1, g2 in (shared, per_sample):
            # a small and a large P_hat: violations mostly positive, then negative
            for scale in (0.1, 10.0 * n):
                stack = _violation_stack(g1, g2, xs, scale * p_hat)
                assert worst_violation(g1, g2, xs, scale * p_hat) == unscreened(stack)
        mats = symmetric_stack(rng, count, n)
        assert stack_max_eigenvalue(mats) == unscreened(mats)

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_exact_ties(self, n):
        rng = np.random.default_rng(600 + n)
        mats = np.repeat(symmetric_stack(rng, 1, n), 200, axis=0)
        assert stack_max_eigenvalue(mats) == unscreened(mats)
        assert _screen(mats, unscreened(mats)).all()
        # Q1 = 0 makes every adversarial sample the same matrix
        q1, q2 = np.zeros((n, 2)), rng.standard_normal((n, 3))
        xs = _draw_cross(rng, 200, 2, 3)
        p_hat = random_spd(rng, n)
        stack = _violation_stack(q1, q2, xs, p_hat)
        assert worst_violation(q1, q2, xs, p_hat) == unscreened(stack)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 15])
    def test_near_ties(self, n):
        mats = near_tie_stack(np.random.default_rng(700 + n), 300, n)
        assert stack_max_eigenvalue(mats) == unscreened(mats)

    @pytest.mark.parametrize("position", [0, 97, 199])
    def test_maximum_outside_the_ranked_candidates(self, position):
        # decoys have unit diagonals and largest eigenvalues near 1; the
        # maximum has a zero diagonal, so it ranks last on both lower bounds
        rng = np.random.default_rng(800 + position)
        n = 4
        mats = np.eye(n) + 0.01 * symmetric_stack(rng, 200, n)
        hidden = np.zeros((n, n))
        hidden[0, 1] = hidden[1, 0] = 2.0
        mats[position] = hidden
        diag = np.einsum("sii->si", mats)
        others = np.delete(np.arange(200), position)
        assert diag[position].max() < diag[others].max(axis=1).min()
        assert diag[position].sum() < diag[others].sum(axis=1).min()
        assert stack_max_eigenvalue(mats) == unscreened(mats) == np.linalg.eigvalsh(hidden)[-1]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 20])
    def test_screen_keeps_every_sample_reaching_the_threshold(self, n):
        # thresholds at the samples' own eigvalsh values: a sample at or
        # above c is never dropped, one clearly below it always is
        rng = np.random.default_rng(900 + n)
        for mats in (symmetric_stack(rng, 400, n), near_tie_stack(rng, 400, n)):
            tops = np.linalg.eigvalsh(mats)[:, -1]
            scale = np.abs(tops).max() + n * np.abs(mats).max()
            for c in np.sort(tops)[::-37]:
                flagged = _screen(mats, c)
                assert flagged[tops >= c].all()
                assert not flagged[tops < c - 1e-9 * scale].any()


def tied_stack(rng, mats, counts) -> np.ndarray:
    """Each of ``mats`` repeated ``counts`` times, in random order."""
    stack = np.repeat(mats, counts, axis=0)
    return stack[rng.permutation(len(stack))]


@pytest.fixture
def kernel_batches(monkeypatch):
    """Sizes of the batches that ``stack_max_eigenvalue`` hands to ``eigvalsh``."""
    sizes, inside = [], []
    eigvalsh, kernel = np.linalg.eigvalsh, verifier.stack_max_eigenvalue

    def counted(a, *args, **kwargs):
        if inside:
            sizes.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    def traced(mats):
        inside.append(True)
        try:
            return kernel(mats)
        finally:
            inside.clear()

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(verifier, "stack_max_eigenvalue", traced)
    return sizes


class TestTiedStacks:
    """Copies of the matrix that sets the threshold are decomposed once."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_bitwise_equal_to_unscreened(self, n):
        rng = np.random.default_rng(1000 + n)
        counts = [200, 300, 250]
        decoys = np.eye(n) + 0.01 * symmetric_stack(rng, 2, n)
        hidden = np.zeros((1, n, n))
        if n > 1:  # ranks last on both diagonal bounds, largest eigenvalue 2
            hidden[0, 0, 1] = hidden[0, 1, 0] = 2.0
        for mats in (symmetric_stack(rng, 3, n), near_tie_stack(rng, 3, n),
                     np.concatenate([decoys, hidden])):
            stack = tied_stack(rng, mats, counts)
            assert stack_max_eigenvalue(stack) == unscreened(stack)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_decomposes_candidates_and_distinct_survivors(self, n, kernel_batches):
        rng = np.random.default_rng(1100 + n)
        shifts = np.array([0.0, 5.0, 10.0])[:, None, None] * np.eye(n)
        mats = 0.1 * symmetric_stack(rng, 3, n) + shifts
        # two distinct near-copies of the winner, a relative 1e-13 and 2e-13
        # lower on the diagonal, rank below it and may survive the screen
        nudged = np.repeat(mats[2:], 2, axis=0)
        diag = np.einsum("sii->si", nudged)
        diag -= np.array([[1e-13], [2e-13]]) * np.abs(diag)
        stack = tied_stack(rng, np.concatenate([mats, nudged]), [300, 300, 300, 1, 1])
        assert verifier.stack_max_eigenvalue(stack) == unscreened(stack)
        first, *rest = kernel_batches
        assert first <= 2 * SCREEN_CANDIDATES and sum(rest) <= 2
        kernel_batches.clear()
        stack = np.repeat(mats[:1], 500, axis=0)
        assert verifier.stack_max_eigenvalue(stack) == unscreened(stack)
        assert sum(kernel_batches) <= 2 * SCREEN_CANDIDATES

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_endpoint_adversarial_search_decomposes_the_candidates(self, n, kernel_batches):
        # alpha = 1 makes K2 = 0, so every adversarial sample is Q1 Q1' - P_hat
        problem = dominated_problem(np.random.default_rng(1200 + n), n, True)
        result = solve_ci(problem, Cost.DET)
        assert result.alpha == 1.0 and not result.K2.any()
        adversarial_x_search(result, problem, samples=1000, seed=n)
        assert sum(kernel_batches) <= 2 * SCREEN_CANDIDATES


class TestCertificateEquivalence:
    def test_three_routes_agree(self):
        # scalar certificate <=> block certificate <=> direct split bound,
        # on 200 seeded results mixing conservative solutions and mutants
        rng = np.random.default_rng(9)
        cases = []
        for problem in well_scaled_problems(rng, 100):
            result = solve_ci(problem, Cost.TRACE)
            cases.append((result, problem))
            cases.append((shrink_result(result, 0.9), problem))
        for result, problem in cases:
            q1, q2 = q_pair(result, problem)
            if np.abs(q1).max() <= ZERO_Q_TOL or np.abs(q2).max() <= ZERO_Q_TOL:
                continue
            tol = certificate_tolerance(result)
            lmi_ok = lmi_certificate(result, problem, result.alpha).passed
            eps = petersen_certificate(result, problem)
            petersen_ok = eps is not None
            # direct split bound, evaluated at the candidate weights (the
            # feasible weight is unique, so a blind grid would miss it)
            candidates = [result.alpha] if 0.0 < result.alpha < 1.0 else []
            if eps is not None:
                candidates.append(1.0 / (1.0 + eps))
            direct_ok = False
            for a in candidates:
                m = result.P_hat.data - q1 @ q1.T / a - q2 @ q2.T / (1.0 - a)
                if np.linalg.eigvalsh(m)[0] >= -tol:
                    direct_ok = True
                    break
            assert lmi_ok == petersen_ok == direct_ok
            if petersen_ok and 0.0 < result.alpha < 1.0:
                tau = 1.0 / result.alpha - 1.0
                assert petersen_objective(result, problem, tau) <= tol

    def test_degenerate_blocks_use_one_sided_bound(self):
        problem = example2_problem()
        result = solve_ci(problem, Cost.DET)  # K1 = 0
        q1, q2 = q_pair(result, problem)
        direct = result.P_hat.data - q2 @ q2.T
        assert np.linalg.eigvalsh(direct)[0] >= -1e-12
        assert lmi_certificate(result, problem, 0.0).passed


class TestClosureUnderIteration:
    def test_fused_covariance_strictly_pd(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            problem = random_problem(rng)
            for cost in (Cost.DET, Cost.TRACE):
                result = solve_ci(problem, cost)
                assert psd_certify(result.P_hat.data).strict
