import numpy as np
import pytest

from cifusion import (
    FusionProblem,
    PartialEstimate,
    loewner_compare,
    optimal_fusion_known_cross,
    psd_certify,
)
from cifusion.errors import DegenerateQError
from cifusion.known_cross import JointCovariance
from cifusion.optimizer import Cost, FusionResult, solve_ci
from cifusion.verifier import (
    Method,
    ZERO_Q_TOL,
    adversarial_x_search,
    alpha_uniqueness_check,
    certificate_tolerance,
    lmi_certificate,
    lmi_feasible_alphas,
    monte_carlo_joint,
    petersen_certificate,
    petersen_objective,
    q_pair,
)

from conftest import random_problem, well_scaled_problems


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
            k1 = q1 @ problem.est1.p_inv_sqrt
            k2 = q2 @ problem.est2.p_inv_sqrt
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


class TestAlphaUniqueness:
    def test_endpoint_solution_isolated(self):
        problem = example2_problem()
        result = solve_ci(problem, Cost.DET)
        feasible = lmi_feasible_alphas(result, problem)
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
