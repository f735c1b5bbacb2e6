"""The paper's geometric argument, on the test oracles of ``conftest``.

The prior error ellipsoids ``{x : x' Sigma_i x <= 1}`` of the two estimates
intersect; ``covering_cross_cov`` covers each interior point by the
known-cross optimum of some admissible joint, so every conservative rule's
fused ellipsoid contains the intersection, and ``lower_bound_witness``
finds the weight of the CI blend that a candidate covariance dominates.
"""

import numpy as np
import pytest

from cifusion import (
    FusionProblem,
    JointCovariance,
    PartialEstimate,
    optimal_fusion_known_cross,
    psd_certify,
    solve_ci,
)
from cifusion.linalg import DEFAULT_TOL, PETERSEN_WIDTH, inv_pd
from cifusion.optimizer import Cost

from conftest import (
    covering_cross_cov,
    information_pair,
    lower_bound_witness,
    random_problem,
    sample_intersection_points,
)


def example1_problem():
    est1 = PartialEstimate([[1.0, 0.0]], [0.0], [[1.0]])
    est2 = PartialEstimate([[0.0, 1.0]], [0.0], [[1.0]])
    return FusionProblem(est1, est2)


def full_state_problem(p1, p2) -> FusionProblem:
    """Two full-state estimates with these covariances, so ``Sigma_i = P_i^-1``."""
    n = len(p1)
    return FusionProblem(PartialEstimate(np.eye(n), np.zeros(n), p1),
                         PartialEstimate(np.eye(n), np.zeros(n), p2))


def interpose_gap(problem, candidate, a):
    """``lambda_max(T - a Sigma1 - (1 - a) Sigma0)`` with ``T`` the candidate's inverse."""
    s1, s0 = information_pair(problem)
    m = inv_pd(candidate.data) - a * s1 - (1.0 - a) * s0
    return np.linalg.eigvalsh(m)[-1]


def witness_tol(problem, candidate):
    s1, s0 = information_pair(problem)
    mats = (s1, s0, inv_pd(candidate.data))
    return DEFAULT_TOL * max(1.0, max(np.abs(m).max() for m in mats))


class TestLowerBoundWitness:
    def test_identical_shapes_return_zero(self):
        problem = full_state_problem(np.eye(2), np.eye(2))
        assert lower_bound_witness(problem, psd_certify(np.eye(2))) == 0.0

    def test_exact_convex_combination(self):
        # Sigma1 = diag(1, 4), Sigma0 = diag(4, 1): their midpoint is 2.5 I
        problem = full_state_problem(np.diag([1.0, 0.25]), np.diag([0.25, 1.0]))
        assert lower_bound_witness(problem, psd_certify(0.4 * np.eye(2))) == pytest.approx(0.5)

    def test_ci_solution_admits_witness(self):
        # the CI optimum's own covariance is witnessed at alpha* and, by
        # first-order perturbation of T - a S1 - (1-a) S0, nowhere farther
        # from alpha* than w1 = tol (1/lam_max(D) + 1/(-lam_min(D))) with
        # D = S0 - S1 (the grid search it replaced missed by up to half a
        # grid step)
        rng = np.random.default_rng(5)
        for _ in range(10):
            problem = random_problem(rng)
            result = solve_ci(problem, Cost.DET)
            witness = lower_bound_witness(problem, result.P_hat)
            assert witness is not None
            tol = witness_tol(problem, result.P_hat)
            s1, s0 = information_pair(problem)
            eigs = np.linalg.eigvalsh(s0 - s1)
            alpha = result.alpha
            w1 = tol / eigs[-1] if eigs[-1] > 0.0 and alpha < 1.0 else 0.0
            w1 += tol / -eigs[0] if eigs[0] < 0.0 and alpha > 0.0 else 0.0
            assert abs(witness - alpha) <= w1, (witness, alpha, w1)

    def test_searches_the_left_end_alone(self, monkeypatch):
        # the first feasible weight plus one bisection towards 0: at most
        # 42 eigvalsh calls, where bisecting the right end as well took 80-81
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(1)
            return eigvalsh(a, *args, **kwargs)

        rng = np.random.default_rng(5)
        for _ in range(10):
            problem = random_problem(rng)
            result = solve_ci(problem, Cost.DET)
            calls.clear()
            monkeypatch.setattr(np.linalg, "eigvalsh", counted)
            assert lower_bound_witness(problem, result.P_hat) is not None
            monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
            assert len(calls) <= 42

    def test_left_end_is_tight(self):
        # the witness qualifies and a weight 2 PETERSEN_WIDTH to its left
        # does not, unless it is exactly 0.0
        rng = np.random.default_rng(6)
        interior = 0
        for _ in range(20):
            problem = random_problem(rng)
            result = solve_ci(problem, Cost.TRACE)
            candidate = psd_certify(result.P_hat.data / 0.999)
            witness = lower_bound_witness(problem, candidate)
            tol = witness_tol(problem, candidate)
            assert interpose_gap(problem, candidate, witness) <= tol
            if witness > 0.0:
                left = max(0.0, witness - 2.0 * PETERSEN_WIDTH)
                assert interpose_gap(problem, candidate, left) > tol
                interior += 1
        assert interior >= 10

    def test_not_found_for_tiny_target(self):
        problem = full_state_problem(np.diag([1.0, 0.25]), np.diag([0.25, 1.0]))
        assert lower_bound_witness(problem, psd_certify(0.1 * np.eye(2))) is None


class TestCoveringCrossCov:
    def test_example_point_is_covered(self):
        problem = example1_problem()
        x = np.array([0.5, 0.9])
        p12 = covering_cross_cov(x, problem)
        assert -1.0 < p12[0, 0] < 1.0
        joint = JointCovariance([[1.0]], p12, [[1.0]])
        result = optimal_fusion_known_cross(problem, joint)
        assert x @ np.linalg.inv(result.P_star.data) @ x < 1.0

    def test_origin_yields_zero_cross(self):
        problem = example1_problem()
        np.testing.assert_allclose(
            covering_cross_cov(np.zeros(2), problem), np.zeros((1, 1))
        )

    def test_equal_forms_take_perturbed_branch(self):
        problem = example1_problem()
        a = np.sqrt(0.5)  # both quadratic forms equal 0.5 exactly
        x = np.array([a, a])
        p12 = covering_cross_cov(x, problem)
        joint = JointCovariance([[1.0]], p12, [[1.0]])
        assert joint.pd
        result = optimal_fusion_known_cross(problem, joint)
        assert x @ np.linalg.inv(result.P_star.data) @ x < 1.0

    def test_interior_coverage_sampled(self):
        # 100 seeded valid problems, 20 strict-interior points each: the
        # construction succeeds, the joint is strictly PD, the point covered
        rng = np.random.default_rng(7)
        for _ in range(100):
            problem = random_problem(rng)
            points = sample_intersection_points(rng, problem, 20)
            for x in points:
                p12 = covering_cross_cov(x, problem)
                joint = JointCovariance(
                    problem.est1.p_hat, p12, problem.est2.p_hat
                )
                assert joint.pd  # strict PSD certificate
                result = optimal_fusion_known_cross(problem, joint)
                assert x @ np.linalg.inv(result.P_star.data) @ x < 1.0


class TestFusedEllipsoidCoversIntersection:
    def test_sampled_necessary_condition(self):
        # every optimal-fusion output ellipsoid must contain the
        # intersection of the two prior ellipsoids
        rng = np.random.default_rng(11)
        for cost in (Cost.DET, Cost.TRACE):
            for _ in range(10):
                problem = random_problem(rng)
                result = solve_ci(problem, cost)
                pts = sample_intersection_points(rng, problem, 200, level=1.0)
                shape = np.linalg.inv(result.P_hat.data)
                vals = np.einsum("si,ij,sj->s", pts, shape, pts)
                assert vals.max() <= 1.0 + 1e-8

    def test_example_corner_never_covered(self):
        problem = example1_problem()
        x = np.array([1.0, 1.0])
        for p12 in np.linspace(-0.999, 0.999, 201):
            joint = JointCovariance([[1.0]], [[p12]], [[1.0]])
            result = optimal_fusion_known_cross(problem, joint)
            value = x @ np.linalg.inv(result.P_star.data) @ x
            assert value > 1.0
            assert value == pytest.approx(2.0 / (1.0 + p12), rel=1e-10)
