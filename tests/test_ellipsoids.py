import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cifusion import (
    Ellipsoid,
    FusionProblem,
    JointCovariance,
    Membership,
    PartialEstimate,
    contains,
    covering_cross_cov,
    kahan_interpose,
    membership,
    optimal_fusion_known_cross,
    psd_certify,
    solve_ci,
)
from cifusion.ellipsoids import prior_ellipsoids
from cifusion.errors import (
    DegenerateDirectionError,
    DimensionMismatchError,
    NotInteriorError,
)
from cifusion.linalg import DEFAULT_TOL, PETERSEN_WIDTH
from cifusion.optimizer import Cost

from conftest import random_problem, random_spd, sample_intersection_points


def example1_problem():
    est1 = PartialEstimate([[1.0, 0.0]], [0.0], [[1.0]])
    est2 = PartialEstimate([[0.0, 1.0]], [0.0], [[1.0]])
    return FusionProblem(est1, est2)


class TestContains:
    def test_shrinking_shape_grows_ellipsoid(self):
        assert contains(Ellipsoid(0.5 * np.eye(2)), Ellipsoid(np.eye(2)))
        assert not contains(Ellipsoid(np.eye(2)), Ellipsoid(0.5 * np.eye(2)))

    def test_reflexive(self):
        sigma = random_spd(np.random.default_rng(1), 3)
        assert contains(Ellipsoid(sigma), Ellipsoid(sigma))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            contains(Ellipsoid(np.eye(2)), Ellipsoid(np.eye(3)))

    def test_duality_by_boundary_sampling(self):
        # when contains() holds, boundary points of the inner ellipsoid
        # evaluate to at most 1 + 1e-8 in the outer shape
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            inner = random_spd(rng, d, lo=0.5, hi=2.0)
            w = rng.standard_normal((d, d))
            shrink = w @ w.T
            shrink *= rng.uniform(0.0, 0.9) * np.linalg.eigvalsh(inner)[0] / max(
                np.linalg.eigvalsh(shrink)[-1], 1e-300
            )
            outer = inner - shrink
            assert contains(Ellipsoid(outer), Ellipsoid(inner))
            inner_inv_sqrt = np.linalg.inv(
                np.linalg.cholesky(inner).T
            )  # maps unit sphere to the boundary
            dirs = rng.standard_normal((200, d))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            pts = dirs @ inner_inv_sqrt.T
            vals = np.einsum("si,ij,sj->s", pts, outer, pts)
            assert vals.max() <= 1.0 + 1e-8


class TestMembership:
    @given(
        seed=st.integers(0, 5000),
        t=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_quadratic_value_scales_with_radius(self, seed, t):
        rng = np.random.default_rng(seed)
        e = Ellipsoid(random_spd(rng, 3))
        x = rng.standard_normal(3)
        _, value = membership(x, e)
        _, scaled = membership(t * x, e)
        assert scaled == pytest.approx(t * t * value, rel=1e-9, abs=1e-12)

    def test_origin_is_interior(self):
        kind, value = membership(np.zeros(2), Ellipsoid(np.eye(2)))
        assert kind is Membership.INTERIOR and value == 0.0

    def test_unit_vector_on_boundary(self):
        kind, value = membership([1.0, 0.0], Ellipsoid(np.eye(2)))
        assert kind is Membership.BOUNDARY and value == pytest.approx(1.0)

    def test_corner_point_outside_fused_ellipsoid(self):
        # the corner (1,1) of the prior box is never covered by the optimal
        # fused ellipsoid, whatever the admissible cross covariance
        problem = example1_problem()
        for p12 in (-0.5, 0.0, 0.7):
            joint = JointCovariance([[1.0]], [[p12]], [[1.0]])
            result = optimal_fusion_known_cross(problem, joint)
            shape = psd_certify(np.linalg.inv(result.P_star.data))
            kind, value = membership([1.0, 1.0], Ellipsoid(shape))
            assert kind is Membership.OUTSIDE
            assert value == pytest.approx(2.0 / (1.0 + p12), rel=1e-12)


class TestKahanInterpose:
    def test_identical_shapes_return_zero(self):
        e = Ellipsoid(np.eye(2))
        assert kahan_interpose(e, e, e) == 0.0

    def test_exact_convex_combination(self):
        s1 = Ellipsoid(np.diag([1.0, 4.0]))
        s2 = Ellipsoid(np.diag([4.0, 1.0]))
        target = Ellipsoid(0.5 * (s1.shape.data + s2.shape.data))
        assert kahan_interpose(s1, s2, target) == pytest.approx(0.5)

    def test_ci_solution_admits_witness(self):
        # the CI optimum's own information matrix is interposed at alpha*
        # and, by first-order perturbation of T - a S1 - (1-a) S0, nowhere
        # farther from alpha* than w1 = tol (1/lam_max(D) + 1/(-lam_min(D)))
        # with D = S0 - S1 (the grid search it replaced missed by up to
        # half a grid step)
        rng = np.random.default_rng(5)
        for _ in range(10):
            problem = random_problem(rng)
            result = solve_ci(problem, Cost.DET)
            target = Ellipsoid(psd_certify(np.linalg.inv(result.P_hat.data)))
            s1, s0 = prior_ellipsoids(problem)
            witness = kahan_interpose(s1, s0, target)
            assert witness is not None
            shapes = (s1.shape.data, s0.shape.data, target.shape.data)
            tol = DEFAULT_TOL * max(1.0, max(np.abs(m).max() for m in shapes))
            eigs = np.linalg.eigvalsh(s0.shape.data - s1.shape.data)
            alpha = result.alpha
            w1 = tol / eigs[-1] if eigs[-1] > 0.0 and alpha < 1.0 else 0.0
            w1 += tol / -eigs[0] if eigs[0] < 0.0 and alpha > 0.0 else 0.0
            assert abs(witness - alpha) <= w1, (witness, alpha, w1)

    def test_left_end_is_tight(self):
        # the witness interposes and a weight 2 PETERSEN_WIDTH to its left
        # does not, unless it is exactly 0.0
        rng = np.random.default_rng(6)
        interior = 0
        for _ in range(20):
            problem = random_problem(rng)
            s1, s0 = prior_ellipsoids(problem)
            result = solve_ci(problem, Cost.TRACE)
            target = Ellipsoid(psd_certify(0.999 * np.linalg.inv(result.P_hat.data)))
            witness = kahan_interpose(s1, s0, target)
            shapes = (s1.shape.data, s0.shape.data, target.shape.data)
            tol = DEFAULT_TOL * max(1.0, max(np.abs(m).max() for m in shapes))

            def gap(a):
                m = target.shape.data - a * s1.shape.data - (1.0 - a) * s0.shape.data
                return np.linalg.eigvalsh(m)[-1]

            assert gap(witness) <= tol
            if witness > 0.0:
                assert gap(max(0.0, witness - 2.0 * PETERSEN_WIDTH)) > tol
                interior += 1
        assert interior >= 10

    def test_not_found_for_tiny_target(self):
        s1 = Ellipsoid(np.diag([1.0, 4.0]))
        s2 = Ellipsoid(np.diag([4.0, 1.0]))
        target = Ellipsoid(10.0 * np.eye(2))
        assert kahan_interpose(s1, s2, target) is None


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

    def test_non_interior_point_rejected(self):
        problem = example1_problem()
        with pytest.raises(NotInteriorError):
            covering_cross_cov(np.array([1.0, 1.0]), problem)

    def test_degenerate_direction_rejected(self):
        problem = example1_problem()
        with pytest.raises(DegenerateDirectionError):
            covering_cross_cov(np.array([0.5, 0.0]), problem)

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
