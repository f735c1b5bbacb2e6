import numpy as np
import pytest

from cifusion import (
    FusionProblem,
    JointCovariance,
    LoewnerRelation,
    PartialEstimate,
    loewner_compare,
    optimal_fusion_known_cross,
)
from cifusion.errors import NonFiniteError, NotPsdError, SingularJointError

from conftest import (
    bar_shalom_campo,
    joint_from_cross_parameter,
    random_joint,
    random_problem,
    random_spd,
    random_unbiased_gains,
)


def example1_problem():
    est1 = PartialEstimate([[1.0, 0.0]], [0.3], [[1.0]])
    est2 = PartialEstimate([[0.0, 1.0]], [-0.1], [[1.0]])
    return FusionProblem(est1, est2)


class TestJointCovariance:
    def test_invalid_cross_block_rejected(self):
        with pytest.raises(NotPsdError):
            JointCovariance([[1.0]], [[2.0]], [[1.0]])

    def test_pd_classification(self):
        assert JointCovariance([[1.0]], [[0.5]], [[1.0]]).pd
        assert not JointCovariance([[1.0]], [[1.0]], [[1.0]]).pd

    @pytest.mark.parametrize(
        "p1, p12, p2",
        [([[np.nan]], [[0.0]], [[1.0]]),
         ([[1.0]], [[np.inf]], [[1.0]]),
         ([[1.0]], [[0.0]], [[-np.inf]])],
    )
    def test_non_finite_blocks_rejected(self, p1, p12, p2):
        with pytest.raises(NonFiniteError):
            JointCovariance(p1, p12, p2)

    def test_non_finite_cross_parameter_rejected(self):
        with pytest.raises(NonFiniteError):
            joint_from_cross_parameter([[1.0]], [[np.nan]], [[1.0]])

    def test_caller_cross_block_stays_writable(self):
        # the joint freezes its own copy, not the array it was given
        p12 = np.zeros((2, 2))
        joint = JointCovariance(np.eye(2), p12, np.eye(2))
        p12[0, 0] = 0.5
        assert joint.P12[0, 0] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            joint.P12[0, 0] = 0.5


class TestOptimalFusionKnownCross:
    def test_example_scalar_pair_closed_form(self):
        # two scalar observers of a planar state with correlated errors
        problem = example1_problem()
        for p12 in (-0.9, -0.5, 0.0, 0.5, 0.9):
            joint = JointCovariance([[1.0]], [[p12]], [[1.0]])
            result = optimal_fusion_known_cross(problem, joint)
            expected = np.array([[1.0, -p12], [-p12, 1.0]]) / (1.0 - p12**2)
            p_star_inv = np.linalg.inv(result.P_star.data)
            np.testing.assert_allclose(p_star_inv, expected, atol=1e-12)
            ones = np.ones(2)
            assert ones @ p_star_inv @ ones == pytest.approx(2.0 / (1.0 + p12), abs=1e-12)

    def test_symmetric_average(self):
        rng = np.random.default_rng(2)
        problem = random_problem(rng, n=2, full_state=True)
        joint = JointCovariance(np.eye(2), np.zeros((2, 2)), np.eye(2))
        result = optimal_fusion_known_cross(problem, joint)
        np.testing.assert_allclose(result.K1, 0.5 * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(result.K2, 0.5 * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(result.P_star.data, 0.5 * np.eye(2), atol=1e-12)

    def test_singular_joint_rejected(self):
        problem = example1_problem()
        joint = JointCovariance([[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(SingularJointError):
            optimal_fusion_known_cross(problem, joint)

    def test_unbiasedness(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            problem = random_problem(rng)
            joint = random_joint(rng, problem.p1, problem.p2)
            result = optimal_fusion_known_cross(problem, joint)
            residual = result.K_star @ problem.h_stacked - np.eye(problem.n)
            assert np.abs(residual).max() <= 1e-10

    def test_minimality_against_random_unbiased_gains(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            problem = random_problem(rng)
            joint = random_joint(rng, problem.p1, problem.p2)
            result = optimal_fusion_known_cross(problem, joint)
            gains = random_unbiased_gains(rng, problem, 50)
            pj = joint.assembled.data
            for k in gains[:5]:
                rel = loewner_compare(k @ pj @ k.T, result.P_star.data)
                assert rel.is_ge
            covs = gains @ pj @ np.swapaxes(gains, 1, 2)
            diffs = covs - result.P_star.data
            eigs = np.linalg.eigvalsh(0.5 * (diffs + np.swapaxes(diffs, 1, 2)))
            scales = np.maximum(
                1.0, np.abs(covs).max(axis=(1, 2))
            )
            assert np.all(eigs[:, 0] >= -1e-9 * scales)

    def test_within_intersection_bounds(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            problem = random_problem(rng)
            joint = random_joint(rng, problem.p1, problem.p2)
            result = optimal_fusion_known_cross(problem, joint)
            p_star_inv = np.linalg.inv(result.P_star.data)
            for est, block in ((problem.est1, joint.P1), (problem.est2, joint.P2)):
                target = est.h.T @ np.linalg.inv(block.data) @ est.h
                rel = loewner_compare(p_star_inv, target, 1e-9)
                assert rel.is_ge

    def test_swap_symmetry(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            problem = random_problem(rng)
            joint = random_joint(rng, problem.p1, problem.p2)
            left = optimal_fusion_known_cross(problem, joint)
            right = optimal_fusion_known_cross(FusionProblem(problem.est2, problem.est1),
                                               JointCovariance(joint.P2, joint.P12.T, joint.P1))
            assert np.abs(left.P_star.data - right.P_star.data).max() <= 1e-10


class TestBarShalomCampo:
    """The two-track oracle of ``conftest`` and the general formula it cross-checks."""

    @staticmethod
    def _full_state(joint):
        eye = np.eye(joint.p1_dim)
        return FusionProblem(PartialEstimate(eye, np.zeros(joint.p1_dim), joint.P1),
                             PartialEstimate(eye, np.zeros(joint.p2_dim), joint.P2))

    def test_uncorrelated_identity(self):
        joint = JointCovariance(np.eye(2), np.zeros((2, 2)), np.eye(2))
        k1, k2, p_star = bar_shalom_campo(joint)
        general = optimal_fusion_known_cross(self._full_state(joint), joint)
        for result in ((k1, k2, p_star), (general.K1, general.K2, general.P_star.data)):
            for got, want in zip(result, (0.5 * np.eye(2),) * 3):
                np.testing.assert_allclose(got, want, atol=1e-12)

    def test_fully_correlated_first_track(self):
        # P12 = P1 with a PD joint: all weight goes to the first track
        joint = JointCovariance(np.eye(2), np.eye(2), 2.0 * np.eye(2))
        k1, k2, p_star = bar_shalom_campo(joint)
        general = optimal_fusion_known_cross(self._full_state(joint), joint)
        for result in ((k1, k2, p_star), (general.K1, general.K2, general.P_star.data)):
            for got, want in zip(result, (np.eye(2), np.zeros((2, 2)), np.eye(2))):
                np.testing.assert_allclose(got, want, atol=1e-12)

    def test_agrees_with_general_formula(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            problem = random_problem(rng, n=n, full_state=True)
            joint = random_joint(rng, n, n)
            general = optimal_fusion_known_cross(problem, joint)
            k1, k2, p_star = bar_shalom_campo(joint)
            assert np.abs(general.P_star.data - p_star).max() <= 1e-10
            assert np.abs(general.K_star - np.hstack([k1, k2])).max() <= 1e-10
            # the kept information is the inverse of P*
            assert np.abs(general.P_star_inv @ general.P_star.data - np.eye(n)).max() <= 1e-10


class TestBlockInverseIdentity:
    """The partitioned-inverse formulas, exercised here rather than in the
    library (the solvers invert through Cholesky instead)."""

    @staticmethod
    def _inverse_via_first_block(q, s, r):
        qi = np.linalg.inv(q)
        dq = r - s.T @ qi @ s
        dqi = np.linalg.inv(dq)
        top_left = qi + qi @ s @ dqi @ s.T @ qi
        top_right = -qi @ s @ dqi
        return np.block([[top_left, top_right], [top_right.T, dqi]])

    @staticmethod
    def _inverse_via_second_block(q, s, r):
        ri = np.linalg.inv(r)
        dr = q - s @ ri @ s.T
        dri = np.linalg.inv(dr)
        bottom_right = ri + ri @ s.T @ dri @ s @ ri
        top_right = -dri @ s @ ri
        return np.block([[dri, top_right], [top_right.T, bottom_right]])

    def test_both_partitions_match_direct_inverse(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            nq = int(rng.integers(1, 4))
            nr = int(rng.integers(1, 4))
            t = random_spd(rng, nq + nr, lo=0.5, hi=2.0)
            q, s, r = t[:nq, :nq], t[:nq, nq:], t[nq:, nq:]
            direct = np.linalg.inv(t)
            np.testing.assert_allclose(
                self._inverse_via_first_block(q, s, r), direct, atol=1e-8
            )
            np.testing.assert_allclose(
                self._inverse_via_second_block(q, s, r), direct, atol=1e-8
            )
