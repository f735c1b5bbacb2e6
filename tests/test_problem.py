import numpy as np
import pytest

from cifusion import FusionProblem, PartialEstimate
from cifusion.errors import (
    DimensionMismatchError,
    NonFiniteError,
    NotPdError,
    RankDeficientError,
)
from cifusion.linalg import LoewnerRelation


class TestPartialEstimate:
    def test_covariance_must_be_strictly_pd(self):
        with pytest.raises(NotPdError):
            PartialEstimate([[1.0, 0.0]], [0.0], [[0.0]])

    def test_shape_checks(self):
        with pytest.raises(DimensionMismatchError):
            PartialEstimate([[1.0, 0.0]], [0.0, 1.0], [[1.0]])
        with pytest.raises(DimensionMismatchError):
            PartialEstimate([[1.0, 0.0]], [0.0], np.eye(2))

    @pytest.mark.parametrize(
        "h, x_hat, p_hat",
        [([[1.0, np.nan]], [0.0], [[1.0]]),
         ([[1.0, 0.0]], [np.inf], [[1.0]]),
         ([[1.0, 0.0]], [0.0], [[np.nan]])],
    )
    def test_non_finite_entries_rejected(self, h, x_hat, p_hat):
        with pytest.raises(NonFiniteError):
            PartialEstimate(h, x_hat, p_hat)

    def test_arrays_are_frozen(self):
        est = PartialEstimate([[1.0, 0.0]], [0.0], [[1.0]])
        with pytest.raises(ValueError):
            est.h[0, 0] = 2.0
        with pytest.raises(ValueError):
            est.x_hat[0] = 2.0


class TestFusionProblemValidation:
    def test_row_rank_of_each_observation(self):
        dup_rows = PartialEstimate(
            [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], [0.0, 0.0], np.eye(2)
        )
        other = PartialEstimate(np.eye(3), np.zeros(3), np.eye(3))
        with pytest.raises(RankDeficientError):
            FusionProblem(dup_rows, other)
        with pytest.raises(RankDeficientError):
            FusionProblem(other, dup_rows)

    def test_stacked_rank_must_reach_state_dimension(self):
        est1 = PartialEstimate([[1.0, 0.0]], [0.0], [[1.0]])
        est2 = PartialEstimate([[2.0, 0.0]], [0.0], [[1.0]])
        with pytest.raises(RankDeficientError):
            FusionProblem(est1, est2)

    def test_state_dimensions_must_match(self):
        est1 = PartialEstimate([[1.0, 0.0]], [0.0], [[1.0]])
        est2 = PartialEstimate([[1.0]], [0.0], [[1.0]])
        with pytest.raises(DimensionMismatchError):
            FusionProblem(est1, est2)

    def test_information_matrices_cached_and_symmetric(self):
        rng = np.random.default_rng(0)
        est1 = PartialEstimate(rng.standard_normal((2, 3)), rng.standard_normal(2), np.eye(2))
        est2 = PartialEstimate(rng.standard_normal((2, 3)), rng.standard_normal(2), np.eye(2))
        problem = FusionProblem(est1, est2)
        np.testing.assert_allclose(problem.sigma1, problem.sigma1.T)
        expected = est1.h.T @ np.linalg.inv(est1.p_hat.data) @ est1.h
        np.testing.assert_allclose(problem.sigma1, expected, atol=1e-12)

    def test_swapped_exchanges_estimates(self):
        est1 = PartialEstimate([[1.0, 0.0]], [0.5], [[1.0]])
        est2 = PartialEstimate([[0.0, 1.0]], [0.7], [[2.0]])
        swapped = FusionProblem(est1, est2).swapped()
        assert swapped.est1 is est2 and swapped.est2 is est1


class TestLoewnerRelationSemantics:
    def test_equal_implies_both_orders(self):
        assert LoewnerRelation.EQUAL.is_ge and LoewnerRelation.EQUAL.is_le

    def test_strict_variants_are_one_sided(self):
        assert LoewnerRelation.STRICTLY_GREATER.is_ge
        assert not LoewnerRelation.STRICTLY_GREATER.is_le
        assert not LoewnerRelation.INCOMPARABLE.is_ge
        assert not LoewnerRelation.INCOMPARABLE.is_le
