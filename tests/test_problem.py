import numpy as np
import pytest

from cifusion import FusionProblem, PartialEstimate
from cifusion.errors import (
    DimensionMismatchError,
    NonFiniteError,
    NotPdError,
    SingularSigmaError,
    StackedRankDeficientError,
)
from cifusion import problem as problem_module
from cifusion.linalg import LoewnerRelation, rounding_allowance
from cifusion.optimizer import Cost, solve_ci
from cifusion.problem import RANK_RTOL, covariance
from cifusion.verifier import certify

from conftest import bench_inputs, compressed_sensor_pair, information_pair, random_problem


def matrix_rank(m: np.ndarray) -> int:
    """The singular values of ``m`` above ``RANK_RTOL`` times the largest."""
    svals = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(svals > RANK_RTOL * svals[0])) if svals[0] > 0.0 else 0


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

    def test_empty_covariance_block_is_a_dimension_error(self):
        # an empty block has no largest entry to scale the transpose check by
        with pytest.raises(DimensionMismatchError, match="^P_hat: shape \\(0, 0\\)"):
            covariance(np.zeros((0, 0)), 0, "P_hat")

    def test_arrays_are_frozen(self):
        est = PartialEstimate([[1.0, 0.0]], [0.0], [[1.0]])
        with pytest.raises(ValueError):
            est.h[0, 0] = 2.0
        with pytest.raises(ValueError):
            est.x_hat[0] = 2.0

    def test_caller_arrays_stay_writable(self):
        # the estimate freezes its own copies, not the arrays it was given
        h, x = np.eye(2), np.zeros(2)
        est = PartialEstimate(h, x, np.eye(2))
        h[0, 0] = 3.0
        x[0] = 1.0
        assert est.h[0, 0] == 1.0 and est.x_hat[0] == 0.0
        for array in (est.h, est.x_hat):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 2.0


class TestFusionProblemValidation:
    def test_row_rank_of_each_observation(self):
        # a sensor needs no full row rank: dependent rows fuse, either way round
        dup_rows = PartialEstimate(
            [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], [0.0, 0.0], np.eye(2)
        )
        other = PartialEstimate(np.eye(3), np.zeros(3), np.eye(3))
        for problem in (FusionProblem(dup_rows, other), FusionProblem(other, dup_rows)):
            for cost in Cost:
                rows = certify(solve_ci(problem, cost), problem, samples=50)
                assert all(row.passed for row in rows), rows

    def test_stacked_rank_must_reach_state_dimension(self):
        est1 = PartialEstimate([[1.0, 0.0]], [0.0], [[1.0]])
        est2 = PartialEstimate([[2.0, 0.0]], [0.0], [[1.0]])
        with pytest.raises(StackedRankDeficientError,
                           match="^stacked observation matrix has rank 1 < n = 2$"):
            FusionProblem(est1, est2)

    def test_stacked_matrix_is_kept_read_only(self):
        est1 = PartialEstimate([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]], np.zeros(3), np.eye(3))
        est2 = PartialEstimate([[0.0, 1.0]], [0.0], [[1.0]])
        problem = FusionProblem(est1, est2)
        np.testing.assert_array_equal(problem.h_stacked, np.vstack([est1.h, est2.h]))
        with pytest.raises(ValueError, match="read-only"):
            problem.h_stacked[0, 0] = 2.0

    def test_overflowing_whitened_block_names_its_estimate(self):
        # G = L^-1 H = 1e305 / 1e-4 is past the largest float
        est1 = PartialEstimate([[1.0]], [0.0], [[1.0]])
        est2 = PartialEstimate([[1e305]], [0.0], [[1e-8]])
        with pytest.raises(NonFiniteError, match="^est2: whitened observation matrix L\\^-1 H overflows$"):
            FusionProblem(est1, est2)

    def test_state_dimensions_must_match(self):
        est1 = PartialEstimate([[1.0, 0.0]], [0.0], [[1.0]])
        est2 = PartialEstimate([[1.0]], [0.0], [[1.0]])
        with pytest.raises(DimensionMismatchError):
            FusionProblem(est1, est2)

    def test_whitened_blocks_cached_and_carry_the_information(self):
        rng = np.random.default_rng(0)
        est1 = PartialEstimate(rng.standard_normal((2, 3)), rng.standard_normal(2), np.diag([1.0, 4.0]))
        est2 = PartialEstimate(rng.standard_normal((2, 3)), rng.standard_normal(2), np.eye(2))
        problem = FusionProblem(est1, est2)
        assert est1.whitened is est1.whitened
        np.testing.assert_array_equal(est1.chol_inv @ est1.p_chol, np.eye(2))
        for est, sigma in zip((est1, est2), information_pair(problem)):
            np.testing.assert_allclose(est.whitened.T @ est.whitened, sigma, atol=1e-12)
        # the factors are those of the stack scaled by 2^-e into [0.5, 1)
        u, sv, vt, e = problem.whitened_factors
        stack = np.vstack([est1.whitened, est2.whitened])
        assert e == np.frexp(np.abs(stack).max())[1]
        np.testing.assert_allclose(np.ldexp((u * sv) @ vt, e), stack, atol=1e-12)


def _pool_problems(seeds):
    """The problems of the benchmark's solve pools on ``seeds``, built fresh."""
    inputs = bench_inputs()
    return [FusionProblem(PartialEstimate(prob["H1"], prob["x1"], prob["P1"]),
                          PartialEstimate(prob["H2"], prob["x2"], prob["P2"]))
            for seed in seeds for prob in inputs.solve_pool(seed)]


class TestFreshProblemValues:
    def test_chol_inv_has_the_bits_of_a_solve_on_the_identity(self):
        # inv and solve(L, I) both run LAPACK's gesv on the identity, so the
        # inverse factor, and all that is built from it, keeps its bits
        rng = np.random.default_rng(5)
        problems = _pool_problems(range(1, 4)) + [random_problem(rng) for _ in range(100)]
        for problem in problems:
            for est in (problem.est1, problem.est2):
                want = np.linalg.solve(est.p_chol, np.eye(est.p))
                assert est.chol_inv.tobytes() == want.tobytes(), problem

    def test_omega_lies_within_rounding_of_the_least_eigenvalue_of_w_w(self):
        # omega comes from the SVD's largest singular value; it never exceeds
        # the least eigvalsh value of the formed w w' by more than that call's
        # rounding, and never falls below that value less the same allowance,
        # the bound the eigvalsh gave, so the family member falls back on
        # psd_certify no more often.  Instance 34 of random_problem has
        # cond(G) about 1.5e5 and cond(P_hat) about 1e10
        rng = np.random.default_rng(7)
        problems = _pool_problems(range(1, 21)) + [[random_problem(rng) for _ in range(35)][34]]
        for problem in problems:
            spectrum = problem.spectrum
            allowance = rounding_allowance(spectrum.lam.size, sum(spectrum.c.tolist()))
            least = float(np.linalg.eigvalsh(spectrum.w @ spectrum.w.T)[0])
            assert least - allowance <= spectrum.omega <= least + allowance, problem

    def test_only_the_failing_pool_members_fall_back(self, monkeypatch):
        # omega proves every certified member of the solve pools strictly PD;
        # only the 160 members below the strictness floor take psd_certify,
        # which refuses them
        problems = _pool_problems(range(1, 21))
        fallbacks = []
        certify_psd = problem_module.psd_certify
        monkeypatch.setattr(problem_module, "psd_certify",
                            lambda a: fallbacks.append(1) or certify_psd(a))
        failed = 0
        for problem in problems:
            for cost in Cost:
                try:
                    solve_ci(problem, cost)
                except SingularSigmaError:
                    failed += 1
        assert len(fallbacks) == failed == 160


def _with_singular_values(rng, rows: int, cols: int, svals) -> np.ndarray:
    """A random ``rows x cols`` matrix with the given singular values, largest first."""
    u = np.linalg.qr(rng.standard_normal((rows, rows)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, cols)))[0]
    k = len(svals)
    return (u[:, :k] * svals) @ v[:, :k].T


def _rank_pool(seed: int, count: int):
    """Pairs ``(H1, H2)`` around the rank threshold.

    Each case makes one of H1, H2 or the stacked matrix nearly rank
    deficient (smallest to largest singular value log-uniform on
    ``[1e-11, 1e-9]``, about the threshold ``RANK_RTOL = 1e-10``) or exactly
    so (a zero singular value).  H1 and H2 are wide or tall, the stack tall
    or square or wide.
    """
    rng = np.random.default_rng(seed)
    pool = []
    for i in range(count):
        n = int(rng.integers(2, 7))
        p1, p2 = (int(p) for p in rng.integers(1, n + 2, size=2))
        kind = i % 3
        ratio = 0.0 if i % 4 == 0 else 10.0 ** rng.uniform(-11.0, -9.0)
        if kind == 2:
            rows = p1 + p2
            k = min(rows, n)
            svals = np.append(np.logspace(0.0, -1.0, k - 1), ratio)
            h = _with_singular_values(rng, rows, n, svals)
            pool.append((h[:p1], h[p1:]))
            continue
        p = p1 if kind == 0 else p2
        k = min(p, n)
        svals = np.append(np.logspace(0.0, -1.0, k - 1), ratio)
        near = _with_singular_values(rng, p, n, svals)
        other = rng.standard_normal((p2 if kind == 0 else p1, n))
        pool.append((near, other) if kind == 0 else (other, near))
    return pool


def _estimate(h: np.ndarray) -> PartialEstimate:
    """An estimate of unit covariance, whose whitened block is ``h`` to the bit."""
    return PartialEstimate(h, np.zeros(h.shape[0]), np.eye(h.shape[0]))


class TestSolvability:
    POOL = _rank_pool(40, 240)

    def test_rejected_exactly_below_the_stacked_rank(self):
        rejected = 0
        for h1, h2 in self.POOL:
            n = h1.shape[1]
            rank = matrix_rank(np.vstack([h1, h2]))
            if rank < n:
                with pytest.raises(StackedRankDeficientError) as info:
                    FusionProblem(_estimate(h1), _estimate(h2))
                assert str(info.value) == f"stacked observation matrix has rank {rank} < n = {n}"
                rejected += 1
            else:
                FusionProblem(_estimate(h1), _estimate(h2))
        assert rejected == 90

    def test_admitted_pairs_certify_or_raise_singular_sigma(self):
        # a near-deficient stack passes the rank test but may have a fused
        # covariance below the strictness floor, which is then the one
        # message; every other solve certifies on every row
        outcomes = {"certified": 0, "deficient rows": 0, "singular": 0}
        for h1, h2 in self.POOL:
            if matrix_rank(np.vstack([h1, h2])) < h1.shape[1]:
                continue
            problem = FusionProblem(_estimate(h1), _estimate(h2))
            deficient = matrix_rank(h1) < h1.shape[0] or matrix_rank(h2) < h2.shape[0]
            for cost in Cost:
                try:
                    result = solve_ci(problem, cost)
                except SingularSigmaError as exc:
                    assert str(exc) == "fused covariance is not strictly PD"
                    outcomes["singular"] += 1
                    continue
                rows = certify(result, problem, samples=20)
                assert all(row.passed for row in rows), (h1, h2, cost, rows)
                outcomes["certified"] += 1
                outcomes["deficient rows"] += deficient
        assert outcomes["certified"] >= 200 and outcomes["deficient rows"] >= 100, outcomes
        assert outcomes["singular"] >= 1, outcomes

    def test_pool_straddles_the_threshold(self):
        # near-deficient cases on both sides of RANK_RTOL, not only exact zeros
        full = deficient = 0
        for h1, h2 in self.POOL:
            for h in (h1, h2, np.vstack([h1, h2])):
                svals = np.linalg.svd(h, compute_uv=False)
                if svals[0] > 0.0 and 1e-11 <= svals[-1] / svals[0] <= 1e-9:
                    full += matrix_rank(h) == min(h.shape)
                    deficient += matrix_rank(h) < min(h.shape)
        assert full >= 20 and deficient >= 20


class TestLoewnerRelationSemantics:
    def test_equal_counts_as_greater_equal(self):
        assert LoewnerRelation.EQUAL.is_ge

    def test_strict_variants_are_one_sided(self):
        assert LoewnerRelation.STRICTLY_GREATER.is_ge
        assert not LoewnerRelation.STRICTLY_LESS.is_ge
        assert not LoewnerRelation.INCOMPARABLE.is_ge


class TestSensorsWithoutFullRowRank:
    @pytest.mark.parametrize("kind", ["dependent rows", "more rows than the state"])
    def test_fuses_as_its_compressed_sensor(self, kind):
        # CI sees a sensor only through its information H' P^-1 H and
        # information vector H' P^-1 x, which a BLUE compression keeps
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            rank = n if kind == "more rows than the state" else int(rng.integers(1, n))
            full, small = compressed_sensor_pair(rng, n, rank, rank + int(rng.integers(1, 4)))
            assert matrix_rank(full.est1.h) == rank < full.p1
            for cost in Cost:
                got, want = solve_ci(full, cost), solve_ci(small, cost)
                # relative to the distance from the nearer end, where the weight may sit
                gap = min(want.alpha, 1.0 - want.alpha)
                assert abs(got.alpha - want.alpha) <= 1e-10 * gap, (n, rank, cost)
                for a, b in ((got.P_hat.data, want.P_hat.data), (got.fused_x, want.fused_x)):
                    assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max(), (n, rank, cost)
                assert all(row.passed for row in certify(got, full, samples=20))
