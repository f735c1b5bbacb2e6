import math

import numpy as np
import pytest

from cifusion import (
    FusionProblem,
    LoewnerRelation,
    PartialEstimate,
    loewner_compare,
    psd_certify,
)
from cifusion.errors import InvalidFamilyParameterError, NotPdError, OutOfRangeError
from cifusion.linalg import SINGULAR_RTOL, inv_pd
from cifusion.optimizer import (
    Cost,
    JointSpectrum,
    _optimal_weight,
    delta_value,
    extended_cost,
    ku_rule,
    solve_ci,
    solve_ci_det,
    solve_ci_trace,
)
from cifusion.simulator import Schedule, init_network, make_schedule, run_schedule
from cifusion.verifier import lmi_certificate

from conftest import (
    delta_poly_coeffs,
    det_alpha_oracle,
    dominated_problem,
    fixed_point_residual,
    gain_norms,
    grid_costs,
    lower_bound_witness,
    random_orthogonal,
    random_problem,
    random_spd,
    sigma_alpha,
    well_scaled_problems,
)


def example2_problem():
    est1 = PartialEstimate(np.eye(2), [0.0, 0.0], np.eye(2))
    est2 = PartialEstimate(np.eye(2), [1.0, -1.0], np.diag([1.25, 0.1]))
    return FusionProblem(est1, est2)


def equal_sigma_problem(rng=None):
    rng = rng or np.random.default_rng(0)
    p = random_spd(rng, 2)
    est1 = PartialEstimate(np.eye(2), [1.0, 0.0], p)
    est2 = PartialEstimate(np.eye(2), [0.0, 1.0], p)
    return FusionProblem(est1, est2)


class TestCostFunctions:
    def test_strict_isotonicity_on_pd_arguments(self):
        # A PD, A <= B with A != B implies a strictly smaller cost at A
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            a = random_spd(rng, d, lo=0.2, hi=2.0)
            bump = rng.standard_normal((d, 1))
            b = a + rng.uniform(0.01, 1.0) * (bump @ bump.T)
            assert np.linalg.det(a) < np.linalg.det(b)
            assert np.trace(a) < np.trace(b)

    def test_extended_value_on_singular_argument(self):
        assert extended_cost(Cost.DET, np.diag([1.0, 0.0])) == math.inf
        assert extended_cost(Cost.TRACE, np.zeros((2, 2))) == math.inf
        assert extended_cost(Cost.DET, np.eye(2)) == 1.0


class TestSigmaAlpha:
    def test_endpoints_recover_information_matrices(self):
        problem = example2_problem()
        np.testing.assert_allclose(sigma_alpha(problem, 0.0), np.diag([0.8, 10.0]), atol=1e-12)
        np.testing.assert_allclose(sigma_alpha(problem, 1.0), np.eye(2), atol=1e-12)

    def test_midpoint(self):
        problem = example2_problem()
        np.testing.assert_allclose(sigma_alpha(problem, 0.5), np.diag([0.9, 5.5]), atol=1e-12)

    def test_out_of_range(self):
        problem = example2_problem()
        with pytest.raises(OutOfRangeError):
            delta_value(problem, 1.5)


class TestKuRule:
    def test_dominant_second_estimate_forces_zero(self):
        problem = dominated_problem(np.random.default_rng(1), 3, dominant_first=False)
        result = ku_rule(problem, 0.0)
        np.testing.assert_allclose(result.K1, np.zeros_like(result.K1))
        np.testing.assert_allclose(
            np.linalg.inv(result.P_hat.data), problem.sigma0, atol=1e-10
        )
        with pytest.raises(InvalidFamilyParameterError):
            ku_rule(problem, 0.3)

    def test_equal_sigmas_blend_estimates(self):
        problem = equal_sigma_problem()
        result = ku_rule(problem, 0.7)
        np.testing.assert_allclose(result.P_hat.data, problem.est1.p_hat.data, atol=1e-10)
        expected = 0.7 * problem.est1.x_hat + 0.3 * problem.est2.x_hat
        np.testing.assert_allclose(result.fused_x, expected, atol=1e-10)

    def test_zero_weight_keeps_second_estimate(self):
        result = ku_rule(example2_problem(), 0.0)
        np.testing.assert_allclose(result.P_hat.data, np.diag([1.25, 0.1]), atol=1e-12)
        np.testing.assert_allclose(result.K1, np.zeros((2, 2)))
        np.testing.assert_allclose(result.K2, np.eye(2), atol=1e-12)

    def test_rejects_weight_outside_unit_interval(self):
        with pytest.raises(InvalidFamilyParameterError):
            ku_rule(example2_problem(), 1.2)

    def test_result_invariants(self):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 25:
            problem = random_problem(rng)
            rel = loewner_compare(problem.sigma0, problem.sigma1)
            if rel in (LoewnerRelation.STRICTLY_GREATER, LoewnerRelation.STRICTLY_LESS):
                continue  # the family table pins alpha to an endpoint here
            checked += 1
            alpha = float(rng.uniform(0.05, 0.95))
            result = ku_rule(problem, alpha)
            unbias = result.K1 @ problem.est1.h + result.K2 @ problem.est2.h - np.eye(problem.n)
            assert np.abs(unbias).max() <= 1e-10
            info = sigma_alpha(problem, alpha)
            resid = np.linalg.inv(result.P_hat.data) - info
            assert np.abs(resid).max() <= 1e-9 * max(1.0, np.abs(info).max())
            np.testing.assert_allclose(
                result.fused_x,
                result.K1 @ problem.est1.x_hat + result.K2 @ problem.est2.x_hat,
            )

    def test_one_to_one_parametrization(self):
        rng = np.random.default_rng(3)
        count = 0
        while count < 100:
            problem = random_problem(rng)
            if loewner_compare(problem.sigma0, problem.sigma1) is not LoewnerRelation.INCOMPARABLE:
                continue
            count += 1
            alphas = rng.uniform(0.05, 0.95, size=2)
            while abs(alphas[0] - alphas[1]) < 0.05:
                alphas = rng.uniform(0.05, 0.95, size=2)
            r1 = ku_rule(problem, float(alphas[0]))
            r2 = ku_rule(problem, float(alphas[1]))
            gap = max(
                np.abs(r1.K1 - r2.K1).max(),
                np.abs(r1.K2 - r2.K2).max(),
                np.abs(r1.P_hat.data - r2.P_hat.data).max(),
            )
            assert gap > 1e-8

    def test_corner_case_soundness(self):
        # a dominated information matrix forces the dominant observation
        # map to be square and invertible
        rng = np.random.default_rng(4)
        pool = [random_problem(rng) for _ in range(30)]
        pool += [dominated_problem(rng, int(rng.integers(2, 5)), bool(rng.integers(2))) for _ in range(20)]
        for problem in pool:
            rel = loewner_compare(problem.sigma0, problem.sigma1)
            if rel in (LoewnerRelation.GREATER_EQUAL, LoewnerRelation.STRICTLY_GREATER):
                assert problem.p2 == problem.n
                assert abs(np.linalg.det(problem.est2.h)) > 1e-12
            if rel in (LoewnerRelation.LESS_EQUAL, LoewnerRelation.STRICTLY_LESS):
                assert problem.p1 == problem.n
                assert abs(np.linalg.det(problem.est1.h)) > 1e-12


class TestSolveCiDet:
    def test_example_coefficients_and_endpoint(self):
        problem = example2_problem()
        np.testing.assert_allclose(delta_poly_coeffs(problem), [-3.6, -5.2], atol=1e-12)
        result = solve_ci_det(problem)
        assert result.alpha == 0.0
        assert result.diagnostics["branch"] == "endpoint_zero"

    def test_equal_sigmas_tie_break(self):
        problem = equal_sigma_problem()
        result = solve_ci_det(problem)
        assert result.alpha == 0.5
        np.testing.assert_allclose(result.P_hat.data, problem.est1.p_hat.data, atol=1e-10)

    def test_orthogonal_scalar_pair_interior_root(self):
        est1 = PartialEstimate([[1.0, 0.0]], [0.0], [[1.0]])
        est2 = PartialEstimate([[0.0, 1.0]], [0.0], [[1.0]])
        problem = FusionProblem(est1, est2)
        result = solve_ci_det(problem)
        assert result.diagnostics["branch"] == "interior_root"
        alphas, vals = grid_costs(problem, Cost.DET, grid=100001)
        assert abs(result.alpha - alphas[np.argmin(vals)]) <= 1e-4

    def test_grid_oracle_agreement(self):
        rng = np.random.default_rng(5)
        for problem in well_scaled_problems(rng, 30):
            result = solve_ci_det(problem)
            alphas, vals = grid_costs(problem, Cost.DET)
            best = vals.min()
            assert result.cost_value <= best + 1e-9
            assert abs(result.alpha - alphas[np.argmin(vals)]) <= 1e-3

    def test_branch_signs_match_finite_differences(self):
        # the adjugate-based polynomial has the opposite sign of the
        # derivative of the determinant objective at nonsingular endpoints
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 20:
            problem = random_problem(rng)
            h = 1e-6
            for endpoint in (0.0, 1.0):
                sig = (
                    endpoint * problem.sigma1 + (1.0 - endpoint) * problem.sigma0
                )
                if np.linalg.eigvalsh(sig)[0] <= 1e-9:
                    continue
                a0 = max(h, min(1.0 - h, endpoint))
                g = lambda a: float(
                    np.linalg.det(
                        np.linalg.inv(
                            a * problem.sigma1 + (1.0 - a) * problem.sigma0
                        )
                    )
                )
                slope = (g(a0 + h) - g(a0 - h)) / (2.0 * h)
                d = delta_value(problem, endpoint)
                if abs(slope) > 1e-6:
                    assert np.sign(slope) == -np.sign(d)
                    checked += 1

    def test_example_derivative_formula(self):
        # finite differences of the determinant objective against the
        # closed-form derivative 10(9a+13)/((9a-10)^2 (a+4)^2)
        problem = example2_problem()
        h = 1e-5

        def g(a):
            sig = a * problem.sigma1 + (1.0 - a) * problem.sigma0
            return float(np.linalg.det(np.linalg.inv(sig)))

        for a in (0.0, 0.25, 0.5, 0.75, 1.0):
            fd = (g(a + h) - g(a - h)) / (2.0 * h)
            closed = 10.0 * (9.0 * a + 13.0) / ((9.0 * a - 10.0) ** 2 * (a + 4.0) ** 2)
            assert fd == pytest.approx(closed, abs=1e-6)


class TestSolveCiTrace:
    def test_equal_sigmas_symmetric(self):
        problem = equal_sigma_problem()
        result = solve_ci_trace(problem)
        assert result.alpha == 0.5
        assert fixed_point_residual(result, problem) <= 1e-12

    def test_example_grid_agreement_and_fixed_point(self):
        problem = example2_problem()
        result = solve_ci_trace(problem)
        alphas, vals = grid_costs(problem, Cost.TRACE, grid=100001)
        assert abs(result.alpha - alphas[np.argmin(vals)]) <= 1e-4
        assert fixed_point_residual(result, problem) <= 1e-6

    def test_scalar_case_takes_better_estimate(self):
        est1 = PartialEstimate([[1.0]], [0.0], [[1.0]])
        est2 = PartialEstimate([[1.0]], [1.0], [[4.0]])
        problem = FusionProblem(est1, est2)
        result = solve_ci_trace(problem)
        assert result.alpha == 1.0
        alphas, vals = grid_costs(problem, Cost.TRACE, grid=10001)
        assert result.cost_value <= vals.min() + 1e-12

    def test_grid_oracle_agreement(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            problem = random_problem(rng)
            result = solve_ci_trace(problem)
            _, vals = grid_costs(problem, Cost.TRACE)
            assert result.cost_value <= vals.min() + 1e-9
            if 0.0 < result.alpha < 1.0:
                assert fixed_point_residual(result, problem) <= 1e-6

    def test_endpoint_gain_ratios(self):
        problem = dominated_problem(np.random.default_rng(8), 3, dominant_first=False)
        result = solve_ci_trace(problem)
        assert result.alpha == 0.0
        r1, r2 = gain_norms(result, problem)
        assert r1 == 0.0 and r2 > 0.0

    def test_singular_endpoints_get_infinite_cost(self):
        est1 = PartialEstimate([[1.0, 0.0]], [0.0], [[1.0]])
        est2 = PartialEstimate([[0.0, 1.0]], [0.0], [[2.0]])
        problem = FusionProblem(est1, est2)
        assert extended_cost(Cost.TRACE, problem.sigma0) == math.inf
        result = solve_ci_trace(problem)
        assert 0.0 < result.alpha < 1.0


class TestSolveCi:
    def test_dispatch_matches_specialized_solvers(self):
        problem = example2_problem()
        assert solve_ci(problem, Cost.DET).alpha == solve_ci_det(problem).alpha
        assert solve_ci(problem, Cost.TRACE).alpha == solve_ci_trace(problem).alpha

    def test_certificate_recorded(self):
        result = solve_ci(example2_problem(), Cost.DET)
        assert result.diagnostics["lmi_min_eig"] >= -1e-9

    def test_dominant_first_estimate_forces_one_for_both_costs(self):
        problem = dominated_problem(np.random.default_rng(9), 3, dominant_first=True)
        for cost in (Cost.DET, Cost.TRACE):
            result = solve_ci(problem, cost)
            assert result.alpha == 1.0
            _, vals = grid_costs(problem, cost)
            assert result.cost_value <= vals.min() + 1e-9

    def test_family_optimality_sampled(self):
        rng = np.random.default_rng(10)
        for problem in well_scaled_problems(rng, 20):
            for cost in (Cost.DET, Cost.TRACE):
                result = solve_ci(problem, cost)
                _, vals = grid_costs(problem, cost)
                assert result.cost_value <= vals.min() + 1e-9


class TestRobustness:
    def test_weight_invariant_under_joint_rescaling(self):
        # scaling both covariances by a common factor leaves alpha* unchanged
        rng = np.random.default_rng(12)
        problem = random_problem(rng, n=3)
        for factor in (1e-6, 1e6):
            scaled = FusionProblem(
                PartialEstimate(
                    problem.est1.h,
                    problem.est1.x_hat,
                    factor * problem.est1.p_hat.data,
                ),
                PartialEstimate(
                    problem.est2.h,
                    problem.est2.x_hat,
                    factor * problem.est2.p_hat.data,
                ),
            )
            for solver in (solve_ci_det, solve_ci_trace):
                base = solver(problem)
                moved = solver(scaled)
                assert moved.alpha == pytest.approx(base.alpha, abs=1e-11)

    def test_moderate_dimension_smoke(self):
        rng = np.random.default_rng(14)
        problem = random_problem(rng, n=10, p1=7, p2=8)
        for cost in (Cost.DET, Cost.TRACE):
            result = solve_ci(problem, cost)
            unbias = (
                result.K1 @ problem.est1.h
                + result.K2 @ problem.est2.h
                - np.eye(10)
            )
            assert np.abs(unbias).max() <= 1e-9
            _, vals = grid_costs(problem, cost, grid=2001)
            assert result.cost_value <= vals.min() * (1.0 + 1e-9) + 1e-9


def _metamorphic_pool(seed: int, count: int):
    rng = np.random.default_rng(seed)
    pool = [random_problem(rng, n=int(rng.integers(2, 9))) for _ in range(count)]
    pool += [random_problem(rng, full_state=True) for _ in range(count // 4)]
    pool += [dominated_problem(rng, int(rng.integers(2, 6)), bool(k % 2)) for k in range(count // 4)]
    return rng, pool


def _rebuilt(problem, h_map=lambda h: h, scale: float = 1.0):
    return FusionProblem(*(
        PartialEstimate(h_map(est.h), est.x_hat, scale * est.p_hat.data)
        for est in (problem.est1, problem.est2)
    ))


class TestJointSpectrum:
    def test_relation_matches_loewner_compare(self):
        rng = np.random.default_rng(20)
        pool = [random_problem(rng) for _ in range(40)]
        pool += [dominated_problem(rng, int(rng.integers(2, 6)), bool(k % 2)) for k in range(10)]
        pool.append(equal_sigma_problem())
        # second information matrix below the first but singular: LESS_EQUAL
        pool.append(FusionProblem(
            PartialEstimate(np.eye(2), [0.0, 0.0], np.eye(2)),
            PartialEstimate([[1.0, 0.0]], [0.0], [[1.0]]),
        ))
        seen = set()
        for problem in pool:
            rel = JointSpectrum.from_problem(problem).relation
            assert rel is loewner_compare(problem.sigma0, problem.sigma1)
            seen.add(rel)
        assert len(seen) >= 4

    def test_regular_at_reads_the_ends_of_the_sorted_spectrum(self):
        # rounding of 1 + t lam is monotone in lam, so the ends of the
        # sorted spectrum are bit for bit the extremes of the whole of it;
        # spectra with ties, with +-2 (a singular end) and with values
        # within 1e-14 of +-2 put the test on both sides of its threshold
        rng = np.random.default_rng(23)
        verdicts = set()
        for k in range(600):
            n = int(rng.integers(1, 8))
            lam = rng.uniform(-2.0, 2.0, n)
            if k % 3 == 1:
                lam[0] = rng.choice([-1.0, 1.0]) * (2.0 - 10.0 ** -rng.uniform(1.0, 14.0))
            elif k % 3 == 2:
                lam[0] = rng.choice([-2.0, 2.0])
            if k % 4 == 0 and n > 1:
                lam[1] = lam[0]
            lam.sort()
            spectrum = JointSpectrum(lam, np.ones(n), np.eye(n), 0.0)
            for t in (-0.5, 0.5, rng.uniform(-0.5, 0.5)):
                mu = 1.0 + t * lam
                want = float(mu.min()) > SINGULAR_RTOL * float(mu.max())
                assert spectrum.regular_at(t) is want
                verdicts.add(want)
        assert verdicts == {True, False}

    def test_cost_forms_match_blended_inverse(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            problem = random_problem(rng)
            spectrum = JointSpectrum.from_problem(problem)
            assert np.all(np.abs(spectrum.lam) <= 2.0)
            d = problem.sigma1 - problem.sigma0
            for alpha in (0.1, 0.5, 0.9):
                t = alpha - 0.5
                p = np.linalg.inv(sigma_alpha(problem, alpha))
                trace = float(np.sum(spectrum.c / (1.0 + t * spectrum.lam)))
                assert trace == pytest.approx(np.trace(p), rel=1e-10)
                # d/dalpha log det P = -tr(P D) and d/dalpha tr P = -tr(P D P)
                assert spectrum.det_slope(t)[0] == pytest.approx(-np.trace(p @ d), rel=1e-9, abs=1e-12)
                assert spectrum.trace_slope(t)[0] == pytest.approx(-np.trace(p @ d @ p), rel=1e-9, abs=1e-12)


def _admitted_weights(spectrum, weights=(0.0, 1e-6, 0.5, 1.0 - 1e-6, 1.0)):
    """The weights ``ku_rule`` accepts: nonsingular, and the dominant endpoint if any."""
    rel = spectrum.relation
    for alpha in weights:
        if rel is LoewnerRelation.STRICTLY_GREATER and alpha != 0.0:
            continue
        if rel is LoewnerRelation.STRICTLY_LESS and alpha != 1.0:
            continue
        if spectrum.regular_at(alpha - 0.5):
            yield alpha


class TestSpectralSolvePath:
    def test_fused_cov_matches_inverse_of_blend(self):
        # at these weights some 1 + t lam is at least about 1, so the
        # rounding of lam costs no more than cond(Sigma_alpha) eps
        eps = np.finfo(float).eps
        checked = 0
        for problem in _metamorphic_pool(26, 60)[1]:
            spectrum = JointSpectrum.from_problem(problem)
            for alpha in _admitted_weights(spectrum):
                blend = sigma_alpha(problem, alpha)
                want = inv_pd(blend)
                got = spectrum.fused_cov(alpha - 0.5)
                bound = 10.0 * problem.n * np.linalg.cond(blend) * eps
                assert np.abs(got - want).max() <= bound * np.abs(want).max()
                checked += 1
        assert checked >= 250

    def test_cost_matches_det_and_trace_of_fused_cov(self):
        # 1e-12 relative, or the n cond(Sigma_alpha) eps that the LU
        # determinant of a formed matrix carries where that is larger; the
        # near-singular weights 1e-6 and 1 - 1e-6 are left out for that reason
        eps = np.finfo(float).eps
        for problem in _metamorphic_pool(27, 40)[1]:
            spectrum = JointSpectrum.from_problem(problem)
            optimum = solve_ci_det(problem).alpha
            for alpha in _admitted_weights(spectrum, (0.0, 0.25, 0.5, 0.75, 1.0, optimum)):
                t = alpha - 0.5
                p_hat = spectrum.fused_cov(t)
                rel = max(1e-12, problem.n * np.linalg.cond(sigma_alpha(problem, alpha)) * eps)
                assert spectrum.cost(Cost.DET, t) == pytest.approx(np.linalg.det(p_hat), rel=rel)
                assert spectrum.cost(Cost.TRACE, t) == pytest.approx(np.trace(p_hat), rel=1e-12)

    def test_det_cost_overflows_to_inf(self):
        # det P_hat = 1e360 is past the largest float, as np.linalg.det finds
        n = 30
        est = PartialEstimate(np.eye(n), np.zeros(n), 1e12 * np.eye(n))
        spectrum = JointSpectrum.from_problem(FusionProblem(est, est))
        with np.errstate(over="ignore"):
            assert np.linalg.det(spectrum.fused_cov(0.0)) == math.inf
        assert spectrum.cost(Cost.DET, 0.0) == math.inf

    def test_ku_rule_on_a_kept_spectrum_equals_a_fresh_one_bitwise(self):
        # a member taken on the spectrum the problem kept (built here by
        # reading its relation) has the bits of one on a new, equal problem
        rng, pool = _metamorphic_pool(28, 40)
        for problem in pool:
            rel = problem.spectrum.relation
            if rel is LoewnerRelation.STRICTLY_GREATER:
                alpha = 0.0
            elif rel is LoewnerRelation.STRICTLY_LESS:
                alpha = 1.0
            else:
                alpha = float(rng.uniform(0.05, 0.95))
            kept = ku_rule(problem, alpha)
            fresh = FusionProblem(*_fresh(problem))
            assert "spectrum" not in vars(fresh)
            given_ = ku_rule(fresh, alpha)
            for name in ("K1", "K2", "fused_x"):
                assert np.array_equal(getattr(kept, name), getattr(given_, name))
            assert np.array_equal(kept.P_hat.data, given_.P_hat.data)
            assert (kept.alpha, kept.P_hat.min_eig, kept.diagnostics) == (
                given_.alpha, given_.P_hat.min_eig, given_.diagnostics
            )

    def test_solve_ci_equals_its_public_steps_bitwise(self):
        # the public steps must give solve_ci's bits: the weight search on
        # the problem's spectrum, ku_rule, the spectrum's cost, then
        # lmi_certificate
        rng, pool = _metamorphic_pool(29, 32)
        pool += [equal_sigma_problem(rng), example2_problem()]
        branches = set()
        for problem in pool:
            spectrum = problem.spectrum
            for cost in Cost:
                result = solve_ci(problem, cost)
                if spectrum.relation is LoewnerRelation.EQUAL:
                    alpha, branch = 0.5, "equal"
                else:
                    slope = spectrum.det_slope if cost is Cost.DET else spectrum.trace_slope
                    alpha, branch = _optimal_weight(spectrum, slope)
                steps = ku_rule(problem, alpha)
                cert = lmi_certificate(steps, problem, alpha)
                assert result.alpha == alpha and result.diagnostics["branch"] == branch
                for name in ("K1", "K2", "fused_x"):
                    assert getattr(result, name).tobytes() == getattr(steps, name).tobytes()
                assert result.P_hat.data.tobytes() == steps.P_hat.data.tobytes()
                assert (result.P_hat.min_eig, result.P_hat.strict) == (
                    steps.P_hat.min_eig, steps.P_hat.strict)
                assert result.cost_value == spectrum.cost(cost, alpha - 0.5)
                assert cert.passed and result.diagnostics["lmi_min_eig"] == cert.lmi_min_eig
                for key, value in steps.diagnostics.items():
                    assert result.diagnostics[key] == value
                branches.add((branch, spectrum.relation))
        assert {b for b, _ in branches} == {"endpoint_zero", "endpoint_one", "interior_root",
                                            "equal"}
        assert {r for _, r in branches} == {
            LoewnerRelation.STRICTLY_GREATER, LoewnerRelation.STRICTLY_LESS,
            LoewnerRelation.EQUAL, LoewnerRelation.INCOMPARABLE}


#: the ``numpy.linalg`` functions that count as spectral calls
SPECTRAL_CALLS = ("eigvalsh", "eigh", "svd", "cholesky", "inv", "det", "solve")


def count_spectral_calls(monkeypatch) -> list[str]:
    """Patch every ``SPECTRAL_CALLS`` function to log its name into the returned list."""
    calls = []
    for name in SPECTRAL_CALLS:
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _budget_pool():
    rng = np.random.default_rng(30)
    pool = [random_problem(rng, n=n) for n in (2, 3, 5, 8)]
    pool += [random_problem(rng, full_state=True), dominated_problem(rng, 3, True),
             dominated_problem(rng, 4, False), equal_sigma_problem(), example2_problem()]
    return pool


def _fresh(problem: FusionProblem) -> tuple[PartialEstimate, PartialEstimate]:
    """New estimates on the same data, with no cached factor; ``P_hat`` is already certified."""
    return tuple(PartialEstimate(est.h, est.x_hat, est.p_hat) for est in (problem.est1, problem.est2))


class TestCallBudget:
    def test_certified_solve_makes_at_most_six_spectral_calls(self, monkeypatch):
        # the first solve of a problem on factored estimates: the spectrum's
        # three, P_hat's certification and the LMI certificate's two
        pool = _budget_pool()
        for problem in pool:  # warm the cached info_matrix, p_chol and p_inv
            solve_ci(problem, Cost.DET)
        calls = count_spectral_calls(monkeypatch)
        for problem in pool:
            for cost in Cost:
                unsolved = FusionProblem(problem.est1, problem.est2)
                calls.clear()
                solve_ci(unsolved, cost)
                assert len(calls) <= 6, (problem, cost, calls)

    def test_solving_a_problem_again_makes_at_most_three_spectral_calls(self, monkeypatch):
        # the problem keeps its spectrum, so a later solve under either cost
        # makes only P_hat's certification and the LMI certificate's two
        pool = _budget_pool()
        for problem in pool:
            solve_ci(problem, Cost.DET)
        calls = count_spectral_calls(monkeypatch)
        for problem in pool:
            for cost in Cost:
                calls.clear()
                solve_ci(problem, cost)
                assert len(calls) <= 3 and not {"cholesky", "inv", "eigh"} & set(calls), \
                    (problem, cost, calls)

    def test_fresh_problem_and_solve_make_at_most_eleven_calls(self, monkeypatch):
        # one rank SVD, a Cholesky factor and a solve per estimate, the solve's six
        pool = _budget_pool()
        calls = count_spectral_calls(monkeypatch)
        for problem in pool:
            for cost in Cost:
                est1, est2 = _fresh(problem)
                calls.clear()
                solve_ci(FusionProblem(est1, est2), cost)
                assert len(calls) <= 11, (problem, cost, calls)

    def test_building_a_problem_makes_one_svd(self, monkeypatch):
        pool = _budget_pool()
        calls = count_spectral_calls(monkeypatch)
        for problem in pool:
            est1, est2 = _fresh(problem)
            calls.clear()
            FusionProblem(est1, est2)
            assert calls == ["svd"], (problem, calls)

    def test_sim_event_makes_at_most_twelve_calls(self, monkeypatch):
        # the solve's eleven and the margin's eigvalsh, on every event
        nodes, truth = init_network(6, 200, seed=2)
        schedule = make_schedule("random", 200, 400, Cost.DET, seed=2)
        calls = count_spectral_calls(monkeypatch)
        fused = 0
        for ev in schedule.events:
            calls.clear()
            one = Schedule(events=(ev,), topology=schedule.topology, seed=schedule.seed)
            fused += len(run_schedule(nodes, truth, one).records)
            assert len(calls) <= 12, (ev, calls)
        assert fused == 400


class TestKeptSpectrum:
    """``FusionProblem.spectrum`` is built once per problem and never changes."""

    def test_one_factorisation_per_problem(self, monkeypatch):
        # a DET solve, a TRACE solve and several members of the family on
        # one problem: one cholesky, one inv and one eigh between them
        pool = _budget_pool()
        calls = count_spectral_calls(monkeypatch)
        for problem in pool:
            problem = FusionProblem(*_fresh(problem))
            problem.sigma1, problem.sigma0  # the estimates' own factors, not counted
            calls.clear()
            solve_ci(problem, Cost.DET)
            solve_ci(problem, Cost.TRACE)
            for alpha in _admitted_weights(problem.spectrum, (0.0, 0.25, 0.5, 0.75, 1.0)):
                ku_rule(problem, alpha, cost=Cost.DET)
            assert [calls.count(name) for name in ("cholesky", "inv", "eigh")] == [1, 1, 1], \
                (problem, calls)

    @pytest.mark.parametrize("order", [(Cost.DET, Cost.TRACE), (Cost.TRACE, Cost.DET)])
    def test_solves_match_a_fresh_problem_bitwise(self, order):
        # each solve after the first reads the kept spectrum; it must give
        # the bits of the same solve on a new problem with equal estimates
        _, pool = _metamorphic_pool(31, 40)
        pool += [equal_sigma_problem(), example2_problem()]
        for problem in pool:
            problem = FusionProblem(*_fresh(problem))
            for cost in order:
                kept = solve_ci(problem, cost)
                fresh = solve_ci(FusionProblem(*_fresh(problem)), cost)
                assert kept.alpha == fresh.alpha and kept.cost_value == fresh.cost_value
                for name in ("K1", "K2", "fused_x"):
                    assert getattr(kept, name).tobytes() == getattr(fresh, name).tobytes()
                assert kept.P_hat.data.tobytes() == fresh.P_hat.data.tobytes()
                assert kept.diagnostics == fresh.diagnostics

    def test_swapped_problem_builds_its_own_spectrum(self):
        rng = np.random.default_rng(32)
        for problem in [random_problem(rng) for _ in range(10)] + [example2_problem()]:
            spectrum = problem.spectrum
            swapped = FusionProblem(problem.est2, problem.est1)
            assert "spectrum" not in vars(swapped)
            assert swapped.spectrum is not spectrum
            assert swapped.spectrum is swapped.spectrum
            # exchanging the estimates negates M, so its spectrum reverses
            np.testing.assert_allclose(swapped.spectrum.lam, -spectrum.lam[::-1],
                                       rtol=0.0, atol=1e-12)
            assert problem.spectrum is spectrum

    def test_kept_arrays_are_read_only(self):
        problem = example2_problem()
        solve_ci(problem, Cost.TRACE)
        spectrum, est = problem.spectrum, problem.est1
        for array in (spectrum.lam, spectrum.c, spectrum.w,
                      est.p_chol, est.p_inv, est.info_matrix, est.h, est.x_hat, est.p_hat.data):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        with pytest.raises(AttributeError):
            spectrum.lam = np.zeros(2)


class TestDetOracle:
    def test_weight_matches_adjugate_bisection(self):
        rng = np.random.default_rng(22)
        pool = [random_problem(rng, n=n) for n in (2, 3, 4, 5, 6, 8, 10, 15, 20) for _ in range(4)]
        pool += [random_problem(rng, full_state=True) for _ in range(10)]
        pool += [dominated_problem(rng, n, bool(n % 2)) for n in (2, 3, 4, 5, 6, 10)]
        branches = set()
        for problem in pool:
            result = solve_ci_det(problem)
            branches.add(result.diagnostics["branch"])
            assert result.alpha == pytest.approx(det_alpha_oracle(problem), abs=1e-10)
        assert branches >= {"interior_root", "endpoint_zero", "endpoint_one"}


class TestMetamorphic:
    """Relabelling, rotating or rescaling a problem must not move the weight."""

    TOL = 1e-11

    def test_swapping_the_estimates_mirrors_the_weight(self):
        _, pool = _metamorphic_pool(23, 134)
        for problem in pool:
            for solver in (solve_ci_det, solve_ci_trace):
                a = solver(problem).alpha
                assert 1.0 - solver(FusionProblem(problem.est2, problem.est1)).alpha == pytest.approx(a, abs=self.TOL)

    def test_orthogonal_change_of_state_basis(self):
        rng, pool = _metamorphic_pool(24, 134)
        for problem in pool:
            q = random_orthogonal(rng, problem.n)
            rotated = _rebuilt(problem, h_map=lambda h: h @ q)
            for solver in (solve_ci_det, solve_ci_trace):
                assert solver(rotated).alpha == pytest.approx(solver(problem).alpha, abs=self.TOL)

    def test_common_rescaling_of_both_covariances(self):
        _, pool = _metamorphic_pool(25, 134)
        for problem in pool:
            for solver in (solve_ci_det, solve_ci_trace):
                base = solver(problem).alpha
                for factor in (1e-6, 1e6):
                    moved = solver(_rebuilt(problem, scale=factor)).alpha
                    assert moved == pytest.approx(base, abs=self.TOL)

    @pytest.mark.xfail(strict=True, raises=NotPdError,
                       reason="ROADMAP item 3: tol_scale floors at 1, so a "
                              "covariance below 1e-9 counts as singular")
    def test_power_of_two_rescaling_to_small_units_keeps_the_weight_bitwise(self):
        # the README quick-start problem; a power of two scales exactly
        for cost, alpha in ((Cost.DET, 0.0), (Cost.TRACE, 0.44803691693189157)):
            assert solve_ci(example2_problem(), cost).alpha == alpha
            scaled = _rebuilt(example2_problem(), scale=2.0**-34)
            assert solve_ci(scaled, cost).alpha == alpha


class TestLowerBoundWitness:
    def test_own_solution_is_witness(self):
        problem = example2_problem()
        result = solve_ci(problem, Cost.DET)
        assert lower_bound_witness(problem, result.P_hat) is not None

    def test_inflation_preserves_witness(self):
        problem = example2_problem()
        result = solve_ci(problem, Cost.DET)
        doubled = psd_certify(2.0 * result.P_hat.data)
        assert lower_bound_witness(problem, doubled) is not None

    def test_deflation_violates_bound(self):
        est1 = PartialEstimate([[1.0, 0.0]], [0.0], [[1.0]])
        est2 = PartialEstimate([[0.0, 1.0]], [0.0], [[1.0]])
        problem = FusionProblem(est1, est2)
        result = solve_ci(problem, Cost.DET)  # interior optimum
        assert 0.0 < result.alpha < 1.0
        halved = psd_certify(0.5 * result.P_hat.data)
        assert lower_bound_witness(problem, halved) is None
