import dataclasses
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
from cifusion import problem as problem_module
from cifusion.errors import (
    InvalidFamilyParameterError,
    NotPdError,
    OutOfRangeError,
    SingularSigmaError,
)
from cifusion.linalg import DEFAULT_TOL, SINGULAR_RTOL, inv_pd
from cifusion.optimizer import (
    ROOT_TOL,
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
    exact_fused_cov,
    exact_information_pair,
    exact_slope,
    exit_contract_docs,
    fixed_point_residual,
    gain_norms,
    grid_costs,
    information_pair,
    lower_bound_witness,
    member_reference,
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
    def test_fused_covariance_beyond_half_the_float_range_is_refused(self):
        # the fused trace is at least 2.9 c, c = 2 / h^2 about 1.4e308, at
        # every weight, so the solved one is refused without a warning; h ten
        # times larger gives c a hundred times smaller, and the weight solves
        def problem(h):
            return FusionProblem(PartialEstimate(h * np.eye(3)[:2], [0.0, 0.0], np.eye(2)),
                                 PartialEstimate(h * np.eye(3)[2:], [0.0], [[1.0]]))

        refused, solved = problem(1.2e-154), problem(1.2e-153)
        for alpha in np.linspace(0.05, 0.95, 19):
            with pytest.raises(SingularSigmaError, match=r"^fused covariance is outside the float"):
                refused.spectrum.member(alpha)
        with pytest.raises(SingularSigmaError,
                           match=r"^fused covariance is outside the float range at alpha=0\.666"):
            solve_ci(refused, Cost.DET)
        result = solve_ci(solved, Cost.DET)
        assert result.alpha == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert result.P_hat.data[2, 2] == pytest.approx(3.0 / 1.2e-153**2, rel=1e-12)

    def test_dominant_second_estimate_forces_zero(self):
        problem = dominated_problem(np.random.default_rng(1), 3, dominant_first=False)
        result = ku_rule(problem, 0.0)
        np.testing.assert_allclose(result.K1, np.zeros_like(result.K1))
        np.testing.assert_allclose(
            np.linalg.inv(result.P_hat.data), information_pair(problem)[1], atol=1e-10
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
            s1, s0 = information_pair(problem)
            rel = loewner_compare(s0, s1)
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
            s1, s0 = information_pair(problem)
            if loewner_compare(s0, s1) is not LoewnerRelation.INCOMPARABLE:
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
            s1, s0 = information_pair(problem)
            rel = loewner_compare(s0, s1)
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
            s1, s0 = information_pair(problem)
            h = 1e-6
            for endpoint in (0.0, 1.0):
                sig = endpoint * s1 + (1.0 - endpoint) * s0
                if np.linalg.eigvalsh(sig)[0] <= 1e-9:
                    continue
                a0 = max(h, min(1.0 - h, endpoint))
                g = lambda a: float(
                    np.linalg.det(
                        np.linalg.inv(
                            a * s1 + (1.0 - a) * s0
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
        s1, s0 = information_pair(problem)
        h = 1e-5

        def g(a):
            sig = a * s1 + (1.0 - a) * s0
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
        assert extended_cost(Cost.TRACE, information_pair(problem)[1]) == math.inf
        result = solve_ci_trace(problem)
        assert 0.0 < result.alpha < 1.0

    def test_search_reads_the_slope_on_c_scaled_by_a_power_of_two(self):
        # c reaches 1e302 here, where the slope pair at true scale overflows
        # (silently: the slopes run on Python floats) to an infinite
        # curvature at both ends; the spectrum keeps c at the scale of its
        # SVD of 2^-e G, below 1e21, where the pair is finite and the search
        # lands within ROOT_TOL of the exact root, and scaling both P_hat by
        # 4^-k moves e alone, so the weight keeps its bits
        doc = exit_contract_docs(3, 100)[64][0]

        def problem_at(k):
            return FusionProblem(*(PartialEstimate(doc[key]["H"], doc[key]["x_hat"],
                                                   np.ldexp(doc[key]["P_hat"], -2 * k))
                                   for key in ("est1", "est2")))

        problem = problem_at(0)
        spectrum = problem.spectrum
        true_c = np.ldexp(spectrum.c, -2 * spectrum.exponent)
        assert true_c.max() > 1e302 and spectrum.c.max() < 1e21
        at_true_scale = dataclasses.replace(spectrum, c=true_c, exponent=0)
        for t in (-0.5, 0.5):
            assert not all(map(math.isfinite, at_true_scale.trace_slope(t)))
            assert all(map(math.isfinite, spectrum.trace_slope(t)))
        alpha = solve_ci_trace(problem).alpha
        pair = exact_information_pair(problem)
        assert exact_slope(pair, alpha - ROOT_TOL, Cost.TRACE) < 0 \
            < exact_slope(pair, alpha + ROOT_TOL, Cost.TRACE)
        for k in (50, 100, 150, 200):
            moved = problem_at(k)
            assert moved.spectrum.exponent == spectrum.exponent + k
            assert moved.spectrum.c.tobytes() == spectrum.c.tobytes()
            assert solve_ci_trace(moved).alpha == alpha


class TestSolveCi:
    def test_dispatch_matches_specialized_solvers(self):
        problem = example2_problem()
        assert solve_ci(problem, Cost.DET).alpha == solve_ci_det(problem).alpha
        assert solve_ci(problem, Cost.TRACE).alpha == solve_ci_trace(problem).alpha

    def test_certificate_recorded(self):
        result = solve_ci(example2_problem(), Cost.DET)
        cert = result.diagnostics["certificate"]
        assert cert.passed and cert.alpha == result.alpha and cert.lmi_min_eig >= -1e-9

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


class TestRootSearch:
    def test_converged_newton_step_ends_the_search_at_the_root(self, monkeypatch):
        # a Newton step of at most ROOT_TOL ends the search even where it
        # rounds onto the bracket end just set; bisecting on from there took
        # up to 45 evaluations on this pool (instance 0 under TRACE took 43).
        # The exact slope changes sign within 2 ROOT_TOL of the weight, or
        # points outwards there at an end; a float oracle cannot tell: on
        # instance 10 (exact root 0.6) a bisection on the slope of the
        # rounded information pair lands 9e-11 away
        evals = []
        for name in ("det_slope", "trace_slope"):
            original = getattr(JointSpectrum, name)

            def counted(self, *args, _original=original):
                evals.append(1)
                return _original(self, *args)

            monkeypatch.setattr(JointSpectrum, name, counted)
        rng = np.random.default_rng(7)
        width, solved = 2.0 * ROOT_TOL, 0
        for i in range(200):
            problem = random_problem(rng)
            pair = exact_information_pair(problem)
            for cost in Cost:
                evals.clear()
                try:
                    alpha = solve_ci(problem, cost).alpha
                except SingularSigmaError:
                    continue
                solved += 1
                assert len(evals) <= 15, (i, cost, len(evals))
                if alpha - width > 0.0:
                    assert exact_slope(pair, alpha - width, cost) <= 0, (i, cost, alpha)
                if alpha + width < 1.0:
                    assert exact_slope(pair, alpha + width, cost) >= 0, (i, cost, alpha)
        assert solved >= 390


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
            s1, s0 = information_pair(problem)
            assert rel is loewner_compare(s0, s1)
            seen.add(rel)
        assert len(seen) >= 4

    @pytest.mark.parametrize("lam, want", [
        ([0.0, 0.5, 1e-15], LoewnerRelation.LESS_EQUAL),  # the ends read EQUAL
        ([-1e-15, -0.5, 0.0], LoewnerRelation.GREATER_EQUAL),  # EQUAL
        ([0.5, 1.0, 0.0], LoewnerRelation.LESS_EQUAL),  # STRICTLY_LESS
        ([0.5, -1.0, 1.0], LoewnerRelation.INCOMPARABLE),  # STRICTLY_LESS
    ])
    def test_relation_reads_the_extremes_not_the_ends(self, lam, want):
        # lam is ascending only up to rounding, so its ends need not be its
        # extremes; the relation is classified from the extremes, as the
        # same lam sorted gives it
        lam = np.array(lam)
        n = lam.size
        spectrum = JointSpectrum(lam, np.ones(n), np.eye(n), 0, 0.0, 0.0)
        ends = LoewnerRelation.from_extremes(-lam[-1], -lam[0], DEFAULT_TOL)
        assert spectrum.relation is want is not ends
        assert JointSpectrum(np.sort(lam), np.ones(n), np.eye(n), 0, 0.0, 0.0).relation is want

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
            spectrum = JointSpectrum(lam, np.ones(n), np.eye(n), 0, 0.0, 0.0)
            for t in (-0.5, 0.5, rng.uniform(-0.5, 0.5)):
                mu = 1.0 + t * lam
                want = float(mu.min()) > SINGULAR_RTOL * float(mu.max())
                assert spectrum.regular_at(t) is want
                verdicts.add(want)
        assert verdicts == {True, False}

    def test_no_slope_or_member_test_divides_by_zero(self):
        # a direction one estimate does not see gets lam exactly -2 or +2, so
        # some 1 + t lam is exactly 0 at one end; the slopes and member tests
        # run on Python floats, which raise ZeroDivisionError where numpy
        # gave an infinity, so regular_at must refuse that end before any of
        # them divides there.  Per instance: the DET and TRACE branches (0,
        # 1, i: endpoint_zero, endpoint_one, interior_root), then whether
        # ku_rule takes alpha = 0 and alpha = 1 (+ or -), as the numpy
        # slopes gave them
        want = ("ii-+ 00+- ii+- 11-+ 00+- ii-- 11-+ ii+- 11-+ ii+- 11-+ 00+- 11-+ 11-+ 00+- "
                "11-+ ii-- 00+- 11-+ ii+- 00+- ii+- 11-+ 00+- ii-- 11-+ ii-- 11-+ ii-- 11-+ "
                "ii-- 11-+ 00+-")
        code = {"endpoint_zero": "0", "endpoint_one": "1", "interior_root": "i"}
        rng = np.random.default_rng(31)
        got, seen = [], set()
        for i in range(45):
            problem = (random_problem(rng) if i % 3 == 0 else
                       dominated_problem(rng, int(rng.integers(2, 6)), dominant_first=i % 3 == 1))
            spectrum = problem.spectrum
            ends = {float(lam) for lam in spectrum.lam[[0, -1]] if abs(lam) == 2.0}
            if not ends:
                continue
            seen |= ends
            for t in (-0.5, 0.5):
                if spectrum.regular_at(t):
                    spectrum.det_slope(t), spectrum.trace_slope(t)
                    try:
                        spectrum.member(t + 0.5)
                    except SingularSigmaError as exc:
                        assert "float range" not in str(exc)
            row = "".join(code[solve_ci(problem, cost).diagnostics["branch"]] for cost in Cost)
            for alpha in (0.0, 1.0):
                try:
                    ku_rule(problem, alpha)
                    row += "+"
                except (InvalidFamilyParameterError, SingularSigmaError):
                    row += "-"
            got.append(row)
        assert seen == {-2.0, 2.0}
        assert " ".join(got) == want

    def test_cost_forms_match_blended_inverse(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            problem = random_problem(rng)
            spectrum = JointSpectrum.from_problem(problem)
            assert np.all(np.abs(spectrum.lam) <= 2.0)
            s1, s0 = information_pair(problem)
            d = s1 - s0
            for alpha in (0.1, 0.5, 0.9):
                t = alpha - 0.5
                p = np.linalg.inv(sigma_alpha(problem, alpha))
                # c and the trace slope are kept 4^e times their true values
                e = spectrum.exponent
                trace = float(np.sum(spectrum.c / (1.0 + t * spectrum.lam)))
                assert np.ldexp(trace, -2 * e) == pytest.approx(np.trace(p), rel=1e-10)
                # d/dalpha log det P = -tr(P D) and d/dalpha tr P = -tr(P D P)
                assert spectrum.det_slope(t)[0] == pytest.approx(-np.trace(p @ d), rel=1e-9, abs=1e-12)
                assert np.ldexp(spectrum.trace_slope(t)[0], -2 * e) \
                    == pytest.approx(-np.trace(p @ d @ p), rel=1e-9, abs=1e-12)


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

    def test_gains_from_one_product_match_each_estimates_own(self):
        # K = P_hat [G1' L1^-1 | G2' L2^-1], its column blocks weighted by
        # alpha and 1 - alpha, against K_i = alpha_i (P_hat G_i') L_i^-1;
        # fused_x and the residual of K1 H1 + K2 H2 = I follow from it
        for problem in _metamorphic_pool(28, 40)[1] + [example2_problem()]:
            for cost in Cost:
                result = solve_ci(problem, cost)
                p_hat, k = result.P_hat.data, np.hstack([result.K1, result.K2])
                scale = np.abs(k).max()
                for gain, est, weight in ((result.K1, problem.est1, result.alpha),
                                          (result.K2, problem.est2, 1.0 - result.alpha)):
                    want = weight * (p_hat @ est.whitened.T @ est.chol_inv)
                    assert np.abs(gain - want).max() <= 1e-13 * scale
                x_want = result.K1 @ problem.est1.x_hat + result.K2 @ problem.est2.x_hat
                assert np.abs(result.fused_x - x_want).max() <= 1e-13 * np.abs(x_want).max()
                unbias = result.K1 @ problem.est1.h + result.K2 @ problem.est2.h - np.eye(problem.n)
                assert result.diagnostics["unbias_residual"] == pytest.approx(
                    np.abs(unbias).max(), abs=1e-13)

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
                assert cert.passed and result.diagnostics["certificate"] == cert
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
    def test_certified_solve_makes_at_most_one_spectral_call(self, monkeypatch):
        # the first solve of a built problem: the spectrum's eigh; the SVD's
        # largest singular value bounds P_hat's least eigenvalue, and a
        # solved block is singular up to rounding, so the Schur route proves
        # its certificate without the block's eigvalsh
        pool = _budget_pool()
        calls = count_spectral_calls(monkeypatch)
        for problem in pool:
            for cost in Cost:
                unsolved = FusionProblem(problem.est1, problem.est2)
                calls.clear()
                solve_ci(unsolved, cost)
                assert len(calls) <= 1, (problem, cost, calls)

    def test_solving_a_problem_again_makes_no_spectral_call(self, monkeypatch):
        # the problem keeps its spectrum and its bound omega, which decide
        # P_hat's strictness, and the Schur route proves the block
        # certificate, so a later solve under either cost makes no call
        pool = _budget_pool()
        for problem in pool:
            solve_ci(problem, Cost.DET)
        calls = count_spectral_calls(monkeypatch)
        for problem in pool:
            for cost in Cost:
                calls.clear()
                result = solve_ci(problem, cost)
                assert calls == [], (problem, cost, calls)
                assert result.diagnostics["certificate"].route == "schur"

    def test_fresh_problem_and_solve_make_at_most_six_calls(self, monkeypatch):
        # a Cholesky factor and its inverse per estimate, the whitened
        # stack's SVD, and the first solve's eigh
        pool = _budget_pool()
        calls = count_spectral_calls(monkeypatch)
        for problem in pool:
            for cost in Cost:
                est1, est2 = _fresh(problem)
                calls.clear()
                solve_ci(FusionProblem(est1, est2), cost)
                assert len(calls) <= 6, (problem, cost, calls)

    def test_building_a_problem_makes_one_svd(self, monkeypatch):
        # the estimates' factors and their inverses whiten the stack, and one
        # SVD of it decides solvability, its largest entry finiteness; a
        # second problem on the same estimates takes only the SVD
        pool = _budget_pool()
        calls = count_spectral_calls(monkeypatch)
        for problem in pool:
            est1, est2 = _fresh(problem)
            calls.clear()
            FusionProblem(est1, est2)
            assert calls == ["cholesky", "inv", "cholesky", "inv", "svd"], (problem, calls)
            calls.clear()
            FusionProblem(est1, est2)
            assert calls == ["svd"], (problem, calls)

    def test_sim_event_makes_at_most_seven_calls(self, monkeypatch):
        # the build and solve's six and the margin's eigvalsh, on every event
        nodes, truth = init_network(6, 200, seed=2)
        schedule = make_schedule("random", 200, 400, Cost.DET, seed=2)
        calls = count_spectral_calls(monkeypatch)
        fused = 0
        for ev in schedule.events:
            calls.clear()
            one = Schedule(events=(ev,), topology=schedule.topology, seed=schedule.seed)
            fused += len(run_schedule(nodes, truth, one).records)
            assert len(calls) <= 7, (ev, calls)
        assert fused == 400


def _member(certify, alpha: float):
    """``certify(alpha)``'s data bytes, ``strict``, ``min_eig`` and writeable flag, or what it raised."""
    try:
        member = certify(alpha)
    except SingularSigmaError as exc:
        return type(exc), str(exc)
    return member.data.tobytes(), member.strict, member.min_eig, member.data.flags.writeable


class TestMember:
    """``JointSpectrum.member(alpha)`` is the refusal ladder of ``conftest.member_reference``."""

    @staticmethod
    def _pool():
        rng = np.random.default_rng(7)
        pool = [random_problem(rng) for _ in range(40)]  # instance 34: cond(P_hat) about 1e10
        rng = np.random.default_rng(71)
        pool += [dominated_problem(rng, n, first) for n in range(2, 7) for first in (True, False)]
        # covariances at 1e-8 units, and H four times larger, put fused
        # eigenvalues near and below the 1e-9 strictness floor
        pool += [_rebuilt(problem, h_map, 1e-8) for problem in pool[:20]
                 for h_map in (lambda h: h, lambda h: 4.0 * h)]
        return pool

    @staticmethod
    def _weights(problem):
        # the solved weights, the admitted ends and the middle, and a weight
        # near each end, where a dominated pair's member is near singular
        spectrum = problem.spectrum
        solved = {_optimal_weight(spectrum, slope)[0]
                  for slope in (spectrum.det_slope, spectrum.trace_slope)}
        return sorted(solved | {0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0})

    def test_matches_the_reference_on_every_branch(self, monkeypatch):
        fallbacks = []
        certify = problem_module.psd_certify
        monkeypatch.setattr(problem_module, "psd_certify",
                            lambda a: fallbacks.append(1) or certify(a))
        branches = {}
        for i, problem in enumerate(self._pool()):
            spectrum = problem.spectrum
            for alpha in self._weights(problem):
                fallbacks.clear()
                got = _member(spectrum.member, alpha)
                assert got == _member(lambda a: member_reference(spectrum, a), alpha), (i, alpha)
                if len(got) == 2:
                    branch = f"refused: {got[1].split(' at ')[0]}"
                else:
                    branch = "fallback" if fallbacks else "bounds"
                branches[branch] = branches.get(branch, 0) + 1
        assert {"bounds", "fallback", "refused: fused covariance is not strictly PD",
                "refused: blended information matrix is singular"} <= set(branches), branches

    def test_ill_conditioned_member_falls_back(self, monkeypatch):
        # ROADMAP item 12's instance: the spectrum's bounds cannot separate
        # P_hat's least eigenvalue from the strictness floor
        rng = np.random.default_rng(7)
        problem = [random_problem(rng) for _ in range(35)][34]
        spectrum = problem.spectrum
        calls = count_spectral_calls(monkeypatch)
        for slope in (spectrum.det_slope, spectrum.trace_slope):
            alpha = _optimal_weight(spectrum, slope)[0]
            calls.clear()
            with pytest.raises(SingularSigmaError, match="^fused covariance is not strictly PD$"):
                spectrum.member(alpha)
            assert calls == ["eigvalsh"]
            with pytest.raises(SingularSigmaError, match="^fused covariance is not strictly PD$"):
                ku_rule(problem, alpha)

    def test_min_eig_is_computed_on_first_read(self, monkeypatch):
        problem = example2_problem()
        spectrum = problem.spectrum
        solve_ci(problem, Cost.TRACE)  # the spectrum's bound is taken
        want = psd_certify(spectrum.fused_cov(0.6 - 0.5)).min_eig
        calls = count_spectral_calls(monkeypatch)
        member = spectrum.member(0.6)
        assert calls == [] and member.strict
        # read twice, computed once
        assert member.min_eig == want and member.min_eig == want and calls == ["eigvalsh"]

    def test_an_interior_lam_of_exactly_two_is_no_zero_division(self):
        # a second estimate with about 1e16 times the first's covariance sees
        # every direction with a share of about 1e-16, so every lam is within
        # rounding of 2 and one can be exactly 2 while the kept order's ends
        # are not; the blend at alpha = 0 is then singular, not a division
        # by zero in the endpoint slope or the member's trace
        rng = np.random.default_rng(0)
        found = 0
        for _ in range(400):
            n = int(rng.integers(2, 6))
            p1 = random_spd(rng, n, 0.5, 2.0)
            problem = FusionProblem(
                PartialEstimate(np.eye(n), np.zeros(n), p1),
                PartialEstimate(np.eye(n), np.zeros(n), 10.0 ** rng.uniform(15, 17) * np.eye(n)))
            lam = problem.spectrum.lam
            if not (2.0 in lam[1:-1] and lam[0] < 2.0 and lam[-1] < 2.0):
                continue
            found += 1
            assert not problem.spectrum.regular_at(-0.5)
            with pytest.raises(SingularSigmaError, match="^blended information matrix is singular"):
                problem.spectrum.member(0.0)
            for cost in Cost:
                assert solve_ci(problem, cost).alpha == 1.0
        assert found >= 3


class TestKeptSpectrum:
    """``FusionProblem.spectrum`` is built once per problem and never changes."""

    def test_one_factorisation_per_problem(self, monkeypatch):
        # a DET solve, a TRACE solve and several members of the family on
        # one built problem: one eigh between them, and no other factor
        pool = _budget_pool()
        calls = count_spectral_calls(monkeypatch)
        for problem in pool:
            problem = FusionProblem(*_fresh(problem))
            calls.clear()
            solve_ci(problem, Cost.DET)
            solve_ci(problem, Cost.TRACE)
            for alpha in _admitted_weights(problem.spectrum, (0.0, 0.25, 0.5, 0.75, 1.0)):
                ku_rule(problem, alpha, cost=Cost.DET)
            assert [calls.count(name) for name in ("cholesky", "inv", "solve", "svd", "eigh")] \
                == [0, 0, 0, 0, 1], \
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
        *factors, e = problem.whitened_factors
        assert type(e) is int and e == spectrum.exponent
        for array in (spectrum.lam, spectrum.c, spectrum.w,
                      est.p_chol, est.chol_inv, est.whitened, est.h, est.x_hat, est.p_hat.data,
                      *factors):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        for name, value in (("lam", np.zeros(2)), ("exponent", 0)):
            with pytest.raises(AttributeError):
                setattr(spectrum, name, value)


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

    @pytest.mark.parametrize("k", [-8, 0, 30, 60, 200])
    def test_one_sensors_power_of_two_units_keep_the_result_bitwise(self, k):
        # H_i -> 2^k H_i, x_i -> 2^k x_i and P_i -> 4^k P_i change one
        # sensor's units and not its information; its whitened block is the
        # same to the bit, and so are alpha, P_hat and fused_x.  A k below
        # -8 shrinks P_i under the strictness floor (ROADMAP item 3).
        _, pool = _metamorphic_pool(26, 40)
        pool.append(example2_problem())
        for problem in pool:
            for which in (0, 1):
                ests = [problem.est1, problem.est2]
                est = ests[which]
                ests[which] = PartialEstimate(2.0**k * est.h, 2.0**k * est.x_hat,
                                              4.0**k * est.p_hat.data)
                moved = FusionProblem(*ests)
                for cost in Cost:
                    want, got = solve_ci(problem, cost), solve_ci(moved, cost)
                    assert got.alpha == want.alpha, (problem, which, cost)
                    assert got.P_hat.data.tobytes() == want.P_hat.data.tobytes()
                    assert got.fused_x.tobytes() == want.fused_x.tobytes()

    @pytest.mark.parametrize("k", [1, 100, 300, 455, 465, 475, 500])
    def test_common_power_of_two_units_keep_the_result_bitwise(self, k):
        # P_i -> 4^k P_i for both estimates scales the whitened stack by
        # 2^-k, which moves only the exponent its SVD is taken at; the
        # weight, the gains and fused_x keep their bits and P_hat is scaled
        # exactly.  Past k = 455 the stack's entries fall below about 1e-138,
        # where LAPACK would rescale it by a factor that is not a power of two.
        rng = np.random.default_rng(5)
        for problem in [random_problem(rng) for _ in range(30)]:
            moved = _rebuilt(problem, scale=4.0**k)
            for cost in Cost:
                want, got = solve_ci(problem, cost), solve_ci(moved, cost)
                assert got.alpha == want.alpha, (problem, cost)
                for name in ("K1", "K2", "fused_x"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
                assert got.P_hat.data.tobytes() == np.ldexp(want.P_hat.data, 2 * k).tobytes()

    @pytest.mark.xfail(strict=True, raises=NotPdError,
                       reason="ROADMAP item 3: tol_scale floors at 1, so a "
                              "covariance below 1e-9 counts as singular")
    def test_power_of_two_rescaling_to_small_units_keeps_the_weight_bitwise(self):
        # the README quick-start problem; a power of two scales exactly
        for cost, alpha in ((Cost.DET, 0.0), (Cost.TRACE, 0.44803691693189157)):
            assert solve_ci(example2_problem(), cost).alpha == alpha
            scaled = _rebuilt(example2_problem(), scale=2.0**-34)
            assert solve_ci(scaled, cost).alpha == alpha


class TestAccuracy:
    def test_fused_covariance_is_accurate_to_the_whitened_stacks_condition(self):
        # P_hat against the exact inverse of the blend at the solver's own
        # weight: within 50 cond(G) eps, G the whitened stack, whose
        # cond(G)^2 is cond(Sigma1 + Sigma0).  Instance 10 (n = 5, cond(G) =
        # 4.5e3) is the one that the square of cond(G) would fail.
        rng = np.random.default_rng(7)
        checked = 0
        for i in range(40):
            problem = random_problem(rng)
            s1, s0 = information_pair(problem)
            cond_g = math.sqrt(np.linalg.cond(s1 + s0))
            for cost in Cost:
                try:
                    result = solve_ci(problem, cost)
                except SingularSigmaError:  # instance 34: P_hat below the strictness floor
                    continue
                exact = exact_fused_cov(problem, result.alpha)
                err = np.abs(result.P_hat.data - exact).max() / np.abs(exact).max()
                assert err <= 50.0 * cond_g * np.finfo(float).eps, (i, cost, err, cond_g)
                checked += 1
        assert checked == 78


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
