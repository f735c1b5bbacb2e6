import dataclasses
import itertools
import json
import math
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
from cifusion.errors import InternalInconsistencyError, SingularSigmaError
from cifusion.known_cross import JointCovariance
from cifusion.linalg import DEFAULT_CERT_TOL, PETERSEN_WIDTH, rounding_allowance
from cifusion.optimizer import Cost, FusionResult, ku_rule, solve_ci
from cifusion.verifier import (
    adversarial_x_search,
    certificate_tolerance,
    lmi_certificate,
    monte_carlo_joint,
    petersen_certificate,
    petersen_objective,
    q_pair,
)
from cifusion import cli, verifier
from cifusion.verifier import (
    _draw_cross,
    _sample_stack,
    _undecided,
    _worst_sample,
)

from conftest import (
    adversarial_sampling_oracle,
    alpha_uniqueness_check,
    bench_inputs,
    block_psd_margin_reference,
    dominated_problem,
    lmi_feasible_grid,
    lmi_feasible_interval,
    lmi_matrix,
    monte_carlo_draws,
    monte_carlo_rng,
    monte_carlo_sqrt_oracle,
    one_sided_bound_reference,
    petersen_golden_oracle,
    random_joint,
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
        fused_x=kc.K1 @ problem.est1.x_hat + kc.K2 @ problem.est2.x_hat,
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
            assert cert.passed
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
        assert cert.passed


    def test_min_eig_is_that_of_the_assembled_block(self):
        # the recorded margin is the eigvalsh of the whole block, bit for bit
        rng = np.random.default_rng(44)
        example2 = example2_problem()
        pool = [example2, FusionProblem(example2.est2, example2.est1), interior_problem()]
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

    def test_matches_the_generic_block_reference_bit_for_bit(self):
        # solved pools at the optimum and both ends, P_hat scaled around
        # its own boundary: the verdict, the margin's bits and where it
        # raises are those of the generic block check on the same block
        rng = np.random.default_rng(2301)
        pool = [random_problem(rng) for _ in range(24)]
        pool += well_scaled_problems(rng, 6) + [example2_problem(), interior_problem()]
        verdicts = set()
        for k, problem in enumerate(pool):
            result = solve_ci(problem, Cost.DET if k % 2 else Cost.TRACE)
            s = np.hstack(q_pair(result, problem))
            for scale in (1.0, 0.9, 0.999, 1.001, 1.0 - 1e-12, 1.5):
                p_hat = psd_certify(scale * result.P_hat.data)
                scaled = dataclasses.replace(result, P_hat=p_hat)
                for alpha in (result.alpha, 0.0, 1.0, 1e-13, 1.0 - 1e-13):
                    r_eigs = np.array([alpha] * problem.p1 + [1.0 - alpha] * problem.p2)
                    want = lmi_outcome(block_psd_margin_reference, p_hat.data, s, r_eigs)
                    assert lmi_outcome(lmi_certificate, scaled, problem, alpha) == want
                    verdicts.add(want[0])
        assert verdicts == {True, False}

    @pytest.mark.parametrize("size, shift, expected", [
        (5, 5.0, "raised"),   # the block's spectrum clearly below zero
        (5, 1e-7, False),     # past its band (4e-8), inside ten: the direct verdict
        (2, 5.0, "raised"),   # the Schur complement's clearly above zero
        (2, 5e-8, True),      # past its band (1e-8), inside ten: the direct verdict
        (3, 5.0, True),       # neither spectrum moved
    ])
    def test_disagreement_raises_only_when_both_margins_are_clear(
        self, monkeypatch, size, shift, expected
    ):
        # the two routes cannot disagree in exact arithmetic, so an eigvalsh
        # that moves one spectrum past zero by ``shift`` makes them: the 5 x 5
        # block's down, or the 2 x 2 Schur complement's up
        problem, result = lmi_case(np.diag([4.0, 3.0]), np.eye(2), np.zeros((2, 1)))
        real = np.linalg.eigvalsh
        block = lmi_matrix(result.P_hat.data, result.K1, result.K2, 0.5)
        m = result.K1 @ result.K1.T / 0.5 - result.P_hat.data
        move = {5: -(real(block)[0] + shift), 2: shift - real(m)[-1], 3: 0.0}[size]
        assert real(block)[0] > 0.1 and real(m)[-1] < -0.9

        def moved(a):
            eigs = real(a)
            return eigs + move if a.shape[-1] == size else eigs

        monkeypatch.setattr(np.linalg, "eigvalsh", moved)
        got = lmi_outcome(lmi_certificate, result, problem, 0.5)
        assert (got if got == "raised" else got[0]) == expected

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_zero_weight_block_with_a_leaked_coupling_fails(self, alpha):
        # at alpha = 0 (1) the first (second) weight block is zero, so the
        # block is PSD only if that gain block vanishes
        p_hat = np.diag([2.0, 1.0])
        live, dead = np.array([[0.5], [0.3]]), np.zeros((2, 2))
        blocks = (dead, live) if alpha == 0.0 else (live, dead)
        problem, result = lmi_case(p_hat, *blocks)
        cert = lmi_certificate(result, problem, alpha)
        assert cert.passed is True
        assert cert.lmi_min_eig == np.linalg.eigvalsh(lmi_matrix(p_hat, *blocks, alpha))[0]
        dead[0, 0] = 1e-3
        problem, result = lmi_case(p_hat, *blocks)
        assert lmi_certificate(result, problem, alpha).passed is False

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0])
    def test_zero_gains_pass_with_the_smallest_weight_as_margin(self, alpha):
        # Q1 = Q2 = 0: the block is diag(I, alpha I, (1 - alpha) I)
        problem, result = lmi_case(np.eye(2), np.zeros((2, 1)), np.zeros((2, 2)))
        cert = lmi_certificate(result, problem, alpha)
        assert cert.passed is True
        assert cert.lmi_min_eig == min(alpha, 1.0 - alpha)

    def test_rank_one_boundary_passes_and_a_hair_inside_fails(self):
        # P_hat = Q1Q1'/alpha + Q2Q2'/(1 - alpha) exactly: M(alpha) = 0, the
        # block is singular and PSD; a slightly smaller P_hat is not
        q1, q2 = np.array([[1.0], [0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])
        problem, result = lmi_case(np.diag([2.0, 2.0]), q1, q2)
        cert = lmi_certificate(result, problem, 0.5)
        assert cert.passed is True and abs(cert.lmi_min_eig) <= 1e-12
        problem, result = lmi_case(np.diag([2.0, 2.0 - 1e-6]), q1, q2)
        cert = lmi_certificate(result, problem, 0.5)
        assert cert.passed is False and cert.lmi_min_eig < -1e-8

    def test_verdict_agrees_with_both_routes_on_random_blocks(self):
        # random P_hat and gains, not solved: wherever the block's smallest
        # eigenvalue and M's largest lie clear of their bands, the verdict
        # is both of theirs, and no block raises
        rng = np.random.default_rng(29)
        seen = set()
        for _ in range(500):
            n = int(rng.integers(1, 5))
            p1, p2 = int(rng.integers(1, n + 1)), n  # the stacked H's keep rank n
            q1, q2 = rng.standard_normal((n, p1)), rng.standard_normal((n, p2))
            alpha = float(rng.uniform(0.05, 0.95))
            s = q1 @ q1.T / alpha + q2 @ q2.T / (1.0 - alpha)
            p_hat = rng.uniform(0.5, 1.5) * s + rng.uniform(0.01, 0.5) * np.eye(n)
            problem, result = lmi_case(p_hat, q1, q2)
            cert = lmi_certificate(result, problem, alpha)
            lowest = np.linalg.eigvalsh(lmi_matrix(p_hat, q1, q2, alpha))[0]
            top = np.linalg.eigvalsh(s - p_hat)[-1]
            if abs(lowest) <= 1e-6 or abs(top) <= 1e-6:
                continue
            assert cert.passed is bool(lowest > 0.0) is bool(top < 0.0)
            seen.add(cert.passed)
        assert seen == {True, False}


def eager_lmi(result, problem, alpha: float) -> tuple[float, float]:
    """``(lowest, band)``: the block's smallest ``eigvalsh`` value and the band it is judged by."""
    eigs = np.linalg.eigvalsh(lmi_matrix(result.P_hat.data, *q_pair(result, problem), alpha))
    lowest = float(eigs[0])
    return lowest, DEFAULT_CERT_TOL * max(1.0, max(-lowest, float(eigs[-1])))


class TestSchurRoute:
    def test_every_benchmark_solve_is_decided_without_the_block_eigvalsh(self, tmp_path):
        # the 1640 certified solves of the solve pools and the 800 solves of
        # the verify files: each passes on the Schur route with a margin at
        # most 1; the block's eigvalsh would pass it with |lowest| <= band,
        # and the value read later has that eigvalsh's bits.  The 160 failing
        # pool solves fail in the family member, before any certificate, and
        # the 200 shrunk covariances of the reject files are left to the
        # block's eigvalsh, which fails them
        inputs = bench_inputs()
        solved, failed, alphas = [], [], set()
        for seed in range(1, 21):
            for prob in inputs.solve_pool(seed):
                problem = FusionProblem(PartialEstimate(prob["H1"], prob["x1"], prob["P1"]),
                                        PartialEstimate(prob["H2"], prob["x2"], prob["P2"]))
                for cost in Cost:
                    try:
                        solved.append((solve_ci(problem, cost), problem))
                    except SingularSigmaError as exc:
                        failed.append((prob["kind"], str(exc)))
        assert len(solved) == 1640
        assert set(failed) == {("small_units_below", "fused covariance is not strictly PD")}
        assert len(failed) == 160
        overridden = []
        for seed in range(1, 21):
            cases = inputs.verify_cases(seed)
            for path in inputs.write_verify_files(cases, str(tmp_path / str(seed))):
                problem, extras = cli.load_problem_file(path)
                for cost in Cost:
                    result = solve_ci(problem, cost)
                    solved.append((result, problem))
                    if "p_hat_override" in extras:
                        overridden.append((dataclasses.replace(
                            result, P_hat=extras["p_hat_override"], diagnostics={}), problem))
        assert len(solved) == 2440 and len(overridden) == 200
        worst = 0.0
        for result, problem in solved:
            cert = result.diagnostics["certificate"]
            assert (cert.route, cert.passed, cert.alpha) == ("schur", True, result.alpha)
            assert 0.0 < cert.margin <= 1.0
            worst = max(worst, cert.margin)
            lowest, band = eager_lmi(result, problem, result.alpha)
            assert abs(lowest) <= band
            assert cert.lmi_min_eig == lowest
            alphas.add(result.alpha)
        assert worst < 0.5 and {0.0, 1.0} <= alphas
        for result, problem in overridden:
            cert = lmi_certificate(result, problem, result.alpha)
            assert (cert.route, cert.passed, cert.margin) == ("eigvalsh", False, None)
            assert cert.lmi_min_eig == eager_lmi(result, problem, result.alpha)[0]

    def test_the_deferred_margin_is_computed_once(self, monkeypatch):
        problem = interior_problem()
        result = solve_ci(problem, Cost.DET)
        cert = result.diagnostics["certificate"]
        calls = count_eig_calls(monkeypatch)
        values = [cert.lmi_min_eig for _ in range(3)]
        assert calls == ["eigvalsh"]
        assert type(values[0]) is float and values == [values[0]] * 3
        assert cert == lmi_certificate(result, problem, result.alpha)
        assert calls == ["eigvalsh"] * 2

    @pytest.mark.parametrize("scale, alpha", [
        (1e200, 0.5),     # |Q1|_F^2 overflows
        (1.0, 5e-324),    # |Q1|_F^2 / alpha overflows
        (1e100, 0.5),     # M is finite, the square of its Frobenius norm is not
        (1.0, 0.0),       # a nonzero gain block at its zero weight
    ])
    def test_a_bound_that_overflows_decides_nothing_and_does_not_warn(self, scale, alpha):
        # the suite turns a RuntimeWarning into an error, so reaching the
        # assert shows that no warning was raised
        q1 = np.array([[scale], [0.0]])
        problem, result = lmi_case(np.diag([2.0, 2.0]), q1, np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert not verifier._schur_margin(verifier._Gains(result, problem), alpha) <= 1.0

    def test_a_singular_block_at_an_interior_weight_takes_the_schur_route(self):
        # P_hat = Q1Q1'/alpha + Q2Q2'/(1 - alpha) exactly, so M = 0
        q1, q2 = np.array([[1.0], [0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])
        problem, result = lmi_case(np.diag([2.0, 2.0]), q1, q2)
        cert = lmi_certificate(result, problem, 0.5)
        assert (cert.route, cert.passed) == ("schur", True) and 0.0 < cert.margin < 1e-3
        assert cert.lmi_min_eig == eager_lmi(result, problem, 0.5)[0]


def lmi_case(p_hat: np.ndarray, q1: np.ndarray, q2: np.ndarray):
    """A problem and result whose certificate block has ``P_hat`` and gain blocks ``(Q1, Q2)``.

    Both priors are identity covariances, whose Cholesky factors are exact,
    so ``Q_i = K_i``; the gains need not be unbiased for the certificate.
    """
    n = p_hat.shape[0]
    ests = [PartialEstimate(np.eye(p, n), np.zeros(p), np.eye(p)) for p in (q1.shape[1], q2.shape[1])]
    result = FusionResult(alpha=0.5, K1=q1, K2=q2, P_hat=psd_certify(p_hat), fused_x=np.zeros(n))
    return FusionProblem(*ests), result


def lmi_outcome(fn, *args):
    """``(passed, margin bytes)`` of ``fn(*args)``, or ``"raised"`` on an inconsistency.

    ``fn`` is :func:`lmi_certificate` or the generic block reference.
    """
    try:
        out = fn(*args)
    except InternalInconsistencyError:
        return "raised"
    passed, margin = (out.passed, out.lmi_min_eig) if fn is lmi_certificate else out
    assert type(passed) is bool and type(margin) is float
    return passed, np.float64(margin).tobytes()


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
        # the solver finds the interior root alpha = 0.5 at every scale, to
        # the north star's 1e-12 (the whitened stack's two singular values
        # are equal, so its SVD may rotate them, which moves alpha in its
        # last digits), and the check classifies the pair as the solver does:
        # distinct pairs are isolated, equal ones not applicable (an
        # absolute floor on the information matrices called every pair below
        # ~1e-9 equal)
        def problem_of(p2):
            return FusionProblem(
                PartialEstimate(np.eye(2), [0.0, 0.0], scale * np.diag([1.0, 2.0])),
                PartialEstimate(np.eye(2), [0.0, 0.0], scale * np.diag(p2)),
            )

        problem = problem_of([2.0, 1.0])
        result = solve_ci(problem, Cost.DET)
        assert abs(result.alpha - 0.5) <= 1e-12
        assert result.diagnostics["branch"] == "interior_root"
        assert alpha_uniqueness_check(result, problem) is True
        equal = problem_of([1.0, 2.0])
        assert alpha_uniqueness_check(solve_ci(equal, Cost.DET), equal) is None


def schur_max_eig(result, problem, alpha: float) -> float:
    """``lambda_max(S1/alpha + S2/(1 - alpha) - P_hat)``.

    ``S_i/0`` is 0 when ``Q_i`` is zero, and the value is inf otherwise.
    """
    m = -result.P_hat.data
    for q, t in zip(q_pair(result, problem), (alpha, 1.0 - alpha)):
        if q.any():
            if t == 0.0:
                return np.inf
            m = m + q @ q.T / t
    return float(np.linalg.eigvalsh(m)[-1])


class TestFeasibleInterval:
    def pool(self):
        """Solves, family members and shrunk results, interior and at both ends."""
        rng = np.random.default_rng(37)
        example2 = example2_problem()
        problems = [example2, FusionProblem(example2.est2, example2.est1), interior_problem()]
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


def both_blocks_nonzero(result, problem) -> bool:
    return all(q.any() for q in q_pair(result, problem))


def golden_bracket(result, problem) -> tuple[float, float]:
    """The golden section's minimum and its resolution.

    The resolution is how far ``petersen_objective`` rises across the
    oracle's final bracket, ``1e-10`` wide in log eps, around its minimiser.
    """
    eps, minimum = petersen_golden_oracle(result, problem)
    ends = (petersen_objective(result, problem, eps * math.exp(t)) for t in (-1e-10, 1e-10))
    return minimum, max(ends) - minimum


def count_eig_calls(monkeypatch) -> list[str]:
    """Patch ``np.linalg.eigh`` and ``eigvalsh`` to log their names into the returned list."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def verify_case_results(seed: int, tmp_path):
    """The benchmark's verify files for ``seed``: the result ``verify`` certifies, with its problem."""
    inputs = bench_inputs()
    cases = inputs.verify_cases(seed)
    out = []
    for path, case in zip(inputs.write_verify_files(cases, str(tmp_path / str(seed))), cases):
        problem, extras = cli.load_problem_file(path)
        result = solve_ci(problem, Cost.DET)
        if "p_hat_override" in extras:
            result = dataclasses.replace(result, P_hat=extras["p_hat_override"], diagnostics={})
        out.append((result, problem, case))
    return out


def rounded_trace_result(diagnostics: bool = True) -> tuple[FusionResult, object]:
    """rng 3's second instance with a TRACE result whose ``P_hat`` errs by about 4e-12 relative.

    These are the digits a solve printed when it took the spectrum from
    the information matrices (cond 3.4e4): at its weight, M has an
    eigenvalue of -9e-8 against a band of 2e-8.  With ``diagnostics``, the
    result carries that solve's unbias residual; without, it is a result
    file's, which has none.
    """
    rng = np.random.default_rng(3)
    random_problem(rng)
    problem = random_problem(rng)
    k1 = np.array([[22.083976286160542], [79.8045577941891]])
    k2 = np.array([[-7.332919534850462], [-25.049855938773266]])
    result = FusionResult(
        alpha=0.8396500592793876, K1=k1, K2=k2,
        P_hat=psd_certify([[1640.853212718644, 5872.833059046086],
                           [5872.833059046086, 21028.89908319471]]),
        fused_x=k1 @ problem.est1.x_hat + k2 @ problem.est2.x_hat,
        diagnostics={"unbias_residual": 8.760991931922035e-12} if diagnostics else {},
    )
    return result, problem


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
            worst = adversarial_x_search(result, problem)
            assert worst <= 1e-8

    def test_shrunken_covariance_exposed(self):
        problem = interior_problem()
        result = solve_ci(problem, Cost.DET)
        bad = shrink_result(result, 0.9)
        assert adversarial_x_search(bad, problem) > 1e-8

    def test_deterministic(self):
        problem = example2_problem()
        result = solve_ci(problem, Cost.TRACE)
        assert bits([adversarial_x_search(result, problem)]) == \
            bits([adversarial_x_search(result, problem)])

    @staticmethod
    def golden_cases():
        """DET and TRACE solves with both gain blocks nonzero: as solved, shrunk, and with the weight moved.

        Then :func:`rounded_trace_result`, as a result file gives it.
        """
        rng = np.random.default_rng(3)
        for problem in [random_problem(rng) for _ in range(30)] + [interior_problem()]:
            for cost in (Cost.DET, Cost.TRACE):
                solved = solve_ci(problem, cost)
                if not both_blocks_nonzero(solved, problem):
                    continue
                for factor, moved in ((1.0, False), (0.999, False), (0.9, False), (1.0, True)):
                    result = shrink_result(solved, factor)
                    if moved:
                        result = dataclasses.replace(result, alpha=float(rng.uniform(0.05, 0.95)))
                    yield result, problem
        # a walk from a weight where M is zero only to 9e-8 closes its bracket
        yield rounded_trace_result(diagnostics=False)

    def test_matches_the_golden_minimum(self, monkeypatch):
        # the witness is the largest eigenvalue of a sample, so at most min f,
        # and it reaches min f within the golden section's resolution.  A
        # moved weight on a solved result puts the search's start away from
        # the kink of f at the solved weight; where its bracket closes before
        # the stopping test passes, the last iterate's cluster within
        # f - floor gives the value, and that path is taken here too
        iterates, directions = [], []
        search, flat = verifier.newton_weights, verifier._flat_direction

        def counted_search(*args, **kwargs):
            for iterate in search(*args, **kwargs):
                iterates.append(None)
                yield iterate

        def counted_flat(*args):
            directions.append(None)
            return flat(*args)

        monkeypatch.setattr(verifier, "newton_weights", counted_search)
        monkeypatch.setattr(verifier, "_flat_direction", counted_flat)
        checked = closed = 0
        for result, problem in self.golden_cases():
            iterates.clear()
            directions.clear()
            value = adversarial_x_search(result, problem)
            closed += len(directions) > len(iterates)
            minimum, resolution = golden_bracket(result, problem)
            slack = 1e-13 * np.linalg.norm(result.P_hat.data, 2)
            assert -slack <= minimum - value <= resolution + slack, result.alpha
            checked += 1
        assert checked >= 150 and closed >= 1

    def test_zero_gain_block_gives_the_zero_cross_term(self):
        problem = example2_problem()
        result = solve_ci(problem, Cost.DET)  # alpha* = 0, K1 = 0
        q1, q2 = q_pair(result, problem)
        assert not q1.any()
        base = q1 @ q1.T + q2 @ q2.T - result.P_hat.data
        assert adversarial_x_search(result, problem) == np.linalg.eigvalsh(base)[-1]

    def test_at_most_two_eigh_calls_on_a_solved_result(self, monkeypatch):
        # the subgradient test at the result's own weight holds: one eigh of
        # M, one of M' on its top cluster, and the sample's eigvalsh
        rng = np.random.default_rng(30)
        cases = []
        for problem in [random_problem(rng, n=n) for n in (2, 3, 4, 5, 6, 8) for _ in range(2)] + [
                random_problem(rng, full_state=True), interior_problem()]:
            for cost in Cost:
                result = solve_ci(problem, cost)
                if both_blocks_nonzero(result, problem):
                    cases.append((result, problem))
        assert len(cases) >= 15
        calls = count_eig_calls(monkeypatch)
        for result, problem in cases:
            calls.clear()
            assert adversarial_x_search(result, problem) <= certificate_tolerance(result)
            assert calls.count("eigh") <= 2 and calls.count("eigvalsh") == 1, calls

    def test_ill_conditioned_solve_stops_at_its_own_weight(self, monkeypatch):
        # at the result's weight M is zero only to the solve's accuracy,
        # with an eigenvalue of -9e-8 against a band of 2e-8, so a cluster of
        # band / 4 holds the top eigenvector alone; the width from the
        # result's unbias residual holds both, and the walk stops at its
        # first iterate
        result, problem = rounded_trace_result()
        m, _ = verifier._schur_function(verifier._Gains(result, problem))
        assert np.linalg.eigvalsh(m(result.alpha))[0] < -5e-8
        minimum, resolution = golden_bracket(result, problem)
        calls = count_eig_calls(monkeypatch)
        value = adversarial_x_search(result, problem)
        assert calls.count("eigh") <= 3, calls
        slack = 1e-13 * np.linalg.norm(result.P_hat.data, 2)
        assert -slack <= minimum - value <= resolution + slack

    @pytest.mark.parametrize("seed", [1, 2])
    def test_never_below_the_sampling_oracle_on_the_benchmark_files(self, seed, tmp_path):
        # the 20 verify files of a benchmark seed, certified as verify does:
        # the witness lies at or above every draw of the sampling search it
        # replaced, at that search's seed, up to rounding, and at most at
        # min f; so the two give the same verdict
        verdicts = set()
        for result, problem, case in verify_case_results(seed, tmp_path):
            value = adversarial_x_search(result, problem)
            sampled = adversarial_sampling_oracle(result, problem, 1000, case["verify_seed"])
            scale = np.abs(result.P_hat.data).max()
            assert value >= sampled - 1e-13 * scale
            if both_blocks_nonzero(result, problem):
                minimum, resolution = golden_bracket(result, problem)
                assert value <= minimum + 1e-13 * scale
            tol = certificate_tolerance(result)
            assert (value <= tol) == (sampled <= tol) == (case["expect"] != "reject")
            verdicts.add(value <= tol)
        assert verdicts == {True, False}


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

    def test_objective_past_the_float_range_is_infinite_without_a_warning(self):
        # S_i = Q_i Q_i' cannot be formed (_Gains.formable): nothing is formed and
        # the value is inf, as the walk's; it warned twice and read nan
        problem, result = lmi_case(np.diag([2.0, 2.0]), np.array([[1e200], [0.0]]),
                                   np.array([[-1e200, 0.0], [0.0, 1.0]]))
        assert petersen_objective(result, problem, 1.0) == math.inf

    def test_shrunken_covariance_infeasible(self):
        problem = interior_problem()
        result = solve_ci(problem, Cost.DET)
        bad = shrink_result(result, 0.9)
        assert petersen_certificate(bad, problem) is None

    def test_zero_gain_block_certifies_at_its_end_weight(self):
        # K1 = 0 at EXAMPLE2's determinant optimum alpha = 0, K2 = 0 at its
        # swap's alpha = 1: M is finite at that end, and eps = 1/alpha - 1
        # is inf or 0 there
        problem = example2_problem()
        swapped = FusionProblem(problem.est2, problem.est1)
        for pair, zero, alpha, eps in ((problem, 0, 0.0, math.inf), (swapped, 1, 1.0, 0.0)):
            result = solve_ci(pair, Cost.DET)
            assert result.alpha == alpha
            assert not q_pair(result, pair)[zero].any()
            assert petersen_certificate(result, pair) == eps

    def test_zero_gain_verdict_matches_the_one_sided_bound(self):
        # the oracle's bound lambda_min(P_hat - Q Q') >= -tol decides the
        # same as the search, on EXAMPLE2 and its swap, as solved and with
        # P_hat scaled by 0.9
        problem = example2_problem()
        verdicts = []
        for pair in (problem, FusionProblem(problem.est2, problem.est1)):
            solved = solve_ci(pair, Cost.DET)
            for result in (solved, shrink_result(solved, 0.9)):
                bound = one_sided_bound_reference(result, pair)
                eps = petersen_certificate(result, pair)
                assert (eps is not None) == (bound >= -certificate_tolerance(result))
                verdicts.append(eps is not None)
        assert verdicts == [True, False, True, False]

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
                if not (q1.any() and q2.any()):
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
                if not (q1.any() and q2.any()):
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
            if not (q1.any() and q2.any()):
                continue
            evals.clear()
            assert petersen_certificate(result, problem) is None
            assert 1 <= len(evals) <= 10


class TestCallBudget:
    """``certify``'s ``petersen`` and ``adversarial-x`` rows read one walk over the weight."""

    def test_both_rows_of_a_solved_result_make_two_eigh_and_one_eigvalsh(self, monkeypatch):
        # a solved result certifies at its own weight, where the witness
        # stops too: one eigh of M, one of M' on its top cluster and the
        # sample's eigvalsh; a zero gain block's result takes the same path
        # at that block's zero weight, its own weight, where the sample is B
        rng = np.random.default_rng(30)
        pool = [random_problem(rng, n=n) for n in (2, 3, 4, 5, 6, 8) for _ in range(2)]
        pool += [random_problem(rng, full_state=True), interior_problem(), example2_problem(),
                 dominated_problem(rng, 3, True), dominated_problem(rng, 4, False)]
        cases = [(solve_ci(problem, cost), problem) for problem in pool for cost in Cost]
        live = sum(both_blocks_nonzero(result, problem) for result, problem in cases)
        assert live >= 15 and len(cases) - live >= 2
        monkeypatch.setattr(verifier, "monte_carlo_joint", lambda *args: -np.inf)
        calls = count_eig_calls(monkeypatch)
        for result, problem in cases:
            result.diagnostics["certificate"].lmi_min_eig  # the lmi row's value, read once
            calls.clear()
            rows = verifier.certify(result, problem)
            assert [row.name for row in rows][1:3] == ["petersen", "adversarial-x"]
            assert all(row.passed for row in rows), rows
            assert calls.count("eigh") <= 2 and calls.count("eigvalsh") <= 1, calls

    def test_verify_forms_each_gain_array_once_per_result(self, monkeypatch, tmp_path, capsys):
        # the certificate's arrays serve the walk and Monte Carlo: a solved
        # file forms Q, S_i and B and the float-range verdict once, from its
        # solve's certificate; an overridden one forms Q and S_i once per
        # result judged, the solve's and the override's
        inputs = bench_inputs()
        cases = inputs.verify_cases(1)
        paths = inputs.write_verify_files(cases, str(tmp_path))
        calls, built = [], []
        q_pair, init = verifier.q_pair, verifier._Gains.__init__

        def spy_q_pair(*args):
            calls.append(None)
            return q_pair(*args)

        def spy_init(self, *args):
            init(self, *args)
            built.append(self)

        monkeypatch.setattr(verifier, "q_pair", spy_q_pair)
        monkeypatch.setattr(verifier._Gains, "__init__", spy_init)
        for path, case in zip(paths, cases):
            calls.clear()
            built.clear()
            assert cli.main(["verify", path, "--samples", "50"]) in (0, 1)
            capsys.readouterr()
            judged = 2 if case["expect"] == "reject" else 1
            grams = sum(gains._s1 is not None and gains._s2 is not None for gains in built)
            assert (len(calls), len(built), grams) == (judged, judged, judged)
            # B and the verdict serve the walk and Monte Carlo of the result printed
            assert sum(gains._base is not None for gains in built) == 1
            assert sum(gains._formable is not None for gains in built) == 1
        assert {case["expect"] for case in cases} == {"accept", "truth", "reject"}

    @pytest.mark.parametrize("seed", [1, 2])
    def test_shared_arrays_give_the_values_of_routes_called_alone(self, seed, tmp_path):
        # certify hands one set of arrays from route to route; each route
        # called alone forms its own, and every row keeps its bits
        for result, problem, _ in verify_case_results(seed, tmp_path):
            rows = verifier.certify(result, problem, 200, seed)
            cert = lmi_certificate(result, problem, result.alpha)
            eps = petersen_certificate(result, problem)
            alone = [cert.lmi_min_eig, math.nan if eps is None else eps,
                     adversarial_x_search(result, problem),
                     monte_carlo_joint(result, problem, 200, seed)]
            shared = [math.nan if row.value is None else row.value for row in rows]
            assert rows[0].passed == cert.passed
            assert bits(shared) == bits(alone)

    def test_a_certificate_of_another_p_hat_is_not_reused(self):
        # a shrunk P_hat that keeps the solve's diagnostics is certified
        # anew: its own arrays judge every row, and each row fails
        problem = interior_problem()
        result = solve_ci(problem, Cost.DET)
        bad = dataclasses.replace(result, P_hat=psd_certify(0.5 * result.P_hat.data))
        assert bad.diagnostics["certificate"].passed
        assert not any(row.passed for row in verifier.certify(bad, problem, 100))


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
            fixed = adversarial_x_search(result, problem)
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
        fused_x=kc.K1 @ problem.est1.x_hat + kc.K2 @ problem.est2.x_hat,
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
    return (adversarial_x_search(result, problem),
            monte_carlo_joint(result, problem, samples, seed))


def bits(values) -> list[int]:
    return np.array(values, dtype=float).view(np.int64).tolist()


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
                if q1.any() and q2.any():
                    cases.append((shrink_result(result, self.SHRINK), problem))
        return cases

    def test_adversarial_search_flags_every_shrunk_solve(self):
        # sup over |X| <= 1 is attained at a rank-one X of norm one
        # (Petersen): the witness and 1000 such draws find every 1% shrink
        cases = self.shrunk_solves()
        for seed, (result, problem) in enumerate(cases):
            tol = certificate_tolerance(result)
            assert adversarial_x_search(result, problem) > tol, seed
            assert adversarial_sampling_oracle(result, problem, 1000, seed) > tol, seed

    def test_witness_search_is_newton_fast(self, monkeypatch):
        # the minimiser of f is smooth on these, so Newton steps reach it:
        # 260 eigh calls over the 40 solves, about 1030 by cuts and
        # bisection alone and 365 when a step had to halve the bracket
        cases = self.shrunk_solves()
        calls, eigh = [], np.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(None)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        for result, problem in cases:
            adversarial_x_search(result, problem)
        assert len(calls) <= 300

    def test_samplers_stay_below_the_scalar_bound(self):
        # every value of the scalar certificate bounds the supremum from
        # above, so a sampled value above the golden minimum would mean a
        # draw that is not a contraction; the witness lies above every draw
        for seed, (result, problem) in enumerate(self.shrunk_solves()):
            _, minimum = petersen_golden_oracle(result, problem)
            slack = 1e-12 * np.linalg.norm(result.P_hat.data, 2)
            witness, sampled = sequential(result, problem, 1000, seed)
            drawn = adversarial_sampling_oracle(result, problem, 1000, seed)
            for value in (witness, sampled, drawn):
                assert value <= minimum + slack, (seed, value, minimum)
            assert witness >= max(sampled, drawn) - slack, seed


class TestConcurrentCallers:
    """The samplers are pure functions: threads that share them get their sequential values."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_bitwise_equal_to_sequential_calls(self, n):
        # no stream or buffer outlives a call: the cases run again in reverse,
        # Monte Carlo before the adversarial search, give the same bits
        cases = sampled_cases(n)
        assert {result.alpha for result, _ in cases[-2:]} == {0.0, 1.0}
        expected = [bits(sequential(result, problem, 300, seed))
                    for seed, (result, problem) in enumerate(cases)]
        for seed in reversed(range(len(cases))):
            worst_mc = monte_carlo_joint(*cases[seed], 300, seed)
            worst_x = adversarial_x_search(*cases[seed])
            assert bits((worst_x, worst_mc)) == expected[seed]
        # the shrunk result is non-conservative, so both samplers flag it
        tol = certificate_tolerance(cases[2][0])
        assert min(sequential(*cases[2], 300, 2)) > tol

    def test_concurrent_callers_get_their_sequential_values(self):
        # more callers than CPUs, each running both samplers, switching often
        calls = [(*sampled_cases(n)[k], 400, 10 + n) for n, k in ((2, 0), (3, 2), (5, 3), (6, 4))]
        expected = [bits(sequential(*call)) for call in calls]
        before = threading.active_count()
        start = threading.Barrier(len(calls))
        got = [None] * len(calls)

        def caller(i):
            start.wait(timeout=60)
            got[i] = bits(sequential(*calls[i]))

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


def dense_samples(q1, q2, p_hat, a, b) -> np.ndarray:
    """``Q1 Q1' + Q2 Q2' - P_hat + C + C'``, ``C = Q1 a_s b_s' Q2'``, per column, densely."""
    stack = []
    for a_s, b_s in zip(a.T, b.T):
        cross = q1 @ np.outer(a_s, b_s) @ q2.T
        stack.append(q1 @ q1.T + q2 @ q2.T - p_hat + cross + cross.T)
    return np.array(stack)


def dense_worst(base, heads, c, d, tol=np.inf) -> float:
    """The kernel's value without its screen: ``eigvalsh`` over every head and sample.

    ``tol``, the kernel's decision level, does not enter the dense value.
    """
    stack = np.concatenate([heads, _sample_stack(base, c, d)])
    return float(np.linalg.eigvalsh(stack)[:, -1].max())


def tie_margin(base, value, c, d) -> float:
    """``rho = 2 delta``: ``delta = 64 (n + 2)^2 eps (|value| + s)``, ``s`` from the factors."""
    n = base.shape[0]
    s = n * (np.abs(base).max() + 2.0 * np.abs(c).max() * np.abs(d).max())
    return 2.0 * (64.0 * (n + 2) ** 2 * np.finfo(float).eps * (abs(value) + s))


def assert_within_margin(value, base, heads, c, d, tol=np.inf) -> None:
    """The kernel's contract: ``value <= dense < value + rho``, and ``tol`` decided alike.

    ``rho`` is 0 only where every factor and the value are 0, as at a dead
    gain of a scalar state; there the contract is ``dense == value``.
    """
    dense = dense_worst(base, heads, c, d)
    rho = tie_margin(base, value, c, d)
    assert (value <= dense < value + rho) if rho > 0.0 else dense == value
    assert (value <= tol) == (dense <= tol)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Arguments and results of each call of the three kernel functions."""
    calls = {"violation": [], "sample": [], "undecided": []}
    violation, sample = verifier._worst_violation, verifier._worst_sample
    undecided = verifier._undecided

    def spy_violation(*args):
        calls["violation"].append(args)
        return violation(*args)

    def spy_sample(*args):
        value = sample(*args)
        calls["sample"].append((args, value))
        return value

    def spy_undecided(*args):
        keep = undecided(*args)
        calls["undecided"].append((args, keep.copy()))
        return keep

    monkeypatch.setattr(verifier, "_worst_violation", spy_violation)
    monkeypatch.setattr(verifier, "_worst_sample", spy_sample)
    monkeypatch.setattr(verifier, "_undecided", spy_undecided)
    return calls


def assert_dense_oracle(calls) -> None:
    """Each kernel value keeps its dense contract; no dropped sample reaches its level.

    A kernel call screens once, on its own ``base``, unless a zero factor
    makes every sample ``base`` and ``base`` is a head, as at an endpoint
    weight; so the screens pair up in order with the calls that made them.
    """
    screens = iter(calls["undecided"])
    screen = next(screens, None)
    for args, value in calls["sample"]:
        assert_within_margin(value, *args)
        base, heads, c, d = args[:4]
        if screen is None or screen[0][0] is not base:
            assert not (c.any() and d.any()) and (heads == base).all(axis=(1, 2)).any()
            continue
        (base, level, c, d, *_), keep = screen
        tops = np.linalg.eigvalsh(_sample_stack(base, c, d))[:, -1]
        assert (tops[~keep] < level).all()
        screen = next(screens, None)
    assert screen is None


class TestWorstViolationKernel:
    SEEDS = (0, 1, 2, 3)
    COUNT = 50

    def cases(self):
        for seed in self.SEEDS:
            problem = random_problem(np.random.default_rng(100 + seed))
            result = solve_ci(problem, Cost.TRACE)
            yield seed, problem, result
            yield seed, problem, shrink_result(result, 0.9)

    def test_sampler_feeds_kernel_the_factored_joints(self, kernel_calls):
        # monte_carlo_joint hands the kernel the two aligned extremes as
        # factors (U, V), then (Q1, Q2) with the cross factors (r a, b) of
        # each drawn joint [[P1, L1 X L2'], [., P2]], X = r a b'
        for seed, problem, result in self.cases():
            for calls in kernel_calls.values():
                calls.clear()
            worst = monte_carlo_joint(result, problem, truth_samples=self.COUNT, seed=seed)
            (args,), ((sample_args, value),) = kernel_calls["violation"], kernel_calls["sample"]
            assert worst == value
            assert_within_margin(value, *sample_args)
            q1k, q2k, base_k, head_a, head_b, a, b, tol = args
            assert tol == certificate_tolerance(result)
            p_hat = result.P_hat.data
            a_draws, b_draws = monte_carlo_draws(problem, seed, self.COUNT)
            q1, q2 = q_pair(result, problem)
            # the kernel takes B = Q1 Q1' + Q2 Q2' - P_hat from its caller
            np.testing.assert_array_equal(base_k, q1 @ q1.T + q2 @ q2.T - p_hat)
            u, _, vt = np.linalg.svd(q1.T @ q2, full_matrices=False)
            extreme = u @ vt * (1.0 - 1e-6)
            np.testing.assert_array_equal(q1k, q1)
            np.testing.assert_array_equal(q2k, q2)
            assert head_a.shape == (2, problem.p1, min(problem.p1, problem.p2))
            np.testing.assert_allclose(head_a @ np.swapaxes(head_b, 1, 2),
                                       [extreme, -extreme], rtol=0.0, atol=1e-14)
            assert a.shape == (problem.p1, self.COUNT) and b.shape == (problem.p2, self.COUNT)
            # the cross factors are the drawn ones, on Q_i = K_i L_i
            np.testing.assert_allclose(a.T, a_draws, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(b.T, b_draws, rtol=1e-13, atol=0.0)
            scale = (np.abs(q1 @ q1.T).max() + np.abs(q2 @ q2.T).max()
                     + np.abs(p_hat).max())
            base, heads, c, d, _ = sample_args
            cross = q1 @ extreme @ q2.T
            dense_heads = [q1 @ q1.T + q2 @ q2.T - p_hat + t * (cross + cross.T)
                           for t in (1.0, -1.0)]
            np.testing.assert_allclose(heads, dense_heads, rtol=0.0, atol=1e-13 * scale)
            np.testing.assert_allclose(_sample_stack(base, c, d),
                                       dense_samples(q1, q2, p_hat, a, b),
                                       rtol=0.0, atol=1e-13 * scale)

    def test_matches_dense_joint_per_sample(self, kernel_calls):
        for seed, problem, result in self.cases():
            kernel_calls["sample"].clear()
            monte_carlo_joint(result, problem, truth_samples=self.COUNT, seed=seed)
            ((args, _),) = kernel_calls["sample"]
            mats = _sample_stack(args[0], args[2], args[3])
            p_hat = result.P_hat.data
            scale = np.linalg.norm(p_hat, 2)
            k = np.hstack([result.K1, result.K2])
            l1, l2 = problem.est1.p_chol, problem.est2.p_chol
            a, b = monte_carlo_draws(problem, seed, self.COUNT)
            for s in range(self.COUNT):
                x = np.outer(a[s], b[s])
                p12 = l1 @ x @ l2.T
                joint = np.block([[problem.est1.p_hat.data, p12],
                                  [p12.T, problem.est2.p_hat.data]])
                dense = np.linalg.eigvalsh(k @ joint @ k.T - p_hat)[-1]
                kernel = np.linalg.eigvalsh(mats[s])[-1]
                assert abs(kernel - dense) <= 1e-12 * scale
                assert np.linalg.eigvalsh(joint)[0] >= -1e-12 * np.linalg.norm(joint, 2)
                assert np.linalg.svd(x, compute_uv=False)[0] < 1.0

    @pytest.mark.parametrize("p1", range(1, 7))
    @pytest.mark.parametrize("p2", range(1, 7))
    def test_cross_draws_are_rank_one_contractions(self, kernel_calls, p1, p2):
        # both samplers draw X = a b' from unit Gaussian directions, rebuilt
        # here from the raw stream: spectral norm one for the adversarial
        # search; Monte Carlo folds its radius r, drawn after a and b, into
        # a and hands the kernel (r a, b)
        eps, count, seed = np.finfo(float).eps, 200, p1 * 10 + p2
        problem = random_problem(np.random.default_rng(seed), max(p1, p2), p1, p2)
        result = solve_ci(problem, Cost.TRACE)
        adversarial_sampling_oracle(result, problem, count, seed)
        monte_carlo_joint(result, problem, truth_samples=count, seed=seed)
        adv, mc = kernel_calls["violation"]
        k = min(p1, p2)
        for args, count_heads in ((adv, 3), (mc, 2)):
            assert args[3].shape == (count_heads, p1, k) and args[4].shape == (count_heads, p2, k)
        a_adv, b_adv = adv[5].T, adv[6].T
        a_mc, b_mc = mc[5].T, mc[6].T
        for f, p in ((a_adv, p1), (b_adv, p2), (a_mc, p1), (b_mc, p2)):
            assert f.shape == (count, p)
        unit_a, unit_b = rank_one_draws(np.random.default_rng(seed), count, p1, p2)
        np.testing.assert_allclose(a_adv, unit_a, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(b_adv, unit_b, rtol=1e-13, atol=0.0)
        rng = monte_carlo_rng(seed)
        unit_a, unit_b = rank_one_draws(rng, count, p1, p2)
        radii = rng.uniform(size=count) * (1.0 - 1e-12)
        np.testing.assert_allclose(a_mc, unit_a * radii[:, None], rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(b_mc, unit_b, rtol=1e-13, atol=0.0)
        assert (np.abs(np.linalg.norm(a_mc, axis=1) - radii) <= 4.0 * eps * radii).all()
        for f in (a_adv, b_adv, b_mc):
            assert (np.abs(np.linalg.norm(f, axis=1) - 1.0) <= 4.0 * eps).all()
        # |X| = |r a| |b| < 1, so every sampled joint is positive definite
        assert (np.linalg.norm(a_mc, axis=1) * np.linalg.norm(b_mc, axis=1) < 1.0).all()

    def test_samplers_first_draws_differ_for_one_seed(self, monkeypatch):
        # the two sampling routes are reported side by side as independent:
        # Monte Carlo's first draws, its cross directions a and b from the
        # spawned stream, must not repeat the adversarial search's
        draws = []

        def recorded(rng, count, p1, p2, _draw=verifier._draw_cross):
            pair = _draw(rng, count, p1, p2)
            draws.append(tuple(x.copy() for x in pair))  # Monte Carlo scales a in place
            return pair

        monkeypatch.setattr(verifier, "_draw_cross", recorded)
        problem = random_problem(np.random.default_rng(31), 4, 2, 3)
        result = solve_ci(problem, Cost.DET)
        for seed in (0, 1, 7, 2**40):
            draws.clear()
            adversarial_sampling_oracle(result, problem, 50, seed)
            monte_carlo_joint(result, problem, truth_samples=50, seed=seed)
            (a, b), (a_mc, b_mc) = draws
            assert a.shape == a_mc.shape and b.shape == b_mc.shape
            assert (a != a_mc).all() and (b != b_mc).all()
            # each stream is the one its sampler documents
            want_a, want_b = rank_one_draws(np.random.default_rng(seed), 50, 2, 3)
            want_a_mc, want_b_mc = rank_one_draws(monte_carlo_rng(seed), 50, 2, 3)
            for got, want in ((a, want_a), (b, want_b), (a_mc, want_a_mc), (b_mc, want_b_mc)):
                np.testing.assert_allclose(got.T, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("p1", range(1, 7))
    @pytest.mark.parametrize("p2", range(1, 7))
    def test_sampled_joints_are_admissible_with_full_prior_blocks(self, kernel_calls, p1, p2):
        # each Monte Carlo sample is K P K' - P_hat on the joint
        # [[P1, L1 X L2'], [., P2]], X = r a b' drawn from the documented
        # stream: positive semidefinite, as |X| < 1, and, CI being
        # conservative against every such joint, below the row's tolerance
        count, seed = 200, 500 + p1 * 10 + p2
        problem = random_problem(np.random.default_rng(seed), max(p1, p2), p1, p2)
        result = solve_ci(problem, Cost.TRACE)
        worst = monte_carlo_joint(result, problem, truth_samples=count, seed=seed)
        (((base, heads, c, d, tol), value),) = kernel_calls["sample"]
        assert worst == value
        assert_within_margin(value, base, heads, c, d, tol)
        p1_hat, p2_hat = problem.est1.p_hat.data, problem.est2.p_hat.data
        l1, l2 = problem.est1.p_chol, problem.est2.p_chol
        k = np.hstack([result.K1, result.K2])
        p_hat = result.P_hat.data
        a, b = monte_carlo_draws(problem, seed, count)
        p12 = l1 @ (a[:, :, None] * b[:, None, :]) @ l2.T
        joints = np.block([[np.broadcast_to(p1_hat, (count, p1, p1)), p12],
                           [np.swapaxes(p12, 1, 2), np.broadcast_to(p2_hat, (count, p2, p2))]])
        norms = np.linalg.norm(joints, 2, axis=(1, 2))
        assert (np.linalg.eigvalsh(joints)[:, 0] >= -1e-12 * norms).all()
        dense = k @ joints @ k.T - p_hat
        scale = np.abs(k @ joints @ k.T).max() + np.abs(p_hat).max()
        np.testing.assert_allclose(_sample_stack(base, c, d), dense, rtol=0.0,
                                   atol=1e-13 * scale)
        assert worst <= certificate_tolerance(result)

    @pytest.mark.parametrize("p1, p2", [(1, 1), (2, 3), (4, 1), (5, 5)])
    def test_monte_carlo_reads_one_normal_per_cross_entry_and_one_uniform_per_sample(
            self, monkeypatch, p1, p2):
        # each sample costs p1 + p2 normals and one uniform: the generator
        # ends where one that drew exactly that budget ends
        generators = []

        def recorded(rng, *args, _draw=verifier._draw_cross):
            generators.append(rng)
            return _draw(rng, *args)

        monkeypatch.setattr(verifier, "_draw_cross", recorded)
        count, seed = 300, 40 + p1 * 10 + p2
        problem = random_problem(np.random.default_rng(seed), max(p1, p2), p1, p2)
        monte_carlo_joint(solve_ci(problem, Cost.TRACE), problem, truth_samples=count, seed=seed)
        rng = generators[0]
        assert all(g is rng for g in generators)
        budget = monte_carlo_rng(seed)
        budget.standard_normal(count * (p1 + p2))
        budget.uniform(size=count)
        assert rng.bit_generator.state == budget.bit_generator.state


def strided(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` as a view that is contiguous along no axis."""
    buf = np.zeros(tuple(2 * d for d in a.shape))
    view = buf[tuple(slice(None, None, 2) for _ in a.shape)]
    view[...] = a
    return view


class TestSampleLastSampler:
    @pytest.mark.parametrize("n, p1, p2", [(1, 1, 1), (1, 2, 3), (3, 1, 2), (4, 3, 1), (5, 3, 3), (6, 4, 6)])
    @pytest.mark.parametrize("layout", ["c_order", "f_order", "strided"])
    def test_sample_stack_matches_per_sample_products(self, n, p1, p2, layout):
        # the drawn samples from their n x S factor columns, against dense
        # products per sample; in any memory layout, and for any subset of
        # the columns, each sample is the same bits
        rng = np.random.default_rng(n * 100 + p1 * 10 + p2)
        count = 30
        g1 = rng.standard_normal((n, p1))
        g2 = rng.standard_normal((n, p2))
        a, b = _draw_cross(rng, count, p1, p2)
        p_hat = random_spd(rng, n)
        base = g1 @ g1.T + g2 @ g2.T - p_hat
        c, d = g1 @ a, g2 @ b
        relayout = {"c_order": np.ascontiguousarray, "f_order": np.asfortranarray,
                    "strided": strided}[layout]
        want = _sample_stack(base, c, d)
        stack = _sample_stack(base, relayout(c), relayout(d))
        assert stack.shape == (count, n, n)
        assert bits(stack.ravel()) == bits(want.ravel())
        subset = rng.permutation(count)[: count // 3]
        part = _sample_stack(base, c[:, subset], d[:, subset])
        assert bits(part.ravel()) == bits(want[subset].ravel())
        dense = dense_samples(g1, g2, p_hat, a, b)
        for s in range(count):
            cross = g1 @ np.outer(a[:, s], b[:, s]) @ g2.T
            scale = (np.abs(g1 @ g1.T).max() + np.abs(g2 @ g2.T).max() + np.abs(p_hat).max()
                     + 2.0 * np.abs(cross).max())
            np.testing.assert_allclose(stack[s], dense[s], rtol=0.0, atol=1e-13 * scale)

    @pytest.mark.parametrize("n, p1, p2", [(1, 1, 1), (3, 1, 2), (4, 3, 3), (6, 4, 6)])
    def test_heads_match_dense_products(self, kernel_calls, n, p1, p2):
        # the fixed heads take cross factors of k = min(p1, p2) columns
        rng = np.random.default_rng(n * 100 + p1 * 10 + p2)
        q1, q2 = rng.standard_normal((n, p1)), rng.standard_normal((n, p2))
        p_hat = random_spd(rng, n)
        k = min(p1, p2)
        head_a, head_b = rng.standard_normal((4, p1, k)), rng.standard_normal((4, p2, k))
        a, b = _draw_cross(rng, 20, p1, p2)
        base = q1 @ q1.T + q2 @ q2.T - p_hat
        value = verifier._worst_violation(q1, q2, base, head_a, head_b, a, b)
        ((args, got),) = kernel_calls["sample"]
        assert value == got
        assert_within_margin(value, *args)
        for head, x_a, x_b in zip(args[1], head_a, head_b):
            cross = q1 @ x_a @ x_b.T @ q2.T
            want = q1 @ q1.T + q2 @ q2.T - p_hat + cross + cross.T
            np.testing.assert_allclose(head, want, rtol=0.0, atol=1e-13 * np.abs(want).max())

    def test_samplers_hand_the_kernel_sample_last_factor_arrays(self, kernel_calls):
        problem = random_problem(np.random.default_rng(31))
        result = solve_ci(problem, Cost.TRACE)
        adversarial_sampling_oracle(result, problem, 20, 3)
        monte_carlo_joint(result, problem, truth_samples=20, seed=3)
        adv, mc = kernel_calls["violation"]
        assert len(adv[3]) == 3 and len(mc[3]) == 2
        for args in (adv, mc):
            assert len(args) == 8
            assert all(m.ndim == 2 for m in args[:3]) and args[3].ndim == args[4].ndim == 3
            assert args[5].shape == (problem.p1, 20) and args[6].shape == (problem.p2, 20)
        for (_, _, c, d, _), _ in kernel_calls["sample"]:
            for factor in (c, d):
                assert factor.shape == (problem.n, 20) and factor.flags.c_contiguous


def symmetric_stack(rng, count: int, n: int) -> np.ndarray:
    a = rng.standard_normal((count, n, n))
    return a + np.swapaxes(a, 1, 2)


def random_factors(rng, n: int, count: int):
    """``base``, ``c`` and ``d`` of random samples."""
    base = -random_spd(rng, n)
    c, d = rng.standard_normal((2, n, count))
    return base, c, d


def near_tie_factors(rng, n: int, count: int):
    """Samples ``-I + (1 + 2 e) v v'``, unit ``v``: largest eigenvalues 0 up to 1e-15."""
    v = rng.standard_normal((n, count))
    v /= np.linalg.norm(v, axis=0)
    c = v * np.sqrt(0.5 * (1.0 + 1e-15 * rng.standard_normal(count)))
    return -np.eye(n), c, c.copy()


class TestScreenedKernel:
    """The screened maximum lies less than ``rho`` below the dense ``eigvalsh`` maximum."""

    @pytest.mark.parametrize("n", range(1, 21))
    def test_within_the_margin_of_unscreened(self, n):
        rng = np.random.default_rng(500 + n)
        count = 300
        p1, p2 = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
        a, b = _draw_cross(rng, count, p1, p2)
        q1, q2 = rng.standard_normal((n, p1)), rng.standard_normal((n, p2))
        p_hat = random_spd(rng, n)
        heads = symmetric_stack(rng, 3, n)
        # a small and a large P_hat: violations mostly positive, then negative
        for scale in (0.1, 10.0 * n):
            base = q1 @ q1.T + q2 @ q2.T - scale * p_hat
            args = (base, heads, q1 @ a, q2 @ b)
            assert_within_margin(_worst_sample(*args), *args)
        base, c, d = random_factors(rng, n, count)
        assert_within_margin(_worst_sample(base, heads, c, d), base, heads, c, d)

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_exact_ties(self, n):
        rng = np.random.default_rng(600 + n)
        base, c, d = random_factors(rng, n, 1)
        c, d = np.repeat(c, 200, axis=1), np.repeat(d, 200, axis=1)
        heads = base[None]
        # every sample is one matrix, so the value is exact
        value = _worst_sample(base, heads, c, d)
        assert value == dense_worst(base, heads, c, d)
        assert _undecided(base, value, c, d).all()
        # Q1 = 0 makes every adversarial sample the same matrix
        q2 = rng.standard_normal((n, 3))
        _, b = _draw_cross(rng, 200, 2, 3)
        base = q2 @ q2.T - random_spd(rng, n)
        c, d = np.zeros((n, 200)), q2 @ b
        assert _worst_sample(base, heads, c, d) == dense_worst(base, heads, c, d)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 15])
    def test_near_ties(self, n):
        base, c, d = near_tie_factors(np.random.default_rng(700 + n), n, 300)
        heads = _sample_stack(base, c[:, :1], d[:, :1])
        assert_within_margin(_worst_sample(base, heads, c, d), base, heads, c, d)

    @pytest.mark.parametrize("position", [0, 97, 199])
    def test_maximum_outside_the_ranked_candidates(self, position):
        # decoys are I + 2 c c'; the maximum I + 2 (e1 e2' + e2 e1'), with
        # a unit diagonal, lies far above the head I and every decoy
        rng = np.random.default_rng(800 + position)
        n = 4
        c = 0.1 * rng.standard_normal((n, 200))
        d = c.copy()
        c[:, position], d[:, position] = 2.0 * np.eye(n)[0], np.eye(n)[1]
        base = np.eye(n)
        heads = base[None]
        hidden = _sample_stack(base, c[:, [position]], d[:, [position]])[0]
        value = _worst_sample(base, heads, c, d)
        # the hidden maximum is far above every decoy: it is decomposed
        assert value == np.linalg.eigvalsh(hidden)[-1]
        assert_within_margin(value, base, heads, c, d)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 20])
    def test_screen_keeps_every_sample_reaching_the_threshold(self, n):
        # thresholds at the samples' own eigvalsh values: a sample at or
        # above the threshold is never dropped; once the threshold clears
        # base's largest eigenvalue, every sample clearly below it is
        rng = np.random.default_rng(900 + n)
        for base, c, d in (random_factors(rng, n, 400), near_tie_factors(rng, n, 400)):
            tops = np.linalg.eigvalsh(_sample_stack(base, c, d))[:, -1]
            s = verifier._sample_scale(base, c, d)
            scale = np.abs(tops).max() + n * np.abs(base).max()
            top_base = np.linalg.eigvalsh(base)[-1]
            for level in np.sort(tops)[::-37]:
                keep = _undecided(base, level, c, d, s)
                assert keep[tops >= level].all()
                if level > top_base + 0.05 * scale:
                    assert not keep[tops < level - 1e-9 * scale].any()

    def test_nan_or_infinite_test_value_keeps_its_sample(self):
        cc = np.array([1e-2, np.nan, np.inf, 1e-2, 1e-2, 1e-2])
        dd = np.array([1e-2, 1e-2, 1e-2, 1e-2, np.nan, 1e-2])
        cd = np.array([0.0, 0.0, 0.0, -np.inf, 0.0, np.inf])
        h = 2.0 * np.sqrt(cc) * np.sqrt(dd)
        assert verifier._proved_below(cd, h, 3).tolist() == [True] + [False] * 5


def tied_factors(rng, factors, counts):
    """The columns of each ``(c, d)`` pair repeated ``counts`` times, in random order."""
    c = np.repeat(np.concatenate([f[0] for f in factors], axis=1), counts, axis=1)
    d = np.repeat(np.concatenate([f[1] for f in factors], axis=1), counts, axis=1)
    order = rng.permutation(c.shape[1])
    return c[:, order], d[:, order]


@pytest.fixture
def kernel_batches(monkeypatch):
    """Sizes of the batches that ``_worst_sample`` hands to ``eigvalsh``."""
    sizes, inside = [], []
    eigvalsh, kernel = np.linalg.eigvalsh, verifier._worst_sample

    def counted(a, *args, **kwargs):
        if inside:
            sizes.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    def traced(*args):
        inside.append(True)
        try:
            return kernel(*args)
        finally:
            inside.clear()

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(verifier, "_worst_sample", traced)
    return sizes


class TestTiedStacks:
    """Copies of the head that sets the threshold are not decomposed again."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_within_the_margin_of_unscreened(self, n):
        rng = np.random.default_rng(1000 + n)
        counts = [200, 300, 250]
        base, c, d = random_factors(rng, n, 3)
        tie_base, tie_c, tie_d = near_tie_factors(rng, n, 3)
        # the head is the first tied matrix, which need not set the maximum
        for b, factors in ((base, (c, d)), (tie_base, (tie_c, tie_d))):
            heads = _sample_stack(b, *(x[:, :1] for x in factors))
            cs, ds = tied_factors(rng, [factors], counts)
            assert_within_margin(_worst_sample(b, heads, cs, ds), b, heads, cs, ds)
        # a hidden maximum among two decoys, with the first decoy as the head
        decoys = 0.1 * rng.standard_normal((n, 2))
        hidden_c = 2.0 * np.eye(n)[:, :1]
        hidden_d = np.eye(n)[:, 1:2] if n > 1 else np.zeros((1, 1))
        cs, ds = tied_factors(rng, [(decoys, decoys), (hidden_c, hidden_d)], counts)
        base = np.eye(n)
        heads = _sample_stack(base, decoys[:, :1], decoys[:, :1])
        assert_within_margin(_worst_sample(base, heads, cs, ds), base, heads, cs, ds)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_decomposes_only_the_head_among_its_copies(self, n, kernel_batches):
        rng = np.random.default_rng(1100 + n)
        base = 0.1 * symmetric_stack(rng, 1, n)[0]
        u = np.eye(n)[:, :1]
        # shifts 0, 5 and 10 along e1, the head at shift 10; two distinct
        # near-copies of the head, a relative 1e-13 and 2e-13 lower, lie
        # within the margin below the threshold, so the screen drops them
        # with the copies
        shift = np.sqrt(np.array([0.0, 2.5, 5.0, 5.0 * (1 - 1e-13), 5.0 * (1 - 2e-13)]))
        heads = _sample_stack(base, u * shift[2], u * shift[2])
        c, d = tied_factors(rng, [(u * shift, u * shift)], [300, 300, 300, 1, 1])
        assert_within_margin(verifier._worst_sample(base, heads, c, d), base, heads, c, d)
        assert kernel_batches == [1]
        # 500 copies of one sample, its own matrix as the head
        kernel_batches.clear()
        c, d = np.repeat(c[:, :1], 500, axis=1), np.repeat(d[:, :1], 500, axis=1)
        heads = _sample_stack(base, c[:, :1], d[:, :1])
        assert verifier._worst_sample(base, heads, c, d) == dense_worst(base, heads, c, d)
        assert sum(kernel_batches) == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_endpoint_adversarial_search_decomposes_only_the_heads(self, n, kernel_batches):
        # alpha = 1 makes K2 = 0, so every adversarial sample is Q1 Q1' - P_hat,
        # bitwise the X = 0 head
        problem = dominated_problem(np.random.default_rng(1200 + n), n, True)
        result = solve_ci(problem, Cost.DET)
        assert result.alpha == 1.0 and not result.K2.any()
        adversarial_sampling_oracle(result, problem, 1000, n)
        assert sum(kernel_batches) <= 3

    def test_near_copy_above_the_copies_leaves_them_to_the_screen(self, kernel_batches):
        # 300 copies of one sample and a distinct near-copy, its c one ulp
        # longer, which is also the head: its computed largest eigenvalue is
        # above the copies', so it sets the threshold.  A screen at the
        # threshold itself keeps every sample; one a margin above it drops
        # them all
        n = 8
        rng = np.random.default_rng(1902)
        base, c, d = random_factors(rng, n, 1)
        near = c * (1.0 + 2.0**-52)
        copy_top, near_top = (np.linalg.eigvalsh(_sample_stack(base, x, d))[0, -1]
                              for x in (c, near))
        assert near_top > copy_top
        cs, ds = tied_factors(rng, [(c, d), (near, d)], [300, 1])
        heads = _sample_stack(base, near, d)
        assert _undecided(base, near_top, cs, ds).sum() == 301
        kernel_batches.clear()
        value = verifier._worst_sample(base, heads, cs, ds)
        assert sum(kernel_batches) == 1
        assert value == near_top
        assert_within_margin(value, base, heads, cs, ds)


class TestTieGeometries:
    """The two geometries whose samples all tie at rounding level cost the heads only.

    A square pair at an interior weight puts every adversarial sample at
    zero (:class:`TestSquarePair`).  At an endpoint weight one gain block is
    zero, so ``base`` is ``Q Q' - P_hat``, zero up to rounding, and every
    Monte Carlo sample is ``base`` itself, a copy of each head.
    """

    @staticmethod
    def assert_ties_decided_by_the_heads(kernel_calls, kernel_batches, heads):
        ((args, value),) = kernel_calls["sample"]
        base, _, c, d, tol = args
        tops = np.linalg.eigvalsh(_sample_stack(base, c, d))[:, -1]
        # the samples tie far inside the margin
        assert np.ptp(tops) < 0.01 * tie_margin(base, 0.0, c, d)
        assert sum(kernel_batches) <= heads
        assert_within_margin(value, *args)
        assert value <= tol

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_square_pair_adversarial_search(self, n, kernel_calls, kernel_batches):
        problem = random_problem(np.random.default_rng(1600 + n), n, n // 2, n - n // 2)
        result = solve_ci(problem, Cost.DET)
        assert 0.0 < result.alpha < 1.0
        adversarial_sampling_oracle(result, problem, 1000, n)
        self.assert_ties_decided_by_the_heads(kernel_calls, kernel_batches, 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_endpoint_monte_carlo(self, n, kernel_calls, kernel_batches):
        problem = dominated_problem(np.random.default_rng(1700 + n), n, True)
        result = solve_ci(problem, Cost.DET)
        assert result.alpha == 1.0 and not result.K2.any()
        monte_carlo_joint(result, problem, truth_samples=1000, seed=n)
        self.assert_ties_decided_by_the_heads(kernel_calls, kernel_batches, 2)


class TestExactVerdict:
    """A decision level within the margin above the threshold takes the dense value."""

    @pytest.mark.parametrize("n, seed", [(6, 1806), (8, 1809), (15, 1815)])
    def test_decision_level_inside_the_margin(self, n, seed):
        base, c, d = near_tie_factors(np.random.default_rng(seed), n, 300)
        # the head is the tie with the lowest value, below the dense maximum
        low = np.linalg.eigvalsh(_sample_stack(base, c, d))[:, -1].argmin()
        heads = _sample_stack(base, c[:, [low]], d[:, [low]])
        dense = dense_worst(base, heads, c, d)
        # with no decision level, the screen drops the dense maximum
        v = _worst_sample(base, heads, c, d)
        assert v < dense
        # a level of v + rho / 4 is factored about rho / 4 below v, where
        # no tie is dropped, so every sample is decomposed
        value = _worst_sample(base, heads, c, d, v + 0.25 * tie_margin(base, v, c, d))
        assert bits([value]) == bits([dense])
        for tol in (np.nextafter(dense, -np.inf), dense, np.nextafter(dense, np.inf)):
            value = _worst_sample(base, heads, c, d, tol)
            assert (value <= tol) == (dense <= tol)
            assert_within_margin(value, base, heads, c, d, tol)


class TestEndpointMonteCarlo:
    """At an endpoint weight a gain block is exactly zero, so every sample is ``base``."""

    def test_zero_gain_block_decomposes_only_the_heads(self, monkeypatch, kernel_calls):
        # 600 dominated DET solves; on a base that is pure rounding the
        # screen's kappa test can fail, and it would keep all 1000 samples
        eigvalsh = np.linalg.eigvalsh
        shapes = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
        screen_keeps = 0
        for n in range(2, 7):
            for s in range(60):
                for first in (True, False):
                    problem = dominated_problem(np.random.default_rng(5000 + n + 100 * s), n, first)
                    result = solve_ci(problem, Cost.DET)
                    assert result.alpha == (1.0 if first else 0.0)
                    shapes.clear()
                    value = monte_carlo_joint(result, problem, 1000, 0)
                    assert shapes == [(2, n, n)]
                    (base, heads, c, d, tol), got = kernel_calls["sample"].pop()
                    assert got == value and kernel_calls["undecided"] == []
                    assert not (c.any() and d.any())
                    assert (heads == base).all() and value == float(eigvalsh(base)[-1])
                    # the screen that the kernel no longer runs here
                    scale = verifier._sample_scale(base, c, d)
                    ceiling = value + 2.0 * rounding_allowance(n, abs(value) + scale)
                    if value <= tol:
                        ceiling = min(ceiling, tol)
                    if verifier._undecided(base, ceiling, c, d, scale).any():
                        screen_keeps += 1
                        assert value == dense_worst(base, heads, c, d)
                    kernel_calls["undecided"].clear()
        assert screen_keeps > 0

    def test_zero_factor_with_base_not_a_head_is_still_sampled(self):
        # every sample is base, which lies above both heads here, so the
        # value must be base's own and not the heads'
        rng = np.random.default_rng(47)
        n = 4
        base = random_spd(rng, n)
        heads = np.stack([base - np.eye(n), base - 2.0 * np.eye(n)])
        c, d = np.zeros((n, 50)), rng.standard_normal((n, 50))
        value = _worst_sample(base, heads, c, d)
        assert value == float(np.linalg.eigvalsh(base)[-1])
        assert_within_margin(value, base, heads, c, d)


class TestDenseOracle:
    """Monte Carlo and the sampling oracle against the unscreened kernel, n = 1..8."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_samplers_match_the_dense_oracle(self, n, kernel_calls):
        # solved, shrunk, truth and endpoint results, and a square pair
        # (p1 + p2 = n at the CI weight), where every adversarial sample
        # ties with the others up to rounding
        cases = sampled_cases(n)
        if n > 1:
            square = random_problem(np.random.default_rng(1400 + n), n, n // 2, n - n // 2)
            cases.append((solve_ci(square, Cost.DET), square))
        for seed, (result, problem) in enumerate(cases):
            adversarial_sampling_oracle(result, problem, 300, seed)
            monte_carlo_joint(result, problem, 300, seed)
        assert len(kernel_calls["sample"]) == 2 * len(cases)
        assert_dense_oracle(kernel_calls)


def problem_doc(problem) -> dict:
    return {"n": problem.n, **{key: {"H": est.h.tolist(), "x_hat": est.x_hat.tolist(),
                                     "P_hat": est.p_hat.data.tolist()}
                               for key, est in (("est1", problem.est1), ("est2", problem.est2))}}


class TestSquarePair:
    """p1 + p2 = n at an interior CI weight: every adversarial sample is at zero violation.

    With ``Q = [Q1 Q2]`` square and invertible, ``base = -Q diag((1-a)/a I, a/(1-a) I) Q'``
    and each rank-one draw adds a term that makes the middle block singular
    and negative semidefinite, so its largest eigenvalue is zero for every
    unit ``a``, ``b``.  Every sample ties with the threshold at rounding
    level, and the screen, one margin above the threshold, drops them all.
    """

    def cases(self):
        # the paper's Example 1: H1 = [1, 0], H2 = [0, 1], unit covariances
        yield interior_problem()
        yield random_problem(np.random.default_rng(2023), 6, 3, 3)

    @pytest.mark.parametrize("case", [0, 1])
    def test_every_adversarial_sample_sits_at_zero(self, case, kernel_calls, tmp_path, capsys):
        problem = list(self.cases())[case]
        result = solve_ci(problem, Cost.DET)
        assert 0.0 < result.alpha < 1.0 and problem.p1 + problem.p2 == problem.n
        band = 1e-13 * np.linalg.norm(result.P_hat.data, 2)
        drawn = adversarial_sampling_oracle(result, problem, 1000, case)
        worst_x, worst_mc = sequential(result, problem, 1000, case)
        adv, _ = kernel_calls["violation"]
        q1, q2, _, _, _, a, b, _ = adv
        tops = np.linalg.eigvalsh(dense_samples(q1, q2, result.P_hat.data, a, b))[:, -1]
        assert np.abs(tops).max() <= band
        assert abs(worst_x) <= band and abs(drawn) <= band
        # Monte Carlo's joints lie below the adversarial ones: at most zero
        assert -1e-5 * np.linalg.norm(result.P_hat.data, 2) <= worst_mc <= band
        (_, keep), _ = kernel_calls["undecided"]
        assert not keep.any()
        assert_dense_oracle(kernel_calls)
        path = tmp_path / "square.json"
        path.write_text(json.dumps(problem_doc(problem)))
        assert cli.main(["verify", str(path), "--samples", "1000", "--seed", str(case)]) == 0
        assert capsys.readouterr().out.endswith("verdict: all certificates pass\n")


class TestExtremeScales:
    """A CI result and its problem in state units that scale ``P_hat`` by 1e+-150.

    ``H_i -> t H_i`` maps a result to ``K_i / t`` and ``P_hat / t^2`` (the
    prior covariances cannot carry the scale: below unit magnitude their
    strictness test is absolute, ROADMAP item 3).
    """

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_samplers_match_the_dense_oracle(self, scale, kernel_calls):
        rng = np.random.default_rng(1500)
        t = scale ** -0.5
        for _ in range(4):
            problem = random_problem(rng, 5)
            result = solve_ci(problem, Cost.DET)
            scaled = FusionProblem(*(PartialEstimate(t * est.h, est.x_hat, est.p_hat)
                                     for est in (problem.est1, problem.est2)))
            for shrink in (1.0, 0.9):
                scaled_result = FusionResult(
                    alpha=result.alpha, K1=result.K1 / t, K2=result.K2 / t,
                    P_hat=psd_certify(shrink * scale * result.P_hat.data),
                    fused_x=result.fused_x / t)
                # pytest turns any RuntimeWarning into an error here
                drawn = adversarial_sampling_oracle(scaled_result, scaled, 300, 7)
                worst_x, _ = sequential(scaled_result, scaled, 300, 7)
                # gain blocks of about 1e+-75 are live at either scale, and
                # the witness stays at or above every sampled value
                assert drawn - 1e-13 * scale <= worst_x
                assert worst_x > 0.0 if shrink < 1.0 else worst_x <= 1e-13 * scale
                if scale > 1.0:  # below unit scale the tolerance is absolute (item 3)
                    assert (worst_x > certificate_tolerance(scaled_result)) == (shrink < 1.0)
        assert_dense_oracle(kernel_calls)
        assert all(np.isfinite(value) for _, value in kernel_calls["sample"])


class TestUnitEquivariance:
    """``H_i -> 2^j H_i`` maps a result to ``K_i / 2^j`` and ``P_hat / 4^j``: exact powers of two."""

    @pytest.mark.parametrize("j", [-250, -125, 0, 125, 250])
    def test_witness_scales_with_the_covariance_unit(self, j):
        # solved and 0.9-shrunk DET results, interior ones with both gain
        # blocks live and endpoint ones with an exactly zero block
        rng = np.random.default_rng(3900)
        problems = [random_problem(rng, 5) for _ in range(4)] + [
            example2_problem(), dominated_problem(rng, 3, True), dominated_problem(rng, 4, False)]
        live = 0
        for problem in problems:
            scaled_problem = FusionProblem(*(PartialEstimate(2.0**j * est.h, est.x_hat, est.p_hat)
                                             for est in (problem.est1, problem.est2)))
            solved = solve_ci(problem, Cost.DET)
            live += bool(solved.K1.any() and solved.K2.any())
            for result in (solved, dataclasses.replace(
                    solved, P_hat=psd_certify(0.9 * solved.P_hat.data))):
                scaled = dataclasses.replace(
                    result, K1=2.0**-j * result.K1, K2=2.0**-j * result.K2,
                    P_hat=psd_certify(4.0**-j * result.P_hat.data),
                    fused_x=2.0**-j * result.fused_x)
                value = adversarial_x_search(result, problem)
                assert abs(4.0**j * adversarial_x_search(scaled, scaled_problem) - value) \
                    <= 1e-10 * np.abs(result.P_hat.data).max(), (j, result.alpha)
        assert live >= 3 and len(problems) - live >= 3


class TestCertificateEquivalence:
    def test_three_routes_agree(self):
        # scalar certificate <=> block certificate <=> direct split bound,
        # on 200 seeded results mixing conservative solutions and mutants,
        # those with a zero gain block included
        rng = np.random.default_rng(9)
        cases = []
        for problem in well_scaled_problems(rng, 100):
            result = solve_ci(problem, Cost.TRACE)
            cases.append((result, problem))
            cases.append((shrink_result(result, 0.9), problem))
        zero_gain = 0
        for result, problem in cases:
            q1, q2 = q_pair(result, problem)
            zero_gain += not (q1.any() and q2.any())
            tol = certificate_tolerance(result)
            lmi_ok = lmi_certificate(result, problem, result.alpha).passed
            eps = petersen_certificate(result, problem)
            petersen_ok = eps is not None
            # direct split bound, evaluated at the candidate weights (the
            # feasible weight is unique, so a blind grid would miss it); a
            # zero gain block drops out, and eps = inf is the weight 0
            candidates = [result.alpha] if 0.0 < result.alpha < 1.0 else []
            if eps is not None:
                candidates.append(1.0 / (1.0 + eps))
            direct_ok = False
            for a in candidates:
                m = result.P_hat.data.copy()
                for q, t in ((q1, a), (q2, 1.0 - a)):
                    if q.any():
                        m -= q @ q.T / t
                if np.linalg.eigvalsh(m)[0] >= -tol:
                    direct_ok = True
                    break
            assert lmi_ok == petersen_ok == direct_ok
            if petersen_ok and 0.0 < result.alpha < 1.0:
                tau = 1.0 / result.alpha - 1.0
                assert petersen_objective(result, problem, tau) <= tol
        assert zero_gain >= 40

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
