"""The one-parameter fusion family and optimal weight selection.

The family blends the two information matrices,
``Sigma_alpha = alpha * Sigma1 + (1 - alpha) * Sigma0``, and fuses with
``P_hat = Sigma_alpha^{-1}``.  A solve runs on one joint diagonalisation
(:class:`~cifusion.problem.JointSpectrum`: a Cholesky factor of the mean
information matrix, its inverse and one ``eigh``), in which the fused
covariance, its determinant and its trace are explicit functions of
``t = alpha - 1/2`` with monotone slopes.  A slope test at each
nonsingular endpoint, else a safeguarded Newton root, gives the optimum;
the determinant slope has the sign of
``-Delta(alpha) = -trace(adj(Sigma_alpha) (Sigma1 - Sigma0))``.  The same
spectrum then gives the family member: its dominance table, its
singularity test, ``P_hat`` and the cost, so the only further spectral
call is the PSD certification of ``P_hat``.  Because ``P_hat`` is formed
from the spectrum rather than by inverting the blend, fused outputs can
differ in their last digits from an explicit inverse.

The spectrum belongs to the pair, not to the cost, so the problem builds it
once and keeps it (:attr:`FusionProblem.spectrum`), and it lives in
:mod:`cifusion.problem` with :class:`Cost`, whose values it evaluates.  A
caller that solves a problem again, under either cost, or applies several
family members to it gains from that; a single solve of a new problem, as
one ``cifusion fuse`` makes, builds it as part of that solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import verifier
from .errors import (
    InternalInconsistencyError,
    InvalidFamilyParameterError,
    NotPsdError,
    OutOfRangeError,
    SingularSigmaError,
)
from .linalg import SINGULAR_RTOL, LoewnerRelation, PsdMatrix, adjugate, psd_certify
from .problem import Cost, FusionProblem, JointSpectrum

#: the interior optimum is located to this width in alpha
ROOT_TOL = 1e-12
#: slope evaluations allowed in one root search (bisection alone needs 40)
ROOT_MAX_EVALS = 200


def extended_cost(cost: Cost, sigma: np.ndarray) -> float:
    """Extended cost ``J((Sigma)^{-1})``, ``+inf`` when Sigma is singular.

    The infinity is an exact ``math.inf``, never a large float, so endpoint
    branch logic stays exact.  No command calls it: ``cifusion scan``
    tabulates :meth:`JointSpectrum.cost`, the solver's own cost.  It stays
    because ``bench/tracing.py`` wraps it by name and the tests use it as an
    oracle of that cost.
    """
    eigs = np.linalg.eigvalsh(sigma)
    scale = float(np.abs(eigs).max())
    if scale == 0.0 or eigs[0] <= SINGULAR_RTOL * scale:
        return math.inf
    with np.errstate(over="ignore"):  # an overflow is the exact infinity
        if cost is Cost.DET:
            return float(np.prod(1.0 / eigs))
        return float(np.sum(1.0 / eigs))


def delta_value(problem: FusionProblem, alpha: float) -> float:
    """``trace(adj(Sigma_alpha) (Sigma1 - Sigma0))``, defined at singular blends.

    ``Sigma_alpha = alpha * Sigma1 + (1 - alpha) * Sigma0``; a weight outside
    [0, 1] raises :class:`OutOfRangeError`.
    """
    if not 0.0 <= alpha <= 1.0:
        raise OutOfRangeError(f"alpha={alpha} outside [0, 1]")
    adj = adjugate(alpha * problem.sigma1 + (1.0 - alpha) * problem.sigma0)
    return float(np.trace(adj @ (problem.sigma1 - problem.sigma0)))


@dataclass(frozen=True)
class FusionResult:
    """Weights, fused covariance and diagnostics of one fusion; a solve builds one."""

    alpha: float
    K1: np.ndarray
    K2: np.ndarray
    P_hat: PsdMatrix
    fused_x: np.ndarray
    cost_value: float | None = None
    diagnostics: dict = field(default_factory=dict)


def _optimal_weight(spectrum: JointSpectrum, slope) -> tuple[float, str]:
    """Minimiser of a convex cost in alpha, from its increasing slope in t.

    A nonsingular endpoint wins when the slope there points out of the
    interval; a singular endpoint has infinite cost and never wins.
    Otherwise the slope has one root in (0, 1), found by Newton steps kept
    inside a shrinking bracket, with bisection whenever a Newton step would
    leave it or fails to halve the step before last.
    """
    if spectrum.regular_at(-0.5) and slope(-0.5)[0] >= 0.0:
        return 0.0, "endpoint_zero"
    if spectrum.regular_at(0.5) and slope(0.5)[0] <= 0.0:
        return 1.0, "endpoint_one"
    lo, hi, t = -0.5, 0.5, 0.0
    last_step = hi - lo
    for _ in range(ROOT_MAX_EVALS):
        h, dh = slope(t)
        if h == 0.0:
            break
        if h < 0.0:
            lo = t
        else:
            hi = t
        newton = t - h / dh if dh > 0.0 else math.nan
        if lo < newton < hi and abs(newton - t) <= 0.5 * last_step:
            last_step, t = abs(newton - t), newton
            if last_step <= ROOT_TOL:
                break
        else:
            last_step, t = 0.5 * (hi - lo), 0.5 * (lo + hi)
            if hi - lo <= ROOT_TOL:
                break
    return 0.5 + t, "interior_root"


def ku_rule(problem: FusionProblem, alpha: float, *, cost: Cost | None = None) -> FusionResult:
    """Apply the fusion family member with the given weight.

    The weight is validated against the family case table: a strictly
    dominant second (first) information matrix forces ``alpha = 0``
    (``alpha = 1``), equal matrices admit any weight, and otherwise the
    blended information matrix must be nonsingular.  The table, the
    singularity test and ``P_hat`` all come from the problem's joint
    spectrum (:attr:`FusionProblem.spectrum`), the one the solvers search
    on.  ``P_hat`` is PSD-certified and must be strictly PD.  Given a
    ``cost``, the result carries its value from the spectrum.
    """
    if not 0.0 <= alpha <= 1.0:
        raise InvalidFamilyParameterError(alpha, "outside [0, 1]")
    spectrum = problem.spectrum
    rel = spectrum.relation
    if rel is LoewnerRelation.STRICTLY_GREATER and alpha != 0.0:
        raise InvalidFamilyParameterError(
            alpha, "second information matrix strictly dominates; alpha must be 0"
        )
    if rel is LoewnerRelation.STRICTLY_LESS and alpha != 1.0:
        raise InvalidFamilyParameterError(
            alpha, "first information matrix strictly dominates; alpha must be 1"
        )
    t = alpha - 0.5
    if not spectrum.regular_at(t):
        raise SingularSigmaError(f"blended information matrix is singular at alpha={alpha}")
    try:
        p_hat = psd_certify(spectrum.fused_cov(t))
    except NotPsdError as exc:  # near-singular blends only
        raise SingularSigmaError(str(exc)) from exc
    if not p_hat.strict:
        raise SingularSigmaError("fused covariance is not strictly PD")
    est1, est2 = problem.est1, problem.est2
    k1 = alpha * (p_hat.data @ est1.h.T @ est1.p_inv)
    k2 = (1.0 - alpha) * (p_hat.data @ est2.h.T @ est2.p_inv)
    fused_x = k1 @ est1.x_hat + k2 @ est2.x_hat
    unbias = k1 @ est1.h + k2 @ est2.h - np.eye(problem.n)
    return FusionResult(
        alpha=float(alpha),
        K1=k1,
        K2=k2,
        P_hat=p_hat,
        fused_x=fused_x,
        cost_value=None if cost is None else spectrum.cost(cost, t),
        diagnostics={"unbias_residual": float(np.abs(unbias).max())},
    )


def _optimal_member(problem: FusionProblem, cost: Cost) -> FusionResult:
    spectrum = problem.spectrum
    if spectrum.relation is LoewnerRelation.EQUAL:
        alpha, branch = 0.5, "equal"
    else:
        slope = spectrum.det_slope if cost is Cost.DET else spectrum.trace_slope
        alpha, branch = _optimal_weight(spectrum, slope)
    result = ku_rule(problem, alpha, cost=cost)
    result.diagnostics.update(branch=branch, cost=cost.value)
    return result


def solve_ci_det(problem: FusionProblem) -> FusionResult:
    """Determinant-optimal weight from the joint spectrum.

    ``log det P_hat`` is convex in the weight with slope ``-sum(lam / (1 +
    t lam))``, which has the sign of ``-Delta``.  So ``alpha* = 0`` when
    ``Delta(0) <= 0`` (second matrix nonsingular), ``alpha* = 1`` when
    ``Delta(1) >= 0`` (first matrix nonsingular), 0.5 by tie-break when the
    information matrices coincide, and otherwise the unique root of Delta
    in (0, 1), found to ``ROOT_TOL``.
    """
    return _optimal_member(problem, Cost.DET)


def solve_ci_trace(problem: FusionProblem) -> FusionResult:
    """Trace-optimal weight from the joint spectrum.

    ``trace P_hat = sum(c / (1 + t lam))`` is convex in the weight, and the
    determinant's case table applies to its slope ``-sum(c lam / (1 + t
    lam)^2)``: a nonsingular endpoint whose slope points outwards, else the
    interior root (a strictly dominant information matrix always takes its
    endpoint).
    """
    return _optimal_member(problem, Cost.TRACE)


def solve_ci(problem: FusionProblem, cost: Cost) -> FusionResult:
    """Optimal fusion for the given cost, with the feasibility certificate.

    Dispatches to the determinant or trace solver; the returned weight is a
    valid family member by construction, and the semidefinite certificate of
    conservativeness is asserted on the result (its smallest eigenvalue is
    recorded in the diagnostics).
    """
    if cost is Cost.DET:
        result = solve_ci_det(problem)
    elif cost is Cost.TRACE:
        result = solve_ci_trace(problem)
    else:
        raise OutOfRangeError(f"unsupported cost {cost!r}")
    cert = verifier.lmi_certificate(result, problem, result.alpha)
    if not cert.passed:
        raise InternalInconsistencyError(
            f"optimal fusion failed its own certificate (min eig {cert.lmi_min_eig:.3g})"
        )
    result.diagnostics["lmi_min_eig"] = cert.lmi_min_eig
    return result
