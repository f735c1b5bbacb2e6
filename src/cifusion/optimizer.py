"""The one-parameter fusion family and optimal weight selection.

The family blends the two information matrices,
``Sigma_alpha = alpha * Sigma1 + (1 - alpha) * Sigma0``, and fuses with
``P_hat = Sigma_alpha^{-1}``.  A solve runs on one joint diagonalisation
(:class:`~cifusion.problem.JointSpectrum`: one ``eigh`` on the SVD of the
whitened stack, with no factor or inverse of the information matrices' mean),
in which the fused covariance, its determinant and its trace are explicit
functions of ``t = alpha - 1/2`` with monotone slopes.  A slope test at each
nonsingular endpoint, else a safeguarded Newton root, gives the optimum;
the determinant slope has the sign of
``-Delta(alpha) = -trace(adj(Sigma_alpha) (Sigma1 - Sigma0))``.  The root
search stops once a Newton step is at most ``ROOT_TOL``.  The same
spectrum then gives the family member: its dominance table, the cost, and
:meth:`~cifusion.problem.JointSpectrum.member`, which refuses a singular
blend or a member outside the float range or not strictly PD, and
otherwise returns the certified ``P_hat``.  One pass over the spectrum
gives the member's float-range test and the bounds on its eigenvalues
that prove strictness, the lower one from the whitened stack's largest
singular value, with no spectral call; a member takes an ``eigvalsh`` only
where the bounds do not prove it.  The gains ``K_i = alpha_i P_hat
G_i' L_i^-1`` are one product of ``P_hat`` with the problem's kept basis,
and ``fused_x`` and the unbiasedness residual one product each.  Because ``P_hat`` is formed
from the spectrum rather than by inverting the blend, fused outputs can
differ in their last digits from an explicit inverse.  :func:`solve_ci`
then asserts the block certificate.  At a family member's own weight the
Schur complement M of the LMI block vanishes up to rounding, so a norm
bound on M proves the certificate without the block's ``eigvalsh``
(:func:`~cifusion.verifier.lmi_certificate`), and a problem solved before
makes no spectral call.  The block's smallest eigenvalue, which ``cifusion
fuse`` and ``cifusion verify`` print, is computed when it is first read.

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
from .errors import InternalInconsistencyError, InvalidFamilyParameterError, OutOfRangeError
from .linalg import SINGULAR_RTOL, LoewnerRelation, PsdMatrix, adjugate
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

    ``Sigma_alpha = alpha * Sigma1 + (1 - alpha) * Sigma0``, ``Sigma_i = G_i'
    G_i``; a weight outside [0, 1] raises :class:`OutOfRangeError`.
    """
    if not 0.0 <= alpha <= 1.0:
        raise OutOfRangeError(f"alpha={alpha} outside [0, 1]")
    s1, s0 = (est.whitened.T @ est.whitened for est in (problem.est1, problem.est2))
    adj = adjugate(alpha * s1 + (1.0 - alpha) * s0)
    return float(np.trace(adj @ (s1 - s0)))


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
    leave it or fails to halve the step before last.  The search reads only
    the sign of the slope and the Newton step ``h / dh``.  It stops at a
    zero slope, at a bracket ``ROOT_TOL`` wide, or at a Newton step of at
    most ``ROOT_TOL``, which it takes, clamped into the bracket, whether or
    not it lands strictly inside: the iterate has converged, and a step
    that rounds onto the bracket end just set must not restart bisection
    on the stale bracket.
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
        if abs(newton - t) <= ROOT_TOL:
            t = min(max(newton, lo), hi)
            break
        if lo < newton < hi and abs(newton - t) <= 0.5 * last_step:
            last_step, t = abs(newton - t), newton
        else:
            last_step, t = 0.5 * (hi - lo), 0.5 * (lo + hi)
            if hi - lo <= ROOT_TOL:
                break
    return 0.5 + t, "interior_root"


def ku_rule(problem: FusionProblem, alpha: float, *, cost: Cost | None = None) -> FusionResult:
    """Apply the fusion family member with the given weight.

    The weight is validated against the family case table: a strictly
    dominant second (first) information matrix forces ``alpha = 0``
    (``alpha = 1``), and equal matrices admit any weight.  The table and
    ``P_hat`` come from the problem's joint spectrum
    (:attr:`FusionProblem.spectrum`), the one the solvers search on:
    :meth:`~cifusion.problem.JointSpectrum.member` returns the certified,
    strictly PD ``P_hat`` or raises :class:`SingularSigmaError`, so the
    rule makes no spectral call and no refusal of its own.  The gains
    are ``P_hat`` times :attr:`FusionProblem.gain_basis`, their column
    blocks weighted by ``alpha`` and ``1 - alpha``.  Given a ``cost``, the
    result carries its value from the spectrum.  ``K1``, ``K2`` and
    ``fused_x`` are read-only, as ``P_hat`` is, so a certificate formed on
    these arrays describes their values for as long as it holds them.
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
    p_hat = spectrum.member(alpha)
    p1 = problem.p1
    k = p_hat.data @ problem.gain_basis
    k *= np.array([alpha] * p1 + [1.0 - alpha] * problem.p2)
    unbias = k @ problem.h_stacked
    unbias.reshape(-1)[:: problem.n + 1] -= 1.0  # K H - I
    k.setflags(write=False)  # read-only, as P_hat is, and so are its blocks K1 and K2
    fused_x = k @ problem.x_stacked
    fused_x.setflags(write=False)
    return FusionResult(
        alpha=float(alpha),
        K1=k[:, :p1],
        K2=k[:, p1:],
        P_hat=p_hat,
        fused_x=fused_x,
        cost_value=None if cost is None else spectrum.cost(cost, alpha - 0.5),
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
    conservativeness is asserted on the result and kept as
    ``diagnostics["certificate"]``.  The result's block margin lies within
    rounding of zero, which the certificate's Schur route proves from a
    norm bound on M, so it makes no spectral call; its ``lmi_min_eig`` runs
    the block's ``eigvalsh`` when first read.
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
    result.diagnostics["certificate"] = cert
    return result
