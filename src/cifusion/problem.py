"""Validated inputs for the two-estimate fusion problem.

:func:`covariance` certifies every covariance block that enters the package
from outside: an estimate's, a known joint's, the simulator's true ones and
those the CLI reads.  A partial estimate observes ``H x`` for a full-row-rank
H; a fusion problem is an ordered pair of such estimates whose stacked
observation matrix has full column rank.  Rank validation happens once here
so the solvers can assume it: one batched SVD gives the ranks of H1, H2 and
the stack.  Each estimate has one factor, the Cholesky factor ``L`` of its
covariance, which gives ``P_hat^-1`` and the certificate's scaled gain
blocks ``K L``; no symmetric root of a covariance is taken here.  A problem
is preprocessed once: its information matrices and their joint
diagonalisation (:class:`JointSpectrum`), which every solve under either
:class:`Cost` reads, are built on first use and kept.  Every array an
estimate or a problem keeps is read-only, so a kept value cannot drift
from the data it was computed from.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    NotPdError,
    NotPsdError,
    RankDeficientError,
    SingularSigmaError,
    StackedRankDeficientError,
)
from .linalg import (
    DEFAULT_TOL,
    RESULT_RTOL,
    SINGULAR_RTOL,
    LoewnerRelation,
    PsdMatrix,
    cholesky_pd,
    inv_from_cholesky,
    psd_certify,
)

#: singular values below RANK_RTOL * sigma_max do not count towards rank
RANK_RTOL = 1e-10


def matrix_rank(m: np.ndarray) -> int:
    """Numerical rank with the package-wide singular-value threshold."""
    return _rank_of(np.linalg.svd(m, compute_uv=False))


def _rank_of(svals: np.ndarray) -> int:
    """Singular values above ``RANK_RTOL`` times the largest, which comes first."""
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.count_nonzero(svals > RANK_RTOL * svals[0]))


def _pair_ranks(h1: np.ndarray, h2: np.ndarray) -> tuple[tuple[int, int, int], np.ndarray]:
    """:func:`matrix_rank` of H1, H2 and ``[H1; H2]`` from one batched SVD, and the stack.

    The three sit in one stack of the stacked shape, H1 and H2 zero-padded;
    zero rows add only zero singular values, so each count is that of the
    unpadded matrix.  The stacked matrix is returned as a read-only view.
    """
    p1 = h1.shape[0]
    stack = np.zeros((3, p1 + h2.shape[0], h1.shape[1]))
    stack[0, :p1] = stack[2, :p1] = h1
    stack[1, p1:] = stack[2, p1:] = h2
    ranks = tuple(_rank_of(s) for s in np.linalg.svd(stack, compute_uv=False))
    h = stack[2]
    h.flags.writeable = False
    return ranks, h


def covariance(value, dim: int, name: str) -> PsdMatrix:
    """A ``dim x dim`` block certified PSD, or an error whose message starts with ``name``.

    In order: finite entries (:class:`NonFiniteError`), the shape
    (:class:`DimensionMismatchError`), the transpose to ``RESULT_RTOL`` of the
    largest entry (:class:`NotPdError`), then :func:`psd_certify`
    (:class:`NotPsdError`).  A :class:`PsdMatrix` passes after the shape
    check.  A caller that needs the block strictly PD tests that itself.
    """
    if isinstance(value, PsdMatrix):
        shape = (value.dim,) * 2
    else:
        value = np.atleast_2d(np.asarray(value, dtype=float))
        if not np.isfinite(value).all():
            raise NonFiniteError(f"{name}: holds a NaN or an infinity")
        shape = value.shape
    if shape != (dim, dim):
        raise DimensionMismatchError(f"{name}: shape {shape}, expected {(dim, dim)}")
    if isinstance(value, PsdMatrix):
        return value
    skew = float(np.abs(value - value.T).max())
    if skew > RESULT_RTOL * np.abs(value).max():
        raise NotPdError(f"{name}: not symmetric: differs from its transpose by {skew:.17g}")
    try:
        return psd_certify(value)
    except NotPsdError as exc:
        raise NotPsdError(exc.min_eig, f"{name}: {exc}") from None


class PartialEstimate:
    """One node's observation model, estimate and strictly PD covariance."""

    def __init__(self, h, x_hat, p_hat):
        # copies, so that freezing them leaves the caller's arrays writable
        h = np.atleast_2d(np.array(h, dtype=float))
        x = np.atleast_1d(np.array(x_hat, dtype=float))
        for name, arr in (("H", h), ("x_hat", x)):
            if not np.isfinite(arr).all():
                raise NonFiniteError(f"{name} holds a NaN or an infinity")
        p = h.shape[0]
        if h.ndim != 2 or p < 1:
            raise DimensionMismatchError(f"H must be a p x n matrix, got {h.shape}")
        if x.shape != (p,):
            raise DimensionMismatchError(f"x_hat has shape {x.shape}, expected ({p},)")
        cert = covariance(p_hat, p, "P_hat")
        if not cert.strict:
            raise NotPdError(f"P_hat: covariance estimate must be strictly PD "
                             f"(min eigenvalue {cert.min_eig:.6g})")
        h.flags.writeable = False
        x.flags.writeable = False
        self.h = h
        self.x_hat = x
        self.p_hat = cert

    @property
    def p(self) -> int:
        return self.h.shape[0]

    @property
    def n(self) -> int:
        return self.h.shape[1]

    @cached_property
    def p_chol(self) -> np.ndarray:
        """Lower Cholesky factor ``L`` of ``P_hat``; :class:`NotPdError` if it fails."""
        return _frozen(cholesky_pd(self.p_hat))

    @cached_property
    def p_inv(self) -> np.ndarray:
        return _frozen(inv_from_cholesky(self.p_chol))

    @cached_property
    def info_matrix(self) -> np.ndarray:
        """Information contribution ``H.T P_hat^{-1} H`` in state space; may overflow."""
        with np.errstate(over="ignore", invalid="ignore"):
            m = self.h.T @ self.p_inv @ self.h
            return _frozen(0.5 * (m + m.T))

    def __repr__(self) -> str:
        return f"PartialEstimate(p={self.p}, n={self.n})"


class FusionProblem:
    """A validated pair of partial estimates.

    Construction enforces the rank assumptions ``rank(H1) = p1``,
    ``rank(H2) = p2`` and ``rank([H1; H2]) = n`` by singular values
    (threshold ``RANK_RTOL * sigma_max``), all three from one batched SVD,
    and checks them in that order; a stacked rank below n raises
    :class:`StackedRankDeficientError`.  There is no automatic
    rank-reduction preprocessing.
    """

    def __init__(self, est1: PartialEstimate, est2: PartialEstimate):
        if est1.n != est2.n:
            raise DimensionMismatchError(
                f"state dimensions differ: {est1.n} vs {est2.n}"
            )
        (rank1, rank2, rank), h = _pair_ranks(est1.h, est2.h)
        if rank1 != est1.p:
            raise RankDeficientError("H1 does not have full row rank")
        if rank2 != est2.p:
            raise RankDeficientError("H2 does not have full row rank")
        if rank != est1.n:
            raise StackedRankDeficientError(
                f"stacked observation matrix has rank {rank} < n = {est1.n}"
            )
        self.est1 = est1
        self.est2 = est2
        self.h_stacked = h

    @property
    def n(self) -> int:
        return self.est1.n

    @property
    def p1(self) -> int:
        return self.est1.p

    @property
    def p2(self) -> int:
        return self.est2.p

    @cached_property
    def sigma1(self) -> np.ndarray:
        """Information matrix of the first estimate."""
        return _information(self.est1, "est1")

    @cached_property
    def sigma0(self) -> np.ndarray:
        """Information matrix of the second estimate."""
        return _information(self.est2, "est2")

    @cached_property
    def spectrum(self) -> JointSpectrum:
        """The joint diagonalisation of ``(sigma1, sigma0)`` that every solve reads.

        It depends on the pair and not on the cost, so it is built on first
        use and kept: a problem solved again, under either cost, pays for
        it once.  A pair whose mean information matrix is not PD raises
        :class:`SingularSigmaError` on every use; a failure is not kept.
        """
        return JointSpectrum.from_problem(self)

    def __repr__(self) -> str:
        return f"FusionProblem(n={self.n}, p1={self.p1}, p2={self.p2})"


class Cost(enum.Enum):
    """Strictly isotone cost of the fused covariance."""

    DET = "det"
    TRACE = "trace"


@dataclass(frozen=True)
class JointSpectrum:
    """Joint diagonalisation of the two information matrices.

    With ``S = (Sigma1 + Sigma0) / 2 = L L.T`` (PD under the rank
    assumptions), ``M = L^-1 (Sigma1 - Sigma0) L^-T = V diag(lam) V.T`` and
    ``t = alpha - 1/2``, the blend is ``Sigma_alpha = L V (I + t diag(lam))
    V.T L.T``.  So with ``W = L^-T V`` the fused covariance is
    ``W diag(1 / (1 + t lam)) W.T`` (:meth:`fused_cov`), and its ``det`` and
    ``trace`` are ``exp(-log det S - sum(log(1 + t lam)))`` and
    ``sum(c / (1 + t lam))`` with ``c`` the squared column norms of ``W``
    (:meth:`cost`); ``log det S`` is twice the sum of the logs of
    ``diag(L)``.  ``lam`` lies in [-2, 2]; its sign pattern is the Loewner
    relation of the pair (:attr:`relation`, classified once), and a ``lam``
    of +2 (-2) makes the blend at ``alpha = 0`` (``alpha = 1``) singular.
    Building it takes three spectral calls (``cholesky``, ``inv``,
    ``eigh``); nothing after that does.  A problem keeps the one it built
    (:attr:`FusionProblem.spectrum`), with ``lam``, ``c`` and ``w``
    read-only.
    """

    lam: np.ndarray
    c: np.ndarray
    w: np.ndarray
    log_det_s: float

    @classmethod
    def from_problem(cls, problem: FusionProblem) -> "JointSpectrum":
        """A new joint spectrum of the pair, from the problem's cached information matrices.

        Solvers read the problem's own, :attr:`FusionProblem.spectrum`,
        which this builds once.
        """
        s1, s0 = problem.sigma1, problem.sigma0
        try:
            chol = np.linalg.cholesky(0.5 * (s1 + s0))
        except np.linalg.LinAlgError as exc:
            raise SingularSigmaError(f"mean information matrix is not PD: {exc}") from None
        l_inv = np.linalg.inv(chol)
        lam, v = np.linalg.eigh(l_inv @ (s1 - s0) @ l_inv.T)
        w = _frozen(l_inv.T @ v)
        # rounding can push |lam| just past 2, where 1 + t lam would
        # change sign inside the interval
        return cls(
            _frozen(np.minimum(np.maximum(lam, -2.0), 2.0)),
            _frozen(np.einsum("ij,ij->j", w, w)),
            w,
            2.0 * float(np.log(np.diagonal(chol)).sum()),
        )

    def fused_cov(self, t: float) -> np.ndarray:
        """``Sigma_alpha^-1 = W diag(1 / (1 + t lam)) W.T`` at ``alpha = t + 1/2``.

        The rounding of ``lam`` is absolute, so it costs about
        ``eps / min(1 + t lam)`` relative to the largest entry: within a
        small multiple of ``cond(Sigma_alpha) eps`` wherever some
        ``1 + t lam`` is near 1 or above, as at every weight
        :func:`~cifusion.optimizer.ku_rule` admits, but more near the singular end of a dominated pair.
        """
        return (self.w / (1.0 + t * self.lam)) @ self.w.T

    def cost(self, cost: Cost, t: float) -> float:
        """The cost of :meth:`fused_cov` at ``t``, without forming it."""
        mu = 1.0 + t * self.lam
        if cost is Cost.DET:
            try:
                return math.exp(-self.log_det_s - float(np.log(mu).sum()))
            except OverflowError:
                return math.inf
        return float((self.c / mu).sum())

    @cached_property
    def relation(self) -> LoewnerRelation:
        """Sigma0 versus Sigma1, as :func:`loewner_compare` classifies them."""
        # Sigma0 - Sigma1 is congruent to diag(-lam)
        return LoewnerRelation.from_extremes(-float(self.lam[-1]), -float(self.lam[0]), DEFAULT_TOL)

    def regular_at(self, t: float) -> bool:
        """Whether the blend at ``alpha = t + 1/2`` is nonsingular.

        ``lam`` is sorted and rounding is monotone, so the extremes of
        ``1 + t lam`` are its two ends.
        """
        ends = 1.0 + t * float(self.lam[0]), 1.0 + t * float(self.lam[-1])
        return min(ends) > SINGULAR_RTOL * max(ends)

    def det_slope(self, t: float) -> tuple[float, float]:
        """Slope of ``log det P_hat`` in ``t`` and its (positive) derivative."""
        u = self.lam / (1.0 + t * self.lam)
        return -float(u.sum()), float(u @ u)

    def trace_slope(self, t: float) -> tuple[float, float]:
        """Slope of ``trace P_hat`` in ``t`` and its (positive) derivative."""
        u = 1.0 / (1.0 + t * self.lam)
        lu = self.lam * u
        clu2 = self.c * lu * u
        return -float(clu2.sum()), 2.0 * float(clu2 @ lu)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _information(est: PartialEstimate, name: str) -> np.ndarray:
    """``est.info_matrix``, or :class:`NonFiniteError` naming the estimate if it overflowed."""
    if not np.isfinite(est.info_matrix).all():
        raise NonFiniteError(f"{name}: information matrix H' P_hat^-1 H overflows")
    return est.info_matrix
