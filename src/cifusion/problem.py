"""Validated inputs for the two-estimate fusion problem.

:func:`covariance` certifies every covariance block that enters the package
from outside: an estimate's, a known joint's, the simulator's true ones and
those the CLI reads.  A partial estimate observes ``H x`` for any ``p x n``
matrix H; a fusion problem is an ordered pair of such estimates whose
whitened stack ``G = [L1^-1 H1; L2^-1 H2]``, ``L_i`` the Cholesky factor of
estimate i's covariance, has full column rank.  One SVD of ``G`` makes that
one solvability test and gives the joint diagonalisation of the information
matrices ``G_i' G_i`` without forming them (:class:`JointSpectrum`; the
generalised SVD of Van Loan, SIAM J. Numer. Anal. 13, 1976) on ``G``
scaled by a power of two, so a power-of-two change of one sensor's units
changes nothing, of both only that power, and accuracy follows ``cond(G)``,
not its square.  The spectrum, which every solve under
either :class:`Cost` reads, is built on first use and kept.  Every array an
estimate or a problem keeps is read-only, so a kept value cannot drift from
the data it was computed from.
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
    psd_certify,
    rounding_allowance,
    sym_data,
    tol_scale,
)

#: singular values of a whitened stack below RANK_RTOL * sigma_max do not count towards rank
RANK_RTOL = 1e-10


def covariance(value, dim: int, name: str) -> PsdMatrix:
    """A ``dim x dim`` block certified PSD, or an error whose message starts with ``name``.

    In order: finite entries (:class:`NonFiniteError`), the shape
    (:class:`DimensionMismatchError`, also for a ``0 x 0`` block), the transpose to ``RESULT_RTOL`` of the
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
    if dim < 1:
        raise DimensionMismatchError(f"{name}: shape {shape}, a block needs at least one row")
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
    """One node's observation model, estimate and strictly PD covariance.

    H may have dependent rows or more rows than the state; only the pair's
    whitened stack must have full column rank (:class:`FusionProblem`).
    """

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
    def chol_inv(self) -> np.ndarray:
        """``L^-1``, the inverse of :attr:`p_chol`."""
        return _frozen(np.linalg.solve(self.p_chol, np.eye(self.p)))

    @cached_property
    def whitened(self) -> np.ndarray:
        """``G = L^-1 H``, whose ``G' G`` is the information ``H' P_hat^-1 H``; may overflow."""
        with np.errstate(over="ignore", invalid="ignore"):
            return _frozen(self.chol_inv @ self.h)

    def __repr__(self) -> str:
        return f"PartialEstimate(p={self.p}, n={self.n})"


class FusionProblem:
    """A validated pair of partial estimates.

    Construction makes the one solvability test on the thin SVD ``2^-e G =
    U diag(sigma) V'`` of the whitened stack, ``rank(G) = n``
    (:meth:`whitened_svd`), and raises :class:`StackedRankDeficientError`
    below it, or :class:`NonFiniteError` naming an estimate whose ``G_i``
    overflows.  Neither H needs full row rank.  ``(U, sigma, V', e)`` is
    kept, its arrays read-only, as :attr:`whitened_factors`, ``[H1; H2]``
    as :attr:`h_stacked`, ``[x_hat1; x_hat2]`` as :attr:`x_stacked` and
    the gains' basis ``[G1' L1^-1 | G2' L2^-1]`` as :attr:`gain_basis`: a
    family member's gains are ``P_hat`` times it, its column blocks
    weighted by ``alpha`` and ``1 - alpha``.
    """

    def __init__(self, est1: PartialEstimate, est2: PartialEstimate):
        if est1.n != est2.n:
            raise DimensionMismatchError(
                f"state dimensions differ: {est1.n} vs {est2.n}"
            )
        for name, est in (("est1", est1), ("est2", est2)):
            if not np.isfinite(est.whitened).all():
                raise NonFiniteError(f"{name}: whitened observation matrix L^-1 H overflows")
        u, sv, vt, e, rank = self.whitened_svd(np.concatenate((est1.whitened, est2.whitened)))
        if rank != est1.n:
            raise StackedRankDeficientError(
                f"stacked observation matrix has rank {rank} < n = {est1.n}"
            )
        self.est1 = est1
        self.est2 = est2
        self.whitened_factors = (_frozen(u), _frozen(sv), _frozen(vt), e)
        self.h_stacked = _frozen(np.concatenate((est1.h, est2.h)))
        self.x_stacked = _frozen(np.concatenate((est1.x_hat, est2.x_hat)))
        self.gain_basis = _frozen(np.concatenate(
            (est1.whitened.T @ est1.chol_inv, est2.whitened.T @ est2.chol_inv), axis=1))

    @staticmethod
    def whitened_svd(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
        """``(U, sigma, V', e, rank)``: the thin SVD of ``2^-e G`` and the numerical rank of ``G``.

        ``e``, the exponent of ``max|G|`` from ``np.frexp``, puts the largest
        entry in [0.5, 1), which LAPACK never rescales (by a factor that is
        not a power of two), so a common power-of-two unit change moves only ``e``.
        """
        e = int(np.frexp(np.abs(g).max())[1])
        u, sv, vt = np.linalg.svd(np.ldexp(g, -e), full_matrices=False)
        rank = int(np.count_nonzero(sv > RANK_RTOL * sv[0])) if sv[0] > 0.0 else 0
        return u, sv, vt, e, rank

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
    def spectrum(self) -> JointSpectrum:
        """The joint diagonalisation of the two information matrices that every solve reads.

        It depends on the pair and not on the cost, so it is built on first
        use and kept: a problem solved again, under either cost, pays for
        it once.
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

    With the whitened stack's SVD ``G = U diag(sigma) V'``, ``U`` split after
    ``p1`` rows into ``U1`` and ``U2``, ``z_j`` the eigenvectors of ``U1'
    U1``, ``c2 = |U1 z_j|^2`` and ``s2 = |U2 z_j|^2`` (``c2 + s2 = 1``), the
    information matrices are ``Sigma1 = V sigma Z diag(c2) Z' sigma V'`` and
    ``Sigma0``, alike with ``s2``.  So with ``t = alpha - 1/2``, ``lam = 2
    (c2 - s2) / (c2 + s2)`` and ``W = sqrt(2) V sigma^-1 Z``, the fused
    covariance is ``W diag(1 / (1 + t lam)) W'`` (:meth:`fused_cov`), and its
    ``det`` and ``trace`` are ``exp(-log det S - sum(log(1 + t lam)))`` and
    ``sum(c / (1 + t lam))``, with ``c`` the squared column norms of ``W``
    (:meth:`cost`) and ``log det S = 2 sum(log sigma) - n log 2`` for ``S =
    (Sigma1 + Sigma0) / 2``.  ``lam`` is ascending up to rounding and lies in
    [-2, 2]; its sign pattern is the Loewner relation of the pair
    (:attr:`relation`, classified once), and a ``lam`` of +2 (-2) makes the
    blend at ``alpha = 0`` (``alpha = 1``) singular.  ``w`` and ``c`` are
    kept at the scale of the problem's SVD of ``2^-e G``, as ``2^e W`` and
    ``4^e c`` with ``e`` the :attr:`exponent`; there ``c`` lies between
    about ``1 / (rows n)`` and ``1e21`` (the rank test), so no sum over it
    overflows, and the fused covariance, the cost and the range test apply
    ``e`` exactly with ``ldexp``.  Building it from the problem's SVD takes
    one ``eigh``.  :meth:`member` makes and judges the family member at a
    weight: it refuses the weight, or bounds the fused covariance's
    spectrum by the kept one and one ``eigvalsh`` of ``w w'``, taken on
    first use and kept; only a member those bounds do not prove strictly
    PD takes an ``eigvalsh`` of its own.  A problem keeps the
    spectrum it built (:attr:`FusionProblem.spectrum`), with ``lam``,
    ``c`` and ``w`` read-only.

    The weight search evaluates its slopes and member test (:meth:`det_slope`,
    :meth:`trace_slope`, :meth:`regular_at`) many times per solve, and
    :meth:`member` sums the fused trace once, so they loop over ``lam`` and
    ``c`` as Python floats
    (:attr:`_terms`): a slope takes under 1 us that way at ``n = 6`` and
    2-3 us at ``n = 20``, against 3.5-8.5 us through numpy's per-call cost
    (2-CPU host, Python 3.11, numpy 2.4).  numpy wins only past ``n`` of
    about 30-50, where one ``eigvalsh`` of the solve's ``n x n`` matrices
    alone takes about 140 us (``n = 50``), so there is one path and no size
    switch.  A slope is evaluated only where every ``1 + t lam`` is
    positive, so the loops never divide by zero.  :meth:`fused_cov` and
    :meth:`cost` stay in numpy.
    """

    lam: np.ndarray
    c: np.ndarray
    w: np.ndarray
    exponent: int
    log_det_s: float

    @classmethod
    def from_problem(cls, problem: FusionProblem) -> "JointSpectrum":
        """A new joint spectrum of the pair, from the problem's kept SVD of its whitened stack.

        Solvers read the problem's own, :attr:`FusionProblem.spectrum`,
        which this builds once.
        """
        u, sv, vt, e = problem.whitened_factors
        u1, u2 = u[: problem.p1], u[problem.p1 :]
        z = np.linalg.eigh(u1.T @ u1)[1]
        u1z, u2z = u1 @ z, u2 @ z
        c2, s2 = np.einsum("ij,ij->j", u1z, u1z), np.einsum("ij,ij->j", u2z, u2z)
        # c2 + s2 is 1 up to rounding; dividing by it keeps |lam| <= 2, and a
        # direction one estimate does not see (c2 or s2 exactly 0) gets
        # exactly -2 or +2, so the blend there is exactly singular
        lam = 2.0 * (c2 - s2) / (c2 + s2)
        w = _frozen(math.sqrt(2.0) * (vt.T / sv) @ z)
        c = _frozen(np.einsum("ij,ij->j", w, w))
        # every fused covariance is at least W W' / 2, whose trace is sum(c) / 2,
        # and its least eigenvalue is at most c_j / (1 + t lam_j) for each j
        with np.errstate(over="ignore"):
            true_c = np.ldexp(c, -2 * e)
        if not (np.isfinite(true_c).all() and true_c.all()):
            raise SingularSigmaError("fused covariance is outside the float range at every weight")
        log_det_s = 2.0 * float(np.log(np.ldexp(sv, e)).sum()) - problem.n * math.log(2.0)
        return cls(_frozen(lam), c, w, e, log_det_s)

    def fused_cov(self, t: float) -> np.ndarray:
        """``Sigma_alpha^-1 = W diag(1 / (1 + t lam)) W.T`` at ``alpha = t + 1/2``.

        The rounding of ``lam`` is absolute, so it costs about
        ``eps / min(1 + t lam)`` relative to the largest entry: within a
        small multiple of ``cond(Sigma_alpha) eps`` wherever some
        ``1 + t lam`` is near 1 or above, as at every weight
        :func:`~cifusion.optimizer.ku_rule` admits, but more near the singular end of a dominated pair.
        """
        return np.ldexp((self.w / (1.0 + t * self.lam)) @ self.w.T, -2 * self.exponent)

    def member(self, alpha: float) -> PsdMatrix:
        """The certified family member ``P_hat = Sigma_alpha^-1``, or :class:`SingularSigmaError`.

        A weight is refused, in this order, where the blend is singular
        (:meth:`regular_at`), where the fused trace reaches ``2^1023``, which
        puts the member outside the float range, where :func:`psd_certify`
        of :meth:`fused_cov` rejects the member (with its
        :class:`NotPsdError` text), and where the member is not strictly
        PD.  Otherwise it is that call's result: the same ``data`` bits,
        ``strict`` and ``min_eig``, the last computed on first read where
        the spectrum decides strictness without the call.

        One pass over the kept pairs gives, with ``t = alpha - 1/2`` and
        ``mu_j = 1 + t lam_j``, the trace ``T = sum(c_j / mu_j)`` at the kept
        scale and ``max(mu)``; past :meth:`regular_at` every ``mu_j`` is
        positive.  The trace bounds every entry of the member and of the
        products :meth:`fused_cov` forms it from, and half the float range
        leaves their rounding room; summed on the kept ``c`` it cannot
        overflow.  With ``delta = rounding_allowance(n, T)`` and ``omega`` of
        :attr:`_omega`, every value ``eigvalsh`` gives for ``data`` lies in
        ``[4^-e (omega / max(mu) - delta), 4^-e (T + delta)]``.  So the
        member is strict where the lower end exceeds ``DEFAULT_TOL`` times
        ``tol_scale`` of the upper end, the least bound :func:`psd_certify`
        judges by; anywhere else it is that call.

        At the kept scale the exact member is ``P = W D W'``, ``D = diag(1 /
        mu)`` on the computed ``mu``.  It is PSD and at least ``W W' /
        max(mu)``, so ``lambda_min(P) >= max(0, omega / max(mu))``, and
        ``lambda_max(P)`` is at most ``trace(P)``, which ``T`` gives to
        within ``gamma_(2n+1)``.  With ``u = eps / 2`` and ``gamma_k = k u /
        (1 - k u)``, three roundings separate ``P`` from the values
        ``eigvalsh`` returns:

        - :meth:`fused_cov` divides each entry of ``w`` once and sums ``n``
          products, so it errs by at most ``gamma_(n+1) |W| D |W'|``
          entrywise, and ``|W| D |W'|`` is PSD with trace ``trace(P)``, so
          by at most ``gamma_(n+1) trace(P)`` in norm.
        - :func:`~cifusion.linalg.sym_data` rounds each entry once, by at
          most ``u trace(P)`` in norm.
        - ``eigvalsh`` errs by at most ``8 (n + 2)^2 u`` of the norm
          (:func:`~cifusion.linalg.rounding_allowance`).

        They sum to less than ``9 (n + 2)^2 u T``; ``delta`` is 14 times
        that, which covers the rounding of ``T``, of ``omega`` and of the
        bounds themselves.  Scaling by ``4^-e`` is exact short of
        underflow, at most ``n 2^-1074`` in norm, which is far below
        ``DEFAULT_TOL`` and, wherever the member is within reach of it,
        below that slack.
        """
        t = alpha - 0.5
        if not self.regular_at(t):
            raise SingularSigmaError(f"blended information matrix is singular at alpha={alpha}")
        trace = top_mu = 0.0
        for lam, c in self._terms:
            mu = 1.0 + t * lam
            trace += c / mu
            if mu > top_mu:
                top_mu = mu
        e2 = -2 * self.exponent
        if math.frexp(trace)[1] + e2 > 1023:
            raise SingularSigmaError(
                f"fused covariance is outside the float range at alpha={alpha}")
        raw = self.fused_cov(t)
        delta = rounding_allowance(len(self._terms), trace)
        if math.ldexp(self._omega / top_mu - delta, e2) \
                > DEFAULT_TOL * tol_scale(math.ldexp(trace + delta, e2)):
            data = sym_data(raw)
            data.flags.writeable = False
            return PsdMatrix(data, None, True)
        try:
            p_hat = psd_certify(raw)
        except NotPsdError as exc:  # near-singular blends only
            raise SingularSigmaError(str(exc)) from exc
        if not p_hat.strict:
            raise SingularSigmaError("fused covariance is not strictly PD")
        return p_hat

    @cached_property
    def _omega(self) -> float:
        """A lower bound on the least eigenvalue of ``w w'``, from one ``eigvalsh``.

        The computed product errs by at most ``gamma_n sum(c)`` in norm and
        ``eigvalsh`` by ``8 (n + 2)^2 u`` of that norm (see :meth:`member`),
        so the least value less ``rounding_allowance(n, sum(c))`` is below
        the exact one.  Where ``cond(G)^2`` nears ``1 / eps`` the bound is
        not positive, and :meth:`member` leaves strictness to
        :func:`psd_certify`.
        """
        least = float(np.linalg.eigvalsh(self.w @ self.w.T)[0])
        return least - rounding_allowance(len(self._terms), sum(c for _, c in self._terms))

    def cost(self, cost: Cost, t: float) -> float:
        """The cost of :meth:`fused_cov` at ``t``, without forming it; ``inf`` past the float range."""
        mu = 1.0 + t * self.lam
        try:
            if cost is Cost.DET:
                return math.exp(-self.log_det_s - float(np.log(mu).sum()))
            return math.ldexp(float((self.c / mu).sum()), -2 * self.exponent)
        except OverflowError:
            return math.inf

    @cached_property
    def relation(self) -> LoewnerRelation:
        """Sigma0 versus Sigma1, as :func:`loewner_compare` classifies them.

        ``Sigma0 - Sigma1`` is congruent to ``diag(-lam)``, so the extremes of
        ``lam`` classify it; like :meth:`regular_at`, this reads the true
        extremes, not the ends of ``lam``, which is ascending only up to
        rounding.
        """
        lo, hi = self._lam_range
        return LoewnerRelation.from_extremes(-hi, -lo, DEFAULT_TOL)

    @cached_property
    def _terms(self) -> list[tuple[float, float]]:
        """The pairs ``(lam_j, c_j)`` as Python floats, for the scalar loops below."""
        return list(zip(self.lam.tolist(), self.c.tolist()))

    @cached_property
    def _lam_range(self) -> tuple[float, float]:
        """The least and the largest ``lam``, as Python floats."""
        lam = self.lam.tolist()
        return min(lam), max(lam)

    def regular_at(self, t: float) -> bool:
        """Whether the blend at ``alpha = t + 1/2`` is nonsingular.

        Rounding is monotone, so the least and the largest computed ``1 + t
        lam`` come from the least and the largest ``lam``, and where the
        test passes every one is positive: no loop below divides by zero.
        ``lam`` is ascending only up to its rounding, so its ends need not
        be its extremes: where several ``lam`` lie within rounding of 2, as
        for an estimate with 1e16 times the other's covariance, one of
        exactly 2 can sit between them.
        """
        lo, hi = self._lam_range
        first, last = 1.0 + t * lo, 1.0 + t * hi
        return min(first, last) > SINGULAR_RTOL * max(first, last)

    def det_slope(self, t: float) -> tuple[float, float]:
        """Slope of ``log det P_hat`` in ``t`` and its (positive) derivative."""
        slope = curvature = 0.0
        for lam, _ in self._terms:
            u = lam / (1.0 + t * lam)
            slope += u
            curvature += u * u
        return -slope, curvature

    def trace_slope(self, t: float) -> tuple[float, float]:
        """Slope of ``trace P_hat`` in ``t`` and its (positive) derivative, both times ``4^e``.

        On the kept ``c`` they cannot overflow, and the weight search reads
        only their signs and ratio, which ``4^e`` keeps.
        """
        slope = curvature = 0.0
        for lam, c in self._terms:
            u = 1.0 / (1.0 + t * lam)
            lu = lam * u
            clu2 = c * lu * u
            slope += clu2
            curvature += clu2 * lu
        return -slope, 2.0 * curvature


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a

