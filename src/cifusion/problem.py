"""Validated inputs for the two-estimate fusion problem.

A partial estimate observes ``H x`` for a full-row-rank H; a fusion problem
is an ordered pair of such estimates whose stacked observation matrix has
full column rank.  Rank validation happens once here so the solvers can
assume it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, NotPdError, RankDeficientError
from .linalg import PsdMatrix, inv_pd, inv_sqrt_pd, psd_certify, sqrt_psd

#: singular values below RANK_RTOL * sigma_max do not count towards rank
RANK_RTOL = 1e-10


def matrix_rank(m: np.ndarray) -> int:
    """Numerical rank with the package-wide singular-value threshold."""
    svals = np.linalg.svd(m, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.count_nonzero(svals > RANK_RTOL * svals[0]))


class PartialEstimate:
    """One node's observation model, estimate and conservative covariance."""

    def __init__(self, h, x_hat, p_hat):
        h = np.atleast_2d(np.asarray(h, dtype=float))
        x = np.atleast_1d(np.asarray(x_hat, dtype=float))
        cov = p_hat.data if isinstance(p_hat, PsdMatrix) else np.asarray(p_hat, dtype=float)
        for name, arr in (("H", h), ("x_hat", x), ("P_hat", cov)):
            if not np.isfinite(arr).all():
                raise NonFiniteError(f"{name} holds a NaN or an infinity")
        cert = p_hat if isinstance(p_hat, PsdMatrix) else psd_certify(cov)
        if not cert.strict:
            raise NotPdError("covariance estimate must be strictly PD")
        p = h.shape[0]
        if h.ndim != 2 or p < 1:
            raise DimensionMismatchError(f"H must be a p x n matrix, got {h.shape}")
        if x.shape != (p,):
            raise DimensionMismatchError(f"x_hat has shape {x.shape}, expected ({p},)")
        if cert.dim != p:
            raise DimensionMismatchError(
                f"P_hat is {cert.dim} x {cert.dim}, expected {p} x {p}"
            )
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
    def p_inv(self) -> np.ndarray:
        return inv_pd(self.p_hat.data)

    @cached_property
    def p_sqrt(self) -> np.ndarray:
        return sqrt_psd(self.p_hat).data

    @cached_property
    def p_inv_sqrt(self) -> np.ndarray:
        return inv_sqrt_pd(self.p_hat)

    @cached_property
    def info_matrix(self) -> np.ndarray:
        """Information contribution ``H.T P_hat^{-1} H`` in state space."""
        m = self.h.T @ self.p_inv @ self.h
        return 0.5 * (m + m.T)

    def __repr__(self) -> str:
        return f"PartialEstimate(p={self.p}, n={self.n})"


class FusionProblem:
    """A validated pair of partial estimates.

    Construction enforces the rank assumptions ``rank(H1) = p1``,
    ``rank(H2) = p2`` and ``rank([H1; H2]) = n`` by singular values
    (threshold ``RANK_RTOL * sigma_max``); there is no automatic
    rank-reduction preprocessing.
    """

    def __init__(self, est1: PartialEstimate, est2: PartialEstimate):
        if est1.n != est2.n:
            raise DimensionMismatchError(
                f"state dimensions differ: {est1.n} vs {est2.n}"
            )
        if matrix_rank(est1.h) != est1.p:
            raise RankDeficientError("H1 does not have full row rank")
        if matrix_rank(est2.h) != est2.p:
            raise RankDeficientError("H2 does not have full row rank")
        h = np.vstack([est1.h, est2.h])
        if matrix_rank(h) != est1.n:
            raise RankDeficientError(
                f"stacked observation matrix has rank {matrix_rank(h)} < n = {est1.n}"
            )
        h.flags.writeable = False
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
        return self.est1.info_matrix

    @cached_property
    def sigma0(self) -> np.ndarray:
        """Information matrix of the second estimate."""
        return self.est2.info_matrix

    def swapped(self) -> "FusionProblem":
        """The same problem with the two estimates exchanged."""
        return FusionProblem(self.est2, self.est1)

    def __repr__(self) -> str:
        return f"FusionProblem(n={self.n}, p1={self.p1}, p2={self.p2})"
