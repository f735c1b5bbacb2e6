"""Optimal unbiased fusion when the full joint covariance is known.

With the cross term available the fused estimate has a unique minimal error
covariance in the semidefinite order, which the weighted-least-squares
formula gives for any pair of observation maps.  Its full-state two-track
specialization (Bar-Shalom and Campo) is kept in the tests as an oracle.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    NonFiniteError,
    SingularJointError,
)
from .linalg import DEFAULT_TOL, PsdMatrix, inv_pd, psd_certify, tol_scale
from .problem import FusionProblem, covariance


class JointCovariance:
    """Block covariance ``[P1 P12; P12.T P2]``, certified PSD, with PD classification."""

    def __init__(self, p1, p12, p2):
        # a copy, so that freezing it leaves the caller's array writable
        p12 = np.atleast_2d(np.array(p12, dtype=float))
        if not np.isfinite(p12).all():
            raise NonFiniteError("P12: holds a NaN or an infinity")
        cert1 = covariance(p1, p12.shape[0], "P1")
        cert2 = covariance(p2, p12.shape[1], "P2")
        assembled = np.zeros((cert1.dim + cert2.dim,) * 2)
        assembled[: cert1.dim, : cert1.dim] = cert1.data
        assembled[: cert1.dim, cert1.dim :] = p12
        assembled[cert1.dim :, : cert1.dim] = p12.T
        assembled[cert1.dim :, cert1.dim :] = cert2.data
        cert = psd_certify(assembled)  # raises NotPsdError on bad cross terms
        p12.flags.writeable = False
        self.P1 = cert1
        self.P2 = cert2
        self.P12 = p12
        self.pd = cert.strict
        self.assembled = cert

    @property
    def p1_dim(self) -> int:
        return self.P1.dim

    @property
    def p2_dim(self) -> int:
        return self.P2.dim

    def __repr__(self) -> str:
        kind = "PD" if self.pd else "PSD"
        return f"JointCovariance(p1={self.p1_dim}, p2={self.p2_dim}, {kind})"


class KnownCrossResult:
    """Optimal gain ``K*``, fused covariance ``P*`` and information ``P*^-1`` for a known joint."""

    def __init__(self, k_star: np.ndarray, p_star: PsdMatrix, p_star_inv: np.ndarray, p1: int):
        self.K_star = k_star
        self.P_star = p_star
        self.P_star_inv = p_star_inv
        self._p1 = p1

    @property
    def K1(self) -> np.ndarray:
        return self.K_star[:, : self._p1]

    @property
    def K2(self) -> np.ndarray:
        return self.K_star[:, self._p1 :]


def _check_within_intersection(
    p_star_inv: np.ndarray, joint: JointCovariance, problem: FusionProblem
) -> None:
    """Post-hoc check that ``(P*)^{-1}`` dominates both prior informations.

    Violations within ten times the tolerance only warn; near-singular
    joints legitimately sit at the boundary.
    """
    for est, block in ((problem.est1, joint.P1), (problem.est2, joint.P2)):
        target = est.h.T @ inv_pd(block.data) @ est.h
        diff = p_star_inv - 0.5 * (target + target.T)
        min_eig = float(np.linalg.eigvalsh(diff)[0])
        scale = tol_scale(float(np.abs(p_star_inv).max()))
        if min_eig < -10.0 * DEFAULT_TOL * scale:
            raise InternalInconsistencyError(
                f"fused information fails the prior bound: min eig {min_eig:.3g}"
            )
        if min_eig < -DEFAULT_TOL * scale:
            warnings.warn(
                f"prior-information bound holds only to {min_eig:.3g} "
                "(within 10x tolerance)",
                RuntimeWarning,
                stacklevel=3,
            )


def optimal_fusion_known_cross(
    problem: FusionProblem, joint: JointCovariance
) -> KnownCrossResult:
    """Minimal-covariance unbiased fusion for a known PD joint covariance.

    ``K* = (H.T W H)^{-1} H.T W`` and ``P* = (H.T W H)^{-1}`` with
    ``W`` the inverse of the joint; ``P*`` is the unique semidefinite-order
    minimum over all unbiased gains.  The information ``H.T W H``, which
    ``P*`` inverts, is kept as ``P_star_inv``.
    """
    if joint.p1_dim != problem.p1 or joint.p2_dim != problem.p2:
        raise DimensionMismatchError(
            f"joint blocks {(joint.p1_dim, joint.p2_dim)} do not match "
            f"problem dims {(problem.p1, problem.p2)}"
        )
    if not joint.pd:
        raise SingularJointError("joint covariance must be PD for the optimal gain")
    w = inv_pd(joint.assembled.data)
    h = problem.h_stacked
    p_star_inv = h.T @ w @ h
    p_star_inv = 0.5 * (p_star_inv + p_star_inv.T)
    p_star = psd_certify(inv_pd(p_star_inv))
    k_star = p_star.data @ h.T @ w
    _check_within_intersection(p_star_inv, joint, problem)
    return KnownCrossResult(k_star, p_star, p_star_inv, problem.p1)
