"""Ellipsoidal calculus for origin-centered error ellipsoids.

The ellipsoid of a PSD shape matrix S is ``{x : x.T S x <= 1}``; containment
of ellipsoids reverses the semidefinite order of their shapes.  The module
finds the smallest convex weight whose blend of two shapes dominates a
third, by the package's one search over the weight, and provides the
constructive cross covariance that makes the optimal known-cross fusion
cover a chosen interior point of the intersection of the two prior
ellipsoids.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import (
    DegenerateDirectionError,
    DimensionMismatchError,
    InternalInconsistencyError,
    NotInteriorError,
)
from .linalg import (
    DEFAULT_TOL,
    PsdMatrix,
    feasible_weight_end,
    first_feasible_weight,
    inv_pd,
    loewner_compare,
    psd_certify,
    tol_scale,
)
from .problem import FusionProblem

#: membership value must stay below 1 - INTERIOR_MARGIN for the covering
#: construction; the corners of the intersection are genuinely uncoverable
INTERIOR_MARGIN = 1e-6
#: quadratic forms closer than this (relatively) route to the perturbed
#: construction, keeping the joint covariance away from singularity
EQUAL_FORMS_RTOL = 1e-6


class Ellipsoid:
    """A possibly degenerate ellipsoid centered at the origin."""

    def __init__(self, shape):
        self.shape = shape if isinstance(shape, PsdMatrix) else psd_certify(shape)

    @property
    def dim(self) -> int:
        return self.shape.dim

    def __repr__(self) -> str:
        return f"Ellipsoid(dim={self.dim})"


class Membership(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


def contains(outer: Ellipsoid, inner: Ellipsoid) -> bool:
    """Whether the outer ellipsoid contains the inner one.

    Containment reverses the shape order: ``E(A) ⊆ E(B)`` exactly when
    ``A`` dominates ``B``, so the inner shape must dominate the outer one.
    """
    if outer.dim != inner.dim:
        raise DimensionMismatchError(f"dims {outer.dim} vs {inner.dim}")
    return loewner_compare(inner.shape, outer.shape).is_ge


def membership(x, e: Ellipsoid) -> tuple[Membership, float]:
    """Classify a point against an ellipsoid, returning the quadratic value.

    Values within ``DEFAULT_TOL`` of one count as the boundary.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (e.dim,):
        raise DimensionMismatchError(f"point has shape {x.shape}, expected ({e.dim},)")
    value = float(x @ e.shape.data @ x)
    if value < 1.0 - DEFAULT_TOL:
        return Membership.INTERIOR, value
    if value <= 1.0 + DEFAULT_TOL:
        return Membership.BOUNDARY, value
    return Membership.OUTSIDE, value


def kahan_interpose(sigma1: Ellipsoid, sigma2: Ellipsoid, target: Ellipsoid) -> float | None:
    """Smallest convex weight interposing the target, or ``None`` when none does.

    ``a`` interposes when ``lambda_max(T - a*S1 - (1-a)*S2) <= tol``, with
    ``tol = DEFAULT_TOL * tol_scale(max |S1|, |S2|, |T|)``: that is convex
    in ``a``, so from the weight :func:`linalg.first_feasible_weight` finds
    from ``a = 0``, the answer is :func:`linalg.feasible_weight_end` towards
    0, exactly 0.0 when ``a = 0`` interposes.
    """
    if not (sigma1.dim == sigma2.dim == target.dim):
        raise DimensionMismatchError("ellipsoid dimensions differ")
    s1, s2, st = sigma1.shape.data, sigma2.shape.data, target.shape.data
    tol = DEFAULT_TOL * tol_scale(max(np.abs(s1).max(), np.abs(s2).max(), np.abs(st).max()))
    dm = s2 - s1, np.zeros_like(st)

    def m(a: float) -> np.ndarray:
        return st - a * s1 - (1.0 - a) * s2

    inside = first_feasible_weight(m, lambda a: dm, tol, 0.0)
    return None if inside is None else feasible_weight_end(m, tol, inside, 0.0)


def _householder_to(a_unit: np.ndarray, b_unit: np.ndarray) -> np.ndarray:
    """Deterministic orthogonal map sending one unit vector onto another."""
    diff = a_unit - b_unit
    nrm = np.linalg.norm(diff)
    if nrm < 1e-14:
        return np.eye(a_unit.size)
    u = diff / nrm
    return np.eye(a_unit.size) - 2.0 * np.outer(u, u)


def _membership_value(problem: FusionProblem, p12: np.ndarray, x: np.ndarray) -> float:
    """Quadratic form of x under the optimal fused information for this cross."""
    p1 = problem.est1.p_hat.data
    p2 = problem.est2.p_hat.data
    joint = np.block([[p1, p12], [p12.T, p2]])
    w = inv_pd(joint)
    z = problem.h_stacked @ x
    return float(z @ w @ z)


def _covering(problem: FusionProblem, x: np.ndarray) -> np.ndarray:
    # requires p2 >= p1 so the first normalized direction can be zero-padded
    est1, est2 = problem.est1, problem.est2
    w_vec = est1.p_inv_sqrt @ (est1.h @ x)
    v_vec = est2.p_inv_sqrt @ (est2.h @ x)
    q1 = float(w_vec @ w_vec)
    q2 = float(v_vec @ v_vec)
    if q2 == 0.0 and q1 == 0.0:
        return np.zeros((problem.p1, problem.p2))
    if q2 == 0.0:
        raise DegenerateDirectionError("second observation of x vanishes")
    if q1 == 0.0:
        return np.zeros((problem.p1, problem.p2))
    w_pad = np.zeros(problem.p2)
    w_pad[: problem.p1] = w_vec
    u = _householder_to(v_vec / np.sqrt(q2), w_pad / np.sqrt(q1))
    u1 = u[: problem.p1, :]
    base = est1.p_sqrt @ u1 @ est2.p_sqrt
    if abs(q1 - q2) <= EQUAL_FORMS_RTOL * max(q1, q2):
        # (near-)equal quadratic forms: the scaled construction collapses,
        # so start from a zero cross covariance and halve the back-off from
        # the boundary until the point is covered
        for k in range(60):
            p12 = (1.0 - 0.5**k) * base
            if _membership_value(problem, p12, x) < 1.0:
                return p12
        raise InternalInconsistencyError("perturbed covering failed to converge")
    lam = np.sqrt(min(q1, q2) / max(q1, q2))
    return lam * base


def covering_cross_cov(x, problem: FusionProblem) -> np.ndarray:
    """Cross covariance whose optimal fusion covers the given interior point.

    The returned ``P12`` makes the joint of the problem's two covariances
    strictly PD and places ``x`` inside the fused error ellipsoid.  The point
    must be strictly interior to the intersection of the two prior
    ellipsoids (margin ``INTERIOR_MARGIN``); the construction internally
    swaps the estimates so the second block is at least as wide as the first,
    which leaves the fused ellipsoid unchanged.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (problem.n,):
        raise DimensionMismatchError(f"x has shape {x.shape}, expected ({problem.n},)")
    q1 = float(x @ problem.sigma1 @ x)
    q2 = float(x @ problem.sigma0 @ x)
    if q1 > 1.0 - INTERIOR_MARGIN or q2 > 1.0 - INTERIOR_MARGIN:
        raise NotInteriorError(
            f"point is not strictly interior (values {q1:.6g}, {q2:.6g})"
        )
    if problem.p2 >= problem.p1:
        return _covering(problem, x)
    return _covering(problem.swapped(), x).T


def prior_ellipsoids(problem: FusionProblem) -> tuple[Ellipsoid, Ellipsoid]:
    """The two prior error ellipsoids of a fusion problem in state space."""
    return Ellipsoid(problem.sigma1), Ellipsoid(problem.sigma0)
