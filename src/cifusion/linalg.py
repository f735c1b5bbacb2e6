"""Dense symmetric-matrix primitives.

The symmetric eigensolver (``eigvalsh``) decides the semidefinite order and
PSD certification; inverses of PD matrices go through a Cholesky factor,
and the adjugate through its cofactors, all taken in one batched
determinant.  One classification, :meth:`LoewnerRelation.from_extremes`,
turns the ends of a difference's spectrum into a semidefinite order.
Matrices here are small and dense (state dimensions of a few dozen at
most).  The package's two PSD tolerances, ``DEFAULT_TOL`` and
``DEFAULT_CERT_TOL``, are named here, and every magnitude they are scaled
by goes through :func:`tol_scale`.  So are the package's one allowance
for the rounding of a formed and decomposed matrix,
:func:`rounding_allowance`, and its one search over a convex weight
function, :func:`newton_weights`, whose caller stops it once an iterate
answers its question.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, NotPdError, NotPsdError

#: PSD certification and the semidefinite order accept eigenvalues down to
#: ``-DEFAULT_TOL * tol_scale(|lambda|_max)``
DEFAULT_TOL = 1e-9
#: absolute tolerance on largest eigenvalues in the conservativeness
#: verdicts, scaled by the fused covariance's largest diagonal entry
DEFAULT_CERT_TOL = 1e-8
#: relative threshold below which a symmetric matrix counts as singular
SINGULAR_RTOL = 1e-12
#: the weight searches stop when their bracket is this narrow
PETERSEN_WIDTH = 1e-12
#: a stored result's K1 H1 + K2 H2 must equal I, and its fused_x must equal
#: K1 x_hat1 + K2 x_hat2, to this fraction of the largest entry of
#: |K1||H1| + |K2||H2| and of |K1||x_hat1| + |K2||x_hat2|, the magnitudes
#: that bound the rounding of the two sums; an input covariance block must
#: equal its transpose to this fraction of its largest entry
RESULT_RTOL = 1e-8


def tol_scale(magnitude: float) -> float:
    """``max(1, magnitude)``, the factor every tolerance is multiplied by."""
    return max(1.0, magnitude)


def rounding_allowance(n: int, size: float) -> float:
    """``64 (n + 2)^2 eps size``: more than forming and decomposing an ``n x n`` matrix errs by.

    ``size`` bounds the norm of the matrix, as the trace of a PSD one does.
    With ``u = eps / 2`` the unit roundoff, ``eigvalsh`` is normwise
    backward stable: each value it returns lies within ``p(n) u size`` of
    an eigenvalue of the matrix it was given.  LAPACK states ``p(n)`` only
    as a modestly growing function; the a-priori analysis of Householder
    tridiagonalisation gives order ``n^2`` (Wilkinson, *The Algebraic
    Eigenvalue Problem*, ch. 3), and the allowance takes ``8 (n + 2)^2``
    for it.  The other ``120 (n + 2)^2 u size`` is left to the roundings
    that form the matrix, which each caller bounds in its own docstring.
    """
    return 64.0 * (n + 2) ** 2 * math.ulp(1.0) * size


class PsdMatrix:
    """A real symmetric matrix with a certified smallest eigenvalue.

    Build instances through :func:`psd_certify`, or, for a fused
    covariance, through :meth:`~cifusion.problem.JointSpectrum.member`,
    which gives no ``min_eig`` where the joint spectrum proves strictness.
    ``data`` is the symmetric array, frozen, so instances are safe to share
    between threads; ``strict`` records whether the certificate established
    positive definiteness.  ``min_eig`` is the smallest ``eigvalsh``
    eigenvalue of ``data``; built without one, it is computed on first
    read, the value :func:`psd_certify` would have stored.
    """

    __slots__ = ("data", "_min_eig", "strict")

    def __init__(self, data: np.ndarray, min_eig: float | None, strict: bool):
        self.data = data
        self._min_eig = None if min_eig is None else float(min_eig)
        self.strict = bool(strict)

    @property
    def min_eig(self) -> float:
        if self._min_eig is None:
            self._min_eig = float(np.linalg.eigvalsh(self.data)[0])
        return self._min_eig

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:
        kind = "PD" if self.strict else "PSD"
        return f"PsdMatrix(dim={self.dim}, min_eig={self.min_eig:.3g}, {kind})"


class LoewnerRelation(enum.Enum):
    STRICTLY_GREATER = "strictly_greater"
    GREATER_EQUAL = "greater_equal"
    EQUAL = "equal"
    LESS_EQUAL = "less_equal"
    STRICTLY_LESS = "strictly_less"
    INCOMPARABLE = "incomparable"

    @property
    def is_ge(self) -> bool:
        """A - B is PSD (possibly strictly, possibly zero)."""
        return self in (
            LoewnerRelation.STRICTLY_GREATER,
            LoewnerRelation.GREATER_EQUAL,
            LoewnerRelation.EQUAL,
        )

    @classmethod
    def from_extremes(cls, lo: float, hi: float, bound: float) -> "LoewnerRelation":
        """A versus B from the smallest and largest eigenvalues of ``A - B``.

        Both ends within ``bound`` of zero mean equal; ``lo`` above ``bound``
        strictly greater, ``hi`` below ``-bound`` strictly less; else ``lo``
        at least ``-bound`` greater-or-equal, ``hi`` at most ``bound``
        less-or-equal, and otherwise incomparable.
        """
        if max(abs(lo), abs(hi)) <= bound:
            return cls.EQUAL
        if lo > bound:
            return cls.STRICTLY_GREATER
        if hi < -bound:
            return cls.STRICTLY_LESS
        if lo >= -bound:
            return cls.GREATER_EQUAL
        if hi <= bound:
            return cls.LESS_EQUAL
        return cls.INCOMPARABLE


def sym_data(m) -> np.ndarray:
    """Raw symmetric ndarray from a PsdMatrix or a square array-like.

    A :class:`PsdMatrix` gives its frozen array as it is.  Any other input
    is averaged with its transpose once, to ``0.5 * a + 0.5 * a.T``,
    silently healing the floating-point asymmetry that matrix products
    accumulate; halving first keeps a finite matrix finite at any
    magnitude, and gives the bits of ``0.5 * (a + a.T)`` wherever that sum
    neither overflows nor underflows.  A scalar counts as 1x1, and any
    other shape that is not square raises :class:`DimensionMismatchError`.
    """
    if isinstance(m, PsdMatrix):
        return m.data
    a = np.asarray(m, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    half = 0.5 * a
    return half + half.T


def loewner_compare(a, b, tol: float = DEFAULT_TOL) -> LoewnerRelation:
    """Classify A versus B in the semidefinite matrix order.

    The ends of the spectrum of ``A - B`` decide the variant
    (:meth:`LoewnerRelation.from_extremes`, bound ``tol * scale``).
    Equality is spectral (``max |eig(A - B)| <= tol * scale``), which for
    symmetric matrices also bounds every entry of the difference.
    ``scale`` is ``tol_scale(max(|A|_max, |B|_max))``.  An operand that
    holds a NaN or an infinity raises :class:`NonFiniteError`, as no order
    can be read off its spectrum.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    da = sym_data(a)
    db = sym_data(b)
    if da.shape != db.shape:
        raise DimensionMismatchError(f"shape {da.shape} vs {db.shape}")
    if not (np.isfinite(da).all() and np.isfinite(db).all()):
        raise NonFiniteError("loewner_compare: an operand holds a NaN or an infinity")
    eigs = np.linalg.eigvalsh(da - db)
    bound = tol * tol_scale(max(np.abs(da).max(), np.abs(db).max()))
    return LoewnerRelation.from_extremes(eigs[0], eigs[-1], bound)


def psd_certify(a) -> PsdMatrix:
    """Certify PSD membership, or raise :class:`NotPsdError`.

    Accepts a minimum eigenvalue down to ``-bound`` where
    ``bound = DEFAULT_TOL * tol_scale(|lambda|_max)``, ``|lambda|_max`` read
    off the ends of the spectrum; the ``strict`` flag marks matrices with
    the minimum eigenvalue above ``+bound`` (positive definite).  A
    spectrum that is not finite (a NaN, or an infinite eigenvalue, which
    makes ``bound`` infinite) is rejected.  A :class:`PsdMatrix`'s array is
    used as it is; any other input goes through :func:`sym_data` once and
    is frozen.
    """
    data = sym_data(a)
    data.flags.writeable = False
    eigs = np.linalg.eigvalsh(data)
    min_eig = float(eigs[0])
    bound = DEFAULT_TOL * tol_scale(max(-min_eig, float(eigs[-1])))
    if not min_eig >= -bound or bound == math.inf:
        raise NotPsdError(min_eig)
    return PsdMatrix(data, min_eig, strict=min_eig > bound)


def cholesky_pd(a) -> np.ndarray:
    """Lower Cholesky factor ``L`` of a PD matrix, ``L L' = A``, or :class:`NotPdError`."""
    try:
        return np.linalg.cholesky(sym_data(a))
    except np.linalg.LinAlgError as exc:
        raise NotPdError(f"Cholesky failed: {exc}") from exc


def inv_pd(a) -> np.ndarray:
    """Inverse ``L^-T L^-1`` of a PD matrix through its lower Cholesky factor ``L``."""
    chol = cholesky_pd(a)
    linv = np.linalg.solve(chol, np.eye(chol.shape[0]))
    out = linv.T @ linv
    return 0.5 * (out + out.T)


def adjugate(a) -> np.ndarray:
    """Adjugate satisfying ``A @ adj(A) = det(A) * I``, defined at singular A.

    Every entry is a cofactor ``(-1)^(i+j) det(M_ij)``: the d*d minors are
    stacked and take one batched ``np.linalg.det`` (the empty minor of a
    1x1 matrix has determinant 1).  The result is a polynomial in the
    entries, so singular inputs are fine, and it is symmetrised like its
    input.
    """
    m = sym_data(a)
    d = m.shape[0]
    i, k = np.arange(d), np.arange(d - 1)
    rest = k + (k >= i[:, None])  # rest[i]: every index but i
    minors = m[rest[:, None, :, None], rest[None, :, None, :]]  # [i, j]: drop row i, column j
    # adj is the transposed cofactor matrix; symmetrising makes the transpose moot
    return sym_data((-1.0) ** np.add.outer(i, i) * np.linalg.det(minors))


def _tangent_floor(lo_tangent, hi_tangent, lo: float, hi: float) -> tuple[float, float]:
    """Where on ``[lo, hi]`` the larger of two end tangents is least, and that value.

    A tangent is ``(alpha, f, slope)`` of a convex function at ``lo`` or ``hi``, or
    ``None`` at an unevaluated end (at most one); the value bounds it below.  Each
    tangent's value ``f + rise``, ``rise = slope (x - alpha)``, is taken less
    ``8 eps (|f| + |rise|)``, more than the rounding of the sum: far from the
    minimiser, as at a tiny weight, f and the rise are huge and cancel, and their
    rounding alone could lift the value above ``min f``.
    """

    def below(tangent, x: float) -> float:
        a, f, g = tangent
        rise = g * (x - a)
        return f + rise - 8.0 * math.ulp(1.0) * (abs(f) + abs(rise))

    if lo_tangent is None or hi_tangent is None:
        x = lo if lo_tangent is None else hi
        return x, below(lo_tangent or hi_tangent, x)
    (a1, f1, g1), (a2, f2, g2) = lo_tangent, hi_tangent
    x = min(max((f1 - f2 + g2 * a2 - g1 * a1) / (g2 - g1), lo), hi)
    return x, max(below(lo_tangent, x), below(hi_tangent, x))


def newton_weights(m, dm, start: float):
    """Iterates of a safeguarded Newton search for the minimiser of ``f = lambda_max(M)``.

    ``m(alpha)`` is a symmetric matrix on ``[0, 1]`` whose ``f`` is convex,
    or ``None`` where M is infinite or overflows, as at an end;
    ``dm(alpha)`` is ``(M', M'')``.  A weight where M or M' is not finite
    is never evaluated but bisected towards, and it bounds the bracket on
    the side of the nearer end of ``[0, 1]``; an infinite M'' only drops
    the Newton step there.  Each evaluated
    iterate is yielded as ``(alpha, w, v, d1, floor)``: the ``eigh`` of
    ``M(alpha)``, ``M'`` there, and the lower bound on ``min f`` from the
    end tangents.  From ``start``, the sign of ``f' = v'M'v`` keeps a
    bracket around the minimiser and the next iterate is the Newton step on
    ``f'``, with
    ``f'' = v'M''v + 2 sum_j (v_j'M'v)^2 / (lambda_max - lambda_j)`` from
    the same ``eigh``.  A step out of the bracket goes to the unevaluated
    end it points past, else to where the end tangents cross (a kink of
    f).  A step is bisected instead unless it is at most half the step two
    back and moves the weight by more than half ``PETERSEN_WIDTH``: the
    step lengths, not the bracket, must shrink, so Newton keeps its
    quadratic convergence where the minimiser is approached from one side.
    The iterates end once the bracket is ``PETERSEN_WIDTH`` wide; the
    caller stops them earlier when an iterate answers its question.
    """
    lo, hi = 0.0, 1.0
    lo_tangent = hi_tangent = None
    alpha = start
    older = old = math.inf  # the step lengths two steps and one step back
    while True:
        value = m(alpha)
        d1, d2 = (None, None) if value is None else dm(alpha)
        if d1 is None or not np.isfinite(d1).all():
            # as at an end where M is infinite: bisect towards it instead
            if alpha < 0.5:
                lo = max(lo, alpha)
            else:
                hi = min(hi, alpha)
            if hi - lo <= PETERSEN_WIDTH:
                return
            alpha = 0.5 * (lo + hi)
            continue
        w, v = np.linalg.eigh(value)
        f, top = float(w[-1]), v[:, -1]
        slope = float(top @ d1 @ top)
        if slope < 0.0:
            lo, lo_tangent = alpha, (alpha, f, slope)
        else:
            hi, hi_tangent = alpha, (alpha, f, slope)
        cut, floor = _tangent_floor(lo_tangent, hi_tangent, lo, hi)
        yield alpha, w, v, d1, floor
        if hi - lo <= PETERSEN_WIDTH:
            return
        # an overflowing f'' gives a zero Newton step, which the cut or bisection replaces
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gap_term = 2.0 * np.sum((v[:, :-1].T @ d1 @ top) ** 2 / (f - w[:-1]))
            newton = alpha - slope / (float(top @ d2 @ top) + gap_term)
        newton_ok, cut_ok = (0.5 * PETERSEN_WIDTH < abs(x - alpha) <= 0.5 * older
                             for x in (newton, cut))
        if lo < newton < hi and newton_ok:
            step = newton
        elif newton >= hi and hi_tangent is None:
            step = hi
        elif newton <= lo and lo_tangent is None:
            step = lo
        elif lo < cut < hi and cut_ok:
            step = cut
        else:
            step = 0.5 * (lo + hi)
        older, old = old, abs(step - alpha)
        alpha = step

