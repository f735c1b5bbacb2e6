"""Dense symmetric-matrix primitives.

Everything spectral funnels through ``numpy.linalg.eigh`` so that ordering
comparisons, PSD certification, square roots, pseudo-inverses and adjugates
share one audited kernel.  Matrices here are small and dense (state
dimensions of a few dozen at most).  The package's two PSD tolerances,
``DEFAULT_TOL`` and ``DEFAULT_CERT_TOL``, are named here, and every
magnitude they are scaled by goes through :func:`tol_scale`.  So is the
package's one search over a convex weight function,
:func:`first_feasible_weight`.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    NotPdError,
    NotPsdError,
)

#: PSD certification and the semidefinite order accept eigenvalues down to
#: ``-DEFAULT_TOL * tol_scale(|lambda|_max)``
DEFAULT_TOL = 1e-9
#: absolute tolerance on largest eigenvalues in the conservativeness
#: verdicts, scaled by the fused covariance's largest diagonal entry
DEFAULT_CERT_TOL = 1e-8
#: eigenvalues below PINV_RTOL * |lambda|_max count as zero in pseudo-inverses
PINV_RTOL = 1e-12
#: relative threshold below which a symmetric matrix counts as singular
SINGULAR_RTOL = 1e-12
#: the weight searches stop when their bracket is this narrow
PETERSEN_WIDTH = 1e-12


def tol_scale(magnitude: float) -> float:
    """``max(1, magnitude)``, the factor every tolerance is multiplied by."""
    return max(1.0, magnitude)


def _square(entries) -> np.ndarray:
    a = np.array(entries, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


class SymMatrix:
    """A real symmetric matrix.

    ``(A + A.T) / 2`` is applied on construction, silently healing the
    floating-point asymmetry that matrix products accumulate.  The backing
    array is frozen, so instances are safe to share between threads.
    """

    __slots__ = ("data",)

    def __init__(self, entries):
        a = _square(entries)
        a = 0.5 * (a + a.T)
        a.flags.writeable = False
        self.data = a

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:
        return f"SymMatrix(dim={self.dim})"


class PsdMatrix:
    """A symmetric matrix with a certified smallest eigenvalue.

    Build instances through :func:`psd_certify`; ``strict`` records whether
    the certificate established positive definiteness.
    """

    __slots__ = ("base", "min_eig", "strict")

    def __init__(self, base: SymMatrix, min_eig: float, strict: bool):
        self.base = base
        self.min_eig = float(min_eig)
        self.strict = bool(strict)

    @property
    def data(self) -> np.ndarray:
        return self.base.data

    @property
    def dim(self) -> int:
        return self.base.dim

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

    @property
    def is_le(self) -> bool:
        return self in (
            LoewnerRelation.STRICTLY_LESS,
            LoewnerRelation.LESS_EQUAL,
            LoewnerRelation.EQUAL,
        )


def sym_data(m) -> np.ndarray:
    """Raw symmetric ndarray from a SymMatrix, PsdMatrix or array-like."""
    if isinstance(m, PsdMatrix):
        return m.base.data
    if isinstance(m, SymMatrix):
        return m.data
    a = _square(m)
    return 0.5 * (a + a.T)


def loewner_compare(a, b, tol: float = DEFAULT_TOL) -> LoewnerRelation:
    """Classify A versus B in the semidefinite matrix order.

    The spectrum of ``A - B`` decides the variant: all eigenvalues above
    ``tol * scale`` mean strictly greater, all above ``-tol * scale`` mean
    greater-or-equal, mixed signs beyond tolerance mean incomparable, with
    the mirrored cases for the less variants.  Equality is spectral
    (``max |eig(A - B)| <= tol * scale``), which for symmetric matrices also
    bounds every entry of the difference.  ``scale`` is
    ``tol_scale(max(|A|_max, |B|_max))``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    da = sym_data(a)
    db = sym_data(b)
    if da.shape != db.shape:
        raise DimensionMismatchError(f"shape {da.shape} vs {db.shape}")
    eigs = np.linalg.eigvalsh(da - db)
    bound = tol * tol_scale(max(np.abs(da).max(), np.abs(db).max()))
    lo, hi = eigs[0], eigs[-1]
    if max(abs(lo), abs(hi)) <= bound:
        return LoewnerRelation.EQUAL
    if lo > bound:
        return LoewnerRelation.STRICTLY_GREATER
    if hi < -bound:
        return LoewnerRelation.STRICTLY_LESS
    if lo >= -bound:
        return LoewnerRelation.GREATER_EQUAL
    if hi <= bound:
        return LoewnerRelation.LESS_EQUAL
    return LoewnerRelation.INCOMPARABLE


def psd_certify(a) -> PsdMatrix:
    """Certify PSD membership, or raise :class:`NotPsdError`.

    Accepts a minimum eigenvalue down to ``-bound`` where
    ``bound = DEFAULT_TOL * tol_scale(|lambda|_max)``; the ``strict`` flag
    marks matrices with the minimum eigenvalue above ``+bound`` (positive
    definite).
    """
    sym = a if isinstance(a, SymMatrix) else SymMatrix(sym_data(a))
    eigs = np.linalg.eigvalsh(sym.data)
    bound = DEFAULT_TOL * tol_scale(float(np.abs(eigs).max()))
    min_eig = float(eigs[0])
    if min_eig < -bound:
        raise NotPsdError(min_eig)
    return PsdMatrix(sym, min_eig, strict=min_eig > bound)


def sqrt_psd(a: PsdMatrix) -> SymMatrix:
    """Symmetric PSD square root via eigendecomposition.

    Negative eigenvalues inside the certification tolerance are clamped to
    zero before taking the root.
    """
    w, v = np.linalg.eigh(a.data)
    w = np.clip(w, 0.0, None)
    return SymMatrix((v * np.sqrt(w)) @ v.T)


def inv_sqrt_pd(a: PsdMatrix) -> np.ndarray:
    """Inverse symmetric square root of a strictly PD matrix."""
    if not a.strict:
        raise NotPdError("inverse square root needs a strictly PD matrix")
    w, v = np.linalg.eigh(a.data)
    return (v / np.sqrt(w)) @ v.T


def inv_pd(a) -> np.ndarray:
    """Inverse of a PD matrix through its Cholesky factor."""
    m = sym_data(a)
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPdError(f"Cholesky failed: {exc}") from exc
    linv = np.linalg.solve(chol, np.eye(m.shape[0]))
    out = linv.T @ linv
    return 0.5 * (out + out.T)


def pinv_sym(a) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a symmetric matrix.

    Eigenvalues with magnitude below ``PINV_RTOL * |lambda|_max`` are
    treated as exact zeros.
    """
    w, v = np.linalg.eigh(sym_data(a))
    return (v * _pinv_eigs(w)) @ v.T


def _pinv_eigs(w: np.ndarray) -> np.ndarray:
    """Pseudo-inverted eigenvalues: ``1 / w``, or 0 below ``PINV_RTOL * |w|_max``."""
    keep = np.abs(w) > PINV_RTOL * np.abs(w).max()
    winv = np.zeros_like(w)
    winv[keep] = 1.0 / w[keep]
    return winv


def _det2(m) -> float:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _det3(m) -> float:
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def _det_small(m) -> float:
    d = m.shape[0]
    if d == 0:
        return 1.0
    if d == 1:
        return m[0, 0]
    if d == 2:
        return _det2(m)
    return _det3(m)


def _adjugate_cofactor(a: np.ndarray) -> np.ndarray:
    d = a.shape[0]
    out = np.empty_like(a)
    for i in range(d):
        rows = np.delete(a, i, axis=0)
        for j in range(d):
            minor = np.delete(rows, j, axis=1)
            out[j, i] = (-1) ** (i + j) * _det_small(minor)
    return out


def adjugate(a) -> SymMatrix:
    """Adjugate satisfying ``A @ adj(A) = det(A) * I``, defined at singular A.

    Dimensions up to four use exact cofactor expansion (a polynomial in the
    entries, so singular inputs are fine).  Larger matrices use
    ``det(A) * inv(A)`` when well conditioned and fall back to the spectral
    formula ``V diag(prod_{j != i} w_j) V.T`` near singularity.
    """
    m = sym_data(a)
    d = m.shape[0]
    if d == 1:
        return SymMatrix([[1.0]])
    if d <= 4:
        return SymMatrix(_adjugate_cofactor(m))
    w, v = np.linalg.eigh(m)
    amax = np.abs(w).max()
    if amax > 0.0 and np.abs(w).min() > 1e-8 * amax:
        return SymMatrix(np.linalg.det(m) * np.linalg.inv(m))
    adj_w = np.empty_like(w)
    for i in range(d):
        adj_w[i] = np.prod(np.delete(w, i))
    return SymMatrix((v * adj_w) @ v.T)


def _decided(margin: float, band: float) -> bool:
    """Whether a signed PSD margin is clearly away from the tolerance band."""
    return abs(margin) > 10.0 * band


def _cert_band(values) -> float:
    """Tolerance band of a certificate verdict on these eigenvalues or entries."""
    return DEFAULT_CERT_TOL * tol_scale(float(np.abs(values).max()))


def block_psd_check(q, s, r) -> bool:
    """Whether the block matrix ``[Q S; S.T R]`` is PSD.

    The verdict is computed twice: from the eigenvalues of the assembled
    block and from the generalized Schur-complement criterion
    ``R >= 0``, ``Q - S R^+ S.T >= 0``, ``S (I - R R^+) = 0``, each to
    ``DEFAULT_CERT_TOL`` relative to its own magnitude.  The two
    routes must agree; a disagreement with both margins clearly outside
    the tolerance band raises :class:`InternalInconsistencyError`,
    borderline cases resolve to the direct eigenvalue verdict.  Both run in
    R's eigenbasis: with ``R = V diag(w) V.T``, the block is orthogonally
    congruent to ``[Q S V; V.T S.T diag(w)]``, which has the same spectrum
    and the same Schur complement.
    """
    qd = sym_data(q)
    w, v = np.linalg.eigh(sym_data(r))
    return _block_psd_margin(qd, _coupling(s, qd, w) @ v, w)[0]


def _coupling(s, qd: np.ndarray, r_eigs: np.ndarray) -> np.ndarray:
    """The off-diagonal block ``S`` as a 2-D array, checked against ``Q`` and ``R``."""
    sd = np.atleast_2d(np.asarray(s, dtype=float))
    if sd.shape != (qd.shape[0], r_eigs.shape[0]):
        raise DimensionMismatchError(
            f"S has shape {sd.shape}, expected {(qd.shape[0], r_eigs.shape[0])}"
        )
    return sd


def _block_psd_margin(q, s, r_eigs) -> tuple[bool, float]:
    """:func:`block_psd_check` on ``[Q S; S.T diag(r_eigs)]``, and its smallest eigenvalue.

    With R diagonal, ``R^+`` is the diagonal of :func:`_pinv_eigs`, so the
    Schur route needs one ``eigvalsh`` (of ``Q - (S r^+) S.T``) besides the
    one of the assembled block, which gives the returned eigenvalue.
    """
    qd = sym_data(q)
    r_eigs = np.asarray(r_eigs, dtype=float)
    sd = _coupling(s, qd, r_eigs)
    nq, nr = qd.shape[0], r_eigs.shape[0]
    block = np.zeros((nq + nr, nq + nr))
    block[:nq, :nq] = qd
    block[:nq, nq:] = sd
    block[nq:, :nq] = sd.T
    np.fill_diagonal(block[nq:, nq:], r_eigs)

    eigs = np.linalg.eigvalsh(block)
    band = _cert_band(eigs)
    direct = bool(eigs[0] >= -band)

    r_min = float(r_eigs.min())
    r_band = _cert_band(r_eigs)
    r_ok = r_min >= -r_band
    r_pinv = _pinv_eigs(r_eigs)
    schur = qd - (sd * r_pinv) @ sd.T
    s_eigs = np.linalg.eigvalsh(0.5 * (schur + schur.T))
    s_band = _cert_band(s_eigs)
    schur_ok = bool(s_eigs[0] >= -s_band)
    resid = float(np.abs(sd * (1.0 - r_eigs * r_pinv)).max())
    resid_band = _cert_band(sd)
    resid_ok = resid <= resid_band
    schur_route = r_ok and schur_ok and resid_ok

    if direct == schur_route:
        return direct, float(eigs[0])
    clearly = _decided(eigs[0], band) and (
        (not r_ok and _decided(r_min, r_band))
        or (not schur_ok and _decided(s_eigs[0], s_band))
        or (not resid_ok and _decided(resid, resid_band))
        or schur_route
    )
    if clearly:
        raise InternalInconsistencyError(
            "block PSD criteria disagree: "
            f"direct min eig {eigs[0]:.3g}, Schur route {'PSD' if schur_route else 'not PSD'}"
        )
    return direct, float(eigs[0])


def _tangent_floor(lo_tangent, hi_tangent, lo: float, hi: float) -> tuple[float, float]:
    """Where on ``[lo, hi]`` the larger of two end tangents is least, and that value.

    A tangent is ``(alpha, f, slope)`` of a convex function at ``lo`` or ``hi``, or
    ``None`` at an unevaluated end (at most one); the value bounds it below.
    """
    if lo_tangent is None or hi_tangent is None:
        a, f, g = lo_tangent or hi_tangent
        x = lo if lo_tangent is None else hi
        return x, f + g * (x - a)
    (a1, f1, g1), (a2, f2, g2) = lo_tangent, hi_tangent
    x = min(max((f1 - f2 + g2 * a2 - g1 * a1) / (g2 - g1), lo), hi)
    return x, max(f1 + g1 * (x - a1), f2 + g2 * (x - a2))


def first_feasible_weight(m, dm, tol: float, start: float) -> float | None:
    """First weight of a safeguarded Newton search with ``lambda_max(M) <= tol``.

    ``m(alpha)`` is a symmetric matrix on ``[0, 1]`` whose ``f = lambda_max``
    is convex, or ``None`` at an end where M is infinite, which is never
    evaluated but bisected towards; ``dm(alpha)`` is ``(M', M'')``.  From
    ``start``, the sign of ``f' = v'M'v`` keeps a bracket around the
    minimiser and the next iterate is the Newton step on ``f'``, with
    ``f'' = v'M''v + 2 sum_j (v_j'M'v)^2 / (lambda_max - lambda_j)`` from
    the same ``eigh``.  A step out of the bracket goes to the unevaluated
    end it points past, else to where the end tangents cross (a kink of
    f); a bracket that did not halve in two steps is bisected.  ``None``
    once the end tangents bound ``min f`` above ``tol`` (by convexity, no
    weight qualifies) or the bracket is ``PETERSEN_WIDTH`` wide.
    """
    lo, hi = 0.0, 1.0
    lo_tangent = hi_tangent = None
    alpha = start
    older = old = math.inf  # the bracket widths two steps and one step back
    while True:
        value = m(alpha)
        if value is None:  # an end where M is infinite: bisect towards it instead
            alpha = 0.5 * (lo + hi)
            continue
        w, v = np.linalg.eigh(value)
        f, top = float(w[-1]), v[:, -1]
        if f <= tol:
            return alpha
        d1, d2 = dm(alpha)
        slope = float(top @ d1 @ top)
        if slope < 0.0:
            lo, lo_tangent = alpha, (alpha, f, slope)
        else:
            hi, hi_tangent = alpha, (alpha, f, slope)
        cut, floor = _tangent_floor(lo_tangent, hi_tangent, lo, hi)
        if hi - lo <= PETERSEN_WIDTH or floor > tol:
            return None
        with np.errstate(divide="ignore", invalid="ignore"):
            gap_term = 2.0 * np.sum((v[:, :-1].T @ d1 @ top) ** 2 / (f - w[:-1]))
            newton = alpha - slope / (float(top @ d2 @ top) + gap_term)
        halved = hi - lo <= 0.5 * older
        older, old = old, hi - lo
        if lo < newton < hi and halved:
            alpha = newton
        elif newton >= hi and hi_tangent is None:
            alpha = hi
        elif newton <= lo and lo_tangent is None:
            alpha = lo
        elif lo < cut < hi and halved:
            alpha = cut
        else:
            alpha = 0.5 * (lo + hi)


def feasible_weight_interval(m, dm, tol: float, start: float) -> tuple[float, float] | None:
    """The weights with ``lambda_max(M) <= tol``, one interval ``(lo, hi)``, or ``None``.

    From the weight :func:`first_feasible_weight` finds, each end is bisected
    on ``m`` to ``PETERSEN_WIDTH``; an end of ``[0, 1]`` that qualifies is exact.
    """
    inside = first_feasible_weight(m, dm, tol, start)
    if inside is None:
        return None

    def qualifies(alpha: float) -> bool:
        value = m(alpha)
        return value is not None and float(np.linalg.eigvalsh(value)[-1]) <= tol

    ends = []
    for end in (0.0, 1.0):
        good, bad = (end, end) if qualifies(end) else (inside, end)
        while abs(bad - good) > PETERSEN_WIDTH:
            mid = 0.5 * (good + bad)
            good, bad = (mid, bad) if qualifies(mid) else (good, mid)
        ends.append(good)
    return ends[0], ends[1]


def cross_factor(joint) -> np.ndarray:
    """Normalized cross block ``X = P1^{-1/2} P12 P2^{-1/2}`` of a joint.

    For PSD joints the largest singular value of X is at most one, strictly
    below one for PD joints; reassembling ``P1^{1/2} X P2^{1/2}`` recovers
    the cross block exactly.
    """
    p1, p2 = joint.P1, joint.P2
    if not (p1.strict and p2.strict):
        raise NotPdError("cross factorization needs strictly PD diagonal blocks")
    return inv_sqrt_pd(p1) @ np.asarray(joint.P12, dtype=float) @ inv_sqrt_pd(p2)


def assemble_cross(p1: PsdMatrix, x, p2: PsdMatrix) -> np.ndarray:
    """Inverse of :func:`cross_factor`: ``P12 = P1^{1/2} X P2^{1/2}``."""
    return sqrt_psd(p1).data @ np.asarray(x, dtype=float) @ sqrt_psd(p2).data
