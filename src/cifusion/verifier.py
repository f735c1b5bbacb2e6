"""Numerical certification that a fusion output stays conservative.

Four routes cross-validate each other: the semidefinite block certificate,
its scalar counterpart from a norm-bounded-uncertainty argument, the exact
worst admissible cross term, and Monte Carlo over admissible true joint
covariances.  By a Schur complement the block certificate holds where
``f(alpha) = lambda_max(S1/alpha + S2/(1 - alpha) - P_hat)``, convex in the
weight, is at most zero (:func:`_schur_function`, ``S_i = Q_i Q_i'`` on the
one pair ``Q_i = K_i L_i``, ``L_i`` the Cholesky factor of ``P_i``; where
every entry of a gain block is zero, ``S_i/0 = 0``, so M stays finite at
that block's zero weight; no tolerance makes a merely small block zero, as
a magnitude threshold would depend on the units).  The block certificate
takes its verdict from the assembled block and cross-checks it on that
Schur complement; where a norm bound on M proves that verdict a pass
inside the band, as at a solver's own weight, it takes no spectral call
(:func:`_schur_margin`).  One walk over the weight, :func:`_walk` on the
package's one search over f, :func:`linalg.newton_weights`, serves the
scalar certificate and the witness below: the certificate is its first
weight that certifies, and a zero gain block takes no path of its own.

By Petersen's lemma (Systems & Control Letters 8, 1987) the largest
eigenvalue of ``Q1 Q1' + Q1 X Q2' + Q2 X' Q1' + Q2 Q2' - P_hat`` over cross
parameters ``X`` of spectral norm at most one is ``min f``, and a rank-one
``X*`` attains it: :func:`adversarial_x_search` builds ``X*`` from a top
eigenvector at the minimiser of f, which the same walk finds, and
returns the largest eigenvalue of that one sample.  Monte Carlo samples
true joints with full prior blocks and cross parameters of norm below one,
the joints every admissible joint lies below, so its value cannot exceed
``min f`` beyond rounding, and :func:`certify` raises
:class:`InternalInconsistencyError` when it does.  It runs on the kernel
:func:`_worst_violation`, which takes each cross parameter as factors
``A B'`` and never forms it: the cross term is ``C + C'`` with
``C = (Q1 A)(Q2 B)'``, and every product it forms is a matrix product
``@``, which BLAS runs.  Monte Carlo draws rank-one cross parameters
``X = r a b'`` from unit Gaussian directions (:func:`_draw_cross`,
:func:`monte_carlo_joint`), so every drawn sample is a rank-two update
``B + c d' + d c'`` of one matrix ``B = Q1 Q1' + Q2 Q2' - P_hat``, and the
draws are kept as ``n x samples`` factor arrays.
Every route reads ``Q_i``, ``S_i`` and ``B`` from one value per result,
:class:`_Gains`, which forms each on first read: the block certificate
builds it and keeps it, and :func:`certify` hands it on to the walk and
from the walk to Monte Carlo, so a result is judged on arrays formed once,
and a solved result on those its solve's certificate formed.
:func:`_worst_sample` takes its threshold from the heads, the fixed
extremes the sampler passes.  It decides most samples from their factors
by one Cholesky factorisation and a closed-form test per sample
(:func:`_undecided`), and forms and decomposes only the few it cannot
drop.  Its value lies less than a proven rounding-level margin below the
largest ``eigvalsh`` value over all of them, and it lies at or below the
certificate tolerance exactly when that largest value does.
Gains so large that ``(|Q1|_F + |Q2|_F)^2 + max diag P_hat``, which bounds
every entry of ``S_i``, of ``B`` and of every sample, is past the float
range are not judged in floats (:attr:`_Gains.formable`): M counts as
overflowing at every weight, so the scalar certificate is infeasible, the
witness, its bound and Monte Carlo are ``inf`` and fail, the block
certificate skips its cross-check, and no call warns.
Each route is a pure function of its arguments and runs on the calling
thread.  A violation found by Monte Carlo is conclusive; absence of
violations is reported as "no violation found" for the sampled budget,
while the block certificate and the exact witness carry the proof.
:func:`certify` runs and judges the routes for ``cifusion verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalInconsistencyError
from .linalg import (
    DEFAULT_CERT_TOL,
    loewner_compare,
    newton_weights,
    rounding_allowance,
    tol_scale,
)
from .problem import FusionProblem

@dataclass(eq=False, slots=True)
class ConservativenessCertificate:
    """The verdict of :func:`lmi_certificate` on one result at one weight.

    ``route`` names what decided it: ``"schur"``, the norm bound of
    :func:`_schur_margin`, which only passes, or ``"eigvalsh"``, the
    block's own spectrum.  ``margin`` is the Schur route's proven bound on
    ``|lmi_min_eig|`` over the band's floor, a unit-free number at most 1,
    and ``None`` on the other route.  ``lmi_min_eig`` is the smallest
    ``eigvalsh`` eigenvalue of the block; on the Schur route it is computed
    on first read, from the same block and call, so it has the same bits,
    as :attr:`PsdMatrix.min_eig <cifusion.linalg.PsdMatrix.min_eig>` does.
    Certificates compare equal where all five values do.  The certificate
    keeps the result's :class:`_Gains`, which :func:`certify` hands on to
    the walk and Monte Carlo, so a solved result forms each array once.
    """

    alpha: float
    passed: bool
    route: str
    margin: float | None = None
    _min_eig: float | None = field(default=None, repr=False)  # computed on first read if None
    _gains: _Gains | None = field(default=None, repr=False)

    @property
    def lmi_min_eig(self) -> float:
        if self._min_eig is None:
            self._min_eig = float(np.linalg.eigvalsh(_lmi_block(self._gains, self.alpha))[0])
        return self._min_eig

    def _key(self) -> tuple:
        return self.alpha, self.lmi_min_eig, self.passed, self.route, self.margin

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConservativenessCertificate):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True)
class CertificateRow:
    """One route's verdict in :func:`certify`, and the ``measure`` and value it was judged by."""

    name: str
    passed: bool
    measure: str
    value: float | str | None  # a Loewner relation's name, or None: scalar certificate infeasible


def q_pair(result, problem: FusionProblem) -> tuple[np.ndarray, np.ndarray]:
    """Scaled gain blocks ``Q1 = K1 L1`` and ``Q2 = K2 L2``, ``L_i`` the Cholesky factor of ``P_i``.

    The certificates depend on ``P_i`` only through ``Q_i Q_i' = K_i P_i K_i'``,
    so any factor ``F_i F_i' = P_i`` serves.  ``L_i = P_i^{1/2} U_i`` for an
    orthogonal ``U_i``, so the block of :func:`lmi_certificate` is
    orthogonally congruent to the one built on the symmetric roots: the same
    spectrum up to rounding, and the same Schur complement, so the exact
    witness of :func:`adversarial_x_search` takes the same value up to
    rounding.  Monte Carlo sees ``X`` through ``Q1 X Q2'``, and the law of
    ``X`` is invariant under ``X -> U1 X U2'``, so its verdict does not
    depend on the factor either; its ``worst=`` value on a given seed does.
    The routes call it through :class:`_Gains`, once per result judged.
    """
    return result.K1 @ problem.est1.p_chol, result.K2 @ problem.est2.p_chol


class _Gains:
    """The arrays every route judges one result on, each formed at most once.

    ``q1`` and ``q2`` are :func:`q_pair`'s blocks and ``p_hat`` the
    result's ``P_hat``; the Grams ``s1 = Q1 Q1'`` and ``s2 = Q2 Q2'``,
    ``base``, ``B = S1 + S2 - P_hat``, and the verdict ``formable`` are
    formed on first read and kept, so a route that reads none of them forms
    none.  :func:`lmi_certificate` builds one per result and its
    certificate keeps it; :func:`certify` hands it to :func:`_walk`, and
    the walk's to :func:`monte_carlo_joint`; a route called alone builds
    its own.  The routes read these arrays and never write them.  Callers
    on two threads that share one may both form an array on its first
    read; each is a pure function of ``q1``, ``q2`` and ``p_hat``, so both
    get the same bits.
    """

    __slots__ = ("q1", "q2", "p_hat", "_s1", "_s2", "_base", "_formable")

    def __init__(self, result, problem: FusionProblem):
        self.q1, self.q2 = q_pair(result, problem)
        self.p_hat = result.P_hat.data
        self._s1 = self._s2 = self._base = self._formable = None

    @property
    def s1(self) -> np.ndarray:
        if self._s1 is None:
            self._s1 = self.q1 @ self.q1.T
        return self._s1

    @property
    def s2(self) -> np.ndarray:
        if self._s2 is None:
            self._s2 = self.q2 @ self.q2.T
        return self._s2

    @property
    def base(self) -> np.ndarray:
        if self._base is None:
            self._base = self.s1 + self.s2 - self.p_hat
        return self._base

    @property
    def formable(self) -> bool:
        """Whether ``S_i``, ``B`` and every sample can be formed in floats.

        A sample is ``B + C + C'`` at a cross parameter of norm at most one,
        and each entry of ``S_i``, of ``B`` and of a sample, and each
        partial sum that forms it, is at most
        ``F = (|Q1|_F + |Q2|_F)^2 + max diag P_hat``: an entry of ``C`` is
        at most ``|Q1|_F |Q2|_F``, and a PSD ``P_hat`` has its largest
        entries on its diagonal.  So none of them overflows where ``F``,
        with ``2^-20`` of it more for the rounding of all these sums, is
        finite.  ``F`` is taken in Python floats, on ``vdot``, both of
        which overflow to ``inf`` without a warning, so nothing here warns.
        """
        if self._formable is None:
            f1, f2 = (math.sqrt(float(np.vdot(q, q))) for q in (self.q1, self.q2))
            bound = (f1 + f2) * (f1 + f2) + max(self.p_hat.diagonal().tolist())
            self._formable = bound * (1.0 + 2.0 ** -20) < math.inf
        return self._formable


def lmi_certificate(
    result, problem: FusionProblem, alpha: float
) -> ConservativenessCertificate:
    """PSD certificate on the block ``[P, Q1, Q2; Q1', aI, 0; Q2', 0, (1-a)I]``.

    The Schur route comes first: where :func:`_schur_margin` proves that
    the block's smallest ``eigvalsh`` value lies within the band, so that
    the path below would pass it with a margin too small for the
    cross-check, the certificate passes on the route ``"schur"`` with no
    spectral call, and its ``lmi_min_eig`` is that value, computed on first
    read.  At a CI family member's own weight M vanishes up to rounding, so
    a solver's result takes this route: on the benchmark's solve pools and
    verify files its proven bound is at most 0.06 of the band's floor.
    Anything the bound leaves undecided takes the path below, on the route
    ``"eigvalsh"``, so no verdict, value or raise differs from that path's.
    Both routes read the result's :class:`_Gains`, built here, and the
    certificate keeps it for :func:`certify`.

    The verdict and the recorded smallest eigenvalue come from one
    ``eigvalsh`` of the assembled block: it passes when that eigenvalue is
    at least ``-DEFAULT_CERT_TOL * tol_scale`` of the larger end of the
    spectrum, and a failed certificate is returned, not raised.  The Schur
    complement ``M`` of :func:`_schur_function` cross-checks the verdict:
    the block is PSD exactly where ``lambda_max(M) <= 0``, judged to the
    same relative band.  Where M is infinite, a nonzero gain block at its
    zero weight, however small the block, that route fails without a test:
    the block then has a zero diagonal entry with a nonzero coupling, so
    its smallest eigenvalue is at most zero and the direct route cannot
    clearly pass.  Where M overflows, next to such a weight, or cannot be
    formed (:attr:`_Gains.formable`), the cross-check is skipped.  A
    disagreement with both margins clearly outside their bands, by more
    than ten times each band, raises :class:`InternalInconsistencyError`;
    otherwise the direct verdict stands.  So M is formed and decomposed
    only when the block's margin is decided, the one case in which the
    cross-check can raise, and skipping it elsewhere changes no return
    value and no raise.  A stored or overridden result with a clear
    margin gets there.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha={alpha} outside [0, 1]")
    gains = _Gains(result, problem)
    margin = _schur_margin(gains, alpha)
    if margin <= 1.0:
        return ConservativenessCertificate(float(alpha), True, "schur", margin, _gains=gains)
    eigs = np.linalg.eigvalsh(_lmi_block(gains, alpha))
    lowest = float(eigs[0])
    band = DEFAULT_CERT_TOL * tol_scale(max(-lowest, float(eigs[-1])))
    passed = lowest >= -band
    # an undecided margin stands whatever M says, so M is formed only past it
    m = _schur_function(gains)[0](alpha) if abs(lowest) > 10.0 * band and gains.formable else None
    if m is not None:
        m_eigs = np.linalg.eigvalsh(m)
        top = float(m_eigs[-1])
        m_band = DEFAULT_CERT_TOL * tol_scale(max(top, -float(m_eigs[0])))
        schur = top <= m_band
        if schur != passed and (schur or abs(top) > 10.0 * m_band):
            raise InternalInconsistencyError(
                f"LMI routes disagree: block min eig {lowest:.3g}, "
                f"Schur complement max eig {top:.3g}"
            )
    return ConservativenessCertificate(float(alpha), passed, "eigvalsh", None, lowest, gains)


def _lmi_block(gains: _Gains, alpha: float) -> np.ndarray:
    """The block ``[P_hat, Q1, Q2; Q1', aI, 0; Q2', 0, (1-a)I]`` of :func:`lmi_certificate`."""
    n, p1 = gains.q1.shape
    block = np.diag(np.repeat([0.0, alpha, 1.0 - alpha], [n, p1, gains.q2.shape[1]]))
    block[:n, :n] = gains.p_hat
    block[:n, n:] = np.hstack([gains.q1, gains.q2])
    block[n:, :n] = block[:n, n:].T
    return block


def _schur_margin(gains: _Gains, alpha: float) -> float:
    """A proven bound on ``|lambda|`` for the block's smallest ``eigvalsh`` value, over the band's floor.

    At most 1 proves that :func:`lmi_certificate`'s ``eigvalsh`` path
    would find its smallest value ``lowest`` with ``|lowest| <= band``: it
    would pass, with a margin too small to run the Schur cross-check.
    Above 1, or ``inf`` or NaN, decides nothing.  M is formed once, with
    ``b = 1 - a`` as the block holds it, ``S_i = Q_i Q_i'`` and
    ``M = S1/a + S2/b - P_hat``; a gain block that is exactly zero at its
    zero weight is left out (else M is infinite there, and nothing is
    decided); ``S_i`` is read from ``gains``.  With ``F`` the computed
    ``sqrt(vdot(M, M))``, ``T`` the computed ``|Q1|_F^2/a + |Q2|_F^2/b``
    over the blocks kept, ``p = max(p1, p2)``, ``N = n + p1 + p2`` and ``u`` the unit roundoff,
    half the machine epsilon ``eps``, the bound is
    ``F + (p + n^2 + 8) eps (F + T) + rho``, ``rho`` of step (iv), and the
    floor is that of step (v).  The proof, for the block ``B`` that
    :func:`_lmi_block` forms exactly from the same arrays:

    (i) ``lambda_min(B) >= -max(0, lambda_max(M))``.  With ``D = diag(aI,
        bI)`` positive definite and ``m = max(0, lambda_max(M))``, ``B + mI``
        has ``D + mI`` positive definite and Schur complement
        ``P_hat + mI - Q (D + mI)^-1 Q' >= mI - M >= 0``, ``Q = [Q1, Q2]``,
        so it is PSD.  A gain block that is exactly zero at its zero
        weight gives exactly zero rows and columns of ``B``; they add the
        eigenvalue 0 and leave the rest of ``B``, to which this applies.
    (ii) ``lambda_min(B) <= max(0, -M_ii)``: at ``x = [e_i; -D^-1 Q' e_i]``,
        ``|x| >= 1``, the Rayleigh quotient is ``-M_ii / |x|^2``.  So
        ``|lambda_min(B)| <= |M|_2``: the margin is never decided in
        either direction.
    (iii) Rounding.  Each entry of the computed ``S_i`` errs by
        ``gamma_p (|Q_i| |Q_i|')_jk`` (Higham, *Accuracy and Stability of
        Numerical Algorithms*, 2nd ed., (3.5)), and
        ``| |Q_i| |Q_i|' |_2 <= |Q_i|_F^2``; the division, the sum and the
        difference each round once more, the difference by ``u |M|``
        entrywise, so the computed M is within ``gamma_(p+3) T + u |M|_F``
        of M in norm, and ``vdot`` and ``sqrt`` give ``F`` within
        ``(n^2 + 2) u`` relative of ``|computed M|_F``.  Gradual underflow
        adds at most ``n p 2^-1074``, and the rounding of ``T`` and of the
        bound itself is relative; the constant is twice what these need.
        So ``|M|_2 <= F + (p + n^2 + 8) eps (F + T)``.
    (iv) ``eigvalsh``'s backward error on ``B``: each value it returns
        lies within ``rho = rounding_allowance(N, 2 (T + F + 1))`` of the
        eigenvalue of ``B`` in its place (see
        :func:`~cifusion.linalg.rounding_allowance`), as
        ``|B|_2 <= |P_hat|_2 + |Q|_2 + 1`` and ``P_hat = S1/a + S2/b - M``
        put ``|B|_2`` below ``2 (T + F + 1)`` up to rounding, with room to
        spare.  So ``|lowest| <= |M|_2 + rho``, the bound.
    (v) The band: ``lambda_max(B) >= max diag P_hat``, so the largest
        value ``eigvalsh`` returns is at least ``max diag P_hat - rho``,
        and the band ``DEFAULT_CERT_TOL * tol_scale`` of the larger end of
        the spectrum is at least the floor ``DEFAULT_CERT_TOL *
        tol_scale(max diag P_hat - rho)``; ``rho``, sixteen times the
        backward error it stands for in (iv), exceeds the rounding of that
        difference and of the ratio, as ``2 (T + F + 1)`` bounds
        ``max diag P_hat`` and ``F``.

    The bound is taken only where ``T`` and the largest diagonal entry of
    ``P_hat`` sum below ``2^1000``, so nothing formed here overflows, as
    each entry of ``S_i`` is at most ``|Q_i|_F^2``; ``vdot`` may overflow
    to ``inf``, which decides nothing.  No call here warns.
    """
    beta = 1.0 - alpha
    q1, q2, p_hat = gains.q1, gains.q2, gains.p_hat
    if not alpha and q1.any() or not beta and q2.any():
        return math.inf  # a nonzero gain block at its zero weight
    # a block at its zero weight is zero, and drops out; the other's weight is 1
    size = (float(np.vdot(q1, q1)) / alpha if alpha else 0.0) \
        + (float(np.vdot(q2, q2)) / beta if beta else 0.0)
    top = max(p_hat.diagonal().tolist())
    if not size + top < 2.0 ** 1000:
        return math.inf
    m = (gains.s1 / alpha if alpha else 0.0) + (gains.s2 / beta if beta else 0.0) - p_hat
    frob = math.sqrt(float(np.vdot(m, m)))
    (n, p1), p2 = q1.shape, q2.shape[1]
    rho = rounding_allowance(n + p1 + p2, 2.0 * (size + frob + 1.0))
    bound = frob + (max(p1, p2) + n * n + 8) * math.ulp(1.0) * (frob + size) + rho
    return bound / (DEFAULT_CERT_TOL * tol_scale(top - rho))


def _schur_function(gains: _Gains):
    """``m`` and ``dm`` of ``M = S1/alpha + S2/(1 - alpha) - P_hat`` for the weight search.

    ``S_i = Q_i Q_i'``, read from ``gains``; as in a generalized Schur complement, ``S_i/0``
    is 0 when every entry of ``Q_i`` is zero, else M is infinite, however small ``Q_i``.
    ``m`` gives ``None`` wherever M is infinite or overflows, and ``dm``'s ``(M', M'')`` may
    hold infinities near such a weight; neither warns.  The caller makes sure that ``S_i``
    can be formed (:attr:`_Gains.formable`).
    """
    zero = np.zeros(gains.p_hat.shape)
    s1, s2 = (s if q.any() else None for q, s in ((gains.q1, gains.s1), (gains.q2, gains.s2)))

    def over(s, t):
        return zero if s is None else s / t

    def m(alpha: float):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            value = over(s1, alpha) + over(s2, 1.0 - alpha) - gains.p_hat
        return value if np.isfinite(value).all() else None

    def dm(alpha: float):
        a, b = alpha, 1.0 - alpha
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return over(s2, b**2) - over(s1, a**2), 2.0 * (over(s1, a**3) + over(s2, b**3))

    return m, dm


def _extreme_cross_direction(q1: np.ndarray, q2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factors ``(U, V)`` of the aligned orthogonal-factor extreme ``U V'``.

    ``U S V'`` is the thin SVD of ``Q1.T Q2``, so each factor has
    ``min(p1, p2)`` columns.
    """
    u, _, vt = np.linalg.svd(q1.T @ q2, full_matrices=False)
    return u, vt.T


def _worst_violation(
    q1: np.ndarray, q2: np.ndarray, base: np.ndarray,
    head_a: np.ndarray, head_b: np.ndarray, a: np.ndarray, b: np.ndarray,
    tol: float = np.inf,
) -> float:
    """Largest eigenvalue of ``base + C + C'`` over heads and draws, ``base`` of :class:`_Gains`.

    With ``base = Q1 Q1' + Q2 Q2' - P_hat``, which the caller forms, this
    is the fused error covariance, less ``P_hat``, of the joint whose
    diagonal blocks factor as ``Q Q'`` and whose cross block is
    ``Q1 X Q2'``, ``X = A B'``; ``C = (Q1 A)(Q2 B)'``, so no ``X`` is
    formed.  The heads stack their factors ``h x p x k`` with ``k`` fixed,
    and are formed as matrices.  The draws are rank one, ``a`` and ``b`` of
    shape ``p x S``, so each draw is the rank-two update
    ``base + c d' + d c'`` of the caller's ``base``, with ``c = Q1 a`` and
    ``d = Q2 b``; :func:`_worst_sample` decides them from these factors,
    exactly against the decision level ``tol``.  Every sample adds its
    cross term to the one ``base``, so draws that differ only in a zero
    cross term are bitwise equal.  Every product is a matrix product ``@``,
    which BLAS runs, the heads' as one stacked product.  The caller makes
    sure they cannot overflow (:attr:`_Gains.formable`).
    """
    cross = (q1 @ head_a) @ np.swapaxes(q2 @ head_b, 1, 2)
    heads = base + cross
    heads += np.swapaxes(cross, 1, 2)
    return _worst_sample(base, heads, q1 @ a, q2 @ b, tol)


def _sample_stack(base: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The samples ``base + c d' + d c'``, one per column of the factors.

    ``c`` and ``d`` are ``n x S``; the stack is ``S x n x n``.  Entry
    ``(i, j)`` of sample ``s`` is ``(base_ij + c_is d_js) + c_js d_is``,
    formed elementwise in that order, so a sample's matrix has the same
    bits whichever other columns are formed with it.
    """
    cross = c.T[:, :, None] * d.T[:, None, :]
    stack = base + cross
    stack += np.swapaxes(cross, 1, 2)
    return stack


def _worst_sample(
    base: np.ndarray, heads: np.ndarray, c: np.ndarray, d: np.ndarray, tol: float = np.inf,
) -> float:
    """Largest ``eigvalsh`` eigenvalue over ``heads`` and the samples of :func:`_sample_stack`.

    Few samples are formed, so the value may lie below the dense maximum,
    the largest ``eigvalsh`` value over every head and sample, but by less
    than a proven margin ``rho``, and it is at most the decision level
    ``tol`` exactly when the dense maximum is.  The heads, of which there
    must be at least one, are decomposed first, and their largest value is
    the threshold ``v``; Monte Carlo passes two heads at the extremes that
    Petersen's lemma points to, so ``v`` lies close to the sampled maximum.
    With ``rho = 2 delta``, ``delta`` the margin of
    :func:`_undecided` at ``v``, that function proves most samples to lie
    below the ceiling ``v + rho``, or below ``min(v + rho, tol)`` when
    ``v <= tol``, and only the rest are formed.  The value returned is the
    largest ``eigvalsh`` value over the heads and the formed samples, so:

    - It is at most the dense maximum, and as no dropped sample reaches
      the ceiling, the dense maximum lies below ``v + rho``, hence below
      the value plus ``rho``.
    - It is at most ``tol`` exactly when the dense maximum is: with
      ``v <= tol`` no sample above ``tol`` is dropped.

    Samples tied with ``v`` at rounding level lie about ``delta`` below
    the ceiling, so the screen drops them.  Where ``c`` or ``d`` is exactly
    zero, every sample is ``base`` (the factors are finite), and where
    ``base`` is also a head, as at an endpoint weight, where a gain block
    is zero, the heads' value is returned unscreened: there ``base`` is
    rounding alone, on which the screen's ``kappa`` test can fail and keep
    every sample.
    ``rho = 128 (n + 2)^2 eps (|v| + s)``, with ``s`` of :func:`_undecided`,
    is about ``2e-12 s`` at n = 6.  The value depends on the lower
    triangles alone, as ``eigvalsh``'s does.
    """
    tops = np.linalg.eigvalsh(heads)[:, -1]
    level = float(tops.max())
    if not (c.any() and d.any()) and (heads == base).all(axis=(1, 2)).any():
        return level
    # an overflow can only give an infinite ceiling, which keeps samples
    with np.errstate(over="ignore", invalid="ignore"):
        s = _sample_scale(base, c, d)
        ceiling = level + 2.0 * rounding_allowance(base.shape[0], abs(level) + s)
    if level <= tol:
        ceiling = min(ceiling, tol)
    keep = _undecided(base, ceiling, c, d, s)
    if not keep.any():
        return level
    left = _sample_stack(base, c[:, keep], d[:, keep])
    return float(np.append(np.linalg.eigvalsh(left)[:, -1], level).max())


def _sample_scale(base: np.ndarray, c: np.ndarray, d: np.ndarray) -> float:
    """``n (max|base| + 2 max|c| max|d|)``, above every sample's norm."""
    return base.shape[0] * (np.abs(base).max() + 2.0 * np.abs(c).max() * np.abs(d).max())


def _undecided(
    base: np.ndarray, level: float, c: np.ndarray, d: np.ndarray, s: float | None = None,
) -> np.ndarray:
    """Mask of the samples of :func:`_sample_stack` whose ``eigvalsh`` value may reach ``level``.

    The test is made on each sample ``M = base + c d' + d c'``.  ``s`` is
    :func:`_sample_scale` of ``base``, ``c`` and ``d``, which
    :func:`_worst_sample` passes so as not to form it twice.
    One Cholesky factorisation ``L L'`` of ``A = (level - delta) I - base``
    serves every sample.  With ``W`` the inverse of ``L`` by forward
    substitution and the whitened vectors ``c^ = W c`` and ``d^ = W d``, in
    exact arithmetic ``(level - delta) I - M = L (I - c^ d^' - d^ c^') L'``.
    The largest eigenvalue of ``c^ d^' + d^ c^'`` is
    ``t = sqrt(q_cc q_dd) + q_cd`` with ``q_xy = x'y``, so ``M`` lies below
    ``level - delta`` when ``t < 1``.  A sample is dropped when
    ``t < 1 - eta``, ``eta = 8 (n + 3) eps (1 + h)^3``,
    ``h = 2 |c^| |d^|``.  A NaN or infinite ``t``, as from an overflow,
    keeps the sample, and every sample is kept when the factorisation fails
    or ``kappa``, the Frobenius norm of ``|L| |W|``, exceeds ``16 (n + 2)``.
    :func:`_worst_sample` passes ``level = v + 2 delta(v)``, one margin
    above its threshold ``v``, so the factored matrix is about
    ``(v + delta) I - base``.

    With ``u`` the unit roundoff, half the machine epsilon ``eps``,
    ``gamma_k = k u / (1 - k u)``,
    ``s = n (max|base| + 2 max|c| max|d|)``, which bounds
    ``|base|_2 + 2 |c| |d|``, hence every ``|M|_2``, and
    ``T = n (|level| + delta) + s``, which bounds
    ``trace(A)``, the margin ``delta = 64 (n + 2)^2 eps (|level| + s)``
    (:func:`~cifusion.linalg.rounding_allowance` of ``|level| + s``)
    exceeds the sum of five errors, so a dropped sample's ``eigvalsh``
    value lies strictly below ``level``:

    - Each entry of a formed sample sums three terms, each rounded at most
      three times, so the matrix that ``eigvalsh`` sees is within
      ``gamma_3 s`` of ``M``.
    - ``eigvalsh`` errs by at most ``8 (n + 2)^2 u |M|_2``
      (:func:`~cifusion.linalg.rounding_allowance`).
    - Forming ``A`` rounds each diagonal entry, by at most
      ``2 u (|level| + delta) + u s``; off the diagonal ``A`` is exact.
    - If the Cholesky factorisation runs to completion,
      ``L L' = A + E`` with ``|E| <= gamma_(n+1) |L| |L'|`` (Higham,
      *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
      Thm 10.3).  By Cauchy-Schwarz
      ``(|L| |L'|)_ij <= sqrt((L L')_ii (L L')_jj)``, so
      ``|E|_2 <= gamma_(n+1) / (1 - gamma_(n+1)) trace(A)``.
    - Each column of ``W`` is exact for a perturbed factor,
      ``(L + F_j) w_j = e_j`` with ``|F_j| <= gamma_n |L|`` (Higham
      Thm 8.5), so ``|I - L W| <= gamma_n |L| |W|``, and the product errs
      by ``|x^ - W x| <= gamma_n |W| |x|``.  So ``x = L x^ + r`` with
      ``|r| <= 2 gamma_n kappa |x|``.  For a unit ``z`` and ``y = L' z``,
      ``x'z = x^'y + r'z``; putting this in
      ``z' (L L' - c d' - d c') z`` gives ``y' (I - c^ d^' - d^ c^') y`` up
      to ``8 gamma_n kappa (1 + gamma_n kappa) |c| |d|``, less than
      ``4.1 gamma_n kappa s``.

    With ``kappa <= 16 (n + 2)`` these sum to less than
    ``(n + 2)^2 u (76.4 (|level| + s) + 1.01 delta)``, which ``delta``
    exceeds while ``(n + 2)^2 u < 1e-3``, for n up to about 3e6; rounding
    in ``s`` and ``kappa`` is covered by the slack.  A margin only linear in n in front of
    ``|level|`` would not do: the Cholesky term grows like
    ``n^2 u |level|``.  Last, ``t`` itself is rounded.  Each dot product of
    whitened vectors errs by at most ``gamma_n |x^| |y^|`` (Higham (3.5)),
    and ``q_cc`` and ``q_dd`` sum nonnegative terms, so their error is
    relative.  As ``0 <= t <= h``, the computed ``t`` errs by at most
    ``gamma_(n+3) h + u |t|``, which ``eta`` exceeds: a dropped sample has
    ``t < 1`` for its computed whitened vectors.
    """
    n, count = c.shape
    keep = np.ones(count, dtype=bool)
    # an overflow or NaN can only give a NaN or infinite t, or a failed
    # factorisation, each of which keeps samples, so it needs no warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if s is None:
            s = _sample_scale(base, c, d)
        delta = rounding_allowance(n, abs(level) + s)
        a = np.negative(base)
        a[np.diag_indices(n)] += level - delta
        try:
            chol = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            return keep
        w = np.eye(n)
        for i in range(n):
            w[i] -= chol[i, :i] @ w[:i]
            w[i] /= chol[i, i]
        if not np.linalg.norm(np.abs(chol) @ np.abs(w)) <= 16.0 * (n + 2):
            return keep
        ch, dh = w @ c, w @ d
        cc, dd, cd = (np.einsum("is,is->s", x, y) for x, y in ((ch, ch), (dh, dh), (ch, dh)))
        return ~_proved_below(cd, 2.0 * np.sqrt(cc) * np.sqrt(dd), n)


def _proved_below(cd, h, n: int) -> np.ndarray:
    """Where ``t = h / 2 + cd`` lies below ``1 - eta`` (see :func:`_undecided`).

    ``h = 2 sqrt(cc) sqrt(dd)``, formed as ``(2 sqrt(cc)) sqrt(dd)``.
    Doubling and halving are exact, so ``h / 2`` is ``sqrt(cc) sqrt(dd)``
    bit for bit wherever that product is a normal number; a subnormal one
    differs from it by at most ``2^-1074``, far below ``eta``.  Where ``h``
    overflows, ``eta`` is infinite, which keeps the sample.
    """
    t = 0.5 * h + cd
    grow = 1.0 + h
    eta = 8.0 * (n + 3) * np.finfo(float).eps * grow * grow * grow
    return np.isfinite(t) & (t < 1.0 - eta)


def _draw_cross(rng, count: int, p1: int, p2: int) -> tuple[np.ndarray, np.ndarray]:
    """Factors ``(a, b)`` of rank-one cross parameters ``X = a b'``, unit Gaussian directions.

    ``a`` and ``b`` are Gaussian vectors of lengths ``p1`` and ``p2``,
    ``count`` each, drawn in that order and normalised, and returned as
    ``p1 x count`` and ``p2 x count`` arrays, one draw per column.  The
    spectral norm of ``a b'`` is ``|a| |b| = 1``, so no draw is
    decomposed; rounding can put it at ``1 + O(eps)``, which moves a
    violation by ``O(eps |Q1| |Q2|)``, far below the certificate
    tolerance.  By Petersen's lemma the supremum of
    ``lambda_max(A + Q1 X Q2' + Q2 X' Q1')`` over ``|X| <= 1`` is attained
    at such an ``X``, with ``a`` and ``b`` along ``Q1' v`` and ``Q2' v`` for
    the top eigenvector ``v`` of the maximising matrix.  The law is
    invariant under ``X -> U1 X U2'`` for orthogonal ``U_i``.  Monte Carlo
    draws its cross directions with it.
    """
    a = rng.standard_normal((count, p1)).T.copy()
    b = rng.standard_normal((count, p2)).T.copy()
    a /= np.sqrt(np.einsum("is,is->s", a, a))
    b /= np.sqrt(np.einsum("is,is->s", b, b))
    return a, b


@dataclass(frozen=True)
class _Walk:
    """What :func:`_walk` found: the scalar certificate's weight and the witness's ``(value, bound)``.

    ``scale`` is ``n (3 max|S1| + 3 max|S2| + max|P_hat|)``, above the norm
    of every sample at a cross parameter of norm at most one.  ``gains``
    are the arrays the walk read, which Monte Carlo reads in turn.
    """

    feasible: float | None  # the first weight that certifies, or None
    value: float
    bound: float
    scale: float
    gains: _Gains = field(compare=False, repr=False)


def adversarial_x_search(result, problem: FusionProblem, walk: _Walk | None = None) -> float:
    """Largest eigenvalue of the sample at the worst admissible cross term ``X*``.

    The sample is the fused error covariance, less ``P_hat``, of the joint
    whose diagonal blocks factor as ``Q Q'`` (:func:`q_pair`) and whose cross
    block is ``Q1 X* Q2'``.  By Petersen's lemma its largest eigenvalue is
    the supremum over every cross parameter of norm at most one, and
    ``X*`` is the rank-one ``a b' / (|a| |b|)``, ``a = Q1' v``,
    ``b = Q2' v``, for a top eigenvector ``v`` of the Schur complement at
    the minimiser of f with zero slope ``v'M'v`` (:func:`_walk`).  Judged
    against :func:`certificate_tolerance`.  ``walk`` is the result's
    :func:`_walk`, which :func:`certify` shares with
    :func:`petersen_certificate`; without it, one is run.
    """
    return (walk or _walk(result, _Gains(result, problem))).value


def _walk(result, gains: _Gains) -> _Walk:
    """The scalar certificate and the witness ``X*``, from one walk over the weight.

    With ``B = Q1 Q1' + Q2 Q2' - P_hat`` and the Schur complement
    ``M = B + (1 - t)/t S1 + t/(1 - t) S2`` at weight ``t``, every sample
    ``B + Q1 X Q2' + Q2 X' Q1'`` with ``|X| <= 1`` lies below ``M``, so
    ``f(t) = lambda_max(M)`` bounds the supremum from above at every
    weight.  For a unit ``v`` with ``a = Q1'v``, ``b = Q2'v``, ``x = |a|``
    and ``y = |b|``, the sample at ``X = a b'/(x y)`` has
    ``v'(sample)v = v'Mv - gap``, ``gap = t (1 - t) (x/t - y/(1 - t))^2``,
    and ``gap`` vanishes where ``v'M'v = y^2/(1 - t)^2 - x^2/t^2`` does.  So
    a top eigenvector with zero slope attains f there, which is then
    ``min f``.

    The iterates of :func:`linalg.newton_weights` run from the result's own
    weight and answer two questions about ``min f``:

    - ``feasible``, the scalar certificate: the first iterate with
      ``f <= tol``, ``tol`` of :func:`certificate_tolerance`.  The question
      is closed there, or once the end tangents bound ``min f`` above
      ``tol`` (by convexity no weight certifies, and ``feasible`` is
      ``None``).
    - ``value``, the witness: at each iterate ``v`` is taken from the top
      cluster of ``M``, the eigenvectors within ``band / 4`` of the top:
      where ``M'`` restricted to it has extreme eigenvalues of opposite
      sign (0 lies in the subdifferential of f), ``v`` combines their
      eigenvectors so that ``v'M'v = 0``; else it is the eigenvector of the
      extreme nearer zero.  When its ``gap`` is at most ``eps s`` the
      sample is formed and ``eigvalsh`` gives the value, and the question
      is closed once ``f - value <= band``.  ``band`` is
      :func:`~cifusion.linalg.rounding_allowance` of ``|f| + s``, with
      ``s = n (max|S1|/t + max|S2|/(1 - t) + max|P_hat|)``, which bounds
      ``|M|_2`` and every sample's norm, so it exceeds the rounding of both
      eigenvalues (see :func:`_undecided`).  ``bound`` is the least
      ``f + band`` over the iterates.

    The walk stops once both questions are closed, so each takes the
    iterates it would take alone, or once the bracket closes; ``v`` is then
    taken from the cluster within ``f - floor`` of the top at the last
    iterate, ``floor`` the end tangents' lower bound on ``min f``, so the
    value lies within about ``f - floor`` of the supremum; every value is a
    sample's, and the largest found is returned.

    At a CI family member's own weight M vanishes and the cluster is the
    whole space, so a solved result stops at its first iterate: one
    ``eigh`` of M, one of ``M'`` on the cluster and one ``eigvalsh``.  M
    vanishes only to the solve's accuracy: the gains are built from the
    solved ``P_hat``, so there ``M = U P_hat`` up to rounding,
    ``U = K1 H1 + K2 H2 - I``, and ``|M|_2 <= n r n max|P_hat| <= n r s``
    for ``r`` the largest entry of ``U``, which a solved result carries as
    ``unbias_residual``.  So at the result's own weight the cluster is
    ``2 n r s`` wide where that exceeds ``band / 4``, as an ill-conditioned
    solve's M needs.  Any width is sound, as the value is a sample's; the
    width decides only how soon the walk stops.

    A zero gain block ``Q1`` takes the same path: M is finite at its zero
    weight, and ``x/t`` and ``max|S1|/t`` read 0 there (:func:`_over`), so
    ``gap`` is 0 and the sample is ``B``, whose largest eigenvalue is f
    there, as ``M = B`` at that weight; likewise for ``Q2`` at weight 1.

    Where M overflows at every weight the search tries, no weight
    certifies and no sample is taken: the walk has no feasible weight, and
    its value and bound are ``inf``; so is its scale where
    :attr:`_Gains.formable` fails, which forms nothing.  Every array is
    read from ``gains``, the result's :class:`_Gains`, which the returned
    walk carries on to Monte Carlo.
    """
    if not gains.formable:
        return _Walk(None, math.inf, math.inf, math.inf, gains)
    tol = certificate_tolerance(result)
    n = gains.p_hat.shape[0]
    # Python floats, so that scale and s overflow to inf without a warning
    big1, big2, big_p = (float(np.abs(x).max()) for x in (gains.s1, gains.s2, gains.p_hat))
    scale = n * (3.0 * (big1 + big2) + big_p)
    value, bound = -np.inf, np.inf
    spread = 2.0 * n * result.diagnostics.get("unbias_residual", 0.0)
    feasible, decided, witnessed = None, False, False
    alpha = None  # stays None where M overflows at every weight the search tries
    for alpha, w, v, d1, floor in newton_weights(*_schur_function(gains), result.alpha):
        f = float(w[-1])
        if not decided:
            feasible = alpha if f <= tol else None
            decided = feasible is not None or floor > tol
        if not witnessed:
            s = n * (_over(big1, alpha) + _over(big2, 1.0 - alpha) + big_p)
            band = rounding_allowance(n, abs(f) + s)
            bound = min(bound, f + band)
            width = max(0.25 * band, spread * s) if alpha == result.alpha else 0.25 * band
            a, b, gap = _flat_direction(gains, alpha, w, v, d1, width)
            if gap <= np.finfo(float).eps * s:
                value = max(value, _sample_top(gains, a, b))
                witnessed = f - value <= band
        if decided and witnessed:
            return _Walk(feasible, value, bound, scale, gains)
    if alpha is None:
        return _Walk(None, math.inf, math.inf, scale, gains)
    if not witnessed:
        a, b, _ = _flat_direction(gains, alpha, w, v, d1, max(0.25 * band, f - floor))
        value = max(value, _sample_top(gains, a, b))
    return _Walk(feasible, value, bound, scale, gains)


def _flat_direction(gains: _Gains, alpha: float, w, v, d1, width: float):
    """``(Q1'v, Q2'v, gap)`` for :func:`_walk`'s unit ``v`` in the top cluster of ``M``.

    ``w``, ``v`` are the ``eigh`` of ``M`` at ``alpha`` and ``d1`` is ``M'``;
    the cluster holds the eigenvectors with ``w >= w[-1] - width``.
    """
    cluster = v[:, w >= w[-1] - width]
    if cluster.shape[1] == 1:
        low = high = cluster[:, 0]
        lo = hi = float(low @ d1 @ low)
    else:
        r, rv = np.linalg.eigh(cluster.T @ d1 @ cluster)
        lo, hi = float(r[0]), float(r[-1])
        low, high = cluster @ rv[:, 0], cluster @ rv[:, -1]
    if lo >= 0.0:
        top = low
    elif hi <= 0.0:
        top = high
    else:  # cos^2 lo + sin^2 hi = 0; the two are M'-orthogonal
        top = np.sqrt(hi / (hi - lo)) * low + np.sqrt(-lo / (hi - lo)) * high
    a, b = gains.q1.T @ top, gains.q2.T @ top
    x, y = math.sqrt(a @ a), math.sqrt(b @ b)
    d = _over(x, alpha) - _over(y, 1.0 - alpha)
    return a, b, alpha * (1.0 - alpha) * d * d  # infinite, not an error, at a tiny weight


def _over(x: float, t: float) -> float:
    """``x / t``, but 0 where ``x`` is 0, as a zero gain block's term is at its zero weight.

    The quotient is a Python float, which overflows to inf without a warning.
    """
    return x / float(t) if x else 0.0


def _sample_top(gains: _Gains, a: np.ndarray, b: np.ndarray) -> float:
    """Largest eigenvalue of ``B + c d' + d c'`` at ``X = a b'/(|a| |b|)``, ``B`` of ``gains``.

    ``c = Q1 a/|a|`` and ``d = Q2 b/|b|``, with ``a = Q1'v`` and
    ``b = Q2'v``; where ``a`` or ``b`` is zero the sample is ``B``, as
    every ``X`` gives ``v`` the same quadratic form there.  The sample is
    the one column of :func:`_sample_stack`, so it is formed as every
    Monte Carlo sample is.
    """
    x, y = math.sqrt(a @ a), math.sqrt(b @ b)
    sample = gains.base
    if x > 0.0 and y > 0.0:
        c, d = gains.q1 @ (a / x), gains.q2 @ (b / y)
        sample = _sample_stack(gains.base, c[:, None], d[:, None])[0]
    return float(np.linalg.eigvalsh(sample)[-1])


def petersen_objective(result, problem: FusionProblem, eps: float) -> float:
    """Largest eigenvalue of ``B + eps*S1 + (1/eps)*S2``, ``B = S1 + S2 - P_hat``.

    Nonpositive values certify conservativeness through the scalar
    uncertainty bound; ``eps = 1/alpha - 1`` relates it to the weight.
    ``S_i = Q_i Q_i'``.  The arrays are those of a :class:`_Gains` of its
    own, so where :attr:`_Gains.formable` fails nothing is formed and the
    value is ``inf``, as the walk's is.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    gains = _Gains(result, problem)
    if not gains.formable:
        return math.inf
    m = gains.base + eps * gains.s1 + (1.0 / eps) * gains.s2
    return float(np.linalg.eigvalsh(m)[-1])


def petersen_certificate(result, problem: FusionProblem, walk: _Walk | None = None) -> float | None:
    """Scalar certificate ``eps = 1/alpha - 1`` at the first weight of :func:`_walk` that certifies.

    The walk searches the Schur complement M of :func:`_schur_function`
    from the result's own weight; ``lambda_max(M)`` is
    :func:`petersen_objective` at ``eps``, and is at most
    :func:`certificate_tolerance` there.  ``None`` when no iterate
    certifies.  An iterate lies at an end of ``[0, 1]`` only where M is
    finite there, as the gain block whose weight vanishes is zero; its eps
    is ``math.inf`` at ``alpha = 0``, and ``1/alpha - 1`` is exactly
    ``0.0`` at ``alpha = 1``.
    ``walk`` is the result's :func:`_walk`, which :func:`certify` shares
    with :func:`adversarial_x_search`; without it, one is run.
    """
    alpha = (walk or _walk(result, _Gains(result, problem))).feasible
    if alpha is None:
        return None
    if alpha == 0.0:  # the end where M drops a zero Q1
        return math.inf
    return 1.0 / alpha - 1.0


def monte_carlo_joint(
    result, problem: FusionProblem, truth_samples: int = 1000, seed: int = 0,
    walk: _Walk | None = None,
) -> float:
    """Largest sampled violation over admissible true joint covariances.

    Each sample is the joint ``[[P1, L1 X L2'], [., P2]]``, ``L_i`` the
    Cholesky factor of ``P_i``, with ``X = r a b'`` rank one.  The
    generator is seeded from ``SeedSequence(seed, spawn_key=(1,))``, a
    child of ``SeedSequence(seed)``, so a caller that also draws from
    ``default_rng(seed)`` draws independently.  The stream is read in this
    order: unit directions ``a``, ``b`` from :func:`_draw_cross`, then a
    radius ``r`` uniform on ``[0, 1 - 1e-12)``, folded into ``a``; so each
    sample reads ``p1 + p2`` normals and one uniform.  As
    ``|X| = r (1 + O(eps)) < 1``, every joint is positive definite.
    ``K_i L_i = Q_i``, so its fused error less ``P_hat`` is the
    :func:`_worst_violation` sample on ``(Q1, Q2)`` with cross factors
    ``(r a, b)``.  Two aligned near-extreme cross parameters
    ``+-(1 - 1e-6) U V'``, as factors of ``k = min(p1, p2)`` columns, are
    the heads.  Returns the largest eigenvalue of ``K P_joint K' - P_hat``
    over heads and draws, to :func:`_worst_sample`'s margin and exactly
    against :func:`certificate_tolerance`; ``inf``, with nothing drawn or
    formed, where :attr:`_Gains.formable` fails, as the walk's bound is there.
    ``walk`` is the result's :func:`_walk`, whose :class:`_Gains`, with
    ``B``, :func:`certify` shares here; without it, the arrays are formed.

    Only such joints can reach the supremum.  An admissible joint with
    diagonal blocks ``A_i <= P_i`` has a cross block ``L1 X L2'`` with
    ``|X| <= 1``, so it lies below the joint with full diagonal blocks and
    the same cross block, by ``blkdiag(P_i - A_i)``, positive semidefinite
    (Petersen's domination argument).  So no value exceeds the supremum
    that :func:`adversarial_x_search` attains, and shrinking a prior block
    would only lower a sample.

    The draws take two ``p x truth_samples`` arrays, their products and
    whitened factors a few ``n x truth_samples`` arrays, and a sample that
    is not screened out an ``n x n`` matrix: at most ``8 (n + 4)^2`` bytes
    each.  A count whose arrays numpy cannot address raises
    :class:`MemoryError` before anything is drawn.
    """
    if truth_samples < 1:
        raise ValueError("truth_samples must be positive")
    if truth_samples > np.iinfo(np.intp).max // (8 * (problem.n + 4) ** 2):
        raise MemoryError(f"{truth_samples} samples exceed the addressable memory")
    gains = walk.gains if walk else _Gains(result, problem)
    if not gains.formable:
        return math.inf  # as the walk's bound, so the two routes agree
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    a, b = _draw_cross(rng, truth_samples, problem.p1, problem.p2)
    a *= rng.uniform(size=truth_samples) * (1.0 - 1e-12)

    u, v = _extreme_cross_direction(gains.q1, gains.q2)
    return _worst_violation(gains.q1, gains.q2, gains.base, np.stack([u, -u]) * (1.0 - 1e-6),
                            np.stack([v, v]), a, b, certificate_tolerance(result))


def _check_monte_carlo(result, worst_mc: float, walk: _Walk) -> None:
    """Raise :class:`InternalInconsistencyError` where Monte Carlo exceeds ``min f`` past rounding.

    ``min f`` bounds every admissible sample, and ``walk.bound`` is ``min f``
    plus its rounding (:func:`_walk`), so a larger Monte Carlo value means
    the two routes disagree.  Both values carry the rounding of an
    ``eigvalsh`` of a formed sample, each of norm at most ``walk.scale``,
    which :func:`~cifusion.linalg.rounding_allowance` of ``|walk.value| +
    walk.scale`` exceeds (see
    :func:`_undecided`), and the test allows twice that margin.  The
    witness is itself a sample, so a Monte Carlo value at most one margin
    above it passes as well.
    """
    margin = rounding_allowance(result.P_hat.data.shape[0], abs(walk.value) + walk.scale)
    if worst_mc > max(walk.value + margin, walk.bound + 2.0 * margin):
        raise InternalInconsistencyError(
            f"Monte Carlo value {worst_mc:.17g} exceeds min f = {walk.bound:.17g}, "
            f"which bounds every admissible sample"
        )


def certificate_tolerance(result) -> float:
    """Scale-adjusted absolute tolerance used by the witness and Monte Carlo verdicts."""
    return DEFAULT_CERT_TOL * tol_scale(float(np.diag(result.P_hat.data).max()))


def certify(result, problem: FusionProblem, samples: int = 1000, seed: int = 0,
            truth=None) -> tuple[CertificateRow, ...]:
    """The rows ``cifusion verify`` prints for ``result``, in that order.

    ``lmi`` reuses a solve's certificate, ``diagnostics["certificate"]``
    (``solve_ci`` raises unless it passed), and certifies any other result,
    and a result whose ``P_hat`` is not the one its certificate was made on,
    as after ``dataclasses.replace``; the certificate's :class:`_Gains` then
    serves the walk and Monte Carlo, so the result is judged on one set of
    arrays, its own;
    its value is the certificate's ``lmi_min_eig``, so a solve's block
    ``eigvalsh`` runs here, on first read; ``petersen`` is the scalar
    certificate's eps, ``inf`` or ``0`` where a zero gain block puts it at
    an end weight; ``adversarial-x`` is the exact witness, both read off
    one :func:`_walk` over the weight; ``samples``
    and ``seed`` drive Monte Carlo alone, whose value above ``min f``
    beyond rounding raises :class:`InternalInconsistencyError`; ``truth``
    adds ``truth-joint``.
    Routes are looked up in this module at each call.
    """
    tol = certificate_tolerance(result)
    cert = result.diagnostics.get("certificate")
    if cert is None or cert._gains.p_hat is not result.P_hat.data:
        cert = lmi_certificate(result, problem, result.alpha)
    rows = [CertificateRow("lmi", cert.passed, "min_eig", cert.lmi_min_eig)]
    walk = _walk(result, cert._gains)
    eps = petersen_certificate(result, problem, walk)
    rows.append(CertificateRow("petersen", eps is not None, "eps", eps))
    worst_x = adversarial_x_search(result, problem, walk)
    worst_mc = monte_carlo_joint(result, problem, samples, seed, walk)
    _check_monte_carlo(result, worst_mc, walk)
    rows.append(CertificateRow("adversarial-x", worst_x <= tol, "worst", worst_x))
    rows.append(CertificateRow("monte-carlo", worst_mc <= tol, "worst", worst_mc))
    if truth is not None:
        k = np.hstack([result.K1, result.K2])
        rel = loewner_compare(result.P_hat.data, k @ truth.assembled.data @ k.T, DEFAULT_CERT_TOL)
        rows.append(CertificateRow("truth-joint", rel.is_ge, "relation", rel.value))
    return tuple(rows)
