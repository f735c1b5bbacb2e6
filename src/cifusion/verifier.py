"""Numerical certification that a fusion output stays conservative.

Four routes cross-validate each other: the semidefinite block certificate,
its scalar counterpart from a norm-bounded-uncertainty argument,
adversarial search over admissible normalized cross terms, and Monte Carlo
over admissible true joint covariances.  By a Schur complement the block
certificate holds where ``lambda_max(S1/alpha + S2/(1 - alpha) - P_hat)``,
convex in the weight, is at most zero (:func:`_schur_function`; a gain
block counts as zero throughout this module when its max |entry| is at most
``ZERO_Q_TOL``).  The block certificate takes its verdict from the
assembled block and cross-checks it on that Schur complement; the scalar
certificate comes from the package's one search over it,
:func:`linalg.first_feasible_weight`.  With a zero gain block the scalar
form degenerates to the one-sided bound of :func:`one_sided_bound`.  The
two sampling routes share one kernel, :func:`_worst_violation`: the samples
``Q1 Q1' + Q1 X Q2' + Q2 X' Q1' + Q2 Q2' - P_hat`` on the one pair
``Q_i = K_i L_i``, ``L_i`` the Cholesky factor of ``P_i``, over cross
parameters ``X`` of spectral norm at most one.  The kernel takes each ``X``
as factors ``A B'`` and never forms it: the cross term is ``C + C'`` with
``C = (Q1 A)(Q2 B)'``.  Both samplers draw rank-one cross parameters
``X = a b'`` from unit Gaussian directions (:func:`_draw_cross`): by
Petersen's lemma (Systems & Control Letters 8, 1987) the supremum over
``|X| <= 1`` is attained at such an ``X`` of norm one, and the norm is
``|a| |b|``, so no draw is decomposed.  Rounding can put that norm at
``1 + O(eps)``, far inside the certificate tolerance.  Monte Carlo shrinks
each prior block by a rank-one downdate, which enters as a change of the
cross factors and two rank-one terms subtracted from each sample
(:func:`monte_carlo_joint`).  So every drawn sample is a rank-two update
``B + c d' + d c'`` of one matrix ``B = Q1 Q1' + Q2 Q2' - P_hat``, less
those downdates, and the draws are kept as ``n x samples`` factor arrays.
:func:`_worst_sample` takes its threshold from the heads, the fixed
extremes each sampler passes.  It decides most samples from their factors
by one Cholesky factorisation and a closed-form test per sample
(:func:`_undecided`), and forms and decomposes only the few it cannot
drop.  The test is made on each draw's dominating joint, without the
downdates, which is sound for Monte Carlo draws too, as each lies below
it.  Its value lies less than a proven rounding-level margin below the
largest ``eigvalsh`` value over all of them, and it lies at or below the
certificate tolerance exactly when that largest value does.
Each sampler is a pure function of its arguments and runs on the calling
thread.  A found violation is conclusive; absence of violations is
reported as "no violation found" for the sampled budget, while the block
certificate carries the actual proof.  :func:`certify` runs and judges
the routes for ``cifusion verify``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateQError, InternalInconsistencyError
from .linalg import DEFAULT_CERT_TOL, first_feasible_weight, loewner_compare, tol_scale
from .problem import FusionProblem

#: gain blocks with max |entry| below this count as zero (degenerate cases)
ZERO_Q_TOL = 1e-14


@dataclass(frozen=True)
class ConservativenessCertificate:
    alpha: float
    lmi_min_eig: float
    passed: bool


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
    spectrum up to rounding, and the same Schur complement.  The sampling
    verifiers see ``X`` through ``Q1 X Q2'``, and the law of ``X`` is
    invariant under ``X -> U1 X U2'``, so their verdicts do not depend on the
    factor either; their ``worst=`` values on a given seed do.
    """
    q1 = result.K1 @ problem.est1.p_chol
    q2 = result.K2 @ problem.est2.p_chol
    return q1, q2


def one_sided_bound(result, problem: FusionProblem) -> float | None:
    """Smallest eigenvalue of ``P_hat - Q Q'`` when one gain block counts as zero, else ``None``.

    ``Q`` is the other block of :func:`q_pair`.  A block counts as zero when
    its max |entry| is at most ``ZERO_Q_TOL``; the scalar certificate is
    then degenerate (:func:`petersen_certificate` raises), and
    conservativeness is this one-sided bound being nonnegative.
    """
    q1, q2 = q_pair(result, problem)
    zero1, zero2 = (np.abs(q).max() <= ZERO_Q_TOL for q in (q1, q2))
    if not (zero1 or zero2):
        return None
    live = q2 if zero1 else q1
    direct = result.P_hat.data - live @ live.T
    return float(np.linalg.eigvalsh(0.5 * (direct + direct.T))[0])


def _decided(margin: float, band: float) -> bool:
    """Whether a signed PSD margin is clearly away from the tolerance band."""
    return abs(margin) > 10.0 * band


def lmi_certificate(
    result, problem: FusionProblem, alpha: float
) -> ConservativenessCertificate:
    """PSD certificate on the block ``[P, Q1, Q2; Q1', aI, 0; Q2', 0, (1-a)I]``.

    The verdict and the recorded smallest eigenvalue come from one
    ``eigvalsh`` of the assembled block: it passes when that eigenvalue is
    at least ``-DEFAULT_CERT_TOL * tol_scale`` of the larger end of the
    spectrum, and a failed certificate is returned, not raised.  The Schur
    complement ``M`` of :func:`_schur_function` cross-checks the verdict:
    the block is PSD exactly where ``lambda_max(M) <= 0``, judged to the
    same relative band.  Where M is infinite, a gain block that does not
    count as zero at its zero weight, that route fails without a test: the
    block then has a zero diagonal entry with a nonzero coupling, so its
    smallest eigenvalue is at most zero and the direct route cannot clearly
    pass.  A disagreement with both margins clearly outside their bands
    raises :class:`InternalInconsistencyError`; otherwise the direct
    verdict stands.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha={alpha} outside [0, 1]")
    q1, q2 = q_pair(result, problem)
    p_hat = result.P_hat.data
    n, p1 = q1.shape
    size = n + p1 + q2.shape[1]
    block = np.zeros((size, size))
    block[:n, :n] = p_hat
    block[:n, n:n + p1] = q1
    block[:n, n + p1:] = q2
    block[n:, :n] = block[:n, n:].T
    weights = block.reshape(-1)[n * (size + 1)::size + 1]  # the diagonal from (n, n) on
    weights[:p1] = alpha
    weights[p1:] = 1.0 - alpha
    eigs = np.linalg.eigvalsh(block)
    lowest = float(eigs[0])
    band = DEFAULT_CERT_TOL * tol_scale(max(-lowest, float(eigs[-1])))
    passed = lowest >= -band

    m = _schur_function(q1, q2, p_hat)[0](alpha)
    if m is not None:
        m_eigs = np.linalg.eigvalsh(m)
        top = float(m_eigs[-1])
        m_band = DEFAULT_CERT_TOL * tol_scale(max(top, -float(m_eigs[0])))
        schur = top <= m_band
        if schur != passed and _decided(lowest, band) and (schur or _decided(top, m_band)):
            raise InternalInconsistencyError(
                f"LMI routes disagree: block min eig {lowest:.3g}, "
                f"Schur complement max eig {top:.3g}"
            )
    return ConservativenessCertificate(alpha=float(alpha), lmi_min_eig=lowest, passed=passed)


def _schur_function(q1: np.ndarray, q2: np.ndarray, p_hat: np.ndarray):
    """``m`` and ``dm`` of ``M = S1/alpha + S2/(1 - alpha) - P_hat`` for the weight search.

    ``S_i = Q_i Q_i'``; as in a generalized Schur complement, ``S_i/0`` is 0 when ``Q_i``
    counts as zero (max |entry| at most ``ZERO_Q_TOL``), else M is infinite (``m`` gives ``None``).
    """
    zero = np.zeros(p_hat.shape)
    s1, s2 = (q @ q.T if np.abs(q).max() > ZERO_Q_TOL else None for q in (q1, q2))

    def over(s, t):
        return zero if s is None else s / t

    def m(alpha: float):
        if (s1 is not None and alpha == 0.0) or (s2 is not None and alpha == 1.0):
            return None
        return over(s1, alpha) + over(s2, 1.0 - alpha) - p_hat

    def dm(alpha: float):
        a, b = alpha, 1.0 - alpha
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
    q1: np.ndarray, q2: np.ndarray, p_hat: np.ndarray,
    head_a: np.ndarray, head_b: np.ndarray, a: np.ndarray, b: np.ndarray, g=(),
    tol: float = np.inf,
) -> float:
    """Largest eigenvalue of ``Q1 Q1' + Q2 Q2' - P_hat + C + C' - G G'`` over heads and draws.

    This is the fused error covariance, less ``P_hat``, of the joint whose
    diagonal blocks factor as ``Q Q'`` and whose cross block is
    ``Q1 X Q2'``, ``X = A B'``, less the downdates ``G G'`` that Monte
    Carlo subtracts; ``C = (Q1 A)(Q2 B)'``, so no ``X`` is formed.  The
    heads stack their factors ``h x p x k`` with ``k`` fixed, and are
    formed as matrices.  The draws are rank one, ``a`` and ``b`` of shape
    ``p x S``, so each draw is the rank-two update ``base + c d' + d c'``
    of one matrix ``base = Q1 Q1' + Q2 Q2' - P_hat``, with ``c = Q1 a``
    and ``d = Q2 b``, less ``g1 g1' + g2 g2'`` for the zero or two
    ``n x S`` arrays ``g``; :func:`_worst_sample` decides them from these
    factors, exactly against the decision level ``tol``.  ``base`` is
    formed once, so draws that differ only in a zero cross term are bitwise
    equal.
    """
    base = np.einsum("ia,ja->ij", q1, q1) + np.einsum("ia,ja->ij", q2, q2) - p_hat
    cross = np.einsum("hik,hjk->hij", np.einsum("ia,hak->hik", q1, head_a),
                      np.einsum("ia,hak->hik", q2, head_b))
    heads = base + cross
    heads += np.swapaxes(cross, 1, 2)
    c, d = np.einsum("ia,as->is", q1, a), np.einsum("ia,as->is", q2, b)
    return _worst_sample(base, heads, c, d, g, tol)


def _sample_stack(base: np.ndarray, c: np.ndarray, d: np.ndarray, g=()) -> np.ndarray:
    """The samples ``base + c d' + d c' - g1 g1' - g2 g2'``, one per column of the factors.

    ``c``, ``d`` and each of the zero or two arrays ``g`` are ``n x S``;
    the stack is ``S x n x n``.  Entry ``(i, j)`` of sample ``s`` is
    ``(base_ij + c_is d_js) + c_js d_is``, less
    ``g1_is g1_js + g2_is g2_js``, each formed elementwise in that order,
    so a sample's matrix has the same bits whichever other columns are
    formed with it.
    """
    cross = c.T[:, :, None] * d.T[:, None, :]
    stack = base + cross
    stack += np.swapaxes(cross, 1, 2)
    if g:
        g1, g2 = (x.T for x in g)
        stack -= g1[:, :, None] * g1[:, None, :] + g2[:, :, None] * g2[:, None, :]
    return stack


def _worst_sample(
    base: np.ndarray, heads: np.ndarray, c: np.ndarray, d: np.ndarray, g=(), tol: float = np.inf,
) -> float:
    """Largest ``eigvalsh`` eigenvalue over ``heads`` and the samples of :func:`_sample_stack`.

    Few samples are formed, so the value may lie below the dense maximum,
    the largest ``eigvalsh`` value over every head and sample, but by less
    than a proven margin ``rho``, and it is at most the decision level
    ``tol`` exactly when the dense maximum is.  The heads, of which there
    must be at least one, are decomposed first, and their largest value is
    the threshold ``v``; both samplers pass heads (three and two) at the
    extremes that Petersen's lemma points to, so ``v`` lies close to the
    sampled maximum.  With ``rho = 2 delta``, ``delta`` the margin of
    :func:`_undecided` at ``v``, that function proves most samples to lie
    below the ceiling ``v + rho``, or below ``min(v + rho, tol)`` when
    ``v <= tol``, by testing their dominating joints without ``g``, and
    only the rest are formed, downdates included.  Of those, every matrix
    bitwise equal to the head that set ``v`` is dropped before ``eigvalsh``
    runs, as its value is ``v`` itself: at an endpoint weight with a zero
    gain block, every adversarial sample is such a copy of the ``X = 0``
    head.  The value returned is the largest ``eigvalsh`` value over the
    heads and the formed samples, so:

    - It is at most the dense maximum, and as no dropped sample reaches
      the ceiling, the dense maximum lies below ``v + rho``, hence below
      the value plus ``rho``.
    - It is at most ``tol`` exactly when the dense maximum is: with
      ``v <= tol`` no sample above ``tol`` is dropped.

    Samples tied with ``v`` at rounding level, as every adversarial sample
    of a square pair (``p1 + p2 = n``) at an interior weight and every
    Monte Carlo sample at an endpoint weight are, lie about ``delta`` below
    the ceiling, so they cost no decomposition beyond the heads'.
    ``rho = 128 (n + 2)^2 eps (|v| + s)``, with ``s`` of :func:`_undecided`,
    is about ``2e-12 s`` at n = 6.  The value depends on the lower
    triangles alone, as ``eigvalsh``'s does.
    """
    tops = np.linalg.eigvalsh(heads)[:, -1]
    level = float(tops.max())
    # an overflow can only give an infinite ceiling, which keeps samples
    with np.errstate(over="ignore", invalid="ignore"):
        s = _sample_scale(base, c, d, g)
        ceiling = level + 2.0 * _margin(base.shape[0], level, s)
    if level <= tol:
        ceiling = min(ceiling, tol)
    keep = _undecided(base, ceiling, c, d, s)
    if not keep.any():
        return level
    left = _sample_stack(base, c[:, keep], d[:, keep], [x[:, keep] for x in g])
    # copies of the head that set the threshold have it as their value:
    # bitwise equal input, bitwise equal eigvalsh output
    bits = heads[tops.argmax()].view(np.int64)
    left = left[(left.view(np.int64) != bits).any(axis=(1, 2))]
    return float(np.append(np.linalg.eigvalsh(left)[:, -1], level).max())


def _sample_scale(base: np.ndarray, c: np.ndarray, d: np.ndarray, g=()) -> float:
    """``n (max|base| + 2 max|c| max|d| + max|g1|^2 + max|g2|^2)``, above every sample's norm."""
    return base.shape[0] * (np.abs(base).max() + 2.0 * np.abs(c).max() * np.abs(d).max()
                            + sum(np.abs(x).max() ** 2 for x in g))


def _margin(n: int, level: float, s: float) -> float:
    """The screening margin ``delta = 64 (n + 2)^2 eps (|level| + s)`` of :func:`_undecided`."""
    return 64.0 * (n + 2) ** 2 * np.finfo(float).eps * (abs(level) + s)


def _undecided(
    base: np.ndarray, level: float, c: np.ndarray, d: np.ndarray, s: float | None = None,
) -> np.ndarray:
    """Mask of the samples of :func:`_sample_stack` whose ``eigvalsh`` value may reach ``level``.

    The test is made on each sample's dominating joint
    ``D = base + c d' + d c'``.  A Monte Carlo sample ``M = D - G G'``,
    ``G = [g1 g2]``, lies below it, so ``lambda_max(M) <= lambda_max(D)``
    and the test screens it too, as long as ``s``, which
    :func:`_worst_sample` passes and which is otherwise
    :func:`_sample_scale` of ``base``, ``c`` and ``d``, bounds ``|M|_2``.
    One Cholesky factorisation ``L L'`` of ``A = (level - delta) I - base``
    serves every sample.  With ``W`` the inverse of ``L`` by forward
    substitution and the whitened vectors ``c^ = W c`` and ``d^ = W d``, in
    exact arithmetic ``(level - delta) I - D = L (I - c^ d^' - d^ c^') L'``.
    The largest eigenvalue of ``c^ d^' + d^ c^'`` is
    ``t = sqrt(q_cc q_dd) + q_cd`` with ``q_xy = x'y``, so ``D`` lies below
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
    ``s = n (max|base| + 2 max|c| max|d| + max|g1|^2 + max|g2|^2)``, which
    bounds ``|base|_2 + 2 |c| |d| + |g1|^2 + |g2|^2``, hence every
    ``|M|_2``, and ``T = n (|level| + delta) + s``, which bounds
    ``trace(A)``, the margin ``delta = 64 (n + 2)^2 eps (|level| + s)``
    exceeds the sum of five errors, so a dropped sample's ``eigvalsh``
    value lies strictly below ``level``:

    - Each entry of a formed sample sums five terms, each rounded at most
      four times, so the matrix that ``eigvalsh`` sees is within
      ``gamma_4 s`` of ``M``.
    - ``eigvalsh`` is normwise backward stable: its largest eigenvalue lies
      within ``p(n) u |M|_2`` of the exact one.  LAPACK states ``p(n)`` only
      as a modestly growing function; the a-priori analysis of Householder
      tridiagonalisation gives order ``n^2`` (Wilkinson, *The Algebraic
      Eigenvalue Problem*, ch. 3), and the margin allows ``8 (n + 2)^2``.
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
        delta = _margin(n, level, s)
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
        return ~_proved_below(cc, dd, cd, 2.0 * np.sqrt(cc) * np.sqrt(dd), n)


def _proved_below(cc, dd, cd, h, n: int) -> np.ndarray:
    """Where ``t = sqrt(cc dd) + cd`` lies below ``1 - eta`` (see :func:`_undecided`)."""
    t = np.sqrt(cc) * np.sqrt(dd) + cd
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
    draws the directions of its two shrink downdates with it too.
    """
    a = rng.standard_normal((count, p1)).T.copy()
    b = rng.standard_normal((count, p2)).T.copy()
    a /= np.sqrt(np.einsum("is,is->s", a, a))
    b /= np.sqrt(np.einsum("is,is->s", b, b))
    return a, b


def adversarial_x_search(
    result, problem: FusionProblem, samples: int = 1000, seed: int = 0
) -> float:
    """Largest sampled violation of the norm-bounded cross-term inequality.

    Draws random rank-one cross parameters ``X = a b'`` of spectral norm
    one (:func:`_draw_cross`), always including the zero matrix and the
    aligned extremes ``+-U V'`` from the SVD of ``Q1.T Q2``, and returns
    the largest eigenvalue of their :func:`_worst_violation` samples.  The
    three fixed heads come first, as factors ``(0, V)`` and ``(+-U, V)``
    with ``k = min(p1, p2)``.  The largest eigenvalue is convex in ``X``
    and the heads hold ``X = 0``, so ``f(t X) <= max(f(0), f(X))`` for
    ``0 <= t <= 1``: drawing at norm one loses nothing against smaller
    radii, and by Petersen's lemma the supremum over ``|X| <= 1`` is
    attained at a rank-one ``X`` of norm one.  Rounding can put a draw's
    norm at ``1 + O(eps)``, far inside the certificate tolerance.  Values
    at or below tolerance certify that no sampled violation exists.  The
    value is :func:`_worst_sample`'s, judged against
    :func:`certificate_tolerance`: at or below it exactly when the largest
    sampled eigenvalue is, and less than a rounding-level margin below that
    eigenvalue.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    q1, q2 = q_pair(result, problem)
    a, b = _draw_cross(rng, samples, q1.shape[1], q2.shape[1])
    u, v = _extreme_cross_direction(q1, q2)
    return _worst_violation(q1, q2, result.P_hat.data, np.stack([np.zeros_like(u), u, -u]),
                            np.stack([v] * 3), a, b, (), certificate_tolerance(result))


def petersen_objective(result, problem: FusionProblem, eps: float) -> float:
    """Largest eigenvalue of ``G + eps*Q1 Q1' + (1/eps)*Q2 Q2'``, ``G = -P_hat + Q1 Q1' + Q2 Q2'``.

    Nonpositive values certify conservativeness through the scalar
    uncertainty bound; ``eps = 1/alpha - 1`` relates it to the weight.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    q1, q2 = q_pair(result, problem)
    g = -result.P_hat.data + q1 @ q1.T + q2 @ q2.T
    m = g + eps * (q1 @ q1.T) + (1.0 / eps) * (q2 @ q2.T)
    return float(np.linalg.eigvalsh(0.5 * (m + m.T))[-1])


def petersen_certificate(result, problem: FusionProblem) -> float | None:
    """Scalar certificate ``eps = 1/alpha - 1`` found by a safeguarded Newton search.

    :func:`linalg.first_feasible_weight` searches the Schur complement M of
    :func:`_schur_function` from the result's own weight; ``lambda_max(M)``
    is :func:`petersen_objective` at ``eps``.  The first certifying iterate's
    eps is returned once :func:`petersen_objective` confirms it, else
    ``None``.  Zero gain blocks make the scalar form degenerate and raise.
    """
    q1, q2 = q_pair(result, problem)
    if np.abs(q1).max() <= ZERO_Q_TOL:
        raise DegenerateQError("Q1 = 0; use the direct one-sided bound")
    if np.abs(q2).max() <= ZERO_Q_TOL:
        raise DegenerateQError("Q2 = 0; use the direct one-sided bound")
    tol = certificate_tolerance(result)
    alpha = first_feasible_weight(*_schur_function(q1, q2, result.P_hat.data), tol, result.alpha)
    if alpha is None:
        return None
    eps = 1.0 / alpha - 1.0
    return eps if petersen_objective(result, problem, eps) <= tol else None


def monte_carlo_joint(
    result, problem: FusionProblem, truth_samples: int = 1000, seed: int = 0
) -> float:
    """Largest sampled violation over admissible true joint covariances.

    Each sample shrinks both prior blocks by a rank-one downdate to
    ``L_i (I - (1 - e_i) w_i w_i') L_i'``, ``L_i`` the Cholesky factor of
    ``P_i``, with factor ``F_i = L_i W_i``,
    ``W_i = I - (1 - sqrt(e_i)) w_i w_i'``.  The joint is
    ``[[F1 F1', F1 X F2'], [., F2 F2']]`` with ``X = r a b'`` rank one.  The
    generator is seeded from ``SeedSequence(seed, spawn_key=(1,))``, a
    child of the sequence :func:`adversarial_x_search` reads, so the two
    draw independently at one seed.  The stream is read in this order:
    unit directions ``w1``, ``w2`` from :func:`_draw_cross`; ``e1``, ``e2``
    uniform on ``[0.05, 1)``; unit directions ``a``, ``b`` from
    :func:`_draw_cross`; a radius ``r`` uniform on ``[0, 1 - 1e-12)``,
    folded into ``a``.  As ``e_i >= 0.05`` and ``|X| = r (1 + O(eps)) < 1``,
    every joint is positive definite.
    ``K_i F_i = Q_i W_i``, so its fused error less ``P_hat`` is the
    :func:`_worst_violation` sample on ``(Q1, Q2)`` with cross factors
    ``(W1 r a, W2 b)``, less the downdates ``g_i g_i'``,
    ``g_i = sqrt(1 - e_i) Q_i w_i``.  Two aligned near-extreme cross
    parameters ``+-(1 - 1e-6) U V'`` at the full diagonal, as factors of
    ``k = min(p1, p2)`` columns, are the heads.  Returns the largest
    eigenvalue of ``K P_joint K' - P_hat`` over heads and draws, to
    :func:`_worst_sample`'s margin and exactly against
    :func:`certificate_tolerance`, as :func:`adversarial_x_search` does.

    Every sampled joint lies below the joint with full diagonal blocks and
    cross parameter ``W1 X W2'``, of norm below one: the difference is
    ``blkdiag(L_i (I - W_i^2) L_i')``, positive semidefinite (Petersen's
    domination argument).  So no value exceeds the supremum that
    :func:`adversarial_x_search` samples, whatever the law of the shrink;
    the law only decides which joints below it are visited.  For the same
    reason :func:`_undecided` screens each draw on its dominating joint,
    without the downdates; the draws it keeps are formed in full.
    """
    if truth_samples < 1:
        raise ValueError("truth_samples must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    w1, w2 = _draw_cross(rng, truth_samples, problem.p1, problem.p2)
    shrink = rng.uniform(0.05, 1.0, size=(2, truth_samples))
    a, b = _draw_cross(rng, truth_samples, problem.p1, problem.p2)
    a *= rng.uniform(size=truth_samples) * (1.0 - 1e-12)

    q1, q2 = q_pair(result, problem)
    u, v = _extreme_cross_direction(q1, q2)
    u = u * (1.0 - 1e-6)
    g = []
    for q, w, f, e in ((q1, w1, a, shrink[0]), (q2, w2, b, shrink[1])):
        f -= ((1.0 - np.sqrt(e)) * np.einsum("as,as->s", w, f)) * w
        g.append(np.einsum("ia,as->is", q, w) * np.sqrt(1.0 - e))
    return _worst_violation(q1, q2, result.P_hat.data, np.stack([u, -u]), np.stack([v, v]), a, b, g,
                            certificate_tolerance(result))


def certificate_tolerance(result) -> float:
    """Scale-adjusted absolute tolerance used by the sampling verdicts."""
    return DEFAULT_CERT_TOL * tol_scale(float(np.diag(result.P_hat.data).max()))


def certify(result, problem: FusionProblem, samples: int = 1000, seed: int = 0,
            truth=None) -> tuple[CertificateRow, ...]:
    """The rows ``cifusion verify`` prints for ``result``, in that order.

    ``lmi`` reuses a solve's ``lmi_min_eig`` (``solve_ci`` raises unless it
    passed) and certifies any other result; ``petersen(direct)`` replaces
    ``petersen`` where a gain block counts as zero; ``truth`` adds
    ``truth-joint``.  Routes are looked up in this module at each call.
    """
    tol = certificate_tolerance(result)
    passed, min_eig = True, result.diagnostics.get("lmi_min_eig")
    if min_eig is None:
        cert = lmi_certificate(result, problem, result.alpha)
        passed, min_eig = cert.passed, cert.lmi_min_eig
    rows = [CertificateRow("lmi", passed, "min_eig", min_eig)]
    direct = one_sided_bound(result, problem)
    if direct is not None:
        rows.append(CertificateRow("petersen(direct)", direct >= -tol, "min_eig", direct))
    else:
        eps = petersen_certificate(result, problem)
        rows.append(CertificateRow("petersen", eps is not None, "eps", eps))
    worst_x = adversarial_x_search(result, problem, samples, seed)
    worst_mc = monte_carlo_joint(result, problem, samples, seed)
    rows.append(CertificateRow("adversarial-x", worst_x <= tol, "worst", worst_x))
    rows.append(CertificateRow("monte-carlo", worst_mc <= tol, "worst", worst_mc))
    if truth is not None:
        k = np.hstack([result.K1, result.K2])
        rel = loewner_compare(result.P_hat.data, k @ truth.assembled.data @ k.T, DEFAULT_CERT_TOL)
        rows.append(CertificateRow("truth-joint", rel.is_ge, "relation", rel.value))
    return tuple(rows)
