"""Numerical certification that a fusion output stays conservative.

Four routes cross-validate each other: the semidefinite block certificate,
its scalar counterpart from a norm-bounded-uncertainty argument,
adversarial search over admissible normalized cross terms, and Monte Carlo
over admissible true joint covariances.  By a Schur complement the block
certificate holds where ``lambda_max(S1/alpha + S2/(1 - alpha) - P_hat)``,
convex in the weight, is at most zero; the scalar certificate and the exact
interval of feasible weights both come from the package's one search over
it, :func:`linalg.first_feasible_weight`.  The two sampling routes share one
kernel, :func:`_violation_stack`: the samples
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
cross factors and two rank-one terms it subtracts from the kernel's stack
(:func:`monte_carlo_joint`).  Draws are kept sample-last, so each product
is a few whole-stack ``einsum`` calls, and :func:`stack_max_eigenvalue`
decomposes only the samples that can decide the largest eigenvalue, with a
value bit for bit that of ``eigvalsh`` over all of them.  Each sampler is
a pure function of its arguments with its own generator, and runs on the
calling thread.  A found violation is conclusive; absence of violations is
reported as "no violation found" for the sampled budget, while the block
certificate carries the actual proof.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateQError
from .linalg import (
    DEFAULT_CERT_TOL,
    LoewnerRelation,
    _block_psd_margin,
    feasible_weight_interval,
    first_feasible_weight,
    tol_scale,
)
from .problem import FusionProblem

#: gain blocks with max |entry| below this count as zero (degenerate cases)
ZERO_Q_TOL = 1e-14
#: matrices ranked by each cheap lower bound on the largest eigenvalue that
#: :func:`stack_max_eigenvalue` decomposes to set its screening threshold
SCREEN_CANDIDATES = 4


class Method(enum.Enum):
    LMI = "lmi"
    TAU = "tau"
    PETERSEN = "petersen"
    ADVERSARIAL = "adversarial"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class ConservativenessCertificate:
    alpha: float
    tau: float | None
    lmi_min_eig: float
    method: Method
    passed: bool


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


def lmi_certificate(
    result, problem: FusionProblem, alpha: float
) -> ConservativenessCertificate:
    """PSD certificate on the block ``[P, Q1, Q2; Q1', aI, 0; Q2', 0, (1-a)I]``.

    The verdict comes from the dual-evaluated block PSD check, which also
    returns the smallest eigenvalue of the assembled block; that value is
    recorded either way, so a failed certificate is returned, not raised.
    The lower right block is diagonal, so only the assembled block and the
    Schur complement are decomposed.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha={alpha} outside [0, 1]")
    q1, q2 = q_pair(result, problem)
    r_eigs = np.repeat([alpha, 1.0 - alpha], [q1.shape[1], q2.shape[1]])
    passed, min_eig = _block_psd_margin(result.P_hat, np.hstack([q1, q2]), r_eigs)
    tau = 1.0 / alpha - 1.0 if 0.0 < alpha < 1.0 else None
    return ConservativenessCertificate(
        alpha=float(alpha), tau=tau, lmi_min_eig=min_eig, method=Method.LMI, passed=passed
    )


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


def lmi_feasible_interval(result, problem: FusionProblem) -> tuple[float, float] | None:
    """The weights whose block certificate holds, as one interval ``(lo, hi)``, or ``None``.

    The block of :func:`lmi_certificate` is PSD exactly where its Schur
    complement (:func:`_schur_function`) has ``lambda_max <= 0``.
    """
    m, dm = _schur_function(*q_pair(result, problem), result.P_hat.data)
    return feasible_weight_interval(m, dm, certificate_tolerance(result), result.alpha)


def alpha_uniqueness_check(result, problem: FusionProblem) -> bool | None:
    """Whether :func:`lmi_feasible_interval` is nonempty and at most twice its first-order width.

    ``None`` when the information matrices coincide, as any weight is then
    feasible; the solver's :meth:`JointSpectrum.relation` decides that, so
    the two classify a pair alike at every scale.  A CI family member's
    Schur complement M vanishes at its own weight, so to first order
    ``lambda_max(M) <= tol`` on a width
    ``tol (1/lambda_max(M') + 1/(-lambda_min(M')))``, ``M'`` taken there;
    a part counts only if its eigenvalue has that sign and the weight can
    move that way.  ``False`` when M is infinite at that weight.
    """
    from .optimizer import JointSpectrum, SigmaPair  # the optimizer imports this module

    if JointSpectrum.of(SigmaPair.from_problem(problem)).relation() is LoewnerRelation.EQUAL:
        return None
    m, dm = _schur_function(*q_pair(result, problem), result.P_hat.data)
    tol = certificate_tolerance(result)
    interval = feasible_weight_interval(m, dm, tol, result.alpha)
    if interval is None or m(result.alpha) is None:
        return False
    eigs = np.linalg.eigvalsh(dm(result.alpha)[0])
    w1 = tol / eigs[-1] if eigs[-1] > 0.0 and result.alpha < 1.0 else 0.0
    w1 += tol / -eigs[0] if eigs[0] < 0.0 and result.alpha > 0.0 else 0.0
    return bool(interval[1] - interval[0] <= 2.0 * w1)


def _extreme_cross_direction(q1: np.ndarray, q2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factors ``(U, V)`` of the aligned orthogonal-factor extreme ``U V'``.

    ``U S V'`` is the thin SVD of ``Q1.T Q2``, so each factor has
    ``min(p1, p2)`` columns.
    """
    u, _, vt = np.linalg.svd(q1.T @ q2, full_matrices=False)
    return u, vt.T


def _violation_stack(
    q1: np.ndarray, q2: np.ndarray, a: np.ndarray, b: np.ndarray, p_hat: np.ndarray
) -> np.ndarray:
    """The samples ``Q1 Q1' + Q2 Q2' - P_hat + C + C'``, ``C = (Q1 A)(Q2 B)'``, per ``X = A B'``.

    This is the fused error covariance, less ``P_hat``, of the joint whose
    diagonal blocks factor as ``Q Q'`` and whose cross block is
    ``Q1 X Q2'``.  ``a`` and ``b`` stack the factors of the cross
    parameters, ``p1 x k`` and ``p2 x k`` with ``k`` fixed per call, so
    ``C = Q1 X Q2'`` and no ``X`` is formed; a rank-one draw has ``k = 1``,
    and ``C`` is one outer product.  ``Q1 Q1' + Q2 Q2' - P_hat`` is formed
    once per call, so samples that differ only in a zero cross term are
    bitwise equal.  Takes and returns sample-first stacks, and works
    sample-last: ``a`` and ``b`` are viewed with their sample axis moved
    last, the products are ``einsum`` calls over whole stacks, and the
    result is a sample-first view of a contiguous sample-last stack.  The
    inputs cost no copy when they are themselves sample-first views of
    sample-last memory, as the samplers pass them.
    """
    a, b = np.moveaxis(a, 0, -1), np.moveaxis(b, 0, -1)
    base = np.einsum("ia,ja->ij", q1, q1) + np.einsum("ia,ja->ij", q2, q2) - p_hat
    cross = np.einsum("iks,jks->ijs", np.einsum("ia,aks->iks", q1, a),
                      np.einsum("ia,aks->iks", q2, b))
    stack = np.add(base[:, :, None], cross, order="C")
    stack += cross.transpose(1, 0, 2)
    return np.moveaxis(stack, -1, 0)


def stack_max_eigenvalue(mats: np.ndarray) -> float:
    """``np.linalg.eigvalsh(mats)[:, -1].max()``, decomposing few of the matrices.

    The largest diagonal entry and the mean diagonal entry are lower bounds
    on a symmetric matrix's largest eigenvalue.  The ``SCREEN_CANDIDATES``
    matrices that rank highest on each are decomposed, and the largest of
    their largest eigenvalues is the threshold ``c``.  :func:`_screen` then
    drops every matrix whose ``eigvalsh`` value it proves to lie below
    ``c``, and the result is the maximum over the matrices left, which
    always include the candidate that set ``c``.  Of those, every matrix
    bitwise equal to that candidate is dropped before ``eigvalsh`` runs, as
    its value is ``c`` itself.  So the value is the unscreened one bit for
    bit, whatever order the matrices come in, and a stack of identical
    samples, such as an endpoint result's adversarial samples, costs the
    candidates' decompositions alone.  The value depends on the lower
    triangles alone, as ``eigvalsh``'s does.
    """
    idx = np.arange(mats.shape[-1])
    diag = mats.transpose(1, 2, 0)[idx, idx]
    k = min(SCREEN_CANDIDATES, len(mats))
    # a matrix ranked on both bounds is decomposed twice, which is harmless
    # and cheaper than np.union1d, whose first call imports numpy.ma
    ranked = np.concatenate([
        np.argpartition(-diag.max(axis=0), k - 1)[:k],
        np.argpartition(-diag.sum(axis=0), k - 1)[:k],
    ])
    tops = np.linalg.eigvalsh(mats[ranked])[:, -1]
    c = float(tops.max())
    left = mats[_screen(mats, c)]
    # copies of the candidate that set c have c as their value: bitwise
    # equal input, bitwise equal eigvalsh output
    bits = mats[ranked[tops.argmax()]].view(np.int64)
    left = left[(left.view(np.int64) != bits).any(axis=(1, 2))]
    return float(np.append(np.linalg.eigvalsh(left)[:, -1], c).max())


def _screen(mats: np.ndarray, c: float) -> np.ndarray:
    """Mask of the matrices whose ``eigvalsh`` largest eigenvalue may reach ``c``.

    One LDL' factorisation without pivoting of ``A = (c - delta) I - M``
    runs over the whole stack at once, a loop over the n columns that reads
    and updates only lower triangles; a matrix whose n pivots all come out
    positive is dropped.  (The batched ``np.linalg.cholesky`` cannot serve: it raises
    when any one matrix is not positive definite.)  With ``u`` the unit
    roundoff, half the machine epsilon ``eps``, and ``s = n max|M_ij|``,
    which bounds ``|M|_2`` for every matrix of the stack, the margin
    ``delta = 16 (n + 2)^2 eps (|c| + s)`` exceeds the sum of three errors:

    - Forming ``A`` rounds ``c - delta`` and then the diagonal, by at most
      ``2 u (|c| + delta) + u s`` in all; off the diagonal ``A`` is exact.
    - If every pivot is positive, the computed factors satisfy
      ``L D L' = A + E`` with ``|E| <= g |L| D |L'|`` and
      ``g = gamma_(n+2) = (n + 2) u / (1 - (n + 2) u)``: the Cholesky bound
      of Higham (*Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
      Thm 10.3) with one more rounding per term, from forming the
      multiplier.  As ``D > 0``, Cauchy-Schwarz gives
      ``(|L| D |L'|)_ij <= sqrt((A + E)_ii (A + E)_jj)``, hence
      ``|E_ij| <= g / (1 - g) sqrt(A_ii A_jj)`` and
      ``|E|_2 <= g / (1 - g) trace(A) <= g / (1 - g) (n (|c| + delta) + s)``.
      ``A + E`` is positive definite, so ``lambda_max(M)`` is below
      ``c - delta + |E|_2`` plus the rounding of the first item.
    - ``eigvalsh`` is normwise backward stable: its largest eigenvalue lies
      within ``p(n) u |M|_2`` of the exact one.  LAPACK states ``p(n)`` only
      as a modestly growing function; the a-priori analysis of Householder
      tridiagonalisation gives order ``n^2`` (Wilkinson, *The Algebraic
      Eigenvalue Problem*, ch. 3), and the margin allows ``8 (n + 2)^2``.

    The three sum to less than ``2 (n + 2)^2 u (|c| + delta) + 9 (n + 2)^2 u s``,
    which ``delta`` exceeds whenever ``(n + 2)^2 u <= 1/4``, for n up to
    about 4e7.  So a dropped matrix has an ``eigvalsh`` value strictly below
    ``c``.  The Cholesky term grows like ``n^2 u |c|``: a margin only linear
    in n in front of ``|c|`` would cover it for small n alone.
    """
    n = mats.shape[-1]
    # entry (i, j) of every matrix is one contiguous row: a[i, j, sample]
    a = np.negative(mats.transpose(1, 2, 0), order="C")
    s = n * max(float(a.max()), -float(a.min()))
    delta = 16.0 * (n + 2) ** 2 * np.finfo(float).eps * (abs(c) + s)
    idx = np.arange(n)
    a[idx, idx] += c - delta
    positive = np.ones(len(mats), dtype=bool)
    # an overflow can only make a later pivot infinite-negative or NaN,
    # which keeps the matrix, so it needs no warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            pivot = a[k, k]
            positive &= pivot > 0.0
            ratio = a[k + 1 :, k] / np.where(positive, pivot, 1.0)
            for i in range(k + 1, n):
                a[i, k + 1 : i + 1] -= a[i, k] * ratio[: i - k]
    return ~positive


def _draw_cross(rng, count: int, p1: int, p2: int) -> tuple[np.ndarray, np.ndarray]:
    """Factors ``(a, b)`` of rank-one cross parameters ``X = a b'``, unit Gaussian directions.

    ``a`` and ``b`` are Gaussian vectors of lengths ``p1`` and ``p2``,
    ``count`` each, drawn in that order and normalised.  The spectral norm
    of ``a b'`` is ``|a| |b| = 1``, so no draw is decomposed; rounding can
    put it at ``1 + O(eps)``, which moves a violation by
    ``O(eps |Q1| |Q2|)``, far below the certificate tolerance.  By
    Petersen's lemma the supremum of ``lambda_max(A + Q1 X Q2' + Q2 X' Q1')``
    over ``|X| <= 1`` is attained at such an ``X``, with ``a`` and ``b``
    along ``Q1' v`` and ``Q2' v`` for the top eigenvector ``v`` of the
    maximising matrix.  The law is invariant under ``X -> U1 X U2'`` for
    orthogonal ``U_i``.  Monte Carlo draws the directions of its two shrink
    downdates with it too.  Each stack is returned as :func:`_violation_stack`
    takes it with ``k = 1``: a sample-first view, ``count x p x 1``, of
    sample-last memory.
    """
    a = rng.standard_normal((count, p1)).T.copy()
    b = rng.standard_normal((count, p2)).T.copy()
    a /= np.sqrt(np.einsum("is,is->s", a, a))
    b /= np.sqrt(np.einsum("is,is->s", b, b))
    return np.moveaxis(a[:, None, :], -1, 0), np.moveaxis(b[:, None, :], -1, 0)


def adversarial_x_search(
    result, problem: FusionProblem, samples: int = 1000, seed: int = 0
) -> float:
    """Largest sampled violation of the norm-bounded cross-term inequality.

    Draws random rank-one cross parameters ``X = a b'`` of spectral norm
    one (:func:`_draw_cross`), always including the zero matrix and the
    aligned extremes ``+-U V'`` from the SVD of ``Q1.T Q2``, and returns
    :func:`stack_max_eigenvalue` of their :func:`_violation_stack`
    samples.  The three fixed
    heads come first, as factors ``(0, V)`` and ``(+-U, V)`` with
    ``k = min(p1, p2)``; the draws follow with ``k = 1``.  The largest
    eigenvalue is convex in ``X`` and the stack holds ``X = 0``, so
    ``f(t X) <= max(f(0), f(X))`` for ``0 <= t <= 1``: drawing at norm one
    loses nothing against smaller radii, and by Petersen's lemma the
    supremum over ``|X| <= 1`` is attained at a rank-one ``X`` of norm
    one.  Rounding can put a draw's norm at ``1 + O(eps)``, far inside the
    certificate tolerance.  Values at or below tolerance certify that no
    sampled violation exists.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    q1, q2 = q_pair(result, problem)
    a, b = _draw_cross(rng, samples, q1.shape[1], q2.shape[1])
    u, v = _extreme_cross_direction(q1, q2)
    p_hat = result.P_hat.data
    heads = _violation_stack(q1, q2, np.stack([np.zeros_like(u), u, -u]), np.stack([v] * 3), p_hat)
    draws = _violation_stack(q1, q2, a, b, p_hat)
    return stack_max_eigenvalue(np.concatenate([heads, draws]))


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
    stream is read in this order: unit directions ``w1``, ``w2`` from
    :func:`_draw_cross`; ``e1``, ``e2`` uniform on ``[0.05, 1)``; unit
    directions ``a``, ``b`` from :func:`_draw_cross`; a radius ``r``
    uniform on ``[0, 1 - 1e-12)``, folded into ``a``.  As ``e_i >= 0.05``
    and ``|X| = r (1 + O(eps)) < 1``, every joint is positive definite.
    ``K_i F_i = Q_i W_i``, so its fused error less ``P_hat`` is the
    :func:`_violation_stack` sample on ``(Q1, Q2)`` with cross factors
    ``(W1 r a, W2 b)``, less the downdates ``(1 - e_i) u_i u_i'``,
    ``u_i = Q_i w_i``.  Two aligned near-extreme cross parameters
    ``+-(1 - 1e-6) U V'`` at the full diagonal, as factors of
    ``k = min(p1, p2)`` columns, always come first.  Returns the largest
    eigenvalue of ``K P_joint K' - P_hat`` over both stacks.

    Every sampled joint lies below the joint with full diagonal blocks and
    cross parameter ``W1 X W2'``, of norm below one: the difference is
    ``blkdiag(L_i (I - W_i^2) L_i')``, positive semidefinite (Petersen's
    domination argument).  So no value exceeds the supremum that
    :func:`adversarial_x_search` samples, whatever the law of the shrink;
    the law only decides which joints below it are visited.
    """
    if truth_samples < 1:
        raise ValueError("truth_samples must be positive")
    rng = np.random.default_rng(seed)
    w1, w2 = _draw_cross(rng, truth_samples, problem.p1, problem.p2)
    shrink = rng.uniform(0.05, 1.0, size=(2, truth_samples))
    a, b = _draw_cross(rng, truth_samples, problem.p1, problem.p2)
    a *= (rng.uniform(size=truth_samples) * (1.0 - 1e-12))[:, None, None]

    q1, q2 = q_pair(result, problem)
    u, v = _extreme_cross_direction(q1, q2)
    u = u * (1.0 - 1e-6)
    p_hat = result.P_hat.data
    heads = _violation_stack(q1, q2, np.stack([u, -u]), np.stack([v, v]), p_hat)
    downdates = []
    for q, w, f, e in ((q1, w1, a, shrink[0]), (q2, w2, b, shrink[1])):
        f -= ((1.0 - np.sqrt(e)) * np.einsum("sak,sak->s", w, f))[:, None, None] * w
        downdates.append(np.einsum("ia,sak->is", q, w) * np.sqrt(1.0 - e))
    d = np.stack(downdates, axis=1)
    draws = _violation_stack(q1, q2, a, b, p_hat)
    draws -= np.moveaxis(np.einsum("iks,jks->ijs", d, d), -1, 0)
    return stack_max_eigenvalue(np.concatenate([heads, draws]))


def certificate_tolerance(result) -> float:
    """Scale-adjusted absolute tolerance used by the sampling verdicts."""
    return DEFAULT_CERT_TOL * tol_scale(float(np.diag(result.P_hat.data).max()))
