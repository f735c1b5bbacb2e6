"""Numerical certification that a fusion output stays conservative.

Four routes cross-validate each other: the semidefinite block certificate,
its scalar counterpart from a norm-bounded-uncertainty argument,
adversarial search over admissible normalized cross terms, and Monte Carlo
over admissible true joint covariances.  By a Schur complement the block
certificate holds where ``lambda_max(S1/alpha + S2/(1 - alpha) - P_hat)``,
convex in the weight, is at most zero; the scalar certificate and the exact
interval of feasible weights both come from the package's one search over
it, :func:`linalg.first_feasible_weight`.  The two sampling routes share one
kernel, :func:`worst_violation`, the largest eigenvalue of
``G1 G1' + G1 X G2' + G2 X' G1' + G2 G2' - P_hat`` over cross parameters
``X`` of spectral norm at most one: the adversarial search fixes
``G_i = Q_i``, and Monte Carlo passes factors ``K_i L_i U_i
diag(sqrt(e_i))`` of shrunken prior blocks, ``L_i`` the Cholesky factor of
``P_i``, so no sample needs a matrix square root.  Draws are kept
sample-last, so each product is a few whole-stack ``einsum`` calls, and
the kernel decomposes only the samples that can decide its answer, with a
value bit for bit that of ``eigvalsh`` over all of them.  The two samplers are pure functions of their arguments,
each with its own generator, so :func:`sampled_violations` runs Monte
Carlo on a second thread while the calling thread runs the adversarial
search, and ``cifusion verify`` prints what running them one after the
other prints.  numpy releases the GIL in the batched products and
eigensolves, so on two CPUs the two overlap; on one CPU the worker gains
nothing and loses nothing measurable.  A found violation is conclusive;
absence of violations is reported as "no violation found" for the sampled
budget, while the block certificate carries the actual proof.
"""

from __future__ import annotations

import contextvars
import enum
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateQError, InternalInconsistencyError
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


def _extreme_cross_direction(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Aligned orthogonal-factor extreme from the SVD of ``Q1.T Q2``."""
    u, _, vt = np.linalg.svd(q1.T @ q2, full_matrices=False)
    return u @ vt


def _violation_stack(
    g1: np.ndarray, g2: np.ndarray, xs: np.ndarray, p_hat: np.ndarray
) -> np.ndarray:
    """The samples ``G1 G1' + G1 X G2' + G2 X' G1' + G2 G2' - P_hat``, one per ``X``.

    Takes and returns sample-first stacks, and works sample-last: each stack
    is viewed with its sample axis moved last, the products are ``einsum``
    calls over whole stacks, and the result is a sample-first view of a
    contiguous sample-last stack.  A factor given as one shared matrix stays
    one matrix; the ellipsis subscripts broadcast it without a stride-0
    stack.  The inputs cost no copy when they are themselves sample-first
    views of sample-last memory, as the samplers pass them.
    """
    g1, g2 = (np.moveaxis(g, 0, -1) if g.ndim == 3 else g for g in (g1, g2))
    xs = np.moveaxis(xs, 0, -1)
    n = p_hat.shape[0]
    gram = np.einsum("ia...,ja...->ij...", g1, g1) + np.einsum("ia...,ja...->ij...", g2, g2)
    cross = np.einsum("ib...,jb...->ij...", np.einsum("ia...,ab...->ib...", g1, xs), g2)
    stack = np.add(gram.reshape(n, n, -1) - p_hat[:, :, None], cross, order="C")
    stack += cross.transpose(1, 0, 2)
    return np.moveaxis(stack, -1, 0)


def worst_violation(g1: np.ndarray, g2: np.ndarray, xs: np.ndarray, p_hat: np.ndarray) -> float:
    """Largest eigenvalue of ``G1 G1' + G1 X G2' + G2 X' G1' + G2 G2' - P_hat`` over samples.

    ``xs`` stacks the cross parameters X.  Each factor ``g1``, ``g2`` is one
    matrix shared by every sample or a stack with one matrix per sample.
    This is the fused error covariance of a joint whose diagonal blocks
    factor as ``G G'`` and whose cross block is ``G1 X G2'``, less the
    reported covariance; the value is :func:`stack_max_eigenvalue` of them.
    """
    return stack_max_eigenvalue(_violation_stack(g1, g2, xs, p_hat))


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


def _draw_cross(rng, count: int, p1: int, p2: int, shrink: float) -> np.ndarray:
    """Gaussian directions scaled to a spectral norm uniform on ``[0, shrink)``.

    The spectral norm of each draw is the root of the largest eigenvalue of
    its smaller Gram matrix, ``X X'`` or ``X' X``.  The draws are returned
    as a sample-first view of sample-last memory.
    """
    xs = rng.standard_normal((count, p1, p2))
    xt = np.swapaxes(xs, -1, -2)
    gram = xs @ xt if p1 <= p2 else xt @ xs
    smax = np.sqrt(np.linalg.eigvalsh(gram)[:, -1])
    scale = rng.uniform(size=count) * shrink / np.maximum(smax, 1e-300)
    return np.moveaxis(np.multiply(xs.transpose(1, 2, 0), scale, order="C"), -1, 0)


def _prepend(heads: list[np.ndarray], xs: np.ndarray) -> np.ndarray:
    """The matrices ``heads`` followed by the stack ``xs``, in sample-last memory.

    Takes and returns sample-first stacks; the result is a view.
    """
    stack = np.concatenate([np.stack(heads, axis=-1), np.moveaxis(xs, 0, -1)], axis=-1)
    return np.moveaxis(stack, -1, 0)


def adversarial_x_search(
    result, problem: FusionProblem, samples: int = 1000, seed: int = 0
) -> float:
    """Largest sampled violation of the norm-bounded cross-term inequality.

    Draws random normalized cross parameters with largest singular value at
    most one (Gaussian matrices scaled to a uniform spectral radius), always
    including the zero matrix and the aligned extremes from the SVD of
    ``Q1.T Q2``, and returns :func:`worst_violation` with ``G = (Q1, Q2)``.
    Values at or below tolerance certify that no sampled violation exists.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    q1, q2 = q_pair(result, problem)
    p1, p2 = q1.shape[1], q2.shape[1]
    xs = _draw_cross(rng, samples, p1, p2, 1.0)
    extreme = _extreme_cross_direction(q1, q2)
    xs = _prepend([np.zeros((p1, p2)), extreme, -extreme], xs)
    return worst_violation(q1, q2, xs, result.P_hat.data)


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


def _random_contraction_factors(rng, dim: int, count: int) -> np.ndarray:
    """Factors ``U diag(sqrt(e))`` of random contractions ``U diag(e) U'``, sample-last.

    Entry ``[i, j, s]`` belongs to sample ``s``.  ``U`` is Haar orthogonal:
    the Q factor, with a positive ``R`` diagonal, of a Gaussian matrix.  A
    full-rank matrix has exactly one such factorisation, which is the
    sign-fixed Householder QR (Mezzadri, *How to generate random matrices
    from the classical compact groups*, 2007).  It is computed for the
    whole stack at once by classical Gram-Schmidt with one
    reorthogonalisation pass, a loop over the ``dim`` columns.  The
    spectrum ``e`` is uniform on ``[0.05, 1)``.  A column left with an
    exactly zero residual, which a Gaussian draw cannot produce, raises
    :class:`InternalInconsistencyError`.
    """
    gauss = rng.standard_normal((count, dim, dim))
    u = gauss.transpose(1, 2, 0).copy()
    for j in range(dim):
        col, done = u[:, j], u[:, :j]
        for _ in range(2):
            col -= np.einsum("iks,ks->is", done, np.einsum("iks,is->ks", done, col))
        norm = np.sqrt(np.einsum("is,is->s", col, col))
        if not norm.all():
            raise InternalInconsistencyError(
                f"Gram-Schmidt column {j} of a contraction draw has a zero residual"
            )
        col /= norm
    eigs = rng.uniform(0.05, 1.0, size=(count, dim))
    u *= np.sqrt(eigs).T
    return u


def monte_carlo_joint(
    result, problem: FusionProblem, truth_samples: int = 1000, seed: int = 0
) -> float:
    """Largest sampled violation over admissible true joint covariances.

    Each sample shrinks both prior blocks to ``L_i C_i L_i'``, ``L_i`` the
    Cholesky factor of ``P_i``, with a random contraction
    ``C_i = U_i diag(e_i) U_i'`` drawn from its eigenpairs, and takes the
    factor ``F_i = L_i U_i diag(sqrt(e_i))`` of that block.  The joint is ``[[F1 F1', F1 X F2'], [., F2 F2']]`` with
    ``X`` of spectral norm below one, and its fused error less ``P_hat`` is
    :func:`worst_violation` with ``G_i = K_i F_i``.  ``F_i`` differs from the
    symmetric root of its block by an orthogonal factor that does not depend
    on ``X``, and the law of ``X`` is orthogonally invariant, so the joints
    have the same distribution as with symmetric roots; the worst value
    differs from that of a symmetric-root sampler on the same seed, the
    verdict does not.  Two aligned near-extreme cross draws at the full
    diagonal are always included.  Returns the maximum largest eigenvalue
    of ``K P_joint K' - P_hat``.
    """
    if truth_samples < 1:
        raise ValueError("truth_samples must be positive")
    rng = np.random.default_rng(seed)
    p1, p2 = problem.p1, problem.p2
    f1 = _random_contraction_factors(rng, p1, truth_samples)
    f2 = _random_contraction_factors(rng, p2, truth_samples)
    xs = _draw_cross(rng, truth_samples, p1, p2, 1.0 - 1e-12)

    q1, q2 = q_pair(result, problem)
    extreme = _extreme_cross_direction(q1, q2) * (1.0 - 1e-6)
    gs = []
    for q, f in ((q1, f1), (q2, f2)):
        g = np.empty(q.shape + (truth_samples + 2,))
        g[..., :2] = q[..., None]
        np.einsum("ai,ijs->ajs", q, f, out=g[..., 2:])
        gs.append(np.moveaxis(g, -1, 0))
    g1, g2 = gs
    return worst_violation(g1, g2, _prepend([extreme, -extreme], xs), result.P_hat.data)


def sampled_violations(
    result, problem: FusionProblem, samples: int = 1000, seed: int = 0
) -> tuple[float, float]:
    """``(adversarial_x_search(...), monte_carlo_joint(...))``, the two run at once.

    One worker thread, started per call, runs :func:`monte_carlo_joint`
    inside a copy of the caller's context: numpy 2 keeps ``np.errstate``
    in a context variable, and a new thread would otherwise start from the
    defaults.  The calling thread meanwhile runs
    :func:`adversarial_x_search` and then joins the worker, also when the
    search raises, so no thread outlives the call.  An exception of the
    search propagates as it would with the two run in that order; else one
    the worker raised is raised here.  Both values are bitwise those of the
    two calls.
    """
    outcome = {}

    def sample_joints():
        try:
            outcome["value"] = monte_carlo_joint(result, problem, samples, seed)
        except BaseException as exc:  # handed to the calling thread
            outcome["error"] = exc

    worker = threading.Thread(
        target=contextvars.copy_context().run, args=(sample_joints,), name="monte-carlo"
    )
    worker.start()
    try:
        worst_x = adversarial_x_search(result, problem, samples, seed)
    finally:
        worker.join()
    if "error" in outcome:
        raise outcome["error"]
    return worst_x, outcome["value"]


def certificate_tolerance(result) -> float:
    """Scale-adjusted absolute tolerance used by the sampling verdicts."""
    return DEFAULT_CERT_TOL * tol_scale(float(np.diag(result.P_hat.data).max()))
