"""Numerical certification that a fusion output stays conservative.

Four routes cross-validate each other: the semidefinite block certificate,
its scalar counterpart obtained from a norm-bounded-uncertainty argument,
adversarial search over admissible normalized cross terms, and Monte Carlo
over admissible true joint covariances.  The two sampling routes share one
kernel, :func:`worst_violation`: with factors ``G1``, ``G2`` and a cross
parameter ``X`` of spectral norm at most one, the fused error covariance is
``G1 G1' + G1 X G2' + G2 X' G1' + G2 G2'``.  The adversarial search fixes
``G_i = Q_i``; Monte Carlo draws a shrunken prior block per sample from the
eigenpairs of a random contraction and passes its factor ``K_i P_i^{1/2}
U_i diag(sqrt(e_i))``, so no sample needs a matrix square root.  Both
samplers keep their draws sample-last, with the sample index on the last,
contiguous axis: each product is a few whole-stack ``einsum`` or flat GEMM
calls rather than one small LAPACK or BLAS call per sample, and the Haar
factors ``U_i`` come from one Gram-Schmidt pass over the whole stack (the
unique QR factor with a positive ``R`` diagonal).  The kernel keeps its
sample-first signature and receives sample-first views of that memory.  It
decomposes only the samples that can decide its answer: it takes the exact
largest eigenvalue ``c`` of a few samples that rank highest on their
diagonals, drops every sample that one batched LDL' factorisation of
``(c - delta) I - M`` proves to lie below ``c``, and runs ``eigvalsh`` on
the rest but the copies of the sample that set ``c``, so its value is the
unscreened one bit for bit.  The scalar certificate is a safeguarded
Newton search on the convex function
``lambda_max(S1/alpha + S2/(1 - alpha) - P_hat)`` of the weight, which
returns the first certifying iterate and stops early once tangent lines
prove the minimum above tolerance.  Sampling is certification by search: a
found violation is conclusive, absence of violations is reported as "no
violation found" for the sampled budget, while the block certificate
carries the actual proof.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateQError, InternalInconsistencyError
from .linalg import DEFAULT_CERT_TOL, LoewnerRelation, _block_psd_margin, loewner_compare, tol_scale
from .problem import FusionProblem

#: weights scanned by :func:`lmi_feasible_alphas` and :func:`alpha_uniqueness_check`
UNIQUENESS_GRID = 1001
#: the scalar certificate searches eps in this range
PETERSEN_EPS_RANGE = (1e-8, 1e8)
#: the scalar certificate's search stops when its weight bracket is this narrow
PETERSEN_WIDTH = 1e-12
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
    """Scaled gain blocks ``Q1 = K1 P1^{1/2}`` and ``Q2 = K2 P2^{1/2}``."""
    q1 = result.K1 @ problem.est1.p_sqrt
    q2 = result.K2 @ problem.est2.p_sqrt
    return q1, q2


def _lmi_matrix(p_hat: np.ndarray, q1: np.ndarray, q2: np.ndarray, alpha: float) -> np.ndarray:
    n, p1 = q1.shape
    p2 = q2.shape[1]
    m = np.zeros((n + p1 + p2, n + p1 + p2))
    m[:n, :n] = p_hat
    m[:n, n : n + p1] = q1
    m[:n, n + p1 :] = q2
    m[n : n + p1, :n] = q1.T
    m[n + p1 :, :n] = q2.T
    m[n : n + p1, n : n + p1] = alpha * np.eye(p1)
    m[n + p1 :, n + p1 :] = (1.0 - alpha) * np.eye(p2)
    return m


def lmi_certificate(
    result, problem: FusionProblem, alpha: float
) -> ConservativenessCertificate:
    """PSD certificate on the block ``[P, Q1, Q2; Q1', aI, 0; Q2', 0, (1-a)I]``.

    The verdict comes from the dual-evaluated block PSD check, which also
    returns the smallest eigenvalue of the assembled block; that value is
    recorded either way, so a failed certificate is returned rather than
    raised.  The lower right block is diagonal, so the check takes its
    eigenvalues as they stand and decomposes only the assembled block and
    the Schur complement.
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


def lmi_feasible_alphas(result, problem: FusionProblem) -> np.ndarray:
    """Weights of the ``UNIQUENESS_GRID`` grid whose block certificate is PSD."""
    q1, q2 = q_pair(result, problem)
    p_hat = result.P_hat.data
    alphas = np.linspace(0.0, 1.0, UNIQUENESS_GRID)
    base = _lmi_matrix(p_hat, q1, q2, 0.0)
    n, p1 = q1.shape
    p2 = q2.shape[1]
    blocks = np.broadcast_to(base, alphas.shape + base.shape).copy()
    diag_idx = np.arange(n, n + p1)
    blocks[:, diag_idx, diag_idx] = alphas[:, None]
    diag_idx2 = np.arange(n + p1, n + p1 + p2)
    blocks[:, diag_idx2, diag_idx2] = (1.0 - alphas)[:, None]
    min_eigs = np.linalg.eigvalsh(blocks)[:, 0]
    return alphas[min_eigs >= -certificate_tolerance(result)]


def alpha_uniqueness_check(result, problem: FusionProblem) -> bool | None:
    """Whether the certificate weight is pinned down to one grid cell.

    Returns ``None`` (not applicable) when the two information matrices
    coincide, since any weight is then feasible by construction.  Otherwise
    the scan runs over the grid plus the result's own family weight (the
    unique feasible value may fall between grid points, which would leave a
    bare grid scan vacuously empty) and returns ``True`` iff the feasible
    set is nonempty and contained in one grid step around the family weight.
    """
    if loewner_compare(problem.sigma0, problem.sigma1) is LoewnerRelation.EQUAL:
        return None
    feasible = list(lmi_feasible_alphas(result, problem))
    if lmi_certificate(result, problem, result.alpha).passed:
        feasible.append(result.alpha)
    if not feasible:
        return False
    step = 1.0 / (UNIQUENESS_GRID - 1)
    return bool(np.all(np.abs(np.asarray(feasible) - result.alpha) <= step + 1e-15))


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
    reported covariance.  The value is :func:`stack_max_eigenvalue` of the
    sample stack, bitwise equal to ``eigvalsh(stack)[:, -1].max()``: the
    screen decomposes only the few samples that can attain the maximum.
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
    """Largest eigenvalue of ``G + eps*Q1 Q1' + (1/eps)*Q2 Q2'``.

    ``G = -P_hat + Q1 Q1' + Q2 Q2'``; nonpositive values certify
    conservativeness through the scalar uncertainty bound, and the scalar
    relates to the family weight by ``eps = 1/alpha - 1``.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    q1, q2 = q_pair(result, problem)
    g = -result.P_hat.data + q1 @ q1.T + q2 @ q2.T
    m = g + eps * (q1 @ q1.T) + (1.0 / eps) * (q2 @ q2.T)
    return float(np.linalg.eigvalsh(0.5 * (m + m.T))[-1])


def _tangent_floor(lo_tangent, hi_tangent, lo: float, hi: float) -> tuple[float, float]:
    """Where on ``[lo, hi]`` the larger of two end tangents is least, and that value.

    Each tangent is ``(alpha, f, slope)`` of a convex function at ``lo`` or
    ``hi``, or ``None`` when that end was not evaluated (at most one is);
    the value is then a lower bound on the function over ``[lo, hi]``.
    """
    if hi_tangent is None:
        a, f, g = lo_tangent
        return hi, f + g * (hi - a)
    if lo_tangent is None:
        a, f, g = hi_tangent
        return lo, f + g * (lo - a)
    (a1, f1, g1), (a2, f2, g2) = lo_tangent, hi_tangent
    x = min(max((f1 - f2 + g2 * a2 - g1 * a1) / (g2 - g1), lo), hi)
    return x, max(f1 + g1 * (x - a1), f2 + g2 * (x - a2))


def petersen_certificate(result, problem: FusionProblem) -> float | None:
    """Scalar certificate ``eps = 1/alpha - 1`` found by a safeguarded Newton search.

    The search works in the weight, on the convex function
    ``f(alpha) = lambda_max(M)`` with ``M = S1/alpha + S2/(1 - alpha) - P_hat``
    and ``S_i = Q_i Q_i'`` formed once; ``f`` is :func:`petersen_objective`
    at ``eps = 1/alpha - 1``, and the search keeps to the weights that map
    into ``PETERSEN_EPS_RANGE``.  It starts at the result's own weight,
    clipped into that range.  The first iterate with ``f`` at most
    :func:`certificate_tolerance` certifies, since any such eps does, and
    its eps is returned once :func:`petersen_objective` confirms it: the
    printed eps is that iterate, not necessarily the minimiser of ``f``.

    Otherwise the sign of ``f' = v'M'v``, with ``v`` the top eigenvector and
    ``M' = -S1/alpha^2 + S2/(1 - alpha)^2``, keeps a bracket around the
    minimiser, and the next iterate is the Newton step on ``f'``, with
    ``f'' = v'M''v + 2 sum_j (v_j'M'v)^2 / (lambda_max - lambda_j)`` from
    the same ``eigh``, eigengap term included.  A step that leaves the
    bracket falls back to the unevaluated end of the range it points past,
    else to the point where the tangents at the two bracket ends cross,
    which lands on a kink of ``f`` where the top eigenvalue is multiple and
    Newton stalls; when the bracket did not halve over the last two steps,
    the next iterate bisects it.  Returns ``None`` once the tangent lines at
    the two bracket ends bound the minimum of ``f`` above the tolerance,
    which by convexity proves the certificate infeasible, or once the
    bracket is ``PETERSEN_WIDTH`` wide.  Zero gain blocks make the scalar
    form degenerate and raise; those cases are covered by the direct
    one-sided inequalities.
    """
    q1, q2 = q_pair(result, problem)
    if np.abs(q1).max() <= ZERO_Q_TOL:
        raise DegenerateQError("Q1 = 0; use the direct one-sided bound")
    if np.abs(q2).max() <= ZERO_Q_TOL:
        raise DegenerateQError("Q2 = 0; use the direct one-sided bound")
    s1, s2, p_hat = q1 @ q1.T, q2 @ q2.T, result.P_hat.data
    tol = certificate_tolerance(result)
    lo, hi = (1.0 / (1.0 + eps) for eps in reversed(PETERSEN_EPS_RANGE))
    lo_tangent = hi_tangent = None
    alpha = min(max(result.alpha, lo), hi)
    older = old = math.inf  # the bracket widths two steps and one step back
    while True:
        w, v = np.linalg.eigh(s1 / alpha + s2 / (1.0 - alpha) - p_hat)
        f, top = float(w[-1]), v[:, -1]
        if f <= tol:
            eps = 1.0 / alpha - 1.0
            if petersen_objective(result, problem, eps) <= tol:
                return eps
        d1 = s2 / (1.0 - alpha) ** 2 - s1 / alpha**2
        slope = float(top @ d1 @ top)
        if slope < 0.0:
            lo, lo_tangent = alpha, (alpha, f, slope)
        else:
            hi, hi_tangent = alpha, (alpha, f, slope)
        cut, floor = _tangent_floor(lo_tangent, hi_tangent, lo, hi)
        if hi - lo <= PETERSEN_WIDTH or floor > tol:
            return None
        d2 = 2.0 * (s1 / alpha**3 + s2 / (1.0 - alpha) ** 3)
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

    Each sample shrinks both prior blocks to ``P_i^{1/2} C_i P_i^{1/2}``,
    with a random contraction ``C_i = U_i diag(e_i) U_i'`` drawn from its
    eigenpairs, and takes the factor ``F_i = P_i^{1/2} U_i diag(sqrt(e_i))``
    of that block.  The joint is ``[[F1 F1', F1 X F2'], [., F2 F2']]`` with
    ``X`` of spectral norm below one, and its fused error less ``P_hat`` is
    :func:`worst_violation` with ``G_i = K_i F_i``.  ``F_i`` differs from the
    symmetric root of its block by an orthogonal factor that does not depend
    on ``X``, and the law of ``X`` is orthogonally invariant, so the joints
    have the same distribution as with symmetric roots; the worst value
    differs from that of a symmetric-root sampler on the same seed, the
    verdict does not.  Two aligned near-extreme cross draws at the full
    diagonal are always included.  The products ``K_i F_i`` are one
    ``einsum`` each, written straight into the sample-last stack the kernel
    views.  Returns the maximum largest eigenvalue of ``K P_joint K' -
    P_hat``.
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


def certificate_tolerance(result) -> float:
    """Scale-adjusted absolute tolerance used by the sampling verdicts."""
    return DEFAULT_CERT_TOL * tol_scale(float(np.diag(result.P_hat.data).max()))
