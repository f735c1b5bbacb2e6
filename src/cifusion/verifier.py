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
U_i diag(sqrt(e_i))``, so no sample needs a matrix square root.  Sampling is
certification by search: a found violation is conclusive, absence of
violations is reported as "no violation found" for the sampled budget, while
the block certificate carries the actual proof.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateQError
from .linalg import DEFAULT_CERT_TOL, LoewnerRelation, block_psd_check, loewner_compare, tol_scale
from .problem import FusionProblem

#: weights scanned by :func:`lmi_feasible_alphas` and :func:`alpha_uniqueness_check`
UNIQUENESS_GRID = 1001
#: the scalar certificate searches eps in this range
PETERSEN_EPS_RANGE = (1e-8, 1e8)
#: gain blocks with max |entry| below this count as zero (degenerate cases)
ZERO_Q_TOL = 1e-14
_PHI = (1.0 + math.sqrt(5.0)) / 2.0


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

    The verdict comes from the dual-evaluated block PSD check; the smallest
    eigenvalue of the assembled block is recorded either way, so a failed
    certificate is returned rather than raised.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha={alpha} outside [0, 1]")
    q1, q2 = q_pair(result, problem)
    p_hat = result.P_hat.data
    block = _lmi_matrix(p_hat, q1, q2, alpha)
    min_eig = float(np.linalg.eigvalsh(block)[0])
    r = np.zeros((q1.shape[1] + q2.shape[1],) * 2)
    r[: q1.shape[1], : q1.shape[1]] = alpha * np.eye(q1.shape[1])
    r[q1.shape[1] :, q1.shape[1] :] = (1.0 - alpha) * np.eye(q2.shape[1])
    passed = block_psd_check(p_hat, np.hstack([q1, q2]), r)
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


def worst_violation(g1: np.ndarray, g2: np.ndarray, xs: np.ndarray, p_hat: np.ndarray) -> float:
    """Largest eigenvalue of ``G1 G1' + G1 X G2' + G2 X' G1' + G2 G2' - P_hat`` over samples.

    ``xs`` stacks the cross parameters X.  Each factor ``g1``, ``g2`` is one
    matrix shared by every sample or a stack with one matrix per sample.
    This is the fused error covariance of a joint whose diagonal blocks
    factor as ``G G'`` and whose cross block is ``G1 X G2'``, less the
    reported covariance.
    """
    cross = g1 @ xs @ np.swapaxes(g2, -1, -2)
    mats = (
        g1 @ np.swapaxes(g1, -1, -2)
        + g2 @ np.swapaxes(g2, -1, -2)
        - p_hat
        + cross
        + np.swapaxes(cross, -1, -2)
    )
    return float(np.linalg.eigvalsh(mats)[..., -1].max())


def _draw_cross(rng, count: int, p1: int, p2: int, shrink: float) -> np.ndarray:
    """Gaussian directions scaled to a spectral norm uniform on ``[0, shrink)``.

    The spectral norm of each draw is the root of the largest eigenvalue of
    its smaller Gram matrix, ``X X'`` or ``X' X``.
    """
    xs = rng.standard_normal((count, p1, p2))
    xt = np.swapaxes(xs, -1, -2)
    gram = xs @ xt if p1 <= p2 else xt @ xs
    smax = np.sqrt(np.linalg.eigvalsh(gram)[:, -1])
    scale = rng.uniform(size=count) * shrink / np.maximum(smax, 1e-300)
    return xs * scale[:, None, None]


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
    xs = np.concatenate(
        [np.zeros((1, p1, p2)), extreme[None], -extreme[None], xs], axis=0
    )
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


def petersen_certificate(result, problem: FusionProblem) -> float | None:
    """Scalar certificate found by golden section on the log of eps.

    Returns the minimizing eps in ``PETERSEN_EPS_RANGE`` when the objective
    dips to :func:`certificate_tolerance`, ``None`` when infeasible.  Zero
    gain blocks make the scalar form degenerate and raise; those cases are
    covered by the direct one-sided inequalities.
    """
    q1, q2 = q_pair(result, problem)
    if np.abs(q1).max() <= ZERO_Q_TOL:
        raise DegenerateQError("Q1 = 0; use the direct one-sided bound")
    if np.abs(q2).max() <= ZERO_Q_TOL:
        raise DegenerateQError("Q2 = 0; use the direct one-sided bound")

    def f(t: float) -> float:
        return petersen_objective(result, problem, math.exp(t))

    lo, hi = map(math.log, PETERSEN_EPS_RANGE)
    c = hi - (hi - lo) / _PHI
    d = lo + (hi - lo) / _PHI
    fc, fd = f(c), f(d)
    for _ in range(200):
        if hi - lo <= 1e-10:
            break
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - (hi - lo) / _PHI
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + (hi - lo) / _PHI
            fd = f(d)
    eps = math.exp(0.5 * (lo + hi))
    value = petersen_objective(result, problem, eps)
    return eps if value <= certificate_tolerance(result) else None


def _random_contraction_factors(rng, dim: int, count: int) -> np.ndarray:
    """Factors ``U diag(sqrt(e))`` of random contractions ``U diag(e) U'``.

    ``U`` is Haar orthogonal (sign-fixed QR of a Gaussian) and the spectrum
    ``e`` is uniform on ``[0.05, 1)``.
    """
    gauss = rng.standard_normal((count, dim, dim))
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.einsum("sii->si", r))
    signs[signs == 0.0] = 1.0
    eigs = rng.uniform(0.05, 1.0, size=(count, dim))
    return q * (signs * np.sqrt(eigs))[:, None, :]


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
    diagonal are always included.  Returns the maximum largest eigenvalue
    of ``K P_joint K' - P_hat``.
    """
    if truth_samples < 1:
        raise ValueError("truth_samples must be positive")
    rng = np.random.default_rng(seed)
    p1, p2 = problem.p1, problem.p2
    r1 = _random_contraction_factors(rng, p1, truth_samples)
    r2 = _random_contraction_factors(rng, p2, truth_samples)
    xs = _draw_cross(rng, truth_samples, p1, p2, 1.0 - 1e-12)

    q1, q2 = q_pair(result, problem)
    extreme = _extreme_cross_direction(q1, q2) * (1.0 - 1e-6)
    g1 = np.concatenate([np.broadcast_to(q1, (2,) + q1.shape), q1 @ r1], axis=0)
    g2 = np.concatenate([np.broadcast_to(q2, (2,) + q2.shape), q2 @ r2], axis=0)
    xs = np.concatenate([extreme[None], -extreme[None], xs], axis=0)
    return worst_violation(g1, g2, xs, result.P_hat.data)


def certificate_tolerance(result) -> float:
    """Scale-adjusted absolute tolerance used by the sampling verdicts."""
    return DEFAULT_CERT_TOL * tol_scale(float(np.diag(result.P_hat.data).max()))
