"""Numerical certification that a fusion output stays conservative.

Four routes cross-validate each other: the semidefinite block certificate,
its scalar counterpart obtained from a norm-bounded-uncertainty argument,
adversarial search over admissible normalized cross terms, and Monte Carlo
over admissible true joint covariances.  Sampling is certification by
search: a found violation is conclusive, absence of violations is reported
as "no violation found" for the sampled budget, while the block certificate
carries the actual proof.
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


def _batch_sym_max_eig(mats: np.ndarray) -> np.ndarray:
    sym = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    return np.linalg.eigvalsh(sym)[..., -1]


def _extreme_cross_direction(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Aligned orthogonal-factor extreme from the SVD of ``Q1.T Q2``."""
    u, _, vt = np.linalg.svd(q1.T @ q2, full_matrices=False)
    return u @ vt


def adversarial_x_search(
    result, problem: FusionProblem, samples: int = 1000, seed: int = 0
) -> float:
    """Largest sampled violation of the norm-bounded cross-term inequality.

    Draws random normalized cross parameters with largest singular value at
    most one (Gaussian matrices scaled to a uniform spectral radius), always
    including the zero matrix and the aligned extremes from the SVD of
    ``Q1.T Q2``, and returns the maximum over samples of the largest
    eigenvalue of ``Q1 Q1' + Q1 X Q2' + Q2 X' Q1' + Q2 Q2' - P_hat``.
    Values at or below tolerance certify that no sampled violation exists.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    q1, q2 = q_pair(result, problem)
    p1, p2 = q1.shape[1], q2.shape[1]
    xs = rng.standard_normal((samples, p1, p2))
    smax = np.linalg.svd(xs, compute_uv=False)[:, 0]
    scale = rng.uniform(size=samples) / np.maximum(smax, 1e-300)
    xs *= scale[:, None, None]
    extreme = _extreme_cross_direction(q1, q2)
    xs = np.concatenate(
        [np.zeros((1, p1, p2)), extreme[None], -extreme[None], xs], axis=0
    )
    base = q1 @ q1.T + q2 @ q2.T - result.P_hat.data
    cross = np.einsum("ij,sjk,lk->sil", q1, xs, q2)
    mats = base[None] + cross + np.swapaxes(cross, -1, -2)
    return float(_batch_sym_max_eig(mats).max())


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


def _random_contractions(rng, dim: int, count: int) -> np.ndarray:
    """Batch of random symmetric matrices with spectrum in (0, 1]."""
    gauss = rng.standard_normal((count, dim, dim))
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.einsum("sii->si", r))
    signs[signs == 0.0] = 1.0
    q = q * signs[:, None, :]
    eigs = rng.uniform(0.05, 1.0, size=(count, dim))
    return np.einsum("sij,sj,skj->sik", q, eigs, q)


def _batch_sqrt_psd(mats: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (mats + np.swapaxes(mats, -1, -2)))
    w = np.clip(w, 0.0, None)
    return np.einsum("sij,sj,skj->sik", v, np.sqrt(w), v)


def monte_carlo_joint(
    result, problem: FusionProblem, truth_samples: int = 1000, seed: int = 0
) -> float:
    """Largest sampled violation over admissible true joint covariances.

    Samples PD joints whose diagonal blocks stay below the reported prior
    covariances (random PSD shrinks of each block) and whose cross block
    comes from the normalized-cross inverse map with spectral norm below
    one.  Two aligned near-extreme cross draws at the full diagonal are
    always included.  Returns the maximum largest eigenvalue of
    ``K P_joint K' - P_hat``.
    """
    if truth_samples < 1:
        raise ValueError("truth_samples must be positive")
    rng = np.random.default_rng(seed)
    est1, est2 = problem.est1, problem.est2
    p1, p2 = problem.p1, problem.p2
    c1 = _random_contractions(rng, p1, truth_samples)
    c2 = _random_contractions(rng, p2, truth_samples)
    p1s = est1.p_sqrt @ c1 @ est1.p_sqrt
    p2s = est2.p_sqrt @ c2 @ est2.p_sqrt
    xs = rng.standard_normal((truth_samples, p1, p2))
    smax = np.linalg.svd(xs, compute_uv=False)[:, 0]
    scale = rng.uniform(size=truth_samples) * (1.0 - 1e-12) / np.maximum(smax, 1e-300)
    xs *= scale[:, None, None]

    q1, q2 = q_pair(result, problem)
    extreme = _extreme_cross_direction(q1, q2) * (1.0 - 1e-6)
    p1s = np.concatenate([np.broadcast_to(est1.p_hat.data, (2, p1, p1)), p1s], axis=0)
    p2s = np.concatenate([np.broadcast_to(est2.p_hat.data, (2, p2, p2)), p2s], axis=0)
    xs = np.concatenate([extreme[None], -extreme[None], xs], axis=0)

    sq1 = _batch_sqrt_psd(p1s)
    sq2 = _batch_sqrt_psd(p2s)
    p12s = sq1 @ xs @ sq2
    k1, k2 = result.K1, result.K2
    fused = (
        k1 @ p1s @ k1.T
        + k1 @ p12s @ k2.T
        + k2 @ np.swapaxes(p12s, -1, -2) @ k1.T
        + k2 @ p2s @ k2.T
    )
    return float(_batch_sym_max_eig(fused - result.P_hat.data).max())


def certificate_tolerance(result) -> float:
    """Scale-adjusted absolute tolerance used by the sampling verdicts."""
    return DEFAULT_CERT_TOL * tol_scale(float(np.diag(result.P_hat.data).max()))
