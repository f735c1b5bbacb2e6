"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from cifusion import FusionProblem, JointCovariance, LoewnerRelation, PartialEstimate
from cifusion.errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    NotPdError,
    NotPsdError,
    OutOfRangeError,
    SingularSigmaError,
    UnreachableError,
)
from cifusion.linalg import (
    DEFAULT_CERT_TOL,
    DEFAULT_TOL,
    PETERSEN_WIDTH,
    PsdMatrix,
    inv_pd,
    loewner_compare,
    newton_weights,
    psd_certify,
    sym_data,
    tol_scale,
)
from cifusion.optimizer import Cost, delta_value
from cifusion.problem import covariance
from cifusion.simulator import (
    INFLATION_FRAC,
    JOINT_HEADROOM,
    GroundTruth,
    NodeState,
    NoiseSpec,
    _random_spd,
)
from cifusion import verifier
from cifusion.verifier import (
    _Gains,
    _schur_function,
    certificate_tolerance,
    petersen_objective,
    q_pair,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_inputs():
    """The benchmark's input generators, ``bench/inputs.py``."""
    sys.path.insert(0, str(BENCH))
    try:
        import inputs
    finally:
        sys.path.remove(str(BENCH))
    return inputs


def random_orthogonal(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def random_spd(rng, dim: int, lo: float = 0.3, hi: float = 3.0) -> np.ndarray:
    q = random_orthogonal(rng, dim)
    eigs = rng.uniform(lo, hi, size=dim)
    return (q * eigs) @ q.T


def random_problem(
    rng, n: int | None = None, p1: int | None = None, p2: int | None = None,
    full_state: bool = False,
) -> FusionProblem:
    """A random instance whose stacked H has full column rank.

    ``p1 + p2 >= n`` and Gaussian H's are of full rank almost surely.
    """
    if n is None:
        n = int(rng.integers(2, 6))
    if full_state:
        p1 = p2 = n
    if p1 is None:
        p1 = int(rng.integers(1, n + 1))
    if p2 is None:
        p2 = int(rng.integers(max(1, n - p1), n + 1))
    h1 = np.eye(n) if full_state else rng.standard_normal((p1, n))
    h2 = np.eye(n) if full_state else rng.standard_normal((p2, n))
    est1 = PartialEstimate(h1, rng.standard_normal(p1), random_spd(rng, p1))
    est2 = PartialEstimate(h2, rng.standard_normal(p2), random_spd(rng, p2))
    return FusionProblem(est1, est2)


def compressed_sensor_pair(rng, n: int, rank: int, rows: int):
    """A sensor ``H1 = M H'`` of ``rows`` rows and rank ``rank``, and its BLUE compression.

    ``H'`` is ``rank x n`` and ``M`` is ``rows x rank``, both Gaussian, so
    of full rank.  The compressed sensor observes ``H' x`` with
    ``P' = (M' P1^-1 M)^-1`` and ``x' = P' M' P1^-1 x1``, which carries the
    same information ``H1' P1^-1 H1 = H'' P'^-1 H'`` and the same
    information vector.  The second sensor makes the stack reach rank n.
    """
    h_small = rng.standard_normal((rank, n))
    m = rng.standard_normal((rows, rank))
    p1 = random_spd(rng, rows)
    x1 = rng.standard_normal(rows)
    m_info = m.T @ np.linalg.solve(p1, np.column_stack([m, x1]))
    p_small = np.linalg.inv(m_info[:, :rank])
    p_small = 0.5 * (p_small + p_small.T)
    x_small = p_small @ m_info[:, rank]
    p2 = int(rng.integers(max(1, n - rank), n + 1))
    est2 = PartialEstimate(rng.standard_normal((p2, n)), rng.standard_normal(p2),
                           random_spd(rng, p2))
    full = FusionProblem(PartialEstimate(m @ h_small, x1, p1), est2)
    small = FusionProblem(PartialEstimate(h_small, x_small, p_small), est2)
    return full, small


def dominated_problem(rng, n: int, dominant_first: bool = True) -> FusionProblem:
    """Instance where one information matrix strictly dominates the other."""
    strong = PartialEstimate(np.eye(n), rng.standard_normal(n), 0.05 * np.eye(n))
    p_weak = int(rng.integers(1, n + 1))
    h_weak = rng.standard_normal((p_weak, n))
    h_weak /= np.linalg.norm(h_weak, axis=1, keepdims=True)
    weak = PartialEstimate(h_weak, rng.standard_normal(p_weak), 10.0 * np.eye(p_weak))
    return FusionProblem(strong, weak) if dominant_first else FusionProblem(weak, strong)


def sqrt_psd(a: PsdMatrix) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Negative eigenvalues inside the certification tolerance are clamped to
    zero before taking the root.
    """
    w, v = np.linalg.eigh(a.data)
    w = np.clip(w, 0.0, None)
    return sym_data((v * np.sqrt(w)) @ v.T)


def assemble_cross(p1: PsdMatrix, x, p2: PsdMatrix) -> np.ndarray:
    """Cross block ``P12 = P1^{1/2} X P2^{1/2}`` of the normalized cross parameter ``X``."""
    return sqrt_psd(p1) @ np.asarray(x, dtype=float) @ sqrt_psd(p2)


def joint_from_cross_parameter(p1, x, p2) -> JointCovariance:
    """Joint covariance whose cross block is :func:`assemble_cross` of ``X``.

    ``P1`` and ``P2`` pass ``problem.covariance`` with the dimensions of
    ``X``, as the joint's own blocks do.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    cert1 = covariance(p1, x.shape[0], "P1")
    cert2 = covariance(p2, x.shape[1], "P2")
    return JointCovariance(cert1, assemble_cross(cert1, x, cert2), cert2)


def random_joint(rng, p1: int, p2: int, pd: bool = True) -> JointCovariance:
    """Random joint covariance via the normalized-cross parameterization."""
    x = rng.standard_normal((p1, p2))
    smax = np.linalg.svd(x, compute_uv=False)[0]
    x *= rng.uniform(0.0, 0.95 if pd else 1.0) / max(smax, 1e-300)
    return joint_from_cross_parameter(random_spd(rng, p1), x, random_spd(rng, p2))


def bar_shalom_campo(joint: JointCovariance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(K1*, K2*, P*)`` by the two-track formula of Bar-Shalom and Campo, for H1 = H2 = I.

    ``K2* = (P1 - P12) D^{-1}``, ``K1* = I - K2*`` and ``P* = P1 - (P1 -
    P12) D^{-1} (P1 - P12')`` with ``D = P1 + P2 - P12 - P12'``, PD for a
    PD joint.  It ignores H, so it is an oracle of the known-cross optimum
    only where both H are the identity.
    """
    assert joint.p1_dim == joint.p2_dim and joint.pd
    p1, p2, p12 = joint.P1.data, joint.P2.data, joint.P12
    d_inv = inv_pd(p1 + p2 - p12 - p12.T)
    k2 = (p1 - p12) @ d_inv
    return np.eye(joint.p1_dim) - k2, k2, p1 - (p1 - p12) @ d_inv @ (p1 - p12.T)


def member_reference(spectrum, alpha: float) -> PsdMatrix:
    """The family member at ``alpha`` by the ladder ``ku_rule`` ran before ``JointSpectrum.member``.

    In order: :meth:`~cifusion.problem.JointSpectrum.regular_at`, the
    fused trace below ``2^1023`` summed on the kept ``c``, then
    ``psd_certify`` of the formed member (its ``NotPsdError`` becomes a
    ``SingularSigmaError`` with the same text), then strictness.  It
    certifies every member with its own ``eigvalsh``.
    """
    t = alpha - 0.5
    if not spectrum.regular_at(t):
        raise SingularSigmaError(f"blended information matrix is singular at alpha={alpha}")
    trace = 0.0
    for lam, c in zip(spectrum.lam.tolist(), spectrum.c.tolist()):
        trace += c / (1.0 + t * lam)
    if math.frexp(trace)[1] - 2 * spectrum.exponent > 1023:
        raise SingularSigmaError(f"fused covariance is outside the float range at alpha={alpha}")
    try:
        p_hat = psd_certify(spectrum.fused_cov(t))
    except NotPsdError as exc:
        raise SingularSigmaError(str(exc)) from exc
    if not p_hat.strict:
        raise SingularSigmaError("fused covariance is not strictly PD")
    return p_hat


def information_pair(problem: FusionProblem) -> tuple[np.ndarray, np.ndarray]:
    """``(Sigma1, Sigma0)``: each estimate's information ``H' P_hat^-1 H``, symmetrised.

    Formed from each estimate's ``H`` and ``P_hat`` directly, not from the
    whitened stack or the joint spectrum the solvers read.
    """
    return tuple(sym_data(est.h.T @ inv_pd(est.p_hat.data) @ est.h)
                 for est in (problem.est1, problem.est2))


def _exact_inverse(a: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a nonsingular matrix of fractions, by Gauss-Jordan elimination."""
    n = len(a)
    m = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def exact_information_pair(problem: FusionProblem) -> tuple[list[list[Fraction]], ...]:
    """``(Sigma1, Sigma0)`` as fractions: each ``H_i' P_i^-1 H_i`` formed exactly.

    From the estimate's float ``H`` and ``P_hat``, read as fractions, so no
    entry is rounded.  For small ``n`` (the fractions' size grows with it).
    """
    n, pair = problem.n, []
    for est in (problem.est1, problem.est2):
        h = [[Fraction(x) for x in row] for row in est.h.tolist()]
        p_inv = _exact_inverse([[Fraction(x) for x in row] for row in est.p_hat.data.tolist()])
        p_inv_h = [[sum(r[k] * h[k][j] for k in range(est.p)) for j in range(n)] for r in p_inv]
        pair.append([[sum(h[k][i] * p_inv_h[k][j] for k in range(est.p)) for j in range(n)]
                     for i in range(n)])
    return tuple(pair)


def _exact_blend(pair, alpha: float) -> list[list[Fraction]]:
    a = Fraction(alpha)
    return [[a * x + (1 - a) * y for x, y in zip(r1, r0)] for r1, r0 in zip(*pair)]


def exact_fused_cov(problem: FusionProblem, alpha: float) -> np.ndarray:
    """``(alpha Sigma1 + (1 - alpha) Sigma0)^-1`` in exact rational arithmetic, rounded once.

    The pair is :func:`exact_information_pair`, so the one rounding is the
    final conversion of each entry to the nearest float.
    """
    inverse = _exact_inverse(_exact_blend(exact_information_pair(problem), alpha))
    return np.array([[float(x) for x in row] for row in inverse])


def exact_slope(pair, alpha: float, cost: Cost) -> Fraction:
    """The cost's slope in alpha at ``alpha``, exactly, on a pair of :func:`exact_information_pair`.

    ``-tr(P D)`` for DET (of ``log det P``) and ``-tr(P D P)`` for TRACE, with
    ``P`` the inverse of the blend and ``D = Sigma1 - Sigma0``.
    """
    p = _exact_inverse(_exact_blend(pair, alpha))
    d = [[x - y for x, y in zip(r1, r0)] for r1, r0 in zip(*pair)]
    x = _exact_product(p, d)
    if cost is Cost.TRACE:
        x = _exact_product(x, p)
    return -sum(x[i][i] for i in range(len(x)))


def _exact_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def sigma_alpha(problem: FusionProblem, alpha: float) -> np.ndarray:
    """Convex blend ``alpha * Sigma1 + (1 - alpha) * Sigma0`` of the problem's information matrices."""
    s1, s0 = information_pair(problem)
    return sym_data(alpha * s1 + (1.0 - alpha) * s0)


def random_unbiased_gains(rng, problem: FusionProblem, count: int) -> np.ndarray:
    """Batch of gains K with K @ H = I, via the pseudo-inverse plus nullspace."""
    h = problem.h_stacked
    hp = np.linalg.pinv(h)
    proj = np.eye(h.shape[0]) - h @ hp
    z = rng.standard_normal((count, problem.n, h.shape[0]))
    return hp[None] + z @ proj


def grid_costs(problem: FusionProblem, cost: Cost, grid: int = 1001):
    """Brute-force extended cost on a uniform weight grid (batched)."""
    alphas = np.linspace(0.0, 1.0, grid)
    s1, s0 = information_pair(problem)
    combos = alphas[:, None, None] * s1 + (1.0 - alphas)[:, None, None] * s0
    eigs = np.linalg.eigvalsh(combos)
    scale = np.abs(eigs).max(axis=1)
    singular = eigs[:, 0] <= 1e-12 * np.maximum(scale, 1e-300)
    with np.errstate(divide="ignore", over="ignore"):
        if cost is Cost.DET:
            vals = np.prod(1.0 / eigs, axis=1)
        else:
            vals = np.sum(1.0 / eigs, axis=1)
    vals[singular] = np.inf
    return alphas, vals


def gain_norms(result, problem: FusionProblem) -> tuple[float, float]:
    """``r_i = sqrt(trace(K_i P_i K_i'))`` of a result's two gains."""
    return tuple(
        math.sqrt(max(0.0, float(np.trace(k @ est.p_hat.data @ k.T))))
        for k, est in ((result.K1, problem.est1), (result.K2, problem.est2))
    )


def fixed_point_residual(result, problem: FusionProblem) -> float:
    """``|alpha - r1 / (r1 + r2)|`` of :func:`gain_norms`: the trace optimum's gain-ratio fixed point.

    An interior trace-optimal weight satisfies ``alpha = r1 / (r1 + r2)``;
    NaN when both gains vanish.
    """
    r1, r2 = gain_norms(result, problem)
    return abs(result.alpha - r1 / (r1 + r2)) if r1 + r2 > 0.0 else math.nan


def det_alpha_oracle(problem: FusionProblem) -> float:
    """Determinant-optimal weight by bisection on the adjugate polynomial Delta.

    Independent of the solver's joint spectrum: the Loewner relation comes
    from ``loewner_compare``, endpoint singularity from ``eigvalsh`` of the
    endpoint blends, and the slope sign from
    ``Delta(alpha) = trace(adj(Sigma_alpha) (Sigma1 - Sigma0))``, which is
    positive left of the optimum and negative right of it.
    """
    s1, s0 = information_pair(problem)
    if loewner_compare(s0, s1) is LoewnerRelation.EQUAL:
        return 0.5

    def regular(sigma) -> bool:
        eigs = np.linalg.eigvalsh(sigma)
        return eigs[0] > 1e-12 * np.abs(eigs).max()

    if regular(s0) and delta_value(problem, 0.0) <= 0.0:
        return 0.0
    if regular(s1) and delta_value(problem, 1.0) >= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        d_mid = delta_value(problem, mid)
        if d_mid == 0.0:
            return mid
        if d_mid > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def well_scaled_problems(rng, count: int, cost_cap: float = 50.0):
    """Seeded instances whose optimal cost stays O(1) for both costs.

    The absolute 1e-9 optimality gates compare determinant values directly,
    so instances with huge objective magnitudes would drown the comparison
    in eigensolver rounding; filtering keeps the gates meaningful.
    """
    out = []
    while len(out) < count:
        problem = random_problem(rng)
        ok = True
        for cost in (Cost.DET, Cost.TRACE):
            _, vals = grid_costs(problem, cost, grid=101)
            if vals.min() > cost_cap:
                ok = False
                break
        if ok:
            out.append(problem)
    return out


def sample_intersection_points(
    rng, problem: FusionProblem, count: int, level: float = 0.99
) -> np.ndarray:
    """Points with both prior quadratic forms at most ``level`` (< 1)."""
    ys = rng.standard_normal((count, problem.n))
    s1, s0 = information_pair(problem)
    q1 = np.einsum("si,ij,sj->s", ys, s1, ys)
    q0 = np.einsum("si,ij,sj->s", ys, s0, ys)
    worst = np.maximum(q1, q0)  # positive: the stacked observation has rank n
    targets = rng.uniform(0.05, level, size=count)
    return ys * np.sqrt(targets / worst)[:, None]


def rank_one_draws(rng, count: int, p1: int, p2: int) -> tuple[np.ndarray, np.ndarray]:
    """Factors ``(a, b)`` of unit-norm rank-one cross parameters ``a b'``, sample-first.

    ``a`` and ``b`` are Gaussian vectors of lengths ``p1`` and ``p2``, drawn
    in that order and normalised.  This is the oracle of
    ``verifier._draw_cross``, which reads the same stream.
    """
    a = rng.standard_normal((count, p1))
    b = rng.standard_normal((count, p2))
    a /= np.linalg.norm(a, axis=1)[:, None]
    b /= np.linalg.norm(b, axis=1)[:, None]
    return a, b


def adversarial_sampling_oracle(result, problem: FusionProblem, samples: int = 1000,
                                seed: int = 0) -> float:
    """Largest sampled violation over rank-one cross parameters of norm one.

    The sampling search that ``verifier.adversarial_x_search`` replaced,
    kept as its oracle: ``samples`` unit Gaussian directions ``a``, ``b``
    from ``default_rng(seed)`` (``verifier._draw_cross``), and the three
    heads ``X = 0`` and ``+-U V'`` from the SVD of ``Q1' Q2``
    (``verifier._extreme_cross_direction``), all on Monte Carlo's kernel
    ``verifier._worst_violation``, judged against ``certificate_tolerance``.
    Each helper is looked up in ``verifier`` at the call, so a test that
    replaces one sees this oracle's calls too.  Every value is a sample's,
    so none lies above the exact witness beyond rounding.
    """
    q1, q2 = q_pair(result, problem)
    base = q1 @ q1.T + q2 @ q2.T - result.P_hat.data
    a, b = verifier._draw_cross(np.random.default_rng(seed), samples, q1.shape[1], q2.shape[1])
    u, v = verifier._extreme_cross_direction(q1, q2)
    return verifier._worst_violation(q1, q2, base,
                                     np.stack([np.zeros_like(u), u, -u]), np.stack([v] * 3),
                                     a, b, certificate_tolerance(result))


def monte_carlo_rng(seed: int) -> np.random.Generator:
    """The generator ``verifier.monte_carlo_joint`` reads for ``seed``.

    It is seeded from the second child of ``SeedSequence(seed)``, spawn key
    ``(1,)``, so its stream is independent of ``default_rng(seed)``, which
    :func:`adversarial_sampling_oracle` reads.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))


def monte_carlo_draws(problem: FusionProblem, seed: int, count: int):
    """The random cross parameters ``verifier.monte_carlo_joint`` draws for ``seed``.

    Drawn here from the stream of :func:`monte_carlo_rng` in the sampler's
    order: unit Gaussian directions ``a`` then ``b``
    (:func:`rank_one_draws`), then radii ``r`` uniform on
    ``[0, 1 - 1e-12)``.  Returns the cross factors ``r a`` and ``b`` of
    ``X = r a b'``, sample-first.  Every sampled joint has the full prior
    blocks ``P_i`` on its diagonal.
    """
    rng = monte_carlo_rng(seed)
    a, b = rank_one_draws(rng, count, problem.p1, problem.p2)
    a *= (rng.uniform(size=count) * (1.0 - 1e-12))[:, None]
    return a, b


def sqrt_q_pair(result, problem: FusionProblem) -> tuple[np.ndarray, np.ndarray]:
    """Scaled gain blocks ``K_i P_i^{1/2}`` on the symmetric roots.

    What ``verifier.q_pair`` returned before it took the Cholesky factors,
    kept as its oracle: the two differ by an orthogonal factor on the right.
    """
    return (result.K1 @ sqrt_psd(problem.est1.p_hat),
            result.K2 @ sqrt_psd(problem.est2.p_hat))


def monte_carlo_sqrt_oracle(result, problem: FusionProblem, truth_samples: int, seed: int) -> float:
    """Monte Carlo over true joints built from symmetric square roots.

    The sampler that ``verifier.monte_carlo_joint`` replaced, kept as its
    oracle.  On the draws of :func:`monte_carlo_draws` it takes the
    symmetric square roots ``S_i`` of the prior blocks by ``eigh``,
    assembles the dense joint ``[[S1 S1, S1 X S2], [S2 X' S1, S2 S2]]`` and
    returns the largest eigenvalue of ``K P_joint K' - P_hat`` over the
    samples, including the two aligned near-extreme cross draws, aligned on
    the blocks of :func:`sqrt_q_pair`.
    """
    est1, est2 = problem.est1, problem.est2
    a, b = monte_carlo_draws(problem, seed, truth_samples)
    q1, q2 = sqrt_q_pair(result, problem)
    u, _, vt = np.linalg.svd(q1.T @ q2, full_matrices=False)
    extreme = u @ vt * (1.0 - 1e-6)
    xs = np.concatenate([extreme[None], -extreme[None], a[:, :, None] * b[:, None, :]], axis=0)

    sq1, sq2 = sqrt_psd(est1.p_hat), sqrt_psd(est2.p_hat)
    p12s = sq1 @ xs @ sq2
    p1s = np.broadcast_to(est1.p_hat.data, (len(xs), problem.p1, problem.p1))
    p2s = np.broadcast_to(est2.p_hat.data, (len(xs), problem.p2, problem.p2))
    joints = np.block([[p1s, p12s], [np.swapaxes(p12s, -1, -2), p2s]])
    k = np.hstack([result.K1, result.K2])
    fused = k @ joints @ k.T - result.P_hat.data
    return float(np.linalg.eigvalsh(0.5 * (fused + np.swapaxes(fused, -1, -2)))[:, -1].max())


#: the range of eps that :func:`petersen_golden_oracle` searches
GOLDEN_EPS_RANGE = (1e-8, 1e8)


def petersen_golden_oracle(result, problem: FusionProblem) -> tuple[float, float]:
    """Minimiser and minimum of the scalar certificate by golden section on log eps.

    The search that ``verifier.petersen_certificate`` replaced, kept as its
    oracle.  ``petersen_objective`` is convex in ``log eps`` (``eps`` and
    ``1/eps`` both are), so the golden section over ``GOLDEN_EPS_RANGE``
    closes on its minimum; the certificate is feasible iff that minimum is
    at most ``certificate_tolerance``.  Returns ``(eps, value)``.
    """
    phi = (1.0 + math.sqrt(5.0)) / 2.0

    def f(t: float) -> float:
        return petersen_objective(result, problem, math.exp(t))

    lo, hi = map(math.log, GOLDEN_EPS_RANGE)
    c = hi - (hi - lo) / phi
    d = lo + (hi - lo) / phi
    fc, fd = f(c), f(d)
    for _ in range(200):
        if hi - lo <= 1e-10:
            break
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - (hi - lo) / phi
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + (hi - lo) / phi
            fd = f(d)
    eps = math.exp(0.5 * (lo + hi))
    return eps, petersen_objective(result, problem, eps)


def one_sided_bound_reference(result, problem: FusionProblem) -> float | None:
    """Smallest eigenvalue of ``P_hat - Q Q'`` when one gain block is zero, else ``None``.

    The route that ``verify`` once printed as its own scalar row where a
    gain block is zero, kept as the oracle of
    ``verifier.petersen_certificate`` there: ``Q`` is the other block of
    ``q_pair``, a block is zero when every entry is exactly zero, and
    conservativeness is this bound being at least ``-certificate_tolerance``.
    """
    q1, q2 = q_pair(result, problem)
    zero1, zero2 = (not q.any() for q in (q1, q2))
    if not (zero1 or zero2):
        return None
    live = q2 if zero1 else q1
    direct = result.P_hat.data - live @ live.T
    return float(np.linalg.eigvalsh(0.5 * (direct + direct.T))[0])


def delta_poly_coeffs(problem: FusionProblem) -> np.ndarray:
    """Coefficients (descending powers) of the degree <= n-1 polynomial Delta.

    Recovered by interpolation on n evenly spaced weights; exact up to
    rounding because Delta is a polynomial of the stated degree.
    """
    n = problem.n
    nodes = np.linspace(0.0, 1.0, n) if n > 1 else np.array([0.0])
    values = np.array([delta_value(problem, a) for a in nodes])
    vander = np.vander(nodes, n)  # columns: a^(n-1), ..., a, 1
    return np.linalg.solve(vander, values) if n > 1 else values


def first_feasible_weight(m, dm, tol: float, start: float) -> float | None:
    """First iterate of ``linalg.newton_weights`` from ``start`` with ``lambda_max(M) <= tol``.

    ``None`` once the end tangents bound ``min f`` above ``tol`` (by
    convexity, no weight qualifies) or the bracket is ``PETERSEN_WIDTH``
    wide.  The question that ``verifier._walk`` answers for the scalar
    certificate, kept as the oracle of the searches below.
    """
    for alpha, w, _, _, floor in newton_weights(m, dm, start):
        if w[-1] <= tol:
            return alpha
        if floor > tol:
            return None
    return None


def feasible_weight_end(m, tol: float, inside: float, end: float) -> float:
    """The end towards ``end`` (0.0 or 1.0) of the weights with ``lambda_max(M) <= tol``.

    ``inside`` is a weight that qualifies.  ``end`` is returned exactly when
    it qualifies; else the end is bisected on ``m`` between the two to
    ``PETERSEN_WIDTH``.
    """

    def qualifies(alpha: float) -> bool:
        value = m(alpha)
        return value is not None and float(np.linalg.eigvalsh(value)[-1]) <= tol

    good, bad = (end, end) if qualifies(end) else (inside, end)
    while abs(bad - good) > PETERSEN_WIDTH:
        mid = 0.5 * (good + bad)
        good, bad = (mid, bad) if qualifies(mid) else (good, mid)
    return good


def feasible_weight_interval(m, dm, tol: float, start: float) -> tuple[float, float] | None:
    """The weights with ``lambda_max(M) <= tol``, one interval ``(lo, hi)``, or ``None``.

    Each end is :func:`feasible_weight_end` from the weight
    :func:`first_feasible_weight` finds; ``m`` and ``dm`` are as there.
    """
    inside = first_feasible_weight(m, dm, tol, start)
    if inside is None:
        return None
    return feasible_weight_end(m, tol, inside, 0.0), feasible_weight_end(m, tol, inside, 1.0)


def lmi_feasible_interval(result, problem: FusionProblem) -> tuple[float, float] | None:
    """The weights whose block certificate holds, as one interval ``(lo, hi)``, or ``None``.

    The block of ``verifier.lmi_certificate`` is PSD exactly where its Schur
    complement (``verifier._schur_function``) has ``lambda_max <= 0``.
    """
    m, dm = _schur_function(_Gains(result, problem))
    return feasible_weight_interval(m, dm, certificate_tolerance(result), result.alpha)


def alpha_uniqueness_check(result, problem: FusionProblem) -> bool | None:
    """Whether :func:`lmi_feasible_interval` is nonempty and at most twice its first-order width.

    ``None`` when the information matrices coincide, as any weight is then
    feasible; the solver's ``problem.spectrum.relation`` decides that, so
    the two classify a pair alike at every scale.  A CI family member's
    Schur complement M vanishes at its own weight, so to first order
    ``lambda_max(M) <= tol`` on a width
    ``tol (1/lambda_max(M') + 1/(-lambda_min(M')))``, ``M'`` taken there;
    a part counts only if its eigenvalue has that sign and the weight can
    move that way.  ``False`` when M is infinite at that weight.
    """
    if problem.spectrum.relation is LoewnerRelation.EQUAL:
        return None
    m, dm = _schur_function(_Gains(result, problem))
    tol = certificate_tolerance(result)
    interval = feasible_weight_interval(m, dm, tol, result.alpha)
    if interval is None or m(result.alpha) is None:
        return False
    eigs = np.linalg.eigvalsh(dm(result.alpha)[0])
    w1 = tol / eigs[-1] if eigs[-1] > 0.0 and result.alpha < 1.0 else 0.0
    w1 += tol / -eigs[0] if eigs[0] < 0.0 and result.alpha > 0.0 else 0.0
    return bool(interval[1] - interval[0] <= 2.0 * w1)


def lower_bound_witness(problem: FusionProblem, candidate_p: PsdMatrix) -> float | None:
    """Weight witnessing that a candidate covariance obeys the family bound.

    Returns the smallest weight ``a`` with the candidate dominating the
    blended covariance ``(a*Sigma1 + (1-a)*Sigma0)^{-1}``, or ``None`` when
    no weight qualifies, which flags the candidate as violating the lower
    bound every conservative unbiased rule must satisfy.  With ``T`` the
    candidate's inverse, ``a`` qualifies when ``lambda_max(T - a*Sigma1 -
    (1-a)*Sigma0) <= tol``, ``tol = DEFAULT_TOL * tol_scale`` of the three
    matrices' largest entry: that is convex in ``a``, so from the weight
    :func:`first_feasible_weight` finds from ``a = 0`` the answer is
    :func:`feasible_weight_end` towards 0, exactly 0.0 when ``a = 0``
    qualifies.
    """
    if not candidate_p.strict:
        raise NotPdError("candidate covariance must be strictly PD")
    (s1, s0), target = information_pair(problem), inv_pd(candidate_p.data)
    tol = DEFAULT_TOL * tol_scale(max(np.abs(s1).max(), np.abs(s0).max(), np.abs(target).max()))
    dm = s0 - s1, np.zeros_like(target)

    def m(a: float) -> np.ndarray:
        return target - a * s1 - (1.0 - a) * s0

    inside = first_feasible_weight(m, lambda a: dm, tol, 0.0)
    return None if inside is None else feasible_weight_end(m, tol, inside, 0.0)


#: both prior quadratic forms must stay below 1 - INTERIOR_MARGIN for the
#: covering construction; the corners of the intersection are uncoverable
INTERIOR_MARGIN = 1e-6
#: quadratic forms closer than this (relatively) take the perturbed
#: construction, keeping the joint covariance away from singularity
EQUAL_FORMS_RTOL = 1e-6


def covering_cross_cov(x, problem: FusionProblem) -> np.ndarray:
    """Cross covariance whose optimal known-cross fusion covers an interior point.

    The paper's covering argument: for every point strictly inside both
    prior error ellipsoids ``{x : x' Sigma_i x <= 1}`` (margin
    ``INTERIOR_MARGIN``) the returned ``P12`` makes the joint strictly PD
    and puts ``x`` inside the ellipsoid of the fused information, so every
    conservative rule's ellipsoid contains the intersection.  The
    construction swaps the estimates so the second block is at least as
    wide as the first, which leaves the fused ellipsoid unchanged.  Raises
    ``ValueError`` for a point that is not strictly interior, or that the
    second observation map sends to zero while the first does not.
    """
    x = np.asarray(x, dtype=float)
    s1, s0 = information_pair(problem)
    q1 = float(x @ s1 @ x)
    q2 = float(x @ s0 @ x)
    if q1 > 1.0 - INTERIOR_MARGIN or q2 > 1.0 - INTERIOR_MARGIN:
        raise ValueError(f"point is not strictly interior (values {q1:.6g}, {q2:.6g})")
    if problem.p2 >= problem.p1:
        return _covering(problem, x)
    return _covering(FusionProblem(problem.est2, problem.est1), x).T


def _covering(problem: FusionProblem, x: np.ndarray) -> np.ndarray:
    """:func:`covering_cross_cov` for ``p2 >= p1``, so the first direction can be zero-padded."""
    (root1, inv_root1), (root2, inv_root2) = (
        _sym_roots(est.p_hat.data) for est in (problem.est1, problem.est2)
    )
    w_vec = inv_root1 @ (problem.est1.h @ x)
    v_vec = inv_root2 @ (problem.est2.h @ x)
    q1 = float(w_vec @ w_vec)
    q2 = float(v_vec @ v_vec)
    if q1 == 0.0:
        return np.zeros((problem.p1, problem.p2))
    if q2 == 0.0:
        raise ValueError("second observation of x vanishes")
    w_pad = np.zeros(problem.p2)
    w_pad[: problem.p1] = w_vec
    u = _householder_to(v_vec / np.sqrt(q2), w_pad / np.sqrt(q1))
    base = root1 @ u[: problem.p1, :] @ root2
    if abs(q1 - q2) <= EQUAL_FORMS_RTOL * max(q1, q2):
        # (near-)equal quadratic forms: the scaled construction collapses,
        # so start from a zero cross covariance and halve the back-off from
        # the boundary until the point is covered
        for k in range(60):
            p12 = (1.0 - 0.5**k) * base
            if _fused_form(problem, p12, x) < 1.0:
                return p12
        raise ValueError("perturbed covering failed to converge")
    return np.sqrt(min(q1, q2) / max(q1, q2)) * base


def _sym_roots(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric square root of a PD matrix and its inverse, from one ``eigh``."""
    w, v = np.linalg.eigh(p)
    return (v * np.sqrt(w)) @ v.T, (v / np.sqrt(w)) @ v.T


def _householder_to(a_unit: np.ndarray, b_unit: np.ndarray) -> np.ndarray:
    """Deterministic orthogonal map sending one unit vector onto another."""
    diff = a_unit - b_unit
    nrm = np.linalg.norm(diff)
    if nrm < 1e-14:
        return np.eye(a_unit.size)
    u = diff / nrm
    return np.eye(a_unit.size) - 2.0 * np.outer(u, u)


def _fused_form(problem: FusionProblem, p12: np.ndarray, x: np.ndarray) -> float:
    """Quadratic form of x under the optimal fused information for this cross."""
    joint = np.block([[problem.est1.p_hat.data, p12], [p12.T, problem.est2.p_hat.data]])
    z = problem.h_stacked @ x
    return float(z @ inv_pd(joint) @ z)


def lmi_matrix(p_hat: np.ndarray, q1: np.ndarray, q2: np.ndarray, alpha: float) -> np.ndarray:
    """The block ``[P_hat, Q1, Q2; Q1', alpha I, 0; Q2', 0, (1 - alpha) I]``, assembled."""
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


def lmi_feasible_grid(result, problem: FusionProblem, grid: int = 1001) -> np.ndarray:
    """Weights of a uniform grid whose assembled block has min eig at least ``-tol``.

    The scan that :func:`lmi_feasible_interval` replaced, kept as its
    oracle: one batched ``eigvalsh`` of :func:`lmi_matrix` at every grid
    weight, ``tol`` being ``certificate_tolerance(result)``.
    """
    q1, q2 = q_pair(result, problem)
    alphas = np.linspace(0.0, 1.0, grid)
    blocks = np.stack([lmi_matrix(result.P_hat.data, q1, q2, a) for a in alphas])
    return alphas[np.linalg.eigvalsh(blocks)[:, 0] >= -certificate_tolerance(result)]


def first_order_width(result, problem: FusionProblem) -> float:
    """First-order width ``tol (1/lambda_max(D) + 1/(-lambda_min(D)))`` of the feasible weights.

    ``D = S2/(1 - alpha)^2 - S1/alpha^2`` at the result's own weight, the
    derivative of the Schur complement ``S1/alpha + S2/(1 - alpha) - P_hat``
    that vanishes there for a CI family member; a term ``S_i/0`` with
    ``S_i = 0`` is dropped.  Each part counts only when its eigenvalue has
    that sign and the weight can move that way.
    """
    q1, q2 = q_pair(result, problem)
    alpha = result.alpha
    d = np.zeros((problem.n, problem.n))
    if alpha > 0.0:
        d -= q1 @ q1.T / alpha**2
    if alpha < 1.0:
        d += q2 @ q2.T / (1.0 - alpha) ** 2
    eigs = np.linalg.eigvalsh(d)
    tol = certificate_tolerance(result)
    width = tol / eigs[-1] if eigs[-1] > 0.0 and alpha < 1.0 else 0.0
    return width + (tol / -eigs[0] if eigs[0] < 0.0 and alpha > 0.0 else 0.0)


def reallocating_fusion_oracle(joint, dims, a, b, k1, k2):
    """The block-row fusion into node a on a joint rebuilt at every resize.

    ``GroundTruth.apply_fusion`` before it kept its joint in one buffer:
    the same arithmetic, written in place when node a keeps its size and
    into a fresh ``(N, N)`` joint otherwise.  Returns the new joint and
    dims; the inputs are left as they are when node a is resized.
    """
    dims = list(dims)
    off = np.cumsum([0] + dims)
    lo, hi = int(off[a]), int(off[a + 1])
    rb = slice(int(off[b]), int(off[b + 1]))
    rows = k1 @ joint[lo:hi] + k2 @ joint[rb]
    corner = rows[:, lo:hi] @ k1.T + rows[:, rb] @ k2.T
    corner = 0.5 * (corner + corner.T)
    d = k1.shape[0]
    if d == dims[a]:
        rows[:, lo:hi] = corner
        new = joint
    else:
        rows = np.hstack([rows[:, :lo], corner, rows[:, hi:]])
        size = joint.shape[0] - dims[a] + d
        new = np.empty((size, size))
        new[:lo, :lo] = joint[:lo, :lo]
        new[:lo, lo + d :] = joint[:lo, hi:]
        new[lo + d :, :lo] = joint[hi:, :lo]
        new[lo + d :, lo + d :] = joint[hi:, hi:]
    new[lo : lo + d] = rows
    new[:, lo : lo + d] = rows.T
    dims[a] = d
    return new, dims


def init_network_reference(n: int, nodes: int, seed: int, noise_spec=None):
    """``simulator.init_network`` built node by node, one numpy call per matrix.

    The builder that the staged one replaced, kept as its oracle: each
    node's ``p_list`` check, Cholesky factor, whitening solve, inflation
    and certificates are single calls, in the same draw order, so a network
    built here and by the stages must agree to the bit, and so must the
    error that a bad input raises.
    """
    for name, value in (("n", n), ("nodes", nodes)):
        if value < 1:
            raise OutOfRangeError(f"{name} must be at least 1, got {value}")
    rows, side = nodes * n, math.isqrt(np.iinfo(np.intp).max // 8)
    if rows > side or math.ceil(JOINT_HEADROOM * rows) > side:
        raise MemoryError(f"a joint of {rows} rows cannot be addressed")
    spec = noise_spec or NoiseSpec()
    rng = np.random.default_rng(seed)
    if spec.h_list is not None:
        hs = [np.atleast_2d(np.asarray(h, dtype=float)) for h in spec.h_list]
        if len(hs) != nodes:
            raise DimensionMismatchError(f"h_list has {len(hs)} entries for {nodes} nodes")
        for i, h in enumerate(hs):
            if h.ndim != 2 or h.shape[1] != n:
                raise DimensionMismatchError(
                    f"h_list[{i}] has shape {h.shape}; it needs {n} columns")
    else:
        hs = []
        low = max(1, (n + 1) // 2)
        for _ in range(nodes):
            p = int(rng.integers(low, n + 1))
            hs.append(rng.standard_normal((p, n)))
    if spec.p_list is not None:
        p_true = [np.atleast_2d(np.asarray(p, dtype=float)) for p in spec.p_list]
        if len(p_true) != nodes:
            raise DimensionMismatchError(
                f"p_list has {len(p_true)} entries for {nodes} nodes")
        for i, (h, p) in enumerate(zip(hs, p_true)):
            covariance(p, h.shape[0], f"p_list[{i}]")
    else:
        p_true = [_random_spd(rng, h.shape[0]) for h in hs]
    factors = []
    for i, p in enumerate(p_true):
        try:
            factors.append(np.linalg.cholesky(p))
        except np.linalg.LinAlgError:
            raise NotPdError(f"p_list[{i}]: not positive definite") from None
    whitened = np.vstack([np.linalg.solve(f, h) for f, h in zip(factors, hs)])
    if FusionProblem.whitened_svd(whitened)[-1] < n:
        raise UnreachableError("stacked observations never reach full state rank")
    x_true = rng.standard_normal(n)
    truth = GroundTruth(x_true, p_true)
    z = rng.standard_normal(truth.joint.shape[0])
    node_states = []
    off = 0
    for i, h in enumerate(hs):
        p = h.shape[0]
        e_i = factors[i] @ z[off : off + p]
        off += p
        gauss = rng.standard_normal((p, p))
        w = gauss @ gauss.T
        target = INFLATION_FRAC * np.trace(p_true[i]) * rng.uniform(0.1, 1.0)
        p_hat = psd_certify(p_true[i] + w * (target / np.trace(w)))
        if not loewner_compare(p_hat, p_true[i]).is_ge:
            raise UnreachableError("inflated covariance failed conservativeness")
        node_states.append(NodeState(node_id=i, h=h, x_hat=h @ x_true + e_i, p_hat=p_hat))
    return node_states, truth


#: R eigenvalues below this fraction of the largest count as zero in the
#: reference's pseudo-inverse
PINV_RTOL = 1e-12


def block_psd_margin_reference(q, s, r_eigs) -> tuple[bool, float]:
    """``(verdict, smallest eigenvalue)`` of ``[Q S; S.T diag(r_eigs)]``, by two routes.

    The generic block check the block certificate was first written on,
    kept as its oracle: the direct route reads the smallest eigenvalue of
    the assembled block; the generalized Schur route asks for ``R >= 0``,
    ``Q - S R^+ S.T >= 0`` and ``S (I - R R^+) = 0`` with a masked
    pseudo-inverse.  It symmetrises ``Q``, checks the shape of ``S`` and
    takes every band as ``DEFAULT_CERT_TOL * tol_scale(max |values|)``.  A
    disagreement of the two routes with both margins clearly outside their
    bands raises :class:`InternalInconsistencyError`; otherwise the direct
    verdict stands.
    """
    qd = sym_data(q)
    r_eigs = np.asarray(r_eigs, dtype=float)
    sd = np.atleast_2d(np.asarray(s, dtype=float))
    if sd.shape != (qd.shape[0], r_eigs.shape[0]):
        raise DimensionMismatchError(f"S has shape {sd.shape}")

    def band_of(values) -> float:
        return DEFAULT_CERT_TOL * tol_scale(float(np.abs(values).max()))

    def decided(margin, band) -> bool:
        return abs(margin) > 10.0 * band

    nq, nr = qd.shape[0], r_eigs.shape[0]
    block = np.zeros((nq + nr, nq + nr))
    block[:nq, :nq] = qd
    block[:nq, nq:] = sd
    block[nq:, :nq] = sd.T
    np.fill_diagonal(block[nq:, nq:], r_eigs)
    eigs = np.linalg.eigvalsh(block)
    band = band_of(eigs)
    direct = bool(eigs[0] >= -band)

    r_min = float(r_eigs.min())
    r_band = band_of(r_eigs)
    r_ok = r_min >= -r_band
    keep = np.abs(r_eigs) > PINV_RTOL * np.abs(r_eigs).max()
    r_pinv = np.zeros_like(r_eigs)
    r_pinv[keep] = 1.0 / r_eigs[keep]
    schur = qd - (sd * r_pinv) @ sd.T
    s_eigs = np.linalg.eigvalsh(0.5 * (schur + schur.T))
    s_band = band_of(s_eigs)
    schur_ok = bool(s_eigs[0] >= -s_band)
    resid = float(np.abs(sd * (1.0 - r_eigs * r_pinv)).max())
    resid_band = band_of(sd)
    resid_ok = resid <= resid_band
    schur_route = r_ok and schur_ok and resid_ok
    if direct != schur_route and decided(eigs[0], band) and (
        (not r_ok and decided(r_min, r_band))
        or (not schur_ok and decided(s_eigs[0], s_band))
        or (not resid_ok and decided(resid, resid_band))
        or schur_route
    ):
        raise InternalInconsistencyError("block PSD criteria disagree")
    return direct, float(eigs[0])


def exit_contract_docs(seed: int, count: int) -> list[tuple[dict, bool]]:
    """``(problem document, representable)`` pairs scaled across the float range.

    Each document has ``n`` in 1-4 columns; its estimates' ``H`` are
    Gaussian and their ``P_hat`` random SPD blocks, times ``10^U[-300,
    300]`` for ``H`` and another such factor for ``P_hat``.  A document is
    representable when ``|log10 P - 2 log10 H| < 290`` and ``|log10 P| <
    290``: its inputs and its fused covariance, of order ``P / H^2``, are
    then normal floats.
    """
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(count):
        n = int(rng.integers(1, 5))
        p1 = int(rng.integers(1, n + 1))
        h_exp, p_exp = rng.uniform(-300.0, 300.0, size=2)
        doc = {"n": n}
        for key, p in (("est1", p1), ("est2", int(rng.integers(max(1, n - p1), n + 1)))):
            cov = random_spd(rng, p) * 10.0**p_exp
            doc[key] = {"H": (rng.standard_normal((p, n)) * 10.0**h_exp).tolist(),
                        "x_hat": (rng.standard_normal(p) * 10.0**h_exp).tolist(),
                        "P_hat": (0.5 * (cov + cov.T)).tolist()}
        docs.append((doc, abs(p_exp - 2.0 * h_exp) < 290.0 and abs(p_exp) < 290.0))
    return docs
