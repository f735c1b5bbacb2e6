"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np

from cifusion import FusionProblem, JointCovariance, LoewnerRelation, PartialEstimate
from cifusion.errors import NotPdError
from cifusion.linalg import (
    DEFAULT_TOL,
    PsdMatrix,
    feasible_weight_end,
    first_feasible_weight,
    inv_pd,
    loewner_compare,
    sqrt_psd,
    tol_scale,
)
from cifusion.optimizer import Cost, SigmaPair, delta_value
from cifusion.verifier import certificate_tolerance, petersen_objective, q_pair


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
    """An (A1)-valid random instance; Gaussian H's are full rank a.s."""
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


def dominated_problem(rng, n: int, dominant_first: bool = True) -> FusionProblem:
    """Instance where one information matrix strictly dominates the other."""
    strong = PartialEstimate(np.eye(n), rng.standard_normal(n), 0.05 * np.eye(n))
    p_weak = int(rng.integers(1, n + 1))
    h_weak = rng.standard_normal((p_weak, n))
    h_weak /= np.linalg.norm(h_weak, axis=1, keepdims=True)
    weak = PartialEstimate(h_weak, rng.standard_normal(p_weak), 10.0 * np.eye(p_weak))
    return FusionProblem(strong, weak) if dominant_first else FusionProblem(weak, strong)


def random_joint(rng, p1: int, p2: int, pd: bool = True) -> JointCovariance:
    """Random joint covariance via the normalized-cross parameterization."""
    x = rng.standard_normal((p1, p2))
    smax = np.linalg.svd(x, compute_uv=False)[0]
    x *= rng.uniform(0.0, 0.95 if pd else 1.0) / max(smax, 1e-300)
    return JointCovariance.from_cross_parameter(
        random_spd(rng, p1), x, random_spd(rng, p2)
    )


def random_unbiased_gains(rng, problem: FusionProblem, count: int) -> np.ndarray:
    """Batch of gains K with K @ H = I, via the pseudo-inverse plus nullspace."""
    h = problem.h_stacked
    hp = np.linalg.pinv(h)
    proj = np.eye(h.shape[0]) - h @ hp
    z = rng.standard_normal((count, problem.n, h.shape[0]))
    return hp[None] + z @ proj


def grid_costs(problem: FusionProblem, cost: Cost, grid: int = 1001):
    """Brute-force extended cost on a uniform weight grid (batched)."""
    pair = SigmaPair.from_problem(problem)
    alphas = np.linspace(0.0, 1.0, grid)
    combos = (
        alphas[:, None, None] * pair.sigma1.data
        + (1.0 - alphas)[:, None, None] * pair.sigma0.data
    )
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


def det_alpha_oracle(problem: FusionProblem) -> float:
    """Determinant-optimal weight by bisection on the adjugate polynomial Delta.

    Independent of the solver's joint spectrum: the Loewner relation comes
    from ``loewner_compare``, endpoint singularity from ``eigvalsh`` of the
    endpoint blends, and the slope sign from
    ``Delta(alpha) = trace(adj(Sigma_alpha) (Sigma1 - Sigma0))``, which is
    positive left of the optimum and negative right of it.
    """
    pair = SigmaPair.from_problem(problem)
    if loewner_compare(pair.sigma0, pair.sigma1) is LoewnerRelation.EQUAL:
        return 0.5

    def regular(sigma) -> bool:
        eigs = np.linalg.eigvalsh(sigma.data)
        return eigs[0] > 1e-12 * np.abs(eigs).max()

    if regular(pair.sigma0) and delta_value(pair, 0.0) <= 0.0:
        return 0.0
    if regular(pair.sigma1) and delta_value(pair, 1.0) >= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        d_mid = delta_value(pair, mid)
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
    q1 = np.einsum("si,ij,sj->s", ys, problem.sigma1, ys)
    q0 = np.einsum("si,ij,sj->s", ys, problem.sigma0, ys)
    worst = np.maximum(q1, q0)  # positive: the stacked observation has rank n
    targets = rng.uniform(0.05, level, size=count)
    return ys * np.sqrt(targets / worst)[:, None]


def haar_contraction_draws(rng, dim: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs ``(U, e)`` of random contractions, sample-first, by LAPACK QR.

    ``U`` is the Q factor of a Gaussian matrix with its signs fixed so that
    ``R`` has a positive diagonal, and ``e`` is uniform on ``[0.05, 1)``,
    drawn in that order.  This is the oracle of
    ``verifier._random_contraction_factors``, which reads the same stream and
    finds the same ``U`` by Gram-Schmidt.
    """
    q, r = np.linalg.qr(rng.standard_normal((count, dim, dim)))
    u = q * np.sign(np.einsum("sii->si", r))[:, None, :]
    return u, rng.uniform(0.05, 1.0, size=(count, dim))


def rank_one_draws(rng, count: int, p1: int, p2: int) -> np.ndarray:
    """Unit-norm rank-one cross parameters ``a b'``, sample-first.

    ``a`` and ``b`` are Gaussian vectors of lengths ``p1`` and ``p2``, drawn
    in that order and normalised.  This is the oracle of
    ``verifier._draw_cross``, which reads the same stream.
    """
    a = rng.standard_normal((count, p1))
    b = rng.standard_normal((count, p2))
    a /= np.linalg.norm(a, axis=1)[:, None]
    b /= np.linalg.norm(b, axis=1)[:, None]
    return a[:, :, None] * b[:, None, :]


def monte_carlo_draws(problem: FusionProblem, seed: int, count: int):
    """The random joints ``verifier.monte_carlo_joint`` draws for ``seed``.

    Drawn here from the raw stream in the sampler's order: per side a Haar
    orthogonal ``U`` (sign-fixed LAPACK QR, :func:`haar_contraction_draws`,
    the oracle of the sampler's Gram-Schmidt) and a spectrum ``e`` of the
    contraction ``C = U diag(e) U'``, then rank-one cross parameters
    ``r a b'``: unit Gaussian directions ``a`` then ``b``, then radii ``r``
    uniform on ``[0, 1 - 1e-12)``.  Returns the factors
    ``F_i = L_i U_i diag(sqrt(e_i))``, ``L_i`` the Cholesky factor of
    ``P_i``, the cross parameters and the shrunken blocks ``L_i C_i L_i'``,
    all sample-first.
    """
    rng = np.random.default_rng(seed)
    factors, blocks = [], []
    for est, dim in ((problem.est1, problem.p1), (problem.est2, problem.p2)):
        u, e = haar_contraction_draws(rng, dim, count)
        factors.append(est.p_chol @ u * np.sqrt(e)[:, None, :])
        blocks.append(est.p_chol @ np.einsum("sij,sj,skj->sik", u, e, u) @ est.p_chol.T)
    xs = rank_one_draws(rng, count, problem.p1, problem.p2)
    xs *= (rng.uniform(size=count) * (1.0 - 1e-12))[:, None, None]
    return factors[0], factors[1], xs, blocks[0], blocks[1]


def sqrt_q_pair(result, problem: FusionProblem) -> tuple[np.ndarray, np.ndarray]:
    """Scaled gain blocks ``K_i P_i^{1/2}`` on the symmetric roots.

    What ``verifier.q_pair`` returned before it took the Cholesky factors,
    kept as its oracle: the two differ by an orthogonal factor on the right.
    """
    return (result.K1 @ sqrt_psd(problem.est1.p_hat).data,
            result.K2 @ sqrt_psd(problem.est2.p_hat).data)


def monte_carlo_sqrt_oracle(result, problem: FusionProblem, truth_samples: int, seed: int) -> float:
    """Monte Carlo over true joints built from symmetric square roots.

    The sampler that ``verifier.monte_carlo_joint`` replaced, kept as its
    oracle.  On the draws of :func:`monte_carlo_draws` it takes the
    symmetric square roots ``S_i`` of the shrunken blocks by ``eigh``,
    assembles the dense joint ``[[S1 S1, S1 X S2], [S2 X' S1, S2 S2]]`` and
    returns the largest eigenvalue of ``K P_joint K' - P_hat`` over the
    samples, including the two aligned near-extreme cross draws at the full
    diagonal, aligned on the blocks of :func:`sqrt_q_pair`.
    """
    est1, est2 = problem.est1, problem.est2
    p1, p2 = problem.p1, problem.p2
    _, _, xs, p1s, p2s = monte_carlo_draws(problem, seed, truth_samples)

    def sqrt_psd(mats):
        w, v = np.linalg.eigh(0.5 * (mats + np.swapaxes(mats, -1, -2)))
        return np.einsum("sij,sj,skj->sik", v, np.sqrt(np.clip(w, 0.0, None)), v)

    q1, q2 = sqrt_q_pair(result, problem)
    u, _, vt = np.linalg.svd(q1.T @ q2, full_matrices=False)
    extreme = u @ vt * (1.0 - 1e-6)
    p1s = np.concatenate([np.broadcast_to(est1.p_hat.data, (2, p1, p1)), p1s], axis=0)
    p2s = np.concatenate([np.broadcast_to(est2.p_hat.data, (2, p2, p2)), p2s], axis=0)
    xs = np.concatenate([extreme[None], -extreme[None], xs], axis=0)

    sq1, sq2 = sqrt_psd(p1s), sqrt_psd(p2s)
    p12s = sq1 @ xs @ sq2
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


def delta_poly_coeffs(pair: SigmaPair) -> np.ndarray:
    """Coefficients (descending powers) of the degree <= n-1 polynomial Delta.

    Recovered by interpolation on n evenly spaced weights; exact up to
    rounding because Delta is a polynomial of the stated degree.
    """
    n = pair.dim
    nodes = np.linspace(0.0, 1.0, n) if n > 1 else np.array([0.0])
    values = np.array([delta_value(pair, a) for a in nodes])
    vander = np.vander(nodes, n)  # columns: a^(n-1), ..., a, 1
    return np.linalg.solve(vander, values) if n > 1 else values


def lower_bound_witness(problem: FusionProblem, candidate_p: PsdMatrix) -> float | None:
    """Weight witnessing that a candidate covariance obeys the family bound.

    Returns the smallest weight ``a`` with the candidate dominating the
    blended covariance ``(a*Sigma1 + (1-a)*Sigma0)^{-1}``, or ``None`` when
    no weight qualifies, which flags the candidate as violating the lower
    bound every conservative unbiased rule must satisfy.  With ``T`` the
    candidate's inverse, ``a`` qualifies when ``lambda_max(T - a*Sigma1 -
    (1-a)*Sigma0) <= tol``, ``tol = DEFAULT_TOL * tol_scale`` of the three
    matrices' largest entry: that is convex in ``a``, so from the weight
    ``linalg.first_feasible_weight`` finds from ``a = 0`` the answer is
    ``linalg.feasible_weight_end`` towards 0, exactly 0.0 when ``a = 0``
    qualifies.
    """
    if not candidate_p.strict:
        raise NotPdError("candidate covariance must be strictly PD")
    s1, s0, target = problem.sigma1, problem.sigma0, inv_pd(candidate_p.data)
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
    q1 = float(x @ problem.sigma1 @ x)
    q2 = float(x @ problem.sigma0 @ x)
    if q1 > 1.0 - INTERIOR_MARGIN or q2 > 1.0 - INTERIOR_MARGIN:
        raise ValueError(f"point is not strictly interior (values {q1:.6g}, {q2:.6g})")
    if problem.p2 >= problem.p1:
        return _covering(problem, x)
    return _covering(problem.swapped(), x).T


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

    The scan that ``verifier.lmi_feasible_interval`` replaced, kept as its
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
