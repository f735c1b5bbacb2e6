"""Correctness checks computed apart from the program under test.

Everything here works on plain numpy arrays and recomputes what it needs
from the raw inputs (observation matrices and covariances): information
matrices, blended inverses, gains, a dense weight grid, the block
certificate and the exact joint covariance of a simulated network.  Each
check returns a list of failure messages, empty when the output is right.
"""

from __future__ import annotations

import numpy as np

#: relative agreement demanded between the program's matrices and ours
MATCH_RTOL = 1e-8
#: a blend whose smallest eigenvalue is below this share of its largest is
#: singular, and its extended cost is infinite
SINGULAR_RTOL = 1e-12
#: the cost at the returned weight may exceed the dense-grid minimum by
#: this share at most
COST_RTOL = 1e-8
#: smallest eigenvalue allowed in a unit-scaled PSD test
PSD_TOL = 1e-9
GRID = 2001


def information(h: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``H.T P^-1 H`` by a linear solve."""
    m = h.T @ np.linalg.solve(p, h)
    return 0.5 * (m + m.T)


def _nonsingular(s: np.ndarray) -> bool:
    eigs = np.linalg.eigvalsh(s)
    return eigs[0] > SINGULAR_RTOL * np.abs(eigs).max()


def det_slopes(s1: np.ndarray, s0: np.ndarray):
    """``tr(S0^-1 D)`` and ``tr(S1^-1 D)`` for ``D = S1 - S0``.

    ``log det`` of the fused covariance is convex in the weight, with slope
    ``-tr(S_a^-1 D)``: the determinant optimum sits at alpha = 0 when the
    first value is <= 0 and at alpha = 1 when the second is >= 0.  A value
    is None where that endpoint blend is singular.
    """
    d = s1 - s0
    g0 = float(np.trace(np.linalg.solve(s0, d))) if _nonsingular(s0) else None
    g1 = float(np.trace(np.linalg.solve(s1, d))) if _nonsingular(s1) else None
    return g0, g1


def own_det_alpha(s1: np.ndarray, s0: np.ndarray) -> float:
    """Determinant-optimal weight by bisection on the slope of ``log det``."""
    g0, g1 = det_slopes(s1, s0)
    if g0 is not None and g0 <= 0.0:
        return 0.0
    if g1 is not None and g1 >= 0.0:
        return 1.0
    d = s1 - s0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.trace(np.linalg.solve(mid * s1 + (1.0 - mid) * s0, d)) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def own_fused(s1: np.ndarray, s0: np.ndarray, alpha: float) -> np.ndarray:
    """``(alpha S1 + (1 - alpha) S0)^-1`` through a linear solve."""
    s = alpha * s1 + (1.0 - alpha) * s0
    m = np.linalg.solve(s, np.eye(s.shape[0]))
    return 0.5 * (m + m.T)


def extended_costs(s1: np.ndarray, s0: np.ndarray, cost: str, alphas) -> np.ndarray:
    """Cost of the fused covariance at each weight, ``inf`` where singular."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    blends = alphas[:, None, None] * s1 + (1.0 - alphas)[:, None, None] * s0
    eigs = np.linalg.eigvalsh(blends)
    singular = eigs[:, 0] <= SINGULAR_RTOL * np.abs(eigs).max(axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = np.prod(1.0 / eigs, axis=1) if cost == "det" else np.sum(1.0 / eigs, axis=1)
    vals[singular] = np.inf
    return vals


def sqrt_spd(m: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix."""
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def family(prob: dict, alpha: float):
    """The fusion family member at ``alpha``: ``(P, K1, K2)`` from H and P."""
    s1, s0 = information(prob["H1"], prob["P1"]), information(prob["H2"], prob["P2"])
    p = own_fused(s1, s0, alpha)
    k1 = alpha * p @ prob["H1"].T @ np.linalg.inv(prob["P1"])
    k2 = (1.0 - alpha) * p @ prob["H2"].T @ np.linalg.inv(prob["P2"])
    return p, k1, k2


def _rel_err(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return np.inf
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


def certificate_min_eig(p_hat, q1, q2, alpha: float) -> float:
    """Smallest eigenvalue of the block certificate, in the units of ``P_hat``.

    ``[P, Q1, Q2; Q1', aI, 0; Q2', 0, (1-a)I]`` is congruent to the same
    block with ``P`` divided by its largest eigenvalue ``s`` and the ``Q``
    blocks by ``sqrt(s)``; the congruence keeps the PSD verdict and makes
    the test independent of the covariance units.
    """
    n, p1 = q1.shape
    p2 = q2.shape[1]
    s = float(np.linalg.eigvalsh(p_hat)[-1])
    root = np.sqrt(s)
    m = np.zeros((n + p1 + p2, n + p1 + p2))
    m[:n, :n] = p_hat / s
    m[:n, n:n + p1] = q1 / root
    m[:n, n + p1:] = q2 / root
    m[n:n + p1, :n] = q1.T / root
    m[n + p1:, :n] = q2.T / root
    m[n:n + p1, n:n + p1] = alpha * np.eye(p1)
    m[n + p1:, n + p1:] = (1.0 - alpha) * np.eye(p2)
    return float(np.linalg.eigvalsh(m)[0])


def check_fusion(prob: dict, cost: str, alpha, k1, k2, p_hat, fused_x) -> list[str]:
    """Every property an optimal conservative fusion of ``prob`` must have."""
    errs = []
    h1, c1, h2, c2 = prob["H1"], prob["P1"], prob["H2"], prob["P2"]
    n = h1.shape[1]
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        return [f"alpha={alpha} outside [0, 1]"]
    expect = prob.get("expect_alpha", {}).get(cost)
    if expect == 0.0 and alpha != 0.0:
        errs.append(f"closed form: alpha={alpha!r}, expected exactly 0")
    elif expect is not None and abs(alpha - expect) > 1e-9:
        errs.append(f"closed form: alpha={alpha!r}, expected {expect}")
    unbias = np.abs(k1 @ h1 + k2 @ h2 - np.eye(n)).max()
    if not unbias <= 1e-8:
        errs.append(f"K1 H1 + K2 H2 differs from I by {unbias:.3g}")
    s1, s0 = information(h1, c1), information(h2, c2)
    costs = extended_costs(s1, s0, cost, [alpha])
    if not np.isfinite(costs[0]):
        return errs + [f"blend at alpha={alpha} is singular"]
    own_p, own_k1, own_k2 = family(prob, alpha)
    err = _rel_err(p_hat, own_p)
    if not err <= MATCH_RTOL:
        errs.append(f"P_hat differs from (a S1 + (1-a) S0)^-1 by {err:.3g} (relative)")
    err = max(_rel_err(k1, own_k1) if alpha > 0.0 else np.abs(k1).max(),
              _rel_err(k2, own_k2) if alpha < 1.0 else np.abs(k2).max())
    if not err <= MATCH_RTOL:
        errs.append(f"gains differ from the family gains by {err:.3g}")
    own_x = own_k1 @ prob["x1"] + own_k2 @ prob["x2"]
    err = float(np.abs(np.asarray(fused_x) - own_x).max()
                / max(np.abs(own_x).max(), np.abs(prob["x1"]).max(), np.abs(prob["x2"]).max()))
    if not err <= MATCH_RTOL:
        errs.append(f"fused_x differs from K1 x1 + K2 x2 by {err:.3g} (relative)")
    grid_min = extended_costs(s1, s0, cost, np.linspace(0.0, 1.0, GRID)).min()
    if not costs[0] <= grid_min * (1.0 + COST_RTOL):
        errs.append(f"{cost} cost {costs[0]!r} at alpha={alpha} exceeds the grid "
                    f"minimum {grid_min!r}")
    q1, q2 = k1 @ sqrt_spd(c1), k2 @ sqrt_spd(c2)
    min_eig = certificate_min_eig(np.asarray(p_hat), q1, q2, alpha)
    if not min_eig >= -PSD_TOL:
        errs.append(f"block certificate has eigenvalue {min_eig:.3g} (unit-scaled)")
    return errs


def check_verify(case: dict, exit_code: int, stdout: str) -> list[str]:
    """The exit code and verdict that follow from how the file was built."""
    lines = stdout.strip().splitlines()
    if not lines:
        return [f"no output (exit {exit_code})"]
    rows = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 2:
            rows[parts[0]] = parts[1]
    verdict = lines[-1]
    errs = []
    if case["expect"] == "reject":
        if exit_code != 1:
            errs.append(f"exit {exit_code}, expected 1 for a shrunk covariance")
        if rows.get("adversarial-x") != "FAIL":
            errs.append(f"adversarial-x row reads {rows.get('adversarial-x')}, expected FAIL")
        if verdict != "verdict: certificate failure":
            errs.append(f"verdict line {verdict!r}")
        return errs
    if exit_code != 0:
        errs.append(f"exit {exit_code}, expected 0")
    if verdict != "verdict: all certificates pass":
        errs.append(f"verdict line {verdict!r}")
    expected = {"lmi", "adversarial-x", "monte-carlo"}
    if case["expect"] == "truth":
        expected.add("truth-joint")
    names = set(rows) - {"petersen", "petersen(direct)"}
    if names != expected or len(rows) != len(expected) + 1:
        errs.append(f"rows {sorted(rows)}, expected {sorted(expected)} plus one petersen row")
    failed = sorted(name for name, status in rows.items() if status != "PASS")
    if failed:
        errs.append(f"rows not passing: {failed}")
    return errs


class JointReplay:
    """The exact joint covariance of all node errors, kept by the benchmark.

    A fusion into node ``a`` replaces a's block row by
    ``K1 J[a, :] + K2 J[b, :]`` (and the block column by its transpose),
    which is all the update needs: no dense transform of the whole joint.
    The joint lives in a buffer sized once, with room for ``spare`` more
    rows, and is updated in place so that the benchmark's own memory stays
    below the program's: a node whose block grows gets fresh rows at the
    end of the used part and its old rows are zeroed.  ``offsets`` maps each
    node to its rows; the program keeps the nodes in order instead.
    """

    def __init__(self, blocks, spare: int):
        self.dims = [b.shape[0] for b in blocks]
        self.offsets = [int(o) for o in np.cumsum([0] + self.dims[:-1])]
        self.top = sum(self.dims)
        self.buf = np.zeros((self.top + spare, self.top + spare))
        for off, b in zip(self.offsets, blocks):
            self.buf[off:off + b.shape[0], off:off + b.shape[0]] = b

    def _rows(self, i: int) -> slice:
        return slice(self.offsets[i], self.offsets[i] + self.dims[i])

    def node_cov(self, i: int) -> np.ndarray:
        s = self._rows(i)
        return self.buf[s, s]

    def fuse(self, a: int, b: int, k1: np.ndarray, k2: np.ndarray) -> None:
        ra, rb, used = self._rows(a), self._rows(b), slice(0, self.top)
        rows = k1 @ self.buf[ra, used] + k2 @ self.buf[rb, used]
        corner = rows[:, ra] @ k1.T + rows[:, rb] @ k2.T
        d = k1.shape[0]
        if d != self.dims[a]:
            if self.top + d > self.buf.shape[0]:
                raise ValueError("replay buffer has no room for a grown block")
            self.buf[ra, :] = 0.0
            self.buf[:, ra] = 0.0
            rows[:, ra] = 0.0
            rows = np.hstack([rows, np.zeros((d, d))])
            self.offsets[a], self.dims[a] = self.top, d
            self.top += d
            ra, used = self._rows(a), slice(0, self.top)
        self.buf[ra, used] = rows
        self.buf[used, ra] = rows.T
        self.buf[ra, ra] = 0.5 * (corner + corner.T)

    def rel_diff(self, joint: np.ndarray) -> float:
        """Largest entry of ``|joint - J|`` over the largest of ``|J|``.

        ``joint`` is in the program's node order.  It is compared one block
        row at a time, so no temporary as large as the joint is made.
        """
        cols = np.concatenate([np.arange(o, o + d) for o, d in zip(self.offsets, self.dims)])
        if joint.shape != (cols.size, cols.size):
            return np.inf
        diff = scale = 0.0
        start = 0
        for off, d in zip(self.offsets, self.dims):
            want = self.buf[off:off + d][:, cols]
            diff = max(diff, float(np.abs(joint[start:start + d] - want).max()))
            scale = max(scale, float(np.abs(want).max()))
            start += d
        return diff / max(scale, 1e-300)


def check_sim_event(replay: JointReplay, a: int, b: int, prior_a: dict, prior_b: dict,
                    report, node_a, truth_joint: np.ndarray) -> list[str]:
    """Check one fusion event and advance the benchmark's own joint.

    ``prior_a``/``prior_b`` hold the two nodes' ``h``, ``x`` and ``p``
    before the event; ``node_a`` is the fused node after it.
    """
    if report.skipped or len(report.records) != 1:
        return [f"event not executed: {len(report.records)} records, skipped {report.skipped}"]
    errs = []
    if report.violations:
        errs.append(f"program reports {report.violations} violations")
    alpha = report.records[0].alpha
    prob = {"H1": prior_a["h"], "x1": prior_a["x"], "P1": prior_a["p"],
            "H2": prior_b["h"], "x2": prior_b["x"], "P2": prior_b["p"]}
    own_p, k1, k2 = family(prob, alpha)
    if not np.array_equal(node_a.h, np.eye(own_p.shape[0])):
        errs.append("fused node does not observe the full state")
    errs += check_fusion(prob, "det", alpha, k1, k2, node_a.p_hat.data, node_a.x_hat)
    replay.fuse(a, b, k1, k2)
    err = replay.rel_diff(truth_joint)
    if not err <= MATCH_RTOL:
        errs.append(f"ground-truth joint differs from the block-row replay by {err:.3g}")
    p_hat = node_a.p_hat.data
    margin = np.linalg.eigvalsh(p_hat - replay.node_cov(a))[0]
    if not margin >= -PSD_TOL * np.linalg.eigvalsh(p_hat)[-1]:
        errs.append(f"P_hat - P_true has eigenvalue {margin:.3g}: not conservative")
    return errs
