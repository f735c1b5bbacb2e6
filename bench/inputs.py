"""Seeded input generation for the benchmark workloads.

Only numpy is used here: inputs are raw arrays and JSON documents, so the
program under test sees nothing but what a user would hand it.  The make-up
of every pool (sizes, kinds, determinant-cost branch) is fixed; the seed
draws the values.  That keeps the work per pass nearly the same on every
seed, which is what lets runs on different seeds be compared.
"""

from __future__ import annotations

import json
import os

import numpy as np

from checks import det_slopes, information, own_det_alpha, own_fused, sqrt_spd

#: both covariances of a small-unit problem are multiplied by this
SMALL_UNIT = 1e-8
#: the small-unit problems come from this constant seed, never from --seed,
#: so that the solves that fail on them fail identically in every run
SMALL_UNIT_SEED = 20250721
#: stacked observation matrices with a larger condition number are redrawn
H_COND_MAX = 30.0
#: a determinant-cost slope within this margin of zero is too close to the
#: interior/endpoint boundary to classify, so the draw is repeated
SLOPE_MARGIN = 0.1
MAX_DRAWS = 2000

# (kind, n, p1, p2): kind fixes the determinant-cost branch
#   partial_both  p1, p2 < n: both endpoint blends singular, interior root
#   partial_one   one side full rank: one singular endpoint, interior root
#   partial_end   one side full rank: optimum at the nonsingular endpoint
#   full_interior H1 = H2 = I with incomparable information: interior root
#   full_end      H1 = H2 = I, incomparable, optimum at an endpoint
#   dominated     one information matrix strictly dominates: forced endpoint
SOLVE_SLOTS = (
    [("partial_both", n, p1, p2) for n, p1, p2 in (
        (2, 1, 1), (3, 2, 1), (3, 2, 2), (4, 2, 2), (4, 3, 2), (5, 3, 2),
        (5, 4, 3), (6, 3, 3), (6, 4, 4), (6, 5, 2), (10, 6, 5), (10, 8, 4),
        (20, 12, 10))]
    + [("partial_one", n, p, n) for n, p in ((3, 2), (4, 3), (5, 3), (6, 4))]
    + [("partial_end", n, p, n) for n, p in ((3, 1), (4, 2), (5, 4), (6, 3))]
    + [("full_interior", n, n, n) for n in (2, 3, 4, 5, 6, 10)]
    + [("full_end", n, n, n) for n in (2, 3, 4, 6)]
    + [("dominated", n, n, n) for n in (2, 3, 4, 5, 6, 20)]
)
# (side of the 1e-9 floor, n, p1, p2), all partial-state: p1, p2 < n
SMALL_UNIT_SLOTS = [("below", 3, 2, 2), ("below", 4, 3, 2), ("below", 5, 3, 3),
                    ("below", 6, 4, 3), ("above", 3, 2, 2), ("above", 4, 2, 3)]

VERIFY_ACCEPT = [("partial_both", 3, 2, 2), ("partial_both", 4, 3, 2),
                 ("partial_both", 5, 3, 3), ("partial_both", 6, 4, 3),
                 ("partial_both", 6, 3, 3), ("full_interior", 3, 3, 3),
                 ("full_interior", 5, 5, 5), ("partial_one", 4, 3, 4),
                 ("partial_one", 6, 4, 6), ("full_end", 4, 4, 4)]
VERIFY_TRUTH = [("partial_both", 3, 2, 2), ("partial_both", 4, 2, 3),
                ("partial_both", 5, 4, 2), ("partial_both", 6, 4, 4),
                ("full_interior", 4, 4, 4)]
VERIFY_REJECT = [("partial_both", 3, 2, 1), ("partial_both", 4, 3, 3),
                 ("partial_both", 5, 3, 3), ("partial_both", 6, 5, 3),
                 ("full_interior", 5, 5, 5)]
#: the rejected files carry the fused covariance times this factor
REJECT_FACTOR = 0.8
VERIFY_SAMPLES = 1000

SIM_N = 6
SIM_NODES = 200
#: observation rows per node, 50 nodes each, so the joint has 900 rows on
#: every seed
SIM_ROWS = (3, 4, 5, 6)
SIM_COND_MAX = 100.0
#: events per pass; each pass restarts from the initial network
SIM_EVENTS_PER_PASS = 20


def random_orthogonal(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def random_spd(rng, dim: int, lo: float, hi: float) -> np.ndarray:
    q = random_orthogonal(rng, dim)
    m = (q * rng.uniform(lo, hi, size=dim)) @ q.T
    return 0.5 * (m + m.T)


def _gaussian_rows(rng, p: int, n: int) -> np.ndarray:
    while True:
        h = rng.standard_normal((p, n))
        if np.linalg.cond(h) <= H_COND_MAX:
            return h


def _estimates(rng, kind: str, n: int, p1: int, p2: int):
    """One draw of (H1, P1, H2, P2) for a slot, before classification."""
    if kind == "dominated":
        # a full-state estimate with covariance below 0.08 I carries
        # information above 12.5 I; unit-norm rows with covariance above 5 I
        # carry at most p/5 <= 4, so the first strictly dominates
        p_weak = max(1, n // 2)
        h_weak = rng.standard_normal((p_weak, n))
        h_weak /= np.linalg.norm(h_weak, axis=1, keepdims=True)
        return (np.eye(n), random_spd(rng, n, 0.02, 0.08),
                h_weak, random_spd(rng, p_weak, 5.0, 15.0))
    if kind.startswith("full"):
        return (np.eye(n), random_spd(rng, n, 0.1, 10.0),
                np.eye(n), random_spd(rng, n, 0.1, 10.0))
    while True:
        h1 = _gaussian_rows(rng, p1, n)
        h2 = _gaussian_rows(rng, p2, n)
        if np.linalg.cond(np.vstack([h1, h2])) <= H_COND_MAX:
            return h1, random_spd(rng, p1, 0.3, 3.0), h2, random_spd(rng, p2, 0.3, 3.0)


def _fits(kind: str, h1, p1, h2, p2) -> bool:
    """Whether a draw lands clearly on its slot's determinant-cost branch.

    Apart from the dominated kind, the two information matrices must also be
    clearly incomparable, so that no solver takes a forced endpoint.
    """
    s1, s0 = information(h1, p1), information(h2, p2)
    if kind in ("partial_both", "dominated"):
        return True
    eigs = np.linalg.eigvalsh(s1 - s0)
    scale = np.abs(eigs).max()
    if eigs[0] > -SLOPE_MARGIN * scale or eigs[-1] < SLOPE_MARGIN * scale:
        return False
    g0, g1 = det_slopes(s1, s0)
    if kind == "partial_one":
        return g1 is None and g0 is not None and g0 > SLOPE_MARGIN
    if kind == "partial_end":
        return g1 is None and g0 is not None and g0 < -SLOPE_MARGIN
    if kind == "full_interior":
        return g0 > SLOPE_MARGIN and g1 < -SLOPE_MARGIN
    return g0 < -SLOPE_MARGIN  # full_end: optimum at alpha = 0


def make_problem(rng, kind: str, n: int, p1: int, p2: int, swap: bool = False) -> dict:
    """A raw problem of one slot: arrays only, plus its kind and sizes.

    For the one-sided and endpoint kinds the determinant optimum sits at
    alpha = 0 as drawn; ``swap`` exchanges the estimates, which moves it to
    alpha = 1.
    """
    for _ in range(MAX_DRAWS):
        h1, c1, h2, c2 = _estimates(rng, kind, n, p1, p2)
        if _fits(kind, h1, c1, h2, c2):
            break
    else:
        raise RuntimeError(f"no draw fits slot {kind} n={n} after {MAX_DRAWS} tries")
    if swap:
        h1, c1, h2, c2 = h2, c2, h1, c1
    return {
        "kind": kind, "n": n,
        "H1": h1, "x1": rng.standard_normal(h1.shape[0]), "P1": c1,
        "H2": h2, "x2": rng.standard_normal(h2.shape[0]), "P2": c2,
    }


def closed_form_problems() -> list[dict]:
    """The paper's two closed-form examples, with their known weights."""
    ex2 = {"kind": "closed_form", "n": 2,
           "H1": np.eye(2), "x1": np.zeros(2), "P1": np.eye(2),
           "H2": np.eye(2), "x2": np.array([1.0, -1.0]), "P2": np.diag([1.25, 0.1]),
           "expect_alpha": {"det": 0.0}}
    ex1 = {"kind": "closed_form", "n": 2,
           "H1": np.array([[1.0, 0.0]]), "x1": np.array([0.3]), "P1": np.eye(1),
           "H2": np.array([[0.0, 1.0]]), "x2": np.array([-0.1]), "P2": np.eye(1),
           "expect_alpha": {"det": 0.5, "trace": 0.5}}
    return [ex2, ex1]


def small_unit_problems() -> list[dict]:
    """Partial-state problems with both covariances scaled by ``SMALL_UNIT``.

    Each slot is built to land clearly on one side of an absolute floor of
    1e-9 on the fused covariance's smallest eigenvalue, whatever the weight:
    a "below" slot has ``l1 l0 / (l1 + l0) > 2e9`` and an "above" slot has
    ``max(l1, l0) < 5e8``, with ``l1``, ``l0`` the largest eigenvalues of
    the two information matrices.  A unit-invariant solver fuses all of them;
    a solver with an absolute floor fails every "below" slot, every time.
    """
    rng = np.random.default_rng(SMALL_UNIT_SEED)
    out = []
    for side, n, p1, p2 in SMALL_UNIT_SLOTS:
        for _ in range(MAX_DRAWS):
            hs = [_gaussian_rows(rng, p, n) for p in (p1, p2)]
            # unit rows keep the information small; rows of norm about
            # 3 sqrt(n) make it large
            hs = [h / np.linalg.norm(h, axis=1, keepdims=True) if side == "above" else 3.0 * h
                  for h in hs]
            if np.linalg.cond(np.vstack(hs)) > H_COND_MAX:
                continue
            lo, hi = (1.0, 3.0) if side == "above" else (0.2, 2.0)
            ps = [random_spd(rng, p, lo, hi) * SMALL_UNIT for p in (p1, p2)]
            l1, l0 = (np.linalg.eigvalsh(information(h, c))[-1] for h, c in zip(hs, ps))
            if (side == "below" and l1 * l0 / (l1 + l0) > 2e9) or (
                    side == "above" and max(l1, l0) < 5e8):
                break
        else:
            raise RuntimeError(f"no small-unit draw for slot {side} n={n}")
        out.append({"kind": f"small_units_{side}", "n": n,
                    "H1": hs[0], "x1": rng.standard_normal(p1), "P1": ps[0],
                    "H2": hs[1], "x2": rng.standard_normal(p2), "P2": ps[1]})
    return out


def solve_pool(seed: int) -> list[dict]:
    """The solve workload's problems in their fixed cycling order."""
    rng = np.random.default_rng(seed)
    pool = []
    for i, (kind, n, p1, p2) in enumerate(SOLVE_SLOTS):
        swap = kind in ("partial_one", "partial_end", "full_end", "dominated") and i % 2 == 1
        pool.append(make_problem(rng, kind, n, p1, p2, swap=swap))
    return pool + closed_form_problems() + small_unit_problems()


def _doc(prob: dict) -> dict:
    def est(h, x, p):
        return {"H": h.tolist(), "x_hat": x.tolist(), "P_hat": p.tolist()}

    return {"n": prob["n"],
            "est1": est(prob["H1"], prob["x1"], prob["P1"]),
            "est2": est(prob["H2"], prob["x2"], prob["P2"])}


def _truth(rng, prob: dict) -> dict:
    """An admissible true joint: shrunk diagonal blocks, cross of norm < 1."""
    blocks = []
    for key in ("P1", "P2"):
        p = prob[key]
        s = sqrt_spd(p)
        shrink = random_spd(rng, p.shape[0], 0.5, 1.0)
        blocks.append(s @ shrink @ s)
    t1, t2 = blocks
    x = rng.standard_normal((t1.shape[0], t2.shape[0]))
    x *= rng.uniform(0.3, 0.9) / np.linalg.svd(x, compute_uv=False)[0]
    t12 = sqrt_spd(t1) @ x @ sqrt_spd(t2)
    return {"P1": t1, "P2": t2, "P12": t12}


def verify_cases(seed: int) -> list[dict]:
    """The verify workload's problem documents with their expected outcome."""
    rng = np.random.default_rng(seed + 1_000_003)
    cases = []
    for expect, slots in (("accept", VERIFY_ACCEPT), ("truth", VERIFY_TRUTH),
                          ("reject", VERIFY_REJECT)):
        for i, (kind, n, p1, p2) in enumerate(slots):
            prob = make_problem(rng, kind, n, p1, p2, swap=i % 2 == 1)
            doc = _doc(prob)
            if expect == "truth":
                truth = _truth(rng, prob)
                doc["truth"] = {k: v.tolist() for k, v in truth.items()}
            if expect == "reject":
                s1, s0 = information(prob["H1"], prob["P1"]), information(prob["H2"], prob["P2"])
                fused = own_fused(s1, s0, own_det_alpha(s1, s0))
                doc["P_hat_override"] = (REJECT_FACTOR * fused).tolist()
            cases.append({"expect": expect, "kind": kind, "n": n, "doc": doc,
                          "verify_seed": seed * 1000 + len(cases)})
    return cases


def write_verify_files(cases: list[dict], directory: str) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, case in enumerate(cases):
        path = os.path.join(directory, f"{i:02d}-{case['expect']}.json")
        with open(path, "w") as fh:
            json.dump(case["doc"], fh)
        paths.append(path)
    return paths


def sim_network(seed: int) -> dict:
    """Observation matrices and true covariances of the simulated network."""
    rng = np.random.default_rng(seed + 2_000_003)
    rows = np.repeat(SIM_ROWS, SIM_NODES // len(SIM_ROWS))
    rng.shuffle(rows)
    hs, ps = [], []
    for p in rows:
        hs.append(_gaussian_rows(rng, int(p), SIM_N))
        half_span = 0.5 * np.log10(SIM_COND_MAX)
        q = random_orthogonal(rng, int(p))
        ps.append((q * 10.0 ** rng.uniform(-half_span, half_span, size=int(p))) @ q.T)
    return {"n": SIM_N, "nodes": SIM_NODES, "h_list": hs, "p_list": ps}
