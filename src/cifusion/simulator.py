"""In-process distributed-estimation simulator.

Nodes hold partial observations of one shared true state and fuse pairwise
over a message schedule.  The harness keeps the exact joint covariance of
all node errors (a single block matrix updated by the fusion gains), which
is the only way to assert conservativeness against ground truth without
Monte Carlo noise.  The fused result overwrites the first node of each
event; the second keeps its prior, so repeated fusions double-count
information exactly the way the fusion rule is built to survive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ScheduleError, StackedRankDeficientError, UnreachableError
from .linalg import DEFAULT_CERT_TOL, PsdMatrix, loewner_compare, psd_certify, tol_scale
from .optimizer import Cost, solve_ci
from .problem import FusionProblem, PartialEstimate, matrix_rank

#: drawn true covariances have condition number at most this
COND_MAX = 100.0
#: a node's reported covariance adds a PSD term of trace at most this
#: fraction of its true covariance's trace
INFLATION_FRAC = 0.5
#: a new joint buffer has this many times the rows and columns the joint
#: needs.  A reallocation copies the whole joint, so the factor makes them
#: rare: at most one per N/8 rows added to a joint of N rows.  Its cost is
#: an eighth more resident memory, since the joint's rows are written
#: across the buffer's whole width.
JOINT_HEADROOM = 1.125
#: a move of rows after a resized node goes through a temporary of at most
#: this many entries (256 KiB), small enough to stay in cache
SHIFT_CHUNK_ENTRIES = 32768


@dataclass
class NoiseSpec:
    """Generation parameters for node observations and covariances.

    ``h_list``/``p_list`` pin the observation matrices and true covariances
    explicitly (e.g. to reproduce a textbook geometry); otherwise both are
    drawn from the seeded generator, the covariances with condition number
    at most ``COND_MAX``.
    """

    h_list: list | None = None
    p_list: list | None = None


@dataclass
class NodeState:
    node_id: int
    h: np.ndarray
    x_hat: np.ndarray
    p_hat: PsdMatrix
    lineage: list = field(default_factory=list)

    @property
    def p(self) -> int:
        return self.h.shape[0]


class GroundTruth:
    """Exact error statistics hidden from the fusion rule.

    ``joint`` is the node-ordered joint covariance of all node errors.  The
    object keeps it as the top-left block of one buffer with spare rows and
    columns, so that a node that grows moves the rows after it within that
    buffer instead of rebuilding the joint.
    """

    def __init__(self, x_true: np.ndarray, blocks: list[np.ndarray]):
        self.x_true = x_true
        self.dims = [b.shape[0] for b in blocks]
        total = sum(self.dims)
        self._buf = np.zeros((_capacity(total),) * 2)
        joint = self._buf[:total, :total]
        off = 0
        for b in blocks:
            joint[off : off + b.shape[0], off : off + b.shape[0]] = b
            off += b.shape[0]
        #: the joint this object last stored; any other value of ``joint``
        #: was assigned from outside
        self._view = self.joint = joint

    def _offset(self, i: int) -> int:
        return sum(self.dims[:i])

    def node_cov(self, i: int) -> np.ndarray:
        """Node i's error covariance: a view of ``joint``, valid only until
        the next :meth:`apply_fusion` into any node, since a node that grows
        or shrinks moves every row and column after it."""
        o, d = self._offset(i), self.dims[i]
        return self.joint[o : o + d, o : o + d]

    def apply_fusion(self, a: int, b: int, k1: np.ndarray, k2: np.ndarray) -> None:
        """Propagate the exact joint through one linear fusion into node a.

        The fused error is ``K1 e_a + K2 e_b`` and every other node keeps its
        error, so only node a's block row and column change: the row becomes
        ``R = K1 J[a, :] + K2 J[b, :]`` and the diagonal block
        ``R[:, a] K1' + R[:, b] K2'``.  For a joint of N rows and a state of
        size n the arithmetic costs O(N n^2) and is written in place.  When
        node a grows or shrinks, the m rows and columns after it also move
        within the buffer: O(N m) copying and no allocation.  Only a joint
        that outgrows the buffer is copied into a new one, ``JOINT_HEADROOM``
        times as large, which amortises to O(N) copying per added row.  The
        joint stays exactly symmetric.
        """
        lo = self._offset(a)
        hi = lo + self.dims[a]
        ob = self._offset(b)
        rb = slice(ob, ob + self.dims[b])
        d = k1.shape[0]
        n = self.joint.shape[0]
        size = n - self.dims[a] + d
        buf = self._reserve(size)
        old = self.joint
        rows = k1 @ old[lo:hi] + k2 @ old[rb]
        corner = rows[:, lo:hi] @ k1.T + rows[:, rb] @ k2.T
        corner = 0.5 * (corner + corner.T)
        if d == self.dims[a]:
            rows[:, lo:hi] = corner
        else:
            rows = np.hstack([rows[:, :lo], corner, rows[:, hi:]])
        _shift_tail(buf, n, lo, hi, d - self.dims[a])
        joint = buf[:size, :size]
        joint[lo : lo + d] = rows
        joint[:, lo : lo + d] = rows.T
        self._view = self.joint = joint
        self.dims[a] = d

    def _reserve(self, size: int) -> np.ndarray:
        """Bring ``joint`` into a buffer of at least ``size`` rows; return it.

        Afterwards ``joint`` is this object's own view of the buffer's
        top-left block.  A joint assigned from outside is copied into the
        kept buffer when it fits and shares no memory with it.  Otherwise
        the kept buffer is dropped before a larger one is allocated, so no
        stale buffer stays alive beside the new one.
        """
        joint = self.joint
        n = joint.shape[0]
        buf = self._buf
        if max(n, size) <= buf.shape[0]:
            if joint is self._view:
                return buf
            if not np.may_share_memory(joint, buf):
                buf[:n, :n] = joint
                self._view = self.joint = buf[:n, :n]
                return buf
        # every reference to the kept buffer goes before its successor is
        # allocated; ``joint`` keeps the old one alive only when it is needed
        self._buf = self._view = buf = None
        buf = np.empty((_capacity(max(n, size)),) * 2)
        buf[:n, :n] = joint
        self._buf = buf
        self._view = self.joint = buf[:n, :n]
        return buf


def _capacity(size: int) -> int:
    return int(np.ceil(JOINT_HEADROOM * size))


def _shift_tail(buf: np.ndarray, n: int, lo: int, hi: int, g: int) -> None:
    """Move rows and columns ``hi:n`` of ``buf[:n, :n]`` by ``g`` in place.

    Node a holds rows and columns ``lo:hi`` and is resized by ``g``; its new
    rows and columns ``lo:hi + g`` are left for the caller to write.  numpy
    copies an overlapping source whole before writing it, so each chunk of
    rows goes through one small temporary, and the chunks are taken from
    the end the rows move towards, so no row is overwritten before it is
    read.
    """
    if g == 0 or hi == n:
        return
    step = max(1, SHIFT_CHUNK_ENTRIES // n)
    tmp = np.empty((step, n))
    # rows before node a stay; their columns after it move
    for s in range(0, lo, step):
        e = min(s + step, lo)
        t = tmp[: e - s, : n - hi]
        t[...] = buf[s:e, hi:n]
        buf[s:e, hi + g : n + g] = t
    # rows after node a move, and so do their columns after it
    starts = range(hi, n, step)
    for s in reversed(starts) if g > 0 else starts:
        e = min(s + step, n)
        t = tmp[: e - s]
        t[...] = buf[s:e, :n]
        buf[s + g : e + g, :lo] = t[:, :lo]
        buf[s + g : e + g, hi + g : n + g] = t[:, hi:]


@dataclass(frozen=True)
class ScheduleEvent:
    node_a: int
    node_b: int
    cost: Cost


@dataclass(frozen=True)
class Schedule:
    events: tuple
    topology: str
    seed: int
    #: the cost the schedule was made with, which the report names
    cost: Cost = Cost.DET


def make_schedule(
    topology: str, nodes: int, events: int, cost: Cost, seed: int = 0
) -> Schedule:
    """Build a pairwise fusion schedule over the given topology."""
    if nodes < 2:
        raise ScheduleError(0, "need at least two nodes")
    pairs: list[tuple[int, int]] = []
    if topology == "chain":
        cycle = [(i, i + 1) for i in range(nodes - 1)]
    elif topology == "ring":
        cycle = [(i, (i + 1) % nodes) for i in range(nodes)]
    elif topology == "random":
        rng = np.random.default_rng(seed)
        cycle = []
        for _ in range(events):
            a = int(rng.integers(nodes))
            b = int(rng.integers(nodes - 1))
            if b >= a:
                b += 1
            cycle.append((a, b))
    else:
        raise ScheduleError(0, f"unknown topology {topology!r}")
    while len(pairs) < events:
        pairs.extend(cycle)
    pairs = pairs[:events]
    return Schedule(
        events=tuple(ScheduleEvent(a, b, cost) for a, b in pairs),
        topology=topology,
        seed=seed,
        cost=cost,
    )


def _random_spd(rng, dim: int) -> np.ndarray:
    gauss = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))
    half_span = 0.5 * np.log10(COND_MAX)
    eigs = 10.0 ** rng.uniform(-half_span, half_span, size=dim)
    return (q * eigs) @ q.T


def _random_psd_inflation(rng, dim: int, trace_budget: float) -> np.ndarray:
    gauss = rng.standard_normal((dim, dim))
    w = gauss @ gauss.T
    target = trace_budget * rng.uniform(0.1, 1.0)
    return w * (target / np.trace(w))


def init_network(
    n: int, nodes: int, seed: int, noise_spec: NoiseSpec | None = None
) -> tuple[list[NodeState], GroundTruth]:
    """Create nodes with conservative covariances and the exact ground truth.

    Every node observes ``H_i x_true`` plus noise drawn from the exact joint
    (initially independent across nodes); the reported covariance is the true
    one inflated by a random PSD term of relative trace at most
    ``INFLATION_FRAC``, certified conservative on
    construction.  Raises when the stacked observation matrices cannot reach
    full state rank by any fusion order.
    """
    spec = noise_spec or NoiseSpec()
    rng = np.random.default_rng(seed)
    if spec.h_list is not None:
        hs = [np.atleast_2d(np.asarray(h, dtype=float)) for h in spec.h_list]
        if len(hs) != nodes:
            raise UnreachableError(f"h_list has {len(hs)} entries for {nodes} nodes")
    else:
        hs = []
        low = max(1, (n + 1) // 2)
        for _ in range(nodes):
            p = int(rng.integers(low, n + 1))
            h = rng.standard_normal((p, n))
            while matrix_rank(h) < p:  # essentially never for Gaussian draws
                h = rng.standard_normal((p, n))
            hs.append(h)
    if matrix_rank(np.vstack(hs)) < n:
        raise UnreachableError("stacked observations never reach full state rank")

    if spec.p_list is not None:
        p_true = [np.atleast_2d(np.asarray(p, dtype=float)) for p in spec.p_list]
    else:
        p_true = [_random_spd(rng, h.shape[0]) for h in hs]

    x_true = rng.standard_normal(n)
    truth = GroundTruth(x_true, p_true)
    # the initial joint is block diagonal, so each node's error is drawn
    # from its own block's Cholesky factor
    z = rng.standard_normal(truth.joint.shape[0])

    node_states = []
    off = 0
    for i, h in enumerate(hs):
        p = h.shape[0]
        e_i = np.linalg.cholesky(p_true[i]) @ z[off : off + p]
        off += p
        inflation = _random_psd_inflation(rng, p, INFLATION_FRAC * np.trace(p_true[i]))
        p_hat = psd_certify(p_true[i] + inflation)
        if not loewner_compare(p_hat, p_true[i]).is_ge:
            raise UnreachableError("inflated covariance failed conservativeness")
        node_states.append(
            NodeState(node_id=i, h=h, x_hat=h @ x_true + e_i, p_hat=p_hat)
        )
    return node_states, truth


@dataclass(frozen=True)
class EventRecord:
    event_id: int
    node_a: int
    node_b: int
    alpha: float
    cost_value: float
    margin: float


@dataclass
class SimReport:
    n: int
    nodes: int
    topology: str
    seed: int
    cost: str
    records: list[EventRecord] = field(default_factory=list)
    skipped: list[tuple[int, int, int, str]] = field(default_factory=list)
    violations: int = 0

    def to_text(self) -> str:
        lines = [
            "# cifusion sim report",
            f"# n={self.n} nodes={self.nodes} topology={self.topology} "
            f"seed={self.seed} cost={self.cost}",
            "# columns: event_id node_a node_b alpha cost margin",
        ]
        skip_at = {s[0]: s for s in self.skipped}
        rec_at = {r.event_id: r for r in self.records}
        for event_id in sorted(set(skip_at) | set(rec_at)):
            if event_id in rec_at:
                r = rec_at[event_id]
                lines.append(
                    f"{r.event_id} {r.node_a} {r.node_b} "
                    f"{r.alpha:.17g} {r.cost_value:.17g} {r.margin:.17g}"
                )
            else:
                _, a, b, reason = skip_at[event_id]
                lines.append(f"# skipped {event_id} ({a},{b}): {reason}")
        lines.append(f"# violations {self.violations}")
        return "\n".join(lines) + "\n"


def run_schedule(
    nodes: list[NodeState],
    truth: GroundTruth,
    schedule: Schedule,
) -> SimReport:
    """Execute the schedule, tracking exact conservativeness margins.

    Each event fuses the pair with the optimal-weight rule, writes the fused
    full-state estimate into the first node and propagates the exact joint
    through the gains.  Events whose pair cannot reach full state rank
    (:class:`FusionProblem` raises :class:`StackedRankDeficientError`) are
    skipped and logged; a node whose own H lacks full row rank raises
    :class:`RankDeficientError`, which that check comes before.  The
    margin is the smallest eigenvalue of ``P_hat - P_true`` at the fused
    node; a margin below
    ``-DEFAULT_CERT_TOL * tol_scale(|P_hat|_max)`` counts as a
    conservativeness violation.
    """
    report = SimReport(
        n=truth.x_true.size,
        nodes=len(nodes),
        topology=schedule.topology,
        seed=schedule.seed,
        cost=schedule.cost.value,
    )
    n = truth.x_true.size
    for event_id, ev in enumerate(schedule.events):
        if not (0 <= ev.node_a < len(nodes)) or not (0 <= ev.node_b < len(nodes)):
            raise ScheduleError(event_id, f"node pair ({ev.node_a},{ev.node_b}) invalid")
        if ev.node_a == ev.node_b:
            raise ScheduleError(event_id, "a node cannot fuse with itself")
        node_a, node_b = nodes[ev.node_a], nodes[ev.node_b]
        try:
            problem = FusionProblem(
                PartialEstimate(node_a.h, node_a.x_hat, node_a.p_hat),
                PartialEstimate(node_b.h, node_b.x_hat, node_b.p_hat),
            )
        except StackedRankDeficientError:
            report.skipped.append(
                (event_id, ev.node_a, ev.node_b, "pair does not reach state rank")
            )
            continue
        result = solve_ci(problem, ev.cost)
        truth.apply_fusion(ev.node_a, ev.node_b, result.K1, result.K2)
        node_a.h = np.eye(n)
        node_a.x_hat = result.fused_x
        node_a.p_hat = result.P_hat
        node_a.lineage.append((event_id, ev.node_b, result.alpha))
        p_true = truth.node_cov(ev.node_a)
        diff = result.P_hat.data - p_true
        margin = float(np.linalg.eigvalsh(0.5 * (diff + diff.T))[0])
        scale = tol_scale(float(np.abs(result.P_hat.data).max()))
        if margin < -DEFAULT_CERT_TOL * scale:
            report.violations += 1
        report.records.append(
            EventRecord(
                event_id=event_id,
                node_a=ev.node_a,
                node_b=ev.node_b,
                alpha=result.alpha,
                cost_value=float(result.cost_value),
                margin=margin,
            )
        )
    return report
