"""In-process distributed-estimation simulator.

Nodes hold partial observations of one shared true state and fuse pairwise
over a message schedule.  The harness keeps the exact joint covariance of
all node errors (a single block matrix updated by the fusion gains), which
is the only way to assert conservativeness against ground truth without
Monte Carlo noise.  The fused result overwrites the first node of each
event; the second keeps its prior, so repeated fusions double-count
information exactly the way the fusion rule is built to survive.
:func:`init_network` builds the nodes in stages, with one stacked numpy
call per stage and block size, and a seeded network is the same to the
bit as one built node by node.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import NoReturn

import numpy as np

from .errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    NotPdError,
    OutOfRangeError,
    ScheduleError,
    StackedRankDeficientError,
    UnreachableError,
)
from .linalg import (
    PsdMatrix,
    loewner_compare,
    loewner_compare_stack,
    psd_certify,
    psd_certify_stack,
    sym_stack,
)
from .optimizer import Cost, solve_ci
from .problem import FusionProblem, PartialEstimate, covariance, covariances_pass
from .verifier import certificate_tolerance

#: drawn true covariances have condition number at most this
COND_MAX = 100.0
#: a node's reported covariance adds a PSD term of trace at most this
#: fraction of its true covariance's trace
INFLATION_FRAC = 0.5
#: a new joint buffer has this many times the rows and columns the joint
#: needs, the spare split evenly before and after the joint.  A reallocation
#: copies the whole joint, so the factor makes them rare: about one per N/8
#: rows added to a joint of N rows.  Its cost is an eighth more resident
#: memory, since the joint's rows are written across the buffer's whole
#: width.
JOINT_HEADROOM = 1.125
#: a move of the rows on one side of a resized node goes through a
#: temporary of at most this many entries (256 KiB), small enough to stay
#: in cache
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
    """One node's estimate.

    :attr:`estimate` is built from ``h``, ``x_hat`` and ``p_hat`` on first
    use and kept, with its factors, until one of the three is assigned; a
    node that did not change since its last fusion is not validated or
    factored again.  Changing one of those arrays in place is not
    supported: it would leave the kept estimate stale.
    """

    node_id: int
    h: np.ndarray
    x_hat: np.ndarray
    p_hat: PsdMatrix
    lineage: list = field(default_factory=list)

    def __setattr__(self, name: str, value) -> None:
        if name in ("h", "x_hat", "p_hat"):
            self.__dict__.pop("estimate", None)
        super().__setattr__(name, value)

    @property
    def p(self) -> int:
        return self.h.shape[0]

    @cached_property
    def estimate(self) -> PartialEstimate:
        return PartialEstimate(self.h, self.x_hat, self.p_hat)


class GroundTruth:
    """Exact error statistics hidden from the fusion rule.

    ``joint`` is the node-ordered joint covariance of all node errors.  The
    object keeps it as a square block in the middle of one buffer, with
    spare rows and columns before and after it, so that a node that grows
    moves the rows and columns on its shorter side within that buffer
    instead of rebuilding the joint.  An array assigned to ``joint``, a view
    of the buffer too, is copied into it at once; assigning ``None`` drops
    the joint and keeps the buffer.
    """

    def __init__(self, x_true: np.ndarray, blocks: list[np.ndarray]):
        self.x_true = x_true
        self.dims = [b.shape[0] for b in blocks]
        total = sum(self.dims)
        self._buf, self._joint = np.empty((0, 0)), None
        self.joint = np.broadcast_to(0.0, (total, total))
        for off, b in zip(itertools.accumulate(self.dims, initial=0), blocks):
            self._joint[off : off + b.shape[0], off : off + b.shape[0]] = b

    @property
    def joint(self) -> np.ndarray | None:
        return self._joint

    @joint.setter
    def joint(self, joint: np.ndarray | None) -> None:
        self._joint = None
        if joint is not None:
            self._place(joint, joint.shape[0])

    def _offset(self, i: int) -> int:
        return sum(self.dims[:i])

    def node_cov(self, i: int) -> np.ndarray:
        """Node i's error covariance: a view of ``joint``, valid only until
        the next :meth:`apply_fusion` into any node, since a node that grows
        or shrinks moves every row and column on one side of it."""
        o, d = self._offset(i), self.dims[i]
        return self._joint[o : o + d, o : o + d]

    def apply_fusion(self, a: int, b: int, k1: np.ndarray, k2: np.ndarray) -> None:
        """Propagate the exact joint through one linear fusion into node a.

        The fused error is ``K1 e_a + K2 e_b`` and every other node keeps its
        error, so only node a's block row and column change: the row becomes
        ``R = K1 J[a, :] + K2 J[b, :]`` and the diagonal block
        ``R[:, a] K1' + R[:, b] K2'``.  For a joint of N rows and a state of
        size n the arithmetic costs O(N n^2) and is written in place.  When
        node a grows or shrinks, the rows and columns on one side of it also
        move within the buffer, with no allocation: those before it, of
        which there are l, at a cost of l (2N - l) entries, or the m after
        it at m (2N - m), whichever is cheaper and has room.  Only a joint
        that fits at neither end is copied into a new buffer,
        ``JOINT_HEADROOM`` times as large, which amortises to O(N) copying
        per added row.  The joint stays exactly symmetric.
        """
        lo = self._offset(a)
        hi = lo + self.dims[a]
        ob = self._offset(b)
        rb = slice(ob, ob + self.dims[b])
        d = k1.shape[0]
        old = self._joint
        rows = k1 @ old[lo:hi] + k2 @ old[rb]
        corner = rows[:, lo:hi] @ k1.T + rows[:, rb] @ k2.T
        corner = 0.5 * (corner + corner.T)
        if d == self.dims[a]:
            rows[:, lo:hi] = corner
        else:
            rows = np.hstack([rows[:, :lo], corner, rows[:, hi:]])
        joint = self._resize(lo, hi, d - self.dims[a])
        joint[lo : lo + d] = rows
        joint[:, lo : lo + d] = rows.T
        self.dims[a] = d

    def _resize(self, lo: int, hi: int, g: int) -> np.ndarray:
        """Resize rows and columns ``lo:hi`` of ``joint`` by ``g``; return the new joint.

        The rows and columns on the side of them that costs fewer moved
        entries shift by ``g`` away from them: l (2N - l) before, m (2N - m)
        after, so simply the side with fewer rows.  The other side moves
        when the cheaper one has no room in the buffer, and the joint goes
        to a new buffer, centred, when neither has.  The new rows and
        columns ``lo:hi + g`` are left for the caller to write.
        """
        if g == 0:
            return self._joint
        n, s = self._joint.shape[0], self._start
        head_fits = g <= s
        tail_fits = s + n + g <= self._buf.shape[0]
        if head_fits and (lo < n - hi or not tail_fits):
            _shift_side(self._buf, (s, s + lo), (s + hi, s + n), -g)
            s -= g
        else:
            if not tail_fits:
                self._place(self._joint, n + g)
                s = self._start
            _shift_side(self._buf, (s + hi, s + n), (s, s + lo), g)
        self._start = s
        self._joint = self._buf[s : s + n + g, s : s + n + g]
        return self._joint

    def _place(self, joint: np.ndarray, size: int) -> None:
        """Copy ``joint`` where a joint of ``size`` rows is centred in the
        kept buffer, if they fit and ``joint`` is not its own, or else in a
        new buffer ``JOINT_HEADROOM`` times as large, which only ``joint``
        keeps the old one alive for; keep the copy as ``joint``.  numpy
        copies an overlapping source, such as a view of the buffer, whole.
        """
        if size > self._buf.shape[0] or joint is self._joint:
            self._buf = None
            self._buf = np.empty((math.ceil(JOINT_HEADROOM * size),) * 2)
        n = joint.shape[0]
        # the buffer row and column of the joint's first entry
        s = self._start = (self._buf.shape[0] - size) // 2
        self._buf[s : s + n, s : s + n] = joint
        self._joint = self._buf[s : s + n, s : s + n]


def _shift_side(buf: np.ndarray, moving: tuple, staying: tuple, shift: int) -> None:
    """Move the rows and columns ``moving`` of a joint in ``buf`` by ``shift``.

    ``moving`` and ``staying`` are the ``(start, stop)`` buffer rows of the
    joint on the two sides of a resized node; the rows and columns of the
    node itself are left for the caller to write.
    """
    # rows on the staying side stay; their columns on the moving side move
    _move_rows(buf, *staying, 0, [(*moving, shift)])
    # rows on the moving side move, and so do their columns on that side
    _move_rows(buf, *moving, shift, [(*staying, 0), (*moving, shift)])


def _move_rows(buf: np.ndarray, r0: int, r1: int, dr: int, spans: list) -> None:
    """Copy rows ``r0:r1`` of ``buf`` ``dr`` rows on; within them, copy each
    column span ``(c0, c1, dc)`` ``dc`` columns on.

    numpy copies an overlapping source whole before writing it, so each
    chunk of rows goes through one small temporary, and the chunks are
    taken from the end the rows move towards, so no row is overwritten
    before it is read.  Every chunk is copied forwards, row by row: a move
    through a reversed view of the buffer was slower.
    """
    c_lo = min(c0 for c0, _, _ in spans)
    width = max(c1 for _, c1, _ in spans) - c_lo
    if r1 <= r0 or width <= 0:
        return
    step = max(1, SHIFT_CHUNK_ENTRIES // width)
    tmp = np.empty((min(step, r1 - r0), width))
    starts = range(r0, r1, step)
    for s in reversed(starts) if dr > 0 else starts:
        e = min(s + step, r1)
        t = tmp[: e - s]
        t[...] = buf[s:e, c_lo : c_lo + width]
        for c0, c1, dc in spans:
            buf[s + dr : e + dr, c0 + dc : c1 + dc] = t[:, c0 - c_lo : c1 - c_lo]


@dataclass(frozen=True)
class ScheduleEvent:
    node_a: int
    node_b: int


@dataclass(frozen=True)
class Schedule:
    events: tuple
    topology: str
    seed: int
    #: the cost every event is solved with, which the report names
    cost: Cost = Cost.DET


def make_schedule(
    topology: str, nodes: int, events: int, cost: Cost, seed: int = 0
) -> Schedule:
    """Build a pairwise fusion schedule over the given topology.

    Raises :class:`ScheduleError` for fewer than two nodes, a negative
    ``events`` or an unknown topology, and :class:`MemoryError`, before
    anything is built, when a tuple of ``events`` cannot be addressed.
    """
    if nodes < 2:
        raise ScheduleError(0, "need at least two nodes")
    if events < 0:
        raise ScheduleError(0, f"events must not be negative, got {events}")
    if events > sys.maxsize // 8:
        raise MemoryError(f"a schedule of {events} events cannot be addressed")
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
    pairs = itertools.islice(itertools.cycle(cycle), events)
    return Schedule(
        events=tuple(ScheduleEvent(a, b) for a, b in pairs),
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


class _Group:
    """The nodes of one block size, in node order, with their arrays stacked.

    ``rows`` are the nodes' rows in the network's stack of observations, as
    the ground truth orders them; the stages add ``factor``, the Cholesky
    factors of ``p``, and ``inflated``, the inflated covariances.
    """

    def __init__(self, nodes: list[int], offsets: list[int], hs: list, p_true: list):
        self.nodes = nodes
        self.size = hs[nodes[0]].shape[0]
        self.rows = (np.array([offsets[i] for i in nodes])[:, None] + np.arange(self.size)).ravel()
        self.h = np.stack([hs[i] for i in nodes])
        self.p = np.stack([p_true[i] for i in nodes])


def _groups(hs: list, p_true: list) -> list[_Group]:
    """The nodes grouped by block size, the sizes in ascending order."""
    by_size: dict[int, list[int]] = {}
    for i, h in enumerate(hs):
        by_size.setdefault(h.shape[0], []).append(i)
    offsets = list(itertools.accumulate((h.shape[0] for h in hs), initial=0))
    return [_Group(by_size[size], offsets, hs, p_true) for size in sorted(by_size)]


def _search(check, count: int, stage: str) -> NoReturn:
    """The error path of a stage that numpy or a verdict rejected for a stack.

    Runs ``check(i)``, node i's own call of the stage, for every node in
    order, so the lowest node at fault raises the error it raises alone.
    """
    for i in range(count):
        check(i)
    raise InternalInconsistencyError(f"the stacked {stage} failed where each node's own passes")


def init_network(
    n: int, nodes: int, seed: int, noise_spec: NoiseSpec | None = None
) -> tuple[list[NodeState], GroundTruth]:
    """Create nodes with conservative covariances and the exact ground truth.

    Every node observes ``H_i x_true`` plus noise drawn from the exact joint
    (initially independent across nodes); the reported covariance is the true
    one inflated by a random PSD term of relative trace at most
    ``INFLATION_FRAC``, certified conservative on
    construction.  Raises :class:`OutOfRangeError` when ``n`` or ``nodes``
    is below 1, :class:`UnreachableError` when the stacked
    observation matrices cannot reach full state rank by any fusion order,
    :class:`DimensionMismatchError` when a list of ``noise_spec`` has the
    wrong length or an ``h_list`` entry the wrong shape, any error of
    :func:`~cifusion.problem.covariance` for a ``p_list`` block, and
    :class:`NotPdError` when a block has no Cholesky factor; each message
    names the entry.  Raises :class:`MemoryError` before it draws a node
    when no buffer ``JOINT_HEADROOM`` times as wide as ``nodes * n`` rows,
    the joint once every node holds the full state, can be addressed.

    The network is built in stages, each over every node: the ``p_list``
    checks, the Cholesky factors, the rank test on the whitened stack, and
    the inflations with their certificates.  A stage makes one stacked
    numpy call per block size, not one per node.  Where numpy or a verdict
    rejects a stack, each node's own call runs in node order, so the lowest
    node at fault raises the error that it raises alone, and a later stage
    never runs before an earlier one has passed every node.  Each stacked
    call gives every matrix the bits of its own call, and the draws keep
    their order, so a seeded network is the same to the bit as one built
    node by node (``tests/test_simulator.py`` checks both).
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

        # the ground truth keeps each block as given, and the node's error is
        # drawn from the Cholesky factor of its lower triangle, so a block is
        # only checked here, not replaced by the certified copy
        def check_block(i: int) -> None:
            covariance(p_true[i], hs[i].shape[0], f"p_list[{i}]")

        if any(p.shape != (h.shape[0],) * 2 for h, p in zip(hs, p_true)):
            _search(check_block, nodes, "p_list check")
        groups = _groups(hs, p_true)
        if not all(covariances_pass(g.p) for g in groups):
            _search(check_block, nodes, "p_list check")
    else:
        p_true = [_random_spd(rng, h.shape[0]) for h in hs]
        groups = _groups(hs, p_true)

    def factor(i: int) -> None:
        try:
            np.linalg.cholesky(p_true[i])
        except np.linalg.LinAlgError:
            raise NotPdError(f"p_list[{i}]: not positive definite") from None

    try:
        for g in groups:
            g.factor = np.linalg.cholesky(g.p)
    except np.linalg.LinAlgError:
        _search(factor, nodes, "Cholesky factorisation")
    # the rank test of FusionProblem, on the whole network's whitened stack
    whitened = np.empty((sum(h.shape[0] for h in hs), n))
    for g in groups:
        whitened[g.rows] = np.linalg.solve(g.factor, g.h).reshape(-1, n)
    if FusionProblem.whitened_svd(whitened)[-1] < n:
        raise UnreachableError("stacked observations never reach full state rank")

    x_true = rng.standard_normal(n)
    truth = GroundTruth(x_true, p_true)
    # the initial joint is block diagonal, so each node's error is drawn
    # from its own block's Cholesky factor
    z = rng.standard_normal(truth.joint.shape[0])
    # each node's inflation: a Gram matrix of Gaussians scaled to a uniform
    # fraction of the budget, drawn node by node
    draws = [(rng.standard_normal((h.shape[0],) * 2), rng.uniform(0.1, 1.0)) for h in hs]
    for g in groups:
        gauss = np.stack([draws[i][0] for i in g.nodes])
        w = gauss @ np.swapaxes(gauss, -1, -2)
        target = INFLATION_FRAC * np.trace(g.p, axis1=1, axis2=2) * [draws[i][1] for i in g.nodes]
        g.inflated = g.p + w * (target / np.trace(w, axis1=1, axis2=2))[:, None, None]

    def certify(i: int) -> None:
        group = next(g for g in groups if i in g.nodes)
        inflated = group.inflated[group.nodes.index(i)]
        if not loewner_compare(psd_certify(inflated), p_true[i]).is_ge:
            raise UnreachableError("inflated covariance failed conservativeness")

    p_hats, x_hats = [None] * nodes, [None] * nodes
    for g in groups:
        data = sym_stack(g.inflated)
        certs = psd_certify_stack(data)
        relations = None if certs is None else loewner_compare_stack(data, sym_stack(g.p))
        if relations is None or not all(r.is_ge for r in relations):
            _search(certify, nodes, "inflation check")
        errors = (g.factor @ z[g.rows].reshape(len(g.nodes), g.size, 1))[..., 0]
        # H x_true node by node: on the caller's own H, whatever its memory
        # order, the product keeps the bits of its BLAS kernel
        for i, cert, e_i in zip(g.nodes, certs, errors):
            p_hats[i], x_hats[i] = cert, hs[i] @ x_true + e_i
    node_states = [NodeState(node_id=i, h=h, x_hat=x_hats[i], p_hat=p_hats[i])
                   for i, h in enumerate(hs)]
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

    Each event fuses the pair's kept estimates (:attr:`NodeState.estimate`)
    with the optimal-weight rule under the schedule's cost, writes the
    fused full-state estimate into the first node and propagates the exact
    joint through the gains.
    Events whose pair cannot reach full state rank
    (:class:`FusionProblem` raises :class:`StackedRankDeficientError`) are
    skipped and logged; a node's own H needs no full row rank.  The
    margin is the smallest eigenvalue of ``P_hat - P_true`` at the fused
    node; a margin below ``-certificate_tolerance``, the band the witness
    and Monte Carlo verdicts use, counts as a conservativeness violation.
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
            problem = FusionProblem(node_a.estimate, node_b.estimate)
        except StackedRankDeficientError:
            report.skipped.append(
                (event_id, ev.node_a, ev.node_b, "pair does not reach state rank")
            )
            continue
        result = solve_ci(problem, schedule.cost)
        truth.apply_fusion(ev.node_a, ev.node_b, result.K1, result.K2)
        node_a.h = np.eye(n)
        node_a.x_hat = result.fused_x
        node_a.p_hat = result.P_hat
        node_a.lineage.append((event_id, ev.node_b, result.alpha))
        p_true = truth.node_cov(ev.node_a)
        diff = result.P_hat.data - p_true
        margin = float(np.linalg.eigvalsh(0.5 * (diff + diff.T))[0])
        if margin < -certificate_tolerance(result):
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
