import math
import sys
import tracemalloc

import numpy as np
import pytest

from cifusion import loewner_compare, simulator
from cifusion.errors import (
    DimensionMismatchError,
    NotPdError,
    OutOfRangeError,
    ScheduleError,
    UnreachableError,
)
from cifusion.linalg import RESULT_RTOL
from cifusion.optimizer import Cost, solve_ci
from cifusion.problem import FusionProblem
from cifusion.simulator import (
    JOINT_HEADROOM,
    SHIFT_CHUNK_ENTRIES,
    GroundTruth,
    NoiseSpec,
    init_network,
    make_schedule,
    run_schedule,
)

from conftest import reallocating_fusion_oracle

EXAMPLE1_SPEC = NoiseSpec(
    h_list=[[[1.0, 0.0]], [[0.0, 1.0]]], p_list=[[[1.0]], [[1.0]]]
)


class TestInitNetwork:
    def test_scalar_observer_geometry(self):
        nodes, truth = init_network(2, 2, seed=0, noise_spec=EXAMPLE1_SPEC)
        np.testing.assert_allclose(nodes[0].h, [[1.0, 0.0]])
        np.testing.assert_allclose(nodes[1].h, [[0.0, 1.0]])
        np.testing.assert_allclose(truth.node_cov(0), [[1.0]])
        assert truth.joint.shape == (2, 2)

    def test_full_state_pair(self):
        spec = NoiseSpec(h_list=[np.eye(2), np.eye(2)])
        nodes, _ = init_network(2, 2, seed=1, noise_spec=spec)
        assert nodes[0].p == nodes[1].p == 2

    def test_inflations_are_conservative(self):
        nodes, truth = init_network(4, 5, seed=3)
        for node in nodes:
            rel = loewner_compare(node.p_hat.data, truth.node_cov(node.node_id))
            assert rel.is_ge

    def test_unreachable_rank(self):
        spec = NoiseSpec(h_list=[[[1.0, 0.0]], [[1.0, 0.0]]])
        with pytest.raises(UnreachableError):
            init_network(2, 2, seed=0, noise_spec=spec)

    @pytest.mark.parametrize("field", ["h_list", "p_list"])
    def test_short_list_names_its_length(self, field):
        spec = NoiseSpec(h_list=EXAMPLE1_SPEC.h_list, p_list=EXAMPLE1_SPEC.p_list)
        setattr(spec, field, getattr(spec, field)[:1])
        with pytest.raises(DimensionMismatchError, match=rf"^{field} has 1 entries for 2 nodes$"):
            init_network(2, 2, seed=0, noise_spec=spec)

    def test_p_list_block_of_the_wrong_shape_is_named(self):
        spec = NoiseSpec(h_list=EXAMPLE1_SPEC.h_list, p_list=[[[1.0]], np.eye(2)])
        with pytest.raises(DimensionMismatchError,
                           match=r"^p_list\[1\]: shape \(2, 2\), expected \(1, 1\)$"):
            init_network(2, 2, seed=0, noise_spec=spec)

    def test_p_list_block_that_is_not_positive_definite_is_named(self):
        # PSD, so it passes the intake, but it has no Cholesky factor
        spec = NoiseSpec(h_list=EXAMPLE1_SPEC.h_list, p_list=[[[1.0]], [[0.0]]])
        with pytest.raises(NotPdError, match=r"^p_list\[1\]: not positive definite$"):
            init_network(2, 2, seed=0, noise_spec=spec)

    def test_p_list_block_that_is_not_symmetric_is_named(self):
        # the ground truth would keep [[2, 1], [0, 2]] while the node's error
        # is drawn from the Cholesky factor of its lower triangle, diag(2, 2)
        spec = NoiseSpec(h_list=[np.eye(2), np.eye(2)],
                         p_list=[[[2.0, 1.0], [0.0, 2.0]], np.eye(2)])
        with pytest.raises(NotPdError, match=r"^p_list\[0\]: not symmetric: differs from its "
                                             r"transpose by 1$"):
            init_network(2, 2, seed=0, noise_spec=spec)

    def test_p_list_block_symmetric_to_rounding_is_kept_as_given(self):
        # the asymmetry a product leaves, within RESULT_RTOL of the largest
        # entry, is accepted, and the block is not averaged
        block = np.array([[2.0, 1.0], [1.0, 2.0]])
        block[0, 1] += 0.5 * RESULT_RTOL * 2.0
        spec = NoiseSpec(h_list=[np.eye(2), np.eye(2)], p_list=[block, np.eye(2)])
        _, truth = init_network(2, 2, seed=0, noise_spec=spec)
        np.testing.assert_array_equal(truth.node_cov(0), block)
        block[0, 1] = 1.0 + 2.0 * RESULT_RTOL * 2.0
        with pytest.raises(NotPdError, match=r"^p_list\[0\]: not symmetric"):
            init_network(2, 2, seed=0, noise_spec=spec)

    def test_observation_matrix_needs_a_column_per_state(self):
        spec = NoiseSpec(h_list=[[[1.0, 0.0]], [[0.0, 1.0, 0.0]]])
        with pytest.raises(DimensionMismatchError, match=r"^h_list\[1\] has shape \(1, 3\)"):
            init_network(2, 2, seed=0, noise_spec=spec)

    @pytest.mark.parametrize("n, nodes, name", [(0, 3, "n"), (2, 0, "nodes")])
    def test_count_below_one_is_named(self, n, nodes, name):
        with pytest.raises(OutOfRangeError, match=rf"^{name} must be at least 1, got 0$"):
            init_network(n, nodes, seed=0)

    def test_unaddressable_joint_is_refused_before_a_node_is_drawn(self, monkeypatch):
        def drawn(*args):
            raise AssertionError("a node was drawn")

        monkeypatch.setattr(np.random, "default_rng", drawn)
        # the most full-state rows whose buffer side numpy can address
        side = math.isqrt(np.iinfo(np.intp).max // 8)
        rows = int(side / JOINT_HEADROOM)
        assert math.ceil(JOINT_HEADROOM * rows) <= side < math.ceil(JOINT_HEADROOM * (rows + 1))
        with pytest.raises(MemoryError, match=rf"^a joint of {rows + 1} rows cannot be addressed$"):
            init_network(1, rows + 1, seed=0)
        with pytest.raises(AssertionError, match="a node was drawn"):
            init_network(1, rows, seed=0)


class TestSchedules:
    def test_chain_and_ring_patterns(self):
        chain = make_schedule("chain", 3, 4, Cost.DET)
        assert [(e.node_a, e.node_b) for e in chain.events] == [(0, 1), (1, 2), (0, 1), (1, 2)]
        ring = make_schedule("ring", 3, 4, Cost.DET)
        assert [(e.node_a, e.node_b) for e in ring.events] == [(0, 1), (1, 2), (2, 0), (0, 1)]

    def test_random_schedule_is_seeded(self):
        a = make_schedule("random", 4, 10, Cost.TRACE, seed=5)
        b = make_schedule("random", 4, 10, Cost.TRACE, seed=5)
        assert a == b

    def test_unknown_topology(self):
        with pytest.raises(ScheduleError):
            make_schedule("star", 3, 4, Cost.DET)

    @pytest.mark.parametrize("topology", ["chain", "ring", "random"])
    def test_unaddressable_event_count_is_refused_before_building(self, topology):
        events = sys.maxsize // 8 + 1
        with pytest.raises(MemoryError, match=rf"^a schedule of {events} events cannot be addressed$"):
            make_schedule(topology, 3, events, Cost.DET)

    def test_negative_event_count_is_named(self):
        with pytest.raises(ScheduleError, match=r"^event 0: events must not be negative, got -5$"):
            make_schedule("ring", 3, -5, Cost.DET)


class TestRunSchedule:
    def test_uncorrelated_full_state_margin(self):
        # independent initial errors: the fused truth is K1 P1 K1' + K2 P2 K2'
        spec = NoiseSpec(h_list=[np.eye(2), np.eye(2)])
        nodes, truth = init_network(2, 2, seed=7, noise_spec=spec)
        p1 = truth.node_cov(0).copy()
        p2 = truth.node_cov(1).copy()
        schedule = make_schedule("chain", 2, 1, Cost.DET)
        report = run_schedule(nodes, truth, schedule)
        assert report.violations == 0
        rec = report.records[0]
        assert rec.margin >= 0.0
        lineage = nodes[0].lineage
        assert lineage and lineage[0][0] == 0

    def test_scalar_observer_chain_stays_conservative(self):
        nodes, truth = init_network(2, 2, seed=11, noise_spec=EXAMPLE1_SPEC)
        schedule = make_schedule("chain", 2, 5, Cost.DET)
        report = run_schedule(nodes, truth, schedule)
        assert report.violations == 0
        assert len(report.records) == 5

    def test_ring_simulation_no_violations(self):
        for seed in range(3):
            nodes, truth = init_network(4, 5, seed=seed)
            schedule = make_schedule("ring", 5, 20, Cost.DET, seed=seed)
            report = run_schedule(nodes, truth, schedule)
            assert report.violations == 0
            for rec in report.records:  # the order relation behind the margin
                if nodes[rec.node_a].lineage and nodes[rec.node_a].lineage[-1][0] == rec.event_id:
                    rel = loewner_compare(
                        nodes[rec.node_a].p_hat.data,
                        truth.node_cov(rec.node_a),
                        1e-8,
                    )
                    assert rel.is_ge

    def test_trace_cost_schedule_stays_conservative(self):
        nodes, truth = init_network(3, 4, seed=21)
        schedule = make_schedule("ring", 4, 12, Cost.TRACE, seed=21)
        report = run_schedule(nodes, truth, schedule)
        assert report.violations == 0
        assert report.cost == "trace"

    def test_report_names_the_cost_it_solved_with(self):
        # the events of a TRACE schedule under a schedule of the default cost
        events = make_schedule("ring", 4, 3, Cost.TRACE, seed=1).events
        reports = {}
        for cost, schedule in (
            ("det", simulator.Schedule(events=events, topology="ring", seed=1)),
            ("trace", make_schedule("ring", 4, 3, Cost.TRACE, seed=1)),
        ):
            nodes, truth = init_network(3, 4, seed=1)
            reports[cost] = run_schedule(nodes, truth, schedule)
            assert reports[cost].cost == cost
            nodes, truth = init_network(3, 4, seed=1)
            for record in reports[cost].records:
                a, b = nodes[record.node_a], nodes[record.node_b]
                result = solve_ci(FusionProblem(a.estimate, b.estimate), Cost(cost))
                assert record.alpha == result.alpha
                truth.apply_fusion(record.node_a, record.node_b, result.K1, result.K2)
                a.h, a.x_hat, a.p_hat = np.eye(3), result.fused_x, result.P_hat
        alphas = {cost: [r.alpha for r in report.records] for cost, report in reports.items()}
        assert alphas["det"] != alphas["trace"]

    def test_reports_are_bit_identical(self):
        def run(seed):
            nodes, truth = init_network(4, 5, seed=seed)
            schedule = make_schedule("ring", 5, 20, Cost.DET, seed=seed)
            return run_schedule(nodes, truth, schedule).to_text()

        assert run(7) == run(7)

    def test_rank_deficient_pairs_are_skipped(self):
        spec = NoiseSpec(
            h_list=[[[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]], [[0.0, 0.0, 1.0]]]
        )
        nodes, truth = init_network(3, 3, seed=0, noise_spec=spec)
        schedule = make_schedule("chain", 3, 2, Cost.DET)
        report = run_schedule(nodes, truth, schedule)
        # scalar pairs cannot reach rank 3, so both events are skipped
        assert len(report.skipped) == 2 and not report.records
        assert "# skipped" in report.to_text()

    def test_unreachable_pair_skipped_with_its_reason(self):
        # nodes 0 and 1 see the same direction; node 2 makes the network reachable
        spec = NoiseSpec(h_list=[[[1.0, 0.0]], [[2.0, 0.0]], [[0.0, 1.0]]])
        nodes, truth = init_network(2, 3, seed=0, noise_spec=spec)
        schedule = make_schedule("chain", 3, 2, Cost.DET)
        report = run_schedule(nodes, truth, schedule)
        assert report.skipped == [(0, 0, 1, "pair does not reach state rank")]
        assert [(r.event_id, r.node_a, r.node_b) for r in report.records] == [(1, 1, 2)]
        assert "# skipped 0 (0,1): pair does not reach state rank\n" in report.to_text()

    def test_row_rank_deficient_node_fuses(self):
        # node 0's two rows are collinear; its pair reaches state rank, so it fuses
        spec = NoiseSpec(h_list=[[[1.0, 0.0], [2.0, 0.0]], [[0.0, 1.0]]])
        nodes, truth = init_network(2, 2, seed=0, noise_spec=spec)
        schedule = make_schedule("chain", 2, 1, Cost.DET)
        report = run_schedule(nodes, truth, schedule)
        assert [(r.event_id, r.node_a, r.node_b) for r in report.records] == [(0, 0, 1)]
        assert not report.skipped and report.violations == 0
        assert report.to_text().endswith("# violations 0\n")

    def test_determinant_never_increases_at_full_state_nodes(self):
        # once a node is full-state, a further det-cost fusion it hosts
        # cannot increase its covariance determinant
        schedule = make_schedule("ring", 3, 12, Cost.DET, seed=13)
        nodes, truth = init_network(3, 3, seed=13)
        checked = 0
        for event in schedule.events:
            before = None
            if nodes[event.node_a].p == 3:
                before = np.linalg.det(nodes[event.node_a].p_hat.data)
            single = type(schedule)(events=(event,), topology="manual", seed=0)
            sub = run_schedule(nodes, truth, single)
            if before is not None and sub.records:
                after = np.linalg.det(nodes[event.node_a].p_hat.data)
                assert after <= before * (1.0 + 1e-12)
                checked += 1
        assert checked > 0

    def test_invalid_event_raises(self):
        nodes, truth = init_network(2, 2, seed=0)
        bad = make_schedule("chain", 2, 1, Cost.DET)
        bad = type(bad)(
            events=(type(bad.events[0])(0, 0),), topology="chain", seed=0
        )
        with pytest.raises(ScheduleError):
            run_schedule(nodes, truth, bad)


class TestKeptNodeEstimate:
    def test_assigning_an_input_drops_the_estimate(self):
        nodes, _ = init_network(3, 2, seed=5)
        node = nodes[0]
        est = node.estimate
        assert node.estimate is est
        node.lineage = [(0, 1, 0.5)]  # not an input of the estimate
        assert node.estimate is est
        for name in ("h", "x_hat", "p_hat"):
            setattr(node, name, getattr(node, name))
            assert node.estimate is not est
            est = node.estimate
        assert est.p_hat is node.p_hat
        for kept, given in ((est.h, node.h), (est.x_hat, node.x_hat)):
            np.testing.assert_array_equal(kept, given)

    def test_event_keeps_the_second_node_estimate(self):
        # the fused node gets new arrays, so its estimate is rebuilt; the
        # second node keeps its prior and the estimate built from it
        nodes, truth = init_network(4, 5, seed=3)
        schedule = make_schedule("ring", 5, 20, Cost.DET, seed=3)
        for ev in schedule.events:
            before_a, before_b = nodes[ev.node_a].estimate, nodes[ev.node_b].estimate
            one = type(schedule)(events=(ev,), topology=schedule.topology, seed=schedule.seed)
            assert run_schedule(nodes, truth, one).records
            assert nodes[ev.node_b].estimate is before_b
            assert nodes[ev.node_a].estimate is not before_a

    def test_reports_match_rebuilt_estimates_bitwise(self):
        # a run that drops every kept estimate before each event builds
        # every estimate anew, as run_schedule once did
        def run(fresh: bool) -> str:
            nodes, truth = init_network(5, 12, seed=2)
            schedule = make_schedule("random", 12, 150, Cost.DET, seed=2)
            lines = []
            for ev in schedule.events:
                if fresh:
                    for node in nodes:
                        node.p_hat = node.p_hat
                one = type(schedule)(events=(ev,), topology=schedule.topology, seed=schedule.seed)
                lines.append(run_schedule(nodes, truth, one).to_text())
            return "".join(lines)

        assert run(fresh=False) == run(fresh=True)


class TestGroundTruth:
    def test_fusion_update_matches_direct_propagation(self):
        rng = np.random.default_rng(17)
        blocks = [np.eye(2) * 2.0, np.eye(3)]
        truth = GroundTruth(rng.standard_normal(3), blocks)
        k1 = rng.standard_normal((3, 2))
        k2 = rng.standard_normal((3, 3))
        t = np.block([[k1, k2], [np.zeros((3, 2)), np.eye(3)]])
        expected = t @ truth.joint @ t.T
        truth.apply_fusion(0, 1, k1, k2)
        np.testing.assert_allclose(truth.joint, expected, atol=1e-12)
        assert truth.dims == [3, 3]


def dense_fusion_oracle(joint, dims, a, b, k1, k2):
    """The fusion into node a as one dense transform: ``T J T'``.

    ``T`` is the identity on every node but a, whose rows hold ``K1`` under
    node a's old columns and ``K2`` under node b's.
    """
    new_dims = list(dims)
    new_dims[a] = k1.shape[0]
    old_off = np.cumsum([0] + list(dims))
    new_off = np.cumsum([0] + new_dims)
    t = np.zeros((new_off[-1], old_off[-1]))
    for i, d in enumerate(dims):
        rows = slice(new_off[i], new_off[i + 1])
        if i == a:
            t[rows, old_off[a] : old_off[a + 1]] = k1
            t[rows, old_off[b] : old_off[b + 1]] = k2
        else:
            t[rows, old_off[i] : old_off[i + 1]] = np.eye(d)
    return t @ joint @ t.T, new_dims


def correlated_truth(rng, dims):
    """A ground truth whose joint has full cross-covariance between nodes."""
    truth = GroundTruth(np.zeros(max(dims)), [np.eye(d) for d in dims])
    g = rng.standard_normal((sum(dims), sum(dims)))
    joint = g @ g.T / g.shape[0] + np.eye(g.shape[0])
    truth.joint = 0.5 * (joint + joint.T)
    return truth


def random_gains(rng, dims, a, b, d):
    scale = 1.0 / np.sqrt(dims[a] + dims[b])
    return (scale * rng.standard_normal((d, dims[a])),
            scale * rng.standard_normal((d, dims[b])))


def fuse_and_compare(truth, rng, a, b, d):
    """Apply one random fusion and check it against the dense oracle."""
    k1, k2 = random_gains(rng, truth.dims, a, b, d)
    expected, dims = dense_fusion_oracle(truth.joint, truth.dims, a, b, k1, k2)
    truth.apply_fusion(a, b, k1, k2)
    atol = 1e-12 * np.abs(expected).max()
    np.testing.assert_allclose(truth.joint, expected, rtol=0.0, atol=atol)
    assert type(truth.dims) is list and truth.dims == dims
    assert truth.joint.shape == (sum(dims), sum(dims))
    assert np.array_equal(truth.joint, truth.joint.T)


class TestBlockRowUpdate:
    DIMS = [2, 3, 1, 3, 2]

    @pytest.mark.parametrize("grow", [False, True], ids=["same_size", "grown"])
    @pytest.mark.parametrize(
        "a, b",
        [(0, 3), (2, 0), (2, 4), (4, 1)],
        ids=["a_first", "a_middle_b_before", "a_middle_b_after", "a_last"],
    )
    def test_matches_dense_transform(self, a, b, grow):
        rng = np.random.default_rng(100 * a + b)
        truth = correlated_truth(rng, self.DIMS)
        fuse_and_compare(truth, rng, a, b, 4 if grow else self.DIMS[a])

    def test_chain_of_mixed_events_on_forty_nodes(self):
        rng = np.random.default_rng(29)
        truth = correlated_truth(rng, [int(d) for d in rng.integers(1, 6, size=40)])
        for _ in range(40):
            a, b = (int(i) for i in rng.choice(40, size=2, replace=False))
            fuse_and_compare(truth, rng, a, b, int(rng.integers(1, 6)))


def address(array):
    return array.__array_interface__["data"][0]


def moved_side(before, after):
    """Which rows a resize of one node moved within the buffer: "head" for
    those before the node, "tail" for those after it, None for a new buffer.

    A head move starts the joint at another row of the same buffer.
    """
    if not np.shares_memory(before, after):
        return None
    return "tail" if address(after) == address(before) else "head"


class TestRetainedJointBuffer:
    # the small chunk moves a few rows at a time, fewer and more than a
    # growth adds, so the order of the chunks matters
    @pytest.mark.parametrize("chunk", [SHIFT_CHUNK_ENTRIES, 400])
    def test_chain_equals_reallocating_oracle_bitwise(self, monkeypatch, chunk):
        monkeypatch.setattr(simulator, "SHIFT_CHUNK_ENTRIES", chunk)
        rng = np.random.default_rng(41)
        nodes = 40
        truth = correlated_truth(rng, [int(d) for d in rng.integers(1, 6, size=nodes)])
        compact, dims0 = truth.joint.copy(), list(truth.dims)
        joint, dims = compact.copy(), list(dims0)
        seen, moves = set(), set()
        for k in range(60):
            if k == 20:  # the benchmark's reset between passes
                truth.joint = compact.copy()
                truth.dims = list(dims0)
                joint, dims = compact.copy(), list(dims0)
            if k == 40:  # a joint that shares the buffer's memory
                truth.joint = truth.joint.T
                # the joint is exactly symmetric: its transpose holds the
                # same values, so the oracle keeps its own layout
                assert np.array_equal(joint, joint.T)
            a = (0, nodes - 1, int(rng.integers(1, nodes - 1)))[k % 3]
            after = a == 0 or (a < nodes - 1 and (k // 9) % 2 == 0)
            b = int(rng.integers(a + 1, nodes) if after else rng.integers(a))
            change = ("grow", "same", "shrink")[(k // 3) % 3]
            d = dims[a]
            if change == "shrink" and d > 1:
                d -= int(rng.integers(1, d))
            elif change != "same":
                change = "grow"
                d += int(rng.integers(1, 4))
            seen.add((("first", "last", "middle")[k % 3], b > a, change))
            k1, k2 = random_gains(rng, dims, a, b, d)
            joint, dims = reallocating_fusion_oracle(joint, dims, a, b, k1, k2)
            before = truth.joint
            truth.apply_fusion(a, b, k1, k2)
            if change != "same":
                moves.add((moved_side(before, truth.joint), change))
            assert truth.dims == dims
            assert truth.joint.shape == joint.shape
            assert truth.joint.tobytes() == joint.tobytes()
            i = int(rng.integers(nodes))
            o = sum(dims[:i])
            want = joint[o : o + dims[i], o : o + dims[i]]
            assert truth.node_cov(i).tobytes() == want.tobytes()
        for change in ("grow", "same", "shrink"):
            assert ("first", True, change) in seen and ("last", False, change) in seen
            assert {("middle", True, change), ("middle", False, change)} <= seen
        for change in ("grow", "shrink"):
            assert {("head", change), ("tail", change)} <= moves

    @pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
    def test_growing_an_end_node_leaves_the_other_rows_in_place(self, first):
        rng = np.random.default_rng(8)
        # the assigned joint was copied into the buffer, so it grows in place
        truth = correlated_truth(rng, [2] * 10)
        a, b = (0, 1) if first else (9, 8)
        before = truth.joint[2:, 2:] if first else truth.joint[:-2, :-2]
        values = before.copy()
        truth.apply_fusion(a, b, *random_gains(rng, truth.dims, a, b, 3))
        after = truth.joint[3:, 3:] if first else truth.joint[:-3, :-3]
        assert address(after) == address(before) and after.strides == before.strides
        assert after.tobytes() == values.tobytes()

    @staticmethod
    def grow_one_row_per_event(order):
        """Grow 2-row nodes to 3 in ``order`` past the first buffer's capacity;
        check that only the event past it reallocates, and return the sides
        the in-place events moved."""
        rng = np.random.default_rng(5)
        truth = GroundTruth(np.zeros(3), [np.eye(2)] * 40)
        capacity = math.ceil(JOINT_HEADROOM * 80)
        # one row more per event: in place up to the capacity, one new
        # buffer past it, and in place again in that buffer
        sides = []
        for a in order[: capacity - 80 + 2]:
            b = a + 1 if a < 39 else a - 1
            before = truth.joint
            truth.apply_fusion(a, b, *random_gains(rng, truth.dims, a, b, 3))
            size = truth.joint.shape[0]
            assert np.shares_memory(truth.joint, before) == (size != capacity + 1)
            sides.append(moved_side(before, truth.joint))
        return sides

    def test_growth_reallocates_only_past_the_headroom(self):
        sides = self.grow_one_row_per_event(range(40))
        # the first nodes grow into the spare rows before the joint until
        # they are used up, then into those after it
        assert sides[:10] == ["head"] * 5 + ["tail"] * 5
        assert sides[10] is None

    def test_backward_growth_reallocates_only_past_the_headroom(self):
        sides = self.grow_one_row_per_event(range(39, -1, -1))
        assert sides[:10] == ["tail"] * 5 + ["head"] * 5
        assert sides[10] is None

    @staticmethod
    def peak_bytes(operation):
        """The most memory, in bytes, that ``operation()`` holds at once beyond what it started with."""
        tracemalloc.start()
        try:
            operation()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_assigned_joint_that_does_not_fit_gets_one_buffer(self):
        rng = np.random.default_rng(7)
        truth = GroundTruth(np.zeros(6), [np.eye(2)] * 10)
        kept = truth.joint
        # a 24-row joint does not fit the 23-row buffer of a 20-row one, so
        # it is copied into a buffer of its own at once
        assigned = np.eye(24)
        truth.joint, truth.dims = assigned, [2] * 12
        assert truth.joint.base.shape == (math.ceil(JOINT_HEADROOM * 24),) * 2
        assert not np.shares_memory(truth.joint, kept)
        assert not np.shares_memory(truth.joint, assigned)
        # three rows more than the spare at either end of that buffer
        truth.apply_fusion(6, 7, *random_gains(rng, truth.dims, 6, 7, 5))
        assert truth.joint.base.shape == (math.ceil(JOINT_HEADROOM * 27),) * 2
        assert truth.joint.shape == (27, 27)

    def test_assigned_joint_is_copied_into_the_buffer_even_when_it_overlaps(self):
        rng = np.random.default_rng(6)
        truth = GroundTruth(np.zeros(3), [np.eye(2)] * 10)
        kept = truth.joint
        truth.joint = kept.copy()
        assert np.shares_memory(truth.joint, kept)
        truth.apply_fusion(0, 1, *random_gains(rng, truth.dims, 0, 1, 2))
        assert np.shares_memory(truth.joint, kept)
        # an asymmetric joint shows that an overlapping view is copied whole
        # before it is written
        values = rng.standard_normal((20, 20))
        truth.joint = values
        truth.joint = truth.joint.T
        assert np.shares_memory(truth.joint, kept)
        assert truth.joint.tobytes() == values.T.copy().tobytes()

    def test_changing_an_assigned_array_leaves_the_joint(self):
        rng = np.random.default_rng(9)
        truth = GroundTruth(np.zeros(3), [np.eye(2)] * 10)
        assigned = rng.standard_normal((20, 20))
        truth.joint = assigned
        values = assigned.copy()
        assigned[...] = 0.0
        assert truth.joint.tobytes() == values.tobytes()

    def test_assigned_joint_that_fits_allocates_no_buffer(self):
        rng = np.random.default_rng(10)
        truth = GroundTruth(np.zeros(3), [np.eye(2)] * 100)
        buf = truth.joint.base
        joint = correlated_truth(rng, [2] * 100).joint.copy()
        gains = random_gains(rng, truth.dims, 3, 4, 2)

        def assign():
            truth.joint = joint

        # the fusion's own temporaries are a few block rows, far below a joint
        assert self.peak_bytes(assign) < joint.nbytes / 8
        assert truth.joint.base is buf and truth.joint.tobytes() == joint.tobytes()
        assert self.peak_bytes(lambda: truth.apply_fusion(3, 4, *gains)) < joint.nbytes / 8
        assert truth.joint.base is buf and truth.joint.shape == (200, 200)

    def test_assigning_none_drops_the_joint_and_keeps_the_buffer(self):
        truth = GroundTruth(np.zeros(3), [np.eye(2)] * 100)
        buf = truth.joint.base
        truth.joint = None
        assert truth.joint is None
        joint = np.eye(200)

        def assign():
            truth.joint = joint

        assert self.peak_bytes(assign) < joint.nbytes / 8
        assert truth.joint.base is buf and np.array_equal(truth.joint, joint)
