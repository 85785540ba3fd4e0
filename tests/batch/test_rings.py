"""Unit tests for the per-shard ring buffers behind zero-copy ingestion.

The invariant everything else leans on: capacity is a multiple of the
interval size and reads advance a whole interval at a time, so a popped
interval never wraps and :meth:`ShardRing.take_round` can hand out
direct views of ring storage.
"""

import pickle

import numpy as np
import pytest

from repro.batch import ShardRing


def filled_ring(n_lanes=3, size=4, capacity_intervals=4):
    ring = ShardRing(n_lanes, size, capacity_intervals)
    for lane in range(n_lanes):
        ring.push(lane, np.arange(size) + 100 * lane)
    return ring


class TestValidation:
    def test_interval_size_must_be_positive(self):
        with pytest.raises(ValueError, match="interval size"):
            ShardRing(1, 0)

    def test_capacity_must_hold_an_interval(self):
        with pytest.raises(ValueError, match="at least one interval"):
            ShardRing(1, 4, capacity_intervals=0)

    def test_underfull_interval_pop_raises(self):
        ring = ShardRing(1, 4)
        ring.push(0, np.arange(3))
        with pytest.raises(ValueError,
                           match="holds 3 samples; an interval needs 4"):
            ring.take_interval(0)

    def test_underfull_round_pop_names_the_short_lane(self):
        ring = ShardRing(2, 4)
        ring.push(0, np.arange(4))
        ring.push(1, np.arange(2))
        with pytest.raises(ValueError, match="lane 1 holds 2 samples"):
            ring.take_round(np.array([0, 1]))


class TestQueueing:
    def test_fill_and_ready_accounting(self):
        ring = ShardRing(2, 4)
        assert ring.push(0, np.arange(6)) == 1
        assert ring.fill(0) == 6
        assert ring.pending_intervals(0) == 1
        assert ring.fill(1) == 0
        assert list(ring.ready_lanes()) == [0]

    def test_add_lane_starts_empty(self):
        ring = filled_ring(n_lanes=1)
        lane = ring.add_lane()
        assert lane == 1
        assert ring.n_lanes == 2
        assert ring.fill(lane) == 0
        # the existing lane's queue is untouched
        assert ring.take_interval(0).tolist() == [0, 1, 2, 3]

    def test_popped_interval_is_a_view_and_never_wraps(self):
        ring = filled_ring(n_lanes=1)
        view = ring.take_interval(0)
        assert view.base is ring.data
        assert view.strides == (ring.data.strides[1],)

    def test_wrapping_write_splits_and_pops_read_back_in_order(self):
        ring = ShardRing(1, 4, capacity_intervals=2)  # capacity 8
        ring.push(0, np.arange(8))
        ring.take_interval(0)  # read column advances to 4
        ring.push(0, np.arange(10, 14))  # write wraps: cols 4..7 then 0..3
        assert ring.take_interval(0).tolist() == [4, 5, 6, 7]
        assert ring.take_interval(0).tolist() == [10, 11, 12, 13]

    def test_grow_relinearizes_unread_samples(self):
        ring = ShardRing(2, 4, capacity_intervals=1)  # capacity 4
        ring.push(0, np.arange(4))
        ring.take_interval(0)
        ring.push(0, np.arange(20, 24))  # wrapped: read column 0 again
        ring.push(1, np.arange(30, 34))
        ring.push(0, np.arange(24, 32))  # outgrows: doubles, re-linearizes
        assert ring.capacity == 16
        assert (ring._read == 0).all()
        assert ring.take_interval(0).tolist() == [20, 21, 22, 23]
        assert ring.take_interval(0).tolist() == [24, 25, 26, 27]
        assert ring.take_interval(1).tolist() == [30, 31, 32, 33]


class TestTakeRound:
    def test_empty_round(self):
        ring = filled_ring()
        block = ring.take_round(np.array([], dtype=np.int64))
        assert block.shape == (0, 4)

    def test_contiguous_aligned_round_is_a_direct_view(self):
        ring = filled_ring(n_lanes=3)
        block = ring.take_round(np.arange(3))
        assert block.base is ring.data
        assert block.tolist() == [[0, 1, 2, 3],
                                  [100, 101, 102, 103],
                                  [200, 201, 202, 203]]
        assert ring.fill(0) == 0

    def test_scattered_aligned_round_gathers_once(self):
        ring = filled_ring(n_lanes=3)
        block = ring.take_round(np.array([0, 2]))
        assert block.base is not ring.data
        assert block.tolist() == [[0, 1, 2, 3], [200, 201, 202, 203]]
        assert ring.fill(1) == 4  # untouched lane keeps its queue

    def test_ragged_read_positions_fall_back_to_per_lane_pops(self):
        ring = ShardRing(2, 4, capacity_intervals=4)
        ring.push(0, np.arange(8))
        ring.push(1, np.arange(50, 54))
        ring.take_interval(0)  # lane 0's read column is now ahead
        block = ring.take_round(np.array([0, 1]))
        assert block.tolist() == [[4, 5, 6, 7], [50, 51, 52, 53]]

    def test_round_matches_per_lane_interval_pops(self):
        rng = np.random.default_rng(3)
        a, b = ShardRing(4, 6), ShardRing(4, 6)
        for lane in range(4):
            samples = rng.integers(0, 1000, size=18)
            a.push(lane, samples)
            b.push(lane, samples)
        for _ in range(3):
            lanes = a.ready_lanes()
            block = a.take_round(lanes)
            singles = [b.take_interval(int(lane)) for lane in lanes]
            assert block.tolist() == [s.tolist() for s in singles]


class TestLaneGrowth:
    """Lane rows double like columns; snapshots carry live lanes only."""

    def test_admitting_lanes_reallocates_logarithmically(self):
        ring = ShardRing(1, 4, capacity_intervals=2)  # capacity 8
        ring.push(0, np.arange(8))
        ring.take_interval(0)
        ring.push(0, np.arange(10, 14))  # lane 0's queue wraps
        reallocations, storage = 0, ring.data
        for expected in range(1, 1024):
            assert ring.add_lane() == expected
            if ring.data is not storage:
                reallocations, storage = reallocations + 1, ring.data
            ring.push(expected, np.arange(4) + 10 * expected)
        assert reallocations <= 11
        assert ring.n_lanes == 1024
        assert ring.data.shape[0] >= 1024
        assert ring.take_interval(0).tolist() == [4, 5, 6, 7]
        assert ring.take_interval(0).tolist() == [10, 11, 12, 13]
        block = ring.take_round(np.arange(1, 1024))
        assert block.base is ring.data
        assert block.tolist() == [(np.arange(4) + 10 * lane).tolist()
                                  for lane in range(1, 1024)]

    @staticmethod
    def _pushes(ring):
        for lane in range(ring.n_lanes):
            ring.push(lane, np.arange(6 + lane) + 100 * lane)
        ring.take_interval(1)
        ring.push(1, np.arange(900, 905))  # wraps lane 1's queue

    def test_grown_ring_snapshots_like_a_preallocated_one(self):
        grown = ShardRing(0, 4, capacity_intervals=4)
        for _ in range(5):
            grown.add_lane()
        assert grown.data.shape[0] > grown.n_lanes == 5
        preallocated = ShardRing(5, 4, capacity_intervals=4)
        self._pushes(grown)
        self._pushes(preallocated)
        state, reference = grown.__getstate__(), preallocated.__getstate__()
        assert state.keys() == reference.keys()
        assert state["capacity"] == reference["capacity"]
        assert [row.tolist() for row in state["unread"]] == \
            [row.tolist() for row in reference["unread"]]
        assert pickle.dumps(grown) == pickle.dumps(preallocated)

    def test_restored_ring_admits_the_next_lane_index(self):
        grown = ShardRing(0, 4, capacity_intervals=4)
        for _ in range(5):
            grown.add_lane()
        self._pushes(grown)
        restored = pickle.loads(pickle.dumps(grown))
        assert restored.n_lanes == 5
        assert restored.add_lane() == 5
        assert restored.fill(5) == 0
        restored.push(5, np.arange(40, 48))
        assert restored.take_interval(1).tolist() == [104, 105, 106, 900]
        assert restored.take_interval(5).tolist() == [40, 41, 42, 43]
        assert restored.take_round(np.array([0, 5])).tolist() == \
            [[0, 1, 2, 3], [44, 45, 46, 47]]
        assert list(restored.ready_lanes()) == [1, 2, 3, 4]
