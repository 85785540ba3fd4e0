"""Unit tests for the centered interval tree."""

import numpy as np
import pytest

from repro.regions.interval_tree import Interval, IntervalTree


class TestInterval:
    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(5, 5, 0)
        with pytest.raises(ValueError):
            Interval(6, 5, 0)

    def test_contains_half_open(self):
        iv = Interval(10, 20, 0)
        assert iv.contains(10)
        assert iv.contains(19)
        assert not iv.contains(20)
        assert not iv.contains(9)


class TestTreeBasics:
    def test_empty_tree(self):
        tree = IntervalTree([])
        assert len(tree) == 0
        assert tree.stab(5) == []

    def test_single_interval(self):
        tree = IntervalTree([(10, 20, 7)])
        assert tree.stab(15) == [7]
        assert tree.stab(20) == []
        assert tree.stab(9) == []

    def test_tuple_and_record_inputs_equivalent(self):
        a = IntervalTree([(0, 10, 1), (5, 15, 2)])
        b = IntervalTree([Interval(0, 10, 1), Interval(5, 15, 2)])
        assert a.stab(7) == b.stab(7) == [1, 2]

    def test_disjoint_intervals(self):
        tree = IntervalTree([(0, 10, 0), (20, 30, 1), (40, 50, 2)])
        assert tree.stab(5) == [0]
        assert tree.stab(25) == [1]
        assert tree.stab(45) == [2]
        assert tree.stab(15) == []

    def test_nested_intervals_all_reported(self):
        tree = IntervalTree([(0, 100, 0), (10, 90, 1), (40, 60, 2)])
        assert tree.stab(50) == [0, 1, 2]
        assert tree.stab(20) == [0, 1]
        assert tree.stab(5) == [0]

    def test_query_cost_recorded(self):
        tree = IntervalTree([(i * 10, i * 10 + 5, i) for i in range(64)])
        tree.stab(321)
        assert tree.last_query_cost > 0

    def test_logarithmic_scaling(self):
        # Cost for disjoint intervals should grow far slower than n.
        small = IntervalTree([(i * 10, i * 10 + 5, i) for i in range(16)])
        large = IntervalTree([(i * 10, i * 10 + 5, i) for i in range(1024)])
        small.stab(82)
        small_cost = small.last_query_cost
        large.stab(8002)
        large_cost = large.last_query_cost
        assert large_cost < small_cost * 8  # not 64x


class TestAgainstNaiveOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_intervals_match_linear_scan(self, seed):
        rng = np.random.default_rng(seed)
        intervals = []
        for payload in range(rng.integers(1, 60)):
            start = int(rng.integers(0, 1000))
            end = start + int(rng.integers(1, 120))
            intervals.append(Interval(start, end, payload))
        tree = IntervalTree(intervals)
        assert len(tree) == len(intervals)
        for _ in range(200):
            point = int(rng.integers(-10, 1200))
            assert tree.stab(point) == tree.stab_naive(point)

    def test_heavily_overlapping(self):
        intervals = [Interval(0, 1000, i) for i in range(20)]
        intervals += [Interval(i, i + 1, 100 + i) for i in range(0, 100, 7)]
        tree = IntervalTree(intervals)
        for point in range(0, 120, 3):
            assert tree.stab(point) == tree.stab_naive(point)

    def test_boundary_points(self):
        tree = IntervalTree([(0, 10, 0), (10, 20, 1)])
        for point in (0, 9, 10, 19, 20):
            assert tree.stab(point) == tree.stab_naive(point)
