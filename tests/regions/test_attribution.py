"""Unit tests for the sample-to-region attribution strategies."""

import pickle

import numpy as np
import pytest

from repro.costs import CostLedger
from repro.regions.attribution import (ListAttributor, TreeAttributor,
                                       attribute_round, make_attributor)
from repro.regions.registry import RegionRegistry
from tests.attribution_oracle import ORACLES, ScalarListAttributor


def registry_with(*spans):
    registry = RegionRegistry()
    for start, end in spans:
        registry.add(start, end)
    return registry


class TestAttributionCorrectness:
    def test_samples_split_between_regions_and_ucr(self):
        registry = registry_with((0x1000, 0x1010), (0x2000, 0x2010))
        attributor = ListAttributor(registry)
        pcs = np.array([0x1000, 0x1004, 0x2008, 0x3000, 0x3000])
        result = attributor.attribute(pcs)
        assert result.n_samples == 5
        assert result.total_for(0) == 2
        assert result.total_for(1) == 1
        assert list(result.ucr_pcs) == [0x3000, 0x3000]
        assert result.ucr_fraction == pytest.approx(0.4)

    def test_histogram_slots(self):
        registry = registry_with((0x1000, 0x1010))
        result = ListAttributor(registry).attribute(
            np.array([0x1004, 0x1004, 0x100C]))
        assert list(result.region_counts[0]) == [0, 2, 0, 1]

    def test_overlapping_regions_both_incremented(self):
        # The paper: "when samples are obtained from overlapping regions,
        # we increment counters for all overlapping regions".
        registry = registry_with((0x1000, 0x1100), (0x1040, 0x1080))
        result = ListAttributor(registry).attribute(
            np.array([0x1050, 0x1050]))
        assert result.total_for(0) == 2
        assert result.total_for(1) == 2
        assert result.n_hits == 4  # stacked above the sample count

    def test_empty_interval(self):
        registry = registry_with((0x1000, 0x1010))
        result = ListAttributor(registry).attribute(
            np.array([], dtype=np.int64))
        assert result.n_samples == 0
        assert result.ucr_fraction == 0.0
        assert result.region_counts == {}

    def test_no_regions_all_ucr(self):
        result = ListAttributor(RegionRegistry()).attribute(
            np.array([0x1000, 0x2000]))
        assert result.ucr_fraction == 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_list_and_tree_agree(self, seed):
        rng = np.random.default_rng(seed)
        registry = RegionRegistry()
        for _ in range(12):
            start = int(rng.integers(0, 0x4000)) & ~0x3
            length = (int(rng.integers(4, 0x200)) & ~0x3) or 4
            if not registry.has_span(start, start + length):
                registry.add(start, start + length)
        pcs = (rng.integers(0, 0x5000, size=3000) & ~0x3).astype(np.int64)
        list_result = ListAttributor(registry).attribute(pcs)
        tree_result = TreeAttributor(registry).attribute(pcs)
        assert list_result.n_hits == tree_result.n_hits
        assert sorted(list_result.region_counts) \
            == sorted(tree_result.region_counts)
        for rid, counts in list_result.region_counts.items():
            assert np.array_equal(counts, tree_result.region_counts[rid])
        assert np.array_equal(np.sort(list_result.ucr_pcs),
                              np.sort(tree_result.ucr_pcs))


class TestOddPcs:
    @pytest.mark.parametrize("strategy", ["list", "tree"])
    def test_outside_and_unaligned_pcs_land_like_the_oracle(self, strategy):
        registry = registry_with((0x1000, 0x1010), (0x1008, 0x1010),
                                 (0x2002, 0x200a))
        pcs = np.array([-8, 0, 0xfff, 0x1001, 0x1003, 0x100b, 0x1010,
                        0x2002, 0x2005, 0x2009, 0x200a, 1 << 40])
        result = make_attributor(strategy, registry).attribute(pcs)
        oracle = ORACLES[strategy](registry).attribute(pcs)
        assert list(result.ucr_pcs) == list(oracle.ucr_pcs) \
            == [-8, 0, 0xfff, 0x1010, 0x200a, 1 << 40]
        assert list(result.region_counts[0]) == [2, 0, 1, 0]
        assert list(result.region_counts[2]) == [2, 1]
        for rid, counts in oracle.region_counts.items():
            assert np.array_equal(result.region_counts[rid], counts)

    def test_reference_attributors_cannot_join_a_round(self):
        registry = registry_with((0x1000, 0x1010))
        with pytest.raises(TypeError, match="segment table"):
            attribute_round([ScalarListAttributor(registry)],
                            np.array([[0x1000]]))


class TestPickleHygiene:
    """Segment tables and the registry's order are derived state: they
    are rebuilt after a restore, never carried in a pickle."""

    def test_registry_pickle_carries_no_order_cache(self):
        registry = registry_with((0x2000, 0x2010), (0x1000, 0x1010))
        cold = pickle.dumps(registry)
        assert [r.rid for r in registry.regions()] == [0, 1]
        assert registry.covering(0x1004)[0].rid == 1
        assert pickle.dumps(registry) == cold
        restored = pickle.loads(cold)
        assert restored.regions() == registry.regions()
        assert list(restored) == registry.regions()

    @pytest.mark.parametrize("strategy", ["list", "tree"])
    def test_attributor_pickle_carries_no_table(self, strategy):
        registry = registry_with((0x1000, 0x1010), (0x1004, 0x100c))
        attributor = make_attributor(strategy, registry, CostLedger())
        pcs = np.array([0x1004, 0x1008, 0x3000])
        attributor.attribute(pcs)
        blob = pickle.dumps(attributor)
        assert b"SegmentTable" not in blob
        restored = pickle.loads(blob)
        assert "_table" not in vars(restored)
        # The restored twin rebuilds its table without charging a second
        # tree build, and attributes exactly like the original.
        again, twin = attributor.attribute(pcs), restored.attribute(pcs)
        assert again.region_totals == twin.region_totals
        assert list(again.ucr_pcs) == list(twin.ucr_pcs)
        assert attributor.ledger == restored.ledger


class TestCostCharging:
    def test_list_cost_scales_with_region_count(self):
        pcs = np.full(1000, 0x1004, dtype=np.int64)
        few_ledger = CostLedger()
        few = ListAttributor(registry_with((0x1000, 0x1010)), few_ledger)
        few.attribute(pcs)
        many_ledger = CostLedger()
        many_registry = registry_with(
            *[(0x1000 + i * 0x100, 0x1010 + i * 0x100) for i in range(50)])
        many = ListAttributor(many_registry, many_ledger)
        many.attribute(pcs)
        assert many_ledger.attribution_ops > 20 * few_ledger.attribution_ops

    def test_tree_cost_scales_sublinearly(self):
        pcs = np.full(1000, 0x1004, dtype=np.int64)

        def tree_cost(n_regions):
            ledger = CostLedger()
            registry = registry_with(
                *[(0x1000 + i * 0x100, 0x1010 + i * 0x100)
                  for i in range(n_regions)])
            TreeAttributor(registry, ledger).attribute(pcs)
            return ledger.attribution_ops

        assert tree_cost(256) < 4 * tree_cost(4)

    def test_tree_beats_list_with_many_regions(self):
        registry = registry_with(
            *[(0x1000 + i * 0x100, 0x1010 + i * 0x100) for i in range(200)])
        rng = np.random.default_rng(0)
        pcs = (0x1000 + (rng.integers(0, 200, size=2032) * 0x100)
               + 4).astype(np.int64)
        list_ledger, tree_ledger = CostLedger(), CostLedger()
        ListAttributor(registry, list_ledger).attribute(pcs)
        TreeAttributor(registry, tree_ledger).attribute(pcs)
        assert tree_ledger.attribution_ops < list_ledger.attribution_ops

    def test_list_beats_tree_with_few_regions(self):
        # The paper: "for benchmarks with a small number of regions, the
        # cost is slightly higher from the increased cost of maintaining
        # the tree".
        registry = registry_with((0x1000, 0x1010), (0x2000, 0x2010))
        pcs = np.full(2032, 0x1004, dtype=np.int64)
        list_ledger, tree_ledger = CostLedger(), CostLedger()
        ListAttributor(registry, list_ledger).attribute(pcs)
        tree = TreeAttributor(registry, tree_ledger)
        tree.attribute(pcs)
        total_tree = (tree_ledger.attribution_ops
                      + tree_ledger.tree_maintenance_ops)
        assert total_tree >= list_ledger.attribution_ops * 0.5

    def test_tree_rebuild_only_on_version_change(self):
        registry = registry_with((0x1000, 0x1010))
        ledger = CostLedger()
        attributor = TreeAttributor(registry, ledger)
        pcs = np.array([0x1004], dtype=np.int64)
        attributor.attribute(pcs)
        build_ops = ledger.tree_maintenance_ops
        attributor.attribute(pcs)
        assert ledger.tree_maintenance_ops == build_ops  # no rebuild
        registry.add(0x2000, 0x2010)
        attributor.attribute(pcs)
        assert ledger.tree_maintenance_ops > build_ops


class TestFactory:
    def test_known_strategies(self):
        registry = RegionRegistry()
        assert isinstance(make_attributor("list", registry), ListAttributor)
        assert isinstance(make_attributor("tree", registry), TreeAttributor)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="list.*tree"):
            make_attributor("hash", RegionRegistry())
