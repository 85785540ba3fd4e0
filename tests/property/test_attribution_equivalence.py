"""Equivalence oracles for the performance engine (hypothesis).

The engine's columnar attribution kernel (`"list"`/`"tree"`, one row or a
whole round of lanes) and the simulation cache are pure optimizations:
they must reproduce, byte for byte, what the per-PC scalar references
(`tests/attribution_oracle.py`) and a fresh uncached computation
produce.  These tests drive random registries, random sample vectors —
unaligned PCs, PCs below and above every span, PCs too wide for 32 bits
and empty intervals included — many-lane rounds and whole random-program
monitor pipelines through both sides and compare everything observable:
counts, UCR samples, hit totals, ledger charges, reports and phase
statistics.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MonitorThresholds
from repro.costs import CostLedger
from repro.experiments import cache as cache_module
from repro.experiments.base import benchmark_for, monitored_run
from repro.experiments.config import ExperimentConfig
from repro.monitor import RegionMonitor
from repro.program.generator import random_program
from repro.regions.attribution import attribute_round, make_attributor
from repro.regions.registry import RegionRegistry
from repro.sampling import simulate_sampling
from tests.attribution_oracle import (ORACLES, ScalarListAttributor,
                                      ScalarTreeAttributor)
from tests.conformance.compare import assert_monitors_identical

seeds = st.integers(min_value=0, max_value=10_000)


def random_registry(rng: np.random.Generator,
                    max_regions: int = 16) -> RegionRegistry:
    """A random region table, overlapping and nested spans included.

    Spans lie in ``[0, 0x4400)``; one start in eight is not
    instruction-aligned.
    """
    registry = RegionRegistry()
    for _ in range(int(rng.integers(0, max_regions + 1))):
        start = int(rng.integers(0, 0x4000))
        if rng.random() < 0.875:
            start &= ~0x3
        length = (int(rng.integers(4, 0x400)) & ~0x3) or 4
        spans = [(start, start + length)]
        if length > 8 and rng.random() < 0.25:
            spans.append((start + 4, start + length - 4))  # nested
        for low, high in spans:
            if not registry.has_span(low, high):
                registry.add(low, high)
    return registry


def random_pcs(rng: np.random.Generator, size: int | None = None
               ) -> np.ndarray:
    """Random samples: mostly aligned PCs around the spans, plus
    unaligned ones, PCs below and above every span, and (rarely) PCs
    that need more than 32 bits, as corrupted PCs do.  One interval in
    ten is empty unless *size* is given."""
    if size is None:
        size = 0 if rng.random() < 0.1 else int(rng.integers(1, 3000))
    pcs = rng.integers(-0x100, 0x4a00, size=size)
    aligned = rng.random(size) < 0.8
    pcs[aligned] &= ~0x3
    if rng.random() < 0.2:
        wide = rng.random(size) < 0.02
        pcs[wide] = rng.integers(1 << 31, 1 << 48, size=int(wide.sum()))
    return pcs.astype(np.int64)


def assert_results_identical(batched, scalar) -> None:
    assert batched.n_samples == scalar.n_samples
    assert batched.n_hits == scalar.n_hits
    assert np.array_equal(batched.ucr_pcs, scalar.ucr_pcs)
    assert batched.region_totals == scalar.region_totals
    assert sorted(batched.region_counts) == sorted(scalar.region_counts)
    for rid, counts in batched.region_counts.items():
        reference = scalar.region_counts[rid]
        assert counts.dtype == reference.dtype
        assert np.array_equal(counts, reference)


def assert_ledgers_identical(batched: CostLedger,
                             scalar: CostLedger) -> None:
    assert batched.attribution_ops == scalar.attribution_ops
    assert batched.tree_maintenance_ops == scalar.tree_maintenance_ops


def random_fleet(rng: np.random.Generator, n_lanes: int
                 ) -> list[RegionRegistry]:
    """Independent lane registries: some empty, some sharing spans with
    lane 0 (the same span monitored in several lanes)."""
    registries = []
    for _ in range(n_lanes):
        roll = rng.random()
        if roll < 0.2:
            registries.append(RegionRegistry())
        elif roll < 0.4 and registries:
            shared = RegionRegistry()
            for region in registries[0].regions():
                shared.add(region.start, region.end)
            registries.append(shared)
        else:
            registries.append(random_registry(rng, max_regions=8))
    return registries


class TestBatchedMatchesScalar:
    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_list_attribution(self, seed):
        rng = np.random.default_rng(seed)
        registry = random_registry(rng)
        pcs = random_pcs(rng)
        batched_ledger, scalar_ledger = CostLedger(), CostLedger()
        batched = make_attributor("list", registry, batched_ledger)
        scalar = ScalarListAttributor(registry, scalar_ledger)
        assert_results_identical(batched.attribute(pcs),
                                 scalar.attribute(pcs))
        assert_ledgers_identical(batched_ledger, scalar_ledger)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_tree_attribution(self, seed):
        rng = np.random.default_rng(seed)
        registry = random_registry(rng)
        pcs = random_pcs(rng)
        batched_ledger, scalar_ledger = CostLedger(), CostLedger()
        batched = make_attributor("tree", registry, batched_ledger)
        scalar = ScalarTreeAttributor(registry, scalar_ledger)
        assert_results_identical(batched.attribute(pcs),
                                 scalar.attribute(pcs))
        assert_ledgers_identical(batched_ledger, scalar_ledger)

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_registry_growth_between_intervals(self, seed):
        # The monitor's real access pattern: attribute, form new regions,
        # attribute again (tree rebuild path included).
        rng = np.random.default_rng(seed)
        registry = random_registry(rng, max_regions=6)
        batched_ledger, scalar_ledger = CostLedger(), CostLedger()
        batched = make_attributor("tree", registry, batched_ledger)
        scalar = ScalarTreeAttributor(registry, scalar_ledger)
        for _ in range(3):
            pcs = random_pcs(rng)
            assert_results_identical(batched.attribute(pcs),
                                     scalar.attribute(pcs))
            start = int(rng.integers(0x5000, 0x6000)) & ~0x3
            if not registry.has_span(start, start + 0x40):
                registry.add(start, start + 0x40)
        assert_ledgers_identical(batched_ledger, scalar_ledger)


class TestRoundMatchesScalarPerLane:
    """One kernel call over many lanes equals each lane's scalar oracle."""

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_many_lane_round(self, seed):
        rng = np.random.default_rng(seed)
        n_lanes = int(rng.integers(1, 9))
        width = int(rng.choice([0, 1, 5, 64, 2032]))
        registries = random_fleet(rng, n_lanes)
        strategies = [str(rng.choice(["list", "tree"]))
                      for _ in registries]
        lanes = [make_attributor(strategy, registry, CostLedger())
                 for strategy, registry in zip(strategies, registries)]
        oracles = [ORACLES[strategy](registry, CostLedger())
                   for strategy, registry in zip(strategies, registries)]
        for round_index in range(2):
            block = np.stack([random_pcs(rng, width)
                              for _ in registries]).reshape(n_lanes, width)
            results = attribute_round(lanes, block)
            assert len(results) == n_lanes
            for result, oracle, row in zip(results, oracles, block):
                assert_results_identical(result, oracle.attribute(row))
            for lane, oracle in zip(lanes, oracles):
                assert_ledgers_identical(lane.ledger, oracle.ledger)
            # Grow some registries between rounds: stale segment tables
            # must be rebuilt (and tree rebuilds charged) per lane.
            for registry in registries:
                start = int(rng.integers(0x5000, 0x6000)) & ~0x3
                if rng.random() < 0.5 \
                        and not registry.has_span(start, start + 0x40):
                    registry.add(start, start + 0x40)

    def test_count_vectors_are_read_only_views(self):
        registry = RegionRegistry()
        registry.add(0x1000, 0x1010)
        lanes = [make_attributor("list", registry),
                 make_attributor("list", registry)]
        block = np.array([[0x1000, 0x1004], [0x1008, 0x2000]])
        first, second = attribute_round(lanes, block)
        assert first.region_counts[0].base is \
            second.region_counts[0].base  # one round histogram
        assert not first.region_counts[0].flags.writeable
        assert list(second.ucr_pcs) == [0x2000]


def monitor_pipeline(seed: int, attribution: str,
                     oracle: bool = False) -> RegionMonitor:
    """A random-program monitor run; *oracle* swaps in the scalar
    reference of the *attribution* strategy."""
    program = random_program(seed, duration_cycles=5_000_000)
    stream = simulate_sampling(program.regions, program.workload, 2_500,
                               seed=seed)
    monitor = RegionMonitor(program.binary,
                            MonitorThresholds(buffer_size=256),
                            attribution=attribution)
    if oracle:
        monitor.attributor = ORACLES[attribution](monitor.registry,
                                                  monitor.ledger)
    monitor.process_stream(stream)
    return monitor


class TestMonitorPipelineEquivalence:
    @given(seeds)
    @settings(max_examples=8, deadline=None)
    def test_list_pipeline(self, seed):
        assert_monitors_identical(monitor_pipeline(seed, "list"),
                                  monitor_pipeline(seed, "list",
                                                   oracle=True))

    @given(seeds)
    @settings(max_examples=8, deadline=None)
    def test_tree_pipeline(self, seed):
        assert_monitors_identical(monitor_pipeline(seed, "tree"),
                                  monitor_pipeline(seed, "tree",
                                                   oracle=True))


class TestCachedMatchesFresh:
    @given(st.sampled_from(("181.mcf", "254.gap", "164.gzip")), seeds)
    @settings(max_examples=6, deadline=None)
    def test_cached_monitored_run(self, name, seed):
        config = ExperimentConfig(scale=0.02, seed=seed % 100)
        model = benchmark_for(name, config)
        store = cache_module.get_cache()
        store.clear()
        try:
            cached = monitored_run(model, 45_000, config)
            assert monitored_run(model, 45_000, config) is cached
            with cache_module.cache_disabled():
                fresh = monitored_run(model, 45_000, config)
            assert fresh is not cached
            assert_monitors_identical(cached, fresh)
        finally:
            store.clear()
