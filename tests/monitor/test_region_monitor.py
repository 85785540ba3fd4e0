"""Unit and integration tests for the RegionMonitor framework."""

import numpy as np
import pytest

from repro.core import MonitorThresholds
from repro.core.states import PhaseEventKind
from repro.core.thresholds import LpdThresholds
from repro.errors import RegionError
from repro.program.behavior import RegionSpec, bottleneck_profile
from repro.program.binary import BinaryBuilder, call, loop, straight
from repro.program.workload import Steady, WorkloadScript, mixture
from repro.regions.pruning import PruningPolicy
from repro.regions.region import RegionKind
from repro.sampling import simulate_sampling
from repro.monitor import RegionMonitor


def build_binary():
    b = BinaryBuilder(base=0x10000)
    b.procedure("callee", [straight(40)])
    b.procedure("main", [
        straight(8),
        loop("hot1", body=28),
        loop("hot2", body=60),
        loop("call_loop", body=[straight(2), call("callee")]),
        straight(4),
    ])
    return b.build()


BINARY = build_binary()
HOT1 = BINARY.loop_span("hot1")
HOT2 = BINARY.loop_span("hot2")

REGIONS = {
    "hot1": RegionSpec("hot1", *HOT1,
                       profiles={"main": bottleneck_profile(32, {10: 200.0})}),
    "hot2": RegionSpec("hot2", *HOT2,
                       profiles={"main": bottleneck_profile(
                           64, {5: 100.0, 40: 150.0})}),
    "callee_code": RegionSpec(
        "callee_code", BINARY.procedure("callee").start,
        BINARY.procedure("callee").end, is_loop=False,
        profiles={"main": bottleneck_profile(40, {7: 120.0})}),
}


def steady_stream(ucr_weight=0.10, duration=400_000_000, seed=3):
    weights = {"hot1": (1.0 - ucr_weight) * 0.6,
               "hot2": (1.0 - ucr_weight) * 0.4,
               "callee_code": ucr_weight}
    script = WorkloadScript([Steady(duration, mixture(
        *[(name, w) for name, w in weights.items() if w > 0]))])
    return simulate_sampling(REGIONS, script, 45_000, seed=seed)


def small_thresholds(**kwargs):
    return MonitorThresholds(buffer_size=512, **kwargs)


class TestFormationIntegration:
    def test_first_interval_forms_hot_loops(self):
        monitor = RegionMonitor(BINARY, small_thresholds())
        stream = steady_stream()
        monitor.process_stream(stream)
        spans = {(r.start, r.end) for r in monitor.live_regions()}
        assert HOT1 in spans
        assert HOT2 in spans
        first = monitor.reports[0]
        assert first.ucr_fraction == 1.0
        assert first.formation is not None and first.formation.formed_any

    def test_one_interval_forms_every_hot_loop(self):
        builder = BinaryBuilder(base=0x10000)
        for i in range(64):
            builder.procedure(f"p{i}", [loop(f"l{i}", body=28)],
                              at=0x20000 + i * 0x400)
        binary = builder.build()
        monitor = RegionMonitor(binary, MonitorThresholds(buffer_size=2032))
        starts = np.array([binary.loop_span(f"l{i}")[0] for i in range(64)])
        rng = np.random.default_rng(42)
        # Two hot slots per loop: each region's share clears formation's
        # hot fraction, so one interval forms all 64.
        pcs = (starts[rng.integers(0, 64, size=2032)]
               + 4 * rng.integers(0, 2, size=2032)).astype(np.int64)
        monitor.process_interval(pcs)
        assert len(monitor.live_regions()) == 64
        monitor.process_interval(pcs)
        assert monitor.ucr.history[-1] == 0.0

    def test_ucr_settles_below_threshold(self):
        monitor = RegionMonitor(BINARY, small_thresholds())
        monitor.process_stream(steady_stream(ucr_weight=0.10))
        assert monitor.ucr.history[-1] < 0.30
        assert monitor.ucr.median() == pytest.approx(0.10, abs=0.05)
        assert monitor.ucr.n_triggers == 1  # only the cold start

    def test_persistent_high_ucr_keeps_triggering(self):
        # The 254.gap pathology: hot non-loop code keeps UCR above the
        # threshold; formation fires every interval but cannot help.
        monitor = RegionMonitor(BINARY, small_thresholds())
        stream = steady_stream(ucr_weight=0.45)
        monitor.process_stream(stream)
        n = monitor.intervals_processed
        assert monitor.ucr.n_triggers == n
        assert monitor.ucr.median() > 0.30

    def test_interprocedural_mode_resolves_high_ucr(self):
        monitor = RegionMonitor(BINARY, small_thresholds(),
                                interprocedural=True)
        monitor.process_stream(steady_stream(ucr_weight=0.45))
        kinds = {r.kind for r in monitor.live_regions()}
        assert RegionKind.INTERPROCEDURAL in kinds
        assert monitor.ucr.history[-1] < 0.05


class TestLocalDetection:
    def test_stable_workload_stabilizes_all_regions(self):
        monitor = RegionMonitor(BINARY, small_thresholds())
        monitor.process_stream(steady_stream())
        fractions = monitor.stable_time_fractions()
        assert fractions, "expected monitored regions"
        for fraction in fractions.values():
            assert fraction > 0.5
        for count in monitor.phase_change_counts().values():
            assert count == 1  # single stabilization each

    def test_events_reported_per_region(self):
        monitor = RegionMonitor(BINARY, small_thresholds())
        monitor.process_stream(steady_stream())
        all_events = [event for report in monitor.reports
                      for _, event in report.events]
        assert all(e.kind is PhaseEventKind.BECAME_STABLE
                   for e in all_events)
        assert monitor.total_events() == len(all_events)

    def test_region_by_name(self):
        monitor = RegionMonitor(BINARY, small_thresholds())
        monitor.process_stream(steady_stream())
        name = f"{HOT1[0]:x}-{HOT1[1]:x}"
        region = monitor.region_by_name(name)
        assert (region.start, region.end) == HOT1
        with pytest.raises(RegionError):
            monitor.region_by_name("dead-beef")

    def test_detector_lookup_unknown_rid(self):
        monitor = RegionMonitor(BINARY, small_thresholds())
        with pytest.raises(RegionError):
            monitor.detector(99)

    def test_custom_lpd_thresholds_propagate(self):
        thresholds = MonitorThresholds(
            buffer_size=512, lpd=LpdThresholds(r_threshold=0.95))
        monitor = RegionMonitor(BINARY, thresholds)
        monitor.process_stream(steady_stream())
        for region in monitor.live_regions():
            assert monitor.detector(region.rid).effective_threshold \
                == pytest.approx(0.95)


class TestManualRegions:
    def test_add_region_and_observe(self):
        monitor = RegionMonitor(BINARY, small_thresholds())
        region = monitor.add_region(*HOT1)
        assert region.kind is RegionKind.MANUAL
        stream = steady_stream()
        monitor.process_stream(stream)
        assert monitor.detector(region.rid).active_intervals > 0


class TestPruning:
    def test_cold_region_pruned_and_retired(self):
        monitor = RegionMonitor(
            BINARY, small_thresholds(),
            pruning=PruningPolicy(max_idle_intervals=3, grace_intervals=2))
        ghost = monitor.add_region(0x90000 & ~0x3, 0x90040)
        monitor.process_stream(steady_stream())
        live_ids = {r.rid for r in monitor.live_regions()}
        assert ghost.rid not in live_ids
        # Retired regions remain inspectable.
        assert monitor.detector(ghost.rid).active_intervals == 0
        pruned = [rid for report in monitor.reports
                  for rid in report.pruned]
        assert ghost.rid in pruned

    def test_active_regions_survive_pruning(self):
        monitor = RegionMonitor(
            BINARY, small_thresholds(),
            pruning=PruningPolicy(max_idle_intervals=3, grace_intervals=2))
        monitor.process_stream(steady_stream())
        spans = {(r.start, r.end) for r in monitor.live_regions()}
        assert HOT1 in spans and HOT2 in spans


class TestAccounting:
    def test_report_sample_totals_conserved(self):
        monitor = RegionMonitor(BINARY, small_thresholds())
        stream = steady_stream()
        monitor.process_stream(stream)
        for report in monitor.reports[1:]:
            attributed = sum(report.region_samples.values())
            ucr = round(report.ucr_fraction * 512)
            # No overlapping regions here, so attribution partitions the
            # buffer exactly.
            assert attributed + ucr == 512

    def test_sample_matrix_shape(self):
        monitor = RegionMonitor(BINARY, small_thresholds())
        stream = steady_stream()
        monitor.process_stream(stream)
        regions, matrix = monitor.region_sample_matrix()
        assert matrix.shape == (monitor.intervals_processed, len(regions))
        assert matrix.sum() > 0

    def test_cost_ledger_charged(self):
        monitor = RegionMonitor(BINARY, small_thresholds())
        monitor.process_stream(steady_stream())
        assert monitor.ledger.attribution_ops > 0
        assert monitor.ledger.similarity_ops > 0
        assert monitor.ledger.lpd_state_ops > 0
        assert monitor.ledger.gpd_ops == 0  # the monitor is LPD-only

    def test_tree_attribution_charges_tree_costs(self):
        monitor = RegionMonitor(BINARY, small_thresholds(),
                                attribution="tree")
        monitor.process_stream(steady_stream())
        assert monitor.ledger.tree_maintenance_ops > 0

    def test_list_and_tree_monitors_agree_on_everything_but_cost(self):
        list_monitor = RegionMonitor(BINARY, small_thresholds())
        tree_monitor = RegionMonitor(BINARY, small_thresholds(),
                                     attribution="tree")
        stream = steady_stream()
        list_monitor.process_stream(stream)
        tree_monitor.process_stream(stream)
        assert list_monitor.phase_change_counts() \
            == tree_monitor.phase_change_counts()
        assert list_monitor.ucr.history == tree_monitor.ucr.history
