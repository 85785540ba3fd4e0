"""Broader shape checks across the synthetic suite.

Complements ``test_paper_claims.py`` (which pins the figures' headline
benchmarks) with the secondary shapes: the remaining flappers, the
cost/region-count ordering, and cross-detector consistency.
"""

import pytest

from repro.analysis.metrics import run_gpd
from repro.core import MonitorThresholds
from repro.monitor import RegionMonitor
from repro.program.spec2000 import get_benchmark
from repro.regions.pruning import PruningPolicy
from repro.regions.region import RegionKind
from tests.conftest import model_stream

SEED = 7


def gpd_changes(name, period, scale=0.3):
    _, stream = model_stream(name, scale, period, seed=SEED)
    return len(run_gpd(stream, 2032).events)


def monitor_at(name, scale=0.2, period=45_000, **kwargs):
    model, stream = model_stream(name, scale, period, seed=SEED)
    monitor = RegionMonitor(model.binary, MonitorThresholds(), **kwargs)
    monitor.process_stream(stream)
    return model, monitor


class TestSecondaryFlappers:
    @pytest.mark.parametrize("name", ["168.wupwise", "256.bzip2",
                                      "164.gzip"])
    def test_flap_at_45k_quiet_at_900k(self, name):
        fine = gpd_changes(name, 45_000)
        coarse = gpd_changes(name, 900_000)
        assert fine >= 5
        assert coarse <= max(3, fine // 4)

    @pytest.mark.parametrize("name", ["177.mesa", "300.twolf",
                                      "183.equake", "301.apsi"])
    def test_quiet_benchmarks_stay_quiet(self, name):
        assert gpd_changes(name, 45_000) <= 6


class TestRegionCountOrdering:
    def test_many_region_programs_form_many_regions(self):
        counts = {}
        for name in ("176.gcc", "197.parser", "181.mcf"):
            _model, monitor = monitor_at(name, scale=0.05)
            counts[name] = len(monitor.all_regions())
        assert counts["176.gcc"] > counts["197.parser"] \
            > counts["181.mcf"]

    def test_cost_tracks_region_population(self):
        costs = {}
        for name in ("176.gcc", "181.mcf"):
            _model, monitor = monitor_at(name, scale=0.05)
            costs[name] = monitor.ledger.monitor_ops \
                / max(monitor.intervals_processed, 1)
        assert costs["176.gcc"] > 10 * costs["181.mcf"]

    def test_pruning_cuts_cost_on_a_many_region_program(self):
        # Section 3.2.3: evicting cold regions lowers attribution cost.
        _model, full = monitor_at("255.vortex")
        _model, pruned = monitor_at("255.vortex", pruning=PruningPolicy(
            max_idle_intervals=8, min_recent_share=0.002,
            grace_intervals=8))
        assert len(pruned.live_regions()) < len(pruned.all_regions())
        assert pruned.ledger.monitor_ops < full.ledger.monitor_ops
        assert pruned.phase_change_counts()  # hot regions still watched


class TestCrossDetectorConsistency:
    def test_seed_invariance_of_shapes(self):
        """The qualitative shape must not depend on the PMU seed."""
        for seed in (1, 2, 3):
            _, stream = model_stream("178.galgel", 0.3, 45_000, seed=seed)
            detector = run_gpd(stream, 2032)
            assert len(detector.events) >= 10, f"seed {seed}"

    def test_gpd_flapper_is_lpd_stable(self):
        """The core thesis on a second flapper (galgel): global churn,
        local calm."""
        _model, monitor = monitor_at("178.galgel", scale=0.3)
        _, stream = model_stream("178.galgel", 0.3, 45_000, seed=SEED)
        gpd = run_gpd(stream, 2032)
        assert len(gpd.events) >= 10
        for fraction in monitor.stable_time_fractions().values():
            assert fraction > 0.9

    def test_trace_formation_never_hurts_coverage(self):
        for name in ("186.crafty", "254.gap"):
            _m, plain = monitor_at(name, scale=0.05)
            _m, traced = monitor_at(name, scale=0.05,
                                    trace_formation=True)
            assert traced.ucr.median() <= plain.ucr.median() + 1e-9
            if name == "186.crafty":
                # Hot-path traces cover crafty's branchy non-loop code.
                assert RegionKind.TRACE in {
                    r.kind for r in traced.all_regions()}
                assert traced.ucr.median() < 0.10
                assert plain.ucr.median() > 0.30


class TestWorkloadDurations:
    @pytest.mark.parametrize("name", ["181.mcf", "254.gap", "172.mgrid",
                                      "191.fma3d"])
    def test_fig17_models_long_enough_for_coarse_periods(self, name):
        # At the 1.5M period the Figure 17 experiment needs a usable
        # number of intervals even after buffer truncation.
        model = get_benchmark(name, 1.0)
        intervals = model.workload.total_cycles // (2032 * 1_500_000)
        assert intervals >= 25
