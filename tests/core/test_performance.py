"""Unit tests for the multi-metric (centroid + CPI + DPI) GPD."""

import numpy as np
import pytest

from repro.core.performance import (PERFORMANCE_CHANNEL_THRESHOLDS,
                                    CompositeGlobalDetector)
from repro.core.states import PhaseEventKind
from repro.errors import ConfigError
from repro.program.behavior import RegionSpec, bottleneck_profile
from repro.program.workload import Steady, WorkloadScript, mixture
from repro.sampling import simulate_sampling
from tests.conftest import model_stream


def feed_steady(detector, n, centroid=100_000.0, cpi=1.2, dpi=8.0):
    for _ in range(n):
        detector.observe_interval(centroid=centroid, cpi=cpi, dpi=dpi)


class TestConstruction:
    def test_default_channels(self):
        detector = CompositeGlobalDetector()
        assert detector.channels == ("centroid", "cpi", "dpi")

    def test_channel_subset(self):
        detector = CompositeGlobalDetector(channels=("cpi",))
        assert detector.channels == ("cpi",)

    def test_unknown_channel_rejected(self):
        with pytest.raises(ConfigError, match="unknown channels"):
            CompositeGlobalDetector(channels=("centroid", "ipc"))
        with pytest.raises(ConfigError):
            CompositeGlobalDetector(channels=())

    def test_detector_lookup(self):
        detector = CompositeGlobalDetector()
        assert detector.detector("cpi").thresholds \
            == PERFORMANCE_CHANNEL_THRESHOLDS
        with pytest.raises(ConfigError):
            detector.detector("ipc")

    def test_missing_channel_value_rejected(self):
        detector = CompositeGlobalDetector()
        with pytest.raises(ConfigError, match="received no value"):
            detector.observe_interval(centroid=1.0, cpi=1.0)


class TestCompositeSemantics:
    def test_steady_metrics_stabilize_all_channels(self):
        detector = CompositeGlobalDetector()
        feed_steady(detector, 12)
        assert detector.in_stable_phase
        kinds = [e.kind for e in detector.events]
        assert kinds == [PhaseEventKind.BECAME_STABLE]

    def test_cpi_regression_alone_is_a_phase_change(self):
        # The paper: performance-characteristic changes matter even when
        # the working set (centroid) is unchanged.
        detector = CompositeGlobalDetector()
        feed_steady(detector, 12)
        for _ in range(3):
            detector.observe_interval(centroid=100_000.0, cpi=3.5, dpi=8.0)
        assert not detector.in_stable_phase
        assert detector.events[-1].kind is PhaseEventKind.BECAME_UNSTABLE
        assert "cpi" in detector.events[-1].detail

    def test_dpi_spike_alone_is_a_phase_change(self):
        detector = CompositeGlobalDetector()
        feed_steady(detector, 12)
        for _ in range(3):
            detector.observe_interval(centroid=100_000.0, cpi=1.2,
                                      dpi=60.0)
        assert not detector.in_stable_phase

    def test_centroid_jump_alone_is_a_phase_change(self):
        detector = CompositeGlobalDetector()
        feed_steady(detector, 12)
        detector.observe_interval(centroid=900_000.0, cpi=1.2, dpi=8.0)
        assert not detector.in_stable_phase

    def test_stability_requires_all_channels(self):
        # Keep the DPI channel oscillating hard (smoothing off so the
        # swings reach the detector raw): composite never stabilizes.
        detector = CompositeGlobalDetector(performance_smoothing=1.0)
        for index in range(20):
            detector.observe_interval(centroid=100_000.0, cpi=1.2,
                                      dpi=5.0 if index % 2 else 200.0)
        assert not detector.in_stable_phase
        assert detector.stable_time_fraction() == 0.0

    def test_smoothing_validation(self):
        with pytest.raises(ConfigError):
            CompositeGlobalDetector(performance_smoothing=0.0)
        with pytest.raises(ConfigError):
            CompositeGlobalDetector(performance_smoothing=1.5)

    def test_smoothing_damps_noise(self):
        rng = np.random.default_rng(0)
        noisy = 30.0 + rng.normal(0.0, 6.0, size=60)
        raw = CompositeGlobalDetector(channels=("dpi",),
                                      performance_smoothing=1.0)
        smoothed = CompositeGlobalDetector(channels=("dpi",),
                                           performance_smoothing=0.2)
        for value in noisy:
            raw.observe_interval(dpi=float(value))
            smoothed.observe_interval(dpi=float(value))
        assert smoothed.stable_time_fraction() \
            >= raw.stable_time_fraction()

    def test_recovery_restabilizes(self):
        detector = CompositeGlobalDetector()
        feed_steady(detector, 12)
        for _ in range(3):
            detector.observe_interval(centroid=100_000.0, cpi=3.5, dpi=8.0)
        feed_steady(detector, 15, cpi=3.5)
        assert detector.in_stable_phase
        assert detector.phase_change_count() == 3

    def test_channel_events_recorded(self):
        detector = CompositeGlobalDetector()
        feed_steady(detector, 12)
        channels = {ce.channel for ce in detector.channel_events}
        assert channels == {"centroid", "cpi", "dpi"}

    def test_interval_accounting(self):
        detector = CompositeGlobalDetector(channels=("centroid",))
        feed_steady(detector, 10)
        assert detector.intervals_seen == 10
        assert 0.0 < detector.stable_time_fraction() <= 1.0


class TestStreamIntegration:
    def stream(self, cpi_a=1.0, cpi_b=1.0, dpi_a=0.01, dpi_b=0.01):
        regions = {
            "a": RegionSpec("a", 0x20000, 0x20100,
                            profiles={"main": bottleneck_profile(
                                64, {9: 100.0})},
                            cpi=cpi_a, dpi=dpi_a),
            "b": RegionSpec("b", 0x21000, 0x21100,
                            profiles={"main": bottleneck_profile(
                                64, {30: 100.0})},
                            cpi=cpi_b, dpi=dpi_b),
        }
        workload = WorkloadScript([
            Steady(40_000_000, mixture(("a", 1.0))),
            Steady(40_000_000, mixture(("b", 1.0))),
        ])
        return simulate_sampling(regions, workload, 2500, seed=5)

    def test_interval_cpi_tracks_region_cpi(self):
        stream = self.stream(cpi_a=1.0, cpi_b=4.0)
        cpis = stream.interval_cpi(512)
        n = cpis.size
        assert cpis[: n // 3].mean() == pytest.approx(1.0, rel=0.05)
        assert cpis[-n // 3:].mean() == pytest.approx(4.0, rel=0.05)

    def test_interval_dpi_tracks_region_dpi(self):
        stream = self.stream(dpi_a=0.01, dpi_b=0.2)
        dpis = stream.interval_dpi(512)
        n = dpis.size
        assert dpis[: n // 3].mean() == pytest.approx(10.0, rel=0.2)
        assert dpis[-n // 3:].mean() == pytest.approx(200.0, rel=0.2)

    def test_empty_stream_metrics(self):
        stream = self.stream()
        assert stream.interval_cpi(10**9).size == 0
        assert stream.interval_dpi(10**9).size == 0

    def test_composite_detects_pure_performance_phase_change(self):
        # Same address ranges are close (centroid barely moves), but CPI
        # quadruples: only the performance channels can see it.
        stream = self.stream(cpi_a=1.0, cpi_b=4.0)
        centroid_only = CompositeGlobalDetector(
            channels=("centroid",)).process_stream(stream, 512)
        composite = CompositeGlobalDetector().process_stream(stream, 512)
        cpi_changes = [ce for ce in composite.channel_events
                       if ce.channel == "cpi"]
        assert len(cpi_changes) >= 2  # destabilize + restabilize
        assert composite.phase_change_count() \
            >= centroid_only.phase_change_count()

    def test_composite_sees_at_least_the_centroid_changes_on_mcf(self):
        # The paper's prototype GPD also watches CPI and DPI; mcf's
        # memory behavior shifts with its region mix.
        _, stream = model_stream("181.mcf", 0.2)
        composite = CompositeGlobalDetector().process_stream(stream, 2032)
        centroid_only = CompositeGlobalDetector(
            channels=("centroid",)).process_stream(stream, 2032)
        assert composite.intervals_seen == stream.n_intervals(2032)
        assert len(composite.channel_events) \
            >= len(centroid_only.channel_events)

    def test_fallback_instr_delta(self):
        import numpy as np

        from repro.sampling.events import SampleStream

        stream = SampleStream(
            pcs=np.full(100, 0x1000, dtype=np.int64),
            cycles=np.arange(100, dtype=np.int64) * 10,
            dcache_miss=np.zeros(100, dtype=bool),
            region_ids=np.zeros(100, dtype=np.int32),
            region_names=("a",), sampling_period=10, total_cycles=1000)
        # No instr_delta: CPI defaults to 1.0.
        assert stream.interval_cpi(10)[0] == pytest.approx(1.0)
