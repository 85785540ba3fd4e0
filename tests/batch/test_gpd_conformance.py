"""Differential conformance: BatchGpdBank vs the scalar GPD oracle.

Random centroid tracks (tight clusters, wild jumps, NaN gaps) and random
buffer sizes (starvation path) advance through both paths; every
observable — states, bands, drift ratios, events, observations and the
full telemetry stream — must match exactly.  Real benchmark streams of
unequal length (the ragged population) run as GPD-only lanes in the
conformance oracle's ``gpd-only-ragged`` scenario (``tests/conformance/``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.gpd import BatchGpdBank
from repro.core.gpd import GlobalPhaseDetector
from repro.core.thresholds import GpdThresholds
from repro.errors import ConfigError
from repro.telemetry.bus import EventBus
from repro.telemetry.sinks import InMemorySink
from tests.conformance.compare import assert_gpd_identical

seeds = st.integers(min_value=0, max_value=10_000)


def random_centroid(rng):
    """NaN gap / wild jump / tight cluster, weighted toward clusters."""
    mode = rng.integers(0, 8)
    if mode == 0:
        return float("nan")
    if mode < 3:
        return float(rng.uniform(0.0, 1e6))
    return 5e5 + float(rng.normal(0.0, 300.0))


class TestBankConformance:
    @given(seeds,
           st.integers(min_value=1, max_value=16),
           st.integers(min_value=1, max_value=80))
    @settings(max_examples=15, deadline=None)
    def test_random_centroid_tracks_bit_identical(self, seed, n_detectors,
                                                  n_intervals):
        rng = np.random.default_rng(seed)
        bus_s, bus_b = EventBus(), EventBus()
        sink_s, sink_b = InMemorySink(), InMemorySink()
        bus_s.attach(sink_s)
        bus_b.attach(sink_b)
        thresholds = GpdThresholds()
        bank = BatchGpdBank(dwell_intervals=thresholds.dwell_intervals,
                            history_length=thresholds.history_length)
        scalars = [GlobalPhaseDetector(thresholds, telemetry=bus_s)
                   for _ in range(n_detectors)]
        views = [bank.add_detector(thresholds, telemetry=bus_b)
                 for _ in range(n_detectors)]
        for _ in range(n_intervals):
            values = [random_centroid(rng) for _ in range(n_detectors)]
            scalar_events = [scalars[i].observe_centroid(values[i])
                             for i in range(n_detectors)]
            batch_events = bank.observe_centroids(
                views, np.asarray(values, dtype=np.float64))
            assert scalar_events == batch_events
        for scalar, view in zip(scalars, views):
            assert_gpd_identical(scalar, view)
        assert sink_s.events == sink_b.events

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_buffer_path_with_starvation(self, seed):
        rng = np.random.default_rng(seed)
        thresholds = GpdThresholds()
        bank = BatchGpdBank(dwell_intervals=thresholds.dwell_intervals,
                            history_length=thresholds.history_length)
        scalars = [GlobalPhaseDetector(thresholds) for _ in range(4)]
        views = [bank.add_detector(thresholds) for _ in range(4)]
        for _ in range(40):
            buffers = [rng.integers(0, 1 << 20,
                                    size=int(rng.integers(0, 600)))
                       for _ in range(4)]
            scalar_events = [scalars[i].observe_buffer(buffers[i])
                             for i in range(4)]
            batch_events = bank.observe_buffers(
                list(zip(views, buffers)))
            assert scalar_events == batch_events
        for scalar, view in zip(scalars, views):
            assert_gpd_identical(scalar, view)

    def test_single_detector_delegates(self):
        rng = np.random.default_rng(5)
        thresholds = GpdThresholds()
        bank = BatchGpdBank()
        scalar = GlobalPhaseDetector(thresholds)
        view = bank.add_detector(thresholds)
        for _ in range(60):
            value = random_centroid(rng)
            assert scalar.observe_centroid(value) \
                == view.observe_centroid(value)
        assert_gpd_identical(scalar, view)

    def test_mismatched_machine_config_rejected(self):
        bank = BatchGpdBank(dwell_intervals=2, history_length=8)
        with pytest.raises(ConfigError, match="dwell"):
            bank.add_detector(GpdThresholds(dwell_intervals=5))
