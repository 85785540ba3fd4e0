"""Differential conformance: BatchLpdBank vs the scalar LPD oracle.

Random detector populations (mixed histogram widths, missing intervals,
starved intervals, flat histograms, resets) advance through both paths
in lockstep; every observable — states, r-values, events, observations,
stable-set bytes and the full telemetry stream — must match exactly.
This suite is the gate that lets the batch backend share cache entries
with the scalar path (`repro.experiments.base._BACKEND_CLASS`).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.lpd import BatchLpdBank
from repro.core.histogram import RegionHistogram
from repro.core.lpd import LocalPhaseDetector
from repro.core.thresholds import LpdThresholds
from repro.telemetry.bus import EventBus
from repro.telemetry.sinks import InMemorySink

WIDTHS = (1, 2, 3, 5, 17, 40)

seeds = st.integers(min_value=0, max_value=10_000)


def random_histogram(rng, width):
    """One interval's input: None / zero / starved / flat / busy."""
    mode = rng.integers(0, 6)
    if mode == 0:
        return None
    if mode == 1:
        return np.zeros(width)  # all-zero: held like None
    if mode == 2:
        # tiny counts: may fall below min_interval_samples (starved)
        return rng.integers(0, 3, size=width).astype(np.int64)
    base = rng.integers(0, 50, size=width).astype(np.int64)
    if mode == 3:
        return RegionHistogram.from_counts(0, base)
    if mode == 4:
        return np.full(width, 7, dtype=np.int64)  # flat (degenerate r)
    return base + rng.integers(0, 5, size=width)


def paired_population(n_detectors, thresholds=None):
    """(scalar detectors, bank views, scalar sink, batch sink)."""
    bus_s, bus_b = EventBus(), EventBus()
    sink_s, sink_b = InMemorySink(), InMemorySink()
    bus_s.attach(sink_s)
    bus_b.attach(sink_b)
    bank = BatchLpdBank()
    scalars, views = [], []
    for i in range(n_detectors):
        width = WIDTHS[i % len(WIDTHS)]
        th = thresholds or LpdThresholds()
        scalars.append(LocalPhaseDetector(n_instructions=width,
                                          thresholds=th, telemetry=bus_s,
                                          region_id=i))
        views.append(bank.add_detector(n_instructions=width, thresholds=th,
                                       telemetry=bus_b, region_id=i))
    return bank, scalars, views, sink_s, sink_b


def assert_rows_identical(scalar, view):
    assert scalar.state == view.state
    assert scalar.in_stable_phase == view.in_stable_phase
    assert scalar.active_intervals == view.active_intervals
    assert scalar.stable_intervals == view.stable_intervals
    assert scalar.effective_threshold == view.effective_threshold
    if scalar.last_r == scalar.last_r:  # not NaN
        assert scalar.last_r == view.last_r
    else:
        assert view.last_r != view.last_r
    scalar_set, view_set = scalar.stable_set(), view.stable_set()
    if scalar_set is None:
        assert view_set is None
    else:
        assert view_set is not None
        assert scalar_set.tobytes() == view_set.tobytes()
    assert scalar.events == view.events
    assert len(scalar.observations) == len(view.observations)
    for a, b in zip(scalar.observations, view.observations):
        assert a.interval_index == b.interval_index
        assert a.had_samples == b.had_samples
        assert a.state == b.state
        assert a.event == b.event
        assert a.r_value == b.r_value \
            or (a.r_value != a.r_value and b.r_value != b.r_value)


class TestBankConformance:
    @given(seeds,
           st.integers(min_value=1, max_value=24),
           st.integers(min_value=1, max_value=40))
    @settings(max_examples=15, deadline=None)
    def test_random_populations_bit_identical(self, seed, n_detectors,
                                              n_intervals):
        rng = np.random.default_rng(seed)
        bank, scalars, views, sink_s, sink_b = \
            paired_population(n_detectors)
        for interval in range(n_intervals):
            histograms = [random_histogram(rng, s.n_instructions)
                          for s in scalars]
            scalar_events = [scalars[i].observe(histograms[i], interval)
                             for i in range(n_detectors)]
            batch_events = bank.observe_many(
                [(views[i], histograms[i], interval)
                 for i in range(n_detectors)])
            assert scalar_events == batch_events
        for scalar, view in zip(scalars, views):
            assert_rows_identical(scalar, view)
        assert sink_s.events == sink_b.events

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_reset_path(self, seed):
        rng = np.random.default_rng(seed)
        bank, scalars, views, sink_s, sink_b = paired_population(3)
        for interval in range(50):
            if interval == 25:
                scalars[0].reset()
                views[0].reset()
            histograms = [rng.integers(0, 40, size=s.n_instructions)
                          for s in scalars]
            scalar_events = [scalars[i].observe(histograms[i], interval)
                             for i in range(3)]
            batch_events = bank.observe_many(
                [(views[i], histograms[i], interval) for i in range(3)])
            assert scalar_events == batch_events
        for scalar, view in zip(scalars, views):
            assert_rows_identical(scalar, view)
        assert sink_s.events == sink_b.events

    def test_single_item_observe_delegates(self):
        rng = np.random.default_rng(3)
        bank, scalars, views, _, _ = paired_population(1)
        for interval in range(30):
            histogram = rng.integers(0, 30, size=1)
            assert scalars[0].observe(histogram, interval) \
                == views[0].observe(histogram, interval)
        assert_rows_identical(scalars[0], views[0])

    def test_grouped_path_bit_identical_to_scalar(self):
        # The dense fleet fast path must honor every hold the scalar
        # has: zero rows, starved rows, priming, stepping.
        rng = np.random.default_rng(5)
        width = 17
        bus_s, bus_b = EventBus(), EventBus()
        sink_s, sink_b = InMemorySink(), InMemorySink()
        bus_s.attach(sink_s)
        bus_b.attach(sink_b)
        bank = BatchLpdBank()
        scalars = [LocalPhaseDetector(n_instructions=width,
                                      telemetry=bus_s, region_id=i)
                   for i in range(12)]
        views = [bank.add_detector(n_instructions=width, telemetry=bus_b,
                                   region_id=i) for i in range(12)]
        group = bank.make_group(views)
        for interval in range(40):
            block = rng.integers(0, 40, size=(12, width)).astype(float)
            block[interval % 12] = 0.0           # zero-sum hold
            block[(interval + 1) % 12] = 0.1     # starved hold
            scalar_events = [scalars[i].observe(block[i], interval)
                             for i in range(12)]
            batch_events = bank.observe_grouped(group, block, interval)
            assert scalar_events == batch_events
        for scalar, view in zip(scalars, views):
            assert_rows_identical(scalar, view)
        assert sink_s.events == sink_b.events

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_grouped_path_matches_observe_many(self, seed):
        rng = np.random.default_rng(seed)
        width = 9
        bank_a, bank_b = BatchLpdBank(), BatchLpdBank()
        views_a = [bank_a.add_detector(width) for _ in range(6)]
        views_b = [bank_b.add_detector(width) for _ in range(6)]
        group = bank_b.make_group(views_b)
        for interval in range(25):
            block = rng.integers(0, 30, size=(6, width)).astype(float)
            events_a = bank_a.observe_many(
                [(views_a[i], block[i], interval) for i in range(6)])
            events_b = bank_b.observe_grouped(group, block, interval)
            assert events_a == events_b
        for a, b in zip(views_a, views_b):
            assert a.state == b.state
            assert a.last_r == b.last_r
            assert a.stable_intervals == b.stable_intervals
            assert a.stable_set().tobytes() == b.stable_set().tobytes()

    def test_observe_grouped_validation(self):
        import pytest

        bank = BatchLpdBank()
        group = bank.make_group([bank.add_detector(4) for _ in range(2)])
        with pytest.raises(ValueError, match="does not match"):
            bank.observe_grouped(group, np.ones((2, 5)), 0)
        with pytest.raises(ValueError, match="does not match"):
            bank.observe_grouped(group, np.ones((3, 4)), 0)
        empty = bank.make_group([])
        assert bank.observe_grouped(empty, np.empty((0, 0)), 0) == []

    def test_custom_measure_routes_through_scalar_path(self):
        from repro.core.similarity import CosineSimilarity

        rng = np.random.default_rng(11)
        bank = BatchLpdBank()
        scalar = LocalPhaseDetector(n_instructions=8,
                                    measure=CosineSimilarity())
        view = bank.add_detector(n_instructions=8,
                                 measure=CosineSimilarity())
        for interval in range(40):
            histogram = rng.integers(0, 30, size=8)
            assert scalar.observe(histogram, interval) \
                == bank.observe_many([(view, histogram, interval)])[0]
        assert_rows_identical(scalar, view)
