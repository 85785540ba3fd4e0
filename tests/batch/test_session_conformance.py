"""Differential conformance: BatchSession lanes vs scalar OnlineSession.

Each lane of a BatchSession must be indistinguishable from a standalone
OnlineSession fed the same samples — reports, region/detector state,
cost ledger, watchdog verdicts, GPD trajectory and the complete per-lane
telemetry stream — regardless of how many other lanes advance beside
it, which attribution strategy they use, which fault plans degrade them,
or how raggedly the feed arrives.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import run_gpd
from repro.batch import BatchSession
from repro.core.thresholds import MonitorThresholds
from repro.errors import SamplingError
from repro.faults import FaultPlan, PcBitCorruption
from repro.faults.inject import inject
from repro.monitor.online import OnlineSession
from repro.monitor.watchdog import WatchdogConfig
from repro.telemetry.bus import EventBus
from repro.telemetry.sinks import InMemorySink
from tests.batch.test_gpd_conformance import assert_detectors_identical
from tests.conftest import drop_plan, model_stream

THRESHOLDS = MonitorThresholds(buffer_size=504)


def traced_bus():
    bus, sink = EventBus(), InMemorySink()
    bus.attach(sink)
    return bus, sink


def lane_streams(n_lanes, name="181.mcf", period=25_000):
    model, _ = model_stream(name, 0.05, period)
    from repro.sampling import simulate_sampling
    streams = [simulate_sampling(model.regions, model.workload, period,
                                 seed=11 + i) for i in range(n_lanes)]
    return model, streams


def assert_lane_matches_scalar(scalar, lane, scalar_sink, lane_sink):
    assert scalar.stats.intervals == lane.stats.intervals
    assert scalar.stats.samples == lane.stats.samples
    assert scalar.stats.global_events == lane.stats.global_events
    assert scalar.stats.local_events == lane.stats.local_events
    assert len(scalar.reports) == len(lane.reports)
    for a, b in zip(scalar.reports, lane.reports):
        assert a.interval_index == b.interval_index
        assert a.ucr_fraction == b.ucr_fraction
        assert a.events == b.events
        assert a.region_samples == b.region_samples
        assert a.pruned == b.pruned
    assert scalar.watchdog_events == lane.watchdog_events
    if scalar.monitor is not None:
        scalar_monitor, lane_monitor = scalar.monitor, lane.monitor
        rids = {region.rid for region in scalar_monitor.all_regions()}
        assert rids == {region.rid for region in lane_monitor.all_regions()}
        for rid in rids:
            a, b = scalar_monitor.detector(rid), lane_monitor.detector(rid)
            assert a.state == b.state
            assert a.active_intervals == b.active_intervals
            assert a.stable_intervals == b.stable_intervals
            assert a.events == b.events
            a_set, b_set = a.stable_set(), b.stable_set()
            assert (a_set is None) == (b_set is None)
            if a_set is not None:
                assert a_set.tobytes() == b_set.tobytes()
        assert scalar_monitor.phase_change_counts() \
            == lane_monitor.phase_change_counts()
        assert scalar_monitor.stable_time_fractions() \
            == lane_monitor.stable_time_fractions()
        assert scalar_monitor.ledger == lane_monitor.ledger
    if scalar.gpd is not None:
        assert scalar.gpd.state == lane.gpd.state
        assert scalar.gpd.events == lane.gpd.events
        assert scalar.gpd.stable_interval_count() \
            == lane.gpd.stable_interval_count()
    assert scalar_sink.events == lane_sink.events
    assert scalar.summary() == lane.summary()


def assert_fleet_matches_scalar_twins(model, streams, plans, **kwargs):
    """Run every stream both as a scalar session and as one lane of a
    single fleet (same fault plans, same session options) and compare
    each lane with its twin."""
    feeds = [inject(stream, plan, seed=7) if plan else stream
             for stream, plan in zip(streams, plans)]
    scalar_sessions, scalar_sinks = [], []
    for feed in feeds:
        bus, sink = traced_bus()
        session = OnlineSession(binary=model.binary,
                                monitor_thresholds=THRESHOLDS,
                                telemetry=bus, **kwargs)
        session.feed_stream(feed)
        scalar_sessions.append(session)
        scalar_sinks.append(sink)

    batch = BatchSession(binary=model.binary,
                         monitor_thresholds=THRESHOLDS, **kwargs)
    lane_sinks = []
    for feed in feeds:
        bus, sink = traced_bus()
        batch.add_lane(telemetry=bus).feed_stream(feed)
        lane_sinks.append(sink)
    batch.run()

    for scalar, lane, s_sink, l_sink in zip(
            scalar_sessions, batch.lanes, scalar_sinks, lane_sinks):
        assert_lane_matches_scalar(scalar, lane, s_sink, l_sink)


class TestMultiLaneFleet:
    def test_faulted_watchdogged_fleet_matches_scalar_twins(self):
        model, streams = lane_streams(4)
        plans = [None, drop_plan(0.2, 4.0), None, drop_plan(0.1, 2.0)]
        assert_fleet_matches_scalar_twins(model, streams, plans,
                                          watchdog=WatchdogConfig())

    @pytest.mark.parametrize("attribution", ["list", "tree"])
    def test_attribution_strategies_match_scalar_twins(self, attribution):
        # Corrupted PCs leave the text range or lose their alignment, so
        # the round kernel sees PCs outside every span next to clean lanes.
        model, streams = lane_streams(6)
        corrupt = FaultPlan((PcBitCorruption(rate=0.05, bit_width=20),))
        plans = [None, drop_plan(0.2, 4.0), corrupt, None,
                 drop_plan(0.1, 2.0), corrupt]
        assert_fleet_matches_scalar_twins(model, streams, plans,
                                          attribution=attribution)

    def test_region_heavy_lanes_of_unequal_length(self):
        # 176.gcc forms hundreds of regions; its two sampling periods give
        # one fleet a long lane and a short one.
        model, fast = model_stream("176.gcc", 0.05, 30_000)
        _, slow = model_stream("176.gcc", 0.05, 60_000)
        assert_fleet_matches_scalar_twins(model, [fast, slow], [None, None])

    def test_gpd_only_lanes(self):
        _, streams = lane_streams(1)
        scalar_bus, scalar_sink = traced_bus()
        scalar = OnlineSession(binary=None, run_gpd=True,
                               monitor_thresholds=THRESHOLDS,
                               telemetry=scalar_bus)
        scalar.feed_stream(streams[0])

        lane_bus, lane_sink = traced_bus()
        batch = BatchSession(binary=None, run_gpd=True,
                             monitor_thresholds=THRESHOLDS)
        lane = batch.add_lane(telemetry=lane_bus)
        lane.feed_stream(streams[0])
        batch.run()
        assert_lane_matches_scalar(scalar, lane, scalar_sink, lane_sink)

    def test_ragged_gpd_only_lanes_match_run_gpd(self):
        # three real streams of different lengths: the longest keeps
        # stepping after the others end, so the ready set shrinks
        names = ["181.mcf", "164.gzip", "178.galgel"]
        streams = [model_stream(name, 0.05, 45_000, seed=9 + i)[1]
                   for i, name in enumerate(names)]
        buffer_size = 1016
        batch = BatchSession(
            binary=None, run_gpd=True,
            monitor_thresholds=MonitorThresholds(buffer_size=buffer_size))
        for stream in streams:
            batch.add_lane().feed_stream(stream)
        batch.run()
        assert len({lane.stats.intervals for lane in batch.lanes}) == 3
        for stream, lane in zip(streams, batch.lanes):
            assert_detectors_identical(run_gpd(stream, buffer_size),
                                       lane.gpd)


class TestRaggedPaddedFeed:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=5, deadline=None)
    def test_random_rates_match_scalar(self, seed):
        model, streams = lane_streams(3)
        rng = np.random.default_rng(seed)

        scalar_sessions, scalar_sinks = [], []
        for _ in range(3):
            bus, sink = traced_bus()
            scalar_sessions.append(
                OnlineSession(binary=model.binary,
                              monitor_thresholds=THRESHOLDS, telemetry=bus))
            scalar_sinks.append(sink)

        batch = BatchSession(binary=model.binary,
                             monitor_thresholds=THRESHOLDS)
        lane_sinks = []
        for _ in range(3):
            bus, sink = traced_bus()
            batch.add_lane(telemetry=bus)
            lane_sinks.append(sink)

        chunk = 700
        offsets = [0, 0, 0]
        for _ in range(20):
            for i in range(3):
                take = chunk if i == 0 else int(rng.integers(0, chunk + 1))
                take = min(take, streams[i].pcs.size - offsets[i])
                if take:
                    pcs = streams[i].pcs[offsets[i]:offsets[i] + take]
                    scalar_sessions[i].feed_many(pcs)
                    batch.lanes[i].feed_many(pcs)
                offsets[i] += take
            batch.process_ready()

        for i in range(3):
            assert_lane_matches_scalar(scalar_sessions[i], batch.lanes[i],
                                       scalar_sinks[i], lane_sinks[i])


class TestValidation:
    def test_needs_monitor_or_gpd(self):
        with pytest.raises(ValueError, match="binary"):
            BatchSession(binary=None, run_gpd=False)

    def test_feed_many_error_messages_match_scalar(self):
        model, _ = lane_streams(0)
        scalar = OnlineSession(binary=model.binary)
        batch = BatchSession(binary=model.binary)
        lane = batch.add_lane()
        bad_batches = [np.zeros((2, 2), dtype=np.int64),
                       np.array([], dtype=np.int64),
                       np.array([1.5, 2.5])]
        for bad in bad_batches:
            with pytest.raises(SamplingError) as scalar_error:
                scalar.feed_many(bad)
            with pytest.raises(SamplingError) as lane_error:
                lane.feed_many(bad)
            assert str(scalar_error.value) == str(lane_error.value)
