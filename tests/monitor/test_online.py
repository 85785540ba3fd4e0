"""Tests for the online phase-detection session."""

import pickle

import numpy as np
import pytest

from repro.batch import BatchSession
from repro.core import GlobalPhaseDetector, MonitorThresholds
from repro.monitor import RegionMonitor
from repro.monitor.online import OnlineSession
from repro.program.behavior import RegionSpec, bottleneck_profile
from repro.program.binary import BinaryBuilder, loop
from repro.program.workload import Steady, WorkloadScript, mixture
from repro.sampling import simulate_sampling

BUFFER = 256


def build_setup():
    builder = BinaryBuilder(base=0x10000)
    builder.procedure("p_a", [loop("a", body=12)], at=0x20000)
    builder.procedure("p_b", [loop("b", body=12)], at=0x80000)
    binary = builder.build()
    regions = {
        "a": RegionSpec("a", *binary.loop_span("a"),
                        profiles={"main": bottleneck_profile(16, {4: 90.0})}),
        "b": RegionSpec("b", *binary.loop_span("b"),
                        profiles={"main": bottleneck_profile(16, {9: 90.0})}),
    }
    workload = WorkloadScript([
        Steady(15_000_000, mixture(("a", 0.8), ("b", 0.2))),
        Steady(15_000_000, mixture(("a", 0.2), ("b", 0.8))),
    ])
    stream = simulate_sampling(regions, workload, 2000, seed=9)
    return binary, stream


def thresholds():
    return MonitorThresholds(buffer_size=BUFFER)


class TestEquivalenceWithBatch:
    def test_sample_at_a_time_matches_batch_monitor(self):
        binary, stream = build_setup()
        session = OnlineSession(binary, thresholds(), run_gpd=False)
        for pc in stream.pcs:
            session.feed(int(pc))

        batch = RegionMonitor(binary, thresholds())
        batch.process_stream(stream)
        assert session.monitor.phase_change_counts() \
            == batch.phase_change_counts()
        assert session.monitor.ucr.history == batch.ucr.history
        assert len(session.reports) == batch.intervals_processed

    def test_feed_many_matches_feed(self):
        binary, stream = build_setup()
        one_by_one = OnlineSession(binary, thresholds(), run_gpd=False)
        for pc in stream.pcs:
            one_by_one.feed(int(pc))
        batched = OnlineSession(binary, thresholds(), run_gpd=False)
        batched.feed_many(stream.pcs)
        assert one_by_one.summary() == batched.summary()

    def test_gpd_channel_matches_standalone(self):
        binary, stream = build_setup()
        session = OnlineSession(binary, thresholds())
        session.feed_stream(stream)

        standalone = GlobalPhaseDetector()
        for value in stream.centroids(BUFFER):
            standalone.observe_centroid(float(value))
        assert len(session.gpd.events) == len(standalone.events)
        assert session.gpd.state is standalone.state


class TestReportList:
    def test_reports_are_the_monitors_list(self):
        binary, stream = build_setup()
        half = stream.pcs.size // 2
        online = OnlineSession(binary, thresholds())
        batch = BatchSession(binary, thresholds())
        batch.add_lane()
        for step, pcs in enumerate((stream.pcs[:half], stream.pcs[half:])):
            if step:
                online, batch = pickle.loads(pickle.dumps((online, batch)))
            online.feed_many(pcs)
            batch.lanes[0].feed_many(pcs)
            batch.process_ready()
            for session in (online, batch.lanes[0]):
                assert session.reports is session.monitor.reports
                assert len(session.reports) == session.stats.intervals > 0


class TestCallbacks:
    def test_global_and_local_callbacks_fire(self):
        binary, stream = build_setup()
        session = OnlineSession(binary, thresholds())
        global_seen = []
        local_seen = []
        session.on_global_change(lambda e: global_seen.append(e))
        session.on_local_change(lambda rid, e: local_seen.append((rid, e)))
        session.feed_stream(stream)
        assert len(global_seen) == session.stats.global_events
        assert len(local_seen) == session.stats.local_events
        assert local_seen, "regions should have stabilized at least once"

    def test_callbacks_receive_events_in_order(self):
        binary, stream = build_setup()
        session = OnlineSession(binary, thresholds(), run_gpd=False)
        intervals = []
        session.on_local_change(
            lambda rid, e: intervals.append(e.interval_index))
        session.feed_stream(stream)
        assert intervals == sorted(intervals)


class TestConfiguration:
    def test_gpd_only_session(self):
        _binary, stream = build_setup()
        session = OnlineSession(None, thresholds(), run_gpd=True)
        session.feed_stream(stream)
        assert session.monitor is None
        assert session.stats.intervals > 0
        assert session.reports == []
        assert "monitored_regions" not in session.summary()

    def test_nothing_enabled_rejected(self):
        with pytest.raises(ValueError):
            OnlineSession(None, run_gpd=False)

    def test_pending_samples_tracked(self):
        binary, _stream = build_setup()
        session = OnlineSession(binary, thresholds(), run_gpd=False)
        session.feed_many(np.full(BUFFER + 10, 0x20010, dtype=np.int64))
        assert session.pending_samples == 10
        assert session.stats.intervals == 1

    def test_summary_fields(self):
        binary, stream = build_setup()
        session = OnlineSession(binary, thresholds())
        session.feed_stream(stream)
        summary = session.summary()
        assert summary["samples"] == stream.n_samples
        assert summary["intervals"] == stream.n_intervals(BUFFER)
        assert "gpd_stable" in summary
        assert summary["monitored_regions"] >= 2

    def test_monitor_kwargs_forwarded(self):
        binary, stream = build_setup()
        session = OnlineSession(binary, thresholds(), run_gpd=False,
                                attribution="tree")
        session.feed_stream(stream)
        assert session.monitor.ledger.tree_maintenance_ops > 0


class TestFeedValidation:
    def test_feed_many_rejects_2d(self):
        from repro.errors import SamplingError

        binary, _ = build_setup()
        session = OnlineSession(binary, thresholds(), run_gpd=False)
        with pytest.raises(SamplingError):
            session.feed_many(np.zeros((4, 4), dtype=np.int64))

    def test_feed_many_rejects_empty(self):
        from repro.errors import SamplingError

        binary, _ = build_setup()
        session = OnlineSession(binary, thresholds(), run_gpd=False)
        with pytest.raises(SamplingError):
            session.feed_many(np.array([], dtype=np.int64))

    def test_feed_many_rejects_float_pcs(self):
        from repro.errors import SamplingError

        binary, _ = build_setup()
        session = OnlineSession(binary, thresholds(), run_gpd=False)
        with pytest.raises(SamplingError):
            session.feed_many(np.array([1.5, 2.5]))

    def test_feed_many_accepts_any_int_dtype(self):
        binary, _ = build_setup()
        session = OnlineSession(binary, thresholds(), run_gpd=False)
        session.feed_many(np.full(4, 0x20010, dtype=np.int32))
        assert session.stats.samples == 4

    def test_feed_stream_rejects_non_stream(self):
        from repro.errors import SamplingError

        binary, _ = build_setup()
        session = OnlineSession(binary, thresholds(), run_gpd=False)
        with pytest.raises(SamplingError):
            session.feed_stream(np.full(4, 0x20010, dtype=np.int64))

    def test_feed_stream_rejects_empty_stream(self):
        from repro.errors import SamplingError
        from repro.sampling.events import SampleStream

        binary, stream = build_setup()
        empty = SampleStream(
            pcs=np.array([], dtype=np.int64),
            cycles=np.array([], dtype=np.int64),
            dcache_miss=np.array([], dtype=np.float64),
            region_ids=np.array([], dtype=np.int64),
            region_names=stream.region_names,
            sampling_period=stream.sampling_period, total_cycles=0)
        session = OnlineSession(binary, thresholds(), run_gpd=False)
        with pytest.raises(SamplingError):
            session.feed_stream(empty)
