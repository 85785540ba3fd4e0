"""Differential conformance on recorded data (the acceptance gate).

A committed fixture trace fed through the scalar ``OnlineSession`` and
through a ``BatchSession`` lane must produce bit-identical per-stream
results — reports, GPD trajectory, phase events and the complete
telemetry stream.  The synthetic conformance suite (``tests/batch/``)
proves the engines agree on simulated streams; this one proves the
agreement extends to real recordings, whose dwell-heavy zero-order-hold
buffers (long runs of one PC) are a sample distribution the simulator
never produces.
"""

from pathlib import Path

import pytest

from repro.batch import BatchSession
from repro.core.thresholds import MonitorThresholds
from repro.ingest import TraceSource, load_profile
from repro.monitor.online import OnlineSession
from repro.telemetry.bus import EventBus
from repro.telemetry.sinks import InMemorySink

REPO_ROOT = Path(__file__).resolve().parents[2]
CORPUS = REPO_ROOT / "tests" / "fixtures" / "traces" / "realtrace"

#: Small intervals so every fixture crosses many interval boundaries.
THRESHOLDS = MonitorThresholds(buffer_size=504)

FIXTURES = sorted(p.name for p in CORPUS.glob("*.json"))


def traced_bus():
    bus, sink = EventBus(), InMemorySink()
    bus.attach(sink)
    return bus, sink


@pytest.mark.parametrize("fixture", FIXTURES)
def test_recorded_stream_is_bit_identical_across_backends(fixture):
    profile = load_profile(CORPUS / fixture)
    stream = TraceSource(profile, sampling_period=45_000).stream()

    scalar_bus, scalar_sink = traced_bus()
    scalar = OnlineSession(binary=None, run_gpd=True,
                           monitor_thresholds=THRESHOLDS,
                           telemetry=scalar_bus)
    scalar.feed_stream(stream)

    lane_bus, lane_sink = traced_bus()
    batch = BatchSession(binary=None, run_gpd=True,
                         monitor_thresholds=THRESHOLDS)
    lane = batch.add_lane(telemetry=lane_bus)
    lane.feed_stream(stream)
    batch.run()

    assert scalar.stats.intervals == lane.stats.intervals > 0
    assert scalar.stats.samples == lane.stats.samples
    assert scalar.stats.global_events == lane.stats.global_events
    assert len(scalar.reports) == len(lane.reports)
    for a, b in zip(scalar.reports, lane.reports):
        assert a.interval_index == b.interval_index
        assert a.events == b.events
    assert scalar.gpd.state == lane.gpd.state
    assert scalar.gpd.events == lane.gpd.events
    assert scalar.gpd.stable_interval_count() \
        == lane.gpd.stable_interval_count()
    assert scalar_sink.events == lane_sink.events
    assert scalar.summary() == lane.summary()


def test_corpus_has_the_required_coverage():
    # The acceptance criterion pins >= 3 committed recordings; the
    # parametrized test above must actually have run on them.
    assert len(FIXTURES) >= 3
