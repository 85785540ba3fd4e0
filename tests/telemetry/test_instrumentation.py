"""Instrumentation wiring: the pipeline emits the documented events.

Each test runs a small real pipeline with an ``InMemorySink`` on an
isolated :class:`EventBus` and asserts the event stream's shape.  No test
touches the process-wide bus, so they are safe under pytest-xdist-style
ordering.
"""

import numpy as np

from repro.batch.session import BatchSession
from repro.core import MonitorThresholds
from repro.core.gpd import GlobalPhaseDetector
from repro.core.lpd import LocalPhaseDetector
from repro.cpd import cpd_detector_factory
from repro.experiments.cache import (GpdKey, SimulationCache, StreamKey,
                                     cache_disabled)
from repro.monitor import (OnlineSession, RegionMonitor, RegionWatchdog,
                           WatchdogConfig)
from repro.optimizer import RtoConfig, RTOSystem
from repro.program.behavior import RegionSpec
from repro.program.binary import BinaryBuilder, loop, straight
from repro.program.spec2000 import INTERVAL_45K
from repro.program.workload import Steady, WorkloadScript, mixture
from repro.telemetry.bus import EventBus, capture, get_bus
from repro.telemetry.events import (EVENT_TYPES, NO_REGION, CacheHit,
                                    CacheMiss, Deoptimization,
                                    IntervalClosed, PhaseChange,
                                    RegionFormed, RegionQuarantined,
                                    SampleBatch, StableSetFrozen,
                                    StableSetUpdated, StateTransition)
from repro.telemetry.sinks import InMemorySink
from tests.telemetry.test_rto_telemetry import (build_system,
                                                globally_flapping_workload,
                                                locally_flapping_workload)


def tiny_binary():
    builder = BinaryBuilder(base=0x10000)
    builder.procedure("p", [loop("l", body=12), straight(4)], at=0x20000)
    return builder.build()


def hot_pcs(binary, size=8, seed=0):
    span = binary.loop_span("l")
    rng = np.random.default_rng(seed)
    return (span[0] + 4 * rng.integers(0, 12, size=size)).astype(np.int64)


def bus_with_sink():
    sink = InMemorySink()
    return EventBus(sinks=[sink]), sink


def run_every_instrumented_layer() -> LocalPhaseDetector:
    """One pass through every layer with an instrumentation site, each on
    its default bus: LPD, GPD, monitor, watchdog, a change-point detector,
    online and batch sessions with and without regions, the simulation
    cache and both RTO policies."""
    lpd = LocalPhaseDetector(n_instructions=16)
    counts = np.linspace(1.0, 16.0, 16)
    for i in range(6):
        lpd.observe(counts, i)
    gpd = GlobalPhaseDetector()
    for value in (100.0,) * 12 + (900.0,) * 3:
        gpd.observe_centroid(value)

    binary = tiny_binary()
    thresholds = MonitorThresholds(buffer_size=8)
    monitor = RegionMonitor(binary, thresholds)
    watchdog = RegionWatchdog(
        WatchdogConfig(starvation_intervals=2, retry_budget=1), monitor)
    empty = np.array([], dtype=np.int64)
    watchdog.observe_interval(monitor.process_interval(hot_pcs(binary), 0))
    for i in range(1, 3):
        watchdog.observe_interval(monitor.process_interval(empty, i))
    # The online session's regions run a change-point detector.
    OnlineSession(binary=binary, monitor_thresholds=thresholds,
                  detector_factory=cpd_detector_factory("cusum")).feed_many(
        hot_pcs(binary, size=16))
    unmonitored = np.random.default_rng(3).integers(0x10000, 0x20000, 16)
    OnlineSession(monitor_thresholds=thresholds).feed_many(unmonitored)
    for session_binary, pcs in ((binary, hot_pcs(binary, size=16)),
                                (None, unmonitored)):
        session = BatchSession(binary=session_binary,
                               monitor_thresholds=thresholds)
        for _ in range(2):
            session.add_lane().feed_many(pcs)
        # A lane with a live bus of its own makes the banks emit row by
        # row; the rows on the default bus must stay silent.
        session.add_lane(telemetry=EventBus(sinks=[InMemorySink()])
                         ).feed_many(pcs)
        session.process_ready()
    store = SimulationCache()
    for _ in range(2):
        store.stream(StreamKey("181.mcf", 1.0, 45000, 7), lambda: "artifact")

    # ORIG unpatches everything on a global flap; LPD unpatches on a local
    # flap, on a watchdog trip ('b' starves in the second phase) and on
    # harm ('a' runs slower once optimized).
    rto_binary, regions = build_system()
    harmful = dict(regions)
    harmful["a"] = RegionSpec("a", regions["a"].start, regions["a"].end,
                              profiles=dict(regions["a"].profiles),
                              dpi=0.10, opt_potential=-0.20)
    starving = WorkloadScript([
        Steady(30 * INTERVAL_45K,
               mixture(("a", 0.55), ("b", 0.35), ("cold_code", 0.10))),
        Steady(20 * INTERVAL_45K, mixture(("a", 0.55), ("cold_code", 0.45)))])
    for config, specs, workload in (
            (RtoConfig(policy="orig"), regions, globally_flapping_workload()),
            (RtoConfig(policy="lpd"), regions, locally_flapping_workload()),
            (RtoConfig(policy="lpd", self_monitoring=True,
                       watchdog=WatchdogConfig()), harmful, starving)):
        RTOSystem(rto_binary, specs, workload, 45_000, config, seed=3).run()
    return lpd


class TestLpdInstrumentation:
    def run_stable(self, n=8):
        bus, sink = bus_with_sink()
        detector = LocalPhaseDetector(n_instructions=16, telemetry=bus,
                                      region_id=7)
        counts = np.linspace(1.0, 16.0, 16)
        for i in range(n):
            detector.observe(counts, i)
        return detector, sink

    def test_every_active_interval_emits_a_transition(self):
        detector, sink = self.run_stable(8)
        transitions = sink.by_type(StateTransition)
        # The priming interval installs the stable set without a machine
        # step; every later interval is one step.
        assert len(transitions) == 7
        assert {e.detector for e in transitions} == {"lpd"}
        assert {e.rid for e in transitions} == {7}

    def test_stabilization_emits_phase_change_and_freeze(self):
        detector, sink = self.run_stable(8)
        assert detector.in_stable_phase
        changes = sink.by_type(PhaseChange)
        assert [e.kind for e in changes] == ["became_stable"]
        assert len(sink.by_type(StableSetFrozen)) == 1
        assert sink.by_type(StableSetUpdated)  # pre-freeze updates

    def test_starved_interval_emits_nothing(self):
        bus, sink = bus_with_sink()
        detector = LocalPhaseDetector(n_instructions=16, telemetry=bus)
        detector.observe(np.zeros(16), 0)
        assert sink.events == []

    def test_disabled_bus_emits_nothing(self, monkeypatch):
        # The hot-path contract (repro.telemetry.bus): no instrumentation
        # site calls emit on a disabled bus, so none builds an event.  The
        # same pass with a live default bus shows that it reaches every
        # event type and every deoptimization path.
        leaked = []  # events emitted on a disabled bus
        emit = EventBus.emit

        def checked_emit(bus, event):
            if not bus.enabled:
                leaked.append(event)
            emit(bus, event)

        monkeypatch.setattr(EventBus, "emit", checked_emit)
        assert not get_bus().enabled
        detector = run_every_instrumented_layer()
        assert detector.active_intervals == 6  # pipeline ran normally
        assert leaked == []
        with capture(InMemorySink()) as sink:
            run_every_instrumented_layer()
        assert {type(e) for e in sink.events} == set(EVENT_TYPES.values())
        assert {e.detector for e in sink.by_type(StateTransition)} == {
            "lpd", "gpd", "cusum"}
        assert {e.reason for e in sink.by_type(Deoptimization)} == {
            "starved", "global-phase-change", "local-phase-change",
            "watchdog", "self-monitor"}


class TestGpdInstrumentation:
    def test_transitions_carry_finite_metric(self):
        bus, sink = bus_with_sink()
        detector = GlobalPhaseDetector(telemetry=bus)
        for value in (100.0, 101.0, 100.5, 100.2, 100.4, 100.3, 100.1,
                      100.2, 100.3):
            detector.observe_centroid(value)
        transitions = sink.by_type(StateTransition)
        assert transitions
        assert {e.rid for e in transitions} == {NO_REGION}
        assert {e.detector for e in transitions} == {"gpd"}
        assert all(np.isfinite(e.metric) for e in transitions)

    def test_declaration_emits_phase_change(self):
        bus, sink = bus_with_sink()
        detector = GlobalPhaseDetector(telemetry=bus)
        for _ in range(30):
            detector.observe_centroid(100.0)
        assert detector.in_stable_phase
        changes = sink.by_type(PhaseChange)
        assert changes and changes[0].kind == "became_stable"


class TestMonitorInstrumentation:
    def test_formation_and_interval_closed(self):
        binary = tiny_binary()
        bus, sink = bus_with_sink()
        monitor = RegionMonitor(binary, MonitorThresholds(buffer_size=8),
                                telemetry=bus)
        monitor.process_interval(hot_pcs(binary), 0)
        formed = sink.by_type(RegionFormed)
        assert len(formed) == len(monitor.live_regions()) == 1
        assert formed[0].kind
        closed = sink.by_type(IntervalClosed)
        assert len(closed) == 1
        assert closed[0].n_samples == 8
        assert closed[0].n_regions == 1
        assert 0.0 <= closed[0].ucr_fraction <= 1.0

    def test_per_region_detectors_tagged_with_rid(self):
        binary = tiny_binary()
        bus, sink = bus_with_sink()
        monitor = RegionMonitor(binary, MonitorThresholds(buffer_size=8),
                                telemetry=bus)
        pcs = hot_pcs(binary)
        for i in range(6):
            monitor.process_interval(pcs, i)
        rid = monitor.region_record(monitor.live_regions()[0].rid).rid
        lpd_events = [e for e in sink.by_type(StateTransition)
                      if e.detector == "lpd"]
        assert lpd_events
        assert {e.rid for e in lpd_events} == {rid}


class TestWatchdogInstrumentation:
    def test_starvation_trip_emits_deopt_and_quarantine(self):
        binary = tiny_binary()
        bus, sink = bus_with_sink()
        monitor = RegionMonitor(binary, MonitorThresholds(buffer_size=8),
                                telemetry=bus)
        watchdog = RegionWatchdog(
            WatchdogConfig(starvation_intervals=2, backoff_intervals=100),
            monitor, telemetry=bus)
        empty = np.array([], dtype=np.int64)
        watchdog.observe_interval(monitor.process_interval(
            hot_pcs(binary), 0))
        for i in range(1, 3):
            watchdog.observe_interval(monitor.process_interval(empty, i))
        deopts = sink.by_type(Deoptimization)
        assert [e.action for e in deopts] == ["deoptimize"]
        assert deopts[0].reason == "starved"
        quarantined = sink.by_type(RegionQuarantined)
        assert len(quarantined) == 1
        assert quarantined[0].rid == deopts[0].rid


class TestOnlineSessionInstrumentation:
    def test_feed_many_emits_sample_batches(self):
        binary = tiny_binary()
        bus, sink = bus_with_sink()
        session = OnlineSession(binary=binary,
                                monitor_thresholds=MonitorThresholds(
                                    buffer_size=8),
                                run_gpd=False, telemetry=bus)
        session.feed_many(hot_pcs(binary, size=16))
        batches = sink.by_type(SampleBatch)
        assert len(batches) == 1
        assert batches[0].batch_size == 16
        assert batches[0].cumulative_samples == 16
        assert len(sink.by_type(IntervalClosed)) == 2

    def test_gpd_only_session_closes_intervals_with_na_ucr(self):
        bus, sink = bus_with_sink()
        session = OnlineSession(monitor_thresholds=MonitorThresholds(
            buffer_size=8), run_gpd=True, telemetry=bus)
        rng = np.random.default_rng(3)
        session.feed_many(rng.integers(0x10000, 0x20000, size=24))
        closed = sink.by_type(IntervalClosed)
        assert len(closed) == 3
        assert {e.ucr_fraction for e in closed} == {-1.0}
        assert {e.n_regions for e in closed} == {0}


class TestCacheInstrumentation:
    def test_hit_and_miss_events(self):
        store = SimulationCache()
        key = StreamKey("181.mcf", 1.0, 45000, 7)
        with capture(InMemorySink()) as sink:
            store.stream(key, lambda: "artifact")
            store.stream(key, lambda: "artifact")
        misses = sink.by_type(CacheMiss)
        hits = sink.by_type(CacheHit)
        assert len(misses) == len(hits) == 1
        assert misses[0].kind == hits[0].kind == "stream"
        assert "181.mcf" in hits[0].key

    def test_kinds_distinguish_stores(self):
        store = SimulationCache()
        with capture(InMemorySink()) as sink:
            store.detector(GpdKey("181.mcf", 1.0, 45000, 7, 2032),
                           lambda: "gpd-run")
        assert sink.by_type(CacheMiss)[0].kind == "gpd"

    def test_disabled_cache_emits_nothing(self):
        store = SimulationCache()
        store.enabled = False
        key = StreamKey("181.mcf", 1.0, 45000, 7)
        with capture(InMemorySink()) as sink:
            store.stream(key, lambda: "artifact")
        assert sink.events == []

    def test_cache_disabled_context_emits_nothing_globally(self):
        with capture(InMemorySink()) as sink, cache_disabled():
            from repro.experiments.cache import GLOBAL_CACHE

            GLOBAL_CACHE.stream(StreamKey("x", 1.0, 1, 1), lambda: None)
        assert sink.events == []


class TestDefaultBusSafety:
    def test_components_default_to_the_disabled_global_bus(self):
        assert not get_bus().enabled
        detector = LocalPhaseDetector(n_instructions=16)
        counts = np.linspace(1.0, 16.0, 16)
        for i in range(4):
            detector.observe(counts, i)
        # Nothing to assert beyond "no crash": the global bus is disabled
        # and no sink observed anything.
        assert detector.active_intervals == 4

    def test_region_id_defaults_to_no_region(self):
        bus, sink = bus_with_sink()
        detector = LocalPhaseDetector(n_instructions=16, telemetry=bus)
        counts = np.linspace(1.0, 16.0, 16)
        detector.observe(counts, 0)
        detector.observe(counts, 1)
        assert {e.rid for e in sink.by_type(StateTransition)} == {NO_REGION}
