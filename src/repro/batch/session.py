"""Multi-tenant online sessions advanced in lockstep.

A :class:`BatchSession` is the batch engine's one driver.  It hosts N
lanes, each the equivalent of one
:class:`~repro.monitor.online.OnlineSession` — its own telemetry bus,
region monitor, watchdog, sample queue and callbacks — but all
local detectors live in one shared :class:`~repro.batch.lpd.BatchLpdBank`
and all global detectors in one :class:`~repro.batch.gpd.BatchGpdBank`,
so every interval round steps the whole fleet with a handful of
vectorized calls instead of N Python pipelines.

Equivalence contract: per lane, results and telemetry are bit-identical
to feeding the same samples to a scalar ``OnlineSession`` — same states,
same phase-change indices, same stable-set freezes, same watchdog
deoptimizations.  The conformance oracle in ``tests/conformance/`` holds
the ``batch`` engine (and the serve ``worker`` and ``fleet`` built on
it) to the ``scalar`` one over its scenario space: every spec2000
model, random and recorded programs, fault plans, ragged and late feeds,
detector churn, history discards and pickling mid-run.  Lanes are
mutually invisible: each lane's bus sees exactly the event sequence its
scalar twin would emit, and lanes may start, starve and end at
different intervals (ragged fleets).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.batch.gpd import BatchGlobalPhaseDetector, BatchGpdBank, GpdRowGroup
from repro.batch.lpd import BatchLpdBank
from repro.batch.regroup import FleetRegrouper
from repro.batch.rings import ShardRing
from repro.core.states import PhaseEvent
from repro.core.thresholds import GpdThresholds, MonitorThresholds
from repro.monitor.online import SessionSurface
from repro.monitor.region_monitor import RegionMonitor
from repro.monitor.watchdog import RegionWatchdog, WatchdogConfig
from repro.program.binary import SyntheticBinary
from repro.regions.attribution import attribute_round
from repro.telemetry.bus import EventBus, get_bus
from repro.telemetry.events import IntervalClosed

__all__ = ["BatchLane", "BatchSession"]


class BatchLane(SessionSurface):
    """One stream's pipeline inside a :class:`BatchSession`.

    Create via :meth:`BatchSession.add_lane`.  Feeding only queues
    samples; intervals complete when the owning session next runs
    :meth:`BatchSession.process_ready` (or :meth:`BatchSession.run`).
    Counters, callbacks, validation and :meth:`summary` are the scalar
    session's own (:class:`~repro.monitor.online.SessionSurface`).
    """

    def __init__(self, session: "BatchSession", index: int, name: str,
                 telemetry: EventBus,
                 gpd: BatchGlobalPhaseDetector | None,
                 monitor: RegionMonitor | None,
                 watchdog: RegionWatchdog | None) -> None:
        super().__init__(telemetry)
        self.session = session
        self.index = index
        self.name = name
        self.gpd = gpd
        self.monitor = monitor
        self.watchdog = watchdog
        self._interval_index = -1

    @property
    def pending_samples(self) -> int:
        """Samples queued since the last completed interval."""
        return self.session._ring.fill(self.index)

    def _push(self, pcs: np.ndarray) -> int:
        """Queue a validated batch; returns full intervals now pending.

        Samples land in the session's preallocated
        :class:`~repro.batch.rings.ShardRing`, so interval completion
        later hands the banks direct views.
        """
        return self.session._ring.push(self.index, pcs)


class BatchSession:
    """N online phase-detection pipelines sharing vectorized banks.

    Parameters mirror :class:`~repro.monitor.online.OnlineSession`; they
    are the *defaults* each :meth:`add_lane` inherits.  All lanes share
    one buffer size (interval lockstep needs a common interval length)
    and, when the GPD channel is on, one set of GPD thresholds (the
    compiled machine is shared).
    """

    def __init__(self, binary: SyntheticBinary | None = None,
                 monitor_thresholds: MonitorThresholds | None = None,
                 gpd_thresholds: GpdThresholds | None = None,
                 run_gpd: bool = True,
                 watchdog: WatchdogConfig | None = None,
                 telemetry: EventBus | None = None,
                 **monitor_kwargs: Any) -> None:
        self.monitor_thresholds = monitor_thresholds or MonitorThresholds()
        self.buffer_size = self.monitor_thresholds.buffer_size
        self.gpd_thresholds = (gpd_thresholds or GpdThresholds()
                               if run_gpd else None)
        self.run_gpd = run_gpd
        if binary is None and not run_gpd:
            raise ValueError(
                "an online session needs a binary (for region "
                "monitoring), run_gpd=True, or both")
        self._binary = binary
        self._watchdog_config = watchdog
        self._default_bus = telemetry if telemetry is not None else get_bus()
        self._monitor_kwargs = monitor_kwargs
        self.lpd_bank = BatchLpdBank()
        self.gpd_bank: BatchGpdBank | None = None
        if run_gpd:
            self.gpd_bank = BatchGpdBank(
                dwell_intervals=self.gpd_thresholds.dwell_intervals,
                history_length=self.gpd_thresholds.history_length)
        self.lanes: list[BatchLane] = []
        self._ring = ShardRing(0, self.buffer_size)
        self._regrouper = FleetRegrouper(self.lpd_bank)
        self._gpd_group: GpdRowGroup | None = None
        self._gpd_group_key: bytes | None = None

    # -- lane management -----------------------------------------------------

    def add_lane(self, telemetry: EventBus | None = None,
                 name: str | None = None) -> BatchLane:
        """Add one empty pipeline; feed it through the returned lane.

        *telemetry* defaults to the session bus; give each lane its own
        bus when per-lane traces matter.
        """
        index = len(self.lanes)
        bus = telemetry if telemetry is not None else self._default_bus
        name = name or f"lane{index}"
        gpd = None
        if self.gpd_bank is not None:
            gpd = self.gpd_bank.add_detector(self.gpd_thresholds,
                                             telemetry=bus)
        monitor = None
        watchdog = None
        if self._binary is not None:
            monitor = RegionMonitor(
                self._binary, self.monitor_thresholds, telemetry=bus,
                detector_factory=self.lpd_bank.add_detector,
                **self._monitor_kwargs)
            if self._watchdog_config is not None:
                watchdog = RegionWatchdog(self._watchdog_config, monitor,
                                          telemetry=bus)
        lane = BatchLane(self, index, name, bus, gpd, monitor, watchdog)
        self.lanes.append(lane)
        self._ring.add_lane()
        return lane

    # -- the lockstep overflow path -------------------------------------------

    def run(self) -> list[int]:
        """Process everything queued; returns per-lane interval counts."""
        before = [lane.stats.intervals for lane in self.lanes]
        self.process_ready()
        return [lane.stats.intervals - count
                for lane, count in zip(self.lanes, before)]

    def _gpd_group_for(self, ready_indices: np.ndarray) -> GpdRowGroup:
        """The pinned GPD row group for this round's ready lanes, cached.

        Every lane has one GPD row allocated in lane order, so the group
        over a contiguous ready set coalesces to a slice; the group is
        rebuilt only when the ready set changes (ragged fleets).
        """
        key = ready_indices.tobytes()
        if self._gpd_group_key != key:
            self._gpd_group = self.gpd_bank.make_group(
                [self.lanes[int(i)].gpd for i in ready_indices])
            self._gpd_group_key = key
        return self._gpd_group

    def process_ready(self) -> int:
        """Drain queued samples, one interval round at a time.

        Each round pops one full buffer per ready lane straight out of
        the shard ring — for a lockstep fleet that is a single 2-D view,
        no copies — and replays the scalar overflow path with the
        per-detector work batched: all GPD rows step in one block call,
        every monitored lane attributes in one
        :func:`~repro.regions.attribution.attribute_round` call, each
        monitor accounts and forms regions, then every region of every
        lane steps through the regrouper's cached plan.  Returns the
        total number of intervals processed.
        """
        ring = self._ring
        rounds = 0
        while True:
            ready_indices = ring.ready_lanes()
            if ready_indices.size == 0:
                return rounds
            ready = [self.lanes[int(i)] for i in ready_indices]
            rounds += len(ready)
            block = ring.take_round(ready_indices)
            for lane in ready:
                lane.stats.intervals += 1
                lane._interval_index += 1

            if self.gpd_bank is not None:
                events = self.gpd_bank.observe_block(
                    self._gpd_group_for(ready_indices), block)
                for lane, event in zip(ready, events):
                    if event is not None:
                        lane.stats.global_events += 1
                        for callback in lane._global_callbacks:
                            callback(event)

            # Every lane has a monitor when the session has a binary, and
            # none otherwise, so the monitored rows are all rows or none.
            monitors = [lane.monitor for lane in ready
                        if lane.monitor is not None]
            attributed = iter(attribute_round(
                [monitor.attributor for monitor in monitors],
                block[:len(monitors)]))
            pendings = []
            participants = []
            for lane, buffer in zip(ready, block):
                if lane.monitor is None:
                    # GPD-only lane: no monitor closes the interval;
                    # -1.0 marks the UCR fraction as not applicable.
                    if lane.telemetry.enabled:
                        lane.telemetry.emit(IntervalClosed(
                            interval_index=lane._interval_index,
                            n_samples=int(buffer.size),
                            ucr_fraction=-1.0, n_regions=0))
                    pendings.append(None)
                    continue
                pending = lane.monitor.begin_interval(
                    buffer, lane._interval_index,
                    attributed=next(attributed))
                pendings.append(pending)
                participants.append((lane.monitor, pending))
            outcomes = self._regrouper.observe_round(participants)
            cursor = 0
            for lane, pending in zip(ready, pendings):
                if pending is None:
                    continue
                events: list[tuple[int, PhaseEvent]] = []
                for rid, _ in pending.to_observe:
                    event = outcomes[cursor]
                    cursor += 1
                    if event is not None:
                        events.append((rid, event))
                report = lane.monitor.finish_interval(pending, events)
                for rid, event in report.events:
                    lane.stats.local_events += 1
                    for callback in lane._local_callbacks:
                        callback(rid, event)
                if lane.watchdog is not None:
                    lane.watchdog_events.extend(
                        lane.watchdog.observe_interval(report))

    def discard_observation_history(self) -> None:
        """Drop the banks' pending step records (lazy observation logs).

        The logs exist only to materialize per-detector observation
        histories on demand and grow with every interval processed —
        dead weight for callers that consume events through incremental
        extraction.  The serving layer calls this before every shard
        snapshot.  It bounds only these logs: each lane's interval
        reports and each detector's ``PhaseEvent`` list still grow with
        every interval, so snapshots still grow with worker uptime (a
        32-lane shard's went from 372 kB at 64 ticks to 2,161 kB at 640;
        ROADMAP.md item 1 is to trim them).  Already-materialized
        observations are kept; a later ``materialize_observations``
        covers only subsequent steps.
        """
        self.lpd_bank.discard_observation_history()
        if self.gpd_bank is not None:
            self.gpd_bank.discard_observation_history()

    # -- inspection ------------------------------------------------------------

    def summary(self) -> dict:
        """Fleet-level counters plus per-lane summaries."""
        return {
            "lanes": len(self.lanes),
            "intervals": sum(lane.stats.intervals for lane in self.lanes),
            "samples": sum(lane.stats.samples for lane in self.lanes),
            "global_events": sum(lane.stats.global_events
                                 for lane in self.lanes),
            "local_events": sum(lane.stats.local_events
                                for lane in self.lanes),
            "per_lane": {lane.name: lane.summary() for lane in self.lanes},
        }
