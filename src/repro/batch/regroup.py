"""Adaptive row regrouping: keep churned fleets on the slice fast path.

A :class:`FleetRegrouper` sits between the per-round monitor bookkeeping
(:meth:`~repro.monitor.region_monitor.RegionMonitor.begin_interval`,
which defers its detector observations) and the shared
:class:`~repro.batch.lpd.BatchLpdBank`.  Instead of rebuilding per-item
groups every interval (``observe_many``'s job), it compiles the fleet's
deferred observations into a cached *plan* — one pinned
:class:`~repro.batch.lpd.LpdRowGroup` per histogram width, built with
slot compaction — and replays that plan each round with nothing but a
scratch fill and one compiled step per width.

The plan survives detector resets untouched (resets change row *state*,
not row *membership*).  It is rebuilt only when membership actually
changes: a different set of monitors participates, a monitor's region
registry changed (formation, pruning, quarantine, release all bump
:attr:`~repro.regions.registry.RegionRegistry.version`), a lane's
deferred-observation count changed (a region formed last interval starts
observing one interval later, without a version bump), or the bank
compacted a stable-set store out from under a cached group (epoch
mismatch).  Because rebuilds re-compact, a fleet that was degraded by a
watchdog quarantine re-coalesces on the next plan instead of paying
ragged gather costs forever.

Equivalence: a round stepped through a plan is bit-identical to the same
round through ``observe_many`` — the same width grouping, the same
kernels on the same float64 rows, one shared step record and one ordered
telemetry replay.  Rows whose monitors attributed no samples this
interval hold exactly as the scalar detector holds (an all-zero scratch
row is starved: ``sum < min_interval_samples``, which thresholds
guarantee is at least 1).
"""

from __future__ import annotations

import numpy as np

from repro.batch.lpd import BatchLpdBank, LpdRowGroup
from repro.core.states import PhaseEvent

__all__ = ["FleetRegrouper"]


class _PlanGroup:
    """One width's pinned rows plus its per-round fill recipe."""

    __slots__ = ("group", "scratch", "positions", "sources")

    def __init__(self, group: LpdRowGroup, scratch: np.ndarray,
                 positions: np.ndarray,
                 sources: list[tuple[int, int]]) -> None:
        self.group = group
        self.scratch = scratch
        self.positions = positions  # item positions, round order
        self.sources = sources      # (participant index, to_observe index)


class _FleetPlan:
    """A compiled round: who steps, through which groups, fed from where."""

    __slots__ = ("monitors", "versions", "lane_counts", "total", "handles",
                 "groups")

    def __init__(self, monitors: list, versions: list[int],
                 lane_counts: list[int], handles: np.ndarray,
                 groups: list[_PlanGroup]) -> None:
        self.monitors = monitors
        self.versions = versions
        self.lane_counts = lane_counts
        self.total = int(handles.size)
        self.handles = handles
        self.groups = groups

    def matches(self, participants: list) -> bool:
        """Whether this plan still describes *participants* exactly."""
        if len(participants) != len(self.monitors):
            return False
        for (monitor, pending), planned, version, count in zip(
                participants, self.monitors, self.versions,
                self.lane_counts):
            if monitor is not planned:
                return False
            if monitor.registry.version != version:
                return False
            if len(pending.to_observe) != count:
                return False
        for plan_group in self.groups:
            group = plan_group.group
            if group.epoch != group.store.epoch:
                return False
        return True


class FleetRegrouper:
    """Plan-caching driver for stepping many monitors' detectors at once.

    One regrouper per shared bank per harness (a
    :class:`~repro.batch.session.BatchSession` owns one; so does each
    :func:`~repro.batch.run.process_stream_batch` call).  Thread the
    *same* regrouper through consecutive rounds — the cached plan is
    where the speedup lives.
    """

    def __init__(self, bank: BatchLpdBank) -> None:
        self._bank = bank
        self._plan: _FleetPlan | None = None
        #: Plans built so far — a steady fleet should hold this at 1;
        #: churn shows up as increments (diagnostic, read by tests).
        self.rebuilds = 0

    @property
    def coalesced(self) -> bool:
        """Whether every plan group's stable-set slots form one slice.

        Bank columns are pinned at detector allocation and interleave
        across lanes by construction; what churn degrades — and what a
        plan rebuild restores, via slot compaction — is the *store*
        side, where the per-step Pearson gathers live.  A steady fleet
        must report True here; False after a rebuild means a group
        stayed ragged permanently, which is exactly the regression this
        property exists to catch.
        """
        plan = self._plan
        if plan is None:
            return False
        return all(isinstance(pg.group.slot_index, slice)
                   for pg in plan.groups)

    def observe_round(self, participants: list
                      ) -> list[PhaseEvent | None]:
        """Step one interval for every participating monitor's regions.

        *participants* is a list of ``(monitor, pending)`` pairs — each
        pending from the monitor's ``begin_interval`` for its current
        interval.  Returns phase events flat, in ``to_observe`` order
        lane by lane (the same contract as feeding the concatenated
        items to ``observe_many``).
        """
        plan = self._plan
        if plan is None or not plan.matches(participants):
            plan = self._plan = self._build(participants)
            self.rebuilds += 1
        bank = self._bank
        total = plan.total
        results: list[PhaseEvent | None] = [None] * total
        active_mask = np.zeros(total, dtype=bool)
        primed: list[int] = []
        stepped: dict[int, tuple[int, bool, bool]] = {}
        event_positions: list[int] = []
        telemetry_live = bank.telemetry_live()
        lane_indices = np.fromiter(
            (pending.index for _, pending in participants),
            dtype=np.int64, count=len(participants))
        call_indices = np.repeat(lane_indices, plan.lane_counts)
        for plan_group in plan.groups:
            scratch = plan_group.scratch
            for row, (lane, item) in enumerate(plan_group.sources):
                counts = participants[lane][1].to_observe[item][1]
                if counts is None:
                    scratch[row] = 0.0  # starved hold (see module doc)
                else:
                    scratch[row] = counts
            bank._advance_group(plan_group.group, scratch, call_indices,
                                plan_group.positions, active_mask, primed,
                                stepped, results, event_positions,
                                telemetry_live)
        bank._finish_step(plan.handles, call_indices, active_mask, primed,
                          stepped, results, event_positions, telemetry_live)
        return results

    def _build(self, participants: list) -> _FleetPlan:
        bank = self._bank
        width_py = bank._width_py
        monitors = []
        versions = []
        lane_counts = []
        handle_list: list[int] = []
        # width -> (views, item positions, (lane, item) sources)
        by_width: dict[int, tuple[list, list[int],
                                  list[tuple[int, int]]]] = {}
        position = 0
        for lane, (monitor, pending) in enumerate(participants):
            monitors.append(monitor)
            versions.append(monitor.registry.version)
            lane_counts.append(len(pending.to_observe))
            for item, (rid, _counts) in enumerate(pending.to_observe):
                view = monitor._detectors[rid]
                handle_list.append(view._handle)
                views, positions, sources = by_width.setdefault(
                    width_py[view._handle], ([], [], []))
                views.append(view)
                positions.append(position)
                sources.append((lane, item))
                position += 1
        groups = []
        for width, (views, positions, sources) in by_width.items():
            group = bank.make_group(views)
            groups.append(_PlanGroup(
                group=group,
                scratch=np.zeros((group.k, width), dtype=np.float64),
                positions=np.asarray(positions, dtype=np.int64),
                sources=sources))
        handles = np.asarray(handle_list, dtype=np.int64)
        return _FleetPlan(monitors, versions, lane_counts, handles, groups)
