"""Canonical per-stream event records and incremental extraction.

The serving layer's correctness claim is a *differential* one: the
per-stream event sequence assembled from sharded workers (with crashes,
replays, duplicated and reordered deliveries in between) must equal the
sequence a clean single-process :class:`~repro.batch.session.BatchSession`
produces.  That needs a single canonical, comparable event
representation and an extraction that *composes*: reading a lane's
events incrementally — after each applied batch, across snapshot/restore
boundaries — must concatenate to exactly what one full-run extraction
yields.

:class:`EventRecord` flattens the three per-lane event feeds (global
detector phase changes, per-region local phase changes from interval
reports, watchdog actions) into one frozen, hashable record.  Within the
intervals an extraction covers, records are ordered by interval index
with the detector class as tie-break (gpd, then lpd, then watchdog) —
each feed is already interval-ordered and successive extractions cover
disjoint interval ranges, so the stable merge composes.

:class:`EventCursor` marks how far each feed has been read; it is part
of the shard snapshot (:data:`~repro.serve.snapshot.SNAPSHOT_FIELDS`),
which is what makes a replayed batch re-emit exactly its original event
delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.monitor.online import SessionSurface

__all__ = ["EventRecord", "EventCursor", "extract_lane_events"]

#: Tie-break rank of the three event feeds within one interval.
_FEED_RANK = {"gpd": 0, "lpd": 1, "watchdog": 2}


@dataclass(frozen=True)
class EventRecord:
    """One detector-visible event, canonicalized for comparison."""

    interval_index: int
    detector: str  # "gpd" | "lpd" | "watchdog"
    rid: int       # -1 for the (regionless) global detector
    kind: str
    state_from: str = ""
    state_to: str = ""
    detail: str = ""


@dataclass(frozen=True)
class EventCursor:
    """How much of a lane's event feeds has already been extracted."""

    n_gpd: int = 0
    n_reports: int = 0
    n_watchdog: int = 0


def _merge(records: list[tuple[int, int, int, EventRecord]]
           ) -> tuple[EventRecord, ...]:
    records.sort(key=lambda item: item[:3])
    return tuple(item[3] for item in records)


def extract_lane_events(lane: SessionSurface,
                        cursor: EventCursor = EventCursor()
                        ) -> tuple[tuple[EventRecord, ...], EventCursor]:
    """New events on *lane* past *cursor*; returns them plus the new cursor.

    *lane* is a :class:`~repro.batch.session.BatchLane` or a scalar
    :class:`~repro.monitor.online.OnlineSession`: both keep ``gpd``
    (``None`` without the global channel), ``reports`` and
    ``watchdog_events``, so one extraction serves every engine of the
    conformance oracle.
    """
    keyed: list[tuple[int, int, int, EventRecord]] = []
    gpd = lane.gpd
    n_gpd = cursor.n_gpd
    if gpd is not None:
        events = gpd.events
        for order, event in enumerate(events[cursor.n_gpd:]):
            keyed.append((event.interval_index, _FEED_RANK["gpd"], order,
                          EventRecord(
                              interval_index=event.interval_index,
                              detector="gpd", rid=-1,
                              kind=event.kind.value,
                              state_from=event.state_from.name,
                              state_to=event.state_to.name,
                              detail=event.detail)))
        n_gpd = len(events)
    reports = lane.reports
    order = 0
    for report in reports[cursor.n_reports:]:
        for rid, event in report.events:
            keyed.append((event.interval_index, _FEED_RANK["lpd"], order,
                          EventRecord(
                              interval_index=event.interval_index,
                              detector="lpd", rid=rid,
                              kind=event.kind.value,
                              state_from=event.state_from.name,
                              state_to=event.state_to.name,
                              detail=event.detail)))
            order += 1
    watchdog_events = lane.watchdog_events
    for order, event in enumerate(watchdog_events[cursor.n_watchdog:]):
        keyed.append((event.interval_index, _FEED_RANK["watchdog"], order,
                      EventRecord(
                          interval_index=event.interval_index,
                          detector="watchdog", rid=event.rid,
                          kind=event.action.value,
                          detail=f"{event.reason}: {event.detail}")))
    return _merge(keyed), EventCursor(
        n_gpd=n_gpd, n_reports=len(reports),
        n_watchdog=len(watchdog_events))
