"""Slow-consumer eviction: the region watchdog's policy at stream level.

When a stream's batches repeatedly fail to dispatch — its shard's queue
stays full past the retry budget — the supervisor must shed that stream
rather than let one slow consumer stall the fleet.  The policy is the
same graceful-degradation ladder :class:`~repro.monitor.watchdog.
RegionWatchdog` applies to regions, reused wholesale: a trip suspends
the stream for an exponentially growing backoff
(``backoff_intervals * backoff_factor**(trips-1)``, counted on a clock
that every ``submit()`` to the stream's shard advances, accepted or
shed, so streams suspended together still age out), and exhausting
``retry_budget`` trips blacklists it for the rest of the run.
Decisions are reported as the watchdog's own
:class:`~repro.monitor.watchdog.WatchdogEvent` records (``rid`` is the
stream's registration ordinal; the name travels in ``detail``), so
chaos experiments and logs read one uniform degradation vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.monitor.watchdog import (WatchdogAction, WatchdogConfig,
                                    WatchdogEvent)

__all__ = ["StreamGovernor"]


@dataclass
class _StreamRecord:
    ordinal: int
    trips: int = 0
    suspended_until: int | None = None
    blacklisted: bool = False


@dataclass
class StreamGovernor:
    """Per-stream dispatch-failure policy for the fleet supervisor."""

    config: WatchdogConfig = field(default_factory=WatchdogConfig)

    def __post_init__(self) -> None:
        self._records: dict[str, _StreamRecord] = {}
        self.events: list[WatchdogEvent] = []

    def _record(self, stream: str) -> _StreamRecord:
        record = self._records.get(stream)
        if record is None:
            record = _StreamRecord(ordinal=len(self._records))
            self._records[stream] = record
        return record

    def allows(self, stream: str, clock: int) -> bool:
        """Whether *stream* may dispatch at its shard's *clock*.

        A suspended stream is re-admitted once its backoff elapses
        (mirroring the watchdog's retry), which also emits the RETRY
        event.
        """
        record = self._records.get(stream)
        if record is None:
            return True
        if record.blacklisted:
            return False
        if record.suspended_until is None:
            return True
        if clock < record.suspended_until:
            return False
        record.suspended_until = None
        self.events.append(WatchdogEvent(
            interval_index=clock, rid=record.ordinal,
            action=WatchdogAction.RETRY, reason="backoff elapsed",
            detail=f"stream={stream}, trip {record.trips}/"
                   f"{self.config.retry_budget}"))
        return True

    def trip(self, stream: str, clock: int,
             reason: str = "slow-consumer") -> WatchdogEvent:
        """One dispatch-retry budget exhausted: suspend or blacklist."""
        record = self._record(stream)
        record.trips += 1
        if record.trips >= self.config.retry_budget:
            record.blacklisted = True
            event = WatchdogEvent(
                interval_index=clock, rid=record.ordinal,
                action=WatchdogAction.GIVE_UP, reason=reason,
                detail=f"stream={stream}, budget exhausted after "
                       f"{record.trips} trips")
        else:
            backoff = int(self.config.backoff_intervals
                          * self.config.backoff_factor
                          ** (record.trips - 1))
            record.suspended_until = clock + max(backoff, 1)
            event = WatchdogEvent(
                interval_index=clock, rid=record.ordinal,
                action=WatchdogAction.DEOPTIMIZE, reason=reason,
                detail=f"stream={stream}, trip {record.trips}/"
                       f"{self.config.retry_budget}, resume at clock "
                       f"{record.suspended_until}")
        self.events.append(event)
        return event

    def is_blacklisted(self, stream: str) -> bool:
        record = self._records.get(stream)
        return record is not None and record.blacklisted

    def summary(self) -> dict:
        """Aggregate counters (for experiment rows and logs)."""
        return {
            "governed_streams": len(self._records),
            "suspensions": sum(
                1 for e in self.events
                if e.action is WatchdogAction.DEOPTIMIZE),
            "readmissions": sum(
                1 for e in self.events
                if e.action is WatchdogAction.RETRY),
            "blacklisted": sum(1 for r in self._records.values()
                               if r.blacklisted),
        }
