"""Cross-figure simulation/monitor cache (the perf engine's memo layer).

Several figures consume *identical* ``(benchmark, scale, period, seed)``
PMU streams — fig04 re-simulates every stream fig03 just produced, fig14
re-monitors fig13's runs, and fig06/fig15/fig16 share their list-monitor
runs — and everything downstream of a stream is a pure function of the
experiment configuration.  The :class:`SimulationCache` memoizes the three
expensive artifact kinds behind :mod:`repro.experiments.base`:

* raw :class:`~repro.sampling.SampleStream` simulations, keyed
  ``(benchmark, scale, period, seed)``;
* completed :class:`~repro.monitor.RegionMonitor` runs, keyed
  ``(benchmark, scale, period, seed, buffer_size, attribution)``;
* completed global-phase-detector runs, keyed
  ``(benchmark, scale, period, seed, buffer_size)``.

Cached monitors and detectors are shared objects: callers must treat them
as read-only summaries (every in-tree experiment does).

Process model: each process owns one :data:`GLOBAL_CACHE` guarded by an
``RLock`` (safe under threads and under nested ``monitored_run`` →
``stream_for`` lookups).  Entries only ever come from a miss computing
its own key, and every computation is seeded by its key, so a hit is
bit-identical to a fresh run.  The cache is bounded LRU so full-scale
sweeps cannot grow memory without limit, and it can be disabled globally
(the runner's ``--no-cache``) or temporarily (:func:`cache_disabled`).

Telemetry: every memoized lookup emits a
:class:`~repro.telemetry.events.CacheHit` or
:class:`~repro.telemetry.events.CacheMiss` on the process bus (nothing
when the cache is disabled — there is no lookup to report).  Telemetry is
deliberately *not* part of any cache key: it is result-inert, and a cache
hit therefore re-plays no pipeline events — the trace records the hit
itself instead.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.telemetry.bus import get_bus
from repro.telemetry.events import CacheHit, CacheMiss

__all__ = ["StreamKey", "MonitorKey", "GpdKey", "CacheStats",
           "SimulationCache", "GLOBAL_CACHE", "get_cache", "set_enabled",
           "cache_disabled"]

T = TypeVar("T")


@dataclass(frozen=True, slots=True)
class StreamKey:
    """Identity of one simulated PMU stream.

    ``faults`` is the applied :meth:`~repro.faults.FaultPlan.token`
    (empty tuple: the ideal, un-faulted stream), so faulted and ideal
    artifacts of the same run never collide.  ``trace`` is the replay
    identity token of a recorded trace
    (:meth:`~repro.ingest.TraceIdentity.token` — content checksum plus
    replay parameters; empty tuple: a synthetic simulation), so two
    recordings replayed under the same name never collide either.
    """

    benchmark: str
    scale: float
    period: int
    seed: int
    faults: tuple = ()
    trace: tuple = ()


@dataclass(frozen=True, slots=True)
class MonitorKey:
    """Identity of one completed region-monitor run."""

    benchmark: str
    scale: float
    period: int
    seed: int
    buffer_size: int
    attribution: str
    faults: tuple = ()
    trace: tuple = ()


@dataclass(frozen=True, slots=True)
class GpdKey:
    """Identity of one completed global-phase-detector run."""

    benchmark: str
    scale: float
    period: int
    seed: int
    buffer_size: int
    faults: tuple = ()
    trace: tuple = ()


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters and store sizes for reporting."""

    hits: int
    misses: int
    streams: int
    monitors: int
    detectors: int

    def __str__(self) -> str:
        return (f"{self.hits} hits / {self.misses} misses "
                f"({self.streams} streams, {self.monitors} monitors, "
                f"{self.detectors} detectors held)")


class SimulationCache:
    """Bounded, lock-guarded memo store for experiment artifacts.

    Parameters
    ----------
    max_entries:
        Per-store LRU bound (streams, monitors and detectors are bounded
        independently).
    """

    def __init__(self, max_entries: int = 256) -> None:
        self.max_entries = max_entries
        self.enabled = True
        self.hits = 0
        self.misses = 0
        self._lock = threading.RLock()
        self._streams: OrderedDict[StreamKey, object] = OrderedDict()
        self._monitors: OrderedDict[MonitorKey, object] = OrderedDict()
        self._detectors: OrderedDict[GpdKey, object] = OrderedDict()

    # -- generic memoization ------------------------------------------------

    def _memoize(self, store: OrderedDict, key, compute: Callable[[], T],
                 kind: str) -> T:
        if not self.enabled:
            return compute()
        with self._lock:
            bus = get_bus()
            if key in store:
                store.move_to_end(key)
                self.hits += 1
                if bus.enabled:
                    bus.emit(CacheHit(kind=kind, key=repr(key)))
                return store[key]
            self.misses += 1
            if bus.enabled:
                bus.emit(CacheMiss(kind=kind, key=repr(key)))
            value = compute()
            store[key] = value
            while len(store) > self.max_entries:
                store.popitem(last=False)
            return value

    # -- typed entry points --------------------------------------------------

    def stream(self, key: StreamKey, compute: Callable[[], T]) -> T:
        """The stream for *key*, computing and retaining it on a miss."""
        return self._memoize(self._streams, key, compute, "stream")

    def monitor(self, key: MonitorKey, compute: Callable[[], T]) -> T:
        """The monitor run for *key*, computing and retaining on a miss."""
        return self._memoize(self._monitors, key, compute, "monitor")

    def detector(self, key: GpdKey, compute: Callable[[], T]) -> T:
        """The GPD run for *key*, computing and retaining on a miss."""
        return self._memoize(self._detectors, key, compute, "gpd")

    # -- management -----------------------------------------------------------

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._streams.clear()
            self._monitors.clear()
            self._detectors.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> CacheStats:
        """Current counters and store sizes."""
        with self._lock:
            return CacheStats(hits=self.hits, misses=self.misses,
                              streams=len(self._streams),
                              monitors=len(self._monitors),
                              detectors=len(self._detectors))


#: The per-process cache every experiment helper routes through.
GLOBAL_CACHE = SimulationCache()


def get_cache() -> SimulationCache:
    """The process-wide :class:`SimulationCache`."""
    return GLOBAL_CACHE


def set_enabled(enabled: bool) -> None:
    """Globally enable or disable memoization (``--no-cache``)."""
    GLOBAL_CACHE.enabled = enabled


@contextmanager
def cache_disabled():
    """Temporarily bypass the cache (fresh computation guaranteed)."""
    previous = GLOBAL_CACHE.enabled
    GLOBAL_CACHE.enabled = False
    try:
        yield
    finally:
        GLOBAL_CACHE.enabled = previous
