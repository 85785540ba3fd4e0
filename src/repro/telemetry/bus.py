"""The event bus: fan-out of telemetry events to attached sinks.

Hot-path contract
-----------------
Instrumentation sites guard every emission with a single attribute read::

    bus = self._telemetry
    if bus.enabled:
        bus.emit(StateTransition(...))

``enabled`` is a plain bool attribute recomputed on attach/detach — it is
``True`` only while at least one *non-null* sink is attached, so the
default state (one :class:`~repro.telemetry.sinks.NullSink`) costs one
attribute load and a falsy branch per site and constructs no event
objects.  ``tests/telemetry/test_instrumentation.py`` holds every
instrumented layer to this: a pass on the default bus makes no
``emit`` call.

Determinism
-----------
The bus adds no state of its own to events (sinks keep their own sequence
counters), emission order is the pipeline's deterministic execution
order, and nothing consults the clock — an instrumented run's artifacts
are bit-identical to an uninstrumented one (pinned by
``tests/property/test_telemetry_inert.py``).

Process model
-------------
One process-wide bus (:func:`get_bus`), mirroring
:data:`~repro.experiments.cache.GLOBAL_CACHE`.  Components accept an
optional ``telemetry=`` bus for isolated capture in tests; parallel warm
workers hold their own (disabled) bus, which is why the runner's
``--trace`` mode computes serially.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.telemetry.events import TelemetryEvent
from repro.telemetry.sinks import NullSink, Sink

__all__ = ["EventBus", "get_bus", "capture"]


class EventBus:
    """Dispatches events to attached sinks; disabled while all are null."""

    def __init__(self, sinks: list[Sink] | None = None) -> None:
        self._sinks: list[Sink] = list(sinks) if sinks else [NullSink()]
        self.enabled: bool = False
        self._recompute_enabled()

    def _recompute_enabled(self) -> None:
        self.enabled = any(not isinstance(sink, NullSink)
                           for sink in self._sinks)

    @property
    def sinks(self) -> tuple[Sink, ...]:
        """The attached sinks (read-only view)."""
        return tuple(self._sinks)

    def attach(self, sink: Sink) -> Sink:
        """Add a sink; returns it for chaining."""
        self._sinks.append(sink)
        self._recompute_enabled()
        return sink

    def detach(self, sink: Sink) -> None:
        """Remove a previously attached sink (no-op if absent)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass
        self._recompute_enabled()

    def emit(self, event: TelemetryEvent) -> None:
        """Deliver one event to every sink, in attachment order."""
        for sink in self._sinks:
            sink.emit(event)

    def flush(self) -> None:
        """Flush every sink (partial traces stay valid)."""
        for sink in self._sinks:
            sink.flush()

    def close(self) -> None:
        """Flush and close every sink; the bus stays usable (disabled)."""
        for sink in self._sinks:
            sink.close()
        self._sinks = [NullSink()]
        self._recompute_enabled()


#: The per-process bus every instrumented component defaults to.
#: Fork story: each forked worker inherits a *copy*, which is exactly
#: the intended per-process semantics — and shard workers never use it
#: anyway (``build_shard_session`` hands every session its own bus so
#: snapshots stay picklable).
_GLOBAL_BUS = EventBus()  # repro: allow[fork-unsafe-global] per-process by design


def get_bus() -> EventBus:
    """The process-wide :class:`EventBus`."""
    return _GLOBAL_BUS


@contextmanager
def capture(sink: Sink, bus: EventBus | None = None) -> Iterator[Sink]:
    """Attach *sink* for the duration of a block, then detach it.

    The test idiom::

        with capture(InMemorySink()) as sink:
            monitor.process_stream(stream)
        assert sink.by_type(PhaseChange)
    """
    target = bus if bus is not None else _GLOBAL_BUS
    target.attach(sink)
    try:
        yield sink
    finally:
        target.detach(sink)
