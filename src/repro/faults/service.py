"""Service-level fault specifications for the fleet serving layer.

Where :mod:`repro.faults.model` corrupts the *sample stream*, these
specs break the *serving machinery* around it: worker processes die
mid-batch, snapshot writes tear, queues stall, the delivery layer
duplicates and reorders batches.  The chaos harness
(``repro-experiments chaos`` and ``tests/serve/``) drives a sharded
fleet through ladders of these faults and holds the differential line:
per-stream event sequences must stay bit-identical to a clean
single-process run.

Specs deliberately do **not** subclass :class:`~repro.faults.model.FaultSpec`
— a service fault can never be handed to :func:`repro.faults.inject`
(it does not transform streams), and keeping the hierarchies apart
makes that a type error instead of a runtime surprise.  Each spec's
``token()`` mirrors the stream-fault model's (``repro-check``'s
fault-token audit covers both files).

Injection points are keyed by the shard-local dispatch sequence
(``at_seq``), which makes every fault deterministic: the same plan over
the same submission order fires at exactly the same batch, every run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import ConfigError

__all__ = [
    "ServiceFaultSpec",
    "WorkerCrash",
    "TornSnapshot",
    "QueueStall",
    "DuplicateDelivery",
    "ReorderDelivery",
    "ServiceFaultPlan",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True, slots=True)
class ServiceFaultSpec:
    """Base class of all service fault specs (never instantiated as-is)."""

    #: Class-level identifier used in tokens and experiment labels.
    kind = "abstract"

    def is_noop(self) -> bool:
        """Whether applying this spec is guaranteed to change nothing."""
        return False

    def token(self) -> tuple:
        """Hashable ``(kind, (field, value), ...)`` identity of the spec."""
        return (self.kind,) + tuple(
            (f.name, getattr(self, f.name)) for f in fields(self))


@dataclass(frozen=True, slots=True)
class WorkerCrash(ServiceFaultSpec):
    """The shard's worker process dies while handling batch ``at_seq``.

    With ``before_ack=True`` the batch is fully applied but the crash
    lands before its acknowledgement leaves the worker — the
    lost-receipt window recovery must replay through.  Either way every
    ack the worker sent is already in its ack pipe when it dies, so the
    failure is a clean process loss between queue operations, not a
    torn queue (which is not a recoverable fault class for
    ``multiprocessing`` pipes).
    """

    kind = "worker-crash"
    shard: int = 0
    at_seq: int = 0
    before_ack: bool = False

    def __post_init__(self) -> None:
        _require(self.shard >= 0, "shard must be non-negative")
        _require(self.at_seq >= 0, "at_seq must be non-negative")


@dataclass(frozen=True, slots=True)
class TornSnapshot(ServiceFaultSpec):
    """The next snapshot at/after ``at_seq`` tears mid-file, then the
    worker dies — the power-loss-during-checkpoint scenario.

    The torn generation is written *non-atomically* (bypassing the
    tmp+rename path) and truncated to ``truncate`` of its bytes, so
    recovery must detect the damage and fall back to the previous
    generation (or genesis) plus journal replay.
    """

    kind = "torn-snapshot"
    shard: int = 0
    at_seq: int = 0
    truncate: float = 0.5

    def __post_init__(self) -> None:
        _require(self.shard >= 0, "shard must be non-negative")
        _require(self.at_seq >= 0, "at_seq must be non-negative")
        _require(0.0 < self.truncate < 1.0,
                 "truncate must lie in (0, 1): an empty or complete "
                 "file is a different fault")


@dataclass(frozen=True, slots=True)
class QueueStall(ServiceFaultSpec):
    """The worker stops consuming for ``stall_seconds`` at ``at_seq`` —
    the slow-consumer case that exercises backpressure and, when the
    stall outlives the dispatch retry budget, governor eviction.

    Result-inert by construction: the stall delays processing but
    changes no sample, so a differential run through it must still be
    bit-identical.
    """

    kind = "queue-stall"
    shard: int = 0
    at_seq: int = 0
    stall_seconds: float = 0.2

    def __post_init__(self) -> None:
        _require(self.shard >= 0, "shard must be non-negative")
        _require(self.at_seq >= 0, "at_seq must be non-negative")
        _require(self.stall_seconds >= 0.0,
                 "stall_seconds must be non-negative")

    def is_noop(self) -> bool:
        """Whether applying this spec is guaranteed to change nothing."""
        return self.stall_seconds == 0.0


@dataclass(frozen=True, slots=True)
class DuplicateDelivery(ServiceFaultSpec):
    """The delivery layer enqueues batch ``at_seq`` ``copies`` times —
    the at-least-once retry pathology workers must dedupe."""

    kind = "duplicate-delivery"
    shard: int = 0
    at_seq: int = 0
    copies: int = 2

    def __post_init__(self) -> None:
        _require(self.shard >= 0, "shard must be non-negative")
        _require(self.at_seq >= 0, "at_seq must be non-negative")
        _require(self.copies >= 2, "copies must be at least 2")


@dataclass(frozen=True, slots=True)
class ReorderDelivery(ServiceFaultSpec):
    """Batch ``at_seq`` is held back while the next ``depth`` dispatches
    to the shard overtake it — the out-of-order window the per-stream
    stash must park and drain."""

    kind = "reorder-delivery"
    shard: int = 0
    at_seq: int = 0
    depth: int = 1

    def __post_init__(self) -> None:
        _require(self.shard >= 0, "shard must be non-negative")
        _require(self.at_seq >= 0, "at_seq must be non-negative")
        _require(self.depth >= 1, "depth must be at least 1")


@dataclass(frozen=True)
class ServiceFaultPlan:
    """An ordered, validated composition of service fault specs."""

    specs: tuple[ServiceFaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if (not isinstance(spec, ServiceFaultSpec)
                    or type(spec) is ServiceFaultSpec):
                raise ConfigError(
                    f"service fault plan entries must be concrete "
                    f"ServiceFaultSpecs, got {spec!r}")

    @property
    def is_empty(self) -> bool:
        """Whether applying the plan is guaranteed to change nothing."""
        return all(spec.is_noop() for spec in self.specs)

    def for_shard(self, shard: int) -> "ServiceFaultPlan":
        """The sub-plan a single shard's worker/dispatcher must apply."""
        return ServiceFaultPlan(tuple(
            spec for spec in self.specs
            if getattr(spec, "shard", None) == shard))

    def of_kind(self, kind: str) -> tuple[ServiceFaultSpec, ...]:
        """Every spec with the given ``kind`` tag, in plan order."""
        return tuple(spec for spec in self.specs if spec.kind == kind)

    def describe(self) -> str:
        """Short human-readable summary (experiment row labels)."""
        if not self.specs:
            return "none"
        parts = []
        for spec in self.specs:
            values = ",".join(f"{name}={value}" for name, value in
                              ((f.name, getattr(spec, f.name))
                               for f in fields(spec)))
            parts.append(f"{spec.kind}({values})")
        return "+".join(parts)
