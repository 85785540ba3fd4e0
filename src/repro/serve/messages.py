"""Wire protocol between the fleet supervisor and its shard workers.

Everything crossing between the processes is a small picklable
dataclass.  Down the shard's input queue go :class:`Round` (one shard
round: the :class:`Batch` deliveries the worker steps together) and
:class:`Shutdown`; up the worker incarnation's own ack pipe come
:class:`WorkerStarted` (once per incarnation), :class:`RoundAck` (once
per stepped round, holding one :class:`BatchAck` per delivered batch —
*including* duplicates, so the supervisor's outstanding-set always
drains), and :class:`SnapshotWritten` (after each persisted
generation).

Delivery rules the protocol is designed around:

* shard-local ``seq`` increases by one per accepted batch, and each
  queue is FIFO, so a worker sees its input in dispatch order — except
  where delivery faults duplicate or hold back a batch, and around
  recovery, where journal replay may overlap stale in-flight rounds;
* a round holds at most one accepted batch per stream of the shard
  (duplicated and released reordered deliveries ride along), and a
  batch that carries an unfired ``WorkerCrash`` opens a round of its
  own;
* per-stream ``stream_seq`` is the dedupe/reorder cursor: a worker
  applies a stream's batches in exact ``stream_seq`` order no matter
  how deliveries interleave, stash-parking early arrivals and dropping
  repeats (acked with an empty ``applied`` tuple).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.serve.events import EventRecord

__all__ = ["Batch", "Round", "Shutdown", "WorkerStarted", "BatchAck",
           "RoundAck", "AppliedBatch", "SnapshotWritten",
           "PROTOCOL_VERSION", "MESSAGE_SCHEMA"]

#: Version of the supervisor/worker wire protocol.  Bump whenever a
#: message gains, loses or renames a field, together with the
#: ``MESSAGE_SCHEMA`` entry below and the declarative
#: :func:`repro.checks.protocol.serve_protocol_spec` — the
#: ``protocol-surface-drift`` rule fails the build when they disagree.
PROTOCOL_VERSION = 2


@dataclass(frozen=True)
class Batch:
    """One stream's sample batch, routed to its owning shard."""

    seq: int
    stream: str
    stream_seq: int
    samples: np.ndarray


@dataclass(frozen=True)
class Round:
    """One shard round: deliveries the worker steps as one lockstep round."""

    batches: tuple[Batch, ...]


@dataclass(frozen=True)
class Shutdown:
    """Graceful stop: drain, optionally persist a final snapshot, exit."""

    final_snapshot: bool = True


@dataclass(frozen=True)
class WorkerStarted:
    """A worker incarnation is live and restored through *restored_seq*.

    ``restored_seq`` is -1 for a genesis start; the supervisor replays
    every journal entry after it.
    """

    shard: int
    restored_seq: int
    lanes: tuple[str, ...] = ()


@dataclass(frozen=True)
class AppliedBatch:
    """One batch actually fed to the session, with its event delta."""

    stream: str
    stream_seq: int
    events: tuple[EventRecord, ...]
    intervals: int


@dataclass(frozen=True)
class BatchAck:
    """Receipt for one delivered :class:`Batch` message.

    ``applied`` may be empty (duplicate, or parked out-of-order batch)
    or hold several entries (the arrival that filled a gap drains the
    stash behind it).
    """

    shard: int
    seq: int
    applied: tuple[AppliedBatch, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class RoundAck:
    """Receipt for one stepped :class:`Round`: an ack per delivery, in order."""

    shard: int
    acks: tuple[BatchAck, ...]


@dataclass(frozen=True)
class SnapshotWritten:
    """A snapshot generation covering *seq* reached durable storage."""

    shard: int
    seq: int
    path: str
    n_bytes: int


#: The wire schema, one field tuple per message, in declaration order.
#: Receivers (and the ``protocol-surface-drift`` audit) validate
#: against this registry rather than live dataclass introspection, so
#: an accidental field change breaks loudly instead of silently
#: un-pickling into stale consumers.
MESSAGE_SCHEMA: dict[str, tuple[str, ...]] = {
    "Batch": ("seq", "stream", "stream_seq", "samples"),
    "Round": ("batches",),
    "Shutdown": ("final_snapshot",),
    "WorkerStarted": ("shard", "restored_seq", "lanes"),
    "AppliedBatch": ("stream", "stream_seq", "events", "intervals"),
    "BatchAck": ("shard", "seq", "applied"),
    "RoundAck": ("shard", "acks"),
    "SnapshotWritten": ("shard", "seq", "path", "n_bytes"),
}
