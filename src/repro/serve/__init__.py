"""Crash-tolerant sharded fleet serving for ``BatchSession``.

The serving layer turns the vectorized batch backend into a
long-running multi-tenant service: streams are consistent-hashed onto
shard worker processes (:mod:`repro.serve.hashing`,
:mod:`repro.serve.worker`), batches flow through bounded queues under a
supervisor that journals, retries, evicts slow consumers and respawns
dead workers from versioned snapshots
(:mod:`repro.serve.supervisor`, :mod:`repro.serve.snapshot`,
:mod:`repro.serve.journal`).

The correctness bar is the batch engine's trusted-oracle rule, one
level up: a sharded run — including runs with injected worker crashes,
torn snapshot writes, duplicated and reordered deliveries
(:mod:`repro.faults.service`) — must produce per-stream event sequences
bit-identical to a clean single-process
:class:`~repro.batch.session.BatchSession`
(:func:`~repro.serve.worker.reference_events`).  The ``chaos``
experiment holds the layer to that reference; ``tests/conformance/``
holds a 256-stream fleet under chaos, and the in-process
:class:`~repro.serve.worker.ShardWorker`, to the scalar pipeline.
"""

from repro.serve.config import ServeConfig
from repro.serve.events import EventCursor, EventRecord, extract_lane_events
from repro.serve.governor import StreamGovernor
from repro.serve.hashing import HashRing
from repro.serve.journal import JournalEntry, ShardJournal
from repro.serve.messages import (AppliedBatch, Batch, BatchAck, Round,
                                  RoundAck, Shutdown, SnapshotWritten,
                                  WorkerStarted)
from repro.serve.snapshot import (SNAPSHOT_FIELDS, SNAPSHOT_MAGIC,
                                  SNAPSHOT_VERSION, ShardSnapshot,
                                  SnapshotStore, decode_snapshot,
                                  encode_snapshot, read_snapshot,
                                  write_snapshot)
from repro.serve.supervisor import FleetSupervisor, run_fleet
from repro.serve.worker import (CRASH_EXIT_CODE, SNAPSHOT_KEEP, ShardWorker,
                                build_shard_session, reference_events,
                                worker_main)

__all__ = [
    "ServeConfig",
    "FleetSupervisor",
    "run_fleet",
    "ShardWorker",
    "worker_main",
    "build_shard_session",
    "reference_events",
    "CRASH_EXIT_CODE",
    "SNAPSHOT_KEEP",
    "HashRing",
    "StreamGovernor",
    "ShardJournal",
    "JournalEntry",
    "ShardSnapshot",
    "SnapshotStore",
    "SNAPSHOT_FIELDS",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "encode_snapshot",
    "decode_snapshot",
    "read_snapshot",
    "write_snapshot",
    "EventRecord",
    "EventCursor",
    "extract_lane_events",
    "Batch",
    "BatchAck",
    "Round",
    "RoundAck",
    "AppliedBatch",
    "Shutdown",
    "WorkerStarted",
    "SnapshotWritten",
]
