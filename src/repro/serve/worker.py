"""Shard worker: one process owning one ``BatchSession`` shard.

A worker's life is a loop over its input queue: step each
:class:`~repro.serve.messages.Round` on the shard's
:class:`~repro.batch.session.BatchSession`, answer it with one
:class:`~repro.serve.messages.RoundAck` (an ack per delivery), snapshot
periodically between rounds, and exit cleanly on
:class:`~repro.serve.messages.Shutdown` or SIGTERM/SIGINT (both write a
final snapshot first).

Determinism under redelivery is the worker's core job.  Per stream it
keeps a delivery cursor (the next expected ``stream_seq``): repeats are
dropped (but still acked), early arrivals are parked in a stash and
drained the moment their gap fills, so a stream's batches are *applied*
in exact submission order no matter how crashes, journal replays, stale
in-flight messages, duplicate or reordered deliveries interleave.
Combined with snapshots that carry the cursors, the stash and the event
extraction cursors, a respawned worker re-emits exactly the event
deltas its predecessor produced — which the supervisor verifies
record-for-record.

Throughput comes from *rounds*: the supervisor sends a shard's batches
as one ``Round`` message (a batch of every stream of the shard, when
the client submits them together), and the worker steps their lanes
together (:meth:`ShardWorker.handle_round`, one
:meth:`ShardWorker.handle_batches` call), one ``process_ready()`` per
round instead of one per batch.  Lanes of a ``BatchSession`` cannot
see each other, so every ack, cursor and snapshot is bit-identical to
applying the deliveries one at a time.

Chaos hooks: the worker honors the shard's
:class:`~repro.faults.service.ServiceFaultPlan` — deterministic
self-kills (``worker-crash``), torn snapshot writes followed by death
(``torn-snapshot``), and consumption stalls (``queue-stall``).  Faults
key on the shard-local dispatch sequence, so runs are reproducible.  The
supervisor sends a crash-carrying batch as a round of its own, and the
worker takes it alone through :meth:`ShardWorker.handle_batch`.
"""

from __future__ import annotations

import os
import queue
import signal
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from types import FrameType
from typing import Any, Sequence

import numpy as np

from repro.batch.session import BatchLane, BatchSession
from repro.errors import SnapshotError
from repro.faults.service import (QueueStall, ServiceFaultPlan,
                                  TornSnapshot, WorkerCrash)
from repro.serve.config import ServeConfig
from repro.serve.events import EventCursor, EventRecord, extract_lane_events
from repro.serve.messages import (AppliedBatch, Batch, BatchAck, Round,
                                  RoundAck, Shutdown, SnapshotWritten,
                                  WorkerStarted)
from repro.serve.snapshot import (ShardSnapshot, SnapshotStore,
                                  encode_snapshot)
from repro.telemetry.bus import EventBus

__all__ = ["ShardWorker", "worker_main", "build_shard_session",
           "reference_events", "CRASH_EXIT_CODE", "SNAPSHOT_KEEP"]

#: Exit status of a fault-injected self-kill (mirrors SIGKILL's 128+9).
CRASH_EXIT_CODE = 137

#: Snapshot generations a worker keeps.  Recovery must survive a torn
#: newest generation, which is why the supervisor's journal keeps every
#: entry past the second-newest snapshot.
SNAPSHOT_KEEP = 2


def build_shard_session(config: ServeConfig,
                        streams: tuple[str, ...]) -> BatchSession:
    """A fresh shard session with one lane per stream, in stream order.

    The session gets its own disabled :class:`EventBus` — never the
    process-global bus — so snapshots stay picklable regardless of what
    sinks the host process has attached, and telemetry stays per-worker
    (telemetry is result-inert, so a restored session with a fresh bus
    is still bit-identical).
    """
    session = BatchSession(
        binary=config.binary,
        monitor_thresholds=config.monitor_thresholds,
        gpd_thresholds=config.gpd_thresholds,
        run_gpd=config.run_gpd,
        watchdog=config.watchdog,
        telemetry=EventBus())
    for stream in streams:
        session.add_lane(name=stream)
    return session


def reference_events(config: ServeConfig,
                     batches: dict[str, list[np.ndarray]]
                     ) -> dict[str, tuple[EventRecord, ...]]:
    """Each stream's events from one clean in-process shard session.

    The session is fed *batches* stream by stream, stepping after every
    batch.  A fleet given the same batches must assemble exactly these
    sequences from its acks, whatever faults it survives.
    """
    streams = tuple(batches)
    session = build_shard_session(config, streams)
    for lane, stream in zip(session.lanes, streams):
        for chunk in batches[stream]:
            lane.feed_many(chunk)
            session.process_ready()
    return {stream: extract_lane_events(lane)[0]
            for lane, stream in zip(session.lanes, streams)}


@dataclass
class _Round:
    """Applications fed to the shard session but not yet stepped.

    ``staged`` maps each fed stream to its ``(stream_seq, intervals
    before feeding)``; closing the round moves every staged application
    to ``closed``, keyed ``(stream, stream_seq)``, with its event delta.
    """

    staged: dict[str, tuple[int, int]] = field(default_factory=dict)
    closed: dict[tuple[str, int], AppliedBatch] = field(default_factory=dict)


class ShardWorker:
    """The in-process core of one shard worker (testable without mp)."""

    def __init__(self, shard_id: int, streams: tuple[str, ...],
                 config: ServeConfig, store: SnapshotStore,
                 faults: ServiceFaultPlan | None = None) -> None:
        self.shard_id = shard_id
        self.streams = tuple(streams)
        self.config = config
        self.store = store
        shard_plan = (faults or ServiceFaultPlan()).for_shard(shard_id)
        self._crashes = sorted(shard_plan.of_kind(WorkerCrash.kind),
                               key=lambda spec: spec.at_seq)
        self._tears = sorted(shard_plan.of_kind(TornSnapshot.kind),
                             key=lambda spec: spec.at_seq)
        self._stalls = {spec.at_seq: spec
                        for spec in shard_plan.of_kind(QueueStall.kind)}
        self._stalled: set[int] = set()
        self.restored_seq = self._restore()

    # -- state ----------------------------------------------------------------

    def _genesis(self) -> None:
        self.session = build_shard_session(self.config, self.streams)
        self.seen_through = -1
        self._seen_ahead: set[int] = set()
        self.stream_seqs: dict[str, int] = {s: 0 for s in self.streams}
        self.stash: dict[str, dict[int, np.ndarray]] = {}
        self.cursors: dict[str, EventCursor] = {
            s: EventCursor() for s in self.streams}
        self._since_snapshot = 0

    def _restore(self) -> int:
        """Adopt the newest restorable snapshot; -1 on a genesis start."""
        loaded = self.store.load_latest()
        if loaded is not None:
            snapshot, _ = loaded
            if snapshot.lane_names == self.streams:
                self.session = snapshot.session
                self.seen_through = snapshot.applied_through
                self._seen_ahead = set()
                self.stream_seqs = dict(snapshot.stream_seqs)
                self.stash = {stream: dict(parked) for stream, parked
                              in snapshot.stash.items()}
                self.cursors = dict(snapshot.event_cursors)
                self._since_snapshot = 0
                return self.seen_through
        self._genesis()
        return -1

    def _lane(self, stream: str) -> BatchLane:
        return self.session.lanes[self.streams.index(stream)]

    # -- batch application ----------------------------------------------------

    def _note_seq(self, seq: int) -> None:
        """Advance the contiguous delivery high-water mark."""
        if seq <= self.seen_through:
            return  # a replayed or stale redelivery
        self._seen_ahead.add(seq)
        while self.seen_through + 1 in self._seen_ahead:
            self.seen_through += 1
            self._seen_ahead.discard(self.seen_through)

    def _apply(self, round_: _Round, stream: str, stream_seq: int,
               samples: np.ndarray) -> tuple[str, int]:
        """Feed one batch into the open round; returns its ack key."""
        if stream in round_.staged:
            # One application per lane per step keeps each ack's event
            # delta its own (a stash drain feeds one stream repeatedly).
            self._close_round(round_)
        lane = self._lane(stream)
        round_.staged[stream] = (stream_seq, lane.stats.intervals)
        lane.feed_many(np.asarray(samples, dtype=np.int64))
        self.stream_seqs[stream] = stream_seq + 1
        self._since_snapshot += 1
        return stream, stream_seq

    def _close_round(self, round_: _Round) -> None:
        """Step every staged lane at once, then read each one's events."""
        self.session.process_ready()
        for stream, (stream_seq, before) in round_.staged.items():
            lane = self._lane(stream)
            events, self.cursors[stream] = extract_lane_events(
                lane, self.cursors[stream])
            round_.closed[stream, stream_seq] = AppliedBatch(
                stream=stream, stream_seq=stream_seq, events=events,
                intervals=lane.stats.intervals - before)
        round_.staged.clear()

    def handle_batches(self, messages: Sequence[Batch]) -> list[BatchAck]:
        """Apply deliveries as one lockstep round; one ack per message.

        Each message runs the dedupe/stash/drain discipline in order, but
        an application only feeds its lane; the round closes with one
        ``process_ready()`` and one event extraction per staged stream.
        Every ack is bit-identical to :meth:`handle_batch` one message at
        a time.
        """
        round_ = _Round()
        keyed: list[tuple[int, list[tuple[str, int]]]] = []
        for message in messages:
            stall = self._stalls.get(message.seq)
            if stall is not None and message.seq not in self._stalled:
                self._stalled.add(message.seq)
                time.sleep(stall.stall_seconds)  # the injected consumer stall
            self._note_seq(message.seq)
            stream = message.stream
            applied: list[tuple[str, int]] = []
            expected = self.stream_seqs.get(stream, 0)
            if message.stream_seq < expected:
                pass  # duplicate delivery: ack with nothing applied
            elif message.stream_seq > expected:
                self.stash.setdefault(stream, {})[message.stream_seq] = \
                    np.array(message.samples, dtype=np.int64)
            else:
                applied.append(self._apply(round_, stream,
                                           message.stream_seq,
                                           message.samples))
                parked = self.stash.get(stream)
                while parked:
                    up_next = self.stream_seqs[stream]
                    if up_next not in parked:
                        break
                    applied.append(self._apply(round_, stream, up_next,
                                               parked.pop(up_next)))
            keyed.append((message.seq, applied))
        if round_.staged:
            self._close_round(round_)
        return [BatchAck(shard=self.shard_id, seq=seq,
                         applied=tuple(round_.closed[key] for key in keys))
                for seq, keys in keyed]

    def handle_batch(self, message: Batch) -> BatchAck:
        """Apply one delivery (dedupe/stash/drain); always returns an ack."""
        return self.handle_batches([message])[0]

    def handle_round(self, message: Round) -> RoundAck:
        """Step one ``Round`` in one :meth:`handle_batches` call."""
        return RoundAck(shard=self.shard_id,
                        acks=tuple(self.handle_batches(message.batches)))

    # -- snapshots ------------------------------------------------------------

    @property
    def snapshot_due(self) -> bool:
        return self._since_snapshot >= self.config.snapshot_every

    def _pending_tear(self) -> TornSnapshot | None:
        for spec in self._tears:
            if spec.at_seq <= self.seen_through:
                return spec
        return None

    def take_snapshot(self) -> SnapshotWritten:
        """Persist the current state; raises on an injected torn write."""
        # Serving consumes events through incremental extraction only;
        # the banks' lazy observation logs would otherwise grow the
        # snapshot (and its cost) linearly with worker uptime.
        self.session.discard_observation_history()
        snapshot = ShardSnapshot(
            shard_id=self.shard_id,
            applied_through=self.seen_through,
            stream_seqs=dict(self.stream_seqs),
            stash={stream: dict(parked)
                   for stream, parked in self.stash.items() if parked},
            event_cursors=dict(self.cursors),
            lane_names=self.streams,
            session=self.session)
        tear = self._pending_tear()
        if tear is not None:
            # The injected power-loss-mid-checkpoint: bypass the atomic
            # tmp+rename path and leave a truncated file at the final
            # name, exactly what recovery must detect and skip.
            blob = encode_snapshot(snapshot)
            torn = blob[:max(1, int(len(blob) * tear.truncate))]
            path = self.store.path_for(snapshot.applied_through)
            with open(path, "wb") as handle:
                handle.write(torn)
                handle.flush()
                os.fsync(handle.fileno())
            raise SnapshotError(
                f"shard {self.shard_id}: injected torn snapshot at seq "
                f"{snapshot.applied_through} ({len(torn)}/{len(blob)} "
                f"bytes)")
        path = self.store.save(snapshot)
        self._since_snapshot = 0
        return SnapshotWritten(shard=self.shard_id,
                               seq=snapshot.applied_through,
                               path=str(path),
                               n_bytes=path.stat().st_size)

    # -- fault queries ---------------------------------------------------------

    def crash_spec_for(self, seq: int) -> WorkerCrash | None:
        for spec in self._crashes:
            if spec.at_seq == seq:
                return spec
        return None


def worker_main(shard_id: int, streams: tuple[str, ...],
                config: ServeConfig, snapshot_dir: str,
                faults: ServiceFaultPlan | None,
                in_q: Any, acks: Connection) -> None:
    """Process entry point for one shard worker incarnation.

    *acks* is the write end of this incarnation's one-way ack pipe; the
    supervisor closes its own copy once the process has started.  A
    ``send`` returns once the message is in the pipe, so a death right
    after it loses nothing, and the supervisor reads end-of-file the
    moment the process is gone.
    """
    terminated = {"flag": False}

    def _on_signal(signum: int, frame: FrameType | None) -> None:
        terminated["flag"] = True

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    # An orphan is handed to another parent.  Its input queue never
    # reads end-of-file, because the worker holds a write end itself.
    supervisor = os.getppid()

    store = SnapshotStore(snapshot_dir, shard_id, keep=SNAPSHOT_KEEP)
    worker = ShardWorker(shard_id, tuple(streams), config, store, faults)
    acks.send(WorkerStarted(shard=shard_id,
                            restored_seq=worker.restored_seq,
                            lanes=worker.streams))
    while True:
        if terminated["flag"]:
            break
        try:
            message = in_q.get(timeout=0.05)
        except queue.Empty:
            if os.getppid() != supervisor:
                break  # the supervisor died: leave as on SIGTERM
            continue
        if isinstance(message, Shutdown):
            if message.final_snapshot:
                acks.send(worker.take_snapshot())
            return
        if not isinstance(message, Round):
            continue  # unknown message: ignore, stay alive
        first = message.batches[0]
        crash = worker.crash_spec_for(first.seq)
        if crash is not None:
            # A crash delivery travels as a round of its own.
            ack = worker.handle_batch(first)
            if not crash.before_ack:
                acks.send(RoundAck(shard=shard_id, acks=(ack,)))
            os._exit(CRASH_EXIT_CODE)
        acks.send(worker.handle_round(message))
        if worker.snapshot_due:
            try:
                acks.send(worker.take_snapshot())
            except SnapshotError:
                os._exit(CRASH_EXIT_CODE)  # torn write == death mid-checkpoint
    # SIGTERM/SIGINT, or the supervisor died: persist a final snapshot,
    # then exit cleanly.  The on-disk snapshot is what recovery needs;
    # the notice is only advisory.  A supervisor that is gone (a broken
    # pipe) or not reading (a full pipe, which the non-blocking write
    # reports as an error) must not turn this exit into a hang.
    written = worker.take_snapshot()
    try:
        os.set_blocking(acks.fileno(), False)
        acks.send(written)
    except OSError:
        pass
