"""Fleet supervisor: routing, recovery and degradation for shard workers.

The supervisor owns the serving topology::

    submit(stream, samples)
        │  consistent hash (HashRing)
        ▼
    bounded input queue ──► shard worker (BatchSession + snapshots)
        ▲                        │
        └── journal replay ◄─────┘ acks / snapshots on the shard's ack pipe

Each worker incarnation sends upward on its own one-way pipe.  The
supervisor waits on every shard's pipe reader and every worker's
``Process.sentinel`` in one :func:`multiprocessing.connection.wait`,
so a death wakes it at once rather than after a stretch of silence.

Every accepted batch is journaled before it is enqueued, so a worker
death is recovered by respawning the process, letting it restore the
newest good snapshot, and replaying the journaled suffix — the worker's
per-stream cursors absorb the overlap with stale in-flight messages.
The supervisor cross-checks recovery: every re-acked batch's event
delta is compared record-for-record against the original ack, and any
difference increments :attr:`FleetSupervisor.divergences` (a clean
fleet holds it at zero; the chaos differential tests assert it).

Degradation ladder, outermost first:

===================  ====================================================
pressure             response
===================  ====================================================
full input queue     bounded blocking ``put`` with exponential-backoff
                     retries (``dispatch_timeout`` / ``dispatch_retries``
                     / :data:`DISPATCH_BACKOFF`)
retries exhausted    :class:`~repro.serve.governor.StreamGovernor` trips
                     the stream: suspension with watchdog-style backoff,
                     then blacklist (the batch is shed, counted, and
                     reported — never silently lost)
dead worker          detected when its sentinel fires or its ack pipe
                     reads end-of-file (heartbeat gauges track
                     liveness); respawned from snapshot + journal
                     replay
torn snapshot        the worker's store falls back to the previous
                     generation (or genesis); the journal retains every
                     entry past the *second*-newest snapshot for exactly
                     this case
===================  ====================================================

Delivery-layer chaos (``duplicate-delivery``, ``reorder-delivery``
specs) is injected here, on the dispatch path, so workers prove their
dedupe/stash machinery against realistic at-least-once transports.
"""

from __future__ import annotations

import multiprocessing
import queue
import time
from multiprocessing.connection import Connection, wait
from typing import Callable

import numpy as np

from repro.errors import SamplingError, ServeError
from repro.faults.service import (DuplicateDelivery, ReorderDelivery,
                                  ServiceFaultPlan, TornSnapshot,
                                  WorkerCrash)
from repro.monitor.watchdog import WatchdogEvent
from repro.serve.config import ServeConfig
from repro.serve.events import EventRecord
from repro.serve.governor import StreamGovernor
from repro.serve.hashing import HashRing
from repro.serve.journal import ShardJournal
from repro.serve.messages import (Batch, BatchAck, Shutdown,
                                  SnapshotWritten, WorkerStarted)
from repro.serve.worker import worker_main
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["FleetSupervisor", "run_fleet"]

#: Virtual nodes per shard on the consistent-hash ring.
HASH_REPLICAS = 64

#: Base seconds between dispatch retries (doubles per retry).
DISPATCH_BACKOFF = 0.05


def _mp_context() -> multiprocessing.context.BaseContext:
    """Fork where available (fast, Linux CI); spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class _ShardState:
    """Supervisor-side bookkeeping for one shard."""

    def __init__(self, shard_id: int, streams: list[str],
                 ctx: multiprocessing.context.BaseContext,
                 config: ServeConfig) -> None:
        self.shard_id = shard_id
        self.streams = list(streams)
        self.in_q = ctx.Queue(maxsize=config.queue_capacity)
        # Never let interpreter exit block on flushing this queue: its
        # exit-time finalizer joins the feeder thread, which can be
        # wedged mid-write into a full pipe whose worker is already
        # dead (the supervisor holds a read end too, so the write
        # never fails).  Dropping undelivered batches at exit is free:
        # every accepted batch is journaled before it is enqueued.
        self.in_q.cancel_join_thread()
        self.journal = ShardJournal(shard_id)
        self.next_seq = 0
        self.unacked: set[int] = set()
        self.process: multiprocessing.process.BaseProcess | None = None
        #: Read end of the live incarnation's ack pipe; None once its
        #: death has been handled and no successor was spawned.
        self.reader: Connection | None = None
        self.incarnations = 0
        self.started = False
        self.snapshot_seqs: list[int] = []
        self.held: list[list] = []  # [Batch, releases remaining]
        #: Acks that raced ahead of submit()'s bookkeeping: a
        #: backpressure pump inside the dispatch path can deliver the
        #: ack for the very batch being submitted before its seq lands
        #: in ``unacked``.
        self.early_acks: set[int] = set()


class FleetSupervisor:
    """Routes per-stream batches to shard workers; survives their deaths."""

    def __init__(self, config: ServeConfig, streams: list[str],
                 snapshot_dir: str,
                 faults: ServiceFaultPlan | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        if len(set(streams)) != len(streams):
            raise ServeError("stream names must be unique")
        self.config = config
        self.streams = list(streams)
        self.snapshot_dir = str(snapshot_dir)
        self.faults = faults or ServiceFaultPlan()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.ring = HashRing(config.n_shards, HASH_REPLICAS)
        self._ctx = _mp_context()
        #: Set by shutdown(): from then on a death is final.
        self._stopping = False
        assignment = self.ring.partition(self.streams)
        self._shards = {
            shard: _ShardState(shard, assigned, self._ctx, config)
            for shard, assigned in assignment.items()}
        self._stream_shard = {stream: shard
                              for shard, state in self._shards.items()
                              for stream in state.streams}
        self._stream_next: dict[str, int] = {s: 0 for s in self.streams}
        #: stream -> stream_seq -> event delta from the first ack.
        self._events: dict[str, dict[int, tuple[EventRecord, ...]]] = {
            s: {} for s in self.streams}
        self.governor = StreamGovernor()
        # Fatal worker-side specs, consumed (lowest at_seq first) as
        # deaths are observed, so a respawned incarnation does not
        # re-fire the fault that killed its predecessor.
        self._fatal: dict[int, list] = {
            shard: sorted(
                (spec for spec in self.faults.specs
                 if spec.kind in (WorkerCrash.kind, TornSnapshot.kind)
                 and spec.shard == shard),
                key=lambda spec: spec.at_seq)
            for shard in self._shards}
        self._delivery_fired: set[tuple] = set()
        self.divergences = 0
        self.restarts = 0
        self.evicted_batches = 0
        self.submitted_batches = 0
        self.acked_batches = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self, timeout: float = 30.0) -> None:
        """Spawn one worker per shard and wait for them to come up."""
        for state in self._shards.values():
            self._spawn(state)
        if not self._pump_until(
                lambda: all(s.started for s in self._shards.values()),
                timeout):
            missing = [s.shard_id for s in self._shards.values()
                       if not s.started]
            raise ServeError(
                f"workers for shards {missing} did not start within "
                f"{timeout}s")

    def _spawn(self, state: _ShardState) -> None:
        plan = ServiceFaultPlan(tuple(
            spec for spec in self.faults.specs
            if spec.kind not in (WorkerCrash.kind, TornSnapshot.kind,
                                 DuplicateDelivery.kind,
                                 ReorderDelivery.kind)
        ) + tuple(self._fatal[state.shard_id]))
        state.started = False
        state.incarnations += 1
        reader, writer = self._ctx.Pipe(duplex=False)
        state.process = self._ctx.Process(
            target=worker_main,
            args=(state.shard_id, tuple(state.streams), self.config,
                  self.snapshot_dir, plan, state.in_q, writer),
            daemon=True,
            name=f"repro-shard{state.shard_id}-gen{state.incarnations}")
        state.process.start()
        # Leave the worker the only write end, so the reader reaches
        # end-of-file exactly when the incarnation dies.
        writer.close()
        state.reader = reader

    def _respawn(self, state: _ShardState) -> None:
        """Replace a dead incarnation; replay follows its WorkerStarted."""
        self.restarts += 1
        self.metrics.counter("repro_serve_restarts_total",
                             "worker respawns after death",
                             shard=str(state.shard_id)).inc()
        if self._fatal[state.shard_id]:
            # FIFO delivery means the lowest-sequence unfired fatal
            # fault is the one that fired: consume exactly it.
            self._fatal[state.shard_id].pop(0)
        # An outside kill most likely lands while the worker waits in
        # in_q.get() holding the queue's reader lock, which would starve
        # its successor.  Nobody else reads this queue: take it back.
        reader_lock = state.in_q._rlock  # type: ignore[attr-defined]
        reader_lock.acquire(block=False)
        reader_lock.release()
        self._spawn(state)

    # -- ingestion ------------------------------------------------------------

    def submit(self, stream: str, samples: np.ndarray) -> bool:
        """Route one batch; returns False if the governor shed it."""
        # Absorb whatever the workers have sent before ingesting more:
        # a worker whose ack pipe is full blocks in its next send.
        self._pump(timeout=0.0)
        shard = self._stream_shard.get(stream)
        if shard is None:
            raise ServeError(f"unknown stream {stream!r}")
        samples = np.asarray(samples)
        if samples.ndim != 1 or samples.size == 0 \
                or not np.issubdtype(samples.dtype, np.integer):
            raise SamplingError(
                f"submit expects a non-empty 1-D integer batch, got "
                f"shape {samples.shape} dtype {samples.dtype}")
        state = self._shards[shard]
        seq = state.next_seq
        if not self.governor.allows(stream, seq):
            self.evicted_batches += 1
            self.metrics.counter("repro_serve_evicted_total",
                                 "batches shed by the stream governor",
                                 stream=stream).inc()
            return False
        stream_seq = self._stream_next[stream]
        message = Batch(seq=seq, stream=stream, stream_seq=stream_seq,
                        samples=np.array(samples, dtype=np.int64))
        if not self._dispatch(state, message):
            event = self.governor.trip(stream, seq)
            self.evicted_batches += 1
            self.metrics.counter("repro_serve_evicted_total",
                                 "batches shed by the stream governor",
                                 stream=stream).inc()
            del event  # recorded on the governor; callers read .events
            return False
        state.journal.append(seq, stream, stream_seq, message.samples)
        state.next_seq += 1
        self._stream_next[stream] = stream_seq + 1
        if seq in state.early_acks:
            state.early_acks.discard(seq)
        else:
            state.unacked.add(seq)
        self.submitted_batches += 1
        self.metrics.counter("repro_serve_dispatches_total",
                             "batches dispatched to shard queues",
                             shard=str(shard)).inc()
        return True

    # -- dispatch path (delivery faults + backpressure) -----------------------

    def _delivery_specs(self, shard: int, kind: str) -> list:
        return [spec for spec in self.faults.specs
                if spec.kind == kind and spec.shard == shard]

    def _dispatch(self, state: _ShardState, message: Batch) -> bool:
        """Apply delivery faults, then enqueue with retry/backoff."""
        for spec in self._delivery_specs(state.shard_id,
                                         ReorderDelivery.kind):
            key = (spec.kind, state.shard_id, spec.at_seq)
            if spec.at_seq == message.seq \
                    and key not in self._delivery_fired:
                self._delivery_fired.add(key)
                state.held.append([message, spec.depth])
                return True  # held back; released by later dispatches
        if not self._enqueue(state, message):
            return False
        for hold in list(state.held):
            hold[1] -= 1
            if hold[1] <= 0:
                state.held.remove(hold)
                self._enqueue(state, hold[0])
        for spec in self._delivery_specs(state.shard_id,
                                         DuplicateDelivery.kind):
            key = (spec.kind, state.shard_id, spec.at_seq)
            if spec.at_seq == message.seq \
                    and key not in self._delivery_fired:
                self._delivery_fired.add(key)
                for _ in range(spec.copies - 1):
                    self._enqueue(state, message)
        return True

    def _enqueue(self, state: _ShardState, message: Batch) -> bool:
        """Bounded put with exponential backoff; False when it gives up."""
        delay = DISPATCH_BACKOFF
        for attempt in range(self.config.dispatch_retries):
            if self._put(state, message):
                return True
            # Backpressure: the consumer is behind (or dead).  Spend the
            # growing pause handling acks and any death, so the queue
            # can drain, then retry.
            self._pump_until(lambda: False, delay)
            delay *= 2
        return False

    def _put(self, state: _ShardState, message: Batch | Shutdown) -> bool:
        """One bounded put on the shard's input queue; False if full.

        A put about to wait on the worker reads its acks first, since a
        worker blocked sending into a full ack pipe takes nothing off
        its queue.
        """
        if state.in_q.full():
            self._pump(timeout=0.0)
        try:
            state.in_q.put(message, timeout=self.config.dispatch_timeout)
        except queue.Full:
            return False
        return True

    def _flush_held(self) -> None:
        """Release any reorder-held messages (run boundary / drain)."""
        for state in self._shards.values():
            held, state.held = state.held, []
            for message, _ in held:
                self._enqueue(state, message)

    # -- the upward pipeline --------------------------------------------------

    def _pump(self, timeout: float) -> None:
        """Handle the workers' messages and deaths.

        Waits up to *timeout* seconds (zero only polls) in one
        ``connection.wait`` on every shard's ack reader and every live
        worker's sentinel, so a death wakes it at once.  Every message
        a dead incarnation sent is handled before its reader is closed.
        """
        watched = [(state, state.reader, state.process.sentinel)
                   for state in self._shards.values()
                   if state.reader is not None
                   and state.process is not None]
        ready = set(wait([reader for _, reader, _ in watched]
                         + [sentinel for _, _, sentinel in watched],
                         timeout))
        for state, reader, sentinel in watched:
            if reader not in ready and sentinel not in ready:
                continue
            alive = self._receive(state, reader) and sentinel not in ready
            # A nested pump (replay backpressure) may have replaced it.
            if not alive and state.reader is reader:
                self._bury(state, reader)

    def _receive(self, state: _ShardState, reader: Connection) -> bool:
        """Handle every message waiting on *reader*; False at its end."""
        while state.reader is reader:
            try:
                if not reader.poll(0):
                    return True
                message = reader.recv()
            except (EOFError, OSError):
                # End-of-file, or a frame torn by a death mid-send.
                return False
            self._handle_up(message)
        return True

    def _bury(self, state: _ShardState, reader: Connection) -> None:
        """Close a dead incarnation's reader; respawn unless stopping."""
        self.metrics.gauge("repro_serve_worker_up",
                           "liveness heartbeat per shard",
                           shard=str(state.shard_id)).set(0.0)
        reader.close()
        state.reader = None
        if not self._stopping:
            self._respawn(state)

    def _pump_until(self, done: Callable[[], bool], timeout: float) -> bool:
        """Pump until *done()* holds; False if *timeout* s pass first."""
        deadline = time.monotonic() + timeout  # repro: allow[wall-clock] pump deadline
        while not done():
            remaining = deadline - time.monotonic()  # repro: allow[wall-clock] pump deadline
            if remaining <= 0:
                return False
            self._pump(timeout=remaining)
        return True

    def _handle_up(self, message: object) -> None:
        if isinstance(message, WorkerStarted):
            state = self._shards[message.shard]
            state.started = True
            self.metrics.gauge("repro_serve_worker_up",
                               "liveness heartbeat per shard",
                               shard=str(message.shard)).set(1.0)
            if state.incarnations > 1 or message.restored_seq >= 0:
                for entry in state.journal.entries_after(
                        message.restored_seq):
                    state.unacked.add(entry.seq)
                    self._enqueue(state, Batch(
                        seq=entry.seq, stream=entry.stream,
                        stream_seq=entry.stream_seq,
                        samples=entry.samples))
        elif isinstance(message, BatchAck):
            state = self._shards[message.shard]
            if message.seq in state.unacked:
                state.unacked.discard(message.seq)
            elif message.seq >= state.next_seq:
                state.early_acks.add(message.seq)
            self.acked_batches += 1
            for applied in message.applied:
                seen = self._events[applied.stream]
                if applied.stream_seq in seen:
                    if seen[applied.stream_seq] != applied.events:
                        self.divergences += 1
                        self.metrics.counter(
                            "repro_serve_divergences_total",
                            "replayed event deltas that differed",
                            stream=applied.stream).inc()
                else:
                    seen[applied.stream_seq] = applied.events
        elif isinstance(message, SnapshotWritten):
            state = self._shards[message.shard]
            state.snapshot_seqs.append(message.seq)
            self.metrics.counter("repro_serve_snapshots_total",
                                 "snapshot generations persisted",
                                 shard=str(message.shard)).inc()
            if len(state.snapshot_seqs) >= 2:
                state.journal.truncate_through(state.snapshot_seqs[-2])

    # -- draining and shutdown ------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Dispatched batches not yet acknowledged."""
        return sum(len(state.unacked) for state in self._shards.values())

    def drain(self, timeout: float = 60.0) -> None:
        """Block until every dispatched batch is acknowledged.

        Dead workers found along the way are respawned and their
        journal suffix replayed; the injected crash ladder resolves
        here.  Raises :class:`ServeError` if the fleet cannot settle
        within *timeout* seconds.
        """
        self._flush_held()
        if not self._pump_until(lambda: not self.outstanding, timeout):
            pending = {state.shard_id: sorted(state.unacked)[:5]
                       for state in self._shards.values()
                       if state.unacked}
            raise ServeError(
                f"fleet did not drain within {timeout}s; pending "
                f"acks (first few per shard): {pending}")
        self._pump(timeout=0.0)  # absorb trailing snapshot notices

    def _reap(self,
              timeout: float) -> list[multiprocessing.process.BaseProcess]:
        """Pump until every worker's death is handled; return stragglers."""
        self._pump_until(lambda: all(state.reader is None
                                     for state in self._shards.values()),
                         timeout)
        return [state.process for state in self._shards.values()
                if state.reader is not None and state.process is not None]

    def shutdown(self, graceful: bool = True,
                 timeout: float = 10.0) -> dict[int, int | None]:
        """Stop the fleet; returns each shard's final exit code.

        Graceful shutdown asks every live worker for a final snapshot;
        a worker that refuses to exit is terminated, and one that still
        lingers is killed — no worker survives this call, so the host
        interpreter's exit (which joins leftover children unboundedly)
        can never hang on the fleet.  Every ack pipe is read the whole
        time, so no worker blocks in a send on its way out, and from
        the first line on a death is final: nothing is respawned.
        Exit code 0 (or a clean SIGTERM exit) is success; anything else
        is surfaced to the caller.
        """
        self._stopping = True
        for state in self._shards.values():
            if state.reader is not None:
                # A worker too wedged to take it is terminated below.
                self._put(state, Shutdown(final_snapshot=graceful))
        for process in self._reap(timeout):
            process.terminate()
        for process in self._reap(5.0):
            process.kill()  # wedged past SIGTERM: nothing left to save
        for state in self._shards.values():
            if state.process is not None:
                state.process.join(timeout=5.0)
        self._pump(timeout=0.0)  # collect final snapshot notices
        exit_codes = {state.shard_id: (state.process.exitcode
                                       if state.process is not None
                                       else None)
                      for state in self._shards.values()}
        for state in self._shards.values():
            if state.reader is not None:
                state.reader.close()
                state.reader = None
            state.in_q.close()
        return exit_codes

    # -- results --------------------------------------------------------------

    def stream_events(self, stream: str) -> tuple[EventRecord, ...]:
        """The stream's full event sequence, assembled from acks."""
        per_stream = self._events.get(stream)
        if per_stream is None:
            raise ServeError(f"unknown stream {stream!r}")
        flattened: list[EventRecord] = []
        for stream_seq in range(self._stream_next[stream]):
            if stream_seq not in per_stream:
                raise ServeError(
                    f"stream {stream!r} is missing the event delta for "
                    f"batch {stream_seq}; fleet not drained?")
            flattened.extend(per_stream[stream_seq])
        return tuple(flattened)

    def governor_events(self) -> list[WatchdogEvent]:
        """Every slow-consumer decision taken this run."""
        return list(self.governor.events)

    def summary(self) -> dict:
        """Run counters for experiment rows and logs."""
        return {
            "shards": len(self._shards),
            "streams": len(self.streams),
            "submitted": self.submitted_batches,
            "acked": self.acked_batches,
            "evicted": self.evicted_batches,
            "restarts": self.restarts,
            "divergences": self.divergences,
            "governor": self.governor.summary(),
        }


def run_fleet(config: ServeConfig, batches: dict[str, list[np.ndarray]],
              snapshot_dir: str, faults: ServiceFaultPlan | None = None,
              timeout: float = 60.0
              ) -> tuple[dict[str, tuple[EventRecord, ...]], dict,
                         dict[int, int | None]]:
    """Serve *batches* through one fleet, then stop it.

    Submits each stream's batches round by round (every stream's first
    batch, then every second one), drains within *timeout* seconds and
    shuts down gracefully.  Returns each stream's events assembled from
    acks, :meth:`FleetSupervisor.summary` and every shard's exit code.
    """
    fleet = FleetSupervisor(config, list(batches), snapshot_dir,
                            faults=faults)
    try:
        fleet.start()
        rounds = max((len(chunks) for chunks in batches.values()),
                     default=0)
        for round_index in range(rounds):
            for stream, chunks in batches.items():
                if round_index < len(chunks):
                    fleet.submit(stream, chunks[round_index])
        fleet.drain(timeout=timeout)
        events = {stream: fleet.stream_events(stream) for stream in batches}
        summary = fleet.summary()
    except BaseException:
        # Reap the workers before the error propagates: live daemon
        # children would meet the interpreter's unbounded exit-time
        # joins, and a caller's temporary snapshot directory would be
        # deleted under a running fleet.
        fleet.shutdown(graceful=False)
        raise
    return events, summary, fleet.shutdown(graceful=True)
