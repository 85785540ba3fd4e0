"""Fleet supervisor: routing, rounds, recovery and degradation for shard workers.

The supervisor owns the serving topology::

    submit(stream, samples)
        │  consistent hash (HashRing); journal; stage in the shard's outbox
        ▼
    bounded input queue ──► shard worker (BatchSession + snapshots)
        ▲   one Round per         │
        │   shard round           │ one RoundAck per round, snapshot
        └── journal replay ◄──────┘ notices, on the shard's ack pipe

A shard's round is the unit of transport.  ``submit()`` checks and
journals a batch, then stages it in the shard's outbox; the outbox goes
down as one :class:`~repro.serve.messages.Round` message when it holds
a batch of every stream the shard owns, before a second batch of a
stream it already holds, around a batch that carries an unfired
``WorkerCrash`` (which travels alone), and in ``drain()`` and graceful
``shutdown()``.  A client that submits one batch per stream per tick
therefore reaches each worker as one full round per tick, whatever the
order of its calls.  Journal replay after a respawn is cut into rounds
by the same rule.  Acks are read only when a round is sent (and while
waiting in ``drain()``), not on every ``submit()``.

Each worker incarnation sends upward on its own one-way pipe.  The
supervisor waits on every shard's pipe reader and every worker's
``Process.sentinel`` in one :func:`multiprocessing.connection.wait`,
so a death wakes it at once rather than after a stretch of silence.

Every accepted batch is journaled before it is staged, so a worker
death is recovered by respawning the process, letting it restore the
newest good snapshot, and replaying the journaled suffix that had been
sent — the worker's per-stream cursors absorb the overlap with stale
in-flight rounds, and batches still staged go down with their own
round.  The supervisor cross-checks recovery: every re-acked batch's
event delta is compared record-for-record against the original ack,
and any difference increments :attr:`FleetSupervisor.divergences` (a
clean fleet holds it at zero; the chaos differential tests assert it).

Degradation ladder, outermost first:

===================  ====================================================
pressure             response
===================  ====================================================
full input queue     bounded blocking ``put`` of the round with
                     exponential-backoff retries (``dispatch_timeout`` /
                     ``dispatch_retries`` / :data:`DISPATCH_BACKOFF`)
retries exhausted    :class:`~repro.serve.governor.StreamGovernor` trips
                     the stream whose ``submit()`` found the round
                     unsendable: suspension with watchdog-style
                     backoff, counted in the shard's submits (shed
                     ones too), then blacklist.  The round stays staged
                     (it is journaled, so a respawn replays it anyway)
                     and goes down with a later send; later batches of
                     a tripped stream are shed at admission, counted
                     and reported — an accepted batch is never
                     dropped.  ``drain()`` and ``shutdown()`` trip
                     nothing
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
specs) is injected here, as batches are staged, so workers prove their
dedupe/stash machinery against realistic at-least-once transports.
Both keep their per-batch meaning inside rounds: a duplicated batch's
copies follow it in its round, and a held-back batch joins the round of
the ``depth``-th batch accepted after it.
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
from repro.serve.messages import (Batch, Round, RoundAck, Shutdown,
                                  SnapshotWritten, WorkerStarted)
from repro.serve.worker import worker_main
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["FleetSupervisor", "run_fleet"]

#: Virtual nodes per shard on the consistent-hash ring.
HASH_REPLICAS = 64

#: Base seconds between dispatch retries (doubles per retry).
DISPATCH_BACKOFF = 0.05

#: Bucket bounds of the ``repro_serve_round_batches`` histogram.
ROUND_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                       512.0)


def _mp_context() -> multiprocessing.context.BaseContext:
    """Fork where available (fast, Linux CI); spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class _Outbox:
    """One shard's next round: deliveries staged for one ``Round``.

    ``streams`` holds the streams of the accepted batches among
    ``batches``; duplicated and released reordered deliveries ride
    along uncounted.  The round is complete once it holds a batch of
    every stream of the shard, or a crash-carrying batch, which
    travels alone.
    """

    def __init__(self, n_streams: int) -> None:
        self.n_streams = n_streams
        self.clear()

    def clear(self) -> None:
        self.batches: list[Batch] = []
        self.streams: set[str] = set()
        #: ``seq`` of the first accepted batch staged (None: none yet).
        self.since: int | None = None
        self.complete = False

    def goes_before(self, stream: str, crash: bool) -> bool:
        """Whether the staged round must go down before a batch of
        *stream* (carrying an unfired crash if *crash*) joins."""
        return bool(self.batches) and (
            self.complete or crash or stream in self.streams)

    def add(self, batch: Batch, crash: bool) -> None:
        """Stage an accepted batch."""
        if self.since is None:
            self.since = batch.seq
        self.batches.append(batch)
        self.streams.add(batch.stream)
        self.complete = crash or len(self.streams) == self.n_streams


class _ShardState:
    """Supervisor-side bookkeeping for one shard."""

    def __init__(self, shard_id: int, streams: list[str],
                 ctx: multiprocessing.context.BaseContext,
                 config: ServeConfig, metrics: MetricsRegistry) -> None:
        self.shard_id = shard_id
        self.streams = list(streams)
        self.in_q = ctx.Queue(maxsize=config.queue_capacity)
        # Never let interpreter exit block on flushing this queue: its
        # exit-time finalizer joins the feeder thread, which can be
        # wedged mid-write into a full pipe whose worker is already
        # dead (the supervisor holds a read end too, so the write
        # never fails).  Dropping undelivered rounds at exit is free:
        # every accepted batch is journaled before it is staged.
        self.in_q.cancel_join_thread()
        self.journal = ShardJournal(shard_id)
        self.outbox = _Outbox(len(self.streams))
        self.next_seq = 0
        #: The governor's clock: every submit() the shard received,
        #: accepted or shed, so a suspension ages even while the shard
        #: accepts nothing (all of its streams suspended).
        self.submits = 0
        #: Accepted batches not yet acknowledged, staged ones included.
        self.unacked: set[int] = set()
        self.process: multiprocessing.process.BaseProcess | None = None
        #: Read end of the live incarnation's ack pipe; None once its
        #: death has been handled and no successor was spawned.
        self.reader: Connection | None = None
        self.incarnations = 0
        self.started = False
        self.snapshot_seqs: list[int] = []
        self.held: list[list] = []  # [Batch, releases remaining]
        #: Its sum counts the batches dispatched to the shard's queue.
        self.round_batches = metrics.histogram(
            "repro_serve_round_batches", "batches per dispatched round",
            bounds=ROUND_BATCH_BUCKETS, shard=str(shard_id))


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
            shard: _ShardState(shard, assigned, self._ctx, config,
                               self.metrics)
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
        # Delivery faults by (shard, seq); each fires once, as its batch
        # is staged.
        self._delivery_faults: dict[tuple[int, int], list] = {}
        for spec in self.faults.specs:
            if spec.kind in (DuplicateDelivery.kind, ReorderDelivery.kind):
                self._delivery_faults.setdefault(
                    (spec.shard, spec.at_seq), []).append(spec)
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
        """Accept one batch into its shard's round; False if shed.

        An accepted batch is journaled and staged; its round goes down
        by the rule in the module docstring.  A batch is shed when its
        stream's governor refuses it, or when the round staged before it
        must go down first and cannot.  A round that cannot go down
        trips the governor of this batch's stream only, as a failed
        send of the batch itself would.
        """
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
        clock = state.submits
        state.submits += 1
        crash = self._carries_crash(state, seq)
        if not self.governor.allows(stream, clock):
            return self._shed(stream)
        if state.outbox.goes_before(stream, crash) and not self._send(state):
            self.governor.trip(stream, clock)
            return self._shed(stream)
        stream_seq = self._stream_next[stream]
        # The journal's read-only copy is the one the round carries.
        entry = state.journal.append(seq, stream, stream_seq, samples)
        state.next_seq += 1
        self._stream_next[stream] = stream_seq + 1
        state.unacked.add(seq)
        self.submitted_batches += 1
        self._stage(state, Batch(seq=seq, stream=stream,
                                 stream_seq=stream_seq,
                                 samples=entry.samples), crash)
        if state.outbox.complete and not self._send(state):
            self.governor.trip(stream, clock)
        return True

    def _shed(self, stream: str) -> bool:
        self.evicted_batches += 1
        self.metrics.counter("repro_serve_evicted_total",
                             "batches shed by the stream governor",
                             stream=stream).inc()
        return False

    # -- dispatch path (rounds, delivery faults, backpressure) ----------------

    def _carries_crash(self, state: _ShardState, seq: int) -> bool:
        return any(spec.kind == WorkerCrash.kind and spec.at_seq == seq
                   for spec in self._fatal[state.shard_id])

    def _stage(self, state: _ShardState, batch: Batch, crash: bool) -> None:
        """Put an accepted batch in the outbox, with its delivery faults.

        A reorder hold keeps the batch back until ``depth`` later
        batches are staged; it then follows the last of them.  A
        duplicate's copies follow the batch.  A crash-carrying batch
        takes neither: it travels alone.
        """
        outbox = state.outbox
        if crash:
            outbox.add(batch, crash=True)
            return
        specs = self._delivery_faults.pop((state.shard_id, batch.seq), ())
        for spec in specs:
            if spec.kind == ReorderDelivery.kind:
                state.held.append([batch, spec.depth])
                return
        outbox.add(batch, crash=False)
        for hold in list(state.held):
            hold[1] -= 1
            if hold[1] <= 0:
                state.held.remove(hold)
                outbox.batches.append(hold[0])
        for spec in specs:
            outbox.batches.extend([batch] * (spec.copies - 1))

    def _release_held(self, state: _ShardState) -> None:
        """Stage every reorder-held batch (run boundary: drain, stop)."""
        state.outbox.batches.extend(batch for batch, _ in state.held)
        state.held = []

    def _send(self, state: _ShardState) -> bool:
        """Send the staged round; False (and still staged) on give-up.

        Reads the workers' acks first: a worker blocked sending into a
        full ack pipe takes nothing off its queue.
        """
        outbox = state.outbox
        if not outbox.batches:
            return True
        self._pump(timeout=0.0)
        if not self._dispatch(state, outbox):
            return False
        outbox.clear()
        return True

    def _dispatch(self, state: _ShardState, outbox: _Outbox) -> bool:
        """Enqueue *outbox* as one ``Round``; False when retries run out."""
        if not self._enqueue(state, Round(tuple(outbox.batches))):
            return False
        state.round_batches.observe(len(outbox.batches))
        return True

    def _enqueue(self, state: _ShardState, message: Round) -> bool:
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

    def _put(self, state: _ShardState, message: Round | Shutdown) -> bool:
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

    def _replay(self, state: _ShardState, restored_seq: int) -> None:
        """Resend the journal past *restored_seq*, cut by the round rule.

        Batches from the outbox's first accepted one on are still staged
        and go down with their own round.
        """
        outbox = state.outbox
        staged = state.next_seq if outbox.since is None else outbox.since
        replay = _Outbox(len(state.streams))
        for entry in state.journal.entries_after(restored_seq):
            if entry.seq >= staged:
                break
            state.unacked.add(entry.seq)
            crash = self._carries_crash(state, entry.seq)
            if replay.goes_before(entry.stream, crash):
                self._dispatch(state, replay)
                replay.clear()
            replay.add(Batch(seq=entry.seq, stream=entry.stream,
                             stream_seq=entry.stream_seq,
                             samples=entry.samples), crash)
        if replay.batches:
            self._dispatch(state, replay)

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
                self._replay(state, message.restored_seq)
        elif isinstance(message, RoundAck):
            state = self._shards[message.shard]
            for ack in message.acks:
                state.unacked.discard(ack.seq)
                self.acked_batches += 1
                for applied in ack.applied:
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
        """Accepted batches not yet acknowledged, staged ones included."""
        return sum(len(state.unacked) for state in self._shards.values())

    def drain(self, timeout: float = 60.0) -> None:
        """Send every staged round, then block until all are acknowledged.

        Dead workers found along the way are respawned and their
        journal suffix replayed; the injected crash ladder resolves
        here.  Raises :class:`ServeError` if the fleet cannot settle
        within *timeout* seconds.
        """
        deadline = time.monotonic() + timeout  # repro: allow[wall-clock] drain deadline
        for state in self._shards.values():
            self._release_held(state)
        staged = list(self._shards.values())
        while staged:
            staged = [state for state in staged if not self._send(state)]
            if staged and time.monotonic() >= deadline:  # repro: allow[wall-clock] drain deadline
                raise ServeError(
                    f"fleet did not drain within {timeout}s; shards "
                    f"{[state.shard_id for state in staged]} could not "
                    f"take their staged rounds")
        remaining = deadline - time.monotonic()  # repro: allow[wall-clock] drain deadline
        if not self._pump_until(lambda: not self.outstanding, remaining):
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

        Graceful shutdown first sends every live shard its staged round,
        then asks the worker for a final snapshot, which therefore
        covers every accepted batch; a worker that refuses to exit is
        terminated, and one that still
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
                if graceful:
                    self._release_held(state)
                    self._send(state)
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
            "batches_per_round": {
                state.shard_id: (state.round_batches.total
                                 / max(state.round_batches.n, 1))
                for state in self._shards.values()},
        }


def run_fleet(config: ServeConfig, batches: dict[str, list[np.ndarray]],
              snapshot_dir: str, faults: ServiceFaultPlan | None = None,
              timeout: float = 60.0
              ) -> tuple[dict[str, tuple[EventRecord, ...]], dict,
                         dict[int, int | None]]:
    """Serve *batches* through one fleet, then stop it.

    Submits each stream's batches round by round (every stream's first
    batch, then every second one), so each shard gets one ``Round`` per
    round of batches, drains within *timeout* seconds and shuts down
    gracefully.  Returns each stream's events assembled from
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
