"""Property suite: a round of deliveries equals the same deliveries one by one.

:meth:`~repro.serve.worker.ShardWorker.handle_batches` feeds every
application of a round first and steps the shard session once; the
oracle is :meth:`~repro.serve.worker.ShardWorker.handle_batch`, one
message at a time.  Hypothesis generates delivery sequences over real
mcf samples across three streams — ragged batch widths, in-order,
duplicated and reordered deliveries (so batches park in the stash and a
gap-filling arrival drains several) — cuts each sequence at random into
rounds, and snapshots and restores the round-driven worker at a random
round boundary.  Everything observable must match the oracle: the acks,
the delivery cursors, the stash, the contiguous high-water mark and
every lane's full event history.

:func:`~repro.serve.worker.collect_round`, the queue-drain step that
forms rounds in ``worker_main``, is unit-tested on a ``queue.Queue``.
"""

import queue

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import model_stream

from repro.faults.service import WorkerCrash
from repro.serve import (ServeConfig, ShardWorker, Shutdown,
                         extract_lane_events)
from repro.serve.messages import Batch
from repro.serve.snapshot import SnapshotStore
from repro.serve.worker import collect_round

STREAMS = ("alpha", "beta", "gamma")
#: Sample budget per stream: enough intervals that detectors act.
BUDGET = 5 * 2032
#: Offset between the streams' windows of the one mcf sample stream.
STRIDE = 3 * 2032


def _config():
    model, _ = model_stream("181.mcf")
    return ServeConfig(binary=model.binary, n_shards=1, snapshot_every=4)


def _make_worker(directory, config, subdir):
    store = SnapshotStore(directory / subdir, shard_id=0,
                          keep=config.snapshot_keep)
    return ShardWorker(0, STREAMS, config, store)


@st.composite
def schedules(draw):
    """(deliveries, round cuts, snapshot round) from drawn raw material."""
    _, stream = model_stream("181.mcf")
    pcs = stream.pcs.astype(np.int64)
    chunks = {}
    for index, name in enumerate(STREAMS):
        window = pcs[index * STRIDE:index * STRIDE + BUDGET]
        cuts = draw(st.lists(st.floats(0.05, 0.95), max_size=4))
        bounds = sorted({max(1, int(c * window.size)) for c in cuts})
        chunks[name] = [chunk.copy() for chunk in np.split(window, bounds)
                        if chunk.size]
    pending = [(name, i) for name in STREAMS
               for i in range(len(chunks[name]))]
    reorder = draw(st.booleans())
    order = draw(st.permutations(pending)) if reorder else pending
    # Redeliver a few messages at random later points.
    for _ in range(draw(st.integers(0, 3))):
        source = draw(st.integers(0, len(order) - 1))
        at = draw(st.integers(source + 1, len(order)))
        order = order[:at] + [order[source]] + order[at:]
    deliveries = [Batch(seq=seq, stream=name, stream_seq=i,
                        samples=chunks[name][i])
                  for seq, (name, i) in enumerate(order)]
    cut_after = draw(st.lists(st.booleans(), min_size=len(deliveries),
                              max_size=len(deliveries)))
    rounds, current = [], []
    for message, cut in zip(deliveries, cut_after):
        current.append(message)
        if cut:
            rounds.append(current)
            current = []
    if current:
        rounds.append(current)
    snapshot_at = draw(st.integers(0, len(rounds)))
    return deliveries, rounds, snapshot_at


def _parked(worker):
    return {stream: {seq: chunk.tobytes() for seq, chunk in entries.items()}
            for stream, entries in worker.stash.items() if entries}


def _lane_events(worker):
    return {stream: extract_lane_events(lane)[0]
            for stream, lane in zip(STREAMS, worker.session.lanes)}


@given(schedules())
@settings(max_examples=15, deadline=None)
def test_rounds_match_one_at_a_time(tmp_path_factory, schedule):
    deliveries, rounds, snapshot_at = schedule
    directory = tmp_path_factory.mktemp("rounds")
    config = _config()

    oracle = _make_worker(directory, config, "oracle")
    oracle_acks = [oracle.handle_batch(m) for m in deliveries]

    worker = _make_worker(directory, config, "rounds")
    acks = []
    for index, batches in enumerate(rounds):
        if index == snapshot_at:
            worker.take_snapshot()
            worker = _make_worker(directory, config, "rounds")
        acks.extend(worker.handle_batches(batches))
    if snapshot_at == len(rounds):
        worker.take_snapshot()
        worker = _make_worker(directory, config, "rounds")

    assert acks == oracle_acks
    assert worker.stream_seqs == oracle.stream_seqs
    assert worker.cursors == oracle.cursors
    assert _parked(worker) == _parked(oracle)
    assert worker.seen_through == oracle.seen_through
    assert _lane_events(worker) == _lane_events(oracle)


def _batch(seq, stream):
    return Batch(seq=seq, stream=stream, stream_seq=0,
                 samples=np.arange(1, 5, dtype=np.int64))


def _no_crash(seq):
    return None


class TestCollectRound:
    def test_distinct_streams_merge_into_one_round(self):
        in_q = queue.Queue()
        for seq, stream in enumerate(("b", "c", "d"), start=1):
            in_q.put(_batch(seq, stream))
        batches, upcoming = collect_round(_batch(0, "a"), in_q, _no_crash)
        assert [m.seq for m in batches] == [0, 1, 2, 3]
        assert upcoming is None
        assert in_q.empty()

    def test_repeated_stream_ends_the_round(self):
        in_q = queue.Queue()
        for seq, stream in enumerate(("b", "a", "c"), start=1):
            in_q.put(_batch(seq, stream))
        batches, upcoming = collect_round(_batch(0, "a"), in_q, _no_crash)
        assert [m.seq for m in batches] == [0, 1]
        assert upcoming.seq == 2 and upcoming.stream == "a"
        assert in_q.get_nowait().seq == 3  # the rest stays queued

    def test_shutdown_ends_the_round(self):
        in_q = queue.Queue()
        in_q.put(_batch(1, "b"))
        in_q.put(Shutdown())
        in_q.put(_batch(2, "c"))
        batches, upcoming = collect_round(_batch(0, "a"), in_q, _no_crash)
        assert [m.seq for m in batches] == [0, 1]
        assert isinstance(upcoming, Shutdown)
        assert in_q.get_nowait().seq == 2

    def test_crash_delivery_ends_the_round(self):
        crash = WorkerCrash(shard=0, at_seq=2)
        in_q = queue.Queue()
        for seq, stream in enumerate(("b", "c", "d"), start=1):
            in_q.put(_batch(seq, stream))
        batches, upcoming = collect_round(
            _batch(0, "a"), in_q,
            lambda seq: crash if seq == crash.at_seq else None)
        assert [m.seq for m in batches] == [0, 1]
        assert upcoming.seq == 2
        assert in_q.get_nowait().seq == 3

    def test_empty_queue_gives_a_round_of_one(self):
        first = _batch(0, "a")
        batches, upcoming = collect_round(first, queue.Queue(), _no_crash)
        assert batches == [first]
        assert upcoming is None
