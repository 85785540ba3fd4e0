"""Serving benchmarks: snapshot overhead and crash recovery.

A :class:`~repro.serve.worker.ShardWorker` owning a 256-lane
``BatchSession`` is timed through ``APPLIES`` one-interval batch
applications, once plain and once with a single snapshot appended —
the difference is the cost of one checkpoint.  ``scripts/
bench_compare.py`` amortizes that difference over the default snapshot
cadence (``ServeConfig.snapshot_every``; both the applies-per-round and
the cadence are recorded in ``extra_info``) and gates the result at a
5% throughput ceiling: within one measurement, so host speed cancels.

``test_serve_apply_rounds`` times the same one-interval applications
the way ``worker_main`` delivers them under load: one 256-lane round
through ``ShardWorker.handle_batches``, every lane stepped by a single
``process_ready()``.  Its ``batch_applies_per_sec`` against the plain
bench's is the per-batch saving of rounds.

``test_serve_worker_recovery`` times the full crash path — restore the
newest snapshot, replay the journal suffix — and records the replayed
batch count; the median *is* the recovery time at that journal depth.
"""

import itertools

import numpy as np

from conftest import BENCH_SCALE, STEADY_ROUNDS

from repro.program.spec2000 import get_benchmark
from repro.sampling import simulate_sampling
from repro.serve import ServeConfig, ShardWorker
from repro.serve.messages import Batch
from repro.serve.snapshot import SnapshotStore

N_STREAMS = 256
#: One-interval batch applications per timed round.
APPLIES = 64
#: Journal depth replayed by the recovery benchmark.
REPLAY = 64
#: Distinct pre-generated interval chunks, cycled (bounds setup memory).
CYCLE = 8
#: ``BatchSession`` default interval buffer.
INTERVAL = 2032

_MATERIAL = None


def _material():
    """(model, cycled interval chunks) — one simulation per process."""
    global _MATERIAL
    if _MATERIAL is None:
        model = get_benchmark("181.mcf", BENCH_SCALE)
        stream = simulate_sampling(model.regions, model.workload, 45_000,
                                   seed=7)
        pcs = stream.pcs.astype(np.int64)
        chunks = [pcs[i * INTERVAL:(i + 1) * INTERVAL].copy()
                  for i in range(CYCLE)]
        assert all(chunk.size == INTERVAL for chunk in chunks)
        _MATERIAL = (model, chunks)
    return _MATERIAL


_ROUND = itertools.count()


def _warm_worker(tmp_path):
    """A worker with every lane one interval deep (regions formed)."""
    model, chunks = _material()
    config = ServeConfig(binary=model.binary, n_shards=1)
    streams = tuple(f"s{i:03d}" for i in range(N_STREAMS))
    # A fresh store directory per round: the worker constructor adopts
    # any snapshot it finds, which would skip the warm-up.
    store = SnapshotStore(tmp_path / f"round{next(_ROUND):03d}",
                          shard_id=0)
    worker = ShardWorker(0, streams, config, store)
    for seq, stream in enumerate(streams):
        worker.handle_batch(Batch(seq=seq, stream=stream, stream_seq=0,
                                  samples=chunks[seq % CYCLE]))
    return worker, streams, chunks


def _apply_round(worker, streams, chunks, snapshot):
    seq = worker.seen_through
    for k in range(APPLIES):
        seq += 1
        stream = streams[k % N_STREAMS]
        worker.handle_batch(Batch(
            seq=seq, stream=stream,
            stream_seq=worker.stream_seqs[stream],
            samples=chunks[k % CYCLE]))
    if snapshot:
        worker.take_snapshot()
    return worker


def _apply_worker_round(worker, streams, chunks):
    """One batch per stream, stepped as a single round."""
    seq = worker.seen_through
    batches = []
    for k, stream in enumerate(streams):
        seq += 1
        batches.append(Batch(seq=seq, stream=stream,
                             stream_seq=worker.stream_seqs[stream],
                             samples=chunks[k % CYCLE]))
    worker.handle_batches(batches)
    return worker


def _per_second(benchmark, count, name):
    try:
        median = benchmark.stats.stats.median
    except AttributeError:  # pragma: no cover - harness internals moved
        return
    if median > 0:
        benchmark.extra_info[name] = round(count / median, 1)


def test_serve_apply_plain(benchmark, tmp_path):
    def setup():
        worker, streams, chunks = _warm_worker(tmp_path)
        return (worker, streams, chunks, False), {}

    worker = benchmark.pedantic(_apply_round, setup=setup,
                                rounds=STEADY_ROUNDS, iterations=1)
    assert worker.seen_through == N_STREAMS + APPLIES - 1
    benchmark.extra_info["applies_per_round"] = APPLIES
    _per_second(benchmark, APPLIES, "batch_applies_per_sec")


def test_serve_apply_snapshotted(benchmark, tmp_path):
    def setup():
        worker, streams, chunks = _warm_worker(tmp_path)
        return (worker, streams, chunks, True), {}

    worker = benchmark.pedantic(_apply_round, setup=setup,
                                rounds=STEADY_ROUNDS, iterations=1)
    assert worker.store.load_latest() is not None
    benchmark.extra_info["applies_per_round"] = APPLIES
    benchmark.extra_info["snapshot_every"] = ServeConfig().snapshot_every
    _per_second(benchmark, APPLIES, "batch_applies_per_sec")


def test_serve_apply_rounds(benchmark, tmp_path):
    def setup():
        return _warm_worker(tmp_path), {}

    worker = benchmark.pedantic(_apply_worker_round, setup=setup,
                                rounds=STEADY_ROUNDS, iterations=1)
    assert worker.seen_through == 2 * N_STREAMS - 1
    assert all(seq == 2 for seq in worker.stream_seqs.values())
    benchmark.extra_info["applies_per_round"] = N_STREAMS
    _per_second(benchmark, N_STREAMS, "batch_applies_per_sec")


def test_serve_worker_recovery(benchmark, tmp_path):
    """Restore the newest snapshot and replay a 64-deep journal suffix."""
    model, chunks = _material()
    config = ServeConfig(binary=model.binary, n_shards=1)
    streams = tuple(f"s{i:03d}" for i in range(N_STREAMS))

    def setup():
        store = SnapshotStore(tmp_path / f"round{next(_ROUND):03d}",
                              shard_id=0)
        worker = ShardWorker(0, streams, config, store)
        journal = []
        for seq, stream in enumerate(streams):
            journal.append(Batch(seq=seq, stream=stream, stream_seq=0,
                                 samples=chunks[seq % CYCLE]))
            worker.handle_batch(journal[-1])
        worker.take_snapshot()
        suffix = []
        for k in range(REPLAY):
            stream = streams[k % N_STREAMS]
            suffix.append(Batch(
                seq=N_STREAMS + k, stream=stream,
                stream_seq=worker.stream_seqs[stream],
                samples=chunks[k % CYCLE]))
            worker.handle_batch(suffix[-1])
        # The worker "crashes" here; the supervisor would hold `suffix`
        # in its journal and replay it into the respawned worker.
        return (store, suffix), {}

    def recover(store, suffix):
        worker = ShardWorker(0, streams, config, store)
        assert worker.restored_seq == N_STREAMS - 1
        for message in suffix:
            worker.handle_batch(message)
        return worker

    worker = benchmark.pedantic(recover, setup=setup,
                                rounds=STEADY_ROUNDS, iterations=1)
    assert worker.seen_through == N_STREAMS + REPLAY - 1
    benchmark.extra_info["replayed_batches"] = REPLAY
