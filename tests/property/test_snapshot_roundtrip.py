"""Property suite: snapshot→restore is bit-identical under churn.

Hypothesis drives a :class:`~repro.serve.worker.ShardWorker` through
generated delivery schedules — ragged batch widths, arbitrary
cross-stream interleavings, duplicated deliveries, a snapshot point
anywhere in the schedule — and asserts that a worker restored from its
snapshot finishes the schedule with exactly the acknowledgements, event
deltas and cursors of an uninterrupted twin.

A separate test proves the snapshot *file* is self-contained: a fresh
process restores it and finishes the schedule exactly like the worker
that never stopped.
"""

import os
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import model_stream

from repro.serve import SNAPSHOT_KEEP, ServeConfig, ShardWorker
from repro.serve.messages import Batch
from repro.serve.snapshot import SnapshotStore

REPO_ROOT = __import__("pathlib").Path(__file__).resolve().parents[2]

STREAMS = ("alpha", "beta")
#: Sample budget per stream: enough intervals that detectors act.
BUDGET = 7 * 2032


def _config():
    model, _ = model_stream("181.mcf")
    return ServeConfig(binary=model.binary, n_shards=1, snapshot_every=3)


def _make_worker(directory, config, subdir):
    store = SnapshotStore(directory / subdir, shard_id=0,
                          keep=SNAPSHOT_KEEP)
    return ShardWorker(0, STREAMS, config, store)


def _schedule(cut_points, order, duplicate_at):
    """Build a delivery schedule from the generated raw material."""
    _, stream = model_stream("181.mcf")
    samples = stream.pcs[:BUDGET].astype(np.int64)
    per_stream = {}
    for stream_name, cuts in zip(STREAMS, cut_points):
        bounds = sorted({max(1, int(c * samples.size)) for c in cuts})
        per_stream[stream_name] = [
            np.array(chunk, dtype=np.int64) for chunk in
            np.split(samples, bounds) if chunk.size]
    pending = [(name, i) for name in STREAMS
               for i in range(len(per_stream[name]))]
    # `order` ranks deliveries; per-stream order may invert freely —
    # the worker's stash machinery owes correctness anyway.
    ranked = sorted(zip(order, pending))[:len(pending)]
    deliveries = []
    for seq, (_, (name, i)) in enumerate(ranked):
        deliveries.append(Batch(seq=seq, stream=name, stream_seq=i,
                                samples=per_stream[name][i]))
    if duplicate_at is not None and deliveries:
        repeat = deliveries[duplicate_at % len(deliveries)]
        deliveries.append(Batch(seq=len(deliveries), stream=repeat.stream,
                                stream_seq=repeat.stream_seq,
                                samples=repeat.samples))
    return deliveries


churn = st.tuples(
    st.tuples(
        st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4),
        st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4)),
    st.lists(st.integers(0, 10_000), min_size=12, max_size=12,
             unique=True),
    st.one_of(st.none(), st.integers(0, 11)),
    st.integers(0, 10))


@given(churn)
@settings(max_examples=12, deadline=None)
def test_restored_worker_finishes_bit_identically(tmp_path_factory, data):
    (cut_points, order, duplicate_at, cut) = data
    directory = tmp_path_factory.mktemp("roundtrip")
    config = _config()
    deliveries = _schedule(cut_points, order, duplicate_at)
    split = min(cut, len(deliveries) - 1) + 1 if deliveries else 0

    straight = _make_worker(directory, config, "straight")
    straight_acks = [straight.handle_batch(m) for m in deliveries]

    crashed = _make_worker(directory, config, "crashed")
    for message in deliveries[:split]:
        crashed.handle_batch(message)
    crashed.take_snapshot()
    del crashed

    revived = _make_worker(directory, config, "crashed")
    revived_acks = [revived.handle_batch(m) for m in deliveries[split:]]

    assert revived_acks == straight_acks[split:]
    assert revived.stream_seqs == straight.stream_seqs
    assert revived.cursors == straight.cursors
    # Snapshots strip drained (empty) stash entries; only parked
    # batches are observable state.
    def parked(worker):
        return {stream: {seq: chunk.tobytes()
                         for seq, chunk in entries.items()}
                for stream, entries in worker.stash.items() if entries}

    assert parked(revived) == parked(straight)


def test_snapshot_restores_across_kernel_backends(tmp_path):
    """Write here, restore and continue in a fresh interpreter."""
    config = _config()
    deliveries = _schedule(((0.3, 0.6), (0.5,)), list(range(12)), None)
    split = len(deliveries) // 2

    straight = _make_worker(tmp_path, config, "straight")
    straight_acks = [straight.handle_batch(m) for m in deliveries]
    expected = repr([(a.seq, a.applied) for a in straight_acks[split:]])

    crashed = _make_worker(tmp_path, config, "crashed")
    for message in deliveries[:split]:
        crashed.handle_batch(message)
    crashed.take_snapshot()
    del crashed

    snippet = (
        "import sys\n"
        "import numpy as np\n"
        "from pathlib import Path\n"
        f"sys.path.insert(0, {str(REPO_ROOT)!r})\n"
        "from tests.property.test_snapshot_roundtrip import (\n"
        "    _config, _make_worker, _schedule)\n"
        "directory = Path(sys.argv[1])\n"
        "split = int(sys.argv[2])\n"
        "deliveries = _schedule(((0.3, 0.6), (0.5,)), list(range(12)),\n"
        "                       None)\n"
        "worker = _make_worker(directory, _config(), 'crashed')\n"
        "assert worker.restored_seq == split - 1, worker.restored_seq\n"
        "acks = [worker.handle_batch(m) for m in deliveries[split:]]\n"
        "print(repr([(a.seq, a.applied) for a in acks]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-c", snippet, str(tmp_path), str(split)],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True,
        timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == expected
