"""The queue-drain step that forms worker rounds.

:func:`~repro.serve.worker.collect_round` takes a delivery plus every
message already queued behind it, one per stream; here it runs on a
``queue.Queue``.  That a round of deliveries is applied like the same
deliveries one by one is the ``worker`` engine's part of the
conformance oracle (``tests/conformance/``).
"""

import queue

import numpy as np

from repro.faults.service import WorkerCrash
from repro.serve import Shutdown
from repro.serve.messages import Batch
from repro.serve.worker import collect_round


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
