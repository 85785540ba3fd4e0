"""How the supervisor collects a shard's round.

``submit()`` stages each accepted batch in its shard's outbox, and the
outbox goes down as one ``Round`` message when it holds a batch of every
stream of the shard, before a second batch of a stream it already holds,
around a crash-carrying batch (which travels alone), and in ``drain()``
and graceful ``shutdown()``.  Here a one-shard fleet with four streams
records the rounds it enqueues.  That a round of deliveries is applied
like the same deliveries one by one is the ``worker`` engine's part of
the conformance oracle (``tests/conformance/``).
"""

import numpy as np
import pytest

from repro.faults.service import ServiceFaultPlan, WorkerCrash
from repro.serve import FleetSupervisor, Round, ServeConfig

STREAMS = ("a", "b", "c", "d")


@pytest.fixture
def rounds_of(tmp_path, monkeypatch):
    """Start a one-shard fleet; returns it and the seqs of each round
    it enqueues, in order."""
    fleets = []

    def start(faults=None):
        fleet = FleetSupervisor(ServeConfig(n_shards=1), list(STREAMS),
                                str(tmp_path), faults=faults)
        sent = []
        enqueue = fleet._enqueue

        def recording_enqueue(state, message):
            assert isinstance(message, Round)
            sent.append([batch.seq for batch in message.batches])
            return enqueue(state, message)

        monkeypatch.setattr(fleet, "_enqueue", recording_enqueue)
        fleets.append(fleet)
        fleet.start()
        return fleet, sent

    yield start
    for fleet in fleets:
        fleet.shutdown(graceful=False)


def submit(fleet, streams):
    for stream in streams:
        assert fleet.submit(stream, np.arange(1, 9, dtype=np.int64))


class TestCollectRound:
    def test_distinct_streams_merge_into_one_round(self, rounds_of):
        fleet, sent = rounds_of()
        submit(fleet, ("b", "d", "a"))
        assert sent == []  # stream c is still to come
        submit(fleet, ("c",))
        assert sent == [[0, 1, 2, 3]]

    def test_repeated_stream_ends_the_round(self, rounds_of):
        fleet, sent = rounds_of()
        submit(fleet, ("a", "b", "a", "c"))
        assert sent == [[0, 1]]  # the second "a" opened the next round
        fleet.drain(timeout=60.0)
        assert sent == [[0, 1], [2, 3]]

    def test_drain_flushes_a_partial_round(self, rounds_of):
        fleet, sent = rounds_of()
        submit(fleet, ("c", "a"))
        fleet.drain(timeout=60.0)
        assert sent == [[0, 1]]
        assert fleet.outstanding == 0

    def test_shutdown_ends_the_round(self, rounds_of):
        fleet, sent = rounds_of()
        submit(fleet, ("a", "b", "c"))
        assert fleet.shutdown(graceful=True) == {0: 0}
        assert sent == [[0, 1, 2]]
        assert fleet.outstanding == 0  # the final round was acked

    def test_crash_delivery_ends_the_round(self, rounds_of):
        fleet, sent = rounds_of(ServiceFaultPlan((
            WorkerCrash(shard=0, at_seq=2),)))
        submit(fleet, ("a", "b", "c", "d"))
        assert sent == [[0, 1], [2]]  # the crash batch went alone
        fleet.drain(timeout=60.0)
        # then the rest, then the respawned worker's replay: the crash
        # fired, so batch 2 no longer travels alone
        assert sent == [[0, 1], [2], [3], [0, 1, 2, 3]]
        assert fleet.summary()["restarts"] == 1

    def test_lone_batch_is_a_round_of_one(self, rounds_of):
        fleet, sent = rounds_of()
        submit(fleet, ("d",))
        fleet.drain(timeout=60.0)
        assert sent == [[0]]
