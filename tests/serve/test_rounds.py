"""Rounds end to end: one message per shard round, staged batches,
backpressure on a round, and the one copy of an accepted batch.

Every fleet here that finishes its run is held to
:func:`~repro.serve.reference_events` over the batches it accepted.
"""

import numpy as np
import pytest

from repro.faults.service import QueueStall, ServiceFaultPlan
from repro.monitor.watchdog import WatchdogAction
from repro.serve import FleetSupervisor, reference_events
from repro.serve.snapshot import SnapshotStore
from tests.conformance.scenarios import Lane, Scenario

#: Six streams over three PMU seeds, twelve intervals in six batches each.
SCENARIO = Scenario("rounds", tuple(
    Lane(seed=7 + i % 3, limit=12 * 2032) for i in range(6)),
    buffer_size=2032, chunk=2 * 2032)
TICKS = 6


@pytest.fixture(scope="module")
def batches():
    return SCENARIO.batches()


def make_fleet(batches, snapshot_dir, faults=None, **knobs):
    return FleetSupervisor(SCENARIO.serve_config(n_shards=1, **knobs),
                           list(batches), str(snapshot_dir), faults=faults)


def round_batches(fleet):
    return fleet.metrics.histogram("repro_serve_round_batches", shard="0")


def test_one_submit_per_stream_tick_is_one_round(tmp_path, batches):
    fleet = make_fleet(batches, tmp_path)
    rng = np.random.default_rng(3)
    try:
        fleet.start()
        for tick in range(TICKS):
            # the order of the tick's calls does not matter
            for stream in rng.permutation(list(batches)):
                assert fleet.submit(str(stream), batches[stream][tick])
            fleet.drain(timeout=60.0)
            histogram = round_batches(fleet)
            assert (histogram.n, histogram.total) == (tick + 1,
                                                      6 * (tick + 1))
        events = {stream: fleet.stream_events(stream) for stream in batches}
    finally:
        exit_codes = fleet.shutdown(graceful=True)
    assert histogram.counts[histogram.bounds.index(8.0)] == TICKS  # 4 < 6 <= 8
    assert fleet.summary()["batches_per_round"] == {0: 6.0}
    assert exit_codes == {0: 0}
    assert events == reference_events(SCENARIO.serve_config(), batches)


def test_graceful_shutdown_flushes_staged_batches(tmp_path, batches):
    fleet = make_fleet(batches, tmp_path)
    staged = list(batches)[:4]
    try:
        fleet.start()
        for stream in staged:
            assert fleet.submit(stream, batches[stream][0])
        assert round_batches(fleet).n == 0  # two streams still to come
    finally:
        exit_codes = fleet.shutdown(graceful=True)
    assert exit_codes == {0: 0}
    assert round_batches(fleet).n == 1
    snapshot, _ = SnapshotStore(tmp_path, 0).load_latest()
    assert snapshot.applied_through == len(staged) - 1
    assert snapshot.stream_seqs == {stream: int(stream in staged)
                                    for stream in batches}


def test_unsendable_round_trips_the_submitting_stream(tmp_path, batches):
    # The worker stalls on the first round while the second fills the
    # one-round queue, so the third, completed by lane5's batch, cannot
    # be enqueued: lane5's governor trips at the shard's 18th submit,
    # clock 17 (resume at 17 + 8), the round stays staged, and lane5 is
    # shed at admission until the clock reaches 25.  Draining delivers
    # the staged round and trips nothing.  The second round's put waits
    # up to a second for the worker to take the first.
    fleet = make_fleet(
        batches, tmp_path, queue_capacity=1, dispatch_timeout=1.0,
        dispatch_retries=1,
        faults=ServiceFaultPlan((QueueStall(shard=0, at_seq=0,
                                            stall_seconds=2.0),)))
    accepted = dict.fromkeys(batches, 0)

    def tick():
        # Each stream offers its first batch not yet accepted.
        for stream, chunks in batches.items():
            if accepted[stream] < len(chunks) \
                    and fleet.submit(stream, chunks[accepted[stream]]):
                accepted[stream] += 1

    def decisions():
        return [(event.action, event.interval_index,
                 event.detail.split(",")[0])
                for event in fleet.governor_events()]

    try:
        fleet.start()
        for _ in range(3):
            tick()
        assert accepted == dict.fromkeys(batches, 3)
        assert decisions() == [(WatchdogAction.DEOPTIMIZE, 17,
                                "stream=lane5")]
        assert round_batches(fleet).n == 2
        assert not fleet.submit("lane5", batches["lane5"][3])
        fleet.drain(timeout=60.0)
        assert round_batches(fleet).n == 3
        assert len(decisions()) == 1
        for _ in range(4):  # lane5 is shed at clock 24, readmitted at 30
            tick()
        assert accepted == dict.fromkeys(batches, TICKS)
        fleet.drain(timeout=60.0)
        events = {stream: fleet.stream_events(stream) for stream in batches}
        summary = fleet.summary()
    finally:
        exit_codes = fleet.shutdown(graceful=True)
    assert exit_codes == {0: 0}
    assert decisions() == [
        (WatchdogAction.DEOPTIMIZE, 17, "stream=lane5"),
        (WatchdogAction.RETRY, 30, "stream=lane5")]
    assert summary["submitted"] == 6 * TICKS and summary["evicted"] == 2
    assert round_batches(fleet).total == 6 * TICKS  # each sent once
    assert summary["divergences"] == 0
    assert events == reference_events(SCENARIO.serve_config(), batches)


def test_an_accepted_batch_is_copied_once(tmp_path, batches):
    fleet = make_fleet(batches, tmp_path)  # never started: nothing is sent
    samples = np.array(batches["lane0"][0])
    expected = samples.copy()
    try:
        assert fleet.submit("lane0", samples)
        samples[:] = 0  # the caller reuses its buffer
        state = fleet._shards[0]
        [staged] = state.outbox.batches
        [entry] = state.journal.entries_after(-1)
    finally:
        fleet.shutdown(graceful=False)
    assert staged.samples is entry.samples
    assert not entry.samples.flags.writeable
    np.testing.assert_array_equal(entry.samples, expected)
