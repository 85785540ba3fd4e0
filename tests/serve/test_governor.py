"""Stream governor: suspension backoff, re-admission, blacklisting."""

from repro.faults.service import QueueStall, ServiceFaultPlan
from repro.monitor.watchdog import WatchdogAction, WatchdogConfig
from repro.serve import FleetSupervisor, reference_events
from repro.serve.governor import StreamGovernor
from tests.conformance.scenarios import Lane, Scenario


def make_governor(retry_budget=3, backoff_intervals=4, backoff_factor=2.0):
    return StreamGovernor(WatchdogConfig(
        retry_budget=retry_budget, backoff_intervals=backoff_intervals,
        backoff_factor=backoff_factor))


def test_unknown_streams_are_allowed():
    governor = make_governor()
    assert governor.allows("s0", 0)
    assert governor.events == []


def test_trip_suspends_with_growing_backoff():
    governor = make_governor(backoff_intervals=4, backoff_factor=2.0)
    first = governor.trip("s0", 10)
    assert first.action is WatchdogAction.DEOPTIMIZE
    assert not governor.allows("s0", 11)
    assert not governor.allows("s0", 13)
    assert governor.allows("s0", 14)  # 10 + 4
    second = governor.trip("s0", 20)
    assert second.action is WatchdogAction.DEOPTIMIZE
    assert not governor.allows("s0", 27)
    assert governor.allows("s0", 28)  # 20 + 4*2


def test_readmission_emits_a_retry_event():
    governor = make_governor()
    governor.trip("s0", 0)
    assert governor.allows("s0", 100)
    actions = [e.action for e in governor.events]
    assert actions == [WatchdogAction.DEOPTIMIZE, WatchdogAction.RETRY]
    retry = governor.events[-1]
    assert "s0" in retry.detail


def test_budget_exhaustion_blacklists_for_good():
    governor = make_governor(retry_budget=2)
    governor.trip("s0", 0)
    assert governor.allows("s0", 1000)
    event = governor.trip("s0", 1001)
    assert event.action is WatchdogAction.GIVE_UP
    assert governor.is_blacklisted("s0")
    assert not governor.allows("s0", 10_000)


def test_streams_are_governed_independently():
    governor = make_governor()
    governor.trip("s0", 10)
    assert governor.allows("s1", 11)
    assert not governor.allows("s0", 11)


def test_escalation_ladder_suspend_then_blacklist():
    # The full degradation ladder for one stream: each trip doubles the
    # backoff, and the trip that exhausts the budget blacklists instead
    # of suspending — with the event sequence telling the whole story.
    governor = make_governor(retry_budget=3, backoff_intervals=4,
                             backoff_factor=2.0)
    governor.trip("s0", 0)                 # trip 1: suspended until 4
    assert not governor.allows("s0", 3)
    assert governor.allows("s0", 4)        # re-admitted (RETRY)
    governor.trip("s0", 10)                # trip 2: suspended until 18
    assert not governor.allows("s0", 17)
    assert governor.allows("s0", 18)       # re-admitted (RETRY)
    event = governor.trip("s0", 20)        # trip 3 == budget: blacklist
    assert event.action is WatchdogAction.GIVE_UP
    assert governor.is_blacklisted("s0")
    # Blacklisting is terminal: no backoff ever re-admits the stream.
    assert not governor.allows("s0", 10**9)
    assert [e.action for e in governor.events] == [
        WatchdogAction.DEOPTIMIZE, WatchdogAction.RETRY,
        WatchdogAction.DEOPTIMIZE, WatchdogAction.RETRY,
        WatchdogAction.GIVE_UP]


def test_minimal_backoff_still_suspends_one_sequence():
    # The smallest legal config (intervals=1, factor=1.0): every trip
    # suspends for exactly one dispatch sequence — never a no-op.
    governor = make_governor(retry_budget=5, backoff_intervals=1,
                             backoff_factor=1.0)
    governor.trip("s0", 7)
    assert not governor.allows("s0", 7)
    assert governor.allows("s0", 8)


def test_suspension_boundary_uses_trip_sequence_not_wall_clock():
    # suspended_until is the trip's clock + backoff, counted in the
    # *submits its shard receives*; re-admission at exactly the
    # boundary is inclusive.
    governor = make_governor(backoff_intervals=8, backoff_factor=2.0)
    governor.trip("s0", 100)
    assert not governor.allows("s0", 107)
    assert governor.allows("s0", 108)
    retry = governor.events[-1]
    assert retry.action is WatchdogAction.RETRY
    assert retry.interval_index == 108


def test_summary_counts_each_outcome():
    governor = make_governor(retry_budget=2)
    governor.trip("s0", 0)          # suspension
    governor.allows("s0", 1000)     # re-admission
    governor.trip("s0", 1001)       # blacklist (GIVE_UP, not a suspension)
    governor.trip("s1", 5)          # suspension
    assert governor.summary() == {
        "governed_streams": 2,
        "suspensions": 2,
        "readmissions": 1,
        "blacklisted": 1,
    }


#: Two streams on one shard, forty one-interval batches each.
STALLED = Scenario("stalled-shard", (Lane(seed=7, limit=40 * 504),
                                     Lane(seed=8, limit=40 * 504)),
                   chunk=504)


def test_a_fully_suspended_shard_readmits_its_streams(tmp_path):
    # The worker stalls on the first round while the second fills the
    # one-round queue, so the third round cannot go down: lane1, whose
    # batch completed it, trips, and a tick later so does lane0, whose
    # batch must follow that round.  With both streams suspended the
    # shard accepts nothing, so only the shed submits can age their
    # backoff.  The drain waits out the stall and delivers the staged
    # round; from then on both streams must be readmitted and accepted.
    batches = STALLED.batches()
    config = STALLED.serve_config(n_shards=1, queue_capacity=1,
                                  dispatch_timeout=0.3, dispatch_retries=1)
    fleet = FleetSupervisor(
        config, list(batches), str(tmp_path),
        faults=ServiceFaultPlan((QueueStall(shard=0, at_seq=0,
                                            stall_seconds=2.0),)))
    accepted = dict.fromkeys(batches, 0)
    try:
        fleet.start()
        for tick in range(40):
            for stream, chunks in batches.items():
                if fleet.submit(stream, chunks[accepted[stream]]):
                    accepted[stream] += 1
            if tick == 9:
                fleet.drain(timeout=60.0)
                after_stall = dict(accepted)
        fleet.drain(timeout=60.0)
        events = {stream: fleet.stream_events(stream) for stream in batches}
        summary = fleet.summary()
    finally:
        exit_codes = fleet.shutdown(graceful=True)
    assert exit_codes == {0: 0}
    for stream in batches:
        actions = [event.action for event in fleet.governor_events()
                   if event.detail.startswith(f"stream={stream},")]
        assert WatchdogAction.DEOPTIMIZE in actions
        assert WatchdogAction.RETRY in actions
        assert WatchdogAction.GIVE_UP not in actions
        assert accepted[stream] > after_stall[stream]
    assert summary["divergences"] == 0
    assert events == reference_events(
        config, {stream: chunks[:accepted[stream]]
                 for stream, chunks in batches.items()})
