"""Churn conformance: the regrouper's cached plans under live mutation.

Hypothesis interleaves detector resets, manual quarantines/releases and
watchdog-driven quarantines (via faulted lanes) between interval rounds
of a :class:`~repro.batch.session.BatchSession`, with every mutation
applied identically to per-lane scalar twins.  Two properties must
survive any interleaving:

* every lane stays bit-identical to its scalar
  :class:`~repro.monitor.online.OnlineSession` twin — events, states,
  stable sets, telemetry;
* the fleet ends re-coalesced: plan rebuilds re-compact the stable-set
  stores, so churn may not leave the session degraded to ragged gathers
  (``FleetRegrouper.coalesced``).

A pickled session (a serve shard snapshot) leaves the cached plan
behind; the restored session rebuilds it and must continue exactly like
the original.
"""

import pickle
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import BatchSession
from repro.errors import RegionError
from repro.faults.inject import inject
from repro.monitor.online import OnlineSession
from repro.monitor.watchdog import WatchdogConfig
from repro.telemetry.bus import EventBus
from tests.batch.test_session_conformance import (THRESHOLDS,
                                                  assert_lane_matches_scalar,
                                                  lane_streams, traced_bus)
from tests.conftest import drop_plan

N_LANES = 3
CHUNK = THRESHOLDS.buffer_size  # one interval per lane per round
ACTIONS = ("none", "reset", "quarantine", "release")


def _churn(data, monitors):
    """Draw one mutation and apply it to every monitor identically.

    All monitors are twins of the same lane (scalar + batch), so the
    rid chosen from the first is valid — and must behave identically —
    in all of them.
    """
    action = data.draw(st.sampled_from(ACTIONS), label="action")
    if action == "none":
        return
    pick = data.draw(st.integers(min_value=0, max_value=31), label="pick")
    if action == "release":
        pool = [r.rid for r in monitors[0].quarantined_regions()]
    else:
        pool = [r.rid for r in monitors[0].live_regions()]
    if not pool:
        return
    rid = pool[pick % len(pool)]
    outcomes = []
    for monitor in monitors:
        try:
            if action == "reset":
                monitor.reset_detector(rid)
            elif action == "quarantine":
                monitor.quarantine(rid)
            else:
                monitor.release(rid)
            outcomes.append(True)
        except RegionError:
            # e.g. releasing a region whose span was re-formed while it
            # sat in quarantine — legal, but it must fail identically
            # in every twin
            outcomes.append(False)
    assert len(set(outcomes)) == 1, outcomes


class TestChurnedFleet:
    @given(st.data())
    @settings(max_examples=5, deadline=None)
    def test_lanes_match_scalar_twins_and_recoalesce(self, data):
        model, streams = lane_streams(N_LANES)
        plans = [None, drop_plan(0.25, 4.0), None]
        watchdog = WatchdogConfig()
        feeds = [inject(stream, plan, seed=7).pcs if plan else stream.pcs
                 for stream, plan in zip(streams, plans)]
        n_rounds = min(12, min(pcs.size for pcs in feeds) // CHUNK)

        scalar_sessions, scalar_sinks = [], []
        for _ in range(N_LANES):
            bus, sink = traced_bus()
            scalar_sessions.append(
                OnlineSession(binary=model.binary,
                              monitor_thresholds=THRESHOLDS,
                              watchdog=watchdog, telemetry=bus))
            scalar_sinks.append(sink)

        batch = BatchSession(binary=model.binary,
                             monitor_thresholds=THRESHOLDS,
                             watchdog=watchdog)
        lane_sinks = []
        for _ in range(N_LANES):
            bus, sink = traced_bus()
            batch.add_lane(telemetry=bus)
            lane_sinks.append(sink)

        for round_index in range(n_rounds):
            lo, hi = round_index * CHUNK, (round_index + 1) * CHUNK
            for scalar, lane, pcs in zip(scalar_sessions, batch.lanes,
                                         feeds):
                scalar.feed_many(pcs[lo:hi])
                lane.feed_many(pcs[lo:hi])
            batch.process_ready()
            # mutate between rounds: the cached plan must either survive
            # (resets) or rebuild (membership changes), never diverge
            lane = data.draw(
                st.integers(min_value=0, max_value=N_LANES - 1),
                label="lane")
            _churn(data, [scalar_sessions[lane].monitor,
                          batch.lanes[lane].monitor])

        for i in range(N_LANES):
            assert_lane_matches_scalar(scalar_sessions[i], batch.lanes[i],
                                       scalar_sinks[i], lane_sinks[i])
        # churn must not leave the fleet on the ragged slow path: the
        # last plan was rebuilt with compaction, so it runs on slices
        assert batch._regrouper.coalesced
        # plans are cached: far fewer rebuilds than rounds stepped
        assert batch._regrouper.rebuilds <= n_rounds


class TestPlanFreePickle:
    def test_restored_session_rebuilds_the_plan_bit_identically(self):
        model, streams = lane_streams(N_LANES)
        plans = [None, drop_plan(0.25, 4.0), None]
        feeds = [inject(stream, plan, seed=7).pcs if plan else stream.pcs
                 for stream, plan in zip(streams, plans)]
        n_rounds = min(12, min(pcs.size for pcs in feeds) // CHUNK)
        session = BatchSession(binary=model.binary,
                               monitor_thresholds=THRESHOLDS,
                               watchdog=WatchdogConfig(),
                               telemetry=EventBus())
        for _ in range(N_LANES):
            session.add_lane()

        def step(target, rounds):
            for r in rounds:
                for lane, pcs in zip(target.lanes, feeds):
                    lane.feed_many(pcs[r * CHUNK:(r + 1) * CHUNK])
                target.process_ready()

        step(session, range(n_rounds // 2))
        assert session._regrouper._plan is not None
        restored = pickle.loads(pickle.dumps(session))
        assert restored._regrouper._plan is None
        assert session._regrouper._plan is not None  # the live one keeps it

        step(session, range(n_rounds // 2, n_rounds))
        step(restored, range(n_rounds // 2, n_rounds))
        assert restored._regrouper._plan is not None
        untraced = SimpleNamespace(events=[])
        for original, twin in zip(session.lanes, restored.lanes):
            assert_lane_matches_scalar(original, twin, untraced, untraced)
