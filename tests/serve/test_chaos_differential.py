"""The headline robustness proof: crashed fleet == clean single process.

A 256-stream sharded run with two injected worker crashes (one of them
before its ack escapes), a torn snapshot write, and delivery-layer chaos
must produce, for every stream, an event sequence bit-identical to one
clean in-process :class:`~repro.batch.session.BatchSession` fed the same
batches.
"""

import numpy as np
import pytest

from tests.conftest import model_stream

from repro.faults.service import (DuplicateDelivery, ReorderDelivery,
                                  ServiceFaultPlan, TornSnapshot,
                                  WorkerCrash)
from repro.serve import (FleetSupervisor, ServeConfig, build_shard_session,
                         extract_lane_events)

N_STREAMS = 256
N_SHARDS = 4
STREAM_POOL = 8
INTERVALS_PER_STREAM = 6  # deep enough that detectors emit real events
BATCHES_PER_STREAM = 3

CHAOS_PLAN = ServiceFaultPlan((
    WorkerCrash(shard=0, at_seq=30),
    WorkerCrash(shard=2, at_seq=45, before_ack=True),
    TornSnapshot(shard=1, at_seq=16, truncate=0.6),
    DuplicateDelivery(shard=3, at_seq=12, copies=3),
    ReorderDelivery(shard=3, at_seq=20, depth=2),
))


@pytest.fixture(scope="module")
def fixture_batches():
    model, _ = model_stream("181.mcf")
    budget = INTERVALS_PER_STREAM * 2032
    pool = [model_stream("181.mcf", seed=7 + i)[1].pcs[:budget]
            for i in range(STREAM_POOL)]
    batches = {}
    for i in range(N_STREAMS):
        chunks = [np.asarray(c, dtype=np.int64) for c in
                  np.array_split(pool[i % STREAM_POOL], BATCHES_PER_STREAM)
                  if c.size]
        batches[f"stream{i:03d}"] = chunks
    return model, batches


@pytest.fixture(scope="module")
def oracle(fixture_batches):
    """Per-stream event sequences from one clean in-process session."""
    model, batches = fixture_batches
    config = ServeConfig(binary=model.binary, n_shards=N_SHARDS)
    streams = tuple(batches)
    session = build_shard_session(config, streams)
    for lane, stream in zip(session.lanes, streams):
        for chunk in batches[stream]:
            lane.feed_many(chunk)
            session.process_ready()
    return {stream: extract_lane_events(lane)[0]
            for lane, stream in zip(session.lanes, streams)}


def run_fleet(model, batches, faults, snapshot_dir):
    # dispatch_retries is raised from the default: CI runners can be
    # heavily oversubscribed (4 workers + pytest on few cores), and a
    # governor trip here fails the differential rather than exercising
    # degradation — tests/serve/test_governor.py covers shedding.
    config = ServeConfig(binary=model.binary, n_shards=N_SHARDS,
                         snapshot_every=8, queue_capacity=128,
                         dispatch_retries=8)
    fleet = FleetSupervisor(config, list(batches), str(snapshot_dir),
                            faults=faults)
    try:
        fleet.start()
        rounds = max(len(chunks) for chunks in batches.values())
        for round_index in range(rounds):
            for stream, chunks in batches.items():
                if round_index < len(chunks):
                    assert fleet.submit(stream, chunks[round_index])
        fleet.drain(timeout=120.0)
        events = {stream: fleet.stream_events(stream) for stream in batches}
        summary = fleet.summary()
    except BaseException:
        # Reap the workers before the failure propagates: daemon
        # children left running would meet the interpreter's unbounded
        # exit-time joins and turn this failure into a silent hang.
        fleet.shutdown(graceful=False)
        raise
    exit_codes = fleet.shutdown(graceful=True)
    return events, summary, exit_codes


def test_chaotic_fleet_matches_clean_session(tmp_path, fixture_batches,
                                             oracle):
    model, batches = fixture_batches
    events, summary, exit_codes = run_fleet(model, batches, CHAOS_PLAN,
                                            tmp_path)
    # The chaos actually happened: both crashes and the torn snapshot
    # each cost one incarnation.
    assert summary["restarts"] >= 3
    # Recovery was deterministic: replayed acks never disagreed with
    # the originals, and the final workers exited cleanly.
    assert summary["divergences"] == 0
    assert summary["evicted"] == 0
    assert all(code in (0, None) for code in exit_codes.values())
    # The differential core: every stream, record for record.
    assert set(events) == set(oracle)
    mismatched = [s for s in oracle if events[s] != oracle[s]]
    assert mismatched == []
    assert any(len(oracle[s]) > 0 for s in oracle)


def test_clean_fleet_matches_clean_session(tmp_path, fixture_batches,
                                           oracle):
    model, batches = fixture_batches
    events, summary, exit_codes = run_fleet(model, batches,
                                            ServiceFaultPlan(), tmp_path)
    assert summary["restarts"] == 0
    assert summary["divergences"] == 0
    assert all(code in (0, None) for code in exit_codes.values())
    assert events == oracle
