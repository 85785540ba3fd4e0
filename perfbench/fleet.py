"""The ``fleet`` workload: the multi-tenant batch path, lanes in to events out.

One pass admits every lane of a fresh :class:`~repro.batch.BatchSession`
(``add_lane``, per-lane fault injection, ``feed_many``) and then runs
``process_ready`` — the ``extra_fleet._run_fleet`` pattern.  A step is
the admission of ``faulted_every`` consecutive lanes, the last of them
faulted, so every step does the same mix of work.  Lanes draw
round-robin from a pool of mcf streams simulated in setup; every
``faulted_every``-th lane runs behind a bursty ``SampleDrop``.  After the
timed span the finished session is snapshotted, and recovery restores it
from that snapshot and completes one more interval on every lane.
"""

from __future__ import annotations

import gc
import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.batch.session import BatchLane, BatchSession
from repro.core.thresholds import DEFAULT_BUFFER_SIZE
from repro.experiments.config import BASE_PERIOD
from repro.faults import FaultPlan, SampleDrop
from repro.faults.inject import inject
from repro.monitor.online import OnlineSession
from repro.program.spec2000 import get_benchmark
from repro.sampling import SampleStream, simulate_sampling
from repro.serve import (ShardSnapshot, decode_snapshot, encode_snapshot,
                         extract_lane_events)

import sizes

NAME = "fleet"
BENCHMARK = "181.mcf"
FAULT_PLAN = FaultPlan((SampleDrop(rate=0.20, burst_mean=4.0),))

#: Most of the time goes to ``ShardRing.add_lane``'s array copies, whose
#: speed ``reference.py``'s loop does not track: scaled by it, the spread
#: of ``wall_s`` over ten runs doubled.  The times are reported raw.
INTERPRETER_BOUND = False

#: Restores per pass; the pass reports the fastest, because one restore
#: takes well under a second and a single reading follows host noise.
RESTORES = 3


@dataclass(frozen=True)
class Size:
    lanes: int = 256
    pool: int = 16
    intervals: int = 12          # fed to each lane in the timed span
    faulted_every: int = 4
    pool_scale: float = 0.05     # length of the simulated pool streams
    replayed_lanes: int = 3      # replayed through the scalar session

    def __post_init__(self) -> None:
        for name in ("lanes", "pool", "intervals", "faulted_every",
                     "replayed_lanes"):
            sizes.positive_int(name, getattr(self, name))
        sizes.scale("pool_scale", self.pool_scale)
        if self.replayed_lanes > self.lanes:
            raise ValueError("replayed_lanes cannot exceed lanes")


@dataclass
class Prepared:
    seed: int
    size: Size
    binary: object
    pool: list[SampleStream]
    buffer_size: int = DEFAULT_BUFFER_SIZE
    replay_pending: bool = True  # the scalar replay runs on one pass


@dataclass
class PassResult:
    wall_s: float
    span_s: float
    intervals: int
    step_s: list[float]
    recovery_s: list[float]  # one part: the fastest restore
    lane_digests: list[str] = field(repr=False)
    recovered_intervals: list[int] = field(repr=False)
    replay_mismatches: int = 0
    layer_extras: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0  # set by measure.py


def prepare(seed: int, size: Size = Size()) -> Prepared:
    """Simulate the stream pool (one PMU seed per pool stream)."""
    model = get_benchmark(BENCHMARK, scale=size.pool_scale)
    pool = [simulate_sampling(model.regions, model.workload, BASE_PERIOD,
                              seed=seed + i) for i in range(size.pool)]
    return Prepared(seed, size, model.binary, pool)


def _plan(size: Size, lane_index: int) -> FaultPlan | None:
    return (FAULT_PLAN if lane_index % size.faulted_every
            == size.faulted_every - 1 else None)


def _lane_samples(prepared: Prepared, lane_index: int) -> np.ndarray:
    """The lane's (fault-injected) samples: timed intervals plus one."""
    stream = prepared.pool[lane_index % len(prepared.pool)]
    plan = _plan(prepared.size, lane_index)
    if plan is not None:
        stream = inject(stream, plan, seed=prepared.seed + lane_index)
    needed = (prepared.size.intervals + 1) * prepared.buffer_size
    if stream.pcs.size < needed:
        raise ValueError(
            f"lane {lane_index}: stream holds {stream.pcs.size} samples, "
            f"needs {needed}; raise pool_scale")
    return stream.pcs[:needed]


def lane_digest(lane: BatchLane) -> str:
    """Digest of one lane's counters and canonical event records."""
    events, _ = extract_lane_events(lane)
    stats = lane.stats
    blob = repr((stats.intervals, stats.samples, stats.global_events,
                 stats.local_events, events)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run_pass(prepared: Prepared, tracer=nullcontext) -> PassResult:
    """One timed fleet pass, then the snapshot-restore recoveries.

    *tracer* is a context manager around the timed span.  The first pass
    also replays the first lanes through the scalar session, untimed.
    """
    size = prepared.size
    timed_samples = size.intervals * prepared.buffer_size
    clock = time.perf_counter
    step_s: list[float] = []
    next_round: list[np.ndarray] = []
    with tracer():
        started = clock()
        session = BatchSession(binary=prepared.binary)
        for lane_index in range(size.lanes):
            if lane_index % size.faulted_every == 0:
                admitted = clock()
            lane = session.add_lane(name=f"lane{lane_index}")
            samples = _lane_samples(prepared, lane_index)
            lane.feed_many(samples[:timed_samples])
            next_round.append(samples[timed_samples:])
            if _plan(size, lane_index) is not None:
                step_s.append(clock() - admitted)
        session.process_ready()
        wall = clock() - started
    intervals = sum(lane.stats.intervals for lane in session.lanes)
    digests = [lane_digest(lane) for lane in session.lanes]
    mismatches = 0
    if prepared.replay_pending:
        prepared.replay_pending = False
        mismatches = _replay_mismatches(prepared, session)
    names = tuple(lane.name for lane in session.lanes)
    blob = encode_snapshot(ShardSnapshot(
        shard_id=0, applied_through=-1, stream_seqs={}, stash={},
        event_cursors={}, lane_names=names, session=session))
    del session
    recoveries = []
    for _ in range(RESTORES):
        gc.collect()  # the checks' garbage is not recovery's cost
        started = clock()
        restored = decode_snapshot(blob).session
        for lane, samples in zip(restored.lanes, next_round):
            lane.feed_many(samples)
        restored.process_ready()
        recoveries.append(clock() - started)
        recovered = [lane.stats.intervals for lane in restored.lanes]
        del restored
    return PassResult(wall, wall, intervals, step_s,
                      [min(recoveries)], digests, recovered,
                      mismatches)


def _replay_mismatches(prepared: Prepared, session: BatchSession) -> int:
    """Lanes whose scalar ``OnlineSession`` replay disagrees.

    The comparison rule is ``extra_fleet._conformance_check``'s: interval
    and event counters, every report's events and region samples, and the
    global detector's events.
    """
    timed_samples = prepared.size.intervals * prepared.buffer_size
    mismatches = 0
    for lane_index in range(prepared.size.replayed_lanes):
        lane = session.lanes[lane_index]
        scalar = OnlineSession(binary=prepared.binary)
        scalar.feed_many(_lane_samples(prepared, lane_index)[:timed_samples])
        same = (scalar.stats.intervals == lane.stats.intervals
                and scalar.stats.global_events == lane.stats.global_events
                and scalar.stats.local_events == lane.stats.local_events
                and len(scalar.reports) == len(lane.reports)
                and all(a.events == b.events
                        and a.region_samples == b.region_samples
                        for a, b in zip(scalar.reports, lane.reports))
                and scalar.gpd.events == lane.gpd.events)
        mismatches += not same
    return mismatches


def digests(result: PassResult) -> list[str]:
    """Per-lane event digests of the pass."""
    return result.lane_digests


def failures(prepared: Prepared, result: PassResult,
             expected: list[str]) -> tuple[int, int]:
    """(lanes attempted, lanes failed) for one pass.

    A lane fails when its digest differs from *expected* (the committed
    digests for the default seed, the first pass's on any other seed),
    when recovery did not complete exactly one more interval on it, or
    when its scalar replay disagreed.
    """
    target = prepared.size.intervals + 1
    failed = sum(1 for digest, want, recovered in
                 zip(result.lane_digests, expected,
                     result.recovered_intervals)
                 if digest != want or recovered != target)
    failed += abs(len(result.lane_digests) - len(expected))
    failed += result.replay_mismatches
    return prepared.size.lanes, min(prepared.size.lanes, failed)
