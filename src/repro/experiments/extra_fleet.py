"""Bonus experiment: multi-tenant fleet monitoring with the batch backend.

Not a paper figure — it demonstrates the scenario the batch backend
exists for: one optimizer process supervising *many* concurrent
application streams (a datacenter-style fleet), each with its own region
monitor, global detector, watchdog and fault exposure, all advanced in
lockstep by :class:`repro.batch.session.BatchSession`.

The sweep runs rungs of 64, 256 and 1024 concurrent streams.  Distinct
PMU seeds give every lane its own sample stream (drawn from a small pool
of simulated runs to keep setup affordable), and every fourth lane runs
behind a bursty sample-drop fault plan, so the fleet exercises the
ragged, partially-degraded mix the backend must handle.  On the smallest
rung a handful of lanes are re-run through the scalar
:class:`~repro.monitor.online.OnlineSession` and compared event-for-event
— the equivalence contract, spot-checked inside the experiment itself.
The full proof is the conformance oracle in ``tests/conformance/``: it
holds the ``batch``, ``worker`` and ``fleet`` engines to the ``scalar``
pipeline over every spec2000 model, fault plans, ragged feeds and churn.

Statistics only — throughput is measured by the repo benchmark's
``fleet`` workload (``perfbench/``) and gated by
``scripts/perf_gates.py``, never by wall-clock reads here.
"""

from __future__ import annotations

from repro.batch.session import BatchSession
from repro.experiments.base import ExperimentResult, benchmark_for
from repro.experiments.config import (BASE_PERIOD, DEFAULT_CONFIG,
                                      ExperimentConfig)
from repro.faults import FaultPlan, SampleDrop
from repro.faults.inject import inject
from repro.monitor.online import OnlineSession
from repro.sampling import simulate_sampling

EXPERIMENT_ID = "fleet"
TITLE = "Batch-backend fleet: concurrent monitored streams"

#: Fleet sizes swept (streams advanced in lockstep per rung).
RUNGS = (64, 256, 1024)

#: Distinct simulated streams; lanes draw from this pool round-robin.
STREAM_POOL = 16

#: Every Nth lane runs behind this fault plan (bursty interrupt loss).
FAULTED_EVERY = 4
FAULT_PLAN = FaultPlan((SampleDrop(rate=0.20, burst_mean=4.0),))

#: Intervals each lane contributes (streams shorter than this just end
#: early — the ragged case).
INTERVALS_PER_LANE = 12

#: Lanes of the smallest rung replayed through the scalar session.
CONFORMANCE_LANES = 3


def _stream_pool(model, config: ExperimentConfig, n: int):
    """*n* distinct streams of the same benchmark (different PMU seeds)."""
    return [simulate_sampling(model.regions, model.workload, BASE_PERIOD,
                              seed=config.seed + i) for i in range(n)]


def _lane_samples(stream, config: ExperimentConfig):
    """The slice of *stream* one lane feeds (caps per-lane work)."""
    return stream.pcs[:INTERVALS_PER_LANE * config.buffer_size]


def _run_fleet(model, streams, config: ExperimentConfig, n_lanes: int):
    """One rung: *n_lanes* monitored lanes advanced in lockstep."""
    session = BatchSession(binary=model.binary)
    for lane_index in range(n_lanes):
        stream = streams[lane_index % len(streams)]
        plan = (FAULT_PLAN if lane_index % FAULTED_EVERY == FAULTED_EVERY - 1
                else None)
        lane = session.add_lane(name=f"lane{lane_index}")
        if plan is not None:
            stream = inject(stream, plan, seed=config.seed + lane_index)
        samples = _lane_samples(stream, config)
        if samples.size:
            lane.feed_many(samples)
    session.process_ready()
    return session


def _conformance_check(model, streams, config: ExperimentConfig,
                       session: BatchSession) -> bool:
    """Replay sampled lanes through scalar sessions; compare verdicts."""
    for lane_index in range(min(CONFORMANCE_LANES, len(session.lanes))):
        lane = session.lanes[lane_index]
        stream = streams[lane_index % len(streams)]
        plan = (FAULT_PLAN if lane_index % FAULTED_EVERY == FAULTED_EVERY - 1
                else None)
        if plan is not None:
            stream = inject(stream, plan, seed=config.seed + lane_index)
        samples = _lane_samples(stream, config)
        if not samples.size:
            continue
        scalar = OnlineSession(binary=model.binary)
        scalar.feed_many(samples)
        if scalar.stats.intervals != lane.stats.intervals:
            return False
        if scalar.stats.global_events != lane.stats.global_events:
            return False
        if scalar.stats.local_events != lane.stats.local_events:
            return False
        for a, b in zip(scalar.reports, lane.reports):
            if a.events != b.events or a.region_samples != b.region_samples:
                return False
        if scalar.gpd.events != lane.gpd.events:
            return False
    return True


def run(config: ExperimentConfig = DEFAULT_CONFIG,
        benchmark: str = "181.mcf",
        rungs: tuple[int, ...] = RUNGS) -> ExperimentResult:
    """One row per fleet size; conformance is spot-checked on the first."""
    model = benchmark_for(benchmark, config)
    streams = _stream_pool(model, config, STREAM_POOL)
    headers = ["streams", "intervals", "global chg", "local chg",
               "faulted lanes", "conformance"]
    rows: list[list] = []
    totals: dict[int, dict] = {}
    for rung_index, n_lanes in enumerate(rungs):
        session = _run_fleet(model, streams, config, n_lanes)
        intervals = sum(lane.stats.intervals for lane in session.lanes)
        global_events = sum(lane.stats.global_events
                            for lane in session.lanes)
        local_events = sum(lane.stats.local_events
                           for lane in session.lanes)
        faulted = sum(1 for i in range(n_lanes)
                      if i % FAULTED_EVERY == FAULTED_EVERY - 1)
        if rung_index == 0:
            verdict = ("bit-identical"
                       if _conformance_check(model, streams, config, session)
                       else "MISMATCH")
        else:
            verdict = "—"
        totals[n_lanes] = {"intervals": intervals,
                           "global_events": global_events,
                           "local_events": local_events}
        rows.append([n_lanes, intervals, global_events, local_events,
                     faulted, verdict])
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, headers=headers,
        rows=rows,
        notes=("all lanes advanced in lockstep by the vectorized batch "
               "backend; every 4th lane runs behind a 20% bursty drop "
               "plan; conformance replays sampled lanes through the "
               "scalar OnlineSession"),
        extras={"totals": totals})


def main() -> None:  # pragma: no cover - CLI convenience
    print(run(ExperimentConfig(scale=0.05, seed=7)).to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
