"""Bonus experiment: the fault ladder for the sharded serving layer.

Not a paper figure — it is the robustness counterpart of the ``fleet``
experiment: the same multi-tenant monitoring workload, but driven
through the crash-tolerant sharded service
(:class:`~repro.serve.supervisor.FleetSupervisor`) while a ladder of
injected service faults escalates underneath it:

1. ``clean`` — no faults (the baseline the ladder must keep matching);
2. ``worker-kill x2`` — two shard workers die mid-run, one of them
   before its ack leaves the process;
3. ``kill + torn snapshot`` — a worker death plus a checkpoint torn
   mid-write (power-loss model), forcing recovery to fall back a
   snapshot generation and replay the journal;
4. ``dup + reorder + stall`` — at-least-once delivery chaos: duplicated
   and reordered batches plus an injected consumer stall.

Every rung is differentially verified: each stream's event sequence,
as assembled from worker acknowledgements, must be bit-identical to a
clean single-process :class:`~repro.batch.session.BatchSession` fed the
same batches — and the supervisor's own replay cross-check
(``divergences``) must stay zero.  A rung passes only if both hold and
every shard exits cleanly.

Statistics only — serving throughput is measured by the repo
benchmark's ``serve`` workload (``perfbench/``) and snapshot overhead
is gated by ``scripts/perf_gates.py``, never by wall-clock reads here.
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.experiments.base import ExperimentResult, benchmark_for
from repro.experiments.config import (BASE_PERIOD, DEFAULT_CONFIG,
                                      ExperimentConfig)
from repro.faults.service import (DuplicateDelivery, QueueStall,
                                  ReorderDelivery, ServiceFaultPlan,
                                  TornSnapshot, WorkerCrash)
from repro.sampling import simulate_sampling
from repro.serve import (FleetSupervisor, ServeConfig, build_shard_session,
                         extract_lane_events)

EXPERIMENT_ID = "chaos"
TITLE = "Crash-tolerant serving: fault ladder, differentially verified"

#: Concurrent monitored streams routed through the fleet.
N_STREAMS = 24

#: Shard worker processes.
N_SHARDS = 3

#: Distinct simulated runs; streams draw from this pool round-robin.
STREAM_POOL = 8

#: Intervals of samples each stream contributes, split into batches.
INTERVALS_PER_STREAM = 6
BATCHES_PER_STREAM = 3

#: The escalation ladder: (rung label, service fault plan).
LADDER: tuple[tuple[str, ServiceFaultPlan], ...] = (
    ("clean", ServiceFaultPlan()),
    ("worker-kill x2", ServiceFaultPlan((
        WorkerCrash(shard=0, at_seq=5),
        WorkerCrash(shard=1, at_seq=7, before_ack=True),
    ))),
    ("kill + torn snapshot", ServiceFaultPlan((
        WorkerCrash(shard=0, at_seq=6),
        TornSnapshot(shard=2, at_seq=4),
    ))),
    ("dup + reorder + stall", ServiceFaultPlan((
        DuplicateDelivery(shard=0, at_seq=3, copies=3),
        ReorderDelivery(shard=1, at_seq=2, depth=2),
        QueueStall(shard=2, at_seq=4, stall_seconds=0.1),
    ))),
)


def _serve_config(model) -> ServeConfig:
    """Fleet knobs sized so every rung exercises snapshots and replay."""
    return ServeConfig(binary=model.binary, n_shards=N_SHARDS,
                       snapshot_every=4, queue_capacity=64)


def _stream_batches(model, config: ExperimentConfig) -> dict[str, list]:
    """Per-stream batch lists (split per-interval sample budgets)."""
    pool = [simulate_sampling(model.regions, model.workload, BASE_PERIOD,
                              seed=config.seed + i)
            for i in range(STREAM_POOL)]
    batches: dict[str, list] = {}
    budget = INTERVALS_PER_STREAM * config.buffer_size
    for i in range(N_STREAMS):
        samples = pool[i % STREAM_POOL].pcs[:budget]
        chunks = [np.asarray(chunk, dtype=np.int64)
                  for chunk in np.array_split(samples, BATCHES_PER_STREAM)
                  if chunk.size]
        batches[f"stream{i:03d}"] = chunks
    return batches


def _reference_events(serve_config: ServeConfig,
                      batches: dict[str, list]) -> dict[str, tuple]:
    """The oracle: one clean in-process session fed the same batches."""
    streams = tuple(batches)
    session = build_shard_session(serve_config, streams)
    for lane, stream in zip(session.lanes, streams):
        for chunk in batches[stream]:
            lane.feed_many(chunk)
            session.process_ready()
    return {stream: extract_lane_events(lane)[0]
            for lane, stream in zip(session.lanes, streams)}


def _run_rung(serve_config: ServeConfig, faults: ServiceFaultPlan,
              batches: dict[str, list]) -> dict:
    """Drive one ladder rung through the fleet; return its counters."""
    streams = list(batches)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as snapdir:
        fleet = FleetSupervisor(serve_config, streams, snapdir,
                                faults=faults)
        try:
            fleet.start()
            rounds = max(len(chunks) for chunks in batches.values())
            for round_index in range(rounds):
                for stream in streams:
                    chunks = batches[stream]
                    if round_index < len(chunks):
                        fleet.submit(stream, chunks[round_index])
            fleet.drain()
            events = {stream: fleet.stream_events(stream)
                      for stream in streams}
            summary = fleet.summary()
        except BaseException:
            # Reap the workers before the error propagates — live
            # daemon children would wedge interpreter exit, and the
            # TemporaryDirectory cleanup would otherwise delete the
            # snapshot store under a still-running fleet.
            fleet.shutdown(graceful=False)
            raise
        exit_codes = fleet.shutdown(graceful=True)
    summary["events"] = events
    summary["dirty_exits"] = sum(1 for code in exit_codes.values()
                                 if code not in (0, None))
    return summary


def run(config: ExperimentConfig = DEFAULT_CONFIG,
        benchmark: str = "181.mcf") -> ExperimentResult:
    """One row per ladder rung; every rung verified against the oracle."""
    model = benchmark_for(benchmark, config)
    serve_config = _serve_config(model)
    batches = _stream_batches(model, config)
    oracle = _reference_events(serve_config, batches)
    headers = ["rung", "submitted", "restarts", "divergences", "evicted",
               "dirty exits", "verdict"]
    rows: list[list] = []
    totals: dict[str, dict] = {}
    for label, faults in LADDER:
        summary = _run_rung(serve_config, faults, batches)
        mismatches = sum(1 for stream, expected in oracle.items()
                         if summary["events"][stream] != expected)
        clean = (mismatches == 0 and summary["divergences"] == 0
                 and summary["dirty_exits"] == 0)
        verdict = "bit-identical" if clean else "MISMATCH"
        rows.append([label, summary["submitted"], summary["restarts"],
                     summary["divergences"], summary["evicted"],
                     summary["dirty_exits"], verdict])
        totals[label] = {"submitted": summary["submitted"],
                         "restarts": summary["restarts"],
                         "divergences": summary["divergences"],
                         "mismatched_streams": mismatches}
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, headers=headers,
        rows=rows,
        notes=(f"{N_STREAMS} streams over {N_SHARDS} shard workers; each "
               "rung's per-stream event sequences are compared "
               "record-for-record against one clean single-process "
               "BatchSession fed the same batches; 'divergences' is the "
               "supervisor's own replay cross-check and must be 0"),
        extras={"totals": totals})


def main() -> None:  # pragma: no cover - CLI convenience
    print(run(ExperimentConfig(scale=0.05, seed=7)).to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
