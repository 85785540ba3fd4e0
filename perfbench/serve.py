"""The ``serve`` workload: closed-loop ticks through a one-shard fleet.

One pass starts a fresh :class:`~repro.serve.FleetSupervisor` with one
worker process, then runs ``ticks`` steady ticks and one crash tick.  A
tick submits one buffer-sized batch per stream and calls ``drain()``; the
supervisor exposes acks only through ``drain()``, so the load is a closed
loop with one outstanding tick.  The crash tick's first batch carries a
``WorkerCrash``, so its latency covers liveness detection, respawn,
snapshot restore, journal replay and the tick's remaining acks.

The first pass's supervisor is started in setup: its start and worker
spawn count towards ``setup_s``.
"""

from __future__ import annotations

import multiprocessing
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.thresholds import DEFAULT_BUFFER_SIZE
from repro.experiments.config import BASE_PERIOD
from repro.faults.service import ServiceFaultPlan, WorkerCrash
from repro.program.spec2000 import get_benchmark
from repro.sampling import simulate_sampling
from repro.serve import (FleetSupervisor, ServeConfig, build_shard_session,
                         extract_lane_events)

import sizes
from memory import peak_rss_mb

NAME = "serve"
BENCHMARK = "181.mcf"

#: Not scaled by ``reference.py``'s loop: the loop runs in the supervisor,
#: while most of the work runs in the worker on the other vCPU.  In one
#: set of ten runs the loop read 60% slow in three of them while the raw
#: pass times held, and the scaled ``wall_s`` spread reached 0.31.
INTERPRETER_BOUND = False


@dataclass(frozen=True)
class Size:
    streams: int = 32
    pool: int = 16
    ticks: int = 100             # steady ticks per pass, before the crash
    offset: int = 4              # intervals between streams sharing a pool
    pool_scale: float = 0.08     # length of the simulated pool streams

    def __post_init__(self) -> None:
        for name in ("streams", "pool", "ticks", "offset"):
            sizes.positive_int(name, getattr(self, name))
        sizes.scale("pool_scale", self.pool_scale)


@dataclass
class Prepared:
    seed: int
    size: Size
    config: ServeConfig
    names: list[str]
    batches: list[list[np.ndarray]]  # [tick][stream]
    workdir: Path
    supervisor: FleetSupervisor | None = None
    passes: int = 0
    reference: dict[str, tuple] | None = field(default=None, repr=False)


@dataclass
class PassResult:
    wall_s: float
    span_s: float
    intervals: int
    step_s: list[float]
    recovery_s: list[float]  # one part: the crash tick
    submitted: int
    summary: dict
    exit_codes: dict
    events: dict[str, tuple] = field(repr=False)
    worker_peak_rss_mb: float = 0.0
    layer_extras: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0  # set by measure.py


def prepare(seed: int, size: Size = Size(),
            workdir: str | Path = ".") -> Prepared:
    """Simulate the pool, cut every tick's batches, start the supervisor."""
    model = get_benchmark(BENCHMARK, scale=size.pool_scale)
    config = ServeConfig(binary=model.binary, n_shards=1)
    buffer_size = DEFAULT_BUFFER_SIZE
    pool = [simulate_sampling(model.regions, model.workload, BASE_PERIOD,
                              seed=seed + i).pcs for i in range(size.pool)]
    last_offset = (size.streams - 1) // size.pool * size.offset
    needed = (last_offset + size.ticks + 1) * buffer_size
    short = min(len(pcs) for pcs in pool)
    if short < needed:
        raise ValueError(f"pool streams hold {short} samples, serving needs "
                         f"{needed}; raise pool_scale")
    batches = []
    for tick in range(size.ticks + 1):
        row = []
        for stream in range(size.streams):
            start = (stream // size.pool * size.offset + tick) * buffer_size
            row.append(pool[stream % size.pool][start:start + buffer_size])
        batches.append(row)
    names = [f"stream{k:03d}" for k in range(size.streams)]
    prepared = Prepared(seed, size, config, names, batches, Path(workdir))
    prepared.supervisor = _start(prepared)
    return prepared


def _start(prepared: Prepared) -> FleetSupervisor:
    size = prepared.size
    prepared.passes += 1
    crash = WorkerCrash(shard=0, at_seq=size.ticks * size.streams)
    supervisor = FleetSupervisor(
        prepared.config, prepared.names,
        str(prepared.workdir / f"snapshots-{prepared.passes}"),
        faults=ServiceFaultPlan((crash,)))
    supervisor.start()
    return supervisor


def _workers_peak_rss_mb() -> float:
    """Largest peak RSS among this process's live worker processes."""
    return max((peak_rss_mb(child.pid)
                for child in multiprocessing.active_children()), default=0.0)


def close(prepared: Prepared) -> None:
    """Stop a supervisor left running (setup-only runs, failures)."""
    if prepared.supervisor is not None:
        supervisor, prepared.supervisor = prepared.supervisor, None
        supervisor.shutdown()


def run_pass(prepared: Prepared, tracer=nullcontext) -> PassResult:
    """Steady ticks plus the crash tick on one supervisor, then shutdown.

    A traced pass needs its worker forked after the recorder is installed,
    so it must not inherit the supervisor started in setup: the traced run
    spends that one on an untraced pass first.
    """
    clock = time.perf_counter
    tick_s: list[float] = []
    submitted = 0
    worker_peak = 0.0
    with tracer():
        supervisor = prepared.supervisor or _start(prepared)
        prepared.supervisor = None
        try:
            for tick, row in enumerate(prepared.batches):
                if tick == prepared.size.ticks:
                    # the crash tick ends this worker: read its peak first
                    worker_peak = _workers_peak_rss_mb()
                started = clock()
                for name, samples in zip(prepared.names, row):
                    submitted += supervisor.submit(name, samples)
                supervisor.drain()
                tick_s.append(clock() - started)
        except BaseException:
            supervisor.shutdown(graceful=False)
            raise
    worker_peak = max(worker_peak, _workers_peak_rss_mb())
    summary = supervisor.summary()
    events = {name: supervisor.stream_events(name)
              for name in prepared.names}
    exit_codes = supervisor.shutdown()
    shutil.rmtree(prepared.workdir / f"snapshots-{prepared.passes}",
                  ignore_errors=True)
    steady = tick_s[:-1]
    extras = {f"serve.{key}": summary[key]
              for key in ("restarts", "evicted", "divergences")}
    extras["serve.submitted"] = submitted
    return PassResult(
        wall_s=sum(steady), span_s=sum(tick_s),
        intervals=len(steady) * len(prepared.names), step_s=steady,
        recovery_s=tick_s[-1:], submitted=submitted, summary=summary,
        exit_codes=exit_codes, events=events,
        worker_peak_rss_mb=worker_peak, layer_extras=extras)


def reference_events(prepared: Prepared) -> dict[str, tuple]:
    """Per-stream events of one in-process shard session, same batches."""
    if prepared.reference is None:
        session = build_shard_session(prepared.config,
                                      tuple(prepared.names))
        for index, lane in enumerate(session.lanes):
            lane.feed_many(np.concatenate(
                [row[index] for row in prepared.batches]))
        session.process_ready()
        prepared.reference = {
            name: extract_lane_events(lane)[0]
            for name, lane in zip(prepared.names, session.lanes)}
    return prepared.reference


def digests(result: PassResult) -> None:
    """Serving is checked against the in-process reference on every seed."""
    return None


def failures(prepared: Prepared, result: PassResult,
             expected: None) -> tuple[int, int]:
    """(batches attempted, batches failed) for one pass.

    A batch fails when the governor shed it, or when its stream's
    ``stream_events()`` differ from :func:`reference_events`.  A worker
    that did not exit cleanly, or any divergence between a replayed ack
    and the original, fails the whole pass.  (``drain()`` raises rather
    than return with a batch unacked.)
    """
    per_stream = len(prepared.batches)
    total = per_stream * len(prepared.names)
    if result.summary["divergences"] or any(
            code != 0 for code in result.exit_codes.values()):
        return total, total
    reference = reference_events(prepared)
    wrong = sum(1 for name in prepared.names
                if result.events.get(name) != reference[name])
    shed = total - result.submitted
    return total, min(total, wrong * per_stream + shed)
