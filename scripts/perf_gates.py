#!/usr/bin/env python3
"""Wall-clock gates on the batch and serving hot paths.

Three gates, each read within one run so that host speed mostly
cancels:

* **fleet speedup** -- the batch banks step 256 streams at least 25x
  faster than the scalar detectors fed the same inputs;
* **fleet throughput** -- the batch banks step at least 50,000
  stream-intervals/s at 256 streams (a floor well below what a slow
  host reads, so it trips on a collapse of the grouped fast path, not
  on host variance);
* **snapshot overhead** -- one shard snapshot per
  ``ServeConfig.snapshot_every`` single-batch applies costs at most 5%
  of the apply throughput of a 256-lane ``ShardWorker``.

Each timing is the median of 5 rounds of one call.  Every round builds
its detectors or worker first, untimed, and runs with the garbage
collector off.  The two sides of a ratio take turns round by round, so
a slow stretch of the host slows both.  Each reading is printed; the
exit status is 1 if any gate fails.  Rounds spread too widely on a
small host for the tier-1 suite, so CI's ``perfbench`` job runs it::

    python scripts/perf_gates.py
"""

from __future__ import annotations

import gc
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.batch import BatchGpdBank, BatchLpdBank  # noqa: E402
from repro.core.gpd import GlobalPhaseDetector  # noqa: E402
from repro.core.lpd import LocalPhaseDetector  # noqa: E402
from repro.program.spec2000 import get_benchmark  # noqa: E402
from repro.sampling import simulate_sampling  # noqa: E402
from repro.serve import ServeConfig, ShardWorker  # noqa: E402
from repro.serve.messages import Batch  # noqa: E402
from repro.serve.snapshot import SnapshotStore  # noqa: E402

#: Timed rounds per reading; the reading is their median.
ROUNDS = 5
#: Streams (fleet gates) and lanes (snapshot gate).
N_STREAMS = 256

FLEET_SPEEDUP_FLOOR = 25.0
FLEET_THROUGHPUT_FLOOR = 50_000.0
SNAPSHOT_OVERHEAD_CEILING = 0.05

#: Region detector rows per stream and their histogram widths; one
#: binary per fleet, so the widths repeat across streams.
WIDTHS = (12, 16, 20, 24, 28, 32, 48, 64)
#: GPD sample-buffer length per interval.
BUFFER = 504
#: Intervals stepped per timed fleet round.
INTERVALS = 24
#: Distinct pre-generated inputs, cycled (bounds setup memory).
CYCLE = 8

#: One-interval batch applies per timed serve round.
APPLIES = 64
#: ``BatchSession``'s default interval buffer.
INTERVAL = 2032
#: Workload scale of the serve gate's sample stream.
SERVE_SCALE = 0.1


def medians(*cases):
    """Median seconds of ``run(*setup())`` per ``(run, setup)`` case over
    :data:`ROUNDS` rounds of alternating cases, timing only ``run``; and
    each case's last result."""
    times: list[list[float]] = [[] for _ in cases]
    results = [None] * len(cases)
    for _ in range(ROUNDS):
        for case, (run, setup) in enumerate(cases):
            args = setup()
            gc.disable()
            try:
                started = time.perf_counter()  # repro: allow[wall-clock] gate timing
                results[case] = run(*args)
                elapsed = time.perf_counter() - started  # repro: allow[wall-clock] gate timing
            finally:
                gc.enable()
            times[case].append(elapsed)
    return [statistics.median(case) for case in times], results


def fleet_inputs():
    """Identical per-interval inputs for both paths, cycled."""
    rng = np.random.default_rng(7)
    lpd_cycle = [
        {w: rng.integers(1, 50, size=(N_STREAMS, w)).astype(np.float64)
         for w in WIDTHS}
        for _ in range(CYCLE)]
    gpd_cycle = [
        rng.integers(0x4000_0000, 0x4100_0000, size=(N_STREAMS, BUFFER))
        for _ in range(CYCLE)]
    return lpd_cycle, gpd_cycle


def step_scalar(lpds, gpds, lpd_cycle, gpd_cycle):
    for interval in range(INTERVALS):
        blocks = lpd_cycle[interval % CYCLE]
        buffers = gpd_cycle[interval % CYCLE]
        for stream, (row, gpd) in enumerate(zip(lpds, gpds)):
            for j, width in enumerate(WIDTHS):
                row[j].observe(blocks[width][stream], interval)
            gpd.observe_buffer(buffers[stream])
    return gpds


def step_batch(lpd_bank, lpd_groups, gpd_bank, gpd_group, gpd_views,
               lpd_cycle, gpd_cycle):
    for interval in range(INTERVALS):
        blocks = lpd_cycle[interval % CYCLE]
        for width, group in lpd_groups.items():
            lpd_bank.observe_grouped(group, blocks[width], interval)
        gpd_bank.observe_block(gpd_group, gpd_cycle[interval % CYCLE])
    return gpd_views


def fleet_gates() -> list[tuple[str, bool]]:
    """Scalar against batch detector stepping at 256 streams."""
    lpd_cycle, gpd_cycle = fleet_inputs()

    def scalar_fleet():
        lpds = [[LocalPhaseDetector(w) for w in WIDTHS]
                for _ in range(N_STREAMS)]
        gpds = [GlobalPhaseDetector() for _ in range(N_STREAMS)]
        return lpds, gpds, lpd_cycle, gpd_cycle

    def batch_fleet():
        # Banks with pinned row groups: a lockstep BatchSession's path.
        lpd_bank = BatchLpdBank()
        lpd_groups = {
            w: lpd_bank.make_group(lpd_bank.add_detectors(w, N_STREAMS))
            for w in WIDTHS}
        gpd_bank = BatchGpdBank()
        gpd_views = gpd_bank.add_detectors(N_STREAMS)
        gpd_group = gpd_bank.make_group(gpd_views)
        return (lpd_bank, lpd_groups, gpd_bank, gpd_group, gpd_views,
                lpd_cycle, gpd_cycle)

    (scalar, batch), (gpds, views) = medians((step_scalar, scalar_fleet),
                                             (step_batch, batch_fleet))
    assert all(d.intervals_seen == INTERVALS for d in (*gpds, *views))
    speedup = scalar / batch
    rate = N_STREAMS * INTERVALS / batch
    return [
        (f"fleet-256 stepping: scalar {scalar:.4f}s / batch {batch:.4f}s "
         f"= {speedup:.2f}x (floor {FLEET_SPEEDUP_FLOOR:.1f}x)",
         speedup >= FLEET_SPEEDUP_FLOOR),
        (f"fleet-256 throughput: {rate:,.0f} stream-intervals/s "
         f"(floor {FLEET_THROUGHPUT_FLOOR:,.0f})",
         rate >= FLEET_THROUGHPUT_FLOOR),
    ]


def snapshot_gate(workdir: Path) -> tuple[str, bool]:
    """The same single-batch applies with and without one snapshot."""
    model = get_benchmark("181.mcf", SERVE_SCALE)
    pcs = simulate_sampling(model.regions, model.workload, 45_000,
                            seed=7).pcs.astype(np.int64)
    chunks = [pcs[i * INTERVAL:(i + 1) * INTERVAL].copy()
              for i in range(CYCLE)]
    assert all(chunk.size == INTERVAL for chunk in chunks)
    config = ServeConfig(binary=model.binary, n_shards=1)
    streams = tuple(f"s{i:03d}" for i in range(N_STREAMS))
    stores = iter(range(2 * ROUNDS))

    def warm_worker():
        # A fresh store per round: the constructor adopts any snapshot it
        # finds, which would skip the warm-up.
        store = SnapshotStore(workdir / f"round{next(stores):03d}",
                              shard_id=0)
        worker = ShardWorker(0, streams, config, store)
        for seq, stream in enumerate(streams):
            worker.handle_batch(Batch(seq=seq, stream=stream, stream_seq=0,
                                      samples=chunks[seq % CYCLE]))
        return (worker,)

    def apply(worker):
        seq = worker.seen_through
        for k in range(APPLIES):
            seq += 1
            stream = streams[k % N_STREAMS]
            worker.handle_batch(Batch(
                seq=seq, stream=stream,
                stream_seq=worker.stream_seqs[stream],
                samples=chunks[k % CYCLE]))
        return worker

    def apply_and_snapshot(worker):
        apply(worker).take_snapshot()
        return worker

    (plain, snapped), (worker, snapshotted) = medians(
        (apply, warm_worker), (apply_and_snapshot, warm_worker))
    assert worker.seen_through == N_STREAMS + APPLIES - 1
    assert snapshotted.store.load_latest() is not None
    cadence = ServeConfig().snapshot_every
    # One snapshot per `cadence` applies; the pair measured APPLIES.
    overhead = (snapped / plain - 1.0) * APPLIES / cadence
    return (f"serve snapshot overhead: plain {plain:.4f}s / +snapshot "
            f"{snapped:.4f}s, amortized over cadence {cadence} = "
            f"{overhead * 100.0:.2f}% "
            f"(ceiling {SNAPSHOT_OVERHEAD_CEILING * 100.0:.1f}%)",
            overhead <= SNAPSHOT_OVERHEAD_CEILING)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="perf-gates-") as tmp:
        gates = [*fleet_gates(), snapshot_gate(Path(tmp))]
    for line, passed in gates:
        print(f"{'ok  ' if passed else 'FAIL'} {line}")
    return 0 if all(passed for _line, passed in gates) else 1


if __name__ == "__main__":
    sys.exit(main())
