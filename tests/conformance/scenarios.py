"""The scenario space every engine is run over.

A :class:`Scenario` is a set of lanes, each a sample source (a spec2000
model, a ``random_program`` seed or a recorded trace fixture) with its
own PMU seed, period, fault plan, sample cap and first round; how the
samples are fed (whole, or in fixed or ragged chunks per round); the
session options; a churn plan of detector mutations between rounds; and
what the serving engines add: reordered and repeated deliveries with a
snapshot and restore for the worker, service faults for the fleet.
"""

import itertools
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.core.thresholds import MonitorThresholds
from repro.faults import FaultPlan, PcBitCorruption
from repro.faults.inject import inject
from repro.faults.service import (DuplicateDelivery, ReorderDelivery,
                                  ServiceFaultPlan, TornSnapshot,
                                  WorkerCrash)
from repro.ingest import TraceSource, load_profile
from repro.monitor.watchdog import WatchdogConfig
from repro.program.generator import random_program
from repro.program.spec2000 import benchmark_names
from repro.sampling import simulate_sampling
from repro.serve import ServeConfig
from repro.serve.messages import Batch
from tests.conftest import drop_plan, model_stream

CORPUS = Path(__file__).parents[1] / "fixtures" / "traces" / "realtrace"
TRACES = sorted(path.name for path in CORPUS.glob("*.json"))


@dataclass(frozen=True)
class Lane:
    """One monitored stream: where its samples come from, and when."""

    source: str = "181.mcf"  # spec2000 name, "random:<seed>", "trace:<file>"
    seed: int = 7             # PMU seed, and the fault plan's seed
    period: int = 45_000
    plan: FaultPlan | None = None
    limit: int | None = None  # keep only the first *limit* samples
    start: int = 0            # the round of the lane's first chunk


@lru_cache(maxsize=None)
def program(source: str, scale: float):
    """The model or generated program behind *source* (None for traces)."""
    if source.startswith("trace:"):
        return None
    if source.startswith("random:"):
        return random_program(int(source[len("random:"):]))
    return model_stream(source, scale)[0]


@lru_cache(maxsize=None)
def lane_samples(lane: Lane, scale: float) -> np.ndarray:
    """The PCs *lane* feeds, faults injected and cap applied."""
    if lane.source.startswith("trace:"):
        profile = load_profile(CORPUS / lane.source[len("trace:"):])
        stream = TraceSource(profile, sampling_period=lane.period).stream()
    elif lane.source.startswith("random:"):
        generated = program(lane.source, scale)
        stream = simulate_sampling(generated.regions, generated.workload,
                                   lane.period, seed=lane.seed)
    else:
        stream = model_stream(lane.source, scale, lane.period, lane.seed)[1]
    if lane.plan is not None:
        stream = inject(stream, lane.plan, seed=lane.seed)
    pcs = stream.pcs[:lane.limit].astype(np.int64)
    pcs.flags.writeable = False  # cached and shared by every engine
    return pcs


@dataclass(frozen=True)
class Scenario:
    """Lanes, their feed, session options, churn and serving faults."""

    name: str
    lanes: tuple[Lane, ...]
    scale: float = 0.05
    chunk: int | None = None   # samples per lane per round; None: all
    ragged: int | None = None  # seed: lanes after the first take 0..chunk
    buffer_size: int = 504
    watchdog: bool = False
    attribution: str | None = None
    gpd_only: bool = False
    churn: tuple = ()          # (round, lane, action, pick) mutations
    discard_at: int | None = None  # round after which histories are cut
    pickle_at: int | None = None   # round after which batch is pickled
    shuffle: int | None = None     # seed: the worker's delivery order
    faults: ServiceFaultPlan | None = None
    serve: dict = field(default_factory=dict)  # more ServeConfig knobs

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f"lane{index}" for index in range(len(self.lanes)))

    def session_options(self) -> dict:
        """Keyword arguments for ``OnlineSession`` and ``BatchSession``."""
        source = program(self.lanes[0].source, self.scale)
        options = dict(
            binary=None if self.gpd_only else source.binary,
            monitor_thresholds=MonitorThresholds(buffer_size=self.buffer_size),
            watchdog=WatchdogConfig() if self.watchdog else None)
        if self.attribution is not None:
            options["attribution"] = self.attribution
        return options

    def serve_config(self, **knobs) -> ServeConfig:
        return ServeConfig(**self.session_options(), **{**self.serve, **knobs})

    def feeds(self) -> list[list[np.ndarray | None]]:
        """Per lane, its chunk (or None) in every round."""
        samples = [lane_samples(lane, self.scale) for lane in self.lanes]
        rng = np.random.default_rng(self.ragged)
        offsets = [0] * len(samples)
        feeds: list[list] = [[] for _ in samples]
        while any(o < pcs.size for o, pcs in zip(offsets, samples)):
            for index, (lane, pcs) in enumerate(zip(self.lanes, samples)):
                take = pcs.size if self.chunk is None else self.chunk
                if self.ragged is not None and index > 0:
                    take = int(rng.integers(0, self.chunk + 1))
                if len(feeds[index]) < lane.start:
                    take = 0
                chunk = pcs[offsets[index]:offsets[index] + take]
                offsets[index] += chunk.size
                feeds[index].append(chunk if chunk.size else None)
        return feeds

    def batches(self) -> dict[str, list[np.ndarray]]:
        """Each lane's chunks in order: what a serve client submits."""
        return {name: [chunk for chunk in feed if chunk is not None]
                for name, feed in zip(self.names, self.feeds())}

    def deliveries(self) -> tuple[list[list[Batch]], int | None]:
        """The worker's rounds of deliveries, and the round that a
        snapshot and restore precede (None: never).

        In order, each round of the feed is one worker round.  With
        ``shuffle`` the deliveries may be permuted, a few are delivered
        again later, and they are cut into random rounds.
        """
        counts = dict.fromkeys(self.names, 0)
        rounds = []
        for chunks in zip(*self.feeds()):
            rounds.append([])
            for name, chunk in zip(self.names, chunks):
                if chunk is not None:
                    rounds[-1].append((name, counts[name], chunk))
                    counts[name] += 1
        snapshot_at = None
        if self.shuffle is not None:
            rng = np.random.default_rng(self.shuffle)
            flat = [item for round_ in rounds for item in round_]
            if rng.random() < 0.5:
                flat = [flat[i] for i in rng.permutation(len(flat))]
            for _ in range(int(rng.integers(0, 4))):
                source = int(rng.integers(0, len(flat)))
                flat.insert(int(rng.integers(source + 1, len(flat) + 1)),
                            flat[source])
            cuts = np.flatnonzero(rng.random(len(flat) - 1) < 0.5) + 1
            bounds = [0, *cuts.tolist(), len(flat)]
            rounds = [flat[a:b] for a, b in zip(bounds, bounds[1:])]
            snapshot_at = int(rng.integers(0, len(rounds) + 1))
        seqs = itertools.count()
        return [[Batch(seq=next(seqs), stream=name, stream_seq=k,
                       samples=chunk) for name, k, chunk in round_]
                for round_ in rounds], snapshot_at


def _mcf(plans, **lane) -> tuple[Lane, ...]:
    """mcf lanes at period 25,000, PMU seeds 11, 12, ..., one per plan."""
    return tuple(Lane(seed=11 + i, period=25_000, plan=plan, **lane)
                 for i, plan in enumerate(plans))


CORRUPT = FaultPlan((PcBitCorruption(rate=0.05, bit_width=20),))
DROPPED = (None, drop_plan(0.25, 4.0), None)

#: Every model, 30 intervals of it, run every time by the batch engine.
#: The watchdog is on: it trips on 8 of the models (gcc, crafty, parser,
#: vortex, apsi and others), and on none of the mcf scenarios below.
SWEEP = tuple(Scenario(f"sweep-{name}", (Lane(name, limit=30 * 504),),
                       watchdog=True) for name in benchmark_names())

#: Whole runs, every time, by the batch engine.
LONG = (
    # 176.gcc forms hundreds of regions: two whole runs of unequal length
    Scenario("gcc-two-periods", (Lane("176.gcc", period=30_000),
                                 Lane("176.gcc", period=60_000))),
    Scenario("watchdog-faults", _mcf((None, drop_plan(0.2, 4.0), None,
                                      drop_plan(0.1, 2.0))), watchdog=True),
    # corrupted PCs leave the text range beside clean lanes
    *(Scenario(f"attribution-{strategy}", _mcf(
        (None, drop_plan(0.2, 4.0), CORRUPT, None, drop_plan(0.1, 2.0),
         CORRUPT)), attribution=strategy) for strategy in ("list", "tree")),
)

#: Edge inputs, every time, by the batch and worker engines.
EDGES = (
    # the watchdog deoptimizes and re-admits regions between rounds
    Scenario("watchdog-trips", (
        Lane("186.crafty", limit=30 * 504),
        Lane("186.crafty", seed=8, plan=drop_plan(0.2, 4.0),
             limit=30 * 504)), chunk=3 * 504, watchdog=True),
    Scenario("single-loop-program", (
        Lane("random:27", period=5_000),
        Lane("random:27", seed=8, period=5_000)), chunk=3 * 504),
    Scenario("period-1000-capped", (
        Lane(period=1_000, limit=30 * 504),
        Lane(seed=8, period=1_000, limit=20 * 504)), scale=0.002, chunk=2_000),
    Scenario("period-1500000", (Lane(period=1_500_000),
                                Lane(seed=8, period=1_500_000))),
    Scenario("empty-short-late", (
        Lane(period=25_000, limit=10 * 504), Lane(limit=0), Lane(limit=300),
        Lane(seed=12, period=25_000, limit=8 * 504, start=3)),
        chunk=2 * 504, watchdog=True),
    Scenario("gpd-only", _mcf((None,)), gpd_only=True),
    # three programs of unequal length: the ready set shrinks
    Scenario("gpd-only-ragged", tuple(
        Lane(name, seed=9 + i) for i, name in
        enumerate(("181.mcf", "164.gzip", "178.galgel"))),
        buffer_size=1016, gpd_only=True),
    *(Scenario(f"trace-{name}", (Lane(f"trace:{name}"),), gpd_only=True)
      for name in TRACES),
    Scenario("discard-history", _mcf(DROPPED, limit=12 * 504), chunk=504,
             watchdog=True, discard_at=4),
    Scenario("pickled-mid-run", _mcf(DROPPED, limit=12 * 504), chunk=504,
             watchdog=True, pickle_at=5),
)

#: Bases that the Hypothesis tests draw their seeds and churn into.
RAGGED = Scenario("ragged", _mcf((None,) * 3, limit=14_000), chunk=700)
CHURN = Scenario("churn", _mcf(DROPPED, limit=12 * 504), chunk=504,
                 watchdog=True)
DELIVERIES = Scenario("deliveries", tuple(
    Lane(seed=7 + i, limit=5 * 2032) for i in range(3)), buffer_size=2032,
    chunk=4064, serve=dict(n_shards=1, snapshot_every=4))
#: A fixed delivery order that parks batches and drains them in rounds.
REORDERED = replace(DELIVERIES, name="reordered", ragged=1, shuffle=20)

#: 256 streams over four shard processes, cycling through 8 PMU seeds.
FLEET = Scenario("fleet", tuple(
    Lane(seed=7 + i % 8, limit=6 * 2032) for i in range(256)),
    buffer_size=2032, chunk=4064, serve=dict(
        n_shards=4, snapshot_every=8, queue_capacity=128,
        # raised from the default: an oversubscribed host must not trip
        # the governor here (tests/serve/test_rounds.py covers it)
        dispatch_retries=8))
CHAOS = ServiceFaultPlan((
    WorkerCrash(shard=0, at_seq=30),
    WorkerCrash(shard=2, at_seq=45, before_ack=True),
    TornSnapshot(shard=1, at_seq=16, truncate=0.6),
    DuplicateDelivery(shard=3, at_seq=12, copies=3),
    ReorderDelivery(shard=3, at_seq=20, depth=2),
))
