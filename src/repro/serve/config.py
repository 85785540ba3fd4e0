"""Configuration for the sharded fleet serving layer."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.thresholds import GpdThresholds, MonitorThresholds
from repro.errors import ServeError
from repro.monitor.watchdog import WatchdogConfig
from repro.program.binary import SyntheticBinary

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Knobs for a :class:`~repro.serve.supervisor.FleetSupervisor`.

    The session-shaping fields (``binary`` through ``watchdog``) are
    passed verbatim to each shard's
    :class:`~repro.batch.session.BatchSession`, so a sharded fleet is
    configured exactly like the single-process session it must stay
    bit-identical to.

    Attributes
    ----------
    n_shards:
        Worker processes (one ``BatchSession`` each).
    snapshot_every:
        Applied batches between periodic snapshots, checked between
        worker rounds.  ``scripts/perf_gates.py`` measures the cost
        on a 256-lane shard; on a 2-vCPU AMD EPYC VM a snapshot
        takes about 9-10 ms, a one-interval batch applied alone about
        0.21 ms, and one applied inside a 256-lane round about
        0.057 ms.  At the 1024 cadence snapshots therefore cost about
        4.5% of throughput with single applications, under the 5%
        budget that script's snapshot gate enforces, and about 16%
        with full rounds.  The trade is recovery work: the
        supervisor's journal keeps every batch since the
        second-newest snapshot, so a restarted worker replays at most
        ``2 * snapshot_every`` batches, plus up to one round (one batch
        per stream of the shard) by which a snapshot can trail its
        cadence.
    queue_capacity:
        Bound of each shard's input queue, in ``Round`` messages (one
        shard round each, up to one batch per stream of the shard plus
        delivery-fault extras): the backpressure surface.
    dispatch_timeout:
        Seconds one enqueue attempt may block on a full queue.
    dispatch_retries:
        Enqueue attempts of a round before the slow-consumer governor
        trips the stream whose ``submit()`` found it unsendable.
    """

    binary: SyntheticBinary | None = None
    monitor_thresholds: MonitorThresholds | None = None
    gpd_thresholds: GpdThresholds | None = None
    run_gpd: bool = True
    watchdog: WatchdogConfig | None = None
    n_shards: int = 4
    snapshot_every: int = 1024
    queue_capacity: int = 256
    dispatch_timeout: float = 0.5
    dispatch_retries: int = 5

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ServeError(
                f"n_shards must be at least 1, got {self.n_shards}")
        if self.snapshot_every < 1:
            raise ServeError(
                f"snapshot_every must be at least 1, got "
                f"{self.snapshot_every}")
        if self.queue_capacity < 1:
            raise ServeError(
                f"queue_capacity must be at least 1, got "
                f"{self.queue_capacity}")
        if self.dispatch_retries < 1:
            raise ServeError(
                f"dispatch_retries must be at least 1, got "
                f"{self.dispatch_retries}")
