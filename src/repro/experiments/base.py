"""Experiment result container and shared helpers.

The simulation helpers (:func:`stream_for`, :func:`gpd_run`,
:func:`monitored_run`) are pure functions of ``(benchmark, period,
config)`` and route through the process-wide
:class:`~repro.experiments.cache.SimulationCache`, so figures sharing the
same runs (fig03/fig04, fig13/fig14, fig06/fig15/fig16, ...) simulate and
monitor each one exactly once.  Cached monitors and detectors are shared
objects — treat them as read-only summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.metrics import run_gpd
from repro.analysis.tables import format_table
from repro.core import MonitorThresholds
from repro.core.gpd import GlobalPhaseDetector
from repro.experiments.cache import GLOBAL_CACHE, GpdKey, MonitorKey, StreamKey
from repro.experiments.config import ExperimentConfig
from repro.faults.inject import inject
from repro.faults.model import FaultPlan
from repro.ingest import TraceProfile, TraceSource
from repro.monitor import RegionMonitor
from repro.program.spec2000 import BenchmarkModel, get_benchmark
from repro.sampling import SampleStream, simulate_sampling
from repro.telemetry.bus import EventBus


def _fault_token(plan: FaultPlan | None) -> tuple:
    """Cache-key component for a fault plan (empty: ideal stream)."""
    if plan is None or plan.is_empty:
        return ()
    return plan.token()


@dataclass(frozen=True)
class ExperimentResult:
    """One reproduced table/figure as printable rows.

    Attributes
    ----------
    experiment_id:
        ``"fig03"`` etc.
    title:
        Human-readable caption (what the paper's figure showed).
    headers, rows:
        The regenerated series.
    notes:
        Reproduction caveats (scaling, known magnitude gaps).
    """

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list]
    notes: str = ""
    extras: dict = field(default_factory=dict, repr=False)

    def to_table(self) -> str:
        """Render the result as an aligned text table."""
        text = format_table(self.headers, self.rows,
                            title=f"[{self.experiment_id}] {self.title}")
        if self.notes:
            text += f"\n  note: {self.notes}"
        return text


def benchmark_for(name: str, config: ExperimentConfig) -> BenchmarkModel:
    """Load a benchmark at the experiment's scale."""
    return get_benchmark(name, scale=config.scale)


def stream_for(model: BenchmarkModel, period: int,
               config: ExperimentConfig,
               plan: FaultPlan | None = None) -> SampleStream:
    """Simulate one benchmark run at a sampling period (cached).

    With a non-empty fault *plan* the ideal stream is simulated (and
    cached) first, then the plan is injected deterministically from the
    experiment seed; the faulted stream is cached under its own key.  An
    empty plan is byte-identical to no plan — same key, same object.
    """
    faults = _fault_token(plan)
    key = StreamKey(benchmark=model.name, scale=config.scale,
                    period=period, seed=config.seed, faults=faults)
    if not faults:
        return GLOBAL_CACHE.stream(
            key, lambda: simulate_sampling(model.regions, model.workload,
                                           period, seed=config.seed))
    return GLOBAL_CACHE.stream(
        key, lambda: inject(stream_for(model, period, config), plan,
                            seed=config.seed))


def trace_stream_for(profile: TraceProfile, period: int,
                     config: ExperimentConfig,
                     cycles_per_ns: float = 1.0,
                     repeat: int = 1) -> SampleStream:
    """Replay a recorded trace profile as a sample stream (cached).

    Recorded replays share the synthetic streams' cache: the key's
    ``benchmark`` is namespaced ``trace:<name>`` and its ``trace`` field
    carries the full replay identity
    (:meth:`~repro.ingest.TraceIdentity.token` — content checksum plus
    ``cycles_per_ns``/``repeat``), so editing a fixture file or varying
    a replay knob can never serve a stale stream recorded under the
    same name.
    """
    source = TraceSource(profile, period, cycles_per_ns=cycles_per_ns,
                         repeat=repeat)
    key = StreamKey(benchmark=f"trace:{profile.name}", scale=config.scale,
                    period=period, seed=config.seed,
                    trace=source.identity().token())
    return GLOBAL_CACHE.stream(key, source.stream)


def trace_gpd_run(profile: TraceProfile, period: int,
                  config: ExperimentConfig,
                  cycles_per_ns: float = 1.0,
                  repeat: int = 1) -> GlobalPhaseDetector:
    """Run the global phase detector over a recorded trace (cached).

    The returned detector is a shared, completed run — read-only.  The
    key carries the same ``trace`` identity token as
    :func:`trace_stream_for`, for the same stale-artifact reason.
    """
    source = TraceSource(profile, period, cycles_per_ns=cycles_per_ns,
                         repeat=repeat)
    key = GpdKey(benchmark=f"trace:{profile.name}", scale=config.scale,
                 period=period, seed=config.seed,
                 buffer_size=config.buffer_size,
                 trace=source.identity().token())

    def compute() -> GlobalPhaseDetector:
        stream = trace_stream_for(profile, period, config,
                                  cycles_per_ns=cycles_per_ns,
                                  repeat=repeat)
        return run_gpd(stream, config.buffer_size)

    return GLOBAL_CACHE.detector(key, compute)


def gpd_run(model: BenchmarkModel, period: int,
            config: ExperimentConfig,
            plan: FaultPlan | None = None,
            telemetry: EventBus | None = None) -> GlobalPhaseDetector:
    """Run the global phase detector over one benchmark stream (cached).

    The returned detector is a shared, completed run — read-only.
    Experiments that need fresh cost charging (fig15) call
    :func:`~repro.analysis.metrics.run_gpd` directly with their ledger.
    *telemetry* (``None``: the process-wide bus) is result-inert and
    deliberately not part of the key; a cache hit emits a ``CacheHit``
    instead of re-playing the run's events.
    """
    key = GpdKey(benchmark=model.name, scale=config.scale, period=period,
                 seed=config.seed, buffer_size=config.buffer_size,
                 faults=_fault_token(plan))

    def compute():
        stream = stream_for(model, period, config, plan)
        return run_gpd(stream, config.buffer_size, telemetry=telemetry)

    return GLOBAL_CACHE.detector(key, compute)


def monitored_run(model: BenchmarkModel, period: int,
                  config: ExperimentConfig,
                  attribution: str = "list",
                  plan: FaultPlan | None = None,
                  telemetry: EventBus | None = None) -> RegionMonitor:
    """Run a region monitor over one benchmark stream (cached).

    The returned monitor is a shared, completed run — read-only.
    *telemetry* (``None``: the process-wide bus) is result-inert and
    deliberately not part of the key.
    """
    key = MonitorKey(benchmark=model.name, scale=config.scale,
                     period=period, seed=config.seed,
                     buffer_size=config.buffer_size,
                     attribution=attribution, faults=_fault_token(plan))

    def compute() -> RegionMonitor:
        stream = stream_for(model, period, config, plan)
        thresholds = MonitorThresholds(buffer_size=config.buffer_size)
        monitor = RegionMonitor(model.binary, thresholds,
                                attribution=attribution,
                                telemetry=telemetry)
        monitor.process_stream(stream)
        return monitor

    return GLOBAL_CACHE.monitor(key, compute)
