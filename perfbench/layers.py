"""Which of repro's entry points the traced run times, and what it reports.

Every per-layer metric is derived from the spans and counters the
:class:`~tracing.SpanRecorder` collected over one traced pass, from the
main process and from every forked serve worker, plus a few values the
workload reads from repro's own public counters (``layer_extras``).
Metrics of a layer the workload never calls read 0.
"""

from __future__ import annotations

from tracing import EntryPoint, Span, self_times


def _count_samples(recorder, args, stream) -> None:
    recorder.count("sampling.samples", stream.n_samples)


def _count_kept(recorder, args, stream) -> None:
    recorder.count("faults.samples_in", args[0].n_samples)
    recorder.count("faults.samples_out", stream.n_samples)


def _count_formed(recorder, args, outcome) -> None:
    recorder.count("regions.formed", len(outcome.new_regions))


def _count_snapshot(recorder, args, written) -> None:
    recorder.count("serve.snapshot.bytes", written.n_bytes)


def _hand_back_before_crash(recorder, args, ack) -> None:
    """An injected crash kills the worker right after this batch: the
    process never reaches its exit hooks, so hand the spans back now."""
    worker, message = args[0], args[1]
    if worker.crash_spec_for(message.seq) is not None:
        recorder.dump()


#: GlobalPhaseDetector is timed at observe_buffer and at observe_centroid,
#: which observe_buffer delegates to: the figures step the GPD through
#: observe_centroid alone (run_gpd, the RTO).  A call made inside a span of
#: the same name is not counted again.
ENTRY_POINTS = (
    EntryPoint("sampling.run", "repro.sampling.pmu", "PMUSimulator.run",
               _count_samples),
    EntryPoint("faults.inject", "repro.faults.inject", "inject",
               _count_kept),
    EntryPoint("regions.attribute", "repro.regions.attribution",
               "ListAttributor.attribute"),
    EntryPoint("regions.attribute", "repro.regions.attribution",
               "TreeAttributor.attribute"),
    EntryPoint("regions.form", "repro.regions.formation",
               "RegionFormation.form", _count_formed),
    EntryPoint("regions.covering", "repro.regions.registry",
               "RegionRegistry.covering"),
    EntryPoint("core.lpd.observe", "repro.core.lpd",
               "LocalPhaseDetector.observe"),
    EntryPoint("core.gpd.observe", "repro.core.gpd",
               "GlobalPhaseDetector.observe_buffer"),
    EntryPoint("core.gpd.observe", "repro.core.gpd",
               "GlobalPhaseDetector.observe_centroid"),
    EntryPoint("monitor.begin_interval", "repro.monitor.region_monitor",
               "RegionMonitor.begin_interval"),
    EntryPoint("monitor.finish_interval", "repro.monitor.region_monitor",
               "RegionMonitor.finish_interval"),
    EntryPoint("optimizer.rto", "repro.optimizer.rto", "RTOSystem.run"),
    EntryPoint("batch.add_lane", "repro.batch.session",
               "BatchSession.add_lane"),
    EntryPoint("batch.ring.add_lane", "repro.batch.rings",
               "ShardRing.add_lane"),
    EntryPoint("batch.feed", "repro.batch.session", "BatchLane.feed_many"),
    EntryPoint("batch.process_ready", "repro.batch.session",
               "BatchSession.process_ready"),
    EntryPoint("batch.ring.take_round", "repro.batch.rings",
               "ShardRing.take_round"),
    EntryPoint("batch.regroup.observe_round", "repro.batch.regroup",
               "FleetRegrouper.observe_round"),
    EntryPoint("batch.gpd.observe_block", "repro.batch.gpd",
               "BatchGpdBank.observe_block"),
    EntryPoint("serve.submit", "repro.serve.supervisor",
               "FleetSupervisor.submit"),
    EntryPoint("serve.drain", "repro.serve.supervisor",
               "FleetSupervisor.drain"),
    EntryPoint("serve.worker.apply", "repro.serve.worker",
               "ShardWorker.handle_batch", _hand_back_before_crash),
    EntryPoint("serve.worker.snapshot", "repro.serve.worker",
               "ShardWorker.take_snapshot", _count_snapshot),
    EntryPoint("serve.worker.restore", "repro.serve.snapshot",
               "SnapshotStore.load_latest"),
    EntryPoint("serve.events.extract", "repro.serve.events",
               "extract_lane_events"),
)

#: Per-layer metric name -> unit, in report order.
UNITS = {
    "sampling.run.calls": "count",
    "sampling.run.busy_s": "s",
    "sampling.samples": "count",
    "faults.inject.calls": "count",
    "faults.inject.busy_s": "s",
    "faults.kept_ratio": "ratio",
    "regions.attribute.calls": "count",
    "regions.attribute.busy_s": "s",
    "regions.form.calls": "count",
    "regions.form.busy_s": "s",
    "regions.formed_per_form": "ratio",
    "regions.covering.calls": "count",
    "regions.covering.busy_s": "s",
    "core.lpd.observe.calls": "count",
    "core.lpd.observe.busy_s": "s",
    "core.gpd.observe.calls": "count",
    "core.gpd.observe.busy_s": "s",
    "monitor.interval.calls": "count",
    "monitor.interval.self_s": "s",
    "optimizer.rto.calls": "count",
    "optimizer.rto.self_s": "s",
    "experiments.cache.hits": "count",
    "experiments.cache.misses": "count",
    "batch.add_lane.calls": "count",
    "batch.add_lane.busy_s": "s",
    "batch.ring.add_lane.busy_s": "s",
    "batch.feed.calls": "count",
    "batch.feed.busy_s": "s",
    "batch.process_ready.calls": "count",
    "batch.process_ready.busy_s": "s",
    "batch.ring.take_round.busy_s": "s",
    "batch.regroup.observe_round.calls": "count",
    "batch.regroup.observe_round.busy_s": "s",
    "batch.gpd.observe_block.calls": "count",
    "batch.gpd.observe_block.busy_s": "s",
    "serve.submit.calls": "count",
    "serve.submit.busy_s": "s",
    "serve.drain.wait_s": "s",
    "serve.worker.apply.calls": "count",
    "serve.worker.apply.busy_s": "s",
    "serve.events.extract.busy_s": "s",
    "serve.worker.snapshot.calls": "count",
    "serve.worker.snapshot.busy_s": "s",
    "serve.snapshot.bytes": "bytes",
    "serve.worker.restore.busy_s": "s",
    "serve.replayed_batches": "count",
    "serve.restarts": "count",
    "serve.evicted": "count",
    "serve.divergences": "count",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
    "trace.coverage": "ratio",
    "trace.spans": "count",
}


#: Per-layer metrics where a larger value is the better one.
HIGHER_IS_BETTER = frozenset({
    "faults.kept_ratio", "regions.formed_per_form",
    "experiments.cache.hits", "trace.coverage"})


def span_table(processes: list[tuple[list[Span], dict]]
               ) -> tuple[dict[str, list[float]], dict[str, float]]:
    """``{span name: [calls, busy_s, self_s]}`` and summed counters."""
    table: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    for spans, process_counters in processes:
        for span, own in zip(spans, self_times(spans)):
            row = table.setdefault(span.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span.duration
            row[2] += own
        for name, value in process_counters.items():
            counters[name] = counters.get(name, 0) + value
    return table, counters


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(processes: list[tuple[list[Span], dict]],
              extras: dict[str, float]) -> dict[str, float]:
    """Every metric in :data:`UNITS`, from spans, counters and extras."""
    table, counters = span_table(processes)

    def calls(name: str) -> int:
        return int(table.get(name, (0, 0.0, 0.0))[0])

    def busy(name: str) -> float:
        return table.get(name, (0, 0.0, 0.0))[1]

    def own(name: str) -> float:
        return table.get(name, (0, 0.0, 0.0))[2]

    metrics: dict[str, float] = {}
    for span in ("sampling.run", "faults.inject", "regions.attribute",
                 "regions.form", "regions.covering", "core.lpd.observe",
                 "core.gpd.observe", "batch.add_lane", "batch.feed",
                 "batch.process_ready", "batch.regroup.observe_round",
                 "batch.gpd.observe_block", "serve.submit",
                 "serve.worker.apply", "serve.worker.snapshot"):
        metrics[f"{span}.calls"] = calls(span)
        metrics[f"{span}.busy_s"] = busy(span)
    for span in ("batch.ring.add_lane", "batch.ring.take_round",
                 "serve.events.extract", "serve.worker.restore"):
        metrics[f"{span}.busy_s"] = busy(span)
    metrics["sampling.samples"] = counters.get("sampling.samples", 0)
    metrics["faults.kept_ratio"] = _ratio(
        counters.get("faults.samples_out", 0),
        counters.get("faults.samples_in", 0))
    metrics["regions.formed_per_form"] = _ratio(
        counters.get("regions.formed", 0), calls("regions.form"))
    metrics["monitor.interval.calls"] = calls("monitor.begin_interval")
    metrics["monitor.interval.self_s"] = (own("monitor.begin_interval")
                                          + own("monitor.finish_interval"))
    metrics["optimizer.rto.calls"] = calls("optimizer.rto")
    metrics["optimizer.rto.self_s"] = own("optimizer.rto")
    metrics["serve.drain.wait_s"] = busy("serve.drain")
    # Deliveries beyond one per submitted batch: the journal replay after
    # the crash (stale queued deliveries balance the batches the dead
    # worker never handled).
    applied = calls("serve.worker.apply")
    metrics["serve.replayed_batches"] = max(
        0, applied - extras.get("serve.submitted", applied))
    metrics["serve.snapshot.bytes"] = counters.get("serve.snapshot.bytes", 0)
    metrics["trace.spans"] = sum(len(spans) for spans, _ in processes)
    for name in UNITS:
        if name not in metrics:
            metrics[name] = extras.get(name, 0)
    return {name: metrics[name] for name in UNITS}
