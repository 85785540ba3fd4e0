"""Bonus experiment: change-point detectors vs the paper's LPD/GPD.

Not a numbered paper figure — it scores the modern statistical approach
(:mod:`repro.cpd`) against the paper's detectors on the question both
families answer: *when did program behavior change?*  Ground truth comes
from the synthetic workload models themselves: the exact per-region
cycle shares of every interval are known
(:func:`~repro.program.workload.region_cycles_per_window`), so a true
change point is an interval whose region-share mix moves by more than an
L1 threshold — phase boundaries in ``173.applu``, the periodic set
switches of ``187.facerec``, and nothing at all in ``171.swim`` (the
no-change control).

Scenarios are the fault-sweep ladder (``173.applu`` under clean /
drop10 / drop20 / drop20+skid) plus the two zoo workloads, six in all.
Every detector sees the same evidence: per-interval address histograms
(``N_BINS`` bins over the stream's PC range) for LPD / E-divisive /
CUSUM, the raw sample buffers for GPD.  Per scenario and detector the
scoreboard reports detection lag (mean intervals from a true change to
its first matched detection), spurious-change rate (unmatched
detections per 100 intervals) and missed-change rate.
"""

from __future__ import annotations

import numpy as np

from repro.core.states import PhaseEventKind
from repro.core.lpd import LocalPhaseDetector
from repro.cpd import CpdThresholds, CusumDetector, EDivisiveDetector
from repro.experiments.base import (ExperimentResult, benchmark_for,
                                    gpd_run, stream_for)
from repro.experiments.config import (BASE_PERIOD, DEFAULT_CONFIG,
                                      ExperimentConfig)
from repro.experiments.extra_fault_sweep import PLANS
from repro.faults import FaultPlan
from repro.program.workload import region_cycles_per_window

EXPERIMENT_ID = "cpd"
TITLE = "Change-point detectors vs LPD/GPD: lag, spurious, missed"

#: Address-histogram resolution shared by LPD and the CPD detectors.
N_BINS = 64

#: L1 distance between consecutive intervals' region-share vectors above
#: which the model's own timeline counts as a true change point.
GROUND_TRUTH_L1 = 0.25

#: A detection within this many intervals after a true change matches it
#: (the ``realtrace`` zoo's cross-detector agreement uses the same window).
MATCH_TOLERANCE = 8

#: The ladder benchmark (explicit step phases) and the zoo scenarios.
LADDER_BENCHMARK = "173.applu"
ZOO_BENCHMARKS = ("187.facerec", "171.swim")

#: ``(scenario_label, benchmark, fault plan)`` for every scoreboard row.
SCENARIOS: tuple[tuple[str, str, FaultPlan], ...] = tuple(
    [(f"{LADDER_BENCHMARK}/{label}", LADDER_BENCHMARK, plan)
     for label, plan in PLANS]
    + [(f"{name}/clean", name, FaultPlan(())) for name in ZOO_BENCHMARKS])


def ground_truth_changes(model, period: int, buffer_size: int,
                         n_intervals: int,
                         l1_threshold: float = GROUND_TRUTH_L1) -> list[int]:
    """True change points of a benchmark model's *ideal* interval timeline.

    An interval is a change point when the L1 distance between its
    normalized region-share vector and either of the two preceding
    intervals' exceeds *l1_threshold* — the two-back comparison catches
    a step boundary that straddles an interval (each one-step delta
    diluted below threshold, the full step visible across the
    straddler).  Consecutive flagged intervals collapse to the first.
    """
    workload = model.workload
    shares = region_cycles_per_window(
        workload.compile(), buffer_size * period, n_intervals,
        workload.region_names())
    totals = shares.sum(axis=1, keepdims=True)
    normalized = np.divide(shares, totals, out=np.zeros_like(shares),
                           where=totals > 0)
    step1 = np.abs(np.diff(normalized, axis=0)).sum(axis=1)
    flagged = step1 > l1_threshold
    if normalized.shape[0] > 2:
        step2 = np.abs(normalized[2:] - normalized[:-2]).sum(axis=1)
        flagged[1:] |= step2 > l1_threshold
    changes: list[int] = []
    for index in (np.flatnonzero(flagged) + 1).tolist():
        if not changes or index > changes[-1] + 1:
            changes.append(index)
    return changes


def truth_for_stream(model, period: int, buffer_size: int,
                     stream) -> list[int]:
    """Ground-truth change points in a (possibly faulted) stream's
    interval indexing.

    Fault injection drops samples, which compresses the interval
    timeline: interval ``i`` of a drop20 stream covers later cycles than
    interval ``i`` of the ideal one.  True changes live in *cycle* time,
    so each ideal change is mapped to the faulted interval containing
    the first surviving sample at or after its cycle.
    """
    window = buffer_size * period
    pieces = model.workload.compile()
    ideal_intervals = pieces[-1].end // window if pieces else 0
    ideal = ground_truth_changes(model, period, buffer_size, ideal_intervals)
    n_intervals = stream.n_intervals(buffer_size)
    mapped: list[int] = []
    for index in ideal:
        position = int(np.searchsorted(stream.cycles, index * window))
        interval = position // buffer_size
        if interval >= n_intervals:
            continue
        if not mapped or interval > mapped[-1] + 1:
            mapped.append(interval)
    return mapped


def interval_histograms(stream, buffer_size: int,
                        n_bins: int = N_BINS) -> np.ndarray:
    """Per-interval address histograms: ``(n_intervals, n_bins)``.

    Bin edges span the stream's own PC range, so every detector sees the
    same view of the same evidence (skid-faulted outliers widen the
    range rather than falling off the histogram).
    """
    n_intervals = stream.n_intervals(buffer_size)
    pcs = stream.pcs[:n_intervals * buffer_size].astype(np.float64)
    edges = np.linspace(pcs.min(), pcs.max() + 1.0, n_bins + 1)
    histograms = np.empty((n_intervals, n_bins), dtype=np.float64)
    for index in range(n_intervals):
        window = pcs[index * buffer_size:(index + 1) * buffer_size]
        histograms[index] = np.histogram(window, bins=edges)[0]
    return histograms


def score_detections(detected: list[int], truth: list[int],
                     n_intervals: int,
                     tolerance: int = MATCH_TOLERANCE) -> dict:
    """Greedy in-order matching of detections against true changes."""
    unused = sorted(detected)
    lags: list[int] = []
    for change in truth:
        candidate = next((d for d in unused
                          if change <= d <= change + tolerance), None)
        if candidate is not None:
            unused.remove(candidate)
            lags.append(candidate - change)
    matched = len(lags)
    spurious = len(detected) - matched
    missed = len(truth) - matched
    return {
        "truth": len(truth),
        "detected": len(detected),
        "matched": matched,
        "mean_lag": (sum(lags) / matched) if matched else float("nan"),
        "spurious": spurious,
        "spurious_per_100": (100.0 * spurious / n_intervals
                             if n_intervals else 0.0),
        "missed_pct": (100.0 * missed / len(truth)) if truth else 0.0,
    }


def unstable_edges(events) -> list[int]:
    """Interval indexes of the became-unstable crossings (= detections)."""
    return [event.interval_index for event in events
            if event.kind is PhaseEventKind.BECAME_UNSTABLE]


def histogram_zoo(histograms: np.ndarray, config: ExperimentConfig
                  ) -> tuple[LocalPhaseDetector, EDivisiveDetector,
                             CusumDetector]:
    """LPD, E-divisive and CUSUM stepped over per-interval histograms.

    The evidence the ``cpd`` scoreboard and the ``realtrace`` zoo share:
    row *i* of *histograms* is interval *i*'s ``N_BINS``-bin address
    histogram (:func:`interval_histograms`).
    """
    cpd = CpdThresholds(seed=config.seed)
    detectors = (LocalPhaseDetector(n_instructions=N_BINS),
                 EDivisiveDetector(N_BINS, cpd=cpd),
                 CusumDetector(N_BINS, cpd=cpd))
    for index, counts in enumerate(histograms):
        for detector in detectors:
            detector.observe(counts, index)
    return detectors


def _scenario_detections(model, plan: FaultPlan,
                         config: ExperimentConfig) -> tuple[dict, int, list[int]]:
    """Detections per detector, interval count, and mapped ground truth."""
    plan_arg = None if plan.is_empty else plan
    stream = stream_for(model, BASE_PERIOD, config, plan_arg)
    buffer_size = config.buffer_size
    n_intervals = stream.n_intervals(buffer_size)
    lpd, edivisive, cusum = histogram_zoo(
        interval_histograms(stream, buffer_size), config)
    gpd = gpd_run(model, BASE_PERIOD, config, plan=plan_arg)

    truth = truth_for_stream(model, BASE_PERIOD, buffer_size, stream)
    return {
        "lpd": unstable_edges(lpd.events),
        "gpd": unstable_edges(gpd.events),
        "edivisive": list(edivisive.change_points),
        "cusum": list(cusum.change_points),
    }, n_intervals, truth


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> ExperimentResult:
    """One row per (scenario, detector); extras carry the scoreboard."""
    headers = ["scenario", "detector", "truth", "detected", "matched",
               "mean lag", "spurious/100iv", "missed %"]
    rows: list[list] = []
    scoreboard: dict[str, dict[str, dict]] = {}
    for scenario, name, plan in SCENARIOS:
        model = benchmark_for(name, config)
        detections, n_intervals, truth = _scenario_detections(
            model, plan, config)
        scoreboard[scenario] = {}
        for detector in ("lpd", "gpd", "edivisive", "cusum"):
            metrics = score_detections(detections[detector], truth,
                                       n_intervals)
            scoreboard[scenario][detector] = metrics
            rows.append([scenario, detector, metrics["truth"],
                         metrics["detected"], metrics["matched"],
                         metrics["mean_lag"], metrics["spurious_per_100"],
                         metrics["missed_pct"]])
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, headers=headers,
        rows=rows,
        notes=("ground truth from the workload models' exact interval "
               "share timelines (L1 > "
               f"{GROUND_TRUTH_L1}); a detection within "
               f"{MATCH_TOLERANCE} intervals of a true change matches "
               "it, the rest are spurious"),
        extras={"scoreboard": scoreboard})


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
