"""Bonus experiment: the detector zoo on *recorded* executions.

Every numbered figure replays synthetic workload models; this family
replays the committed fixture corpus of real recordings
(``tests/fixtures/traces/realtrace/``, see its README for provenance)
through :mod:`repro.ingest` and runs the full detector zoo — GPD, LPD,
E-divisive and CUSUM — over each trace.  There is no model-derived
ground truth for a real execution, so the scoreboard reports what can
be measured without one: per-detector phase-change counts and
stable-time fractions, plus cross-detector agreement (tolerant Jaccard
between the detection sets of every detector pair — detectors that see
the *same* structure in a recording agree; one that flaps alone does
not).

The corpus directory can be overridden with ``REPRO_TRACE_CORPUS``.
``config.scale`` trims the number of replayed intervals per trace — the
recording itself is immutable; scaling only shortens the replay.  The
histogram evidence and the LPD/E-divisive/CUSUM stepping are the
``cpd`` scoreboard's own (:func:`~repro.experiments.extra_cpd.histogram_zoo`).
"""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path

from repro.analysis.metrics import run_gpd
from repro.errors import ExperimentError
from repro.experiments.base import (ExperimentResult, trace_gpd_run,
                                    trace_stream_for)
from repro.experiments.config import (BASE_PERIOD, DEFAULT_CONFIG,
                                      ExperimentConfig)
from repro.experiments.extra_cpd import (MATCH_TOLERANCE, histogram_zoo,
                                         interval_histograms, unstable_edges)
from repro.ingest import TraceProfile, load_profile
from repro.sampling import SampleStream

EXPERIMENT_ID = "realtrace"
TITLE = "Recorded traces: detector zoo on real executions"

#: Replays never drop below this many intervals, however small the
#: scale — detectors need a minimum run length to mean anything.
MIN_INTERVALS = 8

#: The committed fixture corpus (relative to the repo root).
DEFAULT_CORPUS = (Path(__file__).resolve().parents[3]
                  / "tests" / "fixtures" / "traces" / "realtrace")

#: Environment override for the corpus directory.
CORPUS_ENV = "REPRO_TRACE_CORPUS"

DETECTORS = ("gpd", "lpd", "edivisive", "cusum")


def corpus_dir() -> Path:
    """The active corpus directory (env override, else the fixtures)."""
    override = os.environ.get(CORPUS_ENV)
    return Path(override) if override else DEFAULT_CORPUS


def load_corpus(directory: Path | None = None) -> list[TraceProfile]:
    """Load every profile in the corpus, sorted by file name."""
    root = corpus_dir() if directory is None else directory
    paths = sorted(root.glob("*.json"))
    if not paths:
        raise ExperimentError(
            f"no trace profiles found under {root}; record fixtures with "
            f"scripts/record_trace.py or point {CORPUS_ENV} elsewhere")
    return [load_profile(path) for path in paths]


def _trim(stream: SampleStream, n_intervals: int,
          buffer_size: int) -> SampleStream:
    """The stream's first *n_intervals* whole intervals, as a stream."""
    n = n_intervals * buffer_size
    if n >= len(stream.pcs):
        return stream
    cycles = stream.cycles[:n]
    return replace(stream, pcs=stream.pcs[:n], cycles=cycles,
                   dcache_miss=stream.dcache_miss[:n],
                   region_ids=stream.region_ids[:n],
                   total_cycles=int(cycles[-1]) + 1,
                   instr_delta=(None if stream.instr_delta is None
                                else stream.instr_delta[:n]))


def agreement(a: list[int], b: list[int],
              tolerance: int = MATCH_TOLERANCE) -> float:
    """Tolerant Jaccard between two detection sets.

    Greedy in-order matching: each detection of *a* consumes the first
    unconsumed detection of *b* within ±*tolerance* intervals; the
    score is ``matched / (len(a) + len(b) - matched)``.  Two empty sets
    agree perfectly (both saw a steady run).
    """
    if not a and not b:
        return 1.0
    unused = sorted(b)
    matched = 0
    for index in sorted(a):
        hit = next((d for d in unused if abs(d - index) <= tolerance),
                   None)
        if hit is not None:
            unused.remove(hit)
            matched += 1
    return matched / (len(a) + len(b) - matched)


def trace_detections(profile: TraceProfile,
                     config: ExperimentConfig) -> tuple[dict, dict, int]:
    """Run the zoo over one trace: detections, stable fractions, length."""
    stream = trace_stream_for(profile, BASE_PERIOD, config)
    buffer_size = config.buffer_size
    n_full = stream.n_intervals(buffer_size)
    n_use = min(n_full, max(MIN_INTERVALS,
                            int(round(n_full * config.scale))))
    if n_use < n_full:
        stream = _trim(stream, n_use, buffer_size)
        gpd = run_gpd(stream, buffer_size)
    else:
        gpd = trace_gpd_run(profile, BASE_PERIOD, config)

    lpd, edivisive, cusum = histogram_zoo(
        interval_histograms(stream, buffer_size), config)
    detections = {
        "gpd": unstable_edges(gpd.events),
        "lpd": unstable_edges(lpd.events),
        "edivisive": list(edivisive.change_points),
        "cusum": list(cusum.change_points),
    }
    stable = {
        "gpd": gpd.stable_time_fraction(),
        "lpd": lpd.stable_time_fraction(),
        "edivisive": edivisive.stable_time_fraction(),
        "cusum": cusum.stable_time_fraction(),
    }
    return detections, stable, n_use


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> ExperimentResult:
    """One row per (trace, detector); extras carry the full scoreboard."""
    headers = ["trace", "detector", "intervals", "phase changes",
               "stable %", "mean agreement"]
    rows: list[list] = []
    scoreboard: dict[str, dict] = {}
    for profile in load_corpus():
        detections, stable, n_use = trace_detections(profile, config)
        pairs = {}
        for i, first in enumerate(DETECTORS):
            for second in DETECTORS[i + 1:]:
                pairs[f"{first}/{second}"] = agreement(
                    detections[first], detections[second])
        scoreboard[profile.name] = {
            "intervals": n_use,
            "checksum": profile.checksum,
            "detections": detections,
            "stable": stable,
            "agreement": pairs,
        }
        for detector in DETECTORS:
            others = [score for pair, score in pairs.items()
                      if detector in pair.split("/")]
            rows.append([profile.name, detector, n_use,
                         len(detections[detector]),
                         100.0 * stable[detector],
                         sum(others) / len(others)])
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, headers=headers,
        rows=rows,
        notes=("real recordings from tests/fixtures/traces/realtrace "
               "(see its README for provenance); no model ground truth, "
               "so agreement is tolerant Jaccard (±"
               f"{MATCH_TOLERANCE} intervals) between detector pairs"),
        extras={"scoreboard": scoreboard})


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
