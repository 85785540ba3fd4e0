"""Figure 13: per-region LPD phase changes across sampling periods.

Paper: "Sensitivity to sampling period for a selected set of benchmark
programs using local phase detection.  The graph shows selected benchmarks
that have a large number of phase changes at low sampling periods using
the centroid scheme."  Headline: "We observe that only a few regions
change phases repeatedly using local phase detection" — one short-lived
254.gap region (~120 changes) and 188.ammp's huge near-threshold region
are the exceptions.
"""

from __future__ import annotations

from repro.experiments.base import (ExperimentResult, benchmark_for,
                                    monitored_run)
from repro.experiments.config import (DEFAULT_CONFIG, GPD_PERIODS,
                                      ExperimentConfig)
from repro.errors import RegionError
from repro.program.spec2000 import FIG13_BENCHMARKS

EXPERIMENT_ID = "fig13"
TITLE = "LPD per-region phase changes vs. sampling period (Figure 13)"


def per_region_stat(config: ExperimentConfig, statistic: str,
                    benchmarks: tuple[str, ...]) -> list[list]:
    """Shared engine for Figures 13 (changes) and 14 (stable%)."""
    rows: list[list] = []
    for name in benchmarks:
        model = benchmark_for(name, config)
        monitors = {period: monitored_run(model, period, config)
                    for period in GPD_PERIODS}
        for rank, workload_name in enumerate(model.selected_region_names,
                                             start=1):
            row: list = [name, f"r{rank}",
                         model.monitored_name(workload_name)]
            for period in GPD_PERIODS:
                monitor = monitors[period]
                try:
                    region = monitor.region_by_name(
                        model.monitored_name(workload_name))
                    detector = monitor.detector(region.rid)
                except RegionError:
                    row.append(0 if statistic == "changes" else 0.0)
                    continue
                if statistic == "changes":
                    row.append(detector.phase_change_count())
                else:
                    row.append(100.0 * detector.stable_time_fraction())
            rows.append(row)
    return rows


def run(config: ExperimentConfig = DEFAULT_CONFIG,
        benchmarks: tuple[str, ...] = FIG13_BENCHMARKS) -> ExperimentResult:
    """One row per (benchmark, selected region)."""
    headers = (["benchmark", "region", "span"]
               + [f"changes @{p // 1000}k" for p in GPD_PERIODS])
    rows = per_region_stat(config, "changes", benchmarks)
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, headers=headers,
        rows=rows,
        notes=("most regions: 0-3 changes at every period; gap's "
               "short-lived region and ammp's huge region are the "
               "paper's two exceptions"))


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
