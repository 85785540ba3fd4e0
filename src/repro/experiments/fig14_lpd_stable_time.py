"""Figure 14: per-region % of time in a locally stable phase.

Paper: "the percentage of time spent in stable phase is quite high for
most benchmarks and all sampling periods.  Local phase detection minimizes
the dependency on sampling period, and can be more robust for dynamic
optimization."
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.experiments.config import (DEFAULT_CONFIG, GPD_PERIODS,
                                      ExperimentConfig)
# Figure 14 consumes exactly Figure 13's monitor runs, so after fig13 every
# run it needs is a cache hit.
from repro.experiments.fig13_lpd_phase_changes import per_region_stat
from repro.program.spec2000 import FIG13_BENCHMARKS

EXPERIMENT_ID = "fig14"
TITLE = "LPD per-region % time in stable phase (paper Figure 14)"


def run(config: ExperimentConfig = DEFAULT_CONFIG,
        benchmarks: tuple[str, ...] = FIG13_BENCHMARKS) -> ExperimentResult:
    """One row per (benchmark, selected region)."""
    headers = (["benchmark", "region", "span"]
               + [f"stable% @{p // 1000}k" for p in GPD_PERIODS])
    rows = per_region_stat(config, "stable_pct", benchmarks)
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, headers=headers,
        rows=rows,
        notes=("compare against Figure 4: the same programs that starve "
               "GPD keep >90% locally stable regions"))


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
