"""Figure 4: percentage of time spent in a GPD-stable phase.

Paper: "Percentage of time spent in stable phase for different sampling
periods" — with the observation that stable time does *not* correlate with
the number of phase changes (181.mcf has many changes *and* high stable
time at 45k thanks to fast response; 187.facerec is unstable most of the
time).
"""

from __future__ import annotations

from repro.experiments.base import (ExperimentResult, benchmark_for,
                                    gpd_run)
from repro.experiments.config import (DEFAULT_CONFIG, GPD_PERIODS,
                                      ExperimentConfig)
from repro.program.spec2000 import FIG3_BENCHMARKS

EXPERIMENT_ID = "fig04"
TITLE = "% of intervals in GPD-stable phase (paper Figure 4)"


def run(config: ExperimentConfig = DEFAULT_CONFIG,
        benchmarks: tuple[str, ...] = FIG3_BENCHMARKS) -> ExperimentResult:
    """Regenerate the figure's series; one row per benchmark."""
    headers = ["benchmark"] + [f"stable% @{p // 1000}k" for p in GPD_PERIODS]
    rows: list[list] = []
    for name in benchmarks:
        model = benchmark_for(name, config)
        row: list = [name]
        for period in GPD_PERIODS:
            detector = gpd_run(model, period, config)
            row.append(100.0 * detector.stable_time_fraction())
        rows.append(row)
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, headers=headers,
        rows=rows,
        notes=("mcf: many changes AND high stable% at 45k; facerec/galgel: "
               "mostly unstable — the paper's no-correlation observation"))


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
