"""Figure 3: GPD phase changes across sampling periods.

Paper: "Number of phase changes for different sampling periods.  Three
sampling periods, 45K, 450K and 900K cycles/interrupt were used."  The
headline claim: "the number of phase changes was greatly increased at low
sampling periods" for a subset of the benchmarks (galgel, facerec, gap,
mcf, ...), while most programs sit near zero at every period.
"""

from __future__ import annotations

from repro.experiments.base import (ExperimentResult, benchmark_for,
                                    gpd_run)
from repro.experiments.config import (DEFAULT_CONFIG, GPD_PERIODS,
                                      ExperimentConfig)
from repro.program.spec2000 import FIG3_BENCHMARKS

EXPERIMENT_ID = "fig03"
TITLE = "GPD phase changes vs. sampling period (paper Figure 3)"


def run(config: ExperimentConfig = DEFAULT_CONFIG,
        benchmarks: tuple[str, ...] = FIG3_BENCHMARKS) -> ExperimentResult:
    """Regenerate the figure's series; one row per benchmark."""
    headers = ["benchmark"] + [f"changes @{p // 1000}k" for p in GPD_PERIODS]
    rows: list[list] = []
    detectors: dict[tuple[str, int], object] = {}
    for name in benchmarks:
        model = benchmark_for(name, config)
        row: list = [name]
        for period in GPD_PERIODS:
            detector = gpd_run(model, period, config)
            detectors[(name, period)] = detector
            row.append(len(detector.events))
        rows.append(row)
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, headers=headers,
        rows=rows,
        notes=("counts scale with modeled run length (scale="
               f"{config.scale}); the paper's claim is the shape: a few "
               "benchmarks explode at 45k and collapse at 450k/900k"),
        extras={"detectors": detectors})


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
