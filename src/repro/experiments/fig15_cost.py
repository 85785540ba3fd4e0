"""Figure 15: the cost of region monitoring vs. the centroid scheme.

Paper: "As expected, local phase detection is tens to hundreds of times
slower than global phase detection.  Even so, for most applications, the
cost is less than 1% of execution time.  Some programs like gcc, crafty,
parser, vortex, ammp and apsi have a significant percentage of cost for
local phase detection.  This cost is due to the large number of regions
monitored by these applications."
"""

from __future__ import annotations

from repro.analysis.metrics import run_gpd
from repro.costs import CostLedger
from repro.experiments.base import (ExperimentResult, benchmark_for,
                                    monitored_run, stream_for)
from repro.experiments.config import (BASE_PERIOD, DEFAULT_CONFIG,
                                      ExperimentConfig)
from repro.program.spec2000 import FIG15_BENCHMARKS

EXPERIMENT_ID = "fig15"
TITLE = "Overhead of region monitoring vs. centroid GPD (paper Figure 15)"


def run(config: ExperimentConfig = DEFAULT_CONFIG,
        benchmarks: tuple[str, ...] = FIG15_BENCHMARKS) -> ExperimentResult:
    """One row per benchmark: GPD overhead, LPD overhead, ratio."""
    headers = ["benchmark", "regions", "GPD overhead%", "LPD overhead%",
               "times slower than GPD"]
    rows: list[list] = []
    for name in benchmarks:
        model = benchmark_for(name, config)
        stream = stream_for(model, BASE_PERIOD, config)
        total_cycles = stream.total_cycles
        gpd_ledger = CostLedger()
        run_gpd(stream, config.buffer_size, ledger=gpd_ledger)
        monitor = monitored_run(model, BASE_PERIOD, config)
        gpd_pct = 100.0 * gpd_ledger.overhead_fraction(
            total_cycles, gpd_ledger.gpd_ops)
        lpd_pct = 100.0 * monitor.ledger.overhead_fraction(
            total_cycles, monitor.ledger.monitor_ops)
        rows.append([name, len(monitor.all_regions()), gpd_pct, lpd_pct,
                     lpd_pct / gpd_pct if gpd_pct else 0.0])
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, headers=headers,
        rows=rows,
        notes=("operation-count cost model (1 op ~ 1 cycle); gcc / crafty "
               "/ parser / vortex / apsi lead because of their region "
               "counts, exactly the paper's costly set.  Region "
               "monitoring runs off the critical path (separate thread) "
               "in the paper's design."))


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
