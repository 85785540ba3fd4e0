"""Figure 16: interval-tree attribution cost vs. the simple region list.

Paper: "Figure 16 shows the cost of the interval tree scheme normalized
to the cost of using lists.  For benchmarks with a small number of
regions, the cost is slightly higher from the increased cost of
maintaining the tree.  As the number of regions increases (e.g. gcc,
crafty, fma3d, parser and bzip) cost is significantly reduced."
"""

from __future__ import annotations

from repro.experiments.base import (ExperimentResult, benchmark_for,
                                    monitored_run)
from repro.experiments.config import (BASE_PERIOD, DEFAULT_CONFIG,
                                      ExperimentConfig)
from repro.program.spec2000 import FIG16_BENCHMARKS

EXPERIMENT_ID = "fig16"
TITLE = "Interval-tree attribution cost normalized to lists (Figure 16)"


def run(config: ExperimentConfig = DEFAULT_CONFIG,
        benchmarks: tuple[str, ...] = FIG16_BENCHMARKS) -> ExperimentResult:
    """One row per benchmark: regions, list ops, tree ops, factor."""
    headers = ["benchmark", "regions", "list attribution ops",
               "tree ops (query+maintain)", "tree/list factor"]
    rows: list[list] = []
    for name in benchmarks:
        model = benchmark_for(name, config)
        list_monitor = monitored_run(model, BASE_PERIOD, config,
                                     attribution="list")
        tree_monitor = monitored_run(model, BASE_PERIOD, config,
                                     attribution="tree")
        list_ops = list_monitor.ledger.attribution_ops
        tree_ops = (tree_monitor.ledger.attribution_ops
                    + tree_monitor.ledger.tree_maintenance_ops)
        rows.append([name, len(list_monitor.all_regions()), list_ops,
                     tree_ops, tree_ops / list_ops if list_ops else 0.0])
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, headers=headers,
        rows=rows,
        notes=("factor > 1 for few-region programs (tree upkeep), << 1 "
               "for the many-region ones — the paper's crossover"))


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
