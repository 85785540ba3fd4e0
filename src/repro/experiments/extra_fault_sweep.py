"""Bonus experiment: detector robustness under injected PMU faults.

Not a numbered paper figure — it quantifies the robustness claim behind
the paper's deployment story: local (per-region) phase detection keeps
its verdicts under the sampling pathologies a real PMU stack exhibits
(lost interrupts, PC skid), while the centroid GPD — whose centroid
moves with every lost interval — reports spurious phase changes.

For each benchmark the sweep runs the same seed's stream through a
ladder of fault plans (clean, 10% drop, 20% drop, 20% drop + PC skid)
and reports, per detector, the *excess* phase changes relative to the
clean run (spurious changes caused purely by the faults) and the
stable-time delta.  Faulted runs share the simulation cache: the
fault-plan token is part of every cache key, so a faulted run never
collides with its clean twin.
"""

from __future__ import annotations

from repro.experiments.base import (ExperimentResult, benchmark_for,
                                    gpd_run, monitored_run)
from repro.experiments.config import (BASE_PERIOD, DEFAULT_CONFIG,
                                      ExperimentConfig)
from repro.faults import FaultPlan, PcSkid, SampleDrop
from repro.program.spec2000 import FIG13_BENCHMARKS

EXPERIMENT_ID = "faultsweep"
TITLE = "GPD vs LPD spurious phase changes under PMU faults"

#: The fault ladder, mildest first.  The clean plan anchors the deltas.
PLANS: tuple[tuple[str, FaultPlan], ...] = (
    ("clean", FaultPlan(())),
    ("drop10", FaultPlan((SampleDrop(rate=0.10, burst_mean=4.0),))),
    ("drop20", FaultPlan((SampleDrop(rate=0.20, burst_mean=4.0),))),
    ("drop20+skid", FaultPlan((SampleDrop(rate=0.20, burst_mean=4.0),
                               PcSkid(distribution="exponential",
                                      scale=2.0)))),
)


def _lpd_stats(monitor) -> tuple[int, float]:
    """Total phase changes and mean stable% across monitored regions."""
    fractions = list(monitor.stable_time_fractions().values())
    mean_stable = (100.0 * sum(fractions) / len(fractions)
                   if fractions else 0.0)
    return monitor.total_events(), mean_stable


def run(config: ExperimentConfig = DEFAULT_CONFIG,
        benchmarks: tuple[str, ...] = FIG13_BENCHMARKS) -> ExperimentResult:
    """One row per (benchmark, fault plan); deltas are vs the clean run."""
    headers = ["benchmark", "faults", "GPD chg", "LPD chg",
               "GPD spurious", "LPD spurious",
               "GPD stable Δ%", "LPD stable Δ%"]
    rows: list[list] = []
    spurious: dict[str, dict[str, tuple[int, int]]] = {}
    for name in benchmarks:
        model = benchmark_for(name, config)
        base_gpd = gpd_run(model, BASE_PERIOD, config)
        base_monitor = monitored_run(model, BASE_PERIOD, config)
        base_gpd_changes = len(base_gpd.events)
        base_gpd_stable = 100.0 * base_gpd.stable_time_fraction()
        base_lpd_changes, base_lpd_stable = _lpd_stats(base_monitor)
        spurious[name] = {}
        for label, plan in PLANS:
            if plan.is_empty:
                gpd, monitor = base_gpd, base_monitor
            else:
                gpd = gpd_run(model, BASE_PERIOD, config, plan=plan)
                monitor = monitored_run(model, BASE_PERIOD, config,
                                        plan=plan)
            gpd_changes = len(gpd.events)
            gpd_stable = 100.0 * gpd.stable_time_fraction()
            lpd_changes, lpd_stable = _lpd_stats(monitor)
            gpd_spurious = max(0, gpd_changes - base_gpd_changes)
            lpd_spurious = max(0, lpd_changes - base_lpd_changes)
            spurious[name][label] = (gpd_spurious, lpd_spurious)
            rows.append([name, label, gpd_changes, lpd_changes,
                         gpd_spurious, lpd_spurious,
                         gpd_stable - base_gpd_stable,
                         lpd_stable - base_lpd_stable])
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, headers=headers,
        rows=rows,
        notes=("spurious = phase changes in excess of the same seed's "
               "clean run; the per-region detectors ride out drop/skid "
               "faults that swing the global centroid"),
        extras={"spurious": spurious})


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
