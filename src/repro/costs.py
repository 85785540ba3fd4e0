"""Operation-count cost ledger for phase-detection machinery.

The paper's Figures 15 and 16 compare the *overhead* of global vs. local
phase detection and of list vs. interval-tree sample attribution.  On real
hardware that overhead is wall-clock time; in this reproduction every
component charges its work — in abstract "operations", calibrated as one
simple ALU-scale step each — to a shared :class:`CostLedger`, and overhead
percentages are computed as charged operations per program cycle (one
operation ≈ one cycle, the same granularity the paper's percent-of-
execution-time numbers imply).

Wall-clock time of the actual Python implementations is measured end
to end by the repo benchmark (``perfbench/``); the ledger is what the
figure-level experiments use, so that cost shapes reflect the
algorithms rather than numpy dispatch overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Operations per region membership check in the list scheme (two bound
#: comparisons plus the loop step).
LIST_OPS_PER_CHECK = 3

#: Operations per histogram increment when a sample hits a region.
HIT_OPS = 2

#: Operations per instruction slot for one Pearson correlation (the
#: products and sums of the formula's five accumulators plus the final
#: combination, amortized per slot).
PEARSON_OPS_PER_SLOT = 12

#: Operations per sample for centroid accumulation (one add).
CENTROID_OPS_PER_SAMPLE = 1

#: Operations per interval for the GPD state machine (band statistics over
#: the history window plus threshold comparisons).
GPD_STATE_OPS_PER_INTERVAL = 64

#: Operations per interval per region for the LPD state machine.
LPD_STATE_OPS_PER_INTERVAL = 16

#: Operations to insert one interval while (re)building the tree, per
#: log-factor unit (n intervals cost ``TREE_BUILD_OPS * n * ceil(log2 n)``).
TREE_BUILD_OPS = 8

#: Fixed per-query overhead of a tree stab (call setup, pointer chasing,
#: result handling) on top of the measured node/list comparisons.  This is
#: what makes the tree "slightly higher [cost] from the increased cost of
#: maintaining the tree" for benchmarks with few regions (paper Figure 16)
#: while the O(log n + k) scaling wins for many regions.
TREE_QUERY_BASE_OPS = 6


@dataclass
class CostLedger:
    """Accumulated operation counts, by component.

    Attributes
    ----------
    gpd_ops:
        Centroid accumulation + state machine (the global detector).
    attribution_ops:
        Sample-to-region distribution (list scan or tree queries).
    similarity_ops:
        Per-region similarity computations (Pearson or an alternative).
    lpd_state_ops:
        Per-region state-machine updates.
    tree_maintenance_ops:
        Interval tree (re)builds.
    """

    gpd_ops: int = 0
    attribution_ops: int = 0
    similarity_ops: int = 0
    lpd_state_ops: int = 0
    tree_maintenance_ops: int = 0
    _events: list[str] = field(default_factory=list, repr=False)

    # -- charging ---------------------------------------------------------

    def charge_gpd_interval(self, n_samples: int) -> None:
        """One GPD interval: centroid over the buffer plus the machine."""
        self.gpd_ops += (n_samples * CENTROID_OPS_PER_SAMPLE
                         + GPD_STATE_OPS_PER_INTERVAL)

    def charge_list_attribution(self, n_samples: int, n_regions: int,
                                n_hits: int) -> None:
        """One interval of list-scan attribution."""
        self.attribution_ops += (n_samples * n_regions * LIST_OPS_PER_CHECK
                                 + n_hits * HIT_OPS)

    def charge_tree_attribution(self, query_ops: int, n_hits: int) -> None:
        """One interval of interval-tree attribution (measured query ops)."""
        self.attribution_ops += query_ops + n_hits * HIT_OPS

    def charge_tree_build(self, n_regions: int) -> None:
        """One tree (re)build after a region-set change."""
        if n_regions > 0:
            log = max(1, (n_regions - 1).bit_length())
            self.tree_maintenance_ops += TREE_BUILD_OPS * n_regions * log

    def charge_similarity(self, n_slots: int) -> None:
        """One per-region similarity computation over *n_slots* slots."""
        self.similarity_ops += n_slots * PEARSON_OPS_PER_SLOT

    def charge_lpd_state(self) -> None:
        """One per-region state-machine update."""
        self.lpd_state_ops += LPD_STATE_OPS_PER_INTERVAL

    # -- reading ------------------------------------------------------------

    @property
    def monitor_ops(self) -> int:
        """All local-phase-detection work (everything but the GPD)."""
        return (self.attribution_ops + self.similarity_ops
                + self.lpd_state_ops + self.tree_maintenance_ops)

    @property
    def total_ops(self) -> int:
        """All charged operations."""
        return self.gpd_ops + self.monitor_ops

    def overhead_fraction(self, total_cycles: int, ops: int | None = None) -> float:
        """Charged operations as a fraction of program cycles."""
        if total_cycles <= 0:
            raise ValueError("total_cycles must be positive")
        return (self.total_ops if ops is None else ops) / total_cycles

    def merged_with(self, other: "CostLedger") -> "CostLedger":
        """A new ledger with both ledgers' charges summed."""
        return CostLedger(
            gpd_ops=self.gpd_ops + other.gpd_ops,
            attribution_ops=self.attribution_ops + other.attribution_ops,
            similarity_ops=self.similarity_ops + other.similarity_ops,
            lpd_state_ops=self.lpd_state_ops + other.lpd_state_ops,
            tree_maintenance_ops=(self.tree_maintenance_ops
                                  + other.tree_maintenance_ops),
        )
