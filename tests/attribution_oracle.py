"""The per-PC scalar attribution oracles.

:class:`ScalarListAttributor` and :class:`ScalarTreeAttributor` resolve
each unique PC by a linear region scan or one interval-tree stab, the
pre-vectorization hot path.  The columnar kernel
(:func:`repro.regions.attribution.attribute_round`) must match them byte
for byte: counts, UCR samples, hit totals and ledger charges.  To run a
monitor on one, replace its attributor::

    monitor.attributor = ScalarTreeAttributor(monitor.registry,
                                              monitor.ledger)
"""

from __future__ import annotations

import numpy as np

from repro.core.histogram import INSTRUCTION_BYTES
from repro.costs import TREE_QUERY_BASE_OPS, CostLedger
from repro.regions.attribution import (AttributionResult, SegmentTable,
                                       _AttributorBase)
from repro.regions.interval_tree import Interval, IntervalTree
from repro.regions.registry import RegionRegistry

__all__ = ["ScalarListAttributor", "ScalarTreeAttributor", "ORACLES"]


class _ScalarAttributorBase(_AttributorBase):
    """Reference per-PC attribution (the pre-vectorization hot path).

    Kept verbatim as the equivalence oracle: the property tests assert
    the kernel reproduces these results — counts, UCR, hit totals and
    ledger charges — bit for bit.  It attributes one interval at a time,
    so it has no segment table and cannot join a kernel round.
    """

    def _segment_table(self) -> SegmentTable:
        raise TypeError(f"{type(self).__name__} is a reference attributor "
                        f"with no segment table; only 'list' and 'tree' "
                        f"lanes attribute in rounds")

    def _resolve(self, unique_pcs: np.ndarray) -> list[list[int]]:
        """Per unique PC, the rids of the regions containing it."""
        raise NotImplementedError

    def _charge_scalar(self, result: AttributionResult,
                       unique_pcs: np.ndarray, counts: np.ndarray) -> None:
        """Charge this interval's modeled work to the ledger."""
        raise NotImplementedError

    def attribute(self, pcs: np.ndarray) -> AttributionResult:
        pcs = np.asarray(pcs, dtype=np.int64)
        regions = {r.rid: r for r in self.registry.regions()}
        unique_pcs, counts = np.unique(pcs, return_counts=True)
        hits_per_pc = self._resolve(unique_pcs)

        region_counts: dict[int, np.ndarray] = {}
        ucr_mask = np.zeros(unique_pcs.size, dtype=bool)
        n_hits = 0
        for index, rids in enumerate(hits_per_pc):
            if not rids:
                ucr_mask[index] = True
                continue
            pc = int(unique_pcs[index])
            multiplicity = int(counts[index])
            n_hits += multiplicity * len(rids)
            for rid in rids:
                region = regions[rid]
                vector = region_counts.get(rid)
                if vector is None:
                    vector = np.zeros(region.n_instructions, dtype=np.int64)
                    region_counts[rid] = vector
                slot = (pc - region.start) // INSTRUCTION_BYTES
                vector[slot] += multiplicity
        ucr_pcs = np.repeat(unique_pcs[ucr_mask], counts[ucr_mask])
        result = AttributionResult(
            region_counts=region_counts,
            ucr_pcs=ucr_pcs,
            n_samples=int(pcs.size),
            n_hits=n_hits,
            region_totals={rid: int(vector.sum())
                           for rid, vector in region_counts.items()})
        self._charge_scalar(result, unique_pcs, counts)
        return result


class ScalarListAttributor(_ScalarAttributorBase):
    """Per-PC linear region-list scan (reference for :class:`ListAttributor`)."""

    name = "list-scalar"

    def _resolve(self, unique_pcs: np.ndarray) -> list[list[int]]:
        regions = self.registry.regions()
        return [[r.rid for r in regions if r.contains(int(pc))]
                for pc in unique_pcs]

    def _charge_scalar(self, result: AttributionResult,
                       unique_pcs: np.ndarray, counts: np.ndarray) -> None:
        self.ledger.charge_list_attribution(
            n_samples=result.n_samples,
            n_regions=len(self.registry),
            n_hits=result.n_hits)


class ScalarTreeAttributor(_ScalarAttributorBase):
    """Per-PC interval-tree stabbing (reference for :class:`TreeAttributor`)."""

    name = "tree-scalar"

    def __init__(self, registry: RegionRegistry,
                 ledger: CostLedger | None = None) -> None:
        super().__init__(registry, ledger)
        self._tree: IntervalTree | None = None
        self._tree_version = -1
        self._per_pc_cost = np.empty(0, dtype=np.int64)

    def _current_tree(self) -> IntervalTree:
        if self._tree is None or self._tree_version != self.registry.version:
            intervals = [Interval(r.start, r.end, r.rid)
                         for r in self.registry.regions()]
            self._tree = IntervalTree(intervals)
            self._tree_version = self.registry.version
            self.ledger.charge_tree_build(len(intervals))
        return self._tree

    def _resolve(self, unique_pcs: np.ndarray) -> list[list[int]]:
        tree = self._current_tree()
        results: list[list[int]] = []
        per_pc_cost: list[int] = []
        for pc in unique_pcs:
            results.append(tree.stab(int(pc)))
            per_pc_cost.append(tree.last_query_cost + TREE_QUERY_BASE_OPS)
        self._per_pc_cost = np.asarray(per_pc_cost, dtype=np.int64)
        return results

    def _charge_scalar(self, result: AttributionResult,
                       unique_pcs: np.ndarray, counts: np.ndarray) -> None:
        # Per-sample cost model: each sample pays its PC's query cost.
        query_ops = int(self._per_pc_cost @ counts) if unique_pcs.size else 0
        self.ledger.charge_tree_attribution(query_ops=query_ops,
                                            n_hits=result.n_hits)


#: Strategy name -> the oracle of that strategy's kernel attributor.
ORACLES = {"list": ScalarListAttributor, "tree": ScalarTreeAttributor}
