"""Sample-to-region attribution strategies.

On every buffer overflow "performance counter samples are distributed
across regions" (paper section 3.1), incrementing per-instruction counters
in *every* region containing each sample (overlapping regions all count —
that is why the paper's region charts stack above the buffer size).
Samples contained in no region belong to the unmonitored code region (UCR).

Two strategies, matching the paper's section 3.2.3:

* :class:`ListAttributor` — region-list membership, charged ``O(n)`` per
  sample;
* :class:`TreeAttributor` — interval-tree stabbing, charged
  ``O(log n + k)`` per sample, rebuilt whenever the region set changes.

Both produce identical results; they differ only in the work they charge
to the :class:`~repro.costs.CostLedger`.  Functionally both run through
one columnar kernel, :func:`attribute_round`, which attributes an
``(L, B)`` block — one interval per row, one row per lane — in a fixed
number of NumPy calls.  A monitor attributing its own interval is the
kernel's one-row case; a fleet round is one call for every ready lane.

1. **Unique PCs.**  A row-wise sort plus run detection gives every row's
   unique PCs and their counts (sampled PCs repeat heavily because hot
   instructions are hot).
2. **Segment lookup.**  Region membership is piecewise constant in the
   PC.  Each lane's strategy supplies a :class:`SegmentTable` — the
   sorted cut points, the regions containing each segment and, for the
   tree, each segment's exact scalar stab cost — cached on its registry
   ``version``.  The tables sit side by side in one key space, each lane
   in its own band, so one ``np.searchsorted`` of lane-banded keys
   resolves every unique PC of every row.
3. **Histograms.**  One ``np.bincount`` fills a flat (lane, region, slot)
   histogram; its slices are the region count vectors.
4. **UCR samples.**  One ``np.repeat`` of the uncovered PCs, split per
   lane.

The *charged* cost still follows each strategy's per-sample model — for
the tree, the exact node-list comparison count a scalar stab would have
measured — which is what Figures 15 and 16 measure.

The per-PC reference implementations live with the tests
(``tests/attribution_oracle.py``): they are the oracle the property
tests compare the kernel against, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

import numpy as np

from repro.core.histogram import INSTRUCTION_BYTES
from repro.costs import (LIST_OPS_PER_CHECK, TREE_QUERY_BASE_OPS,
                         CostLedger)
from repro.regions.interval_tree import Interval, IntervalTree
from repro.regions.region import Region
from repro.regions.registry import RegionRegistry

__all__ = ["AttributionResult", "ListAttributor", "TreeAttributor",
           "SegmentTable", "attribute_round", "make_attributor"]


@dataclass(frozen=True)
class AttributionResult:
    """Outcome of distributing one interval's samples.

    Attributes
    ----------
    region_counts:
        rid -> per-instruction-slot count vector, for regions that
        received at least one sample.  The kernel hands out read-only
        slices of one round histogram; consumers copy what they keep.
    ucr_pcs:
        The PC values (with multiplicity) that fell in no region.
    n_samples:
        Interval size.
    n_hits:
        Total region increments (>= samples attributed, because regions
        may overlap).
    """

    region_counts: dict[int, np.ndarray]
    ucr_pcs: np.ndarray
    n_samples: int
    n_hits: int
    #: rid -> total samples attributed, precomputed during assembly so the
    #: monitor's per-region loop never re-sums count vectors.
    region_totals: dict[int, int] = field(default_factory=dict)

    @property
    def ucr_fraction(self) -> float:
        """Fraction of the interval's samples left unmonitored."""
        if self.n_samples == 0:
            return 0.0
        return self.ucr_pcs.size / self.n_samples

    def total_for(self, rid: int) -> int:
        """Samples attributed to one region (0 if it got none)."""
        total = self.region_totals.get(rid)
        if total is not None:
            return total
        counts = self.region_counts.get(rid)
        return 0 if counts is None else int(counts.sum())


class SegmentTable:
    """One registry version's attribution map, piecewise constant in the PC.

    *bounds* are sorted cut points that include every region start and
    end.  Segment ``s`` holds the PCs ``p`` with
    ``bounds[s-1] <= p < bounds[s]``; segment 0 is everything below
    ``bounds[0]`` and the last segment everything at or above
    ``bounds[-1]``, so ``m`` cut points make ``m + 1`` segments, and every
    region contains either all of a segment or none of it.  *cost* holds
    each segment's charged ops per sample (the scalar stab cost for the
    tree, 0 for the list).

    Stored in the kernel's layout:

    * ``segments`` — a ``(4, m + 1)`` array: band-relative keys (0, then
      ``bounds - lo``), the first member entry, the member count and the
      cost;
    * ``entries`` — a ``(3, n)`` array, one column per (segment, region)
      membership, grouped by segment: the region's position in rid
      order, its first slot in the lane's histogram, and its start
      address;
    * ``layout`` — ``(lo, band, m + 1, n, regions, slots)``.

    The lane's band of PCs is ``[lo, lo + band)``, from just below the
    first cut to the last.  PCs are clipped into it for the lookup only,
    which keeps each in the segment it would hit unclipped: everything
    outside the band lies in the first or last segment, which no region
    contains.
    """

    __slots__ = ("segments", "entries", "spans", "layout")

    def __init__(self, regions: Sequence[Region], bounds: list[int],
                 cost: list[int]) -> None:
        cut = {edge: index for index, edge in enumerate(bounds)}
        members: list[list[int]] = [[] for _ in range(len(bounds) + 1)]
        spans = []
        n_slots = 0
        for position, region in enumerate(regions):
            # The region covers the segments from just past its start's
            # cut up to its end's cut.
            for segment in range(cut[region.start] + 1, cut[region.end] + 1):
                members[segment].append(position)
            spans.append((region.rid, n_slots,
                          n_slots + region.n_instructions))
            n_slots += region.n_instructions
        lo = bounds[0] - 1 if bounds else 0
        sizes = [len(group) for group in members]
        entry = [position for group in members for position in group]
        self.segments = np.array(
            [[0] + [edge - lo for edge in bounds],
             list(accumulate(sizes, initial=0))[:-1], sizes, cost],
            dtype=np.int64)
        self.entries = np.array(
            [entry, [spans[position][1] for position in entry],
             [regions[position].start for position in entry]],
            dtype=np.int64).reshape(3, len(entry))
        #: ``(rid, first slot, end slot)`` per region, in rid order.
        self.spans = tuple(spans)
        band = int(self.segments[0, -1]) + 1
        self.layout = (lo, band, len(bounds) + 1, len(entry), len(regions),
                       n_slots)


_INT32 = np.iinfo(np.int32)


def _expand_runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts, lengths)])``."""
    offsets = lengths.cumsum() - lengths
    return (np.arange(int(lengths.sum()), dtype=np.int64)
            + (starts - offsets).repeat(lengths))


def _row_runs(block: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(unique, counts, row)``: every row's unique values, row by row.

    One row-wise sort; a run starts at every row start and wherever the
    value changes.  The sorted copy is 32-bit when every value fits —
    half the memory and a faster sort — and dies with this call.
    """
    width = block.shape[1]
    narrow = (block.size > 0 and _INT32.min <= block.min()
              and block.max() <= _INT32.max)
    ordered = block.astype(np.int32 if narrow else np.int64)
    ordered.sort(axis=1)
    ordered = ordered.ravel()
    n = ordered.size
    fresh = np.empty(n + 1, dtype=bool)
    fresh[0] = fresh[n] = True
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:n])
    if width:
        fresh[width:n:width] = True
    edges = fresh.nonzero()[0]
    run_start = edges[:-1]
    return (ordered[run_start].astype(np.int64, copy=False),
            edges[1:] - run_start, run_start // max(width, 1))


def _lookup(unique: np.ndarray, lane: np.ndarray, layout: np.ndarray,
            band_start: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Global segment of every PC: clipped into its lane's band, shifted
    to the band's place in the key space, one searchsorted."""
    low = layout[:, 0]
    key = np.maximum(unique, low[lane])
    np.minimum(key, (low + layout[:, 1] - 1)[lane], out=key)
    key += (band_start - low)[lane]
    segment = keys.searchsorted(key, side="right")
    segment -= 1
    return segment


def attribute_round(attributors: Sequence["_AttributorBase"],
                    block: np.ndarray) -> list[AttributionResult]:
    """Attribute one interval per lane: row ``i`` of *block* is
    ``attributors[i]``'s interval.

    Each lane's ledger is charged exactly what its strategy charges for
    that interval alone, and each result is bit-identical to the scalar
    oracle's.  Count vectors are read-only slices of one round histogram.
    """
    block = np.asarray(block, dtype=np.int64)
    n_lanes, width = block.shape
    if n_lanes == 0:
        return []
    tables = [attributor._segment_table() for attributor in attributors]

    # Lane layout: each lane's band, segments, entries, regions and slots
    # start where the previous lane's end.  A lone lane needs no shifts.
    layout = np.array([table.layout for table in tables], dtype=np.int64)
    sizes = layout[:, 1:]
    offsets = sizes.cumsum(axis=0) - sizes
    if n_lanes == 1:
        segments, entries = tables[0].segments, tables[0].entries
    else:
        n_segments, n_entries = sizes[:, 1], sizes[:, 2]
        segments = np.concatenate([t.segments for t in tables], axis=1)
        segments[0] += offsets[:, 0].repeat(n_segments)
        segments[1] += offsets[:, 2].repeat(n_segments)
        entries = np.concatenate([t.entries for t in tables], axis=1)
        entries[0] += offsets[:, 3].repeat(n_entries)
        entries[1] += offsets[:, 4].repeat(n_entries)
    keys, first_entry, members, cost = segments
    entry_region, entry_slot, entry_start = entries

    # 1-2. Unique PCs per row, and the segment each one falls in.
    unique, counts, lane = _row_runs(block)
    segment = _lookup(unique, lane, layout, offsets[:, 0], keys)
    hits_per_pc = members[segment]

    # 3. Histograms: one (PC, containing region) pair per hit, one
    #    bincount over the flat (lane, region, slot) index.
    pair_pc = np.arange(unique.size, dtype=np.int64).repeat(hits_per_pc)
    entry = _expand_runs(first_entry[segment], hits_per_pc)
    pair_count = counts[pair_pc]
    slot = unique[pair_pc]
    slot -= entry_start[entry]
    slot //= INSTRUCTION_BYTES
    slot += entry_slot[entry]
    histogram = np.bincount(slot, weights=pair_count,
                            minlength=int(offsets[-1, 4] + sizes[-1, 4])
                            ).astype(np.int64)
    histogram.flags.writeable = False
    totals = np.bincount(entry_region[entry], weights=pair_count,
                         minlength=int(offsets[-1, 3] + sizes[-1, 3])
                         ).astype(np.int64).tolist()

    # 4. UCR samples: the uncovered PCs with their multiplicity, in lane
    #    order; per-lane UCR sizes and stab ops alongside.
    ucr_counts = counts * (hits_per_pc == 0)
    ucr = unique.repeat(ucr_counts)
    ucr_sizes = np.bincount(lane, weights=ucr_counts,
                            minlength=n_lanes).astype(np.int64).tolist()
    query_ops = np.bincount(lane, weights=cost[segment] * counts,
                            minlength=n_lanes).astype(np.int64).tolist()

    results = []
    ucr_start = 0
    # Lanes' regions are contiguous in lane order, so every lane's zip
    # takes exactly its own totals off the one iterator.
    lane_totals = iter(totals)
    for attributor, table, slot_base, ucr_size, ops in zip(
            attributors, tables, offsets[:, 4].tolist(), ucr_sizes,
            query_ops):
        counts_by_rid: dict[int, np.ndarray] = {}
        totals_by_rid: dict[int, int] = {}
        n_hits = 0
        for (rid, low, high), total in zip(table.spans, lane_totals):
            if total:
                counts_by_rid[rid] = histogram[slot_base + low:
                                               slot_base + high]
                totals_by_rid[rid] = total
                n_hits += total
        ucr_end = ucr_start + ucr_size
        results.append(AttributionResult(region_counts=counts_by_rid,
                                         ucr_pcs=ucr[ucr_start:ucr_end],
                                         n_samples=width, n_hits=n_hits,
                                         region_totals=totals_by_rid))
        ucr_start = ucr_end
        attributor._charge(width, n_hits, ops)
    return results


class _AttributorBase:
    """Shared machinery: the segment-table cache and the one-row call.

    Subclasses implement :meth:`_build_table` (their segment table) and
    :meth:`_charge` (their cost model); :func:`attribute_round` does the
    rest.
    """

    #: ``(registry version, segment table)`` as of the last attribution;
    #: derived state, so it is never pickled (the next round rebuilds it).
    _table: tuple[int, SegmentTable] | None = None

    def __init__(self, registry: RegionRegistry,
                 ledger: CostLedger | None = None) -> None:
        self.registry = registry
        self.ledger = ledger if ledger is not None else CostLedger()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_table", None)
        return state

    def _segment_table(self) -> SegmentTable:
        """The current registry version's table, built on first use."""
        version = self.registry.version
        cached = self._table
        if cached is None or cached[0] != version:
            cached = self._table = (
                version, self._build_table(self.registry.regions()))
        return cached[1]

    def _build_table(self, regions: list[Region]) -> SegmentTable:
        raise NotImplementedError

    def _charge(self, n_samples: int, n_hits: int, query_ops: int) -> None:
        """Charge one interval's modeled work to the ledger."""
        raise NotImplementedError

    def attribute(self, pcs: np.ndarray) -> AttributionResult:
        """Distribute one interval's samples across the live regions."""
        pcs = np.asarray(pcs, dtype=np.int64)
        return attribute_round((self,), pcs.reshape(1, -1))[0]


class ListAttributor(_AttributorBase):
    """Region-list membership: per-sample charged cost ``O(n_regions)``.

    Its segment table cuts at every region start and end; the charged
    cost stays the scalar scan's ``n_samples * n_regions`` checks.
    """

    name = "list"

    def _build_table(self, regions: list[Region]) -> SegmentTable:
        bounds = sorted({edge for r in regions for edge in (r.start, r.end)})
        return SegmentTable(regions, bounds, [0] * (len(bounds) + 1))

    def _charge(self, n_samples: int, n_hits: int, query_ops: int) -> None:
        self.ledger.charge_list_attribution(
            n_samples=n_samples, n_regions=len(self.registry),
            n_hits=n_hits)


class TreeAttributor(_AttributorBase):
    """Interval-tree stabbing: per-sample charged cost ``O(log n + k)``.

    The tree is rebuilt lazily whenever the registry version changes
    (formation or pruning events), and the rebuild cost is charged to the
    ledger.  Stab results and scalar stab costs are piecewise constant in
    the query point (see :meth:`IntervalTree.stab_boundaries`), so the
    segment table cuts where the tree does and carries each segment's
    stab cost: the kernel charges exactly the operations per-PC stabbing
    would have measured.
    """

    name = "tree"

    def __init__(self, registry: RegionRegistry,
                 ledger: CostLedger | None = None) -> None:
        super().__init__(registry, ledger)
        #: Registry version whose tree build the ledger was last charged
        #: for; pickled, so a restored attributor rebuilds its table
        #: without charging the build twice.
        self._charged_version = -1

    def _segment_table(self) -> SegmentTable:
        if self._charged_version != self.registry.version:
            self.ledger.charge_tree_build(len(self.registry))
            self._charged_version = self.registry.version
        return super()._segment_table()

    def _build_table(self, regions: list[Region]) -> SegmentTable:
        tree = IntervalTree([Interval(r.start, r.end, r.rid)
                             for r in regions])
        bounds = tree.stab_boundaries().tolist()
        cost = [tree.segment_stab(segment)[1] + TREE_QUERY_BASE_OPS
                for segment in range(len(bounds) + 1)]
        return SegmentTable(regions, bounds, cost)

    def _charge(self, n_samples: int, n_hits: int, query_ops: int) -> None:
        # Per-sample cost model: each sample pays its PC's query cost.
        self.ledger.charge_tree_attribution(query_ops=query_ops,
                                            n_hits=n_hits)


_STRATEGIES = {
    "list": ListAttributor,
    "tree": TreeAttributor,
}


def make_attributor(strategy: str, registry: RegionRegistry,
                    ledger: CostLedger | None = None) -> _AttributorBase:
    """Factory: ``"list"`` or ``"tree"``."""
    try:
        cls = _STRATEGIES[strategy]
    except KeyError:
        known = ", ".join(sorted(_STRATEGIES))
        raise ValueError(f"unknown attribution strategy {strategy!r}; "
                         f"expected one of: {known}") from None
    return cls(registry, ledger)


def estimated_list_ops(n_samples: int, n_regions: int) -> int:
    """Closed-form list-scan cost (used by cost-model sanity tests)."""
    return n_samples * n_regions * LIST_OPS_PER_CHECK
