"""Registry of the regions currently being monitored.

Regions may overlap (an inner and an outer loop can both be monitored; the
paper notes that overlapping regions make its region charts stack above the
buffer size because a sample increments every containing region).  The
registry is versioned so attribution strategies know when to rebuild their
acceleration structures; its own rid-ordered view is keyed on that version
too, so the per-interval queries never re-sort.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import RegionError
from repro.regions.region import Region, RegionKind


class RegionRegistry:
    """Mutable set of monitored regions with stable integer ids."""

    #: ``(version, live regions in rid order)`` as of the last query;
    #: derived state, so it is never pickled.
    _ordered: tuple[int, tuple[Region, ...]] | None = None

    def __init__(self) -> None:
        self._regions: dict[int, Region] = {}
        self._next_rid = 0
        self._version = 0

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_ordered", None)
        return state

    # -- mutation ---------------------------------------------------------

    def add(self, start: int, end: int,
            kind: RegionKind = RegionKind.LOOP,
            formed_at_interval: int = -1) -> Region:
        """Create and register a region; returns the new record.

        Registering a span identical to a live region is an error — the
        caller should have checked :meth:`covering` first.
        """
        for region in self._regions.values():
            if region.start == start and region.end == end:
                raise RegionError(
                    f"span [{start:#x}, {end:#x}) is already monitored "
                    f"as {region.name}")
        region = Region(rid=self._next_rid, start=start, end=end, kind=kind,
                        formed_at_interval=formed_at_interval)
        self._regions[region.rid] = region
        self._next_rid += 1
        self._version += 1
        return region

    def remove(self, rid: int) -> Region:
        """Unregister a region (pruning); returns the removed record."""
        try:
            region = self._regions.pop(rid)
        except KeyError:
            raise RegionError(f"no region with id {rid}") from None
        self._version += 1
        return region

    def reinsert(self, region: Region) -> Region:
        """Re-register a previously removed region, keeping its id.

        Used by the watchdog's quarantine/release cycle: a quarantined
        region keeps its identity (detector, statistics) across the
        excursion through the UCR.
        """
        if region.rid in self._regions:
            raise RegionError(f"region id {region.rid} is already live")
        if self.has_span(region.start, region.end):
            raise RegionError(
                f"span [{region.start:#x}, {region.end:#x}) is already "
                f"monitored")
        self._regions[region.rid] = region
        self._next_rid = max(self._next_rid, region.rid + 1)
        self._version += 1
        return region

    # -- queries ------------------------------------------------------------

    @property
    def version(self) -> int:
        """Counter bumped on every add/remove."""
        return self._version

    def __len__(self) -> int:
        return len(self._regions)

    def __iter__(self) -> Iterator[Region]:
        return iter(self._by_rid())

    def __contains__(self, rid: int) -> bool:
        return rid in self._regions

    def get(self, rid: int) -> Region:
        """Region record by id."""
        try:
            return self._regions[rid]
        except KeyError:
            raise RegionError(f"no region with id {rid}") from None

    def _by_rid(self) -> tuple[Region, ...]:
        ordered = self._ordered
        if ordered is None or ordered[0] != self._version:
            ordered = self._ordered = (self._version, tuple(
                sorted(self._regions.values(), key=lambda r: r.rid)))
        return ordered[1]

    def regions(self) -> list[Region]:
        """All live regions, ordered by id (formation order)."""
        return list(self._by_rid())

    def covering(self, address: int) -> list[Region]:
        """All live regions containing *address* (linear scan)."""
        return [r for r in self._by_rid() if r.start <= address < r.end]

    def has_span(self, start: int, end: int) -> bool:
        """Whether the exact span is already monitored."""
        return any(r.start == start and r.end == end
                   for r in self._regions.values())

    def span_covered(self, start: int, end: int) -> bool:
        """Whether some live region fully contains the span."""
        return any(r.start <= start and end <= r.end
                   for r in self._regions.values())
