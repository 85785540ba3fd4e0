"""A centered interval tree for sample-to-region attribution.

The paper (section 3.2.3, citing CLRS [18]) proposes replacing the linear
region-list scan with an interval tree, cutting per-sample attribution cost
from ``O(n)`` to ``O(log n + k)`` where ``n`` is the number of monitored
regions and ``k`` the number of regions containing the sample.

This is the classic *centered* interval tree: each node stores a center
point, the intervals containing that center (sorted by start and by end),
and subtrees for the intervals entirely to the left and right.  A
stabbing query walks one root-to-leaf path, scanning only the node lists
that can match.  Regions change rarely (formation events), so the tree is
rebuilt on change rather than rebalanced incrementally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["IntervalTree", "Interval"]


@dataclass(frozen=True, slots=True)
class Interval:
    """A half-open interval ``[start, end)`` carrying a payload id."""

    start: int
    end: int
    payload: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(
                f"interval [{self.start}, {self.end}) is empty")

    def contains(self, point: int) -> bool:
        return self.start <= point < self.end


class _Node:
    __slots__ = ("center", "by_start", "by_end", "left", "right")

    def __init__(self, center: int, overlapping: list[Interval],
                 left: "_Node | None", right: "_Node | None") -> None:
        self.center = center
        self.by_start = sorted(overlapping, key=lambda iv: iv.start)
        self.by_end = sorted(overlapping, key=lambda iv: iv.end,
                             reverse=True)
        self.left = left
        self.right = right


def _build(intervals: list[Interval]) -> _Node | None:
    if not intervals:
        return None
    points = sorted({iv.start for iv in intervals}
                    | {iv.end - 1 for iv in intervals})
    center = points[len(points) // 2]
    here: list[Interval] = []
    lefts: list[Interval] = []
    rights: list[Interval] = []
    for iv in intervals:
        if iv.end <= center:
            lefts.append(iv)
        elif iv.start > center:
            rights.append(iv)
        else:
            here.append(iv)
    return _Node(center, here, _build(lefts), _build(rights))


class IntervalTree:
    """Immutable stabbing-query structure over half-open intervals.

    Parameters
    ----------
    intervals:
        ``(start, end, payload)`` triples or :class:`Interval` records.
    """

    def __init__(self, intervals: Sequence[Interval | tuple]) -> None:
        resolved = [iv if isinstance(iv, Interval) else Interval(*iv)
                    for iv in intervals]
        self._intervals = resolved
        self._root = _build(list(resolved))
        self._boundaries: np.ndarray | None = None
        #: Comparisons performed by the most recent query (cost probe).
        self.last_query_cost = 0

    def __len__(self) -> int:
        return len(self._intervals)

    @property
    def intervals(self) -> list[Interval]:
        """The stored intervals (construction order)."""
        return list(self._intervals)

    def stab(self, point: int) -> list[int]:
        """Payloads of every interval containing *point*.

        Results are sorted for determinism.  ``last_query_cost`` records
        the number of node-list comparisons the query performed, which the
        cost model uses as the tree's per-sample work.
        """
        hits: list[int] = []
        cost = 0
        node = self._root
        while node is not None:
            cost += 1
            if point < node.center:
                # Only intervals starting at or before the point can match.
                for iv in node.by_start:
                    cost += 1
                    if iv.start > point:
                        break
                    if iv.contains(point):
                        hits.append(iv.payload)
                node = node.left
            elif point > node.center:
                # Only intervals ending after the point can match.
                for iv in node.by_end:
                    cost += 1
                    if iv.end <= point:
                        break
                    if iv.contains(point):
                        hits.append(iv.payload)
                node = node.right
            else:
                for iv in node.by_start:
                    cost += 1
                    hits.append(iv.payload)
                break
        self.last_query_cost = cost
        hits.sort()
        return hits

    def stab_boundaries(self) -> np.ndarray:
        """Cut points between which stab results and costs are constant.

        Every branch :meth:`stab` takes is an integer comparison against a
        node center or an interval endpoint, so both the stab *result* and
        the stab *cost* are piecewise constant in the query point, with
        pieces delimited by the sorted cut set
        ``{center, center + 1, start, end}``.  Segment ``i`` covers points
        ``p`` with ``boundaries[i-1] <= p < boundaries[i]`` (segment 0 is
        everything below ``boundaries[0]``); map query points to segments
        with ``np.searchsorted(boundaries, points, side="right")``.
        """
        if self._boundaries is None:
            cuts: set[int] = set()
            stack = [self._root]
            while stack:
                node = stack.pop()
                if node is None:
                    continue
                cuts.add(node.center)
                cuts.add(node.center + 1)
                stack.append(node.left)
                stack.append(node.right)
            for iv in self._intervals:
                cuts.add(iv.start)
                cuts.add(iv.end)
            self._boundaries = np.array(sorted(cuts), dtype=np.int64)
        return self._boundaries

    def segment_stab(self, segment: int) -> tuple[list[int], int]:
        """``(payloads, query_cost)`` shared by every point of a segment.

        Evaluated by stabbing one representative point of the segment.
        """
        boundaries = self.stab_boundaries()
        representative = (int(boundaries[segment - 1]) if segment > 0
                          else int(boundaries[0]) - 1
                          if boundaries.size else 0)
        hits = self.stab(representative)
        return hits, self.last_query_cost

    def stab_naive(self, point: int) -> list[int]:
        """Linear-scan oracle used by the tests and the list cost model."""
        return sorted(iv.payload for iv in self._intervals
                      if iv.contains(point))
