"""Region formation: building monitored regions from hot UCR samples.

Paper section 3.1: when the fraction of samples falling in the unmonitored
code region exceeds a threshold, "region formation is triggered and it
builds regions from these samples".  Regions are "primarily loops that have
significant samples"; a hot address whose enclosing code is not a loop
within one procedure (e.g. a procedure called from a loop) yields **no**
region — those samples stay in the UCR, which is exactly the 254.gap /
186.crafty pathology of Figure 7.

The inter-procedural extension ("there is no fundamental limitation to
building inter-procedural regions") is implemented behind a flag: a hot
non-loop procedure that is invoked from some caller's loop is monitored as
a whole-procedure region.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.program.binary import SyntheticBinary
from repro.regions.region import Region, RegionKind
from repro.regions.registry import RegionRegistry

__all__ = ["FormationOutcome", "RegionFormation"]


@dataclass(frozen=True)
class FormationOutcome:
    """Result of one formation trigger.

    Attributes
    ----------
    new_regions:
        Regions added to the registry by this trigger.
    seeds_resolved:
        Hot addresses for which a region was found (or already existed).
    seeds_failed:
        Hot addresses for which no region could be built.
    failed_addresses:
        The addresses behind ``seeds_failed`` (diagnostics).
    """

    new_regions: tuple[Region, ...]
    seeds_resolved: int
    seeds_failed: int
    failed_addresses: tuple[int, ...] = field(default=())

    @property
    def formed_any(self) -> bool:
        return bool(self.new_regions)


class RegionFormation:
    """Builds loop regions around hot unmonitored addresses.

    Parameters
    ----------
    binary:
        The program being monitored (provides loops and the call graph).
    registry:
        Live region set; new regions are added here.
    hot_fraction:
        An address is a formation seed when it carries at least this
        fraction of the trigger's UCR samples.
    max_seeds:
        Upper bound on seeds examined per trigger (hottest first).
    interprocedural:
        Enable the whole-procedure fallback for call-in-loop hot code.
    trace_fallback:
        Enable hot-path trace selection for hot addresses no loop (or
        inter-procedural) rule covers — the paper's "regions can also
        include functions or traces" future work.
    annotations:
        Optional compiler-provided :class:`~repro.regions.annotations.
        AnnotationTable`; annotated spans take precedence over runtime
        analysis (the paper's "compiler annotations to improve region
        formation" future work).
    """

    def __init__(self, binary: SyntheticBinary, registry: RegionRegistry,
                 hot_fraction: float = 0.02, max_seeds: int = 64,
                 interprocedural: bool = False,
                 trace_fallback: bool = False,
                 annotations=None) -> None:
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError("hot_fraction must lie in (0, 1]")
        if max_seeds < 1:
            raise ValueError("max_seeds must be positive")
        self.binary = binary
        self.registry = registry
        self.hot_fraction = hot_fraction
        self.max_seeds = max_seeds
        self.interprocedural = interprocedural
        self.trace_fallback = trace_fallback
        self.annotations = annotations
        #: Formation triggers handled so far.
        self.trigger_count = 0

    def hot_seeds(self, ucr_pcs: np.ndarray) -> list[int]:
        """Hot addresses in a UCR sample batch, hottest first."""
        if ucr_pcs.size == 0:
            return []
        unique, counts = np.unique(np.asarray(ucr_pcs, dtype=np.int64),
                                   return_counts=True)
        threshold = self.hot_fraction * ucr_pcs.size
        order = np.argsort(counts)[::-1]
        hot = order[counts[order] >= max(threshold, 1.0)]
        seeds: list[int] = unique[hot[:self.max_seeds]].tolist()
        return seeds

    def form(self, ucr_pcs: np.ndarray,
             interval_index: int = -1) -> FormationOutcome:
        """Run one formation trigger over the interval's UCR samples."""
        self.trigger_count += 1
        new_regions: list[Region] = []
        resolved = 0
        failed: list[int] = []
        for seed in self.hot_seeds(ucr_pcs):
            if self.registry.covering(seed):
                # Already covered by a region formed earlier in this same
                # trigger (UCR seeds are uncovered by construction before
                # the trigger starts).
                resolved += 1
                continue
            span = self._span_for(seed, ucr_pcs)
            if span is None:
                failed.append(seed)
                continue
            resolved += 1
            start, end, kind = span
            if self.registry.has_span(start, end):
                continue
            region = self.registry.add(start, end, kind=kind,
                                       formed_at_interval=interval_index)
            new_regions.append(region)
        return FormationOutcome(new_regions=tuple(new_regions),
                                seeds_resolved=resolved,
                                seeds_failed=len(failed),
                                failed_addresses=tuple(failed))

    def _span_for(self, address: int,
                  ucr_pcs: np.ndarray) -> tuple[int, int, RegionKind] | None:
        """The region span a seed address maps to, if one can be built.

        Precedence: compiler annotation (when a table is provided), then
        innermost natural loop, then (if enabled) the whole callee
        procedure for call-in-loop code, then (if enabled) a hot-path
        trace grown from the seed.
        """
        if self.annotations is not None:
            annotation = self.annotations.lookup(address)
            if annotation is not None:
                return annotation.start, annotation.end, \
                    RegionKind.ANNOTATED
        loop = self.binary.innermost_loop_at(address)
        if loop is not None:
            return loop.start, loop.end, RegionKind.LOOP
        procedure = self.binary.procedure_at(address)
        if procedure is None:
            return None
        if self.interprocedural \
                and self.binary.caller_loop_of(procedure.name) is not None:
            return procedure.start, procedure.end, \
                RegionKind.INTERPROCEDURAL
        if self.trace_fallback:
            from repro.regions.trace_builder import (block_hotness,
                                                     build_trace)

            hotness = block_hotness(procedure, ucr_pcs)
            trace = build_trace(procedure, hotness, address)
            if trace is not None:
                return trace.start, trace.end, RegionKind.TRACE
        return None
