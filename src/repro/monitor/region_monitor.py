"""The region-monitoring framework (paper section 3).

This ties together everything below it: per interval (buffer overflow) it

1. distributes the samples across the monitored regions (list or interval
   tree), sending the leftovers to the UCR;
2. triggers **region formation** when the UCR fraction exceeds the
   threshold, growing the monitored set from hot unmonitored addresses;
3. runs each region's **local phase detector** on the region's histogram
   (or lets it hold when the region did not execute);
4. optionally **prunes** cold regions;
5. charges every step's work to the cost ledger.

The monitor achieves "the dual goal of phase detection and monitoring of
deployed optimizations": phase events stream out per region, and per-region
per-interval statistics feed :mod:`repro.monitor.self_monitoring`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.lpd import LocalPhaseDetector
from repro.core.similarity import SimilarityMeasure
from repro.core.states import PhaseEvent
from repro.core.thresholds import MonitorThresholds
from repro.costs import CostLedger
from repro.errors import RegionError
from repro.program.binary import SyntheticBinary
from repro.regions.attribution import AttributionResult, make_attributor
from repro.regions.formation import FormationOutcome, RegionFormation
from repro.regions.pruning import PruningPolicy, RegionActivity
from repro.regions.region import Region
from repro.regions.registry import RegionRegistry
from repro.regions.ucr import UcrTracker
from repro.sampling.events import SampleStream
from repro.telemetry.bus import EventBus, get_bus
from repro.telemetry.events import IntervalClosed, RegionFormed

__all__ = ["IntervalReport", "PendingInterval", "RegionMonitor"]


@dataclass(frozen=True)
class IntervalReport:
    """What happened during one monitored interval.

    Attributes
    ----------
    interval_index:
        The interval's position in the run.
    ucr_fraction:
        Fraction of samples left unmonitored this interval.
    formation:
        Outcome of the formation trigger, if one fired.
    events:
        ``(rid, PhaseEvent)`` pairs for every local phase change.
    region_samples:
        rid -> samples attributed this interval (regions with zero
        samples are omitted).
    pruned:
        rids evicted at the end of the interval.
    """

    interval_index: int
    ucr_fraction: float
    formation: FormationOutcome | None
    events: tuple[tuple[int, PhaseEvent], ...]
    region_samples: dict[int, int] = field(default_factory=dict)
    pruned: tuple[int, ...] = ()


@dataclass
class PendingInterval:
    """An interval attributed and accounted, but not yet phase-detected.

    Produced by :meth:`RegionMonitor.begin_interval`; consumed by
    :meth:`RegionMonitor.observe_pending` and
    :meth:`RegionMonitor.finish_interval`.  The split lets a batch
    harness gather the ``to_observe`` work of many monitors and step all
    their detectors in one vectorized call between the two halves.
    """

    index: int
    n_samples: int
    ucr_fraction: float
    formation: FormationOutcome | None
    region_samples: dict[int, int]
    #: ``(rid, counts)`` pairs in registry order — the detector
    #: observations this interval owes, with ``counts`` already extracted
    #: exactly as the scalar pipeline would pass them.
    to_observe: list[tuple[int, np.ndarray | None]]


class RegionMonitor:
    """Online region monitoring with local phase detection.

    Parameters
    ----------
    binary:
        The monitored program (for region formation).
    thresholds:
        Buffer size, UCR trigger, and per-region LPD knobs.
    attribution:
        ``"list"`` or ``"tree"`` (paper section 3.2.3).
    measure:
        Similarity measure for the per-region detectors (default
        Pearson).
    interprocedural:
        Enable the whole-procedure formation fallback.
    trace_formation:
        Enable hot-path trace regions for hot non-loop code.
    annotations:
        Optional compiler-annotation table consulted first by formation.
    pruning:
        Optional eviction policy for cold regions.
    ledger:
        Cost ledger; a fresh one is created if not supplied.
    telemetry:
        Event bus for the monitor and its per-region detectors; defaults
        to the process-wide bus (disabled unless a sink is attached).
    detector_factory:
        Optional callable built like ``LocalPhaseDetector`` (same keyword
        arguments) that supplies each region's detector.  The batch
        backend passes a bank-row allocator here; anything returned must
        honor the ``LocalPhaseDetector`` surface.
    """

    def __init__(self, binary: SyntheticBinary,
                 thresholds: MonitorThresholds | None = None,
                 attribution: str = "list",
                 measure: SimilarityMeasure | None = None,
                 interprocedural: bool = False,
                 trace_formation: bool = False,
                 annotations=None,
                 pruning: PruningPolicy | None = None,
                 ledger: CostLedger | None = None,
                 telemetry: EventBus | None = None,
                 detector_factory=None) -> None:
        self.binary = binary
        self._telemetry = telemetry if telemetry is not None else get_bus()
        self.thresholds = thresholds or MonitorThresholds()
        self.ledger = ledger if ledger is not None else CostLedger()
        self.registry = RegionRegistry()
        self.attributor = make_attributor(attribution, self.registry,
                                          self.ledger)
        self.formation = RegionFormation(
            binary, self.registry,
            hot_fraction=self.thresholds.formation_hot_fraction,
            max_seeds=self.thresholds.formation_max_seeds,
            interprocedural=interprocedural,
            trace_fallback=trace_formation,
            annotations=annotations)
        self.ucr = UcrTracker(self.thresholds.ucr_threshold)
        self.pruning = pruning
        self._measure = measure
        self._detector_factory = detector_factory or LocalPhaseDetector
        self._detectors: dict[int, LocalPhaseDetector] = {}
        self._retired: dict[int, tuple[Region, LocalPhaseDetector]] = {}
        self._quarantined: dict[int, Region] = {}
        self._activity: dict[int, RegionActivity] = {}
        self._formed_at: dict[int, int] = {}
        self._interval_index = -1
        #: Optional predicate consulted for every newly formed region; a
        #: ``True`` verdict drops the region immediately (its samples stay
        #: in the UCR).  The watchdog uses this to keep a quarantined span
        #: from being re-formed while its backoff is running.
        self.formation_veto = None
        self.reports: list[IntervalReport] = []
        #: Per-region data-cache miss-rate observations (interval, rate),
        #: recorded when miss flags accompany the samples.  This is the
        #: raw material of self-monitoring (paper: "monitoring the
        #: performance of a region ... to determine the impact of
        #: deployed optimizations").
        self._miss_rates: dict[int, list[tuple[int, float]]] = {}

    # -- region plumbing ------------------------------------------------------

    def _install_region(self, region: Region) -> None:
        detector = self._detector_factory(
            n_instructions=region.n_instructions,
            thresholds=self.thresholds.lpd,
            measure=self._measure,
            telemetry=self._telemetry,
            region_id=region.rid)
        self._detectors[region.rid] = detector
        self._activity[region.rid] = RegionActivity(rid=region.rid)
        self._formed_at[region.rid] = max(region.formed_at_interval, 0)
        if self._telemetry.enabled:
            self._telemetry.emit(RegionFormed(
                interval_index=region.formed_at_interval,
                rid=region.rid, start=region.start, end=region.end,
                kind=region.kind.value))

    def add_region(self, start: int, end: int) -> Region:
        """Manually register a region (bypassing formation)."""
        from repro.regions.region import RegionKind

        region = self.registry.add(start, end, kind=RegionKind.MANUAL,
                                   formed_at_interval=self._interval_index)
        self._install_region(region)
        return region

    def detector(self, rid: int) -> LocalPhaseDetector:
        """The local phase detector of a live, quarantined or retired
        region."""
        if rid in self._detectors:
            return self._detectors[rid]
        if rid in self._retired:
            return self._retired[rid][1]
        raise RegionError(f"no detector for region id {rid}")

    def region_record(self, rid: int) -> Region:
        """The region record for a live, quarantined or retired region."""
        if rid in self.registry:
            return self.registry.get(rid)
        if rid in self._quarantined:
            return self._quarantined[rid]
        if rid in self._retired:
            return self._retired[rid][0]
        raise RegionError(f"no region with id {rid}")

    def live_regions(self) -> list[Region]:
        """Currently monitored regions, in formation order."""
        return self.registry.regions()

    def all_regions(self) -> list[Region]:
        """Live plus quarantined plus pruned regions."""
        regions = self.registry.regions() \
            + list(self._quarantined.values()) \
            + [region for region, _ in self._retired.values()]
        return sorted(regions, key=lambda r: r.rid)

    # -- graceful degradation (watchdog surface) -------------------------------

    def quarantine(self, rid: int) -> Region:
        """Deoptimize a region: its span re-enters the UCR.

        The region leaves the registry (so attribution sends its samples
        back to the unmonitored code region) but keeps its detector and
        statistics, unlike pruning.  Returns the quarantined record.
        """
        if rid in self._quarantined:
            return self._quarantined[rid]
        region = self.registry.remove(rid)
        self._quarantined[rid] = region
        return region

    def release(self, rid: int) -> Region:
        """Re-admit a quarantined region under its original id."""
        try:
            region = self._quarantined.pop(rid)
        except KeyError:
            raise RegionError(f"region id {rid} is not quarantined") from None
        return self.registry.reinsert(region)

    def quarantined_regions(self) -> list[Region]:
        """Regions currently quarantined by the watchdog."""
        return sorted(self._quarantined.values(), key=lambda r: r.rid)

    def reset_detector(self, rid: int) -> None:
        """Reset a region's phase machine to unstable (keeps statistics)."""
        self.detector(rid).reset()

    def region_by_name(self, name: str) -> Region:
        """Look up a region (live or retired) by its ``start-end`` name."""
        for region in self.all_regions():
            if region.name == name:
                return region
        raise RegionError(f"no region named {name!r}")

    # -- the per-interval pipeline ---------------------------------------------

    def process_interval(self, pcs: np.ndarray,
                         interval_index: int | None = None,
                         miss_flags: np.ndarray | None = None
                         ) -> IntervalReport:
        """Handle one buffer overflow; returns the interval's report.

        ``miss_flags`` (optional, one bool per sample) enables per-region
        data-cache miss-rate tracking for self-monitoring.
        """
        pending = self.begin_interval(pcs, interval_index, miss_flags)
        events = self.observe_pending(pending)
        return self.finish_interval(pending, events)

    def begin_interval(self, pcs: np.ndarray,
                       interval_index: int | None = None,
                       miss_flags: np.ndarray | None = None,
                       attributed: AttributionResult | None = None
                       ) -> PendingInterval:
        """Attribute and account one buffer; defer phase detection.

        Runs steps 1-2 of the pipeline (attribution, UCR/formation) plus
        the per-region bookkeeping of step 3 (sample counts, cost
        charges, miss rates, activity), and returns the deferred detector
        observations.  ``process_interval`` is exactly ``begin`` +
        ``observe_pending`` + ``finish``.  *attributed* is this buffer's
        result from a round of
        :func:`~repro.regions.attribution.attribute_round` over this
        monitor's attributor, which already charged the ledger; without
        it the monitor attributes the buffer itself.
        """
        self._interval_index = (self._interval_index + 1
                                if interval_index is None
                                else interval_index)
        index = self._interval_index
        pcs = np.asarray(pcs, dtype=np.int64)
        if miss_flags is not None:
            miss_flags = np.asarray(miss_flags, dtype=bool)
            if miss_flags.size != pcs.size:
                raise RegionError(
                    f"miss_flags has {miss_flags.size} entries, "
                    f"expected {pcs.size}")

        # 1. Distribute samples (cost charged by the attributor).
        result = (attributed if attributed is not None
                  else self.attributor.attribute(pcs))

        # 2. UCR accounting and formation trigger.
        formation_outcome: FormationOutcome | None = None
        if self.ucr.record(result.ucr_fraction, index):
            formation_outcome = self.formation.form(result.ucr_pcs, index)
            for region in formation_outcome.new_regions:
                if self.formation_veto is not None \
                        and self.formation_veto(region):
                    # Span suppressed (watchdog backoff): drop it again —
                    # its samples stay in the UCR.
                    self.registry.remove(region.rid)
                    continue
                self._install_region(region)

        # 3a. Per-region accounting.  Regions formed this interval start
        #     observing from the next one (their samples for this
        #     interval were counted as UCR).
        region_samples: dict[int, int] = {}
        to_observe: list[tuple[int, np.ndarray | None]] = []
        new_rids = set()
        if formation_outcome is not None:
            new_rids = {r.rid for r in formation_outcome.new_regions}
        for region in self.registry:
            rid = region.rid
            if rid in new_rids:
                continue
            counts = result.region_counts.get(rid)
            n_samples = result.total_for(rid)
            if n_samples:
                region_samples[rid] = n_samples
                self.ledger.charge_similarity(region.n_instructions)
                if miss_flags is not None:
                    inside = (pcs >= region.start) & (pcs < region.end)
                    rate = float(miss_flags[inside].mean())
                    self._miss_rates.setdefault(rid, []).append(
                        (index, rate))
            self.ledger.charge_lpd_state()
            to_observe.append((rid, counts))
            self._activity[rid].record(n_samples, result.n_samples)

        return PendingInterval(
            index=index,
            n_samples=int(pcs.size),
            ucr_fraction=result.ucr_fraction,
            formation=formation_outcome,
            region_samples=region_samples,
            to_observe=to_observe)

    def observe_pending(self, pending: PendingInterval
                        ) -> list[tuple[int, PhaseEvent]]:
        """Step 3b: run the deferred detector observations, one by one."""
        events: list[tuple[int, PhaseEvent]] = []
        for rid, counts in pending.to_observe:
            event = self._detectors[rid].observe(counts, pending.index)
            if event is not None:
                events.append((rid, event))
        return events

    def finish_interval(self, pending: PendingInterval,
                        events: list[tuple[int, PhaseEvent]]
                        ) -> IntervalReport:
        """Steps 4-5: pruning, report assembly, interval telemetry."""
        index = pending.index

        pruned: list[int] = []
        if self.pruning is not None:
            for region in list(self.registry.regions()):
                activity = self._activity[region.rid]
                age = index - self._formed_at[region.rid]
                if self.pruning.should_prune(activity, age):
                    self.registry.remove(region.rid)
                    self._retired[region.rid] = (
                        region, self._detectors.pop(region.rid))
                    self._activity.pop(region.rid)
                    pruned.append(region.rid)

        report = IntervalReport(
            interval_index=index,
            ucr_fraction=pending.ucr_fraction,
            formation=pending.formation,
            events=tuple(events),
            region_samples=pending.region_samples,
            pruned=tuple(pruned))
        self.reports.append(report)
        if self._telemetry.enabled:
            self._telemetry.emit(IntervalClosed(
                interval_index=index, n_samples=pending.n_samples,
                ucr_fraction=float(pending.ucr_fraction),
                n_regions=len(self.registry)))
        return report

    def process_stream(self, stream: SampleStream,
                       track_misses: bool = False) -> list[IntervalReport]:
        """Process a whole sample stream, one buffer interval at a time.

        With ``track_misses`` on, the stream's data-cache miss flags feed
        per-region miss-rate tracking (see :meth:`region_miss_rates`).
        """
        buffer_size = self.thresholds.buffer_size
        reports = []
        for index, window in stream.intervals(buffer_size):
            miss = stream.dcache_miss[window] if track_misses else None
            reports.append(self.process_interval(
                stream.pcs[window], index, miss_flags=miss))
        return reports

    def region_miss_rates(self, rid: int) -> list[tuple[int, float]]:
        """(interval, miss-rate) observations for a region.

        Empty unless the stream was processed with miss tracking.
        """
        self.detector(rid)  # validates the id
        return list(self._miss_rates.get(rid, []))

    # -- aggregate statistics ---------------------------------------------------

    @property
    def intervals_processed(self) -> int:
        """Number of intervals handled so far."""
        return len(self.reports)

    def phase_change_counts(self) -> dict[int, int]:
        """rid -> number of local phase changes (Figure 13's statistic)."""
        return {region.rid: self.detector(region.rid).phase_change_count()
                for region in self.all_regions()}

    def stable_time_fractions(self) -> dict[int, float]:
        """rid -> fraction of active intervals spent stable (Figure 14)."""
        return {region.rid: self.detector(region.rid).stable_time_fraction()
                for region in self.all_regions()}

    def total_events(self) -> int:
        """All local phase changes across all regions."""
        return sum(self.phase_change_counts().values())

    def region_sample_matrix(self) -> tuple[list[Region], np.ndarray]:
        """(regions, intervals x regions sample-count matrix) for charts."""
        regions = self.all_regions()
        index = {region.rid: i for i, region in enumerate(regions)}
        matrix = np.zeros((len(self.reports), len(regions)), dtype=np.int64)
        for row, report in enumerate(self.reports):
            for rid, count in report.region_samples.items():
                matrix[row, index[rid]] = count
        return regions, matrix
