"""Batched global phase detection: many GPD streams in lockstep.

A :class:`BatchGpdBank` keeps N ``GlobalPhaseDetector``-equivalent rows:
an integer state vector stepped through tables compiled from
:func:`~repro.core.states.gpd_machine_spec` (the dwell timer expanded
into explicit ``less_stable@k`` states, exactly as the model checker
verifies), a shared ``(N, history_length)`` centroid-history matrix kept
oldest-first, and per-row threshold columns.  Band statistics are
computed by grouping rows on their exact history fill count — no padding
— so every mean/std reduces through the same pairwise tree as the
scalar ``CentroidHistory.band()`` (see :mod:`repro.batch.compiled`).

The fleet fast path is :meth:`BatchGpdBank.observe_block`: a pinned
:class:`GpdRowGroup` (contiguous handles become slices) consumes a
``(k, B)`` sample block — typically a zero-copy ring-buffer view from
:mod:`repro.batch.rings` — computing centroids without materializing a
converted copy, and in the steady state (every history full) one dense
band-stats call and one fused classify-and-step cover the whole fleet.

Each row is exposed as a :class:`BatchGlobalPhaseDetector` view that
mirrors the scalar detector's read surface.
``tests/batch/test_gpd_conformance.py`` proves the two bit-identical on
states, phase-change indices and drift ratios row by row; the
conformance oracle in ``tests/conformance/`` does so lane by lane for
the ``batch``, ``worker`` and ``fleet`` engines, GPD-only lanes and
recorded traces included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.batch import compiled
from repro.batch.indexing import as_slice
from repro.batch.tables import CompiledMachine, compile_machine
from repro.core.centroid import BandOfStability
from repro.core.gpd import GpdObservation
from repro.core.states import (PhaseEvent, PhaseEventKind, PhaseState,
                               gpd_machine_spec)
from repro.core.thresholds import GpdThresholds
from repro.errors import ConfigError
from repro.telemetry.bus import EventBus, get_bus
from repro.telemetry.events import NO_REGION, PhaseChange, StateTransition

__all__ = ["BatchGpdBank", "BatchGlobalPhaseDetector", "GpdRowGroup"]

_MIN_CAPACITY = 16


@dataclass
class _StepRecord:
    """Compact log of one bank step (lazy ``observations``)."""

    handles: np.ndarray
    interval_indices: np.ndarray
    centroids: np.ndarray
    had_band: np.ndarray
    expectations: np.ndarray
    sds: np.ndarray
    ratios: np.ndarray
    states: np.ndarray
    events: dict[int, PhaseEvent] = field(default_factory=dict)


class GpdRowGroup:
    """A pinned GPD population; contiguous handles index by slice."""

    __slots__ = ("k", "handles", "index")

    def __init__(self, handles: np.ndarray,
                 index: slice | np.ndarray) -> None:
        self.k = handles.size
        self.handles = handles
        self.index = index  # slice | int64 array (bank columns)

    @property
    def coalesced(self) -> bool:
        """Whether bank columns are addressed by one slice."""
        return isinstance(self.index, slice)


class BatchGpdBank:
    """Vectorized storage and stepping for many global phase detectors.

    All rows share ``dwell_intervals`` (it shapes the compiled machine)
    and ``history_length`` (it shapes the history matrix); the numeric
    thresholds TH1..TH4, the thickness divisor and the starvation floor
    are per-row columns.
    """

    def __init__(self, dwell_intervals: int = 2,
                 history_length: int = 8) -> None:
        self.dwell_intervals = dwell_intervals
        self.history_length = history_length
        self.machine: CompiledMachine = compile_machine(
            gpd_machine_spec(dwell_intervals))
        self._stable_vec = self.machine.stable
        self._input_no_band = self.machine.input_index["no_band"]
        self._n = 0
        capacity = _MIN_CAPACITY
        self._state = np.full(capacity, self.machine.initial, dtype=np.int64)
        self._interval = np.full(capacity, -1, dtype=np.int64)
        self._hist = np.zeros((capacity, history_length), dtype=np.float64)
        self._hist_n = np.zeros(capacity, dtype=np.int64)
        self._th1 = np.zeros(capacity, dtype=np.float64)
        self._th2 = np.zeros(capacity, dtype=np.float64)
        self._th3 = np.zeros(capacity, dtype=np.float64)
        self._th4 = np.zeros(capacity, dtype=np.float64)
        self._divisor = np.zeros(capacity, dtype=np.float64)
        self._min_buffer = np.zeros(capacity, dtype=np.int64)
        self._stable_obs = np.zeros(capacity, dtype=np.int64)
        self._buses: list[EventBus] = []
        self._thresholds: list[GpdThresholds] = []
        self._events: list[list[PhaseEvent]] = []
        self._observations: list[list[GpdObservation]] = []
        self._distinct_buses: list[EventBus] = []
        self._log: list[_StepRecord] = []
        self._materialized_logs = 0

    def __len__(self) -> int:
        return self._n

    def _reserve(self, capacity: int) -> None:
        if capacity <= self._state.size:
            return
        size = self._state.size
        while size < capacity:
            size *= 2
        for name in ("_state", "_interval", "_hist_n", "_th1", "_th2",
                     "_th3", "_th4", "_divisor", "_min_buffer",
                     "_stable_obs"):
            old = getattr(self, name)
            grown = np.zeros(size, dtype=old.dtype)
            grown[:self._n] = old[:self._n]
            setattr(self, name, grown)
        self._state[self._n:] = self.machine.initial
        self._interval[self._n:] = -1
        hist = np.zeros((size, self.history_length), dtype=np.float64)
        hist[:self._n] = self._hist[:self._n]
        self._hist = hist

    def _check_thresholds(self, thresholds: GpdThresholds) -> GpdThresholds:
        if thresholds.dwell_intervals != self.dwell_intervals:
            raise ConfigError(
                f"bank compiled for dwell_intervals="
                f"{self.dwell_intervals}, got {thresholds.dwell_intervals}")
        if thresholds.history_length != self.history_length:
            raise ConfigError(
                f"bank sized for history_length={self.history_length}, "
                f"got {thresholds.history_length}")
        return thresholds

    def _init_row(self, handle: int, thresholds: GpdThresholds,
                  bus: EventBus) -> None:
        self._state[handle] = self.machine.initial
        self._interval[handle] = -1
        self._hist_n[handle] = 0
        self._th1[handle] = thresholds.th1
        self._th2[handle] = thresholds.th2
        self._th3[handle] = thresholds.th3
        self._th4[handle] = thresholds.th4
        self._divisor[handle] = thresholds.thickness_divisor
        self._min_buffer[handle] = thresholds.min_buffer_samples
        self._stable_obs[handle] = 0
        self._buses.append(bus)
        if not any(bus is seen for seen in self._distinct_buses):
            self._distinct_buses.append(bus)
        self._thresholds.append(thresholds)
        self._events.append([])
        self._observations.append([])

    def add_detector(self, thresholds: GpdThresholds | None = None,
                     telemetry: EventBus | None = None
                     ) -> "BatchGlobalPhaseDetector":
        """Allocate one detector row; returns its scalar-compatible view."""
        thresholds = self._check_thresholds(thresholds or GpdThresholds())
        bus = telemetry if telemetry is not None else get_bus()
        self._reserve(self._n + 1)
        handle = self._n
        self._n += 1
        self._init_row(handle, thresholds, bus)
        return BatchGlobalPhaseDetector(self, handle)

    def add_detectors(self, count: int,
                      thresholds: GpdThresholds | None = None,
                      telemetry: EventBus | None = None
                      ) -> list["BatchGlobalPhaseDetector"]:
        """Allocate *count* rows with contiguous handles (fleet path)."""
        if count < 0:
            raise ValueError(f"cannot allocate {count} detector rows")
        thresholds = self._check_thresholds(thresholds or GpdThresholds())
        bus = telemetry if telemetry is not None else get_bus()
        self._reserve(self._n + count)
        start = self._n
        self._n = start + count
        sel = slice(start, start + count)
        self._state[sel] = self.machine.initial
        self._interval[sel] = -1
        self._hist_n[sel] = 0
        self._th1[sel] = thresholds.th1
        self._th2[sel] = thresholds.th2
        self._th3[sel] = thresholds.th3
        self._th4[sel] = thresholds.th4
        self._divisor[sel] = thresholds.thickness_divisor
        self._min_buffer[sel] = thresholds.min_buffer_samples
        self._stable_obs[sel] = 0
        self._buses.extend([bus] * count)
        if not any(bus is seen for seen in self._distinct_buses):
            self._distinct_buses.append(bus)
        self._thresholds.extend([thresholds] * count)
        self._events.extend([] for _ in range(count))
        self._observations.extend([] for _ in range(count))
        return [BatchGlobalPhaseDetector(self, handle)
                for handle in range(start, start + count)]

    def make_group(self, views: list) -> GpdRowGroup:
        """Pin *views* into a reusable row group for block stepping."""
        handles = np.fromiter((view._handle for view in views),
                              dtype=np.int64, count=len(views))
        index = as_slice(handles)
        return GpdRowGroup(handles, index if index is not None else handles)

    def telemetry_live(self) -> bool:
        """Whether any bus attached to this bank is currently enabled."""
        return any(bus.enabled for bus in self._distinct_buses)

    # -- the vectorized step ---------------------------------------------------

    def observe_buffers(self, items: list) -> list[PhaseEvent | None]:
        """Process one full sample buffer per row, in lockstep.

        *items* is ``[(view, pcs_1d_array), ...]``; buffers below a row's
        ``min_buffer_samples`` take the starved hold, the rest go through
        a batched centroid.  All non-starved buffers must share one
        length (sessions deliver fixed-size intervals); mixed lengths
        fall back to per-row centroids, which are bit-identical anyway.
        """
        values = np.full(len(items), np.nan, dtype=np.float64)
        live: list[int] = []
        buffers = []
        for position, (view, pcs) in enumerate(items):
            buffer = np.asarray(pcs)
            if buffer.size < self._min_buffer[view._handle]:
                continue  # starved: NaN routes to the held path below
            live.append(position)
            buffers.append(buffer)
        if buffers:
            lengths = {b.size for b in buffers}
            if len(lengths) == 1:
                values[live] = compiled.centroid_rows(np.stack(buffers))
            else:
                for position, buffer in zip(live, buffers):
                    values[position] = compiled.centroid_rows(
                        buffer[np.newaxis, :])[0]
        starved = np.ones(len(items), dtype=bool)
        starved[live] = False
        return self.observe_centroids([view for view, _ in items], values,
                                      starved_mask=starved)

    def observe_block(self, group: GpdRowGroup,
                      block: np.ndarray) -> list[PhaseEvent | None]:
        """Advance a pinned group from one ``(k, B)`` sample block.

        The fleet fast path: *block* holds one full interval buffer per
        group row — typically a zero-copy column slice of a
        :class:`~repro.batch.rings.ShardRing` — and centroids accumulate
        straight off the (integer) view, bit-identical to the scalar
        conversion.  Rows whose ``min_buffer_samples`` exceeds ``B``
        take the starved hold, exactly as in :meth:`observe_buffers`.
        """
        if block.ndim != 2 or block.shape[0] != group.k:
            raise ValueError(
                f"sample block shape {block.shape} does not match "
                f"group of {group.k} rows")
        starved = self._min_buffer[group.index] > block.shape[1]
        values = compiled.centroid_rows(block)
        if starved.any():
            values = np.where(starved, np.nan, values)
        return self._advance_centroids(group.handles, group, values,
                                       starved if starved.any() else None)

    def observe_centroids(self, views: list, values: np.ndarray,
                          starved_mask: np.ndarray | None = None
                          ) -> list[PhaseEvent | None]:
        """Advance one interval per row given precomputed centroids.

        A non-finite centroid — or a ``starved_mask`` entry — takes the
        scalar's insufficient-data path: the interval is counted, state
        and history hold.  Each row may appear at most once per call.
        """
        values = np.asarray(values, dtype=np.float64)
        handles = np.fromiter((view._handle for view in views),
                              dtype=np.int64, count=len(views))
        return self._advance_centroids(handles, None, values, starved_mask)

    def _advance_centroids(self, handles: np.ndarray,
                           group: GpdRowGroup | None, values: np.ndarray,
                           starved_mask: np.ndarray | None
                           ) -> list[PhaseEvent | None]:
        k = handles.size
        index = group.index if group is not None else handles
        telemetry_live = self.telemetry_live()
        live = np.isfinite(values)
        if starved_mask is not None:
            live &= ~starved_mask
        self._interval[index] += 1
        indices = self._interval[index]
        before_all = self._state[index].copy() if telemetry_live else None
        results: list[PhaseEvent | None] = [None] * k

        expectations = np.zeros(k, dtype=np.float64)
        sds = np.zeros(k, dtype=np.float64)
        had_band = np.zeros(k, dtype=bool)
        ratios = np.full(k, np.inf, dtype=np.float64)

        if live.any():
            if bool(live.all()) and group is not None:
                live_positions = None
                live_index = group.index
                live_handles = handles
                live_values = values
            else:
                live_positions = np.flatnonzero(live)
                live_handles = handles[live_positions]
                live_index = live_handles
                live_values = values[live_positions]
            fills = self._hist_n[live_index]
            banded = fills >= 2
            history = self.history_length
            steady = history >= 2 and bool(np.all(fills == history))
            if steady:
                # Steady state: every history full -> one dense view.
                expectation, sd = compiled.band_stats_rows(
                    self._hist[live_index])
                if live_positions is None:
                    expectations[:] = expectation
                    sds[:] = sd
                    had_band[:] = True
                else:
                    expectations[live_positions] = expectation
                    sds[live_positions] = sd
                    had_band[live_positions] = True
                E, SD = expectation, sd
            else:
                # Band statistics, grouped by exact history fill count
                # (ascending; bincount, not np.unique, which imports
                # numpy.ma on first use).
                for fill in np.flatnonzero(np.bincount(fills[banded])):
                    sel = fills == fill
                    block = self._hist[live_handles[sel], :fill]
                    expectation, sd = compiled.band_stats_rows(block)
                    if live_positions is None:
                        expectations[sel] = expectation
                        sds[sel] = sd
                    else:
                        expectations[live_positions[sel]] = expectation
                        sds[live_positions[sel]] = sd
                if live_positions is None:
                    had_band[:] = banded
                    E = expectations
                    SD = sds
                else:
                    had_band[live_positions] = banded
                    E = expectations[live_positions]
                    SD = sds[live_positions]

            lower = E - SD
            upper = E + SD
            delta = np.where(
                live_values < lower, lower - live_values,
                np.where(live_values > upper, live_values - upper, 0.0))
            with np.errstate(divide="ignore", invalid="ignore"):
                raw_ratio = delta / E
            ratio = np.where(E > 0.0, raw_ratio,
                             np.where(delta > 0.0, np.inf, 0.0))
            if not steady:
                ratio = np.where(banded, ratio, np.inf)
            if live_positions is None:
                ratios[:] = ratio
            else:
                ratios[live_positions] = ratio

            thin = SD < E / self._divisor[live_index]
            machine = self.machine
            inputs = compiled.gpd_classify(
                ratio, thin, banded, self._th1[live_index],
                self._th2[live_index], self._th3[live_index],
                self._th4[live_index], self._input_no_band)
            before = self._state[live_index]
            if isinstance(live_index, slice):
                before = before.copy()  # the write below must not alias it
            after, changed = compiled.fsm_step(
                before, inputs, machine.next_state, machine.phase_change)
            self._state[live_index] = after
            self._stable_obs[live_index] += self._stable_vec[after]

            # Push the centroid (after the band was computed, like the
            # scalar: the current interval joins the history for next time).
            if steady:
                # Full everywhere: shift left, append. The overlapping
                # slice assignment is safe (NumPy buffers on overlap).
                self._hist[live_index, :-1] = self._hist[live_index, 1:]
                self._hist[live_index, -1] = live_values
            else:
                fill_room = fills < history
                if fill_room.any():
                    grow_handles = live_handles[fill_room]
                    self._hist[grow_handles, fills[fill_room]] = \
                        live_values[fill_room]
                    self._hist_n[grow_handles] += 1
                full = ~fill_room
                if full.any():
                    full_handles = live_handles[full]
                    self._hist[full_handles, :-1] = \
                        self._hist[full_handles, 1:]
                    self._hist[full_handles, -1] = live_values[full]

            changed_rows = np.flatnonzero(changed)
            if changed_rows.size:
                phase_states = machine.phase_states
                for j in changed_rows:
                    position = (int(j) if live_positions is None
                                else int(live_positions[j]))
                    handle = int(live_handles[j])
                    stable_after = bool(self._stable_vec[after[j]])
                    event = PhaseEvent(
                        interval_index=int(indices[position]),
                        kind=(PhaseEventKind.BECAME_STABLE if stable_after
                              else PhaseEventKind.BECAME_UNSTABLE),
                        state_from=phase_states[int(before[j])],
                        state_to=phase_states[int(after[j])],
                        detail=f"drift_ratio={float(ratio[j]):.4g}")
                    results[position] = event
                    self._events[handle].append(event)

        if not bool(live.all()):
            starved_handles = handles[~live]
            self._stable_obs[starved_handles] += \
                self._stable_vec[self._state[starved_handles]]

        self._log.append(_StepRecord(
            handles=handles,
            interval_indices=np.asarray(indices).copy(),
            centroids=np.where(live, values, np.nan),
            had_band=had_band,
            expectations=expectations,
            sds=sds,
            ratios=ratios,
            states=self._state[handles],
            events={p: e for p, e in enumerate(results) if e is not None}))

        if telemetry_live:
            self._emit_telemetry(handles, indices, live, before_all,
                                 ratios, results)
        return results

    # -- telemetry replay (cold path) ------------------------------------------

    def _emit_telemetry(self, handles: np.ndarray, indices: np.ndarray,
                        live: np.ndarray, before_all: np.ndarray,
                        ratios: np.ndarray, results: list) -> None:
        record = self._log[-1]
        phase_states = self.machine.phase_states
        for position in range(handles.size):
            if not live[position]:
                continue  # the scalar's starved path emits nothing
            handle = int(handles[position])
            bus = self._buses[handle]
            if not bus.enabled:
                continue
            index = int(indices[position])
            ratio = float(ratios[position])
            state_from = phase_states[int(before_all[position])].value
            state_to = phase_states[int(record.states[position])].value
            event = results[position]
            metric = ratio if np.isfinite(ratio) else -1.0
            bus.emit(StateTransition(
                interval_index=index, detector="gpd", rid=NO_REGION,
                state_from=state_from, state_to=state_to, metric=metric))
            if event is not None:
                bus.emit(PhaseChange(
                    interval_index=index, detector="gpd", rid=NO_REGION,
                    kind=event.kind.value, state_from=state_from,
                    state_to=state_to, detail=event.detail))

    # -- lazy observation materialization --------------------------------------

    def materialize_observations(self) -> None:
        """Expand pending step records into per-row observation lists."""
        phase_states = self.machine.phase_states
        for record in self._log[self._materialized_logs:]:
            for position in range(record.handles.size):
                handle = int(record.handles[position])
                band = None
                if record.had_band[position]:
                    band = BandOfStability(
                        expectation=float(record.expectations[position]),
                        sd=float(record.sds[position]))
                self._observations[handle].append(GpdObservation(
                    interval_index=int(record.interval_indices[position]),
                    centroid_value=float(record.centroids[position]),
                    band=band,
                    drift_ratio=float(record.ratios[position]),
                    state=phase_states[int(record.states[position])],
                    event=record.events.get(position)))
        self._materialized_logs = len(self._log)

    def discard_observation_history(self) -> None:
        """Drop pending step records without materializing them.

        See :meth:`BatchLpdBank.discard_observation_history` — same
        contract: bounded state for event-only consumers, at the price
        of observation history before the discard.
        """
        self._log.clear()
        self._materialized_logs = 0


class BatchGlobalPhaseDetector:
    """Scalar-compatible view of one :class:`BatchGpdBank` row."""

    __slots__ = ("_bank", "_handle")

    def __init__(self, bank: BatchGpdBank, handle: int) -> None:
        self._bank = bank
        self._handle = handle

    @property
    def thresholds(self) -> GpdThresholds:
        return self._bank._thresholds[self._handle]

    @property
    def state(self) -> PhaseState:
        """Current machine state."""
        return self._bank.machine.phase_states[
            int(self._bank._state[self._handle])]

    @property
    def in_stable_phase(self) -> bool:
        """Whether the detector currently declares a stable phase."""
        return bool(self._bank._stable_vec[
            int(self._bank._state[self._handle])])

    @property
    def intervals_seen(self) -> int:
        """Number of intervals processed so far."""
        return int(self._bank._interval[self._handle]) + 1

    @property
    def events(self) -> list[PhaseEvent]:
        """Phase changes emitted so far (live list, like the scalar's)."""
        return self._bank._events[self._handle]

    @property
    def observations(self) -> list[GpdObservation]:
        """Per-interval records, materialized from the bank's step log."""
        self._bank.materialize_observations()
        return self._bank._observations[self._handle]

    def observe_buffer(self, pcs: np.ndarray) -> PhaseEvent | None:
        """Process one full sample buffer (single-row batch)."""
        return self._bank.observe_buffers([(self, pcs)])[0]

    def observe_centroid(self, value: float) -> PhaseEvent | None:
        """Process one interval given its precomputed centroid."""
        return self._bank.observe_centroids(
            [self], np.asarray([value], dtype=np.float64))[0]

    def stable_interval_count(self) -> int:
        """Processed intervals that ended in a declared-stable phase."""
        return int(self._bank._stable_obs[self._handle])

    def stable_time_fraction(self) -> float:
        """Fraction of intervals spent in a declared-stable phase."""
        seen = self.intervals_seen
        if seen == 0:
            return 0.0
        return self.stable_interval_count() / seen
