"""Batched local phase detection: one bank, many detector rows.

A :class:`BatchLpdBank` holds the state of N ``LocalPhaseDetector``
-equivalent rows in flat NumPy arrays — integer machine states, last-r
values, per-row thresholds — plus width-grouped stable-set matrices, and
advances any subset of rows per call with vectorized kernels.  Each row
is exposed through a :class:`BatchLocalPhaseDetector` view whose surface
mirrors the scalar detector (``state``, ``last_r``, ``events``,
``observations``, ``reset()``, ...) so region monitors, watchdogs and
figure code consume either interchangeably.

Bit-equality design (enforced row by row by
``tests/batch/test_lpd_conformance.py``, and lane by lane by the
conformance oracle in ``tests/conformance/``, whose ``batch``,
``worker`` and ``fleet`` engines are held to the scalar pipeline over
every spec2000 model, fault plan, feed pattern and churn it generates):

* stable-set and current histograms are grouped by *exact* width — no
  padding — so row-wise reductions share the scalar's pairwise-summation
  tree (see :mod:`repro.batch.compiled`);
* the state machine steps through integer tables compiled from
  :func:`~repro.core.states.lpd_machine_spec`, the same table the
  ``repro-check`` model checker proves equivalent to the imperative
  detector; the fused classify-and-step runs in one kernel call;
* priming, starvation (``sum < min_interval_samples``) and the no-sample
  hold replicate the scalar control flow branch for branch.

The hot path is the *row group*: a :class:`LpdRowGroup` pins a
same-width population once — contiguous bank columns and stable-set
slots become slices, so per-interval stepping touches no Python per row
and gathers become views.  ``observe_many`` remains the fully general
(and slower) per-item door; sessions regroup through
:mod:`repro.batch.regroup` so churn (resets, quarantines, ragged ends)
re-coalesces instead of stranding rows in the item loop.

Observation records are materialized lazily: the hot path appends one
compact array record per call, and per-row ``LpdObservation`` lists are
built only when a view's ``observations`` is first read.  Phase events
are rare and constructed eagerly, because monitors and watchdogs consume
them per interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.batch import compiled
from repro.batch.indexing import as_slice
from repro.batch.tables import CompiledMachine, compile_machine
from repro.core.histogram import RegionHistogram
from repro.core.lpd import LpdObservation
from repro.core.similarity import PearsonSimilarity, SimilarityMeasure
from repro.core.states import (PhaseEvent, PhaseEventKind, PhaseState,
                               lpd_machine_spec)
from repro.core.thresholds import LpdThresholds
from repro.telemetry.bus import EventBus, get_bus
from repro.telemetry.events import (PhaseChange, StableSetFrozen,
                                    StableSetUpdated, StateTransition)

__all__ = ["BatchLpdBank", "BatchLocalPhaseDetector", "LpdRowGroup"]

#: Bank growth floor (rows); capacities double beyond it.
_MIN_CAPACITY = 16


class _SetStore:
    """Stable-set rows of one histogram width, densely packed.

    Rows are allocated from a freelist (single rows) or the tail (blocks,
    which must be contiguous).  ``epoch`` increments whenever existing
    rows are *relocated* (group compaction) so cached row groups can
    detect that their slot slices went stale.

    ``sum1``/``sum2`` cache each slot's row sum and sum of squares —
    the stable-side reductions of the Pearson kernel, which otherwise
    dominate the steady-state step even though stable sets change
    rarely.  A slot's cache entry is valid only while ``fresh`` is True;
    writers either refresh the sums bit-exactly alongside the row or
    clear the flag and let the next step recompute lazily.
    """

    __slots__ = ("width", "rows", "used", "free", "epoch",
                 "sum1", "sum2", "fresh")

    def __init__(self, width: int) -> None:
        self.width = width
        self.rows = np.zeros((_MIN_CAPACITY, width), dtype=np.float64)
        self.used = 0
        self.free: list[int] = []
        self.epoch = 0
        self.sum1 = np.zeros(_MIN_CAPACITY, dtype=np.float64)
        self.sum2 = np.zeros(_MIN_CAPACITY, dtype=np.float64)
        self.fresh = np.zeros(_MIN_CAPACITY, dtype=bool)

    def _reserve(self, capacity: int) -> None:
        if capacity <= self.rows.shape[0]:
            return
        size = self.rows.shape[0]
        while size < capacity:
            size *= 2
        grown = np.zeros((size, self.width), dtype=np.float64)
        grown[:self.used] = self.rows[:self.used]
        self.rows = grown
        for name in ("sum1", "sum2", "fresh"):
            old = getattr(self, name)
            big = np.zeros(size, dtype=old.dtype)
            big[:self.used] = old[:self.used]
            setattr(self, name, big)

    def alloc(self) -> int:
        if self.free:
            slot = self.free.pop()
        else:
            self._reserve(self.used + 1)
            slot = self.used
            self.used += 1
        self.fresh[slot] = False
        return slot

    def alloc_block(self, count: int) -> int:
        """Allocate *count* contiguous slots; returns the first index.

        Prefers a contiguous run from the freelist — repeated group
        compactions under churn (quarantine/release cycles) then recycle
        the slots they released instead of growing the store tail
        without bound.
        """
        if count and len(self.free) >= count:
            self.free.sort()
            run = 1
            for i in range(1, len(self.free)):
                if self.free[i] == self.free[i - 1] + 1:
                    run += 1
                    if run == count:
                        start = self.free[i - count + 1]
                        del self.free[i - count + 1:i + 1]
                        self.fresh[start:start + count] = False
                        return start
                else:
                    run = 1
        self._reserve(self.used + count)
        start = self.used
        self.used += count
        self.fresh[start:start + count] = False
        return start

    def release(self, slots: np.ndarray) -> None:
        """Return slots to the freelist (contents need not be cleared)."""
        self.free.extend(int(slot) for slot in slots)


@dataclass
class _StepRecord:
    """Compact log of one bank step (lazy observations)."""

    handles: np.ndarray
    interval_indices: np.ndarray
    had_samples: np.ndarray
    r_values: np.ndarray
    states: np.ndarray
    events: dict[int, PhaseEvent] = field(default_factory=dict)


class LpdRowGroup:
    """A pinned same-width population, stepped with zero per-row Python.

    Built by :meth:`BatchLpdBank.make_group`; when the member rows'
    handles (bank columns) and stable-set slots are contiguous — always
    true for :meth:`BatchLpdBank.add_detectors` populations, restored
    for churned ones by slot compaction — indexing degenerates to
    slices and every gather in the step becomes a view.
    """

    __slots__ = ("width", "k", "handles", "index", "slots", "slot_index",
                 "store", "epoch")

    def __init__(self, width: int, handles: np.ndarray,
                 index: slice | np.ndarray, slots: np.ndarray,
                 slot_index: slice | np.ndarray,
                 store: _SetStore) -> None:
        self.width = width
        self.k = handles.size
        self.handles = handles
        self.index = index          # slice | int64 array (bank columns)
        self.slots = slots
        self.slot_index = slot_index  # slice | int64 array (store rows)
        self.store = store
        self.epoch = store.epoch

    @property
    def coalesced(self) -> bool:
        """Whether both bank columns and stable-set slots are slices."""
        return (isinstance(self.index, slice)
                and isinstance(self.slot_index, slice))


class BatchLpdBank:
    """Vectorized storage and stepping for many local phase detectors."""

    def __init__(self) -> None:
        self.machine: CompiledMachine = compile_machine(lpd_machine_spec())
        self._input_similar = self.machine.input_index["similar"]
        self._input_dissimilar = self.machine.input_index["dissimilar"]
        self._stable_vec = self.machine.stable
        self._n = 0
        capacity = _MIN_CAPACITY
        self._state = np.zeros(capacity, dtype=np.int64)
        self._last_r = np.zeros(capacity, dtype=np.float64)
        self._active = np.zeros(capacity, dtype=np.int64)
        self._stable_ivals = np.zeros(capacity, dtype=np.int64)
        self._threshold = np.zeros(capacity, dtype=np.float64)
        self._min_samples = np.zeros(capacity, dtype=np.float64)
        self._width = np.zeros(capacity, dtype=np.int64)
        self._has_set = np.zeros(capacity, dtype=bool)
        self._set_slot = np.zeros(capacity, dtype=np.int64)
        self._sets: dict[int, _SetStore] = {}
        # Plain-list mirror of _width: the observe_many item loop reads one
        # width per item, and list indexing beats a NumPy scalar lookup there.
        self._width_py: list[int] = []
        self._has_custom = False
        # Per-row Python objects.
        self._rids: list[int] = []
        self._buses: list[EventBus] = []
        self._thresholds: list[LpdThresholds] = []
        self._measures: list[SimilarityMeasure] = []
        self._custom_measure: list[bool] = []
        self._events: list[list[PhaseEvent]] = []
        self._observations: list[list[LpdObservation]] = []
        self._distinct_buses: list[EventBus] = []
        self._log: list[_StepRecord] = []
        self._materialized_logs = 0
        self._shared_pearson = PearsonSimilarity()

    def __len__(self) -> int:
        return self._n

    # -- row allocation ------------------------------------------------------

    def _reserve(self, capacity: int) -> None:
        if capacity <= self._state.size:
            return
        size = self._state.size
        while size < capacity:
            size *= 2
        for name in ("_state", "_last_r", "_active", "_stable_ivals",
                     "_threshold", "_min_samples", "_width", "_has_set",
                     "_set_slot"):
            old = getattr(self, name)
            grown = np.zeros(size, dtype=old.dtype)
            grown[:self._n] = old[:self._n]
            setattr(self, name, grown)

    def _store_for(self, width: int) -> _SetStore:
        store = self._sets.get(width)
        if store is None:
            store = self._sets[width] = _SetStore(width)
        return store

    def _register_row(self, thresholds: LpdThresholds, bus: EventBus,
                      measure: SimilarityMeasure | None,
                      region_id: int) -> None:
        self._rids.append(region_id)
        self._buses.append(bus)
        if not any(bus is seen for seen in self._distinct_buses):
            self._distinct_buses.append(bus)
        self._thresholds.append(thresholds)
        pearson = measure is None or type(measure) is PearsonSimilarity
        self._measures.append(measure if measure is not None
                              else self._shared_pearson)
        self._custom_measure.append(not pearson)
        if not pearson:
            self._has_custom = True
        self._events.append([])
        self._observations.append([])

    def add_detector(self,
                     n_instructions: int,
                     thresholds: LpdThresholds | None = None,
                     measure: SimilarityMeasure | None = None,
                     telemetry: EventBus | None = None,
                     region_id: int = -1) -> "BatchLocalPhaseDetector":
        """Allocate one detector row; returns its scalar-compatible view."""
        if n_instructions < 1:
            raise ValueError("a region must contain at least one instruction")
        thresholds = thresholds or LpdThresholds()
        bus = telemetry if telemetry is not None else get_bus()
        self._reserve(self._n + 1)
        handle = self._n
        self._n += 1
        self._state[handle] = self.machine.initial
        self._last_r[handle] = 0.0
        self._threshold[handle] = thresholds.threshold_for_size(n_instructions)
        self._min_samples[handle] = thresholds.min_interval_samples
        self._width[handle] = n_instructions
        self._width_py.append(n_instructions)
        self._has_set[handle] = False
        self._set_slot[handle] = self._store_for(n_instructions).alloc()
        self._register_row(thresholds, bus, measure, region_id)
        return BatchLocalPhaseDetector(self, handle)

    def add_detectors(self,
                      n_instructions: int,
                      count: int,
                      thresholds: LpdThresholds | None = None,
                      telemetry: EventBus | None = None,
                      region_ids: list[int] | None = None
                      ) -> list["BatchLocalPhaseDetector"]:
        """Allocate *count* same-width rows with contiguous handles/slots.

        The fleet allocator: populations built this way group into pure
        slices (:meth:`make_group` finds them already coalesced).  All
        rows share *thresholds* and *telemetry*; *region_ids* defaults
        to ``-1`` per row.
        """
        if n_instructions < 1:
            raise ValueError("a region must contain at least one instruction")
        if count < 0:
            raise ValueError(f"cannot allocate {count} detector rows")
        thresholds = thresholds or LpdThresholds()
        bus = telemetry if telemetry is not None else get_bus()
        self._reserve(self._n + count)
        start = self._n
        stop = start + count
        self._n = stop
        sel = slice(start, stop)
        self._state[sel] = self.machine.initial
        self._last_r[sel] = 0.0
        self._threshold[sel] = thresholds.threshold_for_size(n_instructions)
        self._min_samples[sel] = thresholds.min_interval_samples
        self._width[sel] = n_instructions
        self._width_py.extend([n_instructions] * count)
        self._has_set[sel] = False
        store = self._store_for(n_instructions)
        first_slot = store.alloc_block(count)
        self._set_slot[sel] = np.arange(first_slot, first_slot + count,
                                        dtype=np.int64)
        rids = region_ids if region_ids is not None else [-1] * count
        self._rids.extend(rids)
        self._buses.extend([bus] * count)
        if not any(bus is seen for seen in self._distinct_buses):
            self._distinct_buses.append(bus)
        self._thresholds.extend([thresholds] * count)
        self._measures.extend([self._shared_pearson] * count)
        self._custom_measure.extend([False] * count)
        self._events.extend([] for _ in range(count))
        self._observations.extend([] for _ in range(count))
        return [BatchLocalPhaseDetector(self, handle)
                for handle in range(start, stop)]

    def reset_row(self, handle: int) -> None:
        """Scalar ``reset()``: back to UNSTABLE, stable set dropped."""
        self._state[handle] = self.machine.initial
        self._has_set[handle] = False
        self._last_r[handle] = 0.0

    # -- row groups ----------------------------------------------------------

    def make_group(self, views: list) -> LpdRowGroup:
        """Pin *views* (all one width) into a reusable row group.

        Stable-set slots that are not already contiguous are relocated
        into one fresh contiguous block — O(group) once, after which
        every step gathers by slice.  Compaction bumps the store epoch,
        invalidating any *other* group over relocated rows (stepping a
        stale group raises), so callers that cache groups must rebuild
        them after building a newer compacted group over the same width;
        see :mod:`repro.batch.regroup`.
        """
        k = len(views)
        handles = np.fromiter((view._handle for view in views),
                              dtype=np.int64, count=k)
        if k == 0:
            return LpdRowGroup(0, handles, slice(0, 0), handles,
                               slice(0, 0), _SetStore(1))
        widths = self._width[handles]
        width = int(widths[0])
        if not np.all(widths == width):
            other = int(widths[widths != width][0])
            raise ValueError(
                f"row group mixes widths {width} and {other}; group rows "
                f"by exact histogram width")
        store = self._sets[width]
        slots = self._set_slot[handles].copy()
        index = as_slice(handles)
        slot_index = as_slice(slots)
        if slot_index is None:
            first = store.alloc_block(k)
            dest = np.arange(first, first + k, dtype=np.int64)
            store.rows[dest] = store.rows[slots]
            # relocation preserves bits, so the sum cache moves with it
            store.sum1[dest] = store.sum1[slots]
            store.sum2[dest] = store.sum2[slots]
            store.fresh[dest] = store.fresh[slots]
            store.release(slots)
            self._set_slot[handles] = dest
            store.epoch += 1
            slots = dest
            slot_index = slice(first, first + k)
        return LpdRowGroup(width, handles,
                           index if index is not None else handles,
                           slots, slot_index, store)

    def telemetry_live(self) -> bool:
        """Whether any bus attached to this bank is currently enabled."""
        return any(bus.enabled for bus in self._distinct_buses)

    # -- the vectorized step -------------------------------------------------

    def observe_many(self, items: list) -> list[PhaseEvent | None]:
        """Advance many rows by one interval each, in lockstep.

        *items* is a list of ``(detector_view, histogram, interval_index)``
        triples — histogram ``None`` (or empty / starved) holds the row
        exactly like the scalar detector.  Each row may appear at most
        once per call.  Returns the phase event (or ``None``) per item,
        in order.
        """
        k = len(items)
        results: list[PhaseEvent | None] = [None] * k
        handle_list: list[int] = [0] * k
        index_list: list[int] = [0] * k
        active_mask = np.zeros(k, dtype=bool)
        # item position -> (state_before, updated, frozen) for stepped rows,
        # consumed by the ordered telemetry replay below.
        primed: list[int] = []
        stepped: dict[int, tuple[int, bool, bool]] = {}
        event_positions: list[int] = []
        telemetry_live = self.telemetry_live()
        # width -> ([item position], [float64 counts row])
        groups: dict[int, tuple[list[int], list[np.ndarray]]] = {}
        width_py = self._width_py

        for position, (view, histogram, interval_index) in enumerate(items):
            handle = view._handle
            handle_list[position] = handle
            index_list[position] = interval_index
            if histogram is None:
                continue
            from_hist = isinstance(histogram, RegionHistogram)
            if from_hist:
                if histogram.is_empty():
                    continue
                counts = np.asarray(histogram.counts, dtype=np.float64)
            else:
                counts = np.asarray(histogram, dtype=np.float64)
            width = width_py[handle]
            if counts.size != width:
                # The scalar checks an ndarray's zero sum before its size.
                if not from_hist and counts.sum() == 0:
                    continue
                raise ValueError(
                    f"histogram has {counts.size} slots, detector expects "
                    f"{width}")
            position_list, rows = groups.setdefault(width, ([], []))
            position_list.append(position)
            rows.append(counts)

        handles = np.array(handle_list, dtype=np.int64)
        indices = np.array(index_list, dtype=np.int64)

        for width, (position_list, rows) in groups.items():
            counts_block = np.stack(rows)
            positions = np.asarray(position_list, dtype=np.int64)
            group_handles = handles[positions]
            group = LpdRowGroup(width, group_handles, group_handles,
                                self._set_slot[group_handles],
                                self._set_slot[group_handles],
                                self._sets[width])
            self._advance_group(group, counts_block, indices, positions,
                                active_mask, primed, stepped, results,
                                event_positions, telemetry_live)

        self._finish_step(handles, indices, active_mask, primed, stepped,
                          results, event_positions, telemetry_live)
        return results

    def observe_grouped(self, group: LpdRowGroup, counts_block: np.ndarray,
                        interval_index: int) -> list[PhaseEvent | None]:
        """Advance a pinned row group by one interval from a dense block.

        The fleet fast path: *counts_block* is ``(group.k, group.width)``
        float64 (unit inner stride; ring-buffer views qualify), row i
        feeding group row i.  Starved and all-zero rows hold exactly as
        in ``observe_many``.
        """
        k = group.k
        if counts_block.shape != (k, group.width):
            raise ValueError(
                f"counts block shape {counts_block.shape} does not match "
                f"group ({k}, {group.width})")
        results: list[PhaseEvent | None] = [None] * k
        active_mask = np.zeros(k, dtype=bool)
        primed: list[int] = []
        stepped: dict[int, tuple[int, bool, bool]] = {}
        event_positions: list[int] = []
        telemetry_live = self.telemetry_live()
        indices = np.full(k, interval_index, dtype=np.int64)
        self._advance_group(group, counts_block, indices, None, active_mask,
                            primed, stepped, results, event_positions,
                            telemetry_live)
        self._finish_step(group.handles, indices, active_mask, primed,
                          stepped, results, event_positions, telemetry_live,
                          index=group.index)
        return results

    # -- the group step core -------------------------------------------------

    def _advance_group(self, group: LpdRowGroup, block: np.ndarray,
                       call_indices: np.ndarray, positions: np.ndarray | None,
                       active_mask: np.ndarray, primed: list, stepped: dict,
                       results: list, event_positions: list,
                       telemetry_live: bool) -> None:
        """Step one same-width group; mutates the per-call accumulators.

        *positions* maps group rows to item positions in the enclosing
        call (``None`` means identity: group row i is item i).  The hot
        shape — every row live and primed, no telemetry — runs without
        any per-row Python.
        """
        k = group.k
        if k == 0:
            return
        if group.epoch != group.store.epoch:
            raise RuntimeError(
                "stale row group: stable-set slots were relocated by a "
                "newer compaction; rebuild the group with make_group()")
        block = np.asarray(block, dtype=np.float64)
        sums = block.sum(axis=1)
        # min_interval_samples >= 1 (validated by LpdThresholds), so the
        # scalar's all-zero hold is subsumed by the starvation hold.
        live = sums >= self._min_samples[group.index]
        if not live.any():
            return
        if bool(live.all()):
            row_index = group.index
            slot_index = group.slot_index
            live_block = block
            live_positions = positions
        else:
            live_rows = np.flatnonzero(live)
            row_index = group.handles[live_rows]
            slot_index = group.slots[live_rows]
            live_block = block[live_rows]
            live_positions = (live_rows if positions is None
                              else positions[live_rows])
        if live_positions is None:
            active_mask[:k] = live
        else:
            active_mask[live_positions] = True
        self._active[row_index] += 1

        prime_sel = ~self._has_set[row_index]
        if not prime_sel.any():
            self._advance_rows(row_index, slot_index, group.store,
                               live_block, live_positions, call_indices,
                               stepped, results, event_positions,
                               telemetry_live)
            return

        # Cold path: some rows prime (first interval after alloc/reset).
        row_arr = (group.handles if isinstance(row_index, slice)
                   else row_index)
        slot_arr = (group.slots if isinstance(slot_index, slice)
                    else slot_index)
        pos_arr = (np.arange(live_block.shape[0], dtype=np.int64)
                   if live_positions is None else live_positions)
        prime_rows = row_arr[prime_sel]
        prime_slots = slot_arr[prime_sel]
        group.store.rows[prime_slots] = live_block[prime_sel]
        group.store.fresh[prime_slots] = False
        self._has_set[prime_rows] = True
        self._stable_ivals[prime_rows] += \
            self._stable_vec[self._state[prime_rows]]
        primed.extend(int(p) for p in pos_arr[prime_sel])
        step_sel = ~prime_sel
        if step_sel.any():
            self._advance_rows(row_arr[step_sel], slot_arr[step_sel],
                               group.store, live_block[step_sel],
                               pos_arr[step_sel], call_indices, stepped,
                               results, event_positions, telemetry_live)

    def _advance_rows(self, row_index: slice | np.ndarray,
                      slot_index: slice | np.ndarray, store: _SetStore,
                      counts: np.ndarray,
                      live_positions: np.ndarray | None,
                      call_indices: np.ndarray, stepped: dict,
                      results: list, event_positions: list,
                      telemetry_live: bool) -> None:
        """Pearson + fused FSM step for rows that all hold a stable set.

        *row_index* / *slot_index* are slices (views all the way down)
        or int64 arrays; *counts* is the matching ``(m, width)`` block.
        """
        stable_rows = store.rows[slot_index]
        stale = ~store.fresh[slot_index]
        if stale.any():
            # Lazy refresh: slots written without sums (priming, alloc).
            # A gathered copy keeps the width and unit inner stride, so
            # these reductions are bit-identical to the original rows'.
            if isinstance(slot_index, slice):
                stale_slots = np.flatnonzero(stale) + slot_index.start
            else:
                stale_slots = slot_index[stale]
            stale_rows = store.rows[stale_slots]
            store.sum1[stale_slots] = stale_rows.sum(axis=1)
            store.sum2[stale_slots] = (stale_rows * stale_rows).sum(axis=1)
            store.fresh[stale_slots] = True
        r, sum_y, sum_y2 = compiled.pearson_cached(
            stable_rows, counts, store.sum1[slot_index],
            store.sum2[slot_index])
        if self._has_custom:
            handle_iter = (range(row_index.start, row_index.stop)
                           if isinstance(row_index, slice) else row_index)
            for j, handle in enumerate(handle_iter):
                if self._custom_measure[handle]:
                    measure = self._measures[handle]
                    r[j] = float(measure(stable_rows[j], counts[j]))
        self._last_r[row_index] = r
        machine = self.machine
        before = self._state[row_index]
        if isinstance(row_index, slice):
            before = before.copy()  # the write below must not alias it
        after, changed, updated, frozen = compiled.lpd_step(
            before, r, self._threshold[row_index], self._input_similar,
            self._input_dissimilar, machine.next_state,
            machine.phase_change, machine.updates_stable_set,
            self._stable_vec)
        if updated.any():
            # The replacement row *is* the current interval, whose sums
            # the kernel just reduced — refresh the cache from those
            # instead of invalidating (same data, same tree, same bits).
            if isinstance(slot_index, slice):
                store.rows[slot_index][updated] = counts[updated]
                store.sum1[slot_index][updated] = sum_y[updated]
                store.sum2[slot_index][updated] = sum_y2[updated]
                store.fresh[slot_index][updated] = True
            else:
                replaced = slot_index[updated]
                store.rows[replaced] = counts[updated]
                store.sum1[replaced] = sum_y[updated]
                store.sum2[replaced] = sum_y2[updated]
                store.fresh[replaced] = True
        self._state[row_index] = after
        self._stable_ivals[row_index] += self._stable_vec[after]

        changed_rows = np.flatnonzero(changed)
        if changed_rows.size:
            phase_states = machine.phase_states
            for j in changed_rows:
                position = (int(j) if live_positions is None
                            else int(live_positions[j]))
                handle = (row_index.start + int(j)
                          if isinstance(row_index, slice)
                          else int(row_index[j]))
                stable_after = bool(self._stable_vec[after[j]])
                event = PhaseEvent(
                    interval_index=int(call_indices[position]),
                    kind=(PhaseEventKind.BECAME_STABLE if stable_after
                          else PhaseEventKind.BECAME_UNSTABLE),
                    state_from=phase_states[int(before[j])],
                    state_to=phase_states[int(after[j])],
                    detail=f"r={float(r[j]):.4f}")
                results[position] = event
                event_positions.append(position)
                self._events[handle].append(event)
        if telemetry_live:
            for j in range(counts.shape[0]):
                position = (int(j) if live_positions is None
                            else int(live_positions[j]))
                stepped[position] = (int(before[j]), bool(updated[j]),
                                     bool(frozen[j]))

    def _finish_step(self, handles: np.ndarray, indices: np.ndarray,
                     active_mask: np.ndarray, primed: list, stepped: dict,
                     results: list, event_positions: list,
                     telemetry_live: bool,
                     index: slice | None = None) -> None:
        """Close one bank step: log record, then ordered telemetry.

        *index* is an optional slice equivalent to *handles* (from a
        coalesced group) — the record snapshots then copy through strided
        loads instead of gathers.
        """
        if isinstance(index, slice):
            r_values = self._last_r[index].copy()
            states = self._state[index].copy()
        else:
            r_values = self._last_r[handles]
            states = self._state[handles]
        self._log.append(_StepRecord(
            handles=handles,
            interval_indices=indices,
            had_samples=active_mask,
            r_values=r_values,
            states=states,
            events={position: results[position]
                    for position in event_positions}))
        if telemetry_live:
            self._emit_telemetry(handles, indices, primed, stepped, results)

    # -- telemetry replay (cold path) ----------------------------------------

    def _emit_telemetry(self, handles: np.ndarray, indices: np.ndarray,
                        primed: list, stepped: dict,
                        results: list) -> None:
        """Re-emit per item, in order, exactly as the scalar detector."""
        primed_set = set(primed)
        phase_states = self.machine.phase_states
        for position in range(handles.size):
            handle = int(handles[position])
            bus = self._buses[handle]
            if not bus.enabled:
                continue
            index = int(indices[position])
            rid = self._rids[handle]
            if position in primed_set:
                bus.emit(StableSetUpdated(index, rid))
                continue
            info = stepped.get(position)
            if info is None:
                continue
            before, updated, frozen = info
            state_from = phase_states[before].value
            state_to = phase_states[int(self._state[handle])].value
            bus.emit(StateTransition(
                interval_index=index, detector="lpd", rid=rid,
                state_from=state_from, state_to=state_to,
                metric=float(self._last_r[handle])))
            if updated:
                bus.emit(StableSetUpdated(index, rid))
            if frozen:
                bus.emit(StableSetFrozen(index, rid))
            event = results[position]
            if event is not None:
                bus.emit(PhaseChange(
                    interval_index=index, detector="lpd", rid=rid,
                    kind=event.kind.value, state_from=state_from,
                    state_to=state_to, detail=event.detail))

    # -- lazy observation materialization ------------------------------------

    def materialize_observations(self) -> None:
        """Expand pending step records into per-row observation lists."""
        phase_states = self.machine.phase_states
        for record in self._log[self._materialized_logs:]:
            for position in range(record.handles.size):
                handle = int(record.handles[position])
                self._observations[handle].append(LpdObservation(
                    interval_index=int(record.interval_indices[position]),
                    r_value=float(record.r_values[position]),
                    had_samples=bool(record.had_samples[position]),
                    state=phase_states[int(record.states[position])],
                    event=record.events.get(position)))
        self._materialized_logs = len(self._log)

    def discard_observation_history(self) -> None:
        """Drop pending step records without materializing them.

        The step log exists only to expand per-row observation
        histories on demand; it grows with every interval stepped.
        Callers that consume events incrementally and never ask for
        observations (the serving layer, which pickles the bank into
        shard snapshots) discard it to keep their state bounded.
        Observations already materialized are kept; a later
        :meth:`materialize_observations` covers only steps taken after
        the discard.
        """
        self._log.clear()
        self._materialized_logs = 0


class BatchLocalPhaseDetector:
    """Scalar-compatible view of one :class:`BatchLpdBank` row.

    Mirrors the read surface of
    :class:`~repro.core.lpd.LocalPhaseDetector`; ``observe`` routes
    through the bank as a single-item batch (bit-identical — a size-1
    group reduces through the same tree as the scalar 1-D arrays).
    """

    __slots__ = ("_bank", "_handle")

    def __init__(self, bank: BatchLpdBank, handle: int) -> None:
        self._bank = bank
        self._handle = handle

    # -- identity and configuration -----------------------------------------

    @property
    def n_instructions(self) -> int:
        return int(self._bank._width[self._handle])

    @property
    def thresholds(self) -> LpdThresholds:
        return self._bank._thresholds[self._handle]

    @property
    def measure(self) -> SimilarityMeasure:
        return self._bank._measures[self._handle]

    @property
    def effective_threshold(self) -> float:
        """The r-threshold in force for this region's size."""
        return float(self._bank._threshold[self._handle])

    # -- live state -----------------------------------------------------------

    @property
    def state(self) -> PhaseState:
        """Current machine state."""
        return self._bank.machine.phase_states[
            int(self._bank._state[self._handle])]

    @property
    def in_stable_phase(self) -> bool:
        """Whether the region is currently in a locally stable phase."""
        return bool(self._bank._stable_vec[
            int(self._bank._state[self._handle])])

    @property
    def last_r(self) -> float:
        """Most recently reported similarity value (0 before execution)."""
        return float(self._bank._last_r[self._handle])

    @property
    def active_intervals(self) -> int:
        return int(self._bank._active[self._handle])

    @property
    def stable_intervals(self) -> int:
        return int(self._bank._stable_ivals[self._handle])

    @property
    def events(self) -> list[PhaseEvent]:
        """Phase changes emitted so far (live list, like the scalar's)."""
        return self._bank._events[self._handle]

    @property
    def observations(self) -> list[LpdObservation]:
        """Per-interval records, materialized from the bank's step log."""
        self._bank.materialize_observations()
        return self._bank._observations[self._handle]

    def stable_set(self) -> np.ndarray | None:
        """Copy of the current stable-set histogram, or ``None`` if unset."""
        bank = self._bank
        if not bank._has_set[self._handle]:
            return None
        store = bank._sets[int(bank._width[self._handle])]
        return store.rows[int(bank._set_slot[self._handle])].copy()

    # -- actions ---------------------------------------------------------------

    def observe(self, histogram: RegionHistogram | np.ndarray | None,
                interval_index: int) -> PhaseEvent | None:
        """Process one interval for this row only (single-item batch)."""
        return self._bank.observe_many(
            [(self, histogram, interval_index)])[0]

    def reset(self) -> None:
        """Re-enter the initial unstable state, dropping the stable set."""
        self._bank.reset_row(self._handle)

    # -- statistics ------------------------------------------------------------

    def stable_time_fraction(self) -> float:
        """Fraction of the region's active intervals spent stable."""
        if self.active_intervals == 0:
            return 0.0
        return self.stable_intervals / self.active_intervals

    def phase_change_count(self) -> int:
        """Number of phase changes emitted so far."""
        return len(self.events)
