"""Deterministic fault injection over :class:`SampleStream` objects.

Each transformer maps the stream's parallel arrays to faulted parallel
arrays.  Determinism contract: the output is a pure function of
``(stream, plan, seed)`` — spec *i* of a plan draws from
``np.random.default_rng([_FAULT_SALT, seed, i])``, so specs are
independent of each other's draw counts and a plan prefix always produces
the same intermediate stream.

Two invariants every transformer preserves (property-tested):

* cycle stamps stay monotone non-decreasing, so interval slicing stays
  time-ordered;
* PCs stay inside the stream's observed text range, *unless* the plan
  contains an active :class:`~repro.faults.model.PcBitCorruption` spec —
  the one fault whose entire point is out-of-space addresses.

The empty plan returns the input stream object itself: byte-identical by
construction, and cache-friendly.
"""

from __future__ import annotations

import numpy as np

from repro.core.histogram import INSTRUCTION_BYTES
from repro.errors import FaultError
from repro.faults.model import (DuplicateSamples, FaultPlan, FaultSpec,
                                InterruptStall, PcBitCorruption, PcSkid,
                                PeriodDrift, PeriodJitter, SampleDrop)
from repro.sampling.events import SampleStream

__all__ = ["inject", "simulate_faulty_sampling"]

#: Seed-sequence salt separating fault RNG streams from the PMU's.
_FAULT_SALT = 0x0FA17


def _rng_for(seed: int, spec_index: int) -> np.random.Generator:
    return np.random.default_rng([_FAULT_SALT, abs(int(seed)), spec_index])


class _Arrays:
    """Mutable working copy of a stream's parallel arrays."""

    def __init__(self, stream: SampleStream) -> None:
        self.pcs = stream.pcs.copy()
        self.cycles = stream.cycles.copy()
        self.miss = stream.dcache_miss.copy()
        self.rids = stream.region_ids.copy()
        self.instr = (None if stream.instr_delta is None
                      else stream.instr_delta.copy())

    @property
    def n(self) -> int:
        return int(self.pcs.size)

    def select(self, keep: np.ndarray) -> None:
        """Apply a boolean keep-mask (drop/stall) to every array."""
        self.pcs = self.pcs[keep]
        self.cycles = self.cycles[keep]
        self.miss = self.miss[keep]
        self.rids = self.rids[keep]
        if self.instr is not None:
            self.instr = self.instr[keep]

    def repeat(self, counts: np.ndarray) -> None:
        """Repeat each sample ``counts[i]`` times (duplication)."""
        self.pcs = np.repeat(self.pcs, counts)
        self.cycles = np.repeat(self.cycles, counts)
        self.miss = np.repeat(self.miss, counts)
        self.rids = np.repeat(self.rids, counts)
        if self.instr is not None:
            self.instr = np.repeat(self.instr, counts)


# -- per-spec transformers ---------------------------------------------------

def _apply_drop(arrays: _Arrays, spec: SampleDrop,
                rng: np.random.Generator) -> None:
    n = arrays.n
    if n == 0:
        return
    if spec.burst_mean <= 1.0:
        keep = rng.random(n) >= spec.rate
        arrays.select(keep)
        return
    # Bursty losses: burst starts are thinned so the marginal drop
    # probability stays `rate`; each burst's length is geometric with
    # mean `burst_mean`.
    start_p = spec.rate / spec.burst_mean
    starts = rng.random(n) < start_p
    lengths = rng.geometric(1.0 / spec.burst_mean, size=n)
    # A burst starting at i drops [i, i + length).  Sample j is dropped
    # iff some burst starting at or before j ends past j, i.e. iff the
    # running maximum of the burst ends up to j exceeds j — the same
    # mask as clearing each burst's span in turn, bursts that run past
    # the end of the stream included.
    index = np.arange(n)
    ends = np.where(starts, index + lengths, 0)
    keep = np.maximum.accumulate(ends) <= index
    arrays.select(keep)


def _apply_skid(arrays: _Arrays, spec: PcSkid,
                rng: np.random.Generator) -> None:
    n = arrays.n
    if n == 0:
        return
    lo = int(arrays.pcs.min())
    hi = int(arrays.pcs.max())
    if spec.distribution == "gaussian":
        slots = np.rint(rng.normal(0.0, spec.scale, size=n))
    else:
        slots = np.rint(rng.exponential(spec.scale, size=n))
    skidded = arrays.pcs + slots.astype(np.int64) * INSTRUCTION_BYTES
    arrays.pcs = np.clip(skidded, lo, hi)


def _apply_jitter(arrays: _Arrays, spec: PeriodJitter,
                  rng: np.random.Generator) -> None:
    n = arrays.n
    if n == 0:
        return
    period = float(np.median(np.diff(arrays.cycles))) if n > 1 else 1.0
    shift = rng.uniform(-spec.fraction, spec.fraction, size=n) * period
    jittered = arrays.cycles + shift.astype(np.int64)
    arrays.cycles = np.maximum.accumulate(jittered)


def _apply_drift(arrays: _Arrays, spec: PeriodDrift,
                 rng: np.random.Generator) -> None:
    n = arrays.n
    if n < 2:
        return
    deltas = np.diff(arrays.cycles).astype(np.float64)
    stretch = 1.0 + spec.rate * (np.arange(n - 1) / max(n - 2, 1))
    drifted = np.empty(n, dtype=np.int64)
    drifted[0] = arrays.cycles[0]
    drifted[1:] = drifted[0] + np.cumsum(
        np.maximum(deltas * stretch, 0.0)).astype(np.int64)
    arrays.cycles = drifted


def _apply_duplicate(arrays: _Arrays, spec: DuplicateSamples,
                     rng: np.random.Generator) -> None:
    n = arrays.n
    if n == 0:
        return
    counts = np.where(rng.random(n) < spec.rate, 2, 1)
    arrays.repeat(counts)


def _apply_corrupt(arrays: _Arrays, spec: PcBitCorruption,
                   rng: np.random.Generator) -> None:
    n = arrays.n
    if n == 0:
        return
    hit = rng.random(n) < spec.rate
    bits = rng.integers(0, spec.bit_width, size=n)
    flips = np.where(hit, np.int64(1) << bits.astype(np.int64), 0)
    arrays.pcs = arrays.pcs ^ flips


def _apply_stall(arrays: _Arrays, spec: InterruptStall,
                 rng: np.random.Generator) -> None:
    n = arrays.n
    if n == 0:
        return
    starts = rng.random(n) < spec.rate
    lengths = rng.integers(2, spec.max_window + 1, size=n)
    keep = np.ones(n, dtype=bool)
    coalesced = (None if arrays.instr is None
                 else arrays.instr.copy())
    cursor = 0
    for index in np.flatnonzero(starts):
        if index < cursor:
            continue  # already swallowed by a previous stall window
        last = min(index + int(lengths[index]), n) - 1
        if last <= index:
            continue
        keep[index:last] = False
        if coalesced is not None:
            coalesced[last] = arrays.instr[index:last + 1].sum()
        cursor = last + 1
    if coalesced is not None:
        arrays.instr = coalesced
    arrays.select(keep)


_TRANSFORMERS = {
    SampleDrop: _apply_drop,
    PcSkid: _apply_skid,
    PeriodJitter: _apply_jitter,
    PeriodDrift: _apply_drift,
    DuplicateSamples: _apply_duplicate,
    PcBitCorruption: _apply_corrupt,
    InterruptStall: _apply_stall,
}


def inject(stream: SampleStream, plan: FaultPlan,
           seed: int = 0) -> SampleStream:
    """Apply a fault plan to a stream; returns the faulted stream.

    The input stream is never mutated.  An empty (or all-no-op) plan
    returns the input object itself — byte-identical by construction.
    """
    if not isinstance(plan, FaultPlan):
        raise FaultError(f"expected a FaultPlan, got {type(plan).__name__}")
    if plan.is_empty:
        return stream
    arrays = _Arrays(stream)
    for index, spec in enumerate(plan.specs):
        if spec.is_noop():
            continue
        transformer = _TRANSFORMERS.get(type(spec))
        if transformer is None:
            raise FaultError(
                f"no transformer for fault spec {type(spec).__name__}")
        transformer(arrays, spec, _rng_for(seed, index))
    return SampleStream(
        pcs=arrays.pcs, cycles=arrays.cycles, dcache_miss=arrays.miss,
        region_ids=arrays.rids, region_names=stream.region_names,
        sampling_period=stream.sampling_period,
        total_cycles=stream.total_cycles, instr_delta=arrays.instr)


def simulate_faulty_sampling(regions, workload, sampling_period: int,
                             plan: FaultPlan, seed: int = 0,
                             jitter: float = 0.0) -> SampleStream:
    """Simulate a PMU run and apply *plan* to it (one-call convenience)."""
    from repro.sampling.pmu import simulate_sampling

    stream = simulate_sampling(regions, workload, sampling_period,
                               seed=seed, jitter=jitter)
    return inject(stream, plan, seed=seed)


def _spec_transformer(spec: FaultSpec):
    """The transformer for one spec (exposed for the property tests)."""
    return _TRANSFORMERS.get(type(spec))
