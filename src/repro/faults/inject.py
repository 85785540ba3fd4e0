"""Deterministic fault injection over :class:`SampleStream` objects.

Each transformer maps the stream's parallel arrays to faulted parallel
arrays.  Determinism contract: the output is a pure function of
``(stream, plan, seed)`` — spec *i* of a plan draws from
``np.random.default_rng([_FAULT_SALT, seed, i])``, so specs are
independent of each other's draw counts and a plan prefix always produces
the same intermediate stream.

The draw-level contract the transformers rest on:

* spec *i* draws whole arrays, one value per sample, from its own
  generator, in a fixed order;
* a transformer may transform a draw only where the draw is used, as
  long as the generator consumes the same words — a bursty drop draws
  ``standard_exponential`` where the burst lengths are
  ``geometric``, because NumPy's geometric inverts exactly those draws
  (pinned by a test on the installed NumPy);
* transformers never write into their inputs, so :func:`inject` copies
  only the arrays no spec replaced, and no output aliases the input.

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

import math

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
    """A stream's parallel arrays as the plan transforms them.

    They start out as the input stream's own arrays.  A transformer
    replaces an array with a new one and never writes into the one it
    replaces, so no copy is taken up front.
    """

    def __init__(self, stream: SampleStream) -> None:
        self.pcs = stream.pcs
        self.cycles = stream.cycles
        self.miss = stream.dcache_miss
        self.rids = stream.region_ids
        self.instr = stream.instr_delta

    @property
    def n(self) -> int:
        return int(self.pcs.size)

    def take(self, index: np.ndarray) -> None:
        """Keep the samples at ascending *index* in every array."""
        self.pcs = self.pcs[index]
        self.cycles = self.cycles[index]
        self.miss = self.miss[index]
        self.rids = self.rids[index]
        if self.instr is not None:
            self.instr = self.instr[index]

    def repeat(self, counts: np.ndarray) -> None:
        """Repeat each sample ``counts[i]`` times (duplication)."""
        self.pcs = np.repeat(self.pcs, counts)
        self.cycles = np.repeat(self.cycles, counts)
        self.miss = np.repeat(self.miss, counts)
        self.rids = np.repeat(self.rids, counts)
        if self.instr is not None:
            self.instr = np.repeat(self.instr, counts)

    def to_stream(self, stream: SampleStream) -> SampleStream:
        """The faulted stream; arrays no spec replaced are copied from
        *stream*, so no output array aliases an input array."""
        def own(array, original):
            return array.copy() if array is original else array

        return SampleStream(
            pcs=own(self.pcs, stream.pcs),
            cycles=own(self.cycles, stream.cycles),
            dcache_miss=own(self.miss, stream.dcache_miss),
            region_ids=own(self.rids, stream.region_ids),
            region_names=stream.region_names,
            sampling_period=stream.sampling_period,
            total_cycles=stream.total_cycles,
            instr_delta=(None if self.instr is None
                         else own(self.instr, stream.instr_delta)))


def _ranges(lo: np.ndarray, hi: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``concatenate([arange(a, b) for a, b in zip(lo, hi)])``, written
    to the front of the int64 buffer *out*; returns that part.

    The ranges must be ascending and disjoint; empty ones are skipped.
    """
    nonempty = hi > lo
    lo = lo[nonempty]
    hi = hi[nonempty]
    sizes = hi - lo
    index = out[:int(sizes.sum())]
    if index.size:
        # Steps of one, except that each range opens with the step from
        # the end of the one before; the running sum counts through.
        index.fill(1)
        index[0] = lo[0]
        index[np.cumsum(sizes[:-1])] = lo[1:] - hi[:-1] + 1
        np.cumsum(index, out=index)
    return index


#: NumPy's ``Generator.geometric(p)`` inverts one standard exponential
#: per value below this ``p``, and searches (a variable number of
#: uniforms per value) at or above it.
_GEOMETRIC_SEARCH_P = 1.0 / 3.0


# -- per-spec transformers ---------------------------------------------------

def _apply_drop(arrays: _Arrays, spec: SampleDrop,
                rng: np.random.Generator) -> None:
    n = arrays.n
    if n == 0:
        return
    if spec.burst_mean <= 1.0:
        arrays.take(np.flatnonzero(rng.random(n) >= spec.rate))
        return
    # Bursty losses: burst starts are thinned so the marginal drop
    # probability stays `rate`; each burst's length is geometric with
    # mean `burst_mean`, drawn for every sample and used at the starts.
    # One stream-length buffer holds the uniforms, then the
    # exponentials, then the kept index: with a new array for each, the
    # glibc heap of a 256-lane fleet pass settled about 40 MiB higher.
    draws = rng.random(n)
    starts = np.flatnonzero(draws < spec.rate / spec.burst_mean)
    p = 1.0 / spec.burst_mean
    if 0.0 < p < _GEOMETRIC_SEARCH_P:
        # `rng.geometric(p, n)`'s own draws and arithmetic, converted
        # only where a burst starts: the same words, the same lengths.
        rng.standard_exponential(out=draws)
        lengths = np.ceil(-draws[starts] / math.log1p(-p))
    else:
        lengths = rng.geometric(p, size=n)[starts]
    # A burst starting at i drops [i, i + length), clipped to the stream.
    # Sample j is dropped iff some burst starting at or before j ends
    # past j.  So the kept samples are the run before the first start
    # and, after each start, the run from the farthest burst end so far
    # to the next start or the end of the stream: the same samples as
    # clearing each burst's span in turn.
    ends = np.minimum(starts + lengths, n).astype(np.int64)
    lo = np.concatenate(([0], np.maximum.accumulate(ends)))
    hi = np.concatenate((starts, [n]))
    arrays.take(_ranges(lo, hi, out=draws.view(np.int64)))


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
    arrays.take(np.flatnonzero(keep))


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
    return arrays.to_stream(stream)


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
