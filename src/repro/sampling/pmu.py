"""The PMU simulator: periodic cycle sampling over a workload timeline.

This is the substitute for the UltraSPARC hardware performance monitor the
paper samples (see DESIGN.md §2).  It walks a compiled workload timeline
and, every ``sampling_period`` virtual cycles, emits one sample:

1. the active timeline piece determines the region **mixture**;
2. a region/profile component is drawn by mixture weight (cycle share);
3. an instruction slot is drawn from the component's profile;
4. a data-cache-miss flag is drawn from the region's DPI.

Because the mixture weights are cycle shares and sampling is periodic in
cycles, the sample distribution converges to the true execution-time
distribution — with exactly the multinomial sampling noise a real PMU
shows, which is the noise source the paper's sensitivity analysis (Figures
3 and 13) is about.  Optional interrupt jitter models the skid of real
sampling hardware.
"""

from __future__ import annotations

import numpy as np

from repro.core.histogram import INSTRUCTION_BYTES
from repro.errors import SamplingError, WorkloadError
from repro.program.behavior import RegionSpec
from repro.program.workload import Piece, WorkloadScript
from repro.sampling.events import SampleStream

__all__ = ["PMUSimulator", "simulate_sampling"]

#: ``Generator.choice``'s tolerance on the sum of ``p``.
_P_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def _cdf(p: np.ndarray) -> np.ndarray:
    """The normalized cumulative distribution of the probabilities *p*.

    *p* is validated as ``Generator.choice`` validates it: finite,
    non-negative and summing to 1.
    """
    p = np.asarray(p, dtype=np.float64)
    if not (np.all(np.isfinite(p)) and np.all(p >= 0.0)
            and abs(p.sum() - 1.0) <= _P_ATOL):
        raise SamplingError(
            "probabilities must be finite, non-negative and sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


class PMUSimulator:
    """Generates a :class:`SampleStream` for one (workload, period) pair.

    Parameters
    ----------
    regions:
        Workload-region table (name -> :class:`RegionSpec`); every region
        referenced by the workload must be present.
    workload:
        The benchmark's workload script.
    sampling_period:
        Cycles per interrupt (the paper sweeps 45k-1.5M).
    seed:
        RNG seed; the same seed reproduces the same stream bit for bit.
    jitter:
        Fraction of the period by which each interrupt time is uniformly
        perturbed (0 = perfectly periodic).
    """

    def __init__(self, regions: dict[str, RegionSpec],
                 workload: WorkloadScript, sampling_period: int,
                 seed: int = 0, jitter: float = 0.0) -> None:
        if sampling_period <= 0:
            raise SamplingError("sampling_period must be positive")
        if not 0.0 <= jitter < 0.5:
            raise SamplingError("jitter must lie in [0, 0.5)")
        self.regions = dict(regions)
        self.workload = workload
        self.sampling_period = sampling_period
        self.jitter = jitter
        self._rng = np.random.default_rng(seed)
        #: cdf per mixture and per (region, profile), built on first use.
        self._cdfs: dict[object, np.ndarray] = {}
        for name in workload.region_names():
            if name not in self.regions:
                raise WorkloadError(
                    f"workload references unknown region {name!r}")

    def run(self) -> SampleStream:
        """Simulate the whole workload and return the sample stream."""
        pieces = self.workload.compile()
        total_cycles = self.workload.total_cycles
        region_names = tuple(sorted(self.regions))
        region_index = {name: i for i, name in enumerate(region_names)}

        chunks_pcs: list[np.ndarray] = []
        chunks_cycles: list[np.ndarray] = []
        chunks_miss: list[np.ndarray] = []
        chunks_rid: list[np.ndarray] = []
        chunks_instr: list[np.ndarray] = []

        period = self.sampling_period
        # Interrupt k fires at cycle (k+1)*period (plus jitter).
        next_tick = period
        for piece in pieces:
            if next_tick >= piece.end:
                continue
            first = max(next_tick, piece.start + 1)
            # Align 'first' to the tick grid at or after it.
            k_first = (first + period - 1) // period
            k_last = (piece.end - 1) // period
            if k_last < k_first:
                continue
            ticks = np.arange(k_first, k_last + 1, dtype=np.int64) * period
            next_tick = int(ticks[-1]) + period
            n = ticks.size
            if self.jitter > 0.0:
                skid = self._rng.uniform(-self.jitter, self.jitter,
                                         size=n) * period
                ticks = np.clip(ticks + skid.astype(np.int64),
                                piece.start, piece.end - 1)

            pcs, miss, rids, instr = self._draw_piece(piece, n,
                                                      region_index)
            chunks_pcs.append(pcs)
            chunks_cycles.append(ticks)
            chunks_miss.append(miss)
            chunks_rid.append(rids)
            chunks_instr.append(instr)

        if chunks_pcs:
            all_pcs = np.concatenate(chunks_pcs)
            all_cycles = np.concatenate(chunks_cycles)
            all_miss = np.concatenate(chunks_miss)
            all_rid = np.concatenate(chunks_rid)
            all_instr = np.concatenate(chunks_instr)
        else:
            all_pcs = np.empty(0, dtype=np.int64)
            all_cycles = np.empty(0, dtype=np.int64)
            all_miss = np.empty(0, dtype=bool)
            all_rid = np.empty(0, dtype=np.int32)
            all_instr = np.empty(0, dtype=np.float64)
        return SampleStream(pcs=all_pcs, cycles=all_cycles,
                            dcache_miss=all_miss, region_ids=all_rid,
                            region_names=region_names,
                            sampling_period=period,
                            total_cycles=total_cycles,
                            instr_delta=all_instr)

    # -- internals -------------------------------------------------------------

    def _draw_piece(self, piece: Piece, n: int,
                    region_index: dict[str, int]) -> tuple[np.ndarray,
                                                           np.ndarray,
                                                           np.ndarray,
                                                           np.ndarray]:
        """Draw *n* time-ordered samples for one timeline piece."""
        components = piece.mix.components
        pcs = np.empty(n, dtype=np.int64)
        miss = np.empty(n, dtype=bool)
        rids = np.empty(n, dtype=np.int32)
        instr = np.empty(n, dtype=np.float64)
        if len(components) == 1:
            component_choice = np.zeros(n, dtype=np.intp)
        else:
            component_choice = self._draw(piece.mix, piece.mix.weights, n)
        for index, component in enumerate(components):
            mask = component_choice == index
            count = int(mask.sum())
            if count == 0:
                continue
            spec = self.regions[component.region]
            slots = self._draw((component.region, component.profile),
                               spec.profile(component.profile), count)
            pcs[mask] = spec.start + slots.astype(np.int64) \
                * INSTRUCTION_BYTES
            miss[mask] = self._rng.random(count) < spec.dpi
            rids[mask] = region_index[component.region]
            # Instructions retired in this sample's window: one period's
            # worth of cycles at the region's CPI, with mild multiplicative
            # noise (pipeline weather).
            noise = self._rng.uniform(0.95, 1.05, size=count)
            instr[mask] = self.sampling_period / spec.cpi * noise
        return pcs, miss, rids, instr

    def _draw(self, key: object, p: np.ndarray, n: int) -> np.ndarray:
        """*n* indices distributed as *p*: ``rng.choice(p.size, n, p=p)``'s
        words and values, searched in a cdf cached under *key* instead of
        one validated and summed on every call."""
        cdf = self._cdfs.get(key)
        if cdf is None:
            cdf = self._cdfs[key] = _cdf(p)
        return cdf.searchsorted(self._rng.random(n), side="right")


def simulate_sampling(regions: dict[str, RegionSpec],
                      workload: WorkloadScript, sampling_period: int,
                      seed: int = 0, jitter: float = 0.0) -> SampleStream:
    """Convenience wrapper: build a :class:`PMUSimulator` and run it."""
    return PMUSimulator(regions, workload, sampling_period, seed=seed,
                        jitter=jitter).run()
