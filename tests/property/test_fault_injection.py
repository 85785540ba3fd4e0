"""Property-based tests for the fault-injection subsystem (hypothesis).

Pins the injector's contract: a plan is a pure function of
``(stream, plan, seed)``; cycle stamps stay monotone; PCs stay inside
the stream's observed text range unless the plan corrupts bits; the
empty / all-no-op plan is byte-identical (the same object, even); no
output array aliases an input array; and a bursty drop keeps exactly the
samples the per-burst reference loop keeps.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import (DuplicateSamples, FaultPlan, InterruptStall,
                          PcBitCorruption, PcSkid, PeriodDrift,
                          PeriodJitter, SampleDrop, inject)
from repro.experiments.extra_fault_sweep import PLANS
from repro.faults.inject import _rng_for
from repro.program.behavior import RegionSpec
from repro.program.workload import Steady, WorkloadScript, mixture
from repro.sampling.events import SampleStream
from repro.sampling.pmu import simulate_sampling

REGIONS = {
    "a": RegionSpec("a", 0x1000, 0x1200),
    "b": RegionSpec("b", 0x9000, 0x9200),
}
SCRIPT = WorkloadScript([Steady(3_000_000,
                                mixture(("a", 0.5), ("b", 0.5)))])

_STREAM_CACHE: dict[int, object] = {}


def stream_for_seed(seed: int):
    if seed not in _STREAM_CACHE:
        _STREAM_CACHE[seed] = simulate_sampling(REGIONS, SCRIPT, 1000,
                                                seed=seed)
    return _STREAM_CACHE[seed]


rates = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)
positive_rates = st.floats(min_value=0.01, max_value=0.5, allow_nan=False)
seeds = st.integers(min_value=0, max_value=500)


@st.composite
def fault_plans(draw, with_corruption=True):
    """An arbitrary valid plan of 0-4 specs."""
    choices = [
        lambda: SampleDrop(rate=draw(rates),
                           burst_mean=draw(st.floats(1.0, 8.0))),
        lambda: PcSkid(distribution=draw(st.sampled_from(
            ["gaussian", "exponential"])),
            scale=draw(st.floats(0.0, 10.0))),
        lambda: PeriodJitter(fraction=draw(st.floats(0.0, 0.45))),
        lambda: PeriodDrift(rate=draw(st.floats(-0.5, 2.0))),
        lambda: DuplicateSamples(rate=draw(rates)),
        lambda: InterruptStall(rate=draw(rates),
                               max_window=draw(st.integers(2, 6))),
    ]
    if with_corruption:
        choices.append(lambda: PcBitCorruption(
            rate=draw(rates), bit_width=draw(st.integers(1, 30))))
    n_specs = draw(st.integers(min_value=0, max_value=4))
    makers = draw(st.lists(st.sampled_from(choices), min_size=n_specs,
                           max_size=n_specs))
    return FaultPlan(tuple(maker() for maker in makers))


def assert_streams_equal(first, second):
    assert np.array_equal(first.pcs, second.pcs)
    assert np.array_equal(first.cycles, second.cycles)
    assert np.array_equal(first.dcache_miss, second.dcache_miss)
    assert np.array_equal(first.region_ids, second.region_ids)
    if first.instr_delta is None:
        assert second.instr_delta is None
    else:
        assert np.array_equal(first.instr_delta, second.instr_delta)


class TestInjectorDeterminism:
    @given(fault_plans(), seeds)
    @settings(max_examples=40, deadline=None)
    def test_same_seed_same_output(self, plan, seed):
        stream = stream_for_seed(0)
        assert_streams_equal(inject(stream, plan, seed=seed),
                             inject(stream, plan, seed=seed))


class TestStreamInvariants:
    @given(fault_plans(), seeds)
    @settings(max_examples=40, deadline=None)
    def test_cycles_stay_monotone(self, plan, seed):
        stream = stream_for_seed(1)
        out = inject(stream, plan, seed=seed)
        assert np.all(np.diff(out.cycles) >= 0)

    @given(fault_plans(with_corruption=False), seeds)
    @settings(max_examples=40, deadline=None)
    def test_pcs_stay_in_text_range_without_corruption(self, plan, seed):
        stream = stream_for_seed(1)
        out = inject(stream, plan, seed=seed)
        assert not plan.allows_corruption
        if out.n_samples:
            assert out.pcs.min() >= stream.pcs.min()
            assert out.pcs.max() <= stream.pcs.max()

    @given(fault_plans(), seeds)
    @settings(max_examples=30, deadline=None)
    def test_arrays_stay_parallel(self, plan, seed):
        stream = stream_for_seed(1)
        out = inject(stream, plan, seed=seed)
        n = out.n_samples
        assert out.cycles.size == n
        assert out.dcache_miss.size == n
        assert out.region_ids.size == n
        if out.instr_delta is not None:
            assert out.instr_delta.size == n


class TestNoOpPlans:
    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_empty_plan_returns_same_object(self, seed):
        stream = stream_for_seed(2)
        assert inject(stream, FaultPlan(()), seed=seed) is stream

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_zero_rate_plan_returns_same_object(self, seed):
        stream = stream_for_seed(2)
        plan = FaultPlan((SampleDrop(rate=0.0), PcSkid(scale=0.0),
                          PeriodJitter(fraction=0.0),
                          DuplicateSamples(rate=0.0),
                          PcBitCorruption(rate=0.0),
                          InterruptStall(rate=0.0)))
        assert inject(stream, plan, seed=seed) is stream

    @given(fault_plans(), seeds)
    @settings(max_examples=25, deadline=None)
    def test_downstream_pipeline_never_crashes(self, plan, seed):
        # The monitor must degrade through any valid faulted stream.
        from repro.core import MonitorThresholds
        from repro.monitor import RegionMonitor
        from repro.program import BinaryBuilder
        from repro.program.binary import loop

        stream = stream_for_seed(3)
        out = inject(stream, plan, seed=seed)
        builder = BinaryBuilder()
        builder.procedure("a", [loop("la", body=120)], at=0x1000)
        builder.procedure("b", [loop("lb", body=120)], at=0x9000)
        monitor = RegionMonitor(builder.build(),
                                MonitorThresholds(buffer_size=256))
        monitor.process_stream(out)  # must not raise


STREAM_ARRAYS = ("pcs", "cycles", "dcache_miss", "region_ids", "instr_delta")

#: Each spec kind alone (a drop both i.i.d. and bursty), and the fault
#: sweep's two-spec plan.
ONE_SPEC_PLANS = {
    "drop": FaultPlan((SampleDrop(rate=0.2),)),
    "bursty-drop": FaultPlan((SampleDrop(rate=0.2, burst_mean=4.0),)),
    "skid": FaultPlan((PcSkid(scale=2.0),)),
    "jitter": FaultPlan((PeriodJitter(fraction=0.2),)),
    "drift": FaultPlan((PeriodDrift(rate=0.5),)),
    "duplicate": FaultPlan((DuplicateSamples(rate=0.2),)),
    "corrupt": FaultPlan((PcBitCorruption(rate=0.2),)),
    "stall": FaultPlan((InterruptStall(rate=0.2),)),
    "drop20+skid": dict(PLANS)["drop20+skid"],
}


class TestNoAliasing:
    """Transformers build new arrays and ``inject`` copies only the ones
    no spec replaced, so writing into an output never reaches the input."""

    @pytest.mark.parametrize("name", sorted(ONE_SPEC_PLANS))
    def test_outputs_own_their_memory(self, name):
        stream = stream_for_seed(4)
        before = [getattr(stream, field).copy() for field in STREAM_ARRAYS]
        out = inject(stream, ONE_SPEC_PLANS[name], seed=5)
        assert out is not stream
        for field in STREAM_ARRAYS:
            for source in STREAM_ARRAYS:
                assert not np.shares_memory(getattr(out, field),
                                            getattr(stream, source))
        for field in STREAM_ARRAYS:
            getattr(out, field)[...] = 1
        for field, original in zip(STREAM_ARRAYS, before):
            assert np.array_equal(getattr(stream, field), original)


def numbered_stream(index):
    """A stream whose five arrays all encode each sample's *index*."""
    return SampleStream(
        pcs=0x1000 + 4 * index, cycles=1000 * index,
        dcache_miss=index % 3 == 0, region_ids=index % 2,
        region_names=("a", "b"), sampling_period=1000,
        total_cycles=10**7, instr_delta=index + 1)


def reference_bursts(n, spec, seed):
    """(starts, lengths) of the bursts, drawn as the injector draws them."""
    rng = _rng_for(seed, 0)
    starts = np.flatnonzero(rng.random(n) < spec.rate / spec.burst_mean)
    lengths = rng.geometric(1.0 / spec.burst_mean, size=n)
    return starts, lengths[starts]


def reference_keep(n, starts, lengths):
    """The per-burst loop the injector's running-maximum mask replaced."""
    keep = np.ones(n, dtype=bool)
    for start, length in zip(starts, lengths):
        keep[start:start + int(length)] = False
    return keep


def check_bursty_drop(n, rate, burst_mean, seed):
    """Assert *inject* keeps the reference samples; True if a burst overran."""
    spec = SampleDrop(rate=rate, burst_mean=burst_mean)
    starts, lengths = reference_bursts(n, spec, seed)
    keep = reference_keep(n, starts, lengths)
    out = inject(numbered_stream(np.arange(n)), FaultPlan((spec,)),
                 seed=seed)
    assert_streams_equal(out, numbered_stream(np.flatnonzero(keep)))
    return bool(np.any(starts + lengths > n))


class TestBurstyDropOracle:
    @given(st.integers(min_value=0, max_value=3000),
           st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
           st.floats(min_value=1.0, max_value=8.0, exclude_min=True),
           seeds)
    # NumPy's geometric searches at p = 1/3 and inverts just below it.
    @example(2000, 0.5, 3.0, 11)
    @example(2000, 0.5, float(np.nextafter(3.0, 4.0)), 11)
    @settings(max_examples=80, deadline=None)
    def test_inject_keeps_exactly_the_reference_samples(
            self, n, rate, burst_mean, seed):
        check_bursty_drop(n, rate, burst_mean, seed)

    def test_bursts_running_past_the_end_drop_the_tail(self):
        overruns = sum(check_bursty_drop(24, 0.6, 8.0, seed)
                       for seed in range(40))
        assert overruns > 0


@pytest.mark.parametrize("p", [0.25, float(np.nextafter(1 / 3, 0.0)), 1e-3])
def test_geometric_is_an_inverted_standard_exponential(p):
    # The bursty drop draws `standard_exponential` and converts it where
    # a burst starts; that equals `geometric` word for word below p = 1/3
    # on the installed NumPy (pyproject allows any numpy>=1.23).
    ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
    lengths = np.ceil(-ours.standard_exponential(5000) / math.log1p(-p))
    assert np.array_equal(lengths, theirs.geometric(p, size=5000))
    assert ours.bit_generator.state == theirs.bit_generator.state
