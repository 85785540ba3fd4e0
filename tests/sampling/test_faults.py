"""Unit tests for the fault model and the stream injectors."""

import numpy as np
import pytest

from repro.errors import ConfigError, FaultError
from repro.faults import (DuplicateSamples, FaultPlan, InterruptStall,
                          PcBitCorruption, PcSkid, PeriodDrift,
                          PeriodJitter, SampleDrop, inject,
                          simulate_faulty_sampling)
from repro.program.behavior import RegionSpec
from repro.program.workload import Steady, WorkloadScript, mixture

REGIONS = {
    "a": RegionSpec("a", 0x1000, 0x1400),
    "b": RegionSpec("b", 0x8000, 0x8400),
}
SCRIPT = WorkloadScript([Steady(20_000_000,
                                mixture(("a", 0.7), ("b", 0.3)))])


@pytest.fixture(scope="module")
def stream():
    from repro.sampling.pmu import simulate_sampling

    return simulate_sampling(REGIONS, SCRIPT, 1000, seed=11)


class TestSpecValidation:
    def test_drop_rate_range(self):
        with pytest.raises(ConfigError):
            SampleDrop(rate=1.0)
        with pytest.raises(ConfigError):
            SampleDrop(rate=-0.1)
        with pytest.raises(ConfigError):
            SampleDrop(rate=0.1, burst_mean=0.5)

    def test_skid_validation(self):
        with pytest.raises(ConfigError):
            PcSkid(distribution="cauchy", scale=1.0)
        with pytest.raises(ConfigError):
            PcSkid(scale=-1.0)

    def test_jitter_drift_ranges(self):
        with pytest.raises(ConfigError):
            PeriodJitter(fraction=0.5)
        with pytest.raises(ConfigError):
            PeriodDrift(rate=-0.95)

    def test_duplicate_corrupt_stall_ranges(self):
        with pytest.raises(ConfigError):
            DuplicateSamples(rate=1.0)
        with pytest.raises(ConfigError):
            PcBitCorruption(rate=0.1, bit_width=0)
        with pytest.raises(ConfigError):
            InterruptStall(rate=0.1, max_window=1)

    def test_noop_detection(self):
        assert SampleDrop().is_noop()
        assert PcSkid().is_noop()
        assert not SampleDrop(rate=0.1).is_noop()
        assert FaultPlan(()).is_empty
        assert FaultPlan((SampleDrop(), PcSkid())).is_empty
        assert not FaultPlan((SampleDrop(rate=0.1),)).is_empty

    def test_plan_rejects_non_specs(self):
        with pytest.raises(ConfigError):
            FaultPlan(("drop",))

    def test_corruption_flag(self):
        assert FaultPlan((PcBitCorruption(rate=0.1),)).allows_corruption
        assert not FaultPlan((PcBitCorruption(),)).allows_corruption
        assert not FaultPlan((SampleDrop(rate=0.1),)).allows_corruption


class TestPlanTokens:
    def test_token_separates_fields_and_order(self):
        drop = SampleDrop(rate=0.2, burst_mean=4.0)
        skid = PcSkid(distribution="gaussian", scale=2.0)
        stall = InterruptStall(rate=0.01, max_window=5)
        plan = FaultPlan((drop, skid, stall))
        assert plan.token() == FaultPlan((drop, skid, stall)).token()
        variants = [
            FaultPlan((SampleDrop(rate=0.2, burst_mean=5.0), skid, stall)),
            FaultPlan((drop, PcSkid(distribution="exponential", scale=2.0),
                       stall)),
            FaultPlan((drop, skid, InterruptStall(rate=0.01, max_window=6))),
            FaultPlan((skid, drop, stall)),
        ]
        tokens = {plan.token()} | {variant.token() for variant in variants}
        assert len(tokens) == 1 + len(variants)

    def test_describe(self):
        assert FaultPlan(()).describe() == "none"
        text = FaultPlan((SampleDrop(rate=0.2),)).describe()
        assert "drop" in text and "0.2" in text


class TestInjection:
    def test_empty_plan_is_identity_object(self, stream):
        assert inject(stream, FaultPlan(()), seed=5) is stream
        noop = FaultPlan((SampleDrop(), PcSkid(), PeriodJitter()))
        assert inject(stream, noop, seed=5) is stream

    def test_rejects_non_plan(self, stream):
        with pytest.raises(FaultError):
            inject(stream, [SampleDrop(rate=0.1)], seed=5)

    def test_input_never_mutated(self, stream):
        before = stream.pcs.copy()
        inject(stream, FaultPlan((PcSkid(scale=3.0),
                                  SampleDrop(rate=0.3))), seed=5)
        assert np.array_equal(stream.pcs, before)

    def test_drop_removes_expected_fraction(self, stream):
        out = inject(stream, FaultPlan((SampleDrop(rate=0.25),)), seed=5)
        survived = out.n_samples / stream.n_samples
        assert survived == pytest.approx(0.75, abs=0.02)

    def test_bursty_drop_matches_marginal_rate(self, stream):
        out = inject(stream, FaultPlan(
            (SampleDrop(rate=0.25, burst_mean=6.0),)), seed=5)
        survived = out.n_samples / stream.n_samples
        assert survived == pytest.approx(0.75, abs=0.05)

    def test_bursty_drop_is_bursty(self, stream):
        iid = inject(stream, FaultPlan((SampleDrop(rate=0.25),)), seed=5)
        bursty = inject(stream, FaultPlan(
            (SampleDrop(rate=0.25, burst_mean=6.0),)), seed=5)
        # Burst losses leave longer cycle gaps than iid losses do.
        assert bursty.cycles[1:].size and iid.cycles[1:].size
        assert np.diff(bursty.cycles).max() > np.diff(iid.cycles).max()

    def test_skid_keeps_pcs_in_observed_range(self, stream):
        out = inject(stream, FaultPlan((PcSkid(scale=50.0),)), seed=5)
        assert out.pcs.min() >= stream.pcs.min()
        assert out.pcs.max() <= stream.pcs.max()
        assert not np.array_equal(out.pcs, stream.pcs)

    def test_jitter_keeps_cycles_monotone(self, stream):
        out = inject(stream, FaultPlan((PeriodJitter(fraction=0.4),)),
                     seed=5)
        assert np.all(np.diff(out.cycles) >= 0)

    def test_drift_stretches_gaps(self, stream):
        out = inject(stream, FaultPlan((PeriodDrift(rate=1.0),)), seed=5)
        gaps = np.diff(out.cycles)
        # The final gap should be about double the first one.
        assert gaps[-10:].mean() > 1.5 * gaps[:10].mean()
        assert np.all(gaps >= 0)

    def test_duplicate_grows_stream(self, stream):
        out = inject(stream, FaultPlan((DuplicateSamples(rate=0.2),)),
                     seed=5)
        grown = out.n_samples / stream.n_samples
        assert grown == pytest.approx(1.2, abs=0.02)
        assert np.all(np.diff(out.cycles) >= 0)

    def test_corruption_flips_single_bits(self, stream):
        out = inject(stream, FaultPlan((PcBitCorruption(rate=0.1),)),
                     seed=5)
        changed = out.pcs != stream.pcs
        assert 0.0 < changed.mean() < 0.15
        diffs = (out.pcs[changed] ^ stream.pcs[changed])
        # Every changed PC differs in exactly one bit.
        assert np.all(np.bitwise_and(diffs, diffs - 1) == 0)

    def test_stall_conserves_instr_delta(self, stream):
        assert stream.instr_delta is not None
        out = inject(stream, FaultPlan(
            (InterruptStall(rate=0.05, max_window=6),)), seed=5)
        assert out.n_samples < stream.n_samples
        # The survivor of every window carries the window's instructions.
        assert out.instr_delta.sum() == pytest.approx(
            stream.instr_delta.sum(), rel=1e-12)

    def test_compound_plan_applies_in_order(self, stream):
        plan = FaultPlan((SampleDrop(rate=0.2),
                          PcSkid(distribution="exponential", scale=2.0),
                          DuplicateSamples(rate=0.05)))
        out = inject(stream, plan, seed=5)
        assert np.all(np.diff(out.cycles) >= 0)
        assert out.sampling_period == stream.sampling_period
        assert out.region_names == stream.region_names

    def test_simulate_faulty_sampling_matches_manual(self, stream):
        plan = FaultPlan((SampleDrop(rate=0.2),))
        combined = simulate_faulty_sampling(REGIONS, SCRIPT, 1000, plan,
                                            seed=11)
        manual = inject(stream, plan, seed=11)
        assert np.array_equal(combined.pcs, manual.pcs)
        assert np.array_equal(combined.cycles, manual.cycles)
