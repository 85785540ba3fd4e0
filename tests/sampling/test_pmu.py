"""Unit tests for the PMU simulator, sample stream, and buffer."""

import numpy as np
import pytest

from repro.errors import SamplingError, WorkloadError
from repro.program.behavior import RegionSpec, bottleneck_profile
from repro.program.workload import (Periodic, Steady, WorkloadScript,
                                    mixture)
from repro.sampling.buffer import SampleBuffer
from repro.sampling.events import SampleStream
from repro.sampling.pmu import PMUSimulator, _cdf, simulate_sampling

REGION_A = RegionSpec("a", 0x1000, 0x1100,
                      profiles={"main": bottleneck_profile(64, {10: 50.0})},
                      dpi=0.2)
REGION_B = RegionSpec("b", 0x8000, 0x8100)
REGIONS = {"a": REGION_A, "b": REGION_B}


def steady_stream(duration=10_000_000, period=1000, seed=0, jitter=0.0):
    script = WorkloadScript([Steady(duration,
                                    mixture(("a", 0.6), ("b", 0.4)))])
    return simulate_sampling(REGIONS, script, period, seed=seed,
                             jitter=jitter)


class TestSimulation:
    def test_sample_count_matches_period(self):
        stream = steady_stream(duration=1_000_000, period=1000)
        # Interrupts at 1000, 2000, ..., 999000 (tick at total_cycles-? );
        # allow off-by-one at the boundary.
        assert abs(stream.n_samples - 999) <= 1

    def test_samples_land_in_region_spans(self):
        stream = steady_stream()
        in_a = (stream.pcs >= 0x1000) & (stream.pcs < 0x1100)
        in_b = (stream.pcs >= 0x8000) & (stream.pcs < 0x8100)
        assert np.all(in_a | in_b)

    def test_mixture_weights_respected(self):
        stream = steady_stream()
        share_a = np.mean((stream.pcs < 0x2000))
        assert share_a == pytest.approx(0.6, abs=0.02)

    def test_profile_spike_respected(self):
        stream = steady_stream()
        spike_pc = 0x1000 + 10 * 4
        in_a = stream.pcs[stream.pcs < 0x2000]
        spike_share = np.mean(in_a == spike_pc)
        # Spike weight 50 over a base of 64 slots: 50/113 of region a.
        assert spike_share == pytest.approx(50.0 / 113.0, abs=0.03)

    def test_deterministic_given_seed(self):
        s1 = steady_stream(seed=42)
        s2 = steady_stream(seed=42)
        assert np.array_equal(s1.pcs, s2.pcs)
        assert np.array_equal(s1.dcache_miss, s2.dcache_miss)

    def test_different_seeds_differ(self):
        s1 = steady_stream(seed=1)
        s2 = steady_stream(seed=2)
        assert not np.array_equal(s1.pcs, s2.pcs)

    def test_dcache_miss_rate_tracks_dpi(self):
        stream = steady_stream()
        in_a = stream.pcs < 0x2000
        assert stream.dcache_miss[in_a].mean() == pytest.approx(0.2,
                                                                abs=0.02)
        assert stream.dcache_miss[~in_a].mean() == pytest.approx(
            REGION_B.dpi, abs=0.01)

    def test_ground_truth_region_ids(self):
        stream = steady_stream()
        names = stream.region_names
        id_a = names.index("a")
        assert np.all((stream.region_ids == id_a) == (stream.pcs < 0x2000))
        assert stream.region_name_of(0) in names

    def test_cycles_ascending(self):
        stream = steady_stream()
        assert np.all(np.diff(stream.cycles) > 0)

    def test_jitter_perturbs_cycles_not_distribution(self):
        jittered = steady_stream(jitter=0.3)
        plain = steady_stream(jitter=0.0)
        assert abs(jittered.n_samples - plain.n_samples) <= 2
        share = np.mean(jittered.pcs < 0x2000)
        assert share == pytest.approx(0.6, abs=0.03)

    def test_periodic_workload_alternates(self):
        script = WorkloadScript([Periodic(
            4_000_000, (mixture(("a", 1.0)), mixture(("b", 1.0))),
            switch_period=1_000_000)])
        stream = simulate_sampling(REGIONS, script, 1000, seed=0)
        first_chunk = stream.pcs[stream.cycles < 1_000_000]
        second_chunk = stream.pcs[(stream.cycles >= 1_000_000)
                                  & (stream.cycles < 2_000_000)]
        assert np.all(first_chunk < 0x2000)
        assert np.all(second_chunk >= 0x8000)

    def test_unknown_region_rejected(self):
        script = WorkloadScript([Steady(1000, mixture(("ghost", 1.0)))])
        with pytest.raises(WorkloadError):
            PMUSimulator(REGIONS, script, 100)

    def test_parameter_validation(self):
        script = WorkloadScript([Steady(1000, mixture(("a", 1.0)))])
        with pytest.raises(SamplingError):
            PMUSimulator(REGIONS, script, 0)
        with pytest.raises(SamplingError):
            PMUSimulator(REGIONS, script, 100, jitter=0.6)

    def test_period_longer_than_run_yields_empty_stream(self):
        script = WorkloadScript([Steady(1000, mixture(("a", 1.0)))])
        stream = simulate_sampling(REGIONS, script, 10_000)
        assert stream.n_samples == 0
        assert stream.n_intervals(16) == 0


class TestCachedCdfDraws:
    """The simulator draws from cached cdfs instead of through
    ``Generator.choice``.  Both must give the same values from the same
    words on the installed NumPy (``pyproject.toml`` allows any
    ``numpy>=1.23``)."""

    def test_matches_generator_choice(self):
        script = WorkloadScript([Steady(1000, mixture(("a", 1.0)))])
        cases = np.random.default_rng(2024)
        for case in range(200):
            k = int(cases.integers(1, 301))
            n = int(cases.integers(0, 501))
            weights = cases.random(k) * (cases.random(k) < 0.8)
            weights[cases.integers(k)] += 0.5  # never all zero
            p = weights / weights.sum()
            simulator = PMUSimulator(REGIONS, script, 1000, seed=case)
            theirs = np.random.default_rng(case)
            assert np.array_equal(simulator._draw("p", p, n),
                                  theirs.choice(k, size=n, p=p))
            assert simulator._rng.bit_generator.state \
                == theirs.bit_generator.state

    @pytest.mark.parametrize("p", [[0.5, 0.6], [1.5, -0.5],
                                   [np.nan, 1.0], [np.inf, 0.0]])
    def test_rejects_what_choice_rejects(self, p):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(2, size=1, p=p)
        with pytest.raises(SamplingError):
            _cdf(np.array(p))


class TestSampleStream:
    def test_interval_slicing(self):
        stream = steady_stream(duration=1_000_000, period=100)
        n = stream.n_intervals(2032)
        assert n == stream.n_samples // 2032
        windows = list(stream.intervals(2032))
        assert len(windows) == n
        assert windows[0][1] == slice(0, 2032)

    def test_interval_pcs_bounds(self):
        stream = steady_stream(duration=1_000_000, period=100)
        with pytest.raises(SamplingError):
            stream.interval_pcs(2032, stream.n_intervals(2032))

    def test_centroids_match_manual_means(self):
        stream = steady_stream(duration=1_000_000, period=100)
        centroids = stream.centroids(2032)
        manual = stream.interval_pcs(2032, 0).mean()
        assert centroids[0] == pytest.approx(manual)

    def test_centroids_empty_when_too_few_samples(self):
        stream = steady_stream(duration=100_000, period=1000)
        assert stream.centroids(2032).size == 0

    def test_scalar_sample_iteration(self):
        stream = steady_stream(duration=50_000, period=1000)
        samples = list(stream.samples())
        assert len(samples) == stream.n_samples
        assert samples[0].pc == int(stream.pcs[0])

    def test_array_size_mismatch_rejected(self):
        with pytest.raises(SamplingError):
            SampleStream(pcs=np.zeros(3, dtype=np.int64),
                         cycles=np.zeros(2, dtype=np.int64),
                         dcache_miss=np.zeros(3, dtype=bool),
                         region_ids=np.zeros(3, dtype=np.int32),
                         region_names=("a",), sampling_period=10,
                         total_cycles=100)


class TestSampleBuffer:
    def test_overflow_fires_at_capacity(self):
        delivered = []
        buffer = SampleBuffer(4, lambda pcs, i: delivered.append((i, list(pcs))))
        for pc in range(3):
            assert not buffer.push(pc)
        assert buffer.push(3)
        assert delivered == [(0, [0, 1, 2, 3])]
        assert buffer.fill == 0

    def test_push_many_counts_overflows(self):
        delivered = []
        buffer = SampleBuffer(4, lambda pcs, i: delivered.append(i))
        overflows = buffer.push_many(np.arange(10))
        assert overflows == 2
        assert delivered == [0, 1]
        assert buffer.fill == 2
        assert list(buffer.pending()) == [8, 9]

    def test_multiple_subscribers(self):
        seen_a, seen_b = [], []
        buffer = SampleBuffer(2, lambda pcs, i: seen_a.append(i))
        buffer.subscribe(lambda pcs, i: seen_b.append(i))
        buffer.push_many(np.arange(4))
        assert seen_a == seen_b == [0, 1]
        assert buffer.intervals_delivered == 2

    def test_capacity_validation(self):
        with pytest.raises(SamplingError):
            SampleBuffer(0)

    def test_buffered_intervals_match_stream_slices(self):
        stream = steady_stream(duration=500_000, period=100)
        collected = []
        buffer = SampleBuffer(1000, lambda pcs, i: collected.append(pcs))
        buffer.push_many(stream.pcs)
        for index, window in stream.intervals(1000):
            assert np.array_equal(collected[index], stream.pcs[window])
