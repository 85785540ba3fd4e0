"""Tests for the simulation cache and the runner's flags."""

import pytest

from repro.experiments import cache as cache_module
from repro.experiments.base import benchmark_for, gpd_run, monitored_run
from repro.experiments.cache import (SimulationCache, StreamKey,
                                     cache_disabled, get_cache)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import main

SMALL = ExperimentConfig(scale=0.05, seed=7)


@pytest.fixture(autouse=True)
def _fresh_cache():
    get_cache().clear()
    yield
    get_cache().clear()


class TestSimulationCache:
    def test_memoizes_and_counts(self):
        cache = SimulationCache()
        calls = []
        key = StreamKey("181.mcf", 1.0, 45_000, 7)
        first = cache.stream(key, lambda: calls.append(1) or "stream")
        second = cache.stream(key, lambda: calls.append(1) or "other")
        assert first == second == "stream"
        assert calls == [1]
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.streams) == (1, 1, 1)

    def test_distinct_keys_do_not_collide(self):
        cache = SimulationCache()
        a = cache.stream(StreamKey("181.mcf", 1.0, 45_000, 7), lambda: "a")
        b = cache.stream(StreamKey("181.mcf", 1.0, 45_000, 8), lambda: "b")
        assert (a, b) == ("a", "b")

    def test_lru_eviction(self):
        cache = SimulationCache(max_entries=2)
        keys = [StreamKey("x", 1.0, period, 7) for period in (1, 2, 3)]
        for key in keys:
            cache.stream(key, lambda k=key: k.period)
        # Oldest entry evicted: recomputation happens.
        calls = []
        cache.stream(keys[0], lambda: calls.append(1) or 1)
        assert calls == [1]

    def test_disabled_bypasses_store(self):
        cache = SimulationCache()
        cache.enabled = False
        key = StreamKey("x", 1.0, 1, 7)
        calls = []
        for _ in range(2):
            cache.stream(key, lambda: calls.append(1) or "v")
        assert len(calls) == 2
        assert cache.stats().streams == 0

    def test_clear_resets_everything(self):
        cache = SimulationCache()
        cache.stream(StreamKey("x", 1.0, 1, 7), lambda: "v")
        cache.clear()
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.streams) == (0, 0, 0)

    def test_stats_renders(self):
        text = str(SimulationCache().stats())
        assert "hits" in text and "streams" in text

    def test_cache_disabled_context_restores(self):
        store = get_cache()
        assert store.enabled
        with cache_disabled():
            assert not store.enabled
        assert store.enabled


class TestCachedHelpers:
    def test_monitored_run_reuses_stream_and_monitor(self):
        model = benchmark_for("181.mcf", SMALL)
        first = monitored_run(model, 45_000, SMALL)
        again = monitored_run(model, 45_000, SMALL)
        assert again is first

    def test_gpd_and_monitor_share_one_stream(self):
        model = benchmark_for("181.mcf", SMALL)
        gpd_run(model, 45_000, SMALL)
        monitored_run(model, 45_000, SMALL)
        assert get_cache().stats().streams == 1


class TestRunnerFlags:
    def test_no_cache_run(self, capsys):
        try:
            assert main(["fig08", "--no-cache"]) == 0
        finally:
            cache_module.set_enabled(True)
        out = capsys.readouterr().out
        assert "Pearson" in out
        assert "cache:" not in out

    def test_profile_prints_table(self, capsys):
        assert main(["fig08", "--scale", "0.05", "--profile"]) == 0
        assert "cumulative" in capsys.readouterr().out
