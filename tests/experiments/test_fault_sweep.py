"""Tests for the fault-sweep experiment, faulted cache keys, and the
runner's graceful-degradation path."""

import numpy as np
import pytest

from repro.experiments import extra_fault_sweep
from repro.experiments.base import (benchmark_for, gpd_run, monitored_run,
                                    stream_for)
from repro.experiments.cache import get_cache
from repro.experiments.config import BASE_PERIOD, ExperimentConfig
from repro.experiments.runner import main
from repro.faults import FaultPlan, SampleDrop

SMALL = ExperimentConfig(scale=0.05, seed=7)
PAIR = ("164.gzip", "181.mcf")
DROP20 = FaultPlan((SampleDrop(rate=0.20, burst_mean=4.0),))


@pytest.fixture(autouse=True)
def _fresh_cache():
    get_cache().clear()
    yield
    get_cache().clear()


class TestFaultedCacheKeys:
    def test_empty_plan_shares_the_ideal_entry(self):
        model = benchmark_for("181.mcf", SMALL)
        ideal = stream_for(model, BASE_PERIOD, SMALL)
        empty = stream_for(model, BASE_PERIOD, SMALL, plan=FaultPlan(()))
        assert empty is ideal  # byte-identical by construction
        assert get_cache().stats().streams == 1

    def test_faulted_stream_gets_its_own_entry(self):
        model = benchmark_for("181.mcf", SMALL)
        ideal = stream_for(model, BASE_PERIOD, SMALL)
        faulted = stream_for(model, BASE_PERIOD, SMALL, plan=DROP20)
        assert faulted is not ideal
        assert faulted.n_samples < ideal.n_samples
        assert get_cache().stats().streams == 2
        # Same plan again: pure hit.
        again = stream_for(model, BASE_PERIOD, SMALL, plan=DROP20)
        assert again is faulted

    def test_monitor_and_gpd_keys_separate_by_plan(self):
        model = benchmark_for("181.mcf", SMALL)
        clean_monitor = monitored_run(model, BASE_PERIOD, SMALL)
        fault_monitor = monitored_run(model, BASE_PERIOD, SMALL,
                                      plan=DROP20)
        assert fault_monitor is not clean_monitor
        clean_gpd = gpd_run(model, BASE_PERIOD, SMALL)
        fault_gpd = gpd_run(model, BASE_PERIOD, SMALL, plan=DROP20)
        assert fault_gpd is not clean_gpd

    def test_faulted_runs_are_deterministic(self):
        model = benchmark_for("181.mcf", SMALL)
        first = stream_for(model, BASE_PERIOD, SMALL, plan=DROP20)
        get_cache().clear()
        second = stream_for(model, BASE_PERIOD, SMALL, plan=DROP20)
        assert np.array_equal(first.pcs, second.pcs)
        assert np.array_equal(first.cycles, second.cycles)


class TestFaultSweepExperiment:
    def test_drop20_completes_and_lpd_wins(self):
        result = extra_fault_sweep.run(SMALL, benchmarks=PAIR)
        assert len(result.rows) == len(PAIR) * len(extra_fault_sweep.PLANS)
        spurious = result.extras["spurious"]
        wins = sum(1 for plans in spurious.values()
                   if plans["drop20"][1] <= plans["drop20"][0])
        assert wins * 2 > len(spurious)  # LPD <= GPD on the majority

    def test_clean_rows_have_zero_deltas(self):
        result = extra_fault_sweep.run(SMALL, benchmarks=("164.gzip",))
        clean = [row for row in result.rows if row[1] == "clean"]
        assert clean and all(row[4] == 0 and row[5] == 0 for row in clean)
        assert all(row[6] == 0.0 and row[7] == 0.0 for row in clean)

    def test_runner_cli_smoke(self, capsys):
        assert main(["faultsweep", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "faultsweep" in out and "drop20" in out


class TestRunnerDegradation:
    def test_failing_figure_reported_not_fatal(self, capsys, monkeypatch):
        from repro.experiments import runner as runner_module

        def boom(config):
            raise RuntimeError("synthetic figure failure")

        monkeypatch.setitem(runner_module.EXPERIMENTS, "fig08", boom)
        code = main(["fig08", "ivalsize", "--scale", "0.05"])
        captured = capsys.readouterr()
        assert code == 1
        assert "synthetic figure failure" in captured.err
        assert "1/2 experiments failed" in captured.err
        # The healthy figure still ran and printed its table.
        assert "ivalsize" in captured.out

    def test_all_healthy_exits_zero(self, capsys):
        assert main(["fig08", "--scale", "0.05"]) == 0
