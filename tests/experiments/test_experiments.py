"""Tests for the experiment harness (small scale, subset benchmarks)."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import (fig02_mcf_region_chart,
                               fig03_gpd_phase_changes,
                               fig04_gpd_stable_time,
                               fig05_facerec_region_chart, fig06_ucr_median,
                               fig07_ucr_over_time,
                               fig08_pearson_properties, fig09_mcf_regions,
                               fig10_mcf_correlation, fig11_gap_regions,
                               fig13_lpd_phase_changes,
                               fig14_lpd_stable_time, fig15_cost,
                               fig16_interval_tree, fig17_speedup)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import EXPERIMENTS, main, run_experiment

SMALL = ExperimentConfig(scale=0.05, seed=7)
TINY = ExperimentConfig(scale=0.02, seed=7)


class TestIndividualExperiments:
    def test_fig02_summarizes_mcf(self):
        result = fig02_mcf_region_chart.run(SMALL)
        assert result.experiment_id == "fig02"
        assert result.rows
        chart = result.extras["chart"]
        assert "146f0-14770" in chart.region_names

    def test_fig03_shape(self):
        result = fig03_gpd_phase_changes.run(
            SMALL, benchmarks=("181.mcf", "171.swim"))
        by_name = {row[0]: row[1:] for row in result.rows}
        # mcf flaps at 45k, swim does not.
        assert by_name["181.mcf"][0] > by_name["171.swim"][0]
        assert len(result.headers) == 4

    def test_fig04_percentages_bounded(self):
        result = fig04_gpd_stable_time.run(SMALL, benchmarks=("171.swim",))
        for row in result.rows:
            for value in row[1:]:
                assert 0.0 <= value <= 100.0

    def test_fig05_counts_switches(self):
        # Needs enough intervals for a few set switches to land.
        result = fig05_facerec_region_chart.run(
            ExperimentConfig(scale=0.15, seed=7))
        values = dict((row[0], row[1]) for row in result.rows)
        assert values["working-set switches (ground truth)"] > 0
        assert values["GPD phase changes"] > 0

    def test_fig06_gap_crafty_above_line(self):
        result = fig06_ucr_median.run(
            SMALL, benchmarks=("254.gap", "171.swim"))
        by_name = {row[0]: row for row in result.rows}
        assert by_name["254.gap"][2] is True
        assert by_name["171.swim"][2] is False

    def test_fig07_interproc_collapses_ucr(self):
        result = fig07_ucr_over_time.run(TINY)
        # Columns: bucket, gap loop-only, gap interproc, crafty loop-only,
        # crafty interproc.
        last = result.rows[-1]
        assert last[1] > 25.0   # gap loop-only stays high
        assert last[2] < 5.0    # interprocedural fixes it
        assert last[3] > 25.0
        assert last[4] < 10.0

    def test_fig08_anchor_values(self):
        result = fig08_pearson_properties.run()
        rows = {row[0]: row for row in result.rows}
        assert rows["shift bottleneck by 1 instruction"][1] < 0.3
        assert rows["shift bottleneck by 1 instruction"][2] == "yes"
        assert rows["more samples, similar frequencies"][1] > 0.99
        assert rows["more samples, similar frequencies"][2] == "no"

    def test_fig09_tradeoff_direction(self):
        result = fig09_mcf_regions.run(SMALL)
        first, last = result.rows[0], result.rows[-1]
        assert first[1] > last[1]  # 146f0 fades
        assert first[2] < last[2]  # 142c8 grows

    def test_fig10_high_correlation(self):
        result = fig10_mcf_correlation.run(SMALL)
        for row in result.rows:
            assert row[1] > 0.9   # mean r
            assert row[3] <= 2    # few local changes

    def test_fig11_g1_more_stable_than_g2(self):
        result = fig11_gap_regions.run(SMALL)
        assert "7ba2c-7ba78" in result.headers[1]
        assert result.rows

    def test_fig13_gap_outlier(self):
        # The erratic region needs several burst cycles to rack up
        # changes, so run a bit longer than the other tests.
        result = fig13_lpd_phase_changes.run(
            ExperimentConfig(scale=0.2, seed=7),
            benchmarks=("254.gap", "189.lucas"))
        gap_g3 = [row for row in result.rows if row[0] == "254.gap"
                  and row[1] == "r3"]
        lucas = [row for row in result.rows if row[0] == "189.lucas"]
        assert gap_g3[0][3] > 3          # erratic region flaps at 45k
        assert all(row[3] <= 2 for row in lucas)

    def test_fig14_high_stability(self):
        result = fig14_lpd_stable_time.run(SMALL, benchmarks=("189.lucas",))
        for row in result.rows:
            assert row[3] > 80.0  # 45k column

    def test_fig15_ordering(self):
        result = fig15_cost.run(TINY, benchmarks=("176.gcc", "171.swim"))
        by_name = {row[0]: row for row in result.rows}
        assert by_name["176.gcc"][3] > by_name["171.swim"][3]
        # LPD is many times slower than GPD everywhere.
        for row in result.rows:
            assert row[4] > 5.0

    def test_fig16_crossover(self):
        result = fig16_interval_tree.run(
            TINY, benchmarks=("176.gcc", "189.lucas"))
        by_name = {row[0]: row for row in result.rows}
        assert by_name["176.gcc"][4] < 0.5
        assert by_name["189.lucas"][4] > 1.0

    def test_fig17_runs_and_reports(self):
        result = fig17_speedup.run(SMALL, benchmarks=("172.mgrid",))
        assert len(result.rows) == 1
        # mgrid: both policies equivalent, near-zero speedup.
        for value in result.rows[0][1:4]:
            assert abs(value) < 5.0


class TestExtraExperiments:
    def test_detector_zoo(self):
        from repro.experiments import extra_detector_zoo

        result = extra_detector_zoo.run(
            ExperimentConfig(scale=0.15, seed=7),
            benchmarks=("187.facerec",))
        by_scheme = {row[1]: row for row in result.rows}
        assert by_scheme["centroid"][3] > by_scheme["lpd"][3]
        assert by_scheme["lpd"][2] == "local"

    def test_interval_size_sweep(self):
        from repro.experiments import extra_interval_size

        result = extra_interval_size.run(ExperimentConfig(scale=0.15,
                                                          seed=7))
        assert len(result.rows) == 5
        # GPD changes vary wildly across buffer sizes; LPD stays flat.
        gpd_counts = [row[2] for row in result.rows]
        lpd_counts = [row[4] for row in result.rows]
        assert max(gpd_counts) - min(gpd_counts) >= 10
        assert max(lpd_counts) - min(lpd_counts) <= 10

    def test_fleet_small_rungs(self):
        from repro.experiments import extra_fleet

        # The first rung has fewer lanes than CONFORMANCE_LANES, so the
        # scalar replay must stop at the fleet's last lane.
        result = extra_fleet.run(ExperimentConfig(scale=0.05, seed=7),
                                 rungs=(2, 8))
        assert result.rows == [[2, 24, 2, 8, 0, "bit-identical"],
                               [8, 96, 8, 32, 2, "—"]]


class TestRunner:
    def test_registry_covers_all_data_figures(self):
        expected = {f"fig{n:02d}" for n in
                    (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 16, 17)}
        expected |= {"zoo", "ivalsize", "faultsweep", "fleet", "chaos",
                     "cpd", "realtrace"}
        assert set(EXPERIMENTS) == expected

    def test_all_runs_only_the_figures(self):
        from repro.experiments.runner import DEFAULT_SET

        assert all(eid.startswith("fig") for eid in DEFAULT_SET)
        assert len(DEFAULT_SET) == 15

    def test_run_experiment_unknown_id(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            run_experiment("fig99", SMALL)

    def test_run_experiment_dispatch(self):
        result = run_experiment("fig08", SMALL)
        assert result.experiment_id == "fig08"

    def test_main_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig03" in out and "fig17" in out

    def test_main_runs_one(self, capsys):
        assert main(["fig08", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Pearson" in out

    def test_result_to_table(self):
        result = fig08_pearson_properties.run()
        table = result.to_table()
        assert "[fig08]" in table
        assert "note:" in table


class TestMainTrace:
    def test_trace_flag_writes_a_valid_trace(self, tmp_path, capsys):
        from repro.telemetry.bus import get_bus
        from repro.telemetry.trace import validate_trace

        path = tmp_path / "run.jsonl"
        assert main(["fig08", "--scale", "0.05", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"trace: {path}" in out
        assert validate_trace(path) == []
        # The sink was detached again: the global bus is back to its
        # zero-overhead default.
        assert not get_bus().enabled

    def test_failed_figure_leaves_a_valid_partial_trace(
            self, tmp_path, capsys, monkeypatch):
        from repro.experiments import runner
        from repro.telemetry.trace import validate_trace

        def boom(config):
            raise RuntimeError("mid-figure crash")

        monkeypatch.setitem(runner.EXPERIMENTS, "fig08", boom)
        path = tmp_path / "partial.jsonl"
        assert main(["fig08", "--scale", "0.05",
                     "--trace", str(path)]) == 1
        err = capsys.readouterr().err
        assert "FAILED" in err
        # The failure summary flushed and closed the sink: whatever
        # made it to disk is a well-formed trace prefix.
        assert validate_trace(path) == []
