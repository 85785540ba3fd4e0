"""The `cpd` scoreboard experiment: ground truth, scoring, acceptance."""

import math

import numpy as np
import pytest

from repro.experiments.config import BASE_PERIOD, ExperimentConfig
from repro.experiments.extra_cpd import (SCENARIOS, ground_truth_changes,
                                         interval_histograms, run,
                                         score_detections, truth_for_stream)

CONFIG = ExperimentConfig(scale=0.05)


@pytest.fixture(scope="module")
def result():
    return run(CONFIG)


class TestScoring:
    def test_greedy_in_order_matching(self):
        metrics = score_detections([5, 30], [4, 20], n_intervals=100,
                                   tolerance=8)
        assert metrics["matched"] == 1
        assert metrics["mean_lag"] == pytest.approx(1.0)
        assert metrics["spurious"] == 1
        assert metrics["spurious_per_100"] == pytest.approx(1.0)
        assert metrics["missed_pct"] == pytest.approx(50.0)

    def test_each_detection_matches_at_most_one_truth(self):
        # One detection can't satisfy two nearby true changes.
        metrics = score_detections([6], [4, 6], n_intervals=50, tolerance=8)
        assert metrics["matched"] == 1
        assert metrics["missed_pct"] == pytest.approx(50.0)

    def test_detections_before_a_change_are_spurious(self):
        metrics = score_detections([3], [4], n_intervals=50, tolerance=8)
        assert metrics["matched"] == 0
        assert metrics["spurious"] == 1

    def test_empty_cases(self):
        clean = score_detections([], [], n_intervals=10)
        assert clean["missed_pct"] == 0.0
        assert math.isnan(clean["mean_lag"])
        assert clean["spurious_per_100"] == 0.0


class TestGroundTruth:
    def test_applu_has_its_two_phase_boundaries(self):
        from repro.experiments.base import benchmark_for
        model = benchmark_for("173.applu", CONFIG)
        pieces = model.workload.compile()
        n_intervals = pieces[-1].end // (CONFIG.buffer_size * BASE_PERIOD)
        changes = ground_truth_changes(model, BASE_PERIOD,
                                       CONFIG.buffer_size, n_intervals)
        # Three explicit phases -> two boundaries (each may cluster to
        # a single interval), strictly increasing, interior indexes.
        assert len(changes) == 2
        assert all(0 < c < n_intervals for c in changes)
        assert changes == sorted(changes)

    def test_no_change_workload_has_empty_truth(self):
        from repro.experiments.base import benchmark_for
        model = benchmark_for("171.swim", CONFIG)
        pieces = model.workload.compile()
        n_intervals = pieces[-1].end // (CONFIG.buffer_size * BASE_PERIOD)
        assert ground_truth_changes(model, BASE_PERIOD, CONFIG.buffer_size,
                                    n_intervals) == []

    def test_faulted_stream_truth_maps_through_surviving_samples(self):
        from repro.experiments.base import benchmark_for, stream_for
        from repro.experiments.extra_fault_sweep import PLANS
        model = benchmark_for("173.applu", CONFIG)
        plans = dict(PLANS)
        clean = stream_for(model, BASE_PERIOD, CONFIG, None)
        faulted = stream_for(model, BASE_PERIOD, CONFIG, plans["drop20"])
        truth_clean = truth_for_stream(model, BASE_PERIOD,
                                       CONFIG.buffer_size, clean)
        truth_faulted = truth_for_stream(model, BASE_PERIOD,
                                         CONFIG.buffer_size, faulted)
        assert len(truth_clean) == len(truth_faulted) == 2
        # Dropping samples compresses the timeline: every faulted-truth
        # index lands at or before its clean counterpart.
        assert all(f <= c for f, c in zip(truth_faulted, truth_clean))
        assert truth_faulted[-1] < faulted.n_intervals(CONFIG.buffer_size)

    def test_interval_histograms_shape_and_mass(self):
        from repro.experiments.base import benchmark_for, stream_for
        model = benchmark_for("171.swim", CONFIG)
        stream = stream_for(model, BASE_PERIOD, CONFIG, None)
        histograms = interval_histograms(stream, CONFIG.buffer_size)
        n_intervals = stream.n_intervals(CONFIG.buffer_size)
        assert histograms.shape == (n_intervals, 64)
        assert np.all(histograms.sum(axis=1) == CONFIG.buffer_size)


class TestScoreboard:
    def test_every_scenario_and_detector_is_scored(self, result):
        scoreboard = result.extras["scoreboard"]
        assert set(scoreboard) == {label for label, _, _ in SCENARIOS}
        for per_detector in scoreboard.values():
            assert set(per_detector) == {"lpd", "gpd", "edivisive", "cusum"}
        assert len(result.rows) == len(SCENARIOS) * 4

    def test_acceptance_edivisive_spurious_at_most_lpd_on_clean_rung(
            self, result):
        clean = result.extras["scoreboard"]["173.applu/clean"]
        assert clean["edivisive"]["spurious"] <= clean["lpd"]["spurious"]

    def test_edivisive_finds_every_applu_change_cleanly(self, result):
        clean = result.extras["scoreboard"]["173.applu/clean"]["edivisive"]
        assert clean["truth"] == 2
        assert clean["matched"] == clean["truth"]
        assert clean["spurious"] == 0
        assert clean["missed_pct"] == 0.0

    def test_no_change_control_is_quiet_for_cpd_detectors(self, result):
        swim = result.extras["scoreboard"]["171.swim/clean"]
        for detector in ("edivisive", "cusum"):
            assert swim[detector]["detected"] == 0
            assert swim[detector]["spurious_per_100"] == 0.0
