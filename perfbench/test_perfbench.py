"""Self-tests for the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest perfbench -q

They cover span arithmetic, the recorder's wrapping and fork hand-back,
failure accounting on perturbed outputs, the end-to-end aggregation, the
receipt, argument and size validation, and that BENCHMARK.json names
exactly what run.py prints.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import types
from pathlib import Path

import pytest

import figures
import fleet
import layers
import measure
import receipt
import reference
import run
import serve
from repro.serve import EventRecord
from tracing import (EntryPoint, Span, SpanRecorder, load_handoff,
                     self_times, top_level_busy)

ROOT = Path(__file__).resolve().parent.parent


# -- span arithmetic ---------------------------------------------------------

def _tree() -> list[Span]:
    """root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]; c [11, 12]."""
    return [Span("root", 0.0, 10.0, -1), Span("a", 1.0, 4.0, 0),
            Span("a1", 2.0, 3.0, 1), Span("b", 5.0, 9.0, 0),
            Span("c", 11.0, 12.0, -1)]


def test_self_time_subtracts_direct_children_only():
    assert self_times(_tree()) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_top_level_busy_sums_root_spans():
    assert top_level_busy(_tree()) == 11.0


def test_per_layer_derives_calls_busy_self_and_ratios():
    spans = [Span("monitor.begin_interval", 0.0, 4.0, -1),
             Span("regions.attribute", 0.5, 1.5, 0),
             Span("regions.form", 2.0, 3.0, 0),
             Span("monitor.finish_interval", 4.0, 5.0, -1),
             Span("serve.worker.apply", 5.0, 6.0, -1),
             Span("serve.worker.apply", 6.0, 7.0, -1),
             Span("serve.worker.apply", 7.0, 8.0, -1)]
    counters = {"regions.formed": 3, "faults.samples_in": 10,
                "faults.samples_out": 8}
    metrics = layers.per_layer([(spans, counters)],
                               {"serve.submitted": 2,
                                "experiments.cache.hits": 5})
    assert list(metrics) == list(layers.UNITS)
    assert metrics["monitor.interval.calls"] == 1
    assert metrics["monitor.interval.self_s"] == pytest.approx(3.0)
    assert metrics["regions.attribute.busy_s"] == pytest.approx(1.0)
    assert metrics["regions.formed_per_form"] == 3.0
    assert metrics["faults.kept_ratio"] == pytest.approx(0.8)
    assert metrics["serve.replayed_batches"] == 1
    assert metrics["experiments.cache.hits"] == 5
    assert metrics["trace.spans"] == len(spans)
    assert metrics["batch.add_lane.calls"] == 0


# -- the recorder ------------------------------------------------------------

class Worker:
    def step(self, n: int) -> int:
        return self.inner(n) + 1

    def inner(self, n: int) -> int:
        return n * 2


def _helper(n: int) -> int:
    return n + 100


@pytest.fixture
def fake_module(monkeypatch):
    """A module defining a function and a second one importing it by name."""
    home = types.ModuleType("perfbench_fake_home")
    home.helper = _helper
    user = types.ModuleType("perfbench_fake_user")
    user.helper = home.helper
    monkeypatch.setitem(sys.modules, home.__name__, home)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    return home, user


def test_recorder_wraps_methods_and_by_name_imports(fake_module):
    home, user = fake_module
    seen = []
    recorder = SpanRecorder()
    recorder.install([
        EntryPoint("w.step", __name__, "Worker.step"),
        EntryPoint("w.inner", __name__, "Worker.inner"),
        EntryPoint("helper", home.__name__, "helper",
                   lambda rec, args, result: seen.append(result)),
    ])
    try:
        assert Worker().step(3) == 7
        assert user.helper(1) == 101
    finally:
        recorder.uninstall()
    assert [(s.name, s.parent) for s in recorder.spans] == [
        ("w.step", -1), ("w.inner", 0), ("helper", -1)]
    assert seen == [101]
    assert user.helper is _helper and home.helper is _helper
    assert "step" in Worker.__dict__ and Worker.step.__name__ == "step"
    Worker().step(1)
    assert len(recorder.spans) == 3  # uninstalled: nothing more recorded


def test_same_name_nesting_is_one_span():
    recorder = SpanRecorder()
    recorder.install([EntryPoint("w", __name__, "Worker.step"),
                      EntryPoint("w", __name__, "Worker.inner")])
    try:
        Worker().step(2)
    finally:
        recorder.uninstall()
    assert [s.name for s in recorder.spans] == ["w"]


def _child_work() -> None:
    Worker().step(5)


def test_forked_child_hands_its_spans_back(tmp_path):
    recorder = SpanRecorder(tmp_path)
    recorder.install([EntryPoint("w.step", __name__, "Worker.step")])
    try:
        Worker().step(1)
        child = multiprocessing.get_context("fork").Process(
            target=_child_work)
        child.start()
        child.join(timeout=30)
    finally:
        recorder.uninstall()
    assert not child.is_alive() and child.exitcode == 0
    handed = load_handoff(tmp_path)
    assert len(handed) == 1
    spans, _ = handed[0]
    assert [s.name for s in spans] == ["w.step"]
    assert len(recorder.spans) == 1  # the parent keeps only its own


# -- failure accounting ------------------------------------------------------

def _figures_pass(rows: dict) -> figures.PassResult:
    return figures.PassResult(
        wall_s=1.0, span_s=1.0, intervals=1, step_s=[1.0], recovery_s=[1.0],
        rows=rows, warm_rows=dict(rows))


def test_perturbed_figure_row_is_a_failed_figure():
    rows = {"fig06": [["181.mcf", 12.5, False, 3, 4]],
            "fig15": [["181.mcf", 4, 0.1, 2.0, 20.0]]}
    expected = figures.digests(_figures_pass(rows))
    assert figures.failures(None, _figures_pass(rows), expected) == (4, 0)
    perturbed = {"fig06": [["181.mcf", 12.500001, False, 3, 4]],
                 "fig15": rows["fig15"]}
    assert figures.failures(None, _figures_pass(perturbed),
                            expected) == (4, 1)


def test_figure_that_raised_is_a_failed_figure():
    rows = {"fig06": None, "fig15": [["a", 1]]}
    expected = {"fig06": "0", "fig15": figures.digest_rows([["a", 1]])}
    assert figures.failures(None, _figures_pass(rows), expected)[1] == 1


def test_figure_digest_ignores_numpy_scalar_types():
    import numpy as np

    assert figures.digest_rows([[np.float64(0.5), np.int64(3)]]) == \
        figures.digest_rows([[0.5, 3]])


def test_perturbed_lane_digest_is_a_failed_lane():
    size = fleet.Size(lanes=3, replayed_lanes=1)
    prepared = fleet.Prepared(seed=7, size=size, binary=None, pool=[])
    result = fleet.PassResult(
        wall_s=1.0, span_s=1.0, intervals=36, step_s=[0.1] * 3,
        recovery_s=[0.1], lane_digests=["a", "b", "c"],
        recovered_intervals=[13, 13, 13])
    assert fleet.failures(prepared, result, ["a", "b", "c"]) == (3, 0)
    assert fleet.failures(prepared, result, ["a", "x", "c"]) == (3, 1)
    result.recovered_intervals = [13, 12, 13]
    assert fleet.failures(prepared, result, ["a", "b", "c"]) == (3, 1)


def _serve_case(events: dict) -> tuple[serve.Prepared, serve.PassResult]:
    record = EventRecord(interval_index=4, detector="lpd", rid=2,
                         kind="phase-change", state_from="STABLE",
                         state_to="UNSTABLE")
    prepared = serve.Prepared(
        seed=7, size=serve.Size(streams=2, ticks=1), config=None,
        names=["s0", "s1"], batches=[[None, None], [None, None]],
        workdir=Path("."), reference={"s0": (record,), "s1": ()})
    result = serve.PassResult(
        wall_s=1.0, span_s=2.0, intervals=2, step_s=[1.0], recovery_s=[1.0],
        submitted=4, summary={"divergences": 0, "evicted": 0},
        exit_codes={0: 0}, events=events(record))
    return prepared, result


def test_perturbed_event_record_fails_its_streams_batches():
    prepared, result = _serve_case(lambda r: {"s0": (r,), "s1": ()})
    assert serve.failures(prepared, result, None) == (4, 0)
    prepared, result = _serve_case(
        lambda r: {"s0": (EventRecord(**{**r.__dict__, "rid": 3}),),
                   "s1": ()})
    assert serve.failures(prepared, result, None) == (4, 2)


def test_unclean_worker_exit_fails_the_pass():
    prepared, result = _serve_case(lambda r: {"s0": (r,), "s1": ()})
    result.exit_codes = {0: 137}
    assert serve.failures(prepared, result, None) == (4, 4)


# -- end-to-end aggregation --------------------------------------------------

def test_end_to_end_takes_each_steps_fastest_pass():
    def fleet_pass(wall, steps, recovery, rss):
        return fleet.PassResult(
            wall_s=wall, span_s=wall, intervals=30, step_s=steps,
            recovery_s=[recovery], lane_digests=[], recovered_intervals=[],
            peak_rss_mb=rss)

    # remainders of the timed span beyond the steps: 2.0 and 1.0
    passes = [fleet_pass(7.0, [1.0, 4.0], 0.5, 100.0),
              fleet_pass(6.0, [2.0, 3.0], 0.3, 102.0)]
    assert measure.best_steps(passes) == [1.0, 3.0]
    metrics = measure.end_to_end(passes, factor=1.0)
    assert metrics["wall_s"] == 5.0
    assert metrics["intervals_per_s"] == 6.0
    assert metrics["tick_ms_p50"] == 2000.0
    assert metrics["recovery_ms"] == 300.0
    assert metrics["peak_rss_mb"] == 101.0
    # on a host half as fast as nominal, every time reads half as long
    halved = measure.end_to_end(passes, factor=reference.scale(
        2 * reference.NOMINAL_S))
    assert halved["wall_s"] == 2.5 and halved["intervals_per_s"] == 12.0
    assert halved["tick_ms_p50"] == 1000.0
    assert halved["recovery_ms"] == 150.0
    assert halved["peak_rss_mb"] == 101.0


def test_setup_takes_the_median_of_the_faster_half():
    assert run.fast_half([0.9, 0.5, 2.0, 0.6, 0.7]) == [0.5, 0.6, 0.7]


# -- receipt -----------------------------------------------------------------

def test_receipt_carries_every_field(tmp_path):
    built = receipt.build_receipt(ROOT, "fleet", 7, 30, 0,
                                  {"lanes": 256})
    assert tuple(sorted(built)) == tuple(sorted(receipt.FIELDS))
    assert built["seed"] == 7 and built["sizes"] == {"lanes": 256}
    assert built["kernel_backend"] in ("numpy", "numba")
    assert len(built["source_sha256"]) == 64
    written = receipt.write_receipt(built, tmp_path)
    assert json.loads(written.read_text()) == built


# -- argument and size validation -------------------------------------------

@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("seed", ["-1", "7.5", "seven", ""])
def test_malformed_seed_is_rejected(workload, seed):
    with pytest.raises(SystemExit):
        run.parse_args(["--workload", workload, "--seed", seed,
                        "--seconds", "5"])


@pytest.mark.parametrize("seconds", ["0", "-3", "2.5", "999"])
def test_malformed_seconds_are_rejected(seconds):
    with pytest.raises(SystemExit):
        run.parse_args(["--workload", "fleet", "--seed", "1",
                        "--seconds", seconds])


@pytest.mark.parametrize("module, bad", [
    (figures, {"scale": 0}), (figures, {"scale": 2.0}),
    (figures, {"scale": "0.1"}),
    (fleet, {"lanes": 0}), (fleet, {"intervals": 1.5}),
    (fleet, {"pool_scale": -1.0}), (fleet, {"lanes": 2, "replayed_lanes": 3}),
    (serve, {"streams": 0}), (serve, {"ticks": True}),
    (serve, {"pool_scale": 0.0}),
])
def test_malformed_size_is_rejected(module, bad):
    with pytest.raises(ValueError):
        module.Size(**bad)


# -- BENCHMARK.json ----------------------------------------------------------

def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    for metric in spec["per_layer"]:
        higher = metric["name"] in layers.HIGHER_IS_BETTER
        assert metric["better"] == ("higher" if higher else "lower")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
