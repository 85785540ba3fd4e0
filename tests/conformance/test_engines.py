"""Every engine against the scalar pipeline, over one scenario space.

The fixed scenarios run on every pass; Hypothesis draws ragged feeds,
detector churn and worker delivery orders into fixed bases; the
256-stream fleet scenario runs in process, then twice across processes,
clean and under service chaos.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.service import ServiceFaultPlan
from tests.conformance.compare import assert_conforms
from tests.conformance.engines import (ENGINES, run_batch, run_scalar,
                                       run_serving_fleet, run_worker)
from tests.conformance.scenarios import (CHAOS, CHURN, DELIVERIES, EDGES,
                                         FLEET, LONG, RAGGED, REORDERED,
                                         SWEEP, TRACES)

seeds = st.integers(min_value=0, max_value=10_000)
_REFERENCES: dict = {}


def reference(scenario):
    """The scalar run of a fixed scenario, shared by its engines."""
    if scenario.name not in _REFERENCES:
        _REFERENCES[scenario.name] = run_scalar(scenario)
    return _REFERENCES[scenario.name]


@pytest.mark.parametrize("scenario, engine", [
    pytest.param(scenario, engine, id=f"{scenario.name}-{engine}")
    for scenario, engines in [(s, ("batch",)) for s in SWEEP + LONG]
    + [(s, ("batch", "worker")) for s in EDGES]
    for engine in engines])
def test_fixed_scenario(scenario, engine, tmp_path):
    scalar = reference(scenario)
    assert any(session.stats.intervals for session in scalar.lanes)
    assert_conforms(scalar, ENGINES[engine](scenario, tmp_path))


def test_scenarios_reach_their_edges():
    by_name = {scenario.name: scenario for scenario in SWEEP + LONG + EDGES}
    assert len(SWEEP) == 24 and len(TRACES) >= 3
    assert {f"trace-{name}" for name in TRACES} <= set(by_name)

    def intervals(name):
        return [lane.stats.intervals for lane in
                reference(by_name[name]).lanes]

    assert len(set(intervals("gpd-only-ragged"))) == 3
    assert sum(bool(reference(scenario).lanes[0].watchdog_events)
               for scenario in SWEEP) >= 8
    assert intervals("empty-short-late")[1:3] == [0, 0]
    assert [lane.stats.samples for lane in reference(
        by_name["empty-short-late"]).lanes][1:3] == [0, 300]


def test_reordered_deliveries_park_and_drain(tmp_path):
    run = run_worker(REORDERED, tmp_path)
    assert any(len(ack.applied) > 1 for ack in run.acks)
    assert_conforms(reference(REORDERED), run)


@given(seeds)
@settings(max_examples=5, deadline=None)
def test_ragged_feeds(tmp_path_factory, seed):
    scenario = replace(RAGGED, ragged=seed)
    scalar = run_scalar(scenario)
    assert_conforms(scalar, run_batch(scenario))
    assert_conforms(scalar, run_worker(scenario,
                                       tmp_path_factory.mktemp("ragged")))


@given(st.lists(st.tuples(
    st.integers(0, 11), st.integers(0, 2),
    st.sampled_from(("reset", "quarantine", "release")),
    st.integers(0, 31)), max_size=12))
@settings(max_examples=5, deadline=None)
def test_churn_between_rounds(churn):
    # Resets keep the regrouper's cached plan; membership changes
    # rebuild it, with compaction, so churn never strands the fleet on
    # ragged gathers.
    scenario = replace(CHURN, churn=tuple(churn))
    run = run_batch(scenario)
    assert_conforms(run_scalar(scenario), run)
    assert run.extra._regrouper.coalesced
    assert run.extra._regrouper.rebuilds <= 12


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_worker_delivery_orders(tmp_path_factory, seed):
    scenario = replace(DELIVERIES, ragged=seed, shuffle=seed)
    assert_conforms(run_scalar(scenario),
                    run_worker(scenario, tmp_path_factory.mktemp("worker")))


@pytest.fixture(scope="module")
def fleet_reference():
    return run_scalar(FLEET)


@pytest.mark.parametrize("engine", ["batch", "worker"])
def test_fleet_scenario_in_process(tmp_path, fleet_reference, engine):
    assert_conforms(fleet_reference, ENGINES[engine](FLEET, tmp_path))


@pytest.mark.parametrize("faults", [CHAOS, ServiceFaultPlan()],
                         ids=["chaos", "clean"])
def test_fleet(tmp_path, fleet_reference, faults):
    run = run_serving_fleet(replace(FLEET, faults=faults), tmp_path)
    summary, exit_codes = run.extra
    # Both crashes and the torn snapshot each cost an incarnation;
    # replayed acks never disagreed with the originals, nothing was
    # shed, every shard stepped many batches per round, and the last
    # incarnations exited cleanly.
    assert summary["restarts"] >= 3 if faults.specs \
        else summary["restarts"] == 0
    assert len(summary["batches_per_round"]) == 4
    assert min(summary["batches_per_round"].values()) > 8
    assert summary["divergences"] == summary["evicted"] == 0
    assert all(code in (0, None) for code in exit_codes.values())
    assert any(fleet_reference.events.values())
    assert_conforms(fleet_reference, run)

