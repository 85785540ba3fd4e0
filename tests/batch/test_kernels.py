"""Bit-equality of the row-wise kernels against their scalar twins.

The batch backend's whole contract is "same bits, fewer Python calls";
these tests pin the leaf kernels directly (the end-to-end pipelines are
covered by the conformance modules next door).  Every comparison is exact
(``==`` / ``tobytes``), never approximate — ``pytest.approx`` here would
hide exactly the drift the contract forbids.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.compiled import (band_stats_rows, centroid_rows,
                                  pearson_cached)
from repro.batch.tables import compile_machine
from repro.core.centroid import CentroidHistory, centroid
from repro.core.correlation import pearson_r
from repro.core.states import (MachineSpec, TransitionRule,
                               gpd_machine_spec, lpd_machine_spec)
from repro.errors import ConfigError

finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


def cached_r(stable, current):
    """``pearson_cached`` fed the stable-side sums the LPD bank caches."""
    r, _, _ = pearson_cached(stable, current, stable.sum(axis=1),
                             (stable * stable).sum(axis=1))
    return r


class TestBatchedPearson:
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_bitwise(self, seed, width, rows):
        rng = np.random.default_rng(seed)
        stable = rng.integers(0, 50, size=(rows, width)).astype(np.float64)
        current = rng.integers(0, 50, size=(rows, width)).astype(np.float64)
        # force some degenerate rows (flat on one or both sides)
        if rows >= 2:
            stable[0] = 3.0
            current[-1] = 0.0
        batched = cached_r(stable, current)
        for i in range(rows):
            scalar = pearson_r(stable[i], current[i])
            assert batched[i] == scalar, (i, stable[i], current[i])

    def test_both_flat_resolves_to_one(self):
        stable = np.full((3, 5), 2.0)
        current = np.full((3, 5), 7.0)
        assert cached_r(stable, current).tolist() == [1.0, 1.0, 1.0]

    def test_one_flat_resolves_to_zero(self):
        stable = np.full((1, 5), 2.0)
        current = np.arange(5, dtype=np.float64).reshape(1, 5)
        assert cached_r(stable, current).tolist() == [0.0]
        assert pearson_r(stable[0], current[0]) == 0.0

    def test_width_one_uses_degenerate_path(self):
        stable = np.array([[4.0], [1.0]])
        current = np.array([[4.0], [2.0]])
        batched = cached_r(stable, current)
        for i in range(2):
            assert batched[i] == pearson_r(stable[i], current[i])

    def test_near_flat_tolerance_matches_allclose(self):
        # values inside np.allclose tolerance of flat must resolve the
        # same way the scalar's allclose check does
        base = 1.0e6
        stable = np.array([[base, base * (1 + 1e-6), base]])
        current = np.array([[base, base, base]])
        assert cached_r(stable, current)[0] \
            == pearson_r(stable[0], current[0])

    def test_nonfinite_rows_fall_back_to_scalar(self):
        stable = np.array([[1.0, np.inf, 2.0], [1.0, 2.0, 3.0]])
        current = np.array([[1.0, 1.0, 1.0], [3.0, 2.0, 1.0]])
        batched = cached_r(stable, current)
        for i in range(2):
            assert batched[i] == pearson_r(stable[i], current[i])

    def test_current_side_sums_are_bitwise_reductions(self):
        # The bank refreshes its stable-sum cache from these when the
        # current interval replaces a stable set, so they must be the
        # bits a fresh reduction of the row would produce.
        rng = np.random.default_rng(11)
        for n in (1, 2, 8, 64, 504):
            x = np.floor(rng.uniform(0.0, 50.0, size=(5, n)))
            y = np.floor(rng.uniform(0.0, 50.0, size=(5, n)))
            x[0, :] = 7.0  # one degenerate row
            r, sum_y, sum_y2 = pearson_cached(
                x, y, x.sum(axis=1), (x * x).sum(axis=1))
            for i in range(5):
                assert r[i] == pearson_r(x[i], y[i])
            assert sum_y.tobytes() == y.sum(axis=1).tobytes()
            assert sum_y2.tobytes() == (y * y).sum(axis=1).tobytes()


class TestBatchedCentroid:
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=600),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_matches_scalar_bitwise(self, seed, width, rows):
        rng = np.random.default_rng(seed)
        pcs = rng.integers(0, 2**40, size=(rows, width))
        batched = centroid_rows(pcs)
        for i in range(rows):
            assert batched[i] == centroid(pcs[i])


class TestBatchedBandStats:
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=2, max_value=8),
           st.integers(min_value=1, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_matches_centroid_history_band(self, seed, fill, rows):
        rng = np.random.default_rng(seed)
        values = rng.uniform(1.0, 1e9, size=(rows, fill))
        expectation, sd = band_stats_rows(values)
        for i in range(rows):
            history = CentroidHistory(length=fill)
            history.extend(values[i])
            band = history.band()
            assert expectation[i] == band.expectation
            assert sd[i] == band.sd


class TestCompiledMachine:
    @pytest.mark.parametrize("spec", [lpd_machine_spec(),
                                      gpd_machine_spec(2),
                                      gpd_machine_spec(5)],
                             ids=["lpd", "gpd-dwell2", "gpd-dwell5"])
    def test_tables_replicate_spec(self, spec):
        machine = compile_machine(spec)
        table = spec.table()
        for state in spec.states:
            for input_class in spec.inputs:
                rule = table[(state, input_class)]
                row = machine.state_index[state]
                col = machine.input_index[input_class]
                nxt = machine.next_state[row, col]
                assert spec.states[nxt] == rule.next_state
                assert machine.phase_change[row, col] == rule.phase_change
                assert machine.updates_stable_set[row, col] \
                    == rule.updates_stable_set
            assert machine.stable[machine.state_index[state]] \
                == spec.is_stable(state)
            assert machine.phase_states[machine.state_index[state]] \
                == spec.phase_state(state)
        assert spec.states[machine.initial] == spec.initial

    def test_tables_are_frozen(self):
        machine = compile_machine(lpd_machine_spec())
        with pytest.raises(ValueError):
            machine.next_state[0, 0] = 0

    def test_incomplete_spec_rejected(self):
        spec = MachineSpec(
            name="holey",
            states=("a", "b"),
            inputs=("x", "y"),
            initial="a",
            stable_states=frozenset(("b",)),
            rules=(TransitionRule(state="a", input="x", next_state="b"),),
        )
        with pytest.raises(ConfigError, match="no rule"):
            compile_machine(spec)
