"""The ``figures`` workload: the researcher's figure-regeneration path.

One pass regenerates the rows of figures 6, 15, 16 and 17 serially from a
cold :class:`~repro.experiments.cache.SimulationCache`.  Each figure is
built one benchmark row at a time through the figure module's own
``run(config, benchmarks=...)``, which does the same work as one
whole-figure call and yields per-row latencies.  All of the work is the
scalar single-stream pipeline: PMU sampling, region attribution, UCR and
formation, LPD/GPD stepping and, in fig17, the RTO optimizer.
"""

from __future__ import annotations

import gc
import hashlib
import json
import numbers
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.experiments import (cache, fig06_ucr_median, fig15_cost,
                               fig16_interval_tree, fig17_speedup)
from repro.experiments.base import stream_for
from repro.experiments.config import BASE_PERIOD, ExperimentConfig
from repro.program.spec2000 import (FIG6_BENCHMARKS, FIG15_BENCHMARKS,
                                    FIG16_BENCHMARKS, FIG17_BENCHMARKS,
                                    get_benchmark)

import sizes

NAME = "figures"

#: The time goes to the interpreter, so ``reference.py``'s loop tracks the
#: host's speed for it and the end-to-end times are scaled by it.
INTERPRETER_BOUND = True

#: (figure id, module, benchmarks) in regeneration order.
FIGURES = (
    ("fig06", fig06_ucr_median, FIG6_BENCHMARKS),
    ("fig15", fig15_cost, FIG15_BENCHMARKS),
    ("fig16", fig16_interval_tree, FIG16_BENCHMARKS),
    ("fig17", fig17_speedup, FIG17_BENCHMARKS),
)

#: Benchmarks whose base-period streams figs 6, 15 and 16 consume.
STREAM_BENCHMARKS = tuple(sorted(set(FIG6_BENCHMARKS + FIG15_BENCHMARKS
                                     + FIG16_BENCHMARKS)))


@dataclass(frozen=True)
class Size:
    """Workload-duration multiplier handed to every figure."""

    scale: float = 0.05

    def __post_init__(self) -> None:
        sizes.scale("scale", self.scale)


@dataclass
class Prepared:
    config: ExperimentConfig
    size: Size
    input_intervals: int = 0


@dataclass
class PassResult:
    wall_s: float
    span_s: float
    intervals: int
    step_s: list[float]
    recovery_s: list[float]  # the warm re-run's per-row times
    rows: dict[str, list | None] = field(repr=False)  # None: it raised
    warm_rows: dict[str, list | None] = field(repr=False)
    layer_extras: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0  # set by measure.py


def prepare(seed: int, size: Size = Size()) -> Prepared:
    """Build every benchmark model the figures use (kept by repro's cache)."""
    names = set(STREAM_BENCHMARKS + FIG17_BENCHMARKS)
    for name in sorted(names):
        get_benchmark(name, scale=size.scale)
    return Prepared(ExperimentConfig(scale=size.scale, seed=seed), size)


def _regenerate(prepared: Prepared, step_s: list[float]
                ) -> dict[str, list | None]:
    """Every figure's rows, one benchmark at a time; row times to *step_s*."""
    clock = time.perf_counter
    rows: dict[str, list | None] = {}
    for figure_id, module, benchmarks in FIGURES:
        figure_rows: list | None = []
        for name in benchmarks:
            started = clock()
            try:
                result = module.run(prepared.config, benchmarks=(name,))
            except Exception:  # a figure that raises is a failed operation
                traceback.print_exc()
                figure_rows = None
                break
            step_s.append(clock() - started)
            figure_rows.extend(result.rows)
        rows[figure_id] = figure_rows
    return rows


def run_pass(prepared: Prepared, tracer=nullcontext) -> PassResult:
    """One cold regeneration (timed), then one warm re-run (recovery).

    *tracer* is a context manager around the timed span; a traced run
    installs its span recorder with it.
    """
    store = cache.get_cache()
    store.clear()
    clock = time.perf_counter
    step_s: list[float] = []
    with tracer():
        started = clock()
        rows = _regenerate(prepared, step_s)
        wall = clock() - started
    stats = store.stats()
    gc.collect()
    recovery_s: list[float] = []
    warm_rows = _regenerate(prepared, recovery_s)
    if not prepared.input_intervals:
        prepared.input_intervals = sum(
            stream_for(get_benchmark(name, scale=prepared.size.scale),
                       BASE_PERIOD, prepared.config).n_samples
            // prepared.config.buffer_size
            for name in STREAM_BENCHMARKS)
    return PassResult(wall, wall, prepared.input_intervals, step_s,
                      recovery_s, rows, warm_rows,
                      {"experiments.cache.hits": stats.hits,
                       "experiments.cache.misses": stats.misses})


def _canonical(cell) -> object:
    if isinstance(cell, bool) or cell is None or isinstance(cell, str):
        return cell
    if isinstance(cell, numbers.Integral):
        return int(cell)
    if isinstance(cell, numbers.Real):
        return float(cell).hex()
    return repr(cell)


def digest_rows(rows: list) -> str:
    """A stable digest of one figure's rows (NumPy scalars normalized)."""
    canonical = [[_canonical(cell) for cell in row] for row in rows]
    blob = json.dumps(canonical, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def digests(result: PassResult) -> dict[str, str | None]:
    """Per-figure row digests of the pass (None: the figure raised)."""
    return {figure_id: None if rows is None else digest_rows(rows)
            for figure_id, rows in result.rows.items()}


def failures(prepared: Prepared, result: PassResult,
             expected: dict[str, str]) -> tuple[int, int]:
    """(figures attempted, figures failed) for one pass.

    A figure fails when it raised, when its warm re-run rows differ, or
    when its digest differs from *expected*: the committed digests for the
    default seed, the first pass's digests on any other seed.
    """
    failed = 0
    for figure_id, digest in digests(result).items():
        warm = result.warm_rows.get(figure_id)
        if digest is None or warm is None or digest_rows(warm) != digest \
                or expected.get(figure_id) != digest:
            failed += 1
    return len(FIGURES), failed
