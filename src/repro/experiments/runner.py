"""CLI runner: regenerate any or all of the paper's figures.

Usage::

    repro-experiments --list
    repro-experiments fig03 fig04
    repro-experiments all --scale 0.25 --seed 7
    repro-experiments fig15 --no-cache --profile

The performance engine behind the runner:

* every figure's simulation/monitor runs are memoized in the process-wide
  :class:`~repro.experiments.cache.SimulationCache`, so figures sharing
  runs (fig03/fig04, fig13/fig14, fig06/fig15/fig16) compute each one
  once (``--no-cache`` restores fresh computation);
* ``--profile`` prints a cProfile top-20 cumulative table for the figure
  phase, so hot-path work is measured rather than guessed;
* ``--trace FILE`` attaches a JSONL trace sink to the process telemetry
  bus for the whole run, so every detector transition, phase change,
  region event and cache lookup of the selected figures lands in FILE
  (inspect with ``repro-trace``).  The sink is flushed after every
  figure — including failed ones — so a partial trace is always valid
  JSONL up to its last record.

Figures run one after another in this process; a SIGTERM or SIGINT stops
the loop at the running figure, flushes the trace and exports what
finished.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from typing import Callable

from repro.errors import ExperimentError
from repro.experiments import (extra_chaos, extra_cpd, extra_detector_zoo,
                               extra_fault_sweep,
                               extra_fleet, extra_interval_size,
                               extra_realtrace,
                               fig02_mcf_region_chart,
                               fig03_gpd_phase_changes,
                               fig04_gpd_stable_time,
                               fig05_facerec_region_chart, fig06_ucr_median,
                               fig07_ucr_over_time,
                               fig08_pearson_properties, fig09_mcf_regions,
                               fig10_mcf_correlation, fig11_gap_regions,
                               fig13_lpd_phase_changes,
                               fig14_lpd_stable_time, fig15_cost,
                               fig16_interval_tree, fig17_speedup)
from repro.experiments import cache
from repro.experiments.config import ExperimentConfig

_MODULES = (
    fig02_mcf_region_chart, fig03_gpd_phase_changes,
    fig04_gpd_stable_time, fig05_facerec_region_chart,
    fig06_ucr_median, fig07_ucr_over_time, fig08_pearson_properties,
    fig09_mcf_regions, fig10_mcf_correlation, fig11_gap_regions,
    fig13_lpd_phase_changes, fig14_lpd_stable_time, fig15_cost,
    fig16_interval_tree, fig17_speedup, extra_chaos, extra_cpd,
    extra_detector_zoo, extra_fault_sweep, extra_fleet,
    extra_interval_size, extra_realtrace,
)

#: Registry of every reproducible figure (Figures 1 and 12 are state
#: diagrams, reproduced as code in repro.core.gpd / repro.core.lpd).
EXPERIMENTS: dict[str, Callable] = {
    module.EXPERIMENT_ID: module.run for module in _MODULES
}

TITLES: dict[str, str] = {
    module.EXPERIMENT_ID: module.TITLE for module in _MODULES
}

#: The figure experiments run by default ('all'); the extras ('zoo',
#: 'ivalsize') run only when named explicitly.
DEFAULT_SET = tuple(sorted(eid for eid in EXPERIMENTS
                           if eid.startswith("fig")))


def run_experiment(experiment_id: str,
                   config: ExperimentConfig):
    """Run one figure's experiment by id."""
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {known}") from None
    return runner(config)


class _GracefulExit(Exception):
    """SIGTERM/SIGINT arrived: stop between figures, flush, exit clean."""

    def __init__(self, signum: int) -> None:
        super().__init__(signum)
        self.signum = signum


def _install_signal_handlers() -> dict:
    """Route SIGTERM/SIGINT into the runner's orderly-stop path.

    An interrupted run must still flush its trace sink (leaving a valid
    JSONL prefix) and print the partial failure summary; only *real*
    failures exit nonzero.  Handlers are installed best-effort — inside
    a non-main thread (embedding test harnesses) signal installation
    raises and the default behavior is kept.  Returns the previous
    handlers so an embedding caller can be left untouched.
    """

    def _handler(signum, frame):
        raise _GracefulExit(signum)

    previous: dict = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _handler)
        except ValueError:
            pass  # not the main thread; leave default handling in place
    return previous


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro-experiments`` script."""
    previous = _install_signal_handlers()
    try:
        return _run_cli(argv)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _run_cli(argv: list[str] | None) -> int:
    """The runner body (signal handlers already installed)."""
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiments", nargs="*", default=["all"],
                        help="figure ids (fig02..fig17) or 'all'")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload duration multiplier (default 1.0)")
    parser.add_argument("--seed", type=int, default=7,
                        help="PMU seed (default 7)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the cross-figure simulation cache")
    parser.add_argument("--profile", action="store_true",
                        help="print a cProfile top-20 cumulative table "
                             "for the figure phase")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    parser.add_argument("--out", type=str, default=None, metavar="DIR",
                        help="also export results (JSON + CSV) into DIR")
    parser.add_argument("--trace", type=str, default=None, metavar="FILE",
                        help="write a JSONL telemetry trace of the run to "
                             "FILE (inspect with repro-trace)")
    args = parser.parse_args(argv)

    if args.list:
        for experiment_id in sorted(EXPERIMENTS):
            print(f"{experiment_id}  {TITLES[experiment_id]}")
        return 0

    if args.no_cache:
        cache.set_enabled(False)

    config = ExperimentConfig(scale=args.scale, seed=args.seed)
    requested = args.experiments
    if requested == ["all"] or requested == []:
        requested = list(DEFAULT_SET)

    trace_sink = None
    if args.trace is not None:
        from repro.telemetry.bus import get_bus
        from repro.telemetry.sinks import JsonlTraceSink

        trace_sink = JsonlTraceSink(args.trace)
        get_bus().attach(trace_sink)

    started_total = time.time()  # repro: allow[wall-clock] progress timer
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()

    results = []
    failures: list[tuple[str, Exception]] = []
    interrupted: int | None = None
    try:
        for experiment_id in requested:
            started = time.time()  # repro: allow[wall-clock] progress timer
            try:
                result = run_experiment(experiment_id, config)
            except (_GracefulExit, KeyboardInterrupt) as exc:
                interrupted = getattr(exc, "signum", signal.SIGINT)
                print(f"interrupted (signal {interrupted}) during "
                      f"{experiment_id}; flushing partial results",
                      file=sys.stderr)
                if trace_sink is not None:
                    trace_sink.flush()
                break
            except Exception as exc:  # keep regenerating the other figures
                failures.append((experiment_id, exc))
                print(f"[{experiment_id}] FAILED: "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
                print()
                # The events leading up to the failure are exactly what a
                # post-mortem needs: make sure they are on disk.
                if trace_sink is not None:
                    trace_sink.flush()
                continue
            results.append(result)
            print(result.to_table())
            fig_secs = time.time() - started  # repro: allow[wall-clock] progress timer
            print(f"  ({fig_secs:.1f}s)")
            print()
            if trace_sink is not None:
                trace_sink.flush()
    except (_GracefulExit, KeyboardInterrupt) as exc:
        interrupted = getattr(exc, "signum", signal.SIGINT)
        print(f"interrupted (signal {interrupted}); flushing partial "
              f"results", file=sys.stderr)
    finally:
        if trace_sink is not None:
            from repro.telemetry.bus import get_bus

            get_bus().detach(trace_sink)
            trace_sink.close()
            print(f"trace: {args.trace} "
                  f"({trace_sink.records_written} records)")

    if profiler is not None:
        import pstats

        profiler.disable()
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative").print_stats(20)

    if not args.no_cache:
        total_secs = time.time() - started_total  # repro: allow[wall-clock] progress timer
        print(f"total {total_secs:.1f}s; "
              f"cache: {cache.get_cache().stats()}")
    if args.out is not None:
        from repro.analysis.export import export_results

        written = export_results(results, args.out)
        print(f"exported {len(written)} files to {args.out}")
    if failures:
        print(f"{len(failures)}/{len(requested)} experiments failed:",
              file=sys.stderr)
        for experiment_id, exc in failures:
            print(f"  {experiment_id}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
