"""Run one workload in this process: set up, measure, check, report.

``run.py`` starts this script once per set-up probe and once for the
measured run.  It passes the wall-clock time at which it spawned the
process, so set-up time runs from process start to the first timed call.
The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict
from pathlib import Path

import layers
import reference
from memory import peak_rss_mb, reset_peak_rss
from receipt import build_receipt, write_receipt
from tracing import SpanRecorder, load_handoff, top_level_busy

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("figures", "fleet", "serve")
DIGESTS = Path(__file__).with_name("digests.json")

#: Passes every run makes, however long one takes.  The metrics take each
#: step's fastest pass, so a step needs several passes spread over the run.
MIN_PASSES = 4


def prepare(module, seed: int, workdir: Path):
    if module.NAME == "serve":
        return module.prepare(seed, module.Size(), workdir)
    return module.prepare(seed, module.Size())


def expected_digests(module, seed: int, first_pass):
    """The committed digests for the default seed, else the first pass's."""
    committed = json.loads(DIGESTS.read_text(encoding="utf-8"))
    entry = committed.get(module.NAME)
    if entry is None or seed != committed["seed"]:
        return first_pass
    if entry["size"] != asdict(module.Size()):
        raise SystemExit(f"{DIGESTS.name} holds {module.NAME} digests for "
                         f"other sizes; regenerate it (regen_digests.py)")
    return entry["digests"]


def measure(module, prepared, seed: int, seconds: int):
    """Untraced passes for about *seconds*.

    Returns the passes, the tally and the reference loop's fastest time
    (``reference.py``), read before every pass.  Each pass records its own
    peak RSS (the serve worker's included) as ``peak_rss_mb``.
    """
    passes = []
    attempted = failed = 0
    expected = None
    readings = []
    started = time.perf_counter()
    while True:
        gc.collect()
        reset_peak_rss()
        readings.append(reference.reading_s())
        result = module.run_pass(prepared)
        result.peak_rss_mb = max(peak_rss_mb(),
                                 getattr(result, "worker_peak_rss_mb", 0.0))
        if expected is None:
            expected = expected_digests(module, seed, module.digests(result))
        tried, missed = module.failures(prepared, result, expected)
        attempted += tried
        failed += missed
        passes.append(result)
        elapsed = time.perf_counter() - started
        if (len(passes) >= MIN_PASSES
                and elapsed * (len(passes) + 1) / len(passes) > seconds):
            return passes, attempted, failed, min(readings)


def best_steps(passes, attribute: str = "step_s") -> list[float]:
    """Each step's time in its fastest pass.

    Every pass repeats the same steps on the same inputs, so the fastest
    reading of a step is its cost with the least interference.  The host
    these numbers were taken on slows a CPU-bound loop by up to 70% in
    episodes of ten to twenty seconds; a median over passes follows how
    much of a run such episodes cover, while a step's fastest pass only
    moves when every pass of that step falls into one.
    """
    return [min(times) for times in
            zip(*(getattr(r, attribute) for r in passes))]


def end_to_end(passes, factor: float) -> dict[str, float]:
    """Every end-to-end metric except ``setup_s`` (run.py takes that).

    The time metrics are built from :func:`best_steps`: ``wall_s`` is the
    sum of the steps' fastest times plus the fastest remainder of the
    timed span, and the step quantiles are taken over the steps' fastest
    times.  ``recovery_ms`` is the sum of the fastest times of the
    recovery's parts (``PassResult.recovery_s``).  Every time is
    multiplied by *factor* (``reference.scale``).
    """
    steps = [factor * step for step in best_steps(passes)]
    wall = sum(steps) + factor * min(r.wall_s - sum(r.step_s)
                                     for r in passes)
    return {
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in passes),
        "wall_s": wall,
        "intervals_per_s": passes[0].intervals / wall,
        "tick_ms_p50": 1e3 * statistics.median(steps),
        "tick_ms_p90": 1e3 * statistics.quantiles(steps, n=10)[8],
        "recovery_ms": 1e3 * factor * sum(best_steps(passes, "recovery_s")),
    }


@contextmanager
def installed(recorder: SpanRecorder):
    """The recorder's wrappers, in place for the duration of the block."""
    recorder.install(layers.ENTRY_POINTS)
    try:
        yield
    finally:
        recorder.uninstall()


def trace(module, prepared, seed: int, seconds: int, workdir: Path,
          outdir: Path):
    """Untraced and traced passes in turns; returns per-layer metrics.

    Pairs repeat for about *seconds*.  The per-layer metrics come from the
    last traced pass.  The tracing overhead is the median over pairs of the
    traced minus the untraced timed span: the two passes of a pair run
    back to back, so the host's drift cancels better than it would between
    medians.  The last traced pass's spans are written to ``spans.jsonl``
    in *outdir* once the run is over.
    """
    attempted = failed = 0
    expected = None
    span_s: dict[bool, list[float]] = {True: [], False: []}
    started = time.perf_counter()
    while True:
        for traced in (False, True):
            tracer = nullcontext
            if traced:
                handoff = workdir / f"handoff-{len(span_s[True])}"
                handoff.mkdir()
                recorder = SpanRecorder(handoff)
                tracer = functools.partial(installed, recorder)
            gc.collect()
            result = module.run_pass(prepared, tracer=tracer)
            if expected is None:
                expected = expected_digests(module, seed,
                                            module.digests(result))
            tried, missed = module.failures(prepared, result, expected)
            attempted += tried
            failed += missed
            span_s[traced].append(result.span_s)
        pairs = len(span_s[True])
        elapsed = time.perf_counter() - started
        if elapsed * (pairs + 1) / pairs > seconds:
            break
    processes = [(recorder.spans, recorder.counters)] + load_handoff(handoff)
    pairs = list(zip(span_s[False], span_s[True]))
    extras = dict(result.layer_extras)
    extras.update({
        "trace.traced_wall_s": result.span_s,
        "trace.overhead_s": statistics.median(t - u for u, t in pairs),
        "trace.overhead_pct": statistics.median(100.0 * (t - u) / u
                                                for u, t in pairs),
        "trace.coverage": top_level_busy(recorder.spans) / result.span_s,
    })
    with open(outdir / "spans.jsonl", "w", encoding="utf-8") as handle:
        for process, (process_spans, _) in enumerate(processes):
            for span in process_spans:
                handle.write(json.dumps({
                    "process": process, "name": span.name,
                    "start": span.start, "end": span.end,
                    "parent": span.parent}) + "\n")
    return layers.per_layer(processes, extras), attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--outdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    module = importlib.import_module(args.workload)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=args.outdir))
    prepared = None
    try:
        # Set-up is interpreter work on every workload, so it is scaled by
        # a reading taken here, before any worker process or thread runs;
        # the reading's own time is left out of set-up.
        gauged = time.perf_counter()
        setup_factor = reference.scale(reference.reading_s())
        gauged = time.perf_counter() - gauged
        prepared = prepare(module, args.seed, workdir)
        report: dict = {"setup_s": setup_factor * (
            time.time() - args.spawned_at - gauged)}
        if not args.setup_only:
            if args.trace:
                metrics, attempted, failed = trace(
                    module, prepared, args.seed, args.seconds, workdir,
                    args.outdir)
            else:
                passes, attempted, failed, fastest = measure(
                    module, prepared, args.seed, args.seconds)
                factor = (reference.scale(fastest)
                          if module.INTERPRETER_BOUND else 1.0)
                metrics = end_to_end(passes, factor)
                print(f"{module.NAME}: {len(passes)} passes of "
                      f"{len(passes[0].step_s)} steps; reference loop "
                      f"{1e3 * fastest:.3f} ms; raw pass wall_s "
                      + " ".join(f"{r.wall_s:.3f}" for r in passes))
            receipt = build_receipt(ROOT, module.NAME, args.seed,
                                    args.seconds, args.trace,
                                    asdict(module.Size()))
            write_receipt(receipt, args.outdir)
            report.update(metrics=metrics, attempted=attempted,
                          failed=failed, receipt=receipt)
    finally:
        if prepared is not None and hasattr(module, "close"):
            module.close(prepared)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
