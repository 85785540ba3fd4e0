"""The repo benchmark: one command for every workload and metric.

Untraced run (end-to-end metrics)::

    python3 perfbench/run.py --workload fleet --seed 7 --seconds 36 --trace 0

Traced run (per-layer metrics and the tracing overhead)::

    python3 perfbench/run.py --workload fleet --seed 7 --seconds 36 --trace 1

Run from the root of a checkout; the program is imported from its
``src/``.  Each workload runs in a child process (``measure.py``).  An
untraced run also starts ``SETUP_PROBES`` children that only set up, half
before the measured child and half after it, so ``setup_s`` is the median
of the faster half of set-ups spread across the run (``fast_half`` says
why the faster half).  Everything a run writes
lands in ``.perfbench/<workload>-seed<seed>-trace<0|1>/``: the provenance
receipt ``build_receipt.json`` and, when traced, ``spans.jsonl``.

The last line of standard output is the result: ``correct``,
``attempted``, ``failed`` and every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("figures", "fleet", "serve")

#: Set-up-only children of an untraced run (half before, half after).
SETUP_PROBES = 4

#: Seconds any one child may take before it and its workers are killed.
CHILD_TIMEOUT = 150

#: End-to-end metric name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "wall_s": "s",
    "intervals_per_s": "intervals/s",
    "tick_ms_p50": "ms",
    "tick_ms_p90": "ms",
    "recovery_ms": "ms",
}


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a whole number, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _seconds(text: str) -> int:
    value = _non_negative_int(text)
    if not 1 <= value <= 120:
        raise argparse.ArgumentTypeError(
            f"seconds must lie in 1..120, got {value}")
    return value


def fast_half(values: list[float]) -> list[float]:
    """The faster half of *values* (rounded up).

    A set-up that lands in one of the host's slow episodes reads up to 70%
    longer; the median of the faster half ignores that until such episodes
    cover three quarters of the run.
    """
    return sorted(values)[:(len(values) + 1) // 2]


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=_non_negative_int, required=True)
    parser.add_argument("--seconds", type=_seconds, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_child(args: argparse.Namespace, outdir: Path,
              setup_only: bool) -> dict:
    """Start one ``measure.py`` child; return its JSON report.

    The child gets its own process group, so a timeout also reaches the
    shard workers the serve workload forks.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, str(HERE / "measure.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--outdir", str(outdir)]
    if setup_only:
        command.append("--setup-only")
    command += ["--spawned-at", repr(time.time())]
    child = subprocess.Popen(command, cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT)
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"{args.workload} child exited with "
                           f"{child.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    outdir = ROOT / ".perfbench" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    probes = 0 if args.trace else SETUP_PROBES // 2
    try:
        setups = [run_child(args, outdir, setup_only=True)["setup_s"]
                  for _ in range(probes)]
        report = run_child(args, outdir, setup_only=False)
        setups += [run_child(args, outdir, setup_only=True)["setup_s"]
                   for _ in range(probes)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    if args.trace:
        units = layers.UNITS
        values = report["metrics"]
    else:
        units = END_TO_END
        values = dict(report["metrics"], setup_s=statistics.median(
            fast_half(setups + [report["setup_s"]])))
    print("receipt: " + json.dumps(report["receipt"], sort_keys=True))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
