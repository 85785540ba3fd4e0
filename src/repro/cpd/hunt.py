"""`repro-bench hunt`: E-divisive regression hunting over BENCH history.

Each committed ``BENCH_*.json`` file is a snapshot of per-benchmark
median timings.  Rather than gate one run against the latest snapshot
with fixed thresholds, this CLI closes the Hunter-style loop: load the
*whole* committed history, run the offline E-divisive detector
(:mod:`repro.cpd.offline`) over every benchmark's median series, and
report the statistically significant regressions and improvements with
confidence levels.

Series are segmented by machine fingerprint (``machine_info`` +
``cpu_count``) before detection, so a hardware change between snapshots
starts a fresh series instead of being flagged as a performance change.

The CLI is a *non-blocking* CI report step: without ``--strict`` it
always exits 0, and with an empty or too-short history it reports what
it skipped rather than failing.
"""

from __future__ import annotations

import argparse
import glob
import json
import sys
from pathlib import Path
from typing import Any, Iterable

from repro.cpd.offline import ChangePoint, e_divisive

__all__ = ["machine_fingerprint", "load_snapshots", "benchmark_series",
           "hunt_report", "render_text", "main"]

#: Fields of ``machine_info`` that identify comparable hardware.
_MACHINE_KEYS = ("node", "machine", "processor", "cpu")


def machine_fingerprint(snapshot: dict[str, Any]) -> str:
    """Stable identity of the machine a snapshot was recorded on.

    Built from the snapshot's ``machine_info`` block plus
    ``cpu_count``; snapshots missing both collapse to ``"unknown"`` (and
    therefore compare against each other, the pre-guard behavior).
    """
    info = snapshot.get("machine_info") or {}
    parts = [str(info[key]) for key in _MACHINE_KEYS if info.get(key)]
    cpu_count = snapshot.get("cpu_count")
    if cpu_count is not None:
        parts.append(f"cpus={cpu_count}")
    return "/".join(parts) if parts else "unknown"


def load_snapshots(paths: Iterable[str | Path]) -> list[tuple[str, dict]]:
    """Load snapshots as ``(label, payload)``, oldest first.

    Ordering key is the recorded ``datetime`` string (falling back to
    the filename, which embeds the same timestamp) — a pure function of
    the committed files.  Unreadable files are skipped with a warning on
    stderr rather than failing the report.
    """
    loaded: list[tuple[str, str, dict]] = []
    for path in paths:
        path = Path(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"hunt: skipping {path}: {exc}", file=sys.stderr)
            continue
        order_key = str(payload.get("datetime") or path.name)
        loaded.append((order_key, path.name, payload))
    loaded.sort(key=lambda item: (item[0], item[1]))
    return [(name, payload) for _, name, payload in loaded]


def benchmark_series(
        snapshots: list[tuple[str, dict]],
) -> dict[tuple[str, str], tuple[list[str], list[float]]]:
    """Per-(benchmark, machine) median series in snapshot order.

    Returns ``{(benchmark, machine_fingerprint): (labels, medians)}``
    where ``labels`` are the contributing snapshot names.  A benchmark
    absent from a snapshot simply skips that position (membership churn
    is not a change point).
    """
    series: dict[tuple[str, str], tuple[list[str], list[float]]] = {}
    for label, payload in snapshots:
        machine = machine_fingerprint(payload)
        for name, record in sorted((payload.get("benchmarks") or {}).items()):
            median = record.get("median")
            if median is None:
                continue
            labels, values = series.setdefault((name, machine), ([], []))
            labels.append(label)
            values.append(float(median))
    return series


def hunt_report(snapshots: list[tuple[str, dict]], *,
                min_segment: int = 3, n_permutations: int = 199,
                p_threshold: float = 0.05, seed: int = 7) -> dict[str, Any]:
    """Run offline E-divisive over every series; return the report.

    ``findings`` holds one entry per significant change point with its
    direction (``regression`` = median went up, ``improvement`` = down),
    the snapshot label where the new regime starts, and the confidence
    level; ``skipped`` counts the series too short to test.
    """
    findings: list[dict[str, Any]] = []
    skipped = 0
    series = benchmark_series(snapshots)
    for (benchmark, machine), (labels, values) in sorted(series.items()):
        if len(values) < 2 * min_segment:
            skipped += 1
            continue
        changes: list[ChangePoint] = e_divisive(
            values, min_segment=min_segment, n_permutations=n_permutations,
            p_threshold=p_threshold, seed=seed)
        for change in changes:
            findings.append({
                "benchmark": benchmark,
                "machine": machine,
                "direction": ("regression"
                              if change.after_mean > change.before_mean
                              else "improvement"),
                "at": labels[change.index],
                "index": change.index,
                "before_mean": change.before_mean,
                "after_mean": change.after_mean,
                "delta_pct": change.delta_pct,
                "p_value": change.p_value,
                "confidence": change.confidence,
            })
    return {
        "snapshots": [label for label, _ in snapshots],
        "series_tested": len(series) - skipped,
        "series_skipped_short": skipped,
        "findings": findings,
        "params": {
            "min_segment": min_segment,
            "n_permutations": n_permutations,
            "p_threshold": p_threshold,
            "seed": seed,
        },
    }


def render_text(report: dict[str, Any]) -> str:
    """Human-readable rendering of :func:`hunt_report`'s payload."""
    lines = [
        f"hunt: {len(report['snapshots'])} snapshot(s), "
        f"{report['series_tested']} series tested, "
        f"{report['series_skipped_short']} skipped (too short)",
    ]
    findings = report["findings"]
    if not findings:
        lines.append("hunt: no statistically significant changes")
        return "\n".join(lines)
    regressions = [f for f in findings if f["direction"] == "regression"]
    improvements = [f for f in findings if f["direction"] == "improvement"]
    lines.append(f"hunt: {len(regressions)} regression(s), "
                 f"{len(improvements)} improvement(s)")
    for finding in findings:
        marker = "REGRESSION " if finding["direction"] == "regression" \
            else "improvement"
        lines.append(
            f"  {marker} {finding['benchmark']} @ {finding['at']}: "
            f"{finding['before_mean']:.6g} -> {finding['after_mean']:.6g} "
            f"({finding['delta_pct']:+.1f}%, "
            f"confidence {finding['confidence']:.3f}) "
            f"[machine {finding['machine']}]")
    return "\n".join(lines)


def _default_paths() -> list[str]:
    return sorted(glob.glob("BENCH_*.json"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Statistical analysis over committed BENCH_*.json "
                    "benchmark history.")
    sub = parser.add_subparsers(dest="command", required=True)
    hunt = sub.add_parser(
        "hunt",
        help="E-divisive change-point hunt over benchmark median series")
    hunt.add_argument("paths", nargs="*",
                      help="snapshot files (default: ./BENCH_*.json)")
    hunt.add_argument("--min-segment", type=int, default=3,
                      help="minimum points per segment side (default 3)")
    hunt.add_argument("--permutations", type=int, default=199,
                      help="permutations per significance test (default 199)")
    hunt.add_argument("--p-threshold", type=float, default=0.05,
                      help="significance level (default 0.05)")
    hunt.add_argument("--seed", type=int, default=7,
                      help="permutation-test seed (default 7)")
    hunt.add_argument("--format", choices=("text", "json"), default="text")
    hunt.add_argument("--strict", action="store_true",
                      help="exit 1 when a regression is flagged "
                           "(default: always exit 0 — non-blocking report)")
    args = parser.parse_args(argv)

    paths = args.paths or _default_paths()
    snapshots = load_snapshots(paths)
    report = hunt_report(
        snapshots, min_segment=args.min_segment,
        n_permutations=args.permutations, p_threshold=args.p_threshold,
        seed=args.seed)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_text(report))
    if args.strict and any(f["direction"] == "regression"
                           for f in report["findings"]):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
