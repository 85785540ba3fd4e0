#!/usr/bin/env python3
"""Capture real executions into committed trace-profile fixtures.

Three modes, all ending in the same compact profile JSON that
``repro.ingest`` replays (CI only ever touches the profiles — this
tool is the offline half of the pipeline):

``record``
    Drive ``perf record`` / ``perf script`` around a command and
    convert the output.  Requires Linux ``perf`` and the usual
    ``perf_event_paranoid`` permissions::

        python scripts/record_trace.py record --name gzipbench \\
            --out trace.json --event cycles --period 100003 -- \\
            gzip -9 -c /usr/share/dict/words

``convert``
    Convert existing ``perf script -F comm,pid,time,ip,sym,dso`` text
    (recorded anywhere, copied here) into a profile::

        python scripts/record_trace.py convert samples.txt \\
            --name gzipbench --out trace.json --comm gzip

``pysample``
    Environments without ``perf`` (containers, CI) still need *real*
    recordings: run a Python workload in-process while a sampler
    thread captures the interpreter's executing frame at a fixed
    interval.  Each sample is emitted as a synthetic virtual address
    (per-file random load base — deliberately ASLR-like, the pipeline
    must cancel it — plus the code object's offset), formatted as
    ``perf script`` text and pushed through the exact parser/profile
    pipeline a perf recording takes::

        PYTHONPATH=src python scripts/record_trace.py pysample \\
            tests/fixtures/traces/workloads/phases_json_regex.py \\
            --name pyjson --out tests/fixtures/traces/realtrace/pyjson.json

The provenance manifest inside the profile records mode, command,
tool version, event, nominal period and the parse drop counters.
"""

from __future__ import annotations

import argparse
import os
import platform
import random
import runpy
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.errors import IngestError  # noqa: E402
from repro.ingest import (PerfEvent, TraceProvenance,  # noqa: E402
                          format_perf_script, parse_perf_script,
                          profile_from_events, save_profile)

#: Default pysample interval: 1 ms between frame captures.
DEFAULT_INTERVAL_US = 1000


def _convert_text(text: str, name: str, provenance: TraceProvenance,
                  out: Path, comm: str | None,
                  keep_kernel: bool) -> None:
    """Shared tail of every mode: text -> events -> profile -> JSON."""
    events, stats = parse_perf_script(text, comm=comm,
                                      keep_kernel=keep_kernel)
    if not events:
        raise IngestError(
            f"no events survived parsing ({stats.total_dropped} dropped: "
            f"{stats.to_json()['dropped']})")
    profile = profile_from_events(events, name, provenance, stats=stats)
    save_profile(profile, out)
    print(f"{out}: {profile.n_samples} samples, "
          f"{len(profile.dsos)} DSOs, {profile.duration_ns / 1e6:.1f} ms, "
          f"checksum {profile.checksum}")
    if stats.total_dropped:
        print(f"  dropped {stats.total_dropped}: "
              f"{stats.to_json()['dropped']}")


def cmd_convert(args: argparse.Namespace) -> int:
    text = Path(args.input).read_text(encoding="utf-8")
    provenance = TraceProvenance(
        command=args.command or "", tool=args.tool or "perf script",
        event=args.event, period_ns=args.period_ns,
        comm=args.comm or "")
    _convert_text(text, args.name, provenance, Path(args.out),
                  args.comm, args.keep_kernel)
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    perf = shutil.which("perf")
    if perf is None:
        print("perf not found on PATH; use 'convert' on text recorded "
              "elsewhere, or 'pysample' for Python workloads",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="repro-record-") as tmp:
        data = Path(tmp) / "perf.data"
        record = [perf, "record", "-e", args.event, "-c",
                  str(args.period), "-o", str(data), "--"] + args.argv
        subprocess.run(record, check=True)
        script = subprocess.run(
            [perf, "script", "-i", str(data),
             "-F", "comm,pid,time,ip,sym,dso"],
            check=True, capture_output=True, text=True)
        version = subprocess.run([perf, "--version"],
                                 capture_output=True, text=True)
        text = script.stdout
    # Event period for a cycles-style event is in event counts, not
    # time; record the wall period only when the event is time-based.
    period_ns = args.period * 1000 if args.event.endswith("clock") else 0
    provenance = TraceProvenance(
        command=" ".join(args.argv), tool=version.stdout.strip(),
        event=args.event, period_ns=period_ns, comm=args.comm or "")
    _convert_text(text, args.name, provenance, Path(args.out),
                  args.comm, args.keep_kernel)
    return 0


class _FrameSampler:
    """Daemon thread sampling the main thread's executing frame.

    Produces ``perf script``-shaped events: the "DSO" is the running
    code object's source file, the "symbol" its qualified name, and
    the "virtual address" a per-file random load base (fresh every
    run, like ASLR — downstream offsets must cancel it) plus the code
    object's line/bytecode offset.

    A woken sampler still needs the GIL, which a busy main thread only
    hands over every ``sys.getswitchinterval()`` (5 ms by default), so
    while sampling the switch interval drops to a quarter of the
    sampling interval; the thread sleeps to fixed deadlines.
    """

    def __init__(self, interval_ns: int, comm: str) -> None:
        self.interval_ns = interval_ns
        self.comm = comm
        self.events: list[PerfEvent] = []
        self._stop = threading.Event()
        self._main_id = threading.get_ident()
        self._bases: dict[str, int] = {}
        # Load-base entropy is the *point* of this RNG: every run must
        # slide each file differently, proving offset stability.
        # repro: allow[wall-clock] ASLR-like load bases need per-run entropy
        self._rng = random.Random(os.getpid() ^ time.time_ns())
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _base(self, filename: str) -> int:
        if filename not in self._bases:
            self._bases[filename] = (0x4000_0000
                                     + self._rng.randrange(1 << 20)
                                     * 0x1000)
        return self._bases[filename]

    def _run(self) -> None:
        pid = os.getpid()
        deadline = time.monotonic_ns()  # repro: allow[wall-clock] sampling schedule
        while not self._stop.is_set():
            # repro: allow[wall-clock] sample timestamps are real time
            now = time.monotonic_ns()
            frame = sys._current_frames().get(self._main_id)
            if frame is not None:
                code = frame.f_code
                ip = (self._base(code.co_filename)
                      + code.co_firstlineno * 0x100
                      + max(frame.f_lasti, 0) * 2)
                self.events.append(PerfEvent(
                    comm=self.comm, pid=pid, time_ns=now, ip=ip,
                    sym=code.co_name, dso=code.co_filename))
            # Hold the requested rate; debt beyond one interval is
            # dropped, so a stall never turns into a burst of samples.
            deadline = max(deadline + self.interval_ns, now)
            delay_ns = deadline - time.monotonic_ns()  # repro: allow[wall-clock] sampling schedule
            self._stop.wait(delay_ns / 1e9)

    def __enter__(self) -> "_FrameSampler":
        self._switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(min(self._switch_interval,
                                  self.interval_ns / 4e9))
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        sys.setswitchinterval(self._switch_interval)


def cmd_pysample(args: argparse.Namespace) -> int:
    script = Path(args.script)
    if not script.is_file():
        print(f"workload script not found: {script}", file=sys.stderr)
        return 2
    comm = args.comm or "python"
    interval_ns = args.interval_us * 1000
    sampler = _FrameSampler(interval_ns, comm)
    old_argv = sys.argv
    sys.argv = [str(script)] + args.args
    try:
        with sampler:
            runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = old_argv
    if not sampler.events:
        print("sampler captured nothing (workload too short?)",
              file=sys.stderr)
        return 2
    text = format_perf_script(sampler.events)
    if args.keep_script:
        Path(args.keep_script).write_text(text, encoding="utf-8")
        print(f"kept perf-script text: {args.keep_script} "
              f"({len(sampler.events)} records)")
    provenance = TraceProvenance(
        command=f"python {script.name} " + " ".join(args.args),
        tool=f"pysampler cpython-{platform.python_version()}",
        event="task-clock(py-frames)", period_ns=interval_ns, comm=comm)
    _convert_text(text, args.name, provenance, Path(args.out), comm,
                  args.keep_kernel)
    return 0


def _common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--name", required=True,
                     help="profile name (cache keys carry trace:<name>)")
    sub.add_argument("--out", required=True, help="output profile JSON")
    sub.add_argument("--comm", default=None,
                     help="keep only this command's samples")
    sub.add_argument("--keep-kernel", action="store_true",
                     help="keep kernel-space samples (dropped by default)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Record/convert real executions into trace profiles.")
    modes = parser.add_subparsers(dest="mode", required=True)

    convert = modes.add_parser(
        "convert", help="convert existing perf-script text")
    convert.add_argument("input", help="perf script output text file")
    _common(convert)
    convert.add_argument("--command", default=None,
                         help="recorded command line, for the manifest")
    convert.add_argument("--tool", default=None,
                         help="recorder name/version, for the manifest")
    convert.add_argument("--event", default="cycles",
                         help="recorded event name (default: cycles)")
    convert.add_argument("--period-ns", type=int, default=0,
                         help="nominal ns between samples, if known")
    convert.set_defaults(fn=cmd_convert)

    record = modes.add_parser(
        "record", help="perf record + perf script a command (needs perf)")
    _common(record)
    record.add_argument("--event", default="cycles")
    record.add_argument("--period", type=int, default=100_003,
                        help="perf -c sample period (default 100003)")
    record.add_argument("argv", nargs="+",
                        help="command to record (after --)")
    record.set_defaults(fn=cmd_record)

    pysample = modes.add_parser(
        "pysample", help="sample a Python workload without perf")
    pysample.add_argument("script", help="workload script to run")
    pysample.add_argument("args", nargs="*",
                          help="arguments passed to the workload")
    _common(pysample)
    pysample.add_argument("--interval-us", type=int,
                          default=DEFAULT_INTERVAL_US,
                          help=f"sampling interval in microseconds "
                               f"(default {DEFAULT_INTERVAL_US})")
    pysample.add_argument("--keep-script", default=None, metavar="PATH",
                          help="also write the perf-script-format text")
    pysample.set_defaults(fn=cmd_pysample)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
