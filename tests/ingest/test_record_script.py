"""End-to-end capture tool: scripts/record_trace.py as a subprocess.

The ``pysample`` mode runs a real workload under the in-process frame
sampler and must produce a loadable, checksummed profile; ``convert``
must reproduce a profile from committed perf-script text; ``record``
must gate cleanly when ``perf`` is absent.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ingest import load_profile

REPO_ROOT = Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "scripts" / "record_trace.py"
REAL_TEXT = REPO_ROOT / "tests" / "fixtures" / "traces" / "perfscript_py.txt"


def run_tool(*args, timeout=120):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True, text=True, timeout=timeout,
        cwd=str(REPO_ROOT))


@pytest.fixture(scope="module")
def tiny_workload(tmp_path_factory):
    # The sampler records the main thread's leaf frame, so the workload
    # does its work in its own frame: every sample taken while it runs
    # lands in busy.py.  (A loop around json.dumps spent about 90% of
    # its leaf time in json's encoder.py and gave busy.py as few as 1
    # sample in 47.)
    path = tmp_path_factory.mktemp("wl") / "busy.py"
    path.write_text(
        "total = 0\n"
        "for i in range(200_000):\n"
        "    total += i * i % 7\n"
        "print(total)\n", encoding="utf-8")
    return path


class TestPysample:
    def test_records_a_loadable_checksummed_profile(self, tiny_workload,
                                                    tmp_path):
        out = tmp_path / "busy.json"
        kept = tmp_path / "busy.txt"
        result = run_tool("pysample", str(tiny_workload), "--name", "busy",
                          "--out", str(out), "--interval-us", "200",
                          "--keep-script", str(kept))
        assert result.returncode == 0, result.stderr
        profile = load_profile(out)  # checksum verified on load
        assert profile.n_samples > 0
        assert profile.name == "busy"
        assert profile.provenance.tool.startswith("pysampler")
        assert profile.provenance.period_ns == 200_000
        assert kept.exists()

    def test_two_runs_differ_in_time_but_share_the_pipeline(self,
                                                            tiny_workload,
                                                            tmp_path):
        # Load bases are random per run (deliberately ASLR-like) and
        # timing decides which frames get caught; both recordings must
        # still convert into valid profiles that saw the workload file.
        outs = []
        for i in range(2):
            out = tmp_path / f"run{i}.json"
            result = run_tool("pysample", str(tiny_workload), "--name",
                              f"run{i}", "--out", str(out),
                              "--interval-us", "500")
            assert result.returncode == 0, result.stderr
            outs.append(load_profile(out))
        for profile in outs:
            assert any(dso.endswith("busy.py") for dso in profile.dsos)
            assert int(profile.offsets.min()) >= 0

    def test_samples_arrive_at_the_requested_interval(self, tiny_workload,
                                                      tmp_path):
        # A woken sampler must not wait out the GIL switch interval (5 ms
        # by default).  Over 90 runs at 500 us, on two workloads, idle
        # and with both CPUs busy, this recorder's median gap read
        # 0.99-1.04 times the interval.  A sampler that waits for the
        # switch read 1.24-16 times it (about 5.9 ms when idle; other
        # load can hand it the GIL sooner).
        out = tmp_path / "paced.json"
        result = run_tool("pysample", str(tiny_workload), "--name", "paced",
                          "--out", str(out), "--interval-us", "500")
        assert result.returncode == 0, result.stderr
        profile = load_profile(out)
        gap = float(np.median(np.diff(profile.times_ns)))
        period = profile.provenance.period_ns
        assert period / 1.2 <= gap <= 1.2 * period, \
            f"median gap {gap / 1e3:.0f} us at a {period / 1e3:.0f} us period"

    def test_missing_workload_script_exits_nonzero(self, tmp_path):
        result = run_tool("pysample", str(tmp_path / "absent.py"),
                          "--name", "x", "--out", str(tmp_path / "x.json"))
        assert result.returncode == 2
        assert "not found" in result.stderr


class TestConvert:
    def test_converts_committed_perf_script_text(self, tmp_path):
        out = tmp_path / "converted.json"
        result = run_tool("convert", str(REAL_TEXT), "--name", "conv",
                          "--out", str(out), "--comm", "python",
                          "--command", "python workload.py",
                          "--tool", "pysampler", "--period-ns", "1000000")
        assert result.returncode == 0, result.stderr
        profile = load_profile(out)
        assert profile.provenance.command == "python workload.py"
        assert profile.provenance.parse["parsed"] == profile.n_samples

    def test_text_with_no_surviving_events_exits_one(self, tmp_path):
        source = tmp_path / "junk.txt"
        source.write_text("nothing to see\n", encoding="utf-8")
        result = run_tool("convert", str(source), "--name", "junk",
                          "--out", str(tmp_path / "junk.json"))
        assert result.returncode == 1
        assert "no events survived" in result.stderr


class TestRecordGate:
    def test_record_without_perf_gates_with_guidance(self, tmp_path,
                                                     monkeypatch):
        # Hide any real perf: an empty PATH makes shutil.which fail.  The
        # bytecode switch passes through, so a suite run that asked for
        # no caches leaves none in src/.
        env = {"PATH": str(tmp_path)}
        if "PYTHONDONTWRITEBYTECODE" in os.environ:
            env["PYTHONDONTWRITEBYTECODE"] = \
                os.environ["PYTHONDONTWRITEBYTECODE"]
        result = subprocess.run(
            [sys.executable, str(SCRIPT), "record", "--name", "x",
             "--out", str(tmp_path / "x.json"), "true"],
            capture_output=True, text=True, timeout=60,
            cwd=str(REPO_ROOT), env=env)
        assert result.returncode == 2
        assert "perf not found" in result.stderr


class TestFixtureProvenance:
    """Committed fixtures carry complete, honest manifests."""

    def test_every_fixture_manifest_is_complete(self):
        corpus = REPO_ROOT / "tests" / "fixtures" / "traces" / "realtrace"
        for path in sorted(corpus.glob("*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            provenance = payload["provenance"]
            assert provenance["command"], path.name
            assert provenance["tool"].startswith("pysampler"), path.name
            assert provenance["event"], path.name
            assert provenance["period_ns"] > 0, path.name
            assert provenance["parse"]["parsed"] > 0, path.name
            assert payload["checksum"] == load_profile(path).checksum
