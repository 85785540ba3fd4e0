"""`repro-bench hunt`: regression hunting over BENCH_*.json history.

Includes the issue's acceptance scenario: a synthetic history with one
injected step change is flagged at exactly that snapshot — and a
no-change history produces no findings at all.
"""

import json

import pytest

from repro.cpd.hunt import (benchmark_series, hunt_report, load_snapshots,
                            machine_fingerprint, main, render_text)

#: Deterministic "measurement noise" (relative), far below the step.
JITTER = (1.000, 0.998, 1.003, 0.999, 1.002, 0.997,
          1.001, 1.004, 0.996, 1.000, 1.002, 0.998)


def snapshot(stamp, medians, machine="ci-runner", cpus=8):
    """A minimal pytest-benchmark trajectory snapshot payload."""
    return {
        "datetime": stamp,
        "cpu_count": cpus,
        "git_rev": f"rev-{stamp}",
        "machine_info": {"node": machine, "machine": "x86_64",
                         "processor": "x86_64", "cpu": f"{machine}-cpu"},
        "benchmarks": {name: {"median": value}
                       for name, value in medians.items()},
    }


def history(step_at=None, step_factor=1.5, n=12, base=2.0e-3,
            machine="ci-runner"):
    """n snapshots of one benchmark; optional step injected at step_at."""
    out = []
    for i in range(n):
        value = base * JITTER[i % len(JITTER)]
        if step_at is not None and i >= step_at:
            value *= step_factor
        out.append((f"2026-01-{i + 1:02d}",
                    snapshot(f"2026-01-{i + 1:02d}",
                             {"test_bench": value}, machine=machine)))
    return out


class TestAcceptance:
    def test_injected_step_is_flagged_at_exactly_that_snapshot(self):
        report = hunt_report(history(step_at=6))
        assert report["series_tested"] == 1
        assert len(report["findings"]) == 1
        finding = report["findings"][0]
        assert finding["benchmark"] == "test_bench"
        assert finding["direction"] == "regression"
        assert finding["index"] == 6
        assert finding["at"] == "2026-01-07"
        assert finding["delta_pct"] == pytest.approx(50.0, abs=2.0)
        assert finding["confidence"] > 0.95

    def test_no_change_history_is_quiet(self):
        report = hunt_report(history(step_at=None))
        assert report["series_tested"] == 1
        assert report["findings"] == []

    def test_improvement_direction(self):
        report = hunt_report(history(step_at=6, step_factor=0.5))
        assert [f["direction"] for f in report["findings"]] == ["improvement"]


class TestMachineFingerprint:
    def test_fingerprint_combines_hardware_identity(self):
        fp = machine_fingerprint(snapshot("s", {}, machine="host-a", cpus=4))
        assert "host-a" in fp
        assert "cpus=4" in fp

    def test_missing_machine_info_collapses_to_unknown(self):
        assert machine_fingerprint({}) == "unknown"

    def test_series_segment_by_machine(self):
        # The same benchmark value-steps only across the machine change;
        # per-machine series are flat, so nothing may be flagged.
        snaps = history(step_at=None, n=8, machine="host-a") \
            + [(label, payload) for label, payload in
               ((f"2026-02-{i + 1:02d}",
                 snapshot(f"2026-02-{i + 1:02d}",
                          {"test_bench": 4.0e-3 * JITTER[i]},
                          machine="host-b")) for i in range(8))]
        series = benchmark_series(snaps)
        assert len(series) == 2
        report = hunt_report(snaps)
        assert report["findings"] == []

    def test_step_on_one_machine_is_attributed_to_it(self):
        snaps = history(step_at=4, n=12, machine="host-a") \
            + history(step_at=None, n=12, machine="host-b")
        report = hunt_report(snaps)
        assert len(report["findings"]) == 1
        assert "host-a" in report["findings"][0]["machine"]


class TestLoading:
    def test_snapshots_order_by_datetime_not_filename(self, tmp_path):
        newer = tmp_path / "BENCH_a.json"
        older = tmp_path / "BENCH_z.json"
        newer.write_text(json.dumps(snapshot("2026-05-02", {"b": 2.0})))
        older.write_text(json.dumps(snapshot("2026-05-01", {"b": 1.0})))
        loaded = load_snapshots([newer, older])
        assert [name for name, _ in loaded] \
            == ["BENCH_z.json", "BENCH_a.json"]

    def test_unreadable_files_are_skipped_with_a_warning(self, tmp_path,
                                                         capsys):
        good = tmp_path / "BENCH_good.json"
        good.write_text(json.dumps(snapshot("2026-05-01", {"b": 1.0})))
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{not json")
        loaded = load_snapshots([bad, good, tmp_path / "BENCH_missing.json"])
        assert [name for name, _ in loaded] == ["BENCH_good.json"]
        err = capsys.readouterr().err
        assert "BENCH_bad.json" in err and "BENCH_missing.json" in err

    def test_benchmarks_without_medians_are_ignored(self):
        payload = snapshot("2026-05-01", {"kept": 1.0})
        payload["benchmarks"]["broken"] = {"mean": 2.0}
        series = benchmark_series([("s", payload)])
        assert set(series) == {("kept", machine_fingerprint(payload))}


class TestCli:
    def write_history(self, tmp_path, step_at):
        paths = []
        for label, payload in history(step_at=step_at):
            path = tmp_path / f"BENCH_{label}.json"
            path.write_text(json.dumps(payload))
            paths.append(str(path))
        return paths

    def test_text_report_on_a_regression(self, tmp_path, capsys):
        paths = self.write_history(tmp_path, step_at=6)
        assert main(["hunt", *paths]) == 0
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "test_bench" in out

    def test_strict_exits_nonzero_on_regression_only(self, tmp_path, capsys):
        paths = self.write_history(tmp_path, step_at=6)
        assert main(["hunt", "--strict", *paths]) == 1
        capsys.readouterr()
        clean_dir = tmp_path / "clean"
        clean_dir.mkdir()
        clean_paths = []
        for label, payload in history(step_at=None):
            path = clean_dir / f"BENCH_{label}.json"
            path.write_text(json.dumps(payload))
            clean_paths.append(str(path))
        assert main(["hunt", "--strict", *clean_paths]) == 0

    def test_json_format_round_trips(self, tmp_path, capsys):
        paths = self.write_history(tmp_path, step_at=6)
        assert main(["hunt", "--format", "json", *paths]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["series_tested"] == 1
        assert len(report["findings"]) == 1

    def test_empty_history_reports_and_exits_zero(self, capsys):
        assert main(["hunt", "--strict", "/nonexistent/BENCH_x.json"]) == 0
        out = capsys.readouterr().out
        assert "0 series tested" in out

    def test_render_text_quiet_history(self):
        text = render_text(hunt_report(history(step_at=None)))
        assert "no statistically significant changes" in text
