"""End-to-end tests for the repro-check CLI, baseline and repo cleanliness."""

import json
from pathlib import Path

from repro.checks.baseline import Baseline
from repro.checks.cli import main
from repro.checks.findings import Finding, Severity
from repro.checks.registry import run_checks

REPO_ROOT = Path(__file__).resolve().parents[2]

DIRTY = "import time\nSTAMP = time.time()\n"
CLEAN = "import numpy as np\nRNG = np.random.default_rng(7)\n"


def make_project(tmp_path, source=DIRTY):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(source, encoding="utf-8")
    return tmp_path


class TestCli:
    def test_clean_project_exits_zero(self, tmp_path, capsys):
        root = make_project(tmp_path, CLEAN)
        code = main(["--root", str(root), "--no-model-checker", "src"])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_finding_exits_one(self, tmp_path, capsys):
        root = make_project(tmp_path)
        code = main(["--root", str(root), "--no-model-checker", "src"])
        assert code == 1
        out = capsys.readouterr().out
        assert "wall-clock" in out and "src/mod.py:2" in out

    def test_json_format(self, tmp_path, capsys):
        root = make_project(tmp_path)
        code = main(["--root", str(root), "--no-model-checker",
                     "--format", "json", "src"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["new"] == 1
        record = payload["new"][0]
        assert record["rule"] == "wall-clock"
        assert record["path"] == "src/mod.py"
        assert record["fingerprint"]

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        root = make_project(tmp_path)
        assert main(["--root", str(root), "--no-model-checker",
                     "--write-baseline", "src"]) == 0
        assert (root / "repro-check-baseline.json").exists()
        code = main(["--root", str(root), "--no-model-checker", "src"])
        assert code == 0
        out = capsys.readouterr().out
        assert "baselined" in out

    def test_stale_baseline_entry_reported_but_passes(self, tmp_path,
                                                      capsys):
        root = make_project(tmp_path, CLEAN)
        Baseline(entries={"deadbeefdeadbeef": "gone"}).write(
            root / "repro-check-baseline.json")
        code = main(["--root", str(root), "--no-model-checker", "src"])
        assert code == 0
        assert "stale" in capsys.readouterr().out

    def test_unknown_rule_is_config_error(self, tmp_path):
        root = make_project(tmp_path, CLEAN)
        assert main(["--root", str(root), "--rules", "bogus"]) == 2

    def test_rule_filter(self, tmp_path):
        root = make_project(tmp_path)
        assert main(["--root", str(root), "--no-model-checker",
                     "--rules", "unseeded-rng", "src"]) == 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "unseeded-rng" in out and "fsm-divergence" in out
        # Rules are grouped under their family headers.
        for family in ("determinism", "protocol", "concurrency",
                       "cachekeys"):
            assert f"[{family}]" in out
        assert "protocol-invariant" in out
        assert "snapshot-field-drift" in out

    def test_family_name_selects_all_its_rules(self, tmp_path):
        root = make_project(tmp_path)  # DIRTY carries wall-clock
        assert main(["--root", str(root), "--no-model-checker",
                     "--rules", "determinism", "src"]) == 1
        # ...and a family with no findings in this tree passes.
        assert main(["--root", str(root), "--no-model-checker",
                     "--rules", "cachekeys", "src"]) == 0

    def test_family_and_rule_names_mix(self, tmp_path):
        root = make_project(tmp_path)
        assert main(["--root", str(root), "--no-model-checker",
                     "--rules", "cachekeys,wall-clock", "src"]) == 1

    def test_bad_root_is_config_error(self, tmp_path):
        assert main(["--root", str(tmp_path / "absent")]) == 2


class TestFilteredSuppressionAudit:
    """Rule-filtered runs must not misjudge dormant suppressions."""

    SOURCE = ("import time\n"
              "T = time.time()  # repro: allow[wall-clock] fixture\n")

    def test_unrestricted_run_reports_stale_allows(self, tmp_path):
        root = make_project(
            tmp_path, "import numpy as np\n"
                      "X = 1  # repro: allow[wall-clock] nothing here\n")
        findings = run_checks(root, paths=("src",), model_checker=False)
        assert [f.rule for f in findings] == ["unused-suppression"]

    def test_filtered_run_skips_dormant_allows(self, tmp_path):
        # The allow names wall-clock, but only unseeded-rng ran: the
        # suppression never had a chance to fire, so it is dormant —
        # not stale — and must not be reported.
        root = make_project(
            tmp_path, "X = 1  # repro: allow[wall-clock] dormant\n")
        findings = run_checks(root, paths=("src",),
                              rules={"unseeded-rng"},
                              model_checker=False)
        assert findings == []

    def test_filtered_run_still_audits_active_rules(self, tmp_path):
        root = make_project(
            tmp_path, "X = 1  # repro: allow[wall-clock] stale\n")
        findings = run_checks(root, paths=("src",),
                              rules={"wall-clock", "unused-suppression"},
                              model_checker=False)
        assert [f.rule for f in findings] == ["unused-suppression"]

    def test_wildcard_allows_only_judged_unrestricted(self, tmp_path):
        root = make_project(
            tmp_path, "X = 1  # repro: allow[*] blanket\n")
        assert run_checks(root, paths=("src",),
                          rules={"wall-clock", "unused-suppression"},
                          model_checker=False) == []
        unrestricted = run_checks(root, paths=("src",),
                                  model_checker=False)
        assert [f.rule for f in unrestricted] == ["unused-suppression"]

    def test_serve_and_compiled_suppressions_are_live(self):
        # Every allow in the serving, telemetry and batch layers must
        # still suppress a real finding (the audit covers those paths).
        findings = run_checks(REPO_ROOT)
        assert not [f for f in findings
                    if f.rule == "unused-suppression"
                    and ("serve/" in f.path or "telemetry/" in f.path
                         or "batch/" in f.path)]


class TestBaseline:
    def finding(self, message="m"):
        return Finding(rule="wall-clock", severity=Severity.ERROR,
                       path="a.py", line=3, message=message)

    def test_roundtrip(self, tmp_path):
        baseline = Baseline.from_findings([self.finding()])
        path = tmp_path / "baseline.json"
        baseline.write(path)
        assert Baseline.load(path).entries == baseline.entries

    def test_split(self):
        known = self.finding("known")
        fresh = self.finding("fresh")
        baseline = Baseline.from_findings([known])
        new, accepted, stale = baseline.split([known, fresh])
        assert new == [fresh]
        assert accepted == [known]
        assert stale == []

    def test_fingerprint_ignores_line(self):
        a = self.finding()
        b = Finding(rule="wall-clock", severity=Severity.ERROR,
                    path="a.py", line=99, message="m")
        assert a.fingerprint() == b.fingerprint()

    def test_missing_file_is_empty(self, tmp_path):
        assert Baseline.load(tmp_path / "nope.json").entries == {}


class TestRepoIsClean:
    def test_repro_check_runs_clean_on_the_repo(self):
        """The acceptance gate: no findings, no baseline needed."""
        findings = run_checks(REPO_ROOT)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_repo_has_no_baseline_file(self):
        # The repo's contract is a clean run with an *empty* baseline;
        # if someone adds one, this test makes the grandfathering visible.
        assert not (REPO_ROOT / "repro-check-baseline.json").exists()
