"""The cpd-token-incomplete audit rule and the CPD determinism perimeter."""

import textwrap
from pathlib import Path

from repro.checks.cachekeys import (audit_cache_keys,
                                    audit_token_discipline)
from repro.checks.determinism import lint_source
from repro.checks.registry import ALL_RULES, RULE_FAMILIES

REPO_ROOT = Path(__file__).resolve().parents[2]


def audit(path):
    return audit_token_discipline(path, "config.py", "cpd-token-incomplete")


def write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


class TestShippedTree:
    def test_shipped_cpd_config_is_clean(self):
        findings = [f for f in audit_cache_keys(REPO_ROOT)
                    if f.rule == "cpd-token-incomplete"]
        assert findings == []

    def test_rule_is_registered_in_the_cachekeys_family(self):
        assert "cpd-token-incomplete" in ALL_RULES
        assert "cpd-token-incomplete" in RULE_FAMILIES["cachekeys"]


class TestMutations:
    def test_fields_enumeration_is_safe_by_construction(self, tmp_path):
        path = write(tmp_path, "config.py", """
            from dataclasses import dataclass, fields

            @dataclass(frozen=True)
            class CpdThresholds:
                window: int = 32
                seed: int = 7

                def token(self):
                    return ("cpd",) + tuple(
                        (f.name, getattr(self, f.name))
                        for f in fields(self))
        """)
        assert audit(path) == []

    def test_missing_token_method_is_flagged(self, tmp_path):
        path = write(tmp_path, "config.py", """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class CpdThresholds:
                window: int = 32
                seed: int = 7
        """)
        findings = audit(path)
        assert len(findings) == 1
        assert findings[0].rule == "cpd-token-incomplete"
        assert "defines no token()" in findings[0].message

    def test_hand_listed_token_omitting_a_field_is_flagged(self, tmp_path):
        path = write(tmp_path, "config.py", """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class CpdThresholds:
                window: int = 32
                seed: int = 7

                def token(self):
                    return ("cpd", self.window)
        """)
        findings = audit(path)
        assert len(findings) == 1
        assert "omits field 'seed'" in findings[0].message

    def test_complete_hand_listed_token_is_clean(self, tmp_path):
        path = write(tmp_path, "config.py", """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class CpdThresholds:
                window: int = 32
                seed: int = 7

                def token(self):
                    return ("cpd", self.window, self.seed)
        """)
        assert audit(path) == []

    def test_non_thresholds_classes_are_ignored(self, tmp_path):
        path = write(tmp_path, "config.py", """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Observation:
                index: int = 0
        """)
        assert audit(path) == []

    def test_unparseable_module_yields_nothing(self, tmp_path):
        path = write(tmp_path, "config.py", "def broken(:")
        assert audit(path) == []


class TestDeterminismPerimeter:
    def test_cpd_sources_pass_the_determinism_lint(self):
        # Satellite (a): the determinism lint's DEFAULT_PATHS cover
        # src/repro/cpd, and its sources carry no unseeded RNG,
        # wall-clock reads or hash-order iteration.
        cpd_dir = REPO_ROOT / "src" / "repro" / "cpd"
        sources = sorted(cpd_dir.glob("*.py"))
        assert sources, "repro.cpd sources are missing"
        for path in sources:
            rel = path.relative_to(REPO_ROOT).as_posix()
            assert lint_source(rel, path.read_text(encoding="utf-8")) == []
