"""The trace-token-incomplete audit rule and the runtime cache guard.

Two layers of the same defense: the static rule proves the shipped
``TraceIdentity.token()`` cannot silently omit a replay knob, and the
runtime tests prove the token actually discriminates the experiment
cache — editing a fixture's content or varying a replay parameter must
miss, while an identical replay must hit.
"""

import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.checks.cachekeys import (audit_cache_keys,
                                    audit_token_discipline)
from repro.checks.registry import ALL_RULES, RULE_FAMILIES
from repro.experiments.base import trace_gpd_run, trace_stream_for
from repro.experiments.cache import GLOBAL_CACHE, GpdKey, MonitorKey, StreamKey
from repro.experiments.config import BASE_PERIOD, DEFAULT_CONFIG
from repro.ingest import load_profile

REPO_ROOT = Path(__file__).resolve().parents[2]
CORPUS = REPO_ROOT / "tests" / "fixtures" / "traces" / "realtrace"


def audit(path):
    return audit_token_discipline(path, "identity.py", "trace-token-incomplete")


def write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


class TestShippedTree:
    def test_shipped_identity_module_is_clean(self):
        findings = [f for f in audit_cache_keys(REPO_ROOT)
                    if f.rule == "trace-token-incomplete"]
        assert findings == []

    def test_rule_is_registered_in_the_cachekeys_family(self):
        assert "trace-token-incomplete" in ALL_RULES
        assert "trace-token-incomplete" in RULE_FAMILIES["cachekeys"]

    def test_every_key_class_carries_the_trace_field(self):
        # The derived-key audit enforces StreamKey ⊆ GpdKey/MonitorKey,
        # so asserting StreamKey here transitively pins all three; the
        # direct checks make a regression message name the class.
        for cls in (StreamKey, GpdKey, MonitorKey):
            assert "trace" in cls.__dataclass_fields__, cls.__name__


class TestMutations:
    def test_fields_enumeration_is_safe_by_construction(self, tmp_path):
        path = write(tmp_path, "identity.py", """
            from dataclasses import dataclass, fields

            @dataclass(frozen=True)
            class TraceIdentity:
                name: str = ""
                checksum: str = ""

                def token(self):
                    return ("trace",) + tuple(
                        (f.name, getattr(self, f.name))
                        for f in fields(self))
        """)
        assert audit(path) == []

    def test_missing_token_method_is_flagged(self, tmp_path):
        path = write(tmp_path, "identity.py", """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class TraceIdentity:
                name: str = ""
                checksum: str = ""
        """)
        findings = audit(path)
        assert len(findings) == 1
        assert findings[0].rule == "trace-token-incomplete"
        assert "defines no token()" in findings[0].message

    def test_hand_listed_token_omitting_a_knob_is_flagged(self, tmp_path):
        # The exact bug the rule exists for: a new replay knob
        # (cycles_per_ns) added to the dataclass but not the token.
        path = write(tmp_path, "identity.py", """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class TraceIdentity:
                name: str = ""
                checksum: str = ""
                cycles_per_ns: float = 1.0

                def token(self):
                    return ("trace", self.name, self.checksum)
        """)
        findings = audit(path)
        assert len(findings) == 1
        assert "omits field 'cycles_per_ns'" in findings[0].message

    def test_complete_hand_listed_token_is_clean(self, tmp_path):
        path = write(tmp_path, "identity.py", """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class TraceIdentity:
                name: str = ""
                checksum: str = ""

                def token(self):
                    return ("trace", self.name, self.checksum)
        """)
        assert audit(path) == []

    def test_non_identity_classes_are_ignored(self, tmp_path):
        path = write(tmp_path, "identity.py", """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Observation:
                index: int = 0
        """)
        assert audit(path) == []

    def test_unparseable_module_yields_nothing(self, tmp_path):
        path = write(tmp_path, "identity.py", "def broken(:")
        assert audit(path) == []


@pytest.fixture()
def profile():
    return load_profile(CORPUS / "pyjsonregex.json")


@pytest.fixture(autouse=True)
def fresh_cache():
    GLOBAL_CACHE.clear()
    yield
    GLOBAL_CACHE.clear()


class TestRuntimeDiscrimination:
    """The trace token actually reaches and splits the cache keys."""

    def test_identical_replay_hits_the_cache(self, profile):
        first = trace_stream_for(profile, BASE_PERIOD, DEFAULT_CONFIG)
        second = trace_stream_for(profile, BASE_PERIOD, DEFAULT_CONFIG)
        assert second is first  # memoized object, not a re-replay

    def test_stale_fingerprint_cache_hit_is_caught(self, profile):
        # Mutation: same name, same replay knobs, *different recorded
        # content* — the scenario where a fixture file is re-recorded.
        # Before the trace field existed, the (benchmark, scale,
        # period, seed) key collided and served the stale stream.
        stale = trace_stream_for(profile, BASE_PERIOD, DEFAULT_CONFIG)
        edited = replace(profile,
                         times_ns=np.ascontiguousarray(
                             profile.times_ns + np.int64(500)))
        assert edited.checksum != profile.checksum
        misses_before = GLOBAL_CACHE.misses
        fresh = trace_stream_for(edited, BASE_PERIOD, DEFAULT_CONFIG)
        assert fresh is not stale  # new key -> fresh replay, no stale hit
        assert GLOBAL_CACHE.misses == misses_before + 1

    def test_replay_knobs_split_the_stream_key(self, profile):
        base = trace_stream_for(profile, BASE_PERIOD, DEFAULT_CONFIG)
        scaled = trace_stream_for(profile, BASE_PERIOD, DEFAULT_CONFIG,
                                  cycles_per_ns=2.0)
        repeated = trace_stream_for(profile, BASE_PERIOD, DEFAULT_CONFIG,
                                    repeat=2)
        assert scaled is not base and repeated is not base
        assert len(repeated.pcs) > len(base.pcs)

    def test_gpd_key_carries_the_trace_token(self, profile):
        run = trace_gpd_run(profile, BASE_PERIOD, DEFAULT_CONFIG)
        again = trace_gpd_run(profile, BASE_PERIOD, DEFAULT_CONFIG)
        assert again is run
        edited = replace(profile,
                         times_ns=np.ascontiguousarray(
                             profile.times_ns + np.int64(500)))
        assert trace_gpd_run(edited, BASE_PERIOD, DEFAULT_CONFIG) is not run
