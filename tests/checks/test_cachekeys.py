"""Unit tests for the cache-key audit pass (synthetic modules)."""

import textwrap

from repro.checks.cachekeys import (RESULT_INERT_PARAMS, audit_base_helpers,
                                    audit_cache_keys, audit_fault_tokens,
                                    audit_key_classes,
                                    audit_snapshot_fields)

REPO_ROOT = __import__("pathlib").Path(__file__).resolve().parents[2]


def write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


class TestBaseHelperAudit:
    KEYS = {"StreamKey", "GpdKey", "MonitorKey"}

    def test_fully_keyed_helper_is_clean(self, tmp_path):
        path = write(tmp_path, "base.py", """
            def stream_for(model, period, config, plan=None):
                faults = _fault_token(plan)
                key = StreamKey(benchmark=model.name, scale=config.scale,
                                period=period, seed=config.seed,
                                faults=faults)
                return CACHE.stream(key, lambda: simulate(config.seed))
        """)
        assert audit_base_helpers(path, "base.py", self.KEYS) == []

    def test_unkeyed_parameter_is_caught(self, tmp_path):
        path = write(tmp_path, "base.py", """
            def stream_for(model, period, config, jitter=0.0):
                key = StreamKey(benchmark=model.name, scale=config.scale,
                                period=period, seed=config.seed)
                return CACHE.stream(key, lambda: simulate(jitter))
        """)
        findings = audit_base_helpers(path, "base.py", self.KEYS)
        assert [f.rule for f in findings] == ["cache-key-field"]
        assert "jitter" in findings[0].message

    def test_unkeyed_config_read_is_caught(self, tmp_path):
        path = write(tmp_path, "base.py", """
            def gpd_run(model, period, config):
                key = GpdKey(benchmark=model.name, period=period,
                             seed=config.seed)
                return CACHE.detector(
                    key, lambda: run(model, config.buffer_size))
        """)
        findings = audit_base_helpers(path, "base.py", self.KEYS)
        assert any("buffer_size" in f.message for f in findings)

    def test_parameter_flowing_through_local_is_keyed(self, tmp_path):
        path = write(tmp_path, "base.py", """
            def stream_for(model, period, config, plan=None):
                token = derive(plan)
                wrapped = normalize(token)
                key = StreamKey(benchmark=model.name, scale=config.scale,
                                period=period, seed=config.seed,
                                faults=wrapped)
                return CACHE.stream(key, lambda: simulate(plan))
        """)
        assert audit_base_helpers(path, "base.py", self.KEYS) == []

    def test_helper_without_key_is_ignored(self, tmp_path):
        path = write(tmp_path, "base.py", """
            def benchmark_for(name, config):
                return get_benchmark(name, scale=config.scale)
        """)
        assert audit_base_helpers(path, "base.py", self.KEYS) == []

    def test_result_inert_param_is_exempt(self, tmp_path):
        # ``telemetry`` is observability plumbing: it carries events out
        # of the run and provably cannot change the artifact, so the
        # allowlist keeps it out of the key without a finding.
        path = write(tmp_path, "base.py", """
            def stream_for(model, period, config, telemetry=None):
                key = StreamKey(benchmark=model.name, scale=config.scale,
                                period=period, seed=config.seed)
                return CACHE.stream(
                    key, lambda: simulate(config.seed, telemetry))
        """)
        assert audit_base_helpers(path, "base.py", self.KEYS) == []

    def test_allowlist_does_not_leak_to_other_params(self, tmp_path):
        # The exemption is by exact name: an unkeyed parameter sitting
        # next to ``telemetry`` is still flagged.
        path = write(tmp_path, "base.py", """
            def stream_for(model, period, config, telemetry=None,
                           jitter=0.0):
                key = StreamKey(benchmark=model.name, scale=config.scale,
                                period=period, seed=config.seed)
                return CACHE.stream(
                    key, lambda: simulate(jitter, telemetry))
        """)
        findings = audit_base_helpers(path, "base.py", self.KEYS)
        assert [f.rule for f in findings] == ["cache-key-field"]
        assert "jitter" in findings[0].message
        assert all("telemetry" not in f.message for f in findings)


class TestKeyClassAudit:
    def test_key_without_faults_is_caught(self, tmp_path):
        path = write(tmp_path, "cache.py", """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class StreamKey:
                benchmark: str
                seed: int
        """)
        findings, names = audit_key_classes(path, "cache.py")
        assert [f.rule for f in findings] == ["cache-key-no-faults"]
        assert names == {"StreamKey"}

    def test_derived_key_coarser_than_stream_is_caught(self, tmp_path):
        path = write(tmp_path, "cache.py", """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class StreamKey:
                benchmark: str
                seed: int
                faults: tuple = ()

            @dataclass(frozen=True)
            class GpdKey:
                benchmark: str
                buffer_size: int
                faults: tuple = ()
        """)
        findings, _ = audit_key_classes(path, "cache.py")
        assert any("seed" in f.message for f in findings)


class TestFaultTokenAudit:
    def test_inherited_token_is_clean(self, tmp_path):
        path = write(tmp_path, "model.py", """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class SampleDrop(FaultSpec):
                kind = "drop"
                rate: float = 0.0
                burst_mean: float = 1.0
        """)
        assert audit_fault_tokens(path, "model.py") == []

    def test_token_override_omitting_a_field_is_caught(self, tmp_path):
        path = write(tmp_path, "model.py", """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class PcSkid(FaultSpec):
                kind = "skid"
                distribution: str = "exponential"
                scale: float = 0.0

                def token(self):
                    return (self.kind, self.scale)
        """)
        findings = audit_fault_tokens(path, "model.py")
        assert [f.rule for f in findings] == ["fault-token-incomplete"]
        assert "distribution" in findings[0].message

    def test_complete_token_override_is_clean(self, tmp_path):
        path = write(tmp_path, "model.py", """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class PcSkid(FaultSpec):
                kind = "skid"
                distribution: str = "exponential"
                scale: float = 0.0

                def token(self):
                    return (self.kind, self.distribution, self.scale)
        """)
        assert audit_fault_tokens(path, "model.py") == []

    def test_kind_collision_is_caught(self, tmp_path):
        path = write(tmp_path, "model.py", """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class SampleDrop(FaultSpec):
                kind = "drop"
                rate: float = 0.0

            @dataclass(frozen=True)
            class BurstyDrop(FaultSpec):
                kind = "drop"
                rate: float = 0.0
        """)
        findings = audit_fault_tokens(path, "model.py")
        assert [f.rule for f in findings] == ["fault-kind-collision"]


class TestServiceFaultTokenAudit:
    """The token rules apply to the service-fault hierarchy too."""

    def test_service_spec_with_full_token_is_clean(self, tmp_path):
        path = write(tmp_path, "service.py", """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class WorkerCrash(ServiceFaultSpec):
                kind = "worker-crash"
                shard: int = 0
                at_seq: int = 0
        """)
        assert audit_fault_tokens(path, "service.py") == []

    def test_service_token_override_omitting_a_field_is_caught(
            self, tmp_path):
        path = write(tmp_path, "service.py", """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class TornSnapshot(ServiceFaultSpec):
                kind = "torn-snapshot"
                shard: int = 0
                at_seq: int = 0
                truncate: float = 0.5

                def token(self):
                    return (self.kind, self.shard, self.at_seq)
        """)
        findings = audit_fault_tokens(path, "service.py")
        assert [f.rule for f in findings] == ["fault-token-incomplete"]
        assert "truncate" in findings[0].message

    def test_service_kind_collision_is_caught(self, tmp_path):
        path = write(tmp_path, "service.py", """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class WorkerCrash(ServiceFaultSpec):
                kind = "worker-crash"
                shard: int = 0

            @dataclass(frozen=True)
            class WorkerKill(ServiceFaultSpec):
                kind = "worker-crash"
                shard: int = 0
        """)
        findings = audit_fault_tokens(path, "service.py")
        assert [f.rule for f in findings] == ["fault-kind-collision"]


class TestSnapshotFieldAudit:
    GOOD = """
        from dataclasses import dataclass

        SNAPSHOT_FIELDS = ("shard_id", "session")

        @dataclass
        class ShardSnapshot:
            shard_id: int
            session: object
    """

    def test_matching_schema_is_clean(self, tmp_path):
        path = write(tmp_path, "snapshot.py", self.GOOD)
        assert audit_snapshot_fields(path, "snapshot.py") == []

    def test_extra_dataclass_field_is_caught(self, tmp_path):
        path = write(tmp_path, "snapshot.py", """
            from dataclasses import dataclass

            SNAPSHOT_FIELDS = ("shard_id", "session")

            @dataclass
            class ShardSnapshot:
                shard_id: int
                session: object
                stash: dict
        """)
        findings = audit_snapshot_fields(path, "snapshot.py")
        assert [f.rule for f in findings] == ["snapshot-field-drift"]
        assert "stash" in findings[0].message

    def test_reordered_fields_are_caught(self, tmp_path):
        # Order is part of the schema: the payload dict is built in
        # SNAPSHOT_FIELDS order and checked positionally on decode.
        path = write(tmp_path, "snapshot.py", """
            from dataclasses import dataclass

            SNAPSHOT_FIELDS = ("session", "shard_id")

            @dataclass
            class ShardSnapshot:
                shard_id: int
                session: object
        """)
        findings = audit_snapshot_fields(path, "snapshot.py")
        assert [f.rule for f in findings] == ["snapshot-field-drift"]

    def test_non_literal_schema_tuple_is_caught(self, tmp_path):
        path = write(tmp_path, "snapshot.py", """
            from dataclasses import dataclass

            SNAPSHOT_FIELDS = tuple(sorted(["shard_id", "session"]))

            @dataclass
            class ShardSnapshot:
                shard_id: int
                session: object
        """)
        findings = audit_snapshot_fields(path, "snapshot.py")
        assert [f.rule for f in findings] == ["snapshot-field-drift"]
        assert "literal" in findings[0].message

    def test_missing_dataclass_is_caught(self, tmp_path):
        path = write(tmp_path, "snapshot.py", """
            SNAPSHOT_FIELDS = ("shard_id", "session")
        """)
        findings = audit_snapshot_fields(path, "snapshot.py")
        assert [f.rule for f in findings] == ["snapshot-field-drift"]
        assert "ShardSnapshot" in findings[0].message


def test_allowlist_stays_minimal():
    """Growing the exemption list must be a deliberate, reviewed act.

    ``telemetry`` is write-only observability plumbing.
    """
    assert RESULT_INERT_PARAMS == {"telemetry"}


def test_repo_cache_keys_audit_clean():
    """The in-tree cache/base/fault modules pass the audit."""
    assert audit_cache_keys(REPO_ROOT) == []
