"""Pass registry and repo-level driver for ``repro-check``.

Five pass families run by default:

* the per-file determinism lint (:mod:`repro.checks.determinism`) over
  every ``.py`` file under the scanned paths;
* the cache-key audit (:mod:`repro.checks.cachekeys`) over the cache,
  simulation-helper and fault-model modules;
* the state-machine model checker (:mod:`repro.checks.statemachine`)
  over the declarative LPD/GPD tables and their implementations;
* the protocol model checker (:mod:`repro.checks.protocol`) over the
  fleet-serving delivery discipline, including small-scope schedule
  exploration against the real ``ShardWorker``;
* the concurrency/IPC lint (:mod:`repro.checks.concurrency`) over the
  ``serve`` and ``telemetry`` packages.

Rules are grouped into families (``repro-check --rules protocol``
enables a whole family; individual rule ids still work).  A ``--rules``
filter also *skips* passes that cannot produce any requested rule, so
``--rules cachekeys`` does not pay for schedule exploration.

Inline ``# repro: allow[rule]`` suppressions are applied to every
file-anchored finding; suppressions that never fire are reported
(``unused-suppression``) — but only when every rule a suppression names
was active in the run, so a filtered run cannot mistake a dormant
suppression for a stale one.
"""

from __future__ import annotations

from pathlib import Path

from repro.checks.baseline import Baseline
from repro.checks.cachekeys import audit_cache_keys
from repro.checks.concurrency import (CONCURRENCY_PATHS, audit_messages,
                                      lint_concurrency)
from repro.checks.determinism import lint_source
from repro.checks.findings import Finding, sort_findings
from repro.checks.protocol import run_protocol_checker
from repro.checks.statemachine import run_model_checker
from repro.checks.suppress import SuppressionIndex

__all__ = ["ALL_RULES", "RULE_FAMILIES", "DEFAULT_PATHS", "CheckReport",
           "expand_rules", "run_checks"]

#: Every rule id a default run can emit (``repro-check --list-rules``).
ALL_RULES: dict[str, str] = {
    "unseeded-rng": "module-level or OS-entropy RNG use",
    "wall-clock": "time.time/datetime.now in simulation paths",
    "unordered-iter": "iteration over a set in hash order",
    "float-equality": "exact == against a non-integral float literal",
    "parse-error": "file could not be parsed",
    "unused-suppression": "allow[...] comment that suppresses nothing",
    "cache-key-field": "simulation input missing from its cache key",
    "cache-key-no-faults": "cache key without fault-plan discrimination",
    "fault-token-incomplete": "FaultSpec.token() omitting a field",
    "fault-kind-collision": "two FaultSpecs sharing a kind tag",
    "cpd-token-incomplete": "CpdThresholds token() missing or omitting a field",
    "trace-token-incomplete": "TraceIdentity token() missing or omitting a field",
    "snapshot-field-drift": "ShardSnapshot out of sync with SNAPSHOT_FIELDS",
    "fsm-incomplete": "transition table missing a (state, input) pair",
    "fsm-nondeterministic": "duplicate rules for a (state, input) pair",
    "fsm-unreachable-state": "state unreachable from the initial state",
    "fsm-unknown-state": "rule references an undeclared state/input",
    "fsm-phase-change-label": "phase_change flag contradicts the boundary",
    "fsm-divergence": "implementation disagrees with the declarative table",
    "protocol-spec-incomplete": "ProtocolSpec is ill-formed or inexecutable",
    "protocol-surface-drift": "spec message surface out of sync with serve/messages.py",
    "protocol-anchor-missing": "spec transition no longer maps onto shipped code",
    "protocol-invariant": "a delivery-protocol safety invariant is violated",
    "protocol-impl-divergence": "ShardWorker disagrees with the protocol model",
    "fork-unsafe-global": "module-level mutable state reachable post-fork",
    "queue-no-timeout": "blocking queue put/get without a timeout",
    "message-field-unpicklable": "wire-message field that cannot cross a pipe",
    "message-schema-drift": "message dataclasses out of sync with MESSAGE_SCHEMA",
    "signal-handler-blocking": "blocking call inside a signal handler",
    "unreaped-worker": "process spawner without a join+terminate ladder",
}

#: Family name -> rule ids; ``--rules <family>`` enables all of them.
RULE_FAMILIES: dict[str, frozenset[str]] = {
    "determinism": frozenset({
        "unseeded-rng", "wall-clock", "unordered-iter", "float-equality",
        "parse-error", "unused-suppression"}),
    "cachekeys": frozenset({
        "cache-key-field", "cache-key-no-faults",
        "fault-token-incomplete", "fault-kind-collision",
        "cpd-token-incomplete", "trace-token-incomplete",
        "snapshot-field-drift"}),
    "statemachine": frozenset({
        "fsm-incomplete", "fsm-nondeterministic", "fsm-unreachable-state",
        "fsm-unknown-state", "fsm-phase-change-label", "fsm-divergence"}),
    "protocol": frozenset({
        "protocol-spec-incomplete", "protocol-surface-drift",
        "protocol-anchor-missing", "protocol-invariant",
        "protocol-impl-divergence"}),
    "concurrency": frozenset({
        "fork-unsafe-global", "queue-no-timeout",
        "message-field-unpicklable", "message-schema-drift",
        "signal-handler-blocking", "unreaped-worker"}),
}

#: Directories scanned by default, relative to the repo root.
DEFAULT_PATHS = ("src", "scripts")

#: Repo-relative path of the wire-message module.
_MESSAGES_REL = "src/repro/serve/messages.py"


def expand_rules(requested: set[str]) -> set[str]:
    """Resolve family names to rule ids; unknown names pass through
    (the CLI validates against ``ALL_RULES`` | ``RULE_FAMILIES``)."""
    expanded: set[str] = set()
    for name in requested:
        expanded |= RULE_FAMILIES.get(name, {name})
    return expanded


class CheckReport:
    """Everything one ``repro-check`` run produced."""

    def __init__(self, findings: list[Finding], baseline: Baseline) -> None:
        self.findings = findings
        self.new, self.accepted, self.stale = baseline.split(findings)

    @property
    def clean(self) -> bool:
        """Whether the run should pass (no non-baselined findings)."""
        return not self.new

    def to_json(self) -> dict:
        """The ``--format json`` payload."""
        return {
            "new": [f.to_json() for f in self.new],
            "accepted": [f.to_json() for f in self.accepted],
            "stale_baseline_entries": sorted(self.stale),
            "counts": {
                "new": len(self.new),
                "accepted": len(self.accepted),
                "stale": len(self.stale),
            },
        }


def _python_files(root: Path, paths: tuple[str, ...]) -> list[Path]:
    files: list[Path] = []
    for entry in paths:
        target = root / entry
        if target.is_file() and target.suffix == ".py":
            files.append(target)
        elif target.is_dir():
            files.extend(p for p in sorted(target.rglob("*.py"))
                         if not any(part.startswith(".")
                                    for part in p.parts))
    return files


def run_checks(root: Path, paths: tuple[str, ...] = DEFAULT_PATHS,
               rules: set[str] | None = None,
               model_checker: bool = True) -> list[Finding]:
    """Run every pass; return suppression-filtered, sorted findings.

    ``rules`` may hold rule ids and/or family names; passes whose rule
    sets are disjoint from the request are skipped entirely.
    """
    active = expand_rules(rules) if rules is not None else set(ALL_RULES)

    def wants(family: str) -> bool:
        return bool(RULE_FAMILIES[family] & active)

    findings: list[Finding] = []
    indexes: dict[str, SuppressionIndex] = {}

    for file_path in _python_files(root, paths):
        rel = file_path.relative_to(root).as_posix()
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError:
            continue
        indexes[rel] = SuppressionIndex.from_source(rel, source)
        if wants("determinism"):
            findings.extend(lint_source(rel, source))
        if wants("concurrency") \
                and rel.startswith(CONCURRENCY_PATHS):
            findings.extend(lint_concurrency(rel, source))
            if rel == _MESSAGES_REL:
                findings.extend(audit_messages(rel, source))

    if wants("cachekeys"):
        findings.extend(audit_cache_keys(root))
    if model_checker and wants("statemachine"):
        findings.extend(run_model_checker())
    if model_checker and wants("protocol"):
        findings.extend(run_protocol_checker(root))

    kept: list[Finding] = []
    for finding in findings:
        index = indexes.get(finding.path)
        if index is not None and index.is_suppressed(finding.rule,
                                                     finding.line):
            continue
        kept.append(finding)
    unrestricted = rules is None
    for rel in sorted(indexes):
        kept.extend(indexes[rel].unused_findings(
            active_rules=None if unrestricted else active))

    kept = [f for f in kept if f.rule in active]
    return sort_findings(kept)
