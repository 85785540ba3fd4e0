"""Protocol model checker for the fleet-serving delivery discipline.

The ``serve`` layer's correctness story rests on a delivery protocol:
the supervisor journals every accepted batch, workers dedupe/stash/apply
by per-stream cursor, snapshots carry the cursors, and crash recovery
replays the journal suffix.  PR 7 *witnesses* that story with a chaos
differential; this module *proves* it the way ``repro-check
statemachine`` proves the detectors: a declarative
:class:`ProtocolSpec` of the supervisor/worker message surface and the
worker's dedupe/stash/ack discipline is explored exhaustively over
small-scope schedules — every delivery permutation, duplicated
deliveries, a snapshot cadence, and a crash between any two steps —
and four safety invariants are checked on every run:

``no-sample-loss``
    every submitted ``(stream, stream_seq)`` is applied on the
    surviving timeline (cursors reach the end, stashes drain);
``no-double-application``
    the surviving timeline applies each ``(stream, stream_seq)`` at
    most once, in strictly increasing per-stream order;
``ack-monotonicity``
    within a worker incarnation the contiguous high-water mark and the
    per-stream cursors never regress, and a restore lands exactly on
    the newest durable snapshot (never below, never past it);
``replay-idempotence``
    the final state digest of every crashed-and-replayed schedule is
    bit-identical to the crash-free in-order reference run.

The same schedules are then driven through the *real*
:class:`~repro.serve.worker.ShardWorker` (in-process, tempdir snapshot
stores) and its ack skeletons and final digests are compared against
the model (``protocol-impl-divergence``), while AST audits pin the
spec's transitions to the shipped code paths (``protocol-anchor-missing``)
and its message surface to :mod:`repro.serve.messages`
(``protocol-surface-drift``).
"""

from __future__ import annotations

import ast
import itertools
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterator, Protocol

import numpy as np

from repro.checks.findings import Finding, Severity

__all__ = [
    "GUARDS", "ACTIONS", "INVARIANTS", "PROTOCOL_PATH",
    "MessageSpec", "ProtocolRule", "ProtocolObligation", "ProtocolSpec",
    "serve_protocol_spec", "check_spec", "audit_message_surface",
    "audit_anchors", "enumerate_schedules", "explore_model",
    "cross_check_worker", "run_protocol_checker",
]

#: Guard names a :class:`ProtocolRule` may use, in evaluation order.
GUARDS = ("duplicate", "expected", "early")

#: Action names the model interpreter can execute.
ACTIONS = ("ack-empty", "stash", "apply-drain")

#: The four safety invariants, checked by name on every explored run.
INVARIANTS = ("no-sample-loss", "no-double-application",
              "ack-monotonicity", "replay-idempotence")

#: Symbolic finding path for model-level findings (no single file).
PROTOCOL_PATH = "<serve protocol>"

_WORKER = "src/repro/serve/worker.py"
_SUPERVISOR = "src/repro/serve/supervisor.py"
_MESSAGES = "src/repro/serve/messages.py"


# -- the declarative spec -----------------------------------------------------


@dataclass(frozen=True)
class MessageSpec:
    """One wire message: name, queue direction and field surface."""

    name: str
    direction: str  # "down" (supervisor -> worker) or "up"
    fields: tuple[str, ...]


@dataclass(frozen=True)
class ProtocolRule:
    """One transition of the worker's delivery discipline.

    ``anchor`` names the implementing code path as
    ``"path::Qualified.name"``; ``requires`` lists identifiers that
    must appear inside that function body (the static white-box tie
    between spec transition and shipped code).
    """

    message: str
    guard: str
    action: str
    anchor: str
    requires: tuple[str, ...] = ()


@dataclass(frozen=True)
class ProtocolObligation:
    """A supervisor/worker-side duty outside the per-message rules."""

    name: str
    anchor: str
    requires: tuple[str, ...] = ()


@dataclass(frozen=True)
class ProtocolSpec:
    """The complete declarative protocol description."""

    name: str
    version: int
    messages: tuple[MessageSpec, ...]
    rules: tuple[ProtocolRule, ...]
    obligations: tuple[ProtocolObligation, ...]
    invariants: tuple[str, ...] = INVARIANTS


def serve_protocol_spec() -> ProtocolSpec:
    """The shipped supervisor/worker protocol: batches travel in rounds."""
    return ProtocolSpec(
        name="serve",
        version=2,
        messages=(
            MessageSpec("Batch", "down",
                        ("seq", "stream", "stream_seq", "samples")),
            MessageSpec("Round", "down", ("batches",)),
            MessageSpec("Shutdown", "down", ("final_snapshot",)),
            MessageSpec("WorkerStarted", "up",
                        ("shard", "restored_seq", "lanes")),
            MessageSpec("AppliedBatch", "up",
                        ("stream", "stream_seq", "events", "intervals")),
            MessageSpec("BatchAck", "up", ("shard", "seq", "applied")),
            MessageSpec("RoundAck", "up", ("shard", "acks")),
            MessageSpec("SnapshotWritten", "up",
                        ("shard", "seq", "path", "n_bytes")),
        ),
        rules=(
            ProtocolRule(
                message="Batch", guard="duplicate", action="ack-empty",
                anchor=f"{_WORKER}::ShardWorker.handle_batches",
                requires=("stream_seqs",)),
            ProtocolRule(
                message="Batch", guard="early", action="stash",
                anchor=f"{_WORKER}::ShardWorker.handle_batches",
                requires=("stash",)),
            ProtocolRule(
                message="Batch", guard="expected", action="apply-drain",
                anchor=f"{_WORKER}::ShardWorker.handle_batches",
                requires=("_apply", "stash")),
        ),
        obligations=(
            ProtocolObligation(
                name="journal-every-batch",
                anchor=f"{_SUPERVISOR}::FleetSupervisor.submit",
                requires=("journal", "append")),
            ProtocolObligation(
                name="replay-after-restart",
                anchor=f"{_SUPERVISOR}::FleetSupervisor._replay",
                requires=("entries_after",)),
            ProtocolObligation(
                name="one-ack-per-round",
                anchor=f"{_WORKER}::ShardWorker.handle_round",
                requires=("handle_batches", "RoundAck")),
            ProtocolObligation(
                name="crash-delivery-alone",
                anchor=f"{_WORKER}::worker_main",
                requires=("crash_spec_for", "handle_batch")),
            ProtocolObligation(
                name="truncate-behind-second-snapshot",
                anchor=f"{_SUPERVISOR}::FleetSupervisor._handle_up",
                requires=("truncate_through", "snapshot_seqs")),
            ProtocolObligation(
                name="contiguous-high-water-mark",
                anchor=f"{_WORKER}::ShardWorker._note_seq",
                requires=("seen_through",)),
            ProtocolObligation(
                name="restore-newest-snapshot",
                anchor=f"{_WORKER}::ShardWorker._restore",
                requires=("load_latest",)),
            ProtocolObligation(
                name="final-snapshot-on-shutdown",
                anchor=f"{_WORKER}::worker_main",
                requires=("take_snapshot",)),
        ),
    )


# -- structural spec checks ---------------------------------------------------


def check_spec(spec: ProtocolSpec) -> list[Finding]:
    """Well-formedness: known guards/actions, one rule per (msg, guard)."""
    findings: list[Finding] = []
    names = {m.name for m in spec.messages}

    def bad(message: str) -> None:
        findings.append(Finding(
            rule="protocol-spec-incomplete", severity=Severity.ERROR,
            path=PROTOCOL_PATH, line=0, message=message))

    for message in spec.messages:
        if message.direction not in ("down", "up"):
            bad(f"message {message.name} has unknown direction "
                f"{message.direction!r}")
    seen: dict[tuple[str, str], int] = {}
    for rule in spec.rules:
        if rule.message not in names:
            bad(f"rule references undeclared message {rule.message!r}")
        if rule.guard not in GUARDS:
            bad(f"rule for {rule.message} uses unknown guard "
                f"{rule.guard!r} (known: {', '.join(GUARDS)})")
        if rule.action not in ACTIONS:
            bad(f"rule for {rule.message}/{rule.guard} uses unknown "
                f"action {rule.action!r} (known: {', '.join(ACTIONS)})")
        key = (rule.message, rule.guard)
        seen[key] = seen.get(key, 0) + 1
    for (message_name, guard), count in sorted(seen.items()):
        if count > 1:
            bad(f"{count} rules for ({message_name}, {guard}); the "
                f"discipline must be deterministic")
    for guard in GUARDS:
        if ("Batch", guard) not in seen:
            bad(f"no rule for (Batch, {guard}); every delivery guard "
                f"needs a transition")
    for invariant in spec.invariants:
        if invariant not in INVARIANTS:
            bad(f"unknown invariant {invariant!r} "
                f"(known: {', '.join(INVARIANTS)})")
    return findings


# -- AST audits: message surface and code-path anchors ------------------------


def _dataclass_field_names(node: ast.ClassDef) -> tuple[str, ...]:
    names: list[str] = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                          ast.Name):
            names.append(stmt.target.id)
    return tuple(names)


def audit_message_surface(spec: ProtocolSpec, root: Path) -> list[Finding]:
    """The spec's message surface must match ``serve/messages.py``.

    Every spec message must exist as a dataclass with exactly the
    declared fields, every public message class must be covered by the
    spec, and the module's ``PROTOCOL_VERSION`` / ``MESSAGE_SCHEMA``
    registry must agree with both.
    """
    findings: list[Finding] = []
    path = root / _MESSAGES

    def drift(line: int, message: str) -> None:
        findings.append(Finding(
            rule="protocol-surface-drift", severity=Severity.ERROR,
            path=_MESSAGES, line=line, message=message))

    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError) as exc:
        drift(0, f"cannot parse message module: {exc}")
        return findings

    classes: dict[str, ast.ClassDef] = {}
    version: int | None = None
    schema: dict[str, tuple[str, ...]] = {}
    exported: tuple[str, ...] = ()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            classes[node.name] = node
            continue
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            target, assigned = node.targets[0].id, node.value
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name) \
                and node.value is not None:
            target, assigned = node.target.id, node.value
        else:
            continue
        if target == "PROTOCOL_VERSION" \
                and isinstance(assigned, ast.Constant) \
                and isinstance(assigned.value, int):
            version = assigned.value
        elif target == "MESSAGE_SCHEMA" and isinstance(assigned, ast.Dict):
            for key, value in zip(assigned.keys, assigned.values):
                if isinstance(key, ast.Constant) \
                        and isinstance(key.value, str) \
                        and isinstance(value, ast.Tuple):
                    entries = tuple(
                        element.value for element in value.elts
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str))
                    schema[key.value] = entries
        elif target == "__all__" and isinstance(assigned,
                                                (ast.List, ast.Tuple)):
            exported = tuple(
                element.value for element in assigned.elts
                if isinstance(element, ast.Constant)
                and isinstance(element.value, str))

    if version is None:
        drift(0, "PROTOCOL_VERSION missing (or not an int literal); the "
                 "wire protocol is unversioned")
    elif version != spec.version:
        drift(0, f"PROTOCOL_VERSION {version} != spec version "
                 f"{spec.version}; bump both together")

    for message in spec.messages:
        node = classes.get(message.name)
        if node is None:
            drift(0, f"spec message {message.name} has no dataclass in "
                     f"the message module")
            continue
        actual = _dataclass_field_names(node)
        if actual != message.fields:
            drift(node.lineno,
                  f"{message.name} fields {actual} drifted from spec "
                  f"{message.fields}")
        declared = schema.get(message.name)
        if declared is None:
            drift(node.lineno,
                  f"{message.name} missing from MESSAGE_SCHEMA; "
                  f"receivers cannot validate it")
        elif declared != actual:
            drift(node.lineno,
                  f"MESSAGE_SCHEMA[{message.name!r}] {declared} drifted "
                  f"from the dataclass fields {actual}")

    spec_names = {m.name for m in spec.messages}
    for name in exported:
        if name in classes and name not in spec_names:
            drift(classes[name].lineno,
                  f"exported message {name} is not covered by the "
                  f"protocol spec")
    return findings


def _resolve_anchor(tree: ast.Module,
                    qualname: str) -> ast.FunctionDef | None:
    parts = qualname.split(".")
    scope: list[ast.stmt] = list(tree.body)
    for part in parts[:-1]:
        for stmt in scope:
            if isinstance(stmt, ast.ClassDef) and stmt.name == part:
                scope = list(stmt.body)
                break
        else:
            return None
    for stmt in scope:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == parts[-1]:
            return stmt
    return None


def _body_identifiers(node: ast.FunctionDef) -> set[str]:
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def audit_anchors(spec: ProtocolSpec, root: Path) -> list[Finding]:
    """Every rule/obligation anchor must resolve to shipped code.

    An anchor is ``"relative/path.py::Qualified.name"``; ``requires``
    identifiers must appear in the anchored function body.  This is the
    static half of the white-box cross-check: the dynamic half replays
    schedules through the real worker.
    """
    findings: list[Finding] = []
    trees: dict[str, ast.Module | None] = {}

    def missing(path: str, line: int, message: str) -> None:
        findings.append(Finding(
            rule="protocol-anchor-missing", severity=Severity.ERROR,
            path=path, line=line, message=message))

    anchored: list[tuple[str, str, tuple[str, ...]]] = [
        (rule.anchor, f"rule ({rule.message}, {rule.guard})",
         rule.requires)
        for rule in spec.rules]
    anchored += [(ob.anchor, f"obligation {ob.name!r}", ob.requires)
                 for ob in spec.obligations]

    for anchor, label, requires in anchored:
        if "::" not in anchor:
            missing(PROTOCOL_PATH, 0,
                    f"{label} anchor {anchor!r} is not of the form "
                    f"'path::Qualified.name'")
            continue
        rel, qualname = anchor.split("::", 1)
        if rel not in trees:
            try:
                trees[rel] = ast.parse(
                    (root / rel).read_text(encoding="utf-8"))
            except (OSError, SyntaxError):
                trees[rel] = None
        tree = trees[rel]
        if tree is None:
            missing(rel, 0, f"{label} anchors {qualname} but the file "
                            f"cannot be parsed")
            continue
        node = _resolve_anchor(tree, qualname)
        if node is None:
            missing(rel, 0, f"{label} anchors {qualname}, which no "
                            f"longer exists")
            continue
        identifiers = _body_identifiers(node)
        for name in requires:
            if name not in identifiers:
                missing(rel, node.lineno,
                        f"{label} expects {qualname} to reference "
                        f"{name!r}, but it does not — the spec "
                        f"transition no longer maps onto this code path")
    return findings


# -- small-scope schedules ----------------------------------------------------


@dataclass(frozen=True)
class _Step:
    """One schedule event: deliver/dup a message, snapshot, or crash."""

    kind: str  # "deliver" | "dup" | "snap" | "crash"
    index: int = -1


@dataclass(frozen=True)
class Scope:
    """The message universe one schedule family ranges over."""

    streams: tuple[str, ...]
    #: submission order; item i is (stream, stream_seq) with seq == i.
    messages: tuple[tuple[str, int], ...]


def small_scope(per_stream: tuple[int, ...] = (2, 1)) -> Scope:
    """``per_stream[k]`` batches for stream k, interleaved round-robin."""
    streams = tuple(f"s{i}" for i in range(len(per_stream)))
    counters = [0] * len(per_stream)
    messages: list[tuple[str, int]] = []
    remaining = sum(per_stream)
    while remaining:
        for i, stream in enumerate(streams):
            if counters[i] < per_stream[i]:
                messages.append((stream, counters[i]))
                counters[i] += 1
                remaining -= 1
    return Scope(streams=streams, messages=tuple(messages))


def enumerate_schedules(scope: Scope,
                        snapshot_cadences: tuple[int, ...] = (0, 1, 2),
                        adjacent_dups_only: bool = False,
                        with_crash: bool = True
                        ) -> Iterator[tuple[_Step, ...]]:
    """Every small-scope schedule: permutations x dups x snaps x crash.

    A schedule delivers each scope message exactly once in some order,
    optionally re-delivers one of them (a transport duplicate), takes a
    snapshot after every ``cadence`` deliveries (0 = never), and — when
    ``with_crash`` — kills and restores the worker at one point
    (including before the first delivery and after the last).
    """
    n = len(scope.messages)
    deliveries: list[tuple[_Step, ...]] = []
    for perm in itertools.permutations(range(n)):
        base = tuple(_Step("deliver", i) for i in perm)
        deliveries.append(base)
        for pos in range(n):
            last = pos + 2 if adjacent_dups_only else n + 1
            for insert in range(pos + 1, last):
                dup = _Step("dup", perm[pos])
                deliveries.append(
                    base[:insert] + (dup,) + base[insert:])
    for delivery in deliveries:
        for cadence in snapshot_cadences:
            steps: list[_Step] = []
            since = 0
            for step in delivery:
                steps.append(step)
                since += 1
                if cadence and since >= cadence:
                    steps.append(_Step("snap"))
                    since = 0
            yield tuple(steps)
            if not with_crash:
                continue
            for at in range(len(steps) + 1):
                yield (tuple(steps[:at]) + (_Step("crash"),)
                       + tuple(steps[at:]))


def describe_schedule(scope: Scope, steps: tuple[_Step, ...]) -> str:
    """A compact human label, e.g. ``s0.0 s1.0 !snap !crash s0.1``."""
    parts: list[str] = []
    for step in steps:
        if step.kind in ("deliver", "dup"):
            stream, stream_seq = scope.messages[step.index]
            tag = "+" if step.kind == "dup" else ""
            parts.append(f"{tag}{stream}.{stream_seq}")
        else:
            parts.append(f"!{step.kind}")
    return " ".join(parts)


# -- the model interpreter ----------------------------------------------------


class ProtocolModelError(Exception):
    """The spec cannot be executed (missing rule / unknown action)."""


@dataclass
class _ModelSnapshot:
    """In-memory stand-in for one durable snapshot generation."""

    seen_through: int
    stream_seqs: dict[str, int]
    stash: dict[str, dict[int, int]]
    applied_units: dict[str, int]


class WorkerAdapter(Protocol):
    """What the explorer needs from a worker (model or real)."""

    def deliver(self, seq: int, stream: str,
                stream_seq: int) -> tuple[tuple[str, int], ...]: ...

    def snapshot(self) -> int: ...

    def crash_restore(self) -> int: ...

    def cursors(self) -> dict[str, int]: ...

    def seen_through(self) -> int: ...

    def stash_sizes(self) -> dict[str, int]: ...

    def digest(self) -> tuple[tuple[str, int, int], ...]: ...


class _ModelWorker:
    """Pure-Python interpreter over a :class:`ProtocolSpec`.

    State mirrors :class:`~repro.serve.worker.ShardWorker`: per-stream
    cursors, a stash of early arrivals, the contiguous delivery
    high-water mark, and in-memory snapshots.  ``applied_units`` tracks
    how many payload units each stream absorbed (the model's stand-in
    for the real lane's sample counter), so digests detect
    double-application exactly like the real worker's stats do.
    """

    def __init__(self, spec: ProtocolSpec,
                 streams: tuple[str, ...]) -> None:
        self._rules = {(r.message, r.guard): r for r in spec.rules}
        self.streams = streams
        self.stream_seqs: dict[str, int] = {s: 0 for s in streams}
        self.stash: dict[str, dict[int, int]] = {}
        self.high_water = -1
        self._seen_ahead: set[int] = set()
        self.applied_units: dict[str, int] = {s: 0 for s in streams}
        self._snapshots: list[_ModelSnapshot] = []

    def _note_seq(self, seq: int) -> None:
        if seq <= self.high_water:
            return
        self._seen_ahead.add(seq)
        while self.high_water + 1 in self._seen_ahead:
            self.high_water += 1
            self._seen_ahead.discard(self.high_water)

    def _apply(self, stream: str, stream_seq: int) -> tuple[str, int]:
        self.applied_units[stream] += stream_seq + 1
        self.stream_seqs[stream] = stream_seq + 1
        return (stream, stream_seq)

    def deliver(self, seq: int, stream: str,
                stream_seq: int) -> tuple[tuple[str, int], ...]:
        self._note_seq(seq)
        expected = self.stream_seqs.get(stream, 0)
        if stream_seq < expected:
            guard = "duplicate"
        elif stream_seq > expected:
            guard = "early"
        else:
            guard = "expected"
        rule = self._rules.get(("Batch", guard))
        if rule is None:
            raise ProtocolModelError(f"no rule for (Batch, {guard})")
        if rule.action == "ack-empty":
            return ()
        if rule.action == "stash":
            self.stash.setdefault(stream, {})[stream_seq] = stream_seq
            return ()
        if rule.action == "apply-drain":
            applied = [self._apply(stream, stream_seq)]
            parked = self.stash.get(stream)
            while parked:
                up_next = self.stream_seqs[stream]
                if up_next not in parked:
                    break
                applied.append(self._apply(stream, parked.pop(up_next)))
            return tuple(applied)
        raise ProtocolModelError(f"unknown action {rule.action!r}")

    def snapshot(self) -> int:
        self._snapshots.append(_ModelSnapshot(
            seen_through=self.high_water,
            stream_seqs=dict(self.stream_seqs),
            stash={s: dict(parked)
                   for s, parked in self.stash.items() if parked},
            applied_units=dict(self.applied_units)))
        return self.high_water

    def crash_restore(self) -> int:
        if self._snapshots:
            state = self._snapshots[-1]
            self.high_water = state.seen_through
            self.stream_seqs = dict(state.stream_seqs)
            self.stash = {s: dict(parked)
                          for s, parked in state.stash.items()}
            self.applied_units = dict(state.applied_units)
        else:
            self.high_water = -1
            self.stream_seqs = {s: 0 for s in self.streams}
            self.stash = {}
            self.applied_units = {s: 0 for s in self.streams}
        self._seen_ahead = set()
        return self.high_water

    def seen_through(self) -> int:
        return self.high_water

    def cursors(self) -> dict[str, int]:
        return dict(self.stream_seqs)

    def stash_sizes(self) -> dict[str, int]:
        return {s: len(parked) for s, parked in self.stash.items()
                if parked}

    def digest(self) -> tuple[tuple[str, int, int], ...]:
        return tuple((s, self.stream_seqs[s], self.applied_units[s])
                     for s in self.streams)


# -- the explorer -------------------------------------------------------------


@dataclass
class _Trace:
    """What one schedule run produced, in invariant-checkable form."""

    scope: Scope
    #: surviving-timeline apply log per stream (truncated on restore).
    applied: dict[str, list[int]] = field(default_factory=dict)
    #: per ack: (incarnation, seq, applied skeleton, marks after).
    acks: list[tuple[int, int, tuple[tuple[str, int], ...],
                     int, tuple[int, ...]]] = field(default_factory=list)
    #: per crash: (newest durable snapshot seq or -1, restored seq).
    restores: list[tuple[int, int]] = field(default_factory=list)
    final_digest: tuple[tuple[str, int, int], ...] = ()
    final_cursors: dict[str, int] = field(default_factory=dict)
    final_stash: dict[str, int] = field(default_factory=dict)
    error: str | None = None


def _run_schedule(adapter: WorkerAdapter, scope: Scope,
                  steps: tuple[_Step, ...]) -> _Trace:
    """Drive one schedule; crashes replay the journal like recovery does.

    The journal holds every scope message from the start (the
    supervisor journals on submit, before delivery), so a crash at any
    point replays all entries past the restored seq — and the rest of
    the schedule still arrives afterwards, modelling stale in-flight
    messages overlapping the replay.
    """
    trace = _Trace(scope=scope,
                   applied={s: [] for s in scope.streams})
    incarnation = 0
    last_snapshot_seq = -1

    def note_ack(seq: int,
                 applied: tuple[tuple[str, int], ...]) -> None:
        for stream, stream_seq in applied:
            trace.applied[stream].append(stream_seq)
        marks = tuple(adapter.cursors()[s] for s in scope.streams)
        trace.acks.append(
            (incarnation, seq, applied, adapter.seen_through(), marks))

    try:
        for step in steps:
            if step.kind == "snap":
                last_snapshot_seq = adapter.snapshot()
            elif step.kind == "crash":
                restored = adapter.crash_restore()
                trace.restores.append((last_snapshot_seq, restored))
                incarnation += 1
                for cursor in trace.applied.values():
                    del cursor[:]
                restored_cursors = adapter.cursors()
                for stream in scope.streams:
                    trace.applied[stream] = list(
                        range(restored_cursors.get(stream, 0)))
                for seq, (stream, stream_seq) in enumerate(
                        scope.messages):
                    if seq > restored:
                        note_ack(seq, adapter.deliver(seq, stream,
                                                      stream_seq))
            else:
                seq = step.index
                stream, stream_seq = scope.messages[seq]
                note_ack(seq, adapter.deliver(seq, stream, stream_seq))
    except ProtocolModelError as exc:
        trace.error = str(exc)
        return trace
    trace.final_digest = adapter.digest()
    trace.final_cursors = adapter.cursors()
    trace.final_stash = adapter.stash_sizes()
    return trace


def _reference_trace(make_adapter: Callable[[], WorkerAdapter],
                     scope: Scope) -> _Trace:
    """The crash-free in-order run every other run must converge to."""
    steps = tuple(_Step("deliver", i)
                  for i in range(len(scope.messages)))
    return _run_schedule(make_adapter(), scope, steps)


def _check_invariants(scope: Scope, steps: tuple[_Step, ...],
                      trace: _Trace, reference: _Trace,
                      where: str) -> list[Finding]:
    """Evaluate the four named invariants on one finished run."""
    violations: list[tuple[str, str]] = []
    expected = {stream: sum(1 for s, _ in scope.messages if s == stream)
                for stream in scope.streams}

    if trace.error is not None:
        return [Finding(
            rule="protocol-spec-incomplete", severity=Severity.ERROR,
            path=PROTOCOL_PATH, line=0,
            message=f"{where}: schedule "
                    f"[{describe_schedule(scope, steps)}] is not "
                    f"executable: {trace.error}")]

    for stream in scope.streams:
        log = trace.applied[stream]
        want = list(range(expected[stream]))
        if sorted(set(log)) != want \
                or trace.final_cursors.get(stream, 0) != expected[stream]:
            violations.append((
                "no-sample-loss",
                f"stream {stream} applied {log} of {want} (final "
                f"cursor {trace.final_cursors.get(stream, 0)})"))
            break
    if trace.final_stash:
        violations.append((
            "no-sample-loss",
            f"stash not drained at end of run: {trace.final_stash}"))

    for stream in scope.streams:
        log = trace.applied[stream]
        if len(set(log)) != len(log) \
                or any(b <= a for a, b in zip(log, log[1:])):
            violations.append((
                "no-double-application",
                f"stream {stream} apply log {log} repeats or regresses "
                f"on the surviving timeline"))
            break

    last: dict[int, tuple[int, tuple[int, ...]]] = {}
    for incarnation, seq, _, seen, marks in trace.acks:
        prev = last.get(incarnation)
        if prev is not None and (seen < prev[0]
                                 or any(m < p for m, p
                                        in zip(marks, prev[1]))):
            violations.append((
                "ack-monotonicity",
                f"incarnation {incarnation}: high-water mark/cursors "
                f"regressed from {prev} to {(seen, marks)} within a "
                f"single life"))
            break
        last[incarnation] = (seen, marks)
    for snapshot_seq, restored in trace.restores:
        if restored != snapshot_seq:
            violations.append((
                "ack-monotonicity",
                f"restore landed on seq {restored}, but the newest "
                f"durable snapshot covers seq {snapshot_seq}"))
            break

    if trace.final_digest != reference.final_digest:
        violations.append((
            "replay-idempotence",
            f"final digest {trace.final_digest} != crash-free "
            f"reference {reference.final_digest}"))

    label = describe_schedule(scope, steps)
    return [Finding(
        rule="protocol-invariant", severity=Severity.ERROR,
        path=PROTOCOL_PATH, line=0,
        message=f"invariant '{invariant}' violated ({where}, schedule "
                f"[{label}]): {detail}")
        for invariant, detail in violations]


def explore_model(spec: ProtocolSpec, scope: Scope,
                  snapshot_cadences: tuple[int, ...] = (0, 1, 2),
                  adjacent_dups_only: bool = False,
                  max_findings: int = 5) -> list[Finding]:
    """Run every small-scope schedule through the model interpreter."""
    findings: list[Finding] = []
    reference = _reference_trace(
        lambda: _ModelWorker(spec, scope.streams), scope)
    for steps in enumerate_schedules(scope, snapshot_cadences,
                                     adjacent_dups_only):
        trace = _run_schedule(_ModelWorker(spec, scope.streams), scope,
                              steps)
        findings.extend(_check_invariants(scope, steps, trace,
                                          reference, "model"))
        if len(findings) >= max_findings:
            break
    return findings[:max_findings]


# -- the real-worker cross-check ----------------------------------------------


class _RealWorkerAdapter:
    """Drives a real :class:`~repro.serve.worker.ShardWorker`.

    Payload batches are small integer arrays, one distinct value run
    per (stream, stream_seq), sized so no interval ever closes — the
    lane's sample counter then measures exactly which batches were fed,
    which is what the digests compare.  ``crash_restore`` abandons the
    worker object and builds a fresh one over the same snapshot store,
    precisely what ``worker_main`` does on respawn.
    """

    def __init__(self, streams: tuple[str, ...], snapshot_dir: str,
                 worker_factory: Callable[..., Any]) -> None:
        from repro.serve.config import ServeConfig
        from repro.serve.snapshot import SnapshotStore

        self.streams = streams
        # snapshot_every is huge so cadence stays schedule-controlled.
        self._config = ServeConfig(n_shards=1, snapshot_every=10**9)
        self._store = SnapshotStore(snapshot_dir, 0)
        self._factory = worker_factory
        self._worker: Any = worker_factory(0, streams, self._config,
                                           self._store)

    def _samples(self, stream: str, stream_seq: int) -> np.ndarray:
        width = stream_seq + 1  # distinct sample counts per batch
        return np.full(width, 1000 + width, dtype=np.int64)

    def deliver(self, seq: int, stream: str,
                stream_seq: int) -> tuple[tuple[str, int], ...]:
        """One delivery as a ``Round`` of one, answered by one ``RoundAck``."""
        from repro.serve.messages import Batch, Round

        answer = self._worker.handle_round(Round((Batch(
            seq=seq, stream=stream, stream_seq=stream_seq,
            samples=self._samples(stream, stream_seq)),)))
        [ack] = answer.acks
        return tuple((entry.stream, entry.stream_seq)
                     for entry in ack.applied)

    def snapshot(self) -> int:
        written = self._worker.take_snapshot()
        return int(written.seq)

    def crash_restore(self) -> int:
        self._worker = self._factory(0, self.streams, self._config,
                                     self._store)
        return int(self._worker.restored_seq)

    def cursors(self) -> dict[str, int]:
        return dict(self._worker.stream_seqs)

    def seen_through(self) -> int:
        return int(self._worker.seen_through)

    def stash_sizes(self) -> dict[str, int]:
        return {stream: len(parked) for stream, parked
                in self._worker.stash.items() if parked}

    def digest(self) -> tuple[tuple[str, int, int], ...]:
        session = self._worker.session
        out: list[tuple[str, int, int]] = []
        for i, stream in enumerate(self.streams):
            lane = session.lanes[i]
            out.append((stream,
                        self._worker.stream_seqs[stream],
                        int(lane.stats.samples)))
        return tuple(out)


def cross_check_worker(spec: ProtocolSpec, scope: Scope,
                       snapshot_cadences: tuple[int, ...] = (0, 1),
                       worker_factory: Callable[..., Any] | None = None,
                       max_findings: int = 5) -> list[Finding]:
    """Replay the schedule space through the shipped ``ShardWorker``.

    Each schedule runs on the real worker (tempdir snapshot store), each
    delivery a ``Round`` of one answered by one ``RoundAck``, and on the
    model; the four invariants are evaluated on the *real* trace and
    every ack skeleton plus the final cursors must match the model
    (``protocol-impl-divergence``).  Digests are compared against the
    real worker's own crash-free reference run, so the check is
    meaningful even when a custom ``worker_factory`` is under test.
    Rounds of many batches are held to the scalar pipeline by the
    conformance oracle's ``worker`` engine.
    """
    import tempfile

    from repro.serve.worker import ShardWorker

    factory: Callable[..., Any] = worker_factory or ShardWorker
    findings: list[Finding] = []

    def real_adapter(base: str, tag: str) -> _RealWorkerAdapter:
        path = Path(base) / tag
        path.mkdir(parents=True, exist_ok=True)
        return _RealWorkerAdapter(scope.streams, str(path), factory)

    with tempfile.TemporaryDirectory() as base:
        reference = _reference_trace(
            lambda: real_adapter(base, "ref"), scope)
        for run, steps in enumerate(enumerate_schedules(
                scope, snapshot_cadences, adjacent_dups_only=True)):
            real = _run_schedule(real_adapter(base, f"run{run}"),
                                 scope, steps)
            findings.extend(_check_invariants(scope, steps, real,
                                              reference, "worker"))
            model = _run_schedule(_ModelWorker(spec, scope.streams),
                                  scope, steps)
            if model.error is None:
                real_skeleton = [(seq, applied) for _, seq, applied,
                                 _, _ in real.acks]
                model_skeleton = [(seq, applied) for _, seq, applied,
                                  _, _ in model.acks]
                if real_skeleton != model_skeleton \
                        or real.final_cursors != model.final_cursors:
                    findings.append(Finding(
                        rule="protocol-impl-divergence",
                        severity=Severity.ERROR,
                        path=_WORKER, line=0,
                        message=f"ShardWorker diverges from the "
                                f"protocol model on schedule "
                                f"[{describe_schedule(scope, steps)}]: "
                                f"acks {real_skeleton} vs model "
                                f"{model_skeleton}, cursors "
                                f"{real.final_cursors} vs "
                                f"{model.final_cursors}"))
            if len(findings) >= max_findings:
                break
    return findings[:max_findings]


# -- the repro-check pass -----------------------------------------------------


def _default_root() -> Path:
    return Path(__file__).resolve().parents[3]


def run_protocol_checker(root: Path | None = None,
                         spec: ProtocolSpec | None = None,
                         worker_factory: Callable[..., Any] | None = None,
                         cross_check: bool = True) -> list[Finding]:
    """The full protocol pass: spec, audits, exploration, cross-check."""
    root = root or _default_root()
    spec = spec or serve_protocol_spec()
    findings = check_spec(spec)
    structural = bool(findings)
    findings += audit_message_surface(spec, root)
    findings += audit_anchors(spec, root)
    if structural:
        return findings  # an ill-formed spec cannot be explored
    findings += explore_model(spec, small_scope((2, 1)))
    findings += explore_model(spec, small_scope((2, 2)),
                              snapshot_cadences=(0, 2),
                              adjacent_dups_only=True)
    if cross_check:
        findings += cross_check_worker(spec, small_scope((2, 1)),
                                       worker_factory=worker_factory)
    return findings


def mutate_rule(spec: ProtocolSpec, guard: str,
                action: str) -> ProtocolSpec:
    """A copy of *spec* with the Batch/*guard* rule's action replaced
    (the mutation-test hook: corrupt one transition, rerun the checker,
    and the violated invariant must be reported by name)."""
    rules = tuple(
        replace(rule, action=action)
        if rule.message == "Batch" and rule.guard == guard else rule
        for rule in spec.rules)
    return replace(spec, rules=rules)


def drop_rule(spec: ProtocolSpec, guard: str) -> ProtocolSpec:
    """A copy of *spec* without the Batch/*guard* rule."""
    rules = tuple(rule for rule in spec.rules
                  if not (rule.message == "Batch"
                          and rule.guard == guard))
    return replace(spec, rules=rules)
