"""Cache-key audit: every knob that shapes a run must be in its key.

The PR-2 bug class this guards against: a simulation helper grows a new
input (a config field, a parameter, a fault knob) that changes the
computed artifact but is *not* part of the ``StreamKey``/``GpdKey``/
``MonitorKey`` it is cached under — so stale artifacts are silently
served.  Three static rules:

``cache-key-field``
    In ``experiments/base.py``, every parameter of a helper that builds a
    ``*Key`` — and every ``config.<field>`` the helper reads — must appear
    inside the key constructor call.  Parameters named in
    :data:`RESULT_INERT_PARAMS` are exempt: they are observability plumbing
    that provably cannot change the computed artifact (the telemetry bus
    carries events *out* of a run; nothing reads it back), so keying on
    them would only fragment the cache.
``cache-key-no-faults``
    Every key dataclass in ``experiments/cache.py`` (and ``WarmTask``)
    must carry a ``faults`` field, and derived keys (``GpdKey``,
    ``MonitorKey``) must contain every field of ``StreamKey`` — an
    artifact's key cannot be coarser than its input stream's.
``fault-token-incomplete``
    A ``FaultSpec`` subclass in ``faults/model.py`` — or a
    ``ServiceFaultSpec`` subclass in ``faults/service.py`` — that
    overrides ``token()`` must mention every one of its dataclass
    fields; the inherited ``token()`` enumerates ``fields(self)`` and
    is always safe.
``cpd-token-incomplete``
    A ``*Thresholds`` dataclass in ``cpd/config.py`` must define a
    ``token()`` that either enumerates ``fields(self)`` (safe by
    construction, the shipped idiom) or mentions every dataclass field
    explicitly — CPD configurations feed experiment cache keys and
    hunt-report parameters, so an omitted knob is a stale-artifact bug
    of the same class ``fault-token-incomplete`` guards against.
``trace-token-incomplete``
    A ``*Identity`` dataclass in ``ingest/identity.py`` must define a
    ``token()`` that either enumerates ``fields(self)`` (safe by
    construction) or mentions every dataclass field explicitly — the
    token is the ``trace`` component of experiment cache keys, so a
    replay knob missing from it means a stale recorded stream can be
    served across knob values.
``snapshot-field-drift``
    The serve layer's :data:`~repro.serve.snapshot.SNAPSHOT_FIELDS`
    schema tuple must list exactly the fields of ``ShardSnapshot``, in
    order.  The codec checks this at runtime too, but only on the
    paths a test happens to execute; the static rule makes the drift a
    check-suite failure the moment the dataclass is edited.

All of these are pure AST analyses — nothing is imported or executed.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.checks.findings import Finding, Severity

__all__ = ["audit_cache_keys", "audit_base_helpers", "audit_key_classes",
           "audit_fault_tokens", "audit_token_discipline",
           "audit_snapshot_fields", "RESULT_INERT_PARAMS"]

#: Helper parameters exempt from ``cache-key-field``: knobs that
#: provably cannot alter the computed artifact.  Keep this list short
#: and justified — every entry must be result-inert by construction.
#:
#: ``telemetry``
#:     Observability plumbing; the bus carries events *out* of a run
#:     and nothing reads it back (write-only).
RESULT_INERT_PARAMS = frozenset({"telemetry"})


def _parse(path: Path) -> ast.Module | None:
    try:
        return ast.parse(path.read_text(encoding="utf-8"),
                         filename=str(path))
    except (OSError, SyntaxError):
        return None


def _dataclass_fields(cls: ast.ClassDef) -> list[str]:
    """Names of the annotated fields of a dataclass body."""
    return [stmt.target.id for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)]


def _names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _unmentioned_fields(cls: ast.ClassDef,
                        token_def: ast.FunctionDef) -> list[str]:
    """Dataclass fields of *cls* that its ``token()`` never names.

    A field counts as mentioned when it appears as an attribute
    (``self.window``) or as a string constant (``getattr(self, "seed")``).
    """
    mentioned = {n.attr for n in ast.walk(token_def)
                 if isinstance(n, ast.Attribute)}
    mentioned |= {n.value for n in ast.walk(token_def)
                  if isinstance(n, ast.Constant)
                  and isinstance(n.value, str)}
    return [name for name in _dataclass_fields(cls)
            if name not in mentioned]


def _config_attrs_in(node: ast.AST, config_names: set[str]) -> set[str]:
    return {n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name)
            and n.value.id in config_names}


def audit_key_classes(cache_path: Path, rel: str) -> tuple[
        list[Finding], set[str]]:
    """Check the key dataclasses; return findings and the key class names."""
    findings: list[Finding] = []
    tree = _parse(cache_path)
    if tree is None:
        return findings, set()

    key_classes: dict[str, ast.ClassDef] = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and (
                node.name.endswith("Key") or node.name == "WarmTask"):
            key_classes[node.name] = node

    for name, cls in key_classes.items():
        if "faults" not in _dataclass_fields(cls):
            findings.append(Finding(
                rule="cache-key-no-faults", severity=Severity.ERROR,
                path=rel, line=cls.lineno,
                message=f"{name} has no 'faults' field: faulted and ideal "
                        f"artifacts of the same run would collide"))

    stream = key_classes.get("StreamKey")
    if stream is not None:
        stream_fields = set(_dataclass_fields(stream))
        for derived in ("GpdKey", "MonitorKey"):
            cls = key_classes.get(derived)
            if cls is None:
                continue
            missing = stream_fields - set(_dataclass_fields(cls))
            if missing:
                findings.append(Finding(
                    rule="cache-key-no-faults", severity=Severity.ERROR,
                    path=rel, line=cls.lineno,
                    message=f"{derived} lacks StreamKey field(s) "
                            f"{sorted(missing)}: a derived artifact's key "
                            f"cannot be coarser than its stream's"))
    return findings, set(key_classes) - {"WarmTask"}


def audit_base_helpers(base_path: Path, rel: str,
                       key_names: set[str]) -> list[Finding]:
    """Check that simulation helpers key on everything they consume."""
    findings: list[Finding] = []
    tree = _parse(base_path)
    if tree is None:
        return findings

    for func in tree.body:
        if not isinstance(func, ast.FunctionDef):
            continue
        key_calls = [node for node in ast.walk(func)
                     if isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Name)
                     and node.func.id in key_names]
        if not key_calls:
            continue
        key_call = key_calls[0]

        params = [a.arg for a in (func.args.posonlyargs + func.args.args
                                  + func.args.kwonlyargs)]
        config_names = {p for p in params if "config" in p.lower()}

        keyed_names: set[str] = set()
        keyed_config_attrs: set[str] = set()
        for kw in key_call.keywords:
            keyed_names |= _names_in(kw.value)
            keyed_config_attrs |= _config_attrs_in(kw.value, config_names)

        # A parameter may flow into the key through a local, e.g.
        # ``faults = _fault_token(plan)`` then ``faults=faults``: chase
        # single-target assignments to a fixpoint.
        assigns = [stmt for stmt in ast.walk(func)
                   if isinstance(stmt, ast.Assign)
                   and len(stmt.targets) == 1
                   and isinstance(stmt.targets[0], ast.Name)]
        changed = True
        while changed:
            changed = False
            for stmt in assigns:
                if stmt.targets[0].id in keyed_names:
                    rhs_names = _names_in(stmt.value)
                    if not rhs_names <= keyed_names:
                        keyed_names |= rhs_names
                        keyed_config_attrs |= _config_attrs_in(
                            stmt.value, config_names)
                        changed = True

        for param in params:
            if param in keyed_names or param in RESULT_INERT_PARAMS:
                continue
            findings.append(Finding(
                rule="cache-key-field", severity=Severity.ERROR,
                path=rel, line=func.lineno,
                message=f"{func.name}() parameter '{param}' does not "
                        f"appear in its {key_call.func.id}: a caller can "
                        f"vary it without invalidating the cache"))

        read_attrs = _config_attrs_in(func, config_names)
        for attr in sorted(read_attrs - keyed_config_attrs):
            findings.append(Finding(
                rule="cache-key-field", severity=Severity.ERROR,
                path=rel, line=func.lineno,
                message=f"{func.name}() reads config.{attr} but its "
                        f"{key_call.func.id} does not include it; stale "
                        f"artifacts would be served across {attr} values"))
    return findings


def audit_fault_tokens(model_path: Path, rel: str) -> list[Finding]:
    """Check FaultSpec-shaped subclasses that override ``token()``.

    Applies to both fault hierarchies: stream-level ``FaultSpec``
    subclasses (``faults/model.py``) and service-level
    ``ServiceFaultSpec`` subclasses (``faults/service.py``) — any base
    name ending in ``FaultSpec`` opts a class in.  Kind-tag collisions
    are checked within one file, matching the per-registry namespaces.
    """
    findings: list[Finding] = []
    tree = _parse(model_path)
    if tree is None:
        return findings

    kinds: dict[str, str] = {}
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        bases = {b.id for b in cls.bases if isinstance(b, ast.Name)}
        if not any(base.endswith("FaultSpec") for base in bases):
            continue

        for stmt in cls.body:
            if (isinstance(stmt, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "kind"
                            for t in stmt.targets)
                    and isinstance(stmt.value, ast.Constant)):
                kind = str(stmt.value.value)
                if kind in kinds:
                    findings.append(Finding(
                        rule="fault-kind-collision", severity=Severity.ERROR,
                        path=rel, line=cls.lineno,
                        message=f"{cls.name} reuses kind '{kind}' already "
                                f"taken by {kinds[kind]}: their cache "
                                f"tokens would be indistinguishable"))
                else:
                    kinds[kind] = cls.name

        token_def = next((stmt for stmt in cls.body
                          if isinstance(stmt, ast.FunctionDef)
                          and stmt.name == "token"), None)
        if token_def is None:
            continue  # inherited token() enumerates fields(self): safe
        for field_name in _unmentioned_fields(cls, token_def):
            findings.append(Finding(
                rule="fault-token-incomplete", severity=Severity.ERROR,
                path=rel, line=token_def.lineno,
                message=f"{cls.name}.token() omits field "
                        f"'{field_name}': two specs differing only in "
                        f"{field_name} would share a cache key"))
    return findings


#: Token-discipline rules: rule id -> (module under ``src/repro``,
#: class-name suffix the rule covers, what two instances of such a
#: class are called in the finding message).
_TOKEN_RULES: dict[str, tuple[str, str, str]] = {
    "cpd-token-incomplete": ("cpd/config.py", "Thresholds",
                             "configurations"),
    "trace-token-incomplete": ("ingest/identity.py", "Identity", "replays"),
}


def audit_token_discipline(path: Path, rel: str, rule: str) -> list[Finding]:
    """Check the ``token()`` discipline of one :data:`_TOKEN_RULES` entry.

    Every class in *path* whose name ends in the rule's suffix must
    define a ``token()`` that either enumerates ``fields(self)`` (safe
    by construction, the shipped idiom) or mentions every dataclass
    field — the rule :func:`audit_fault_tokens` applies to fault specs.
    """
    _, suffix, subject = _TOKEN_RULES[rule]
    findings: list[Finding] = []
    tree = _parse(path)
    if tree is None:
        return findings

    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) \
                or not cls.name.endswith(suffix):
            continue
        token_def = next((stmt for stmt in cls.body
                          if isinstance(stmt, ast.FunctionDef)
                          and stmt.name == "token"), None)
        if token_def is None:
            findings.append(Finding(
                rule=rule, severity=Severity.ERROR, path=rel,
                line=cls.lineno,
                message=f"{cls.name} defines no token(): its {subject} "
                        f"cannot discriminate cache keys"))
            continue
        if "fields" in _names_in(token_def):
            continue  # enumerates fields(self): safe by construction
        for field_name in _unmentioned_fields(cls, token_def):
            findings.append(Finding(
                rule=rule, severity=Severity.ERROR, path=rel,
                line=token_def.lineno,
                message=f"{cls.name}.token() omits field "
                        f"'{field_name}': two {subject} differing only "
                        f"in {field_name} would share a cache key"))
    return findings


def audit_snapshot_fields(snapshot_path: Path, rel: str) -> list[Finding]:
    """Check SNAPSHOT_FIELDS against the ShardSnapshot dataclass.

    The snapshot codec's schema tuple and the dataclass it describes
    live a screenful apart; a field added to one but not the other
    makes every snapshot un-decodable (best case) or silently drops
    state (worst case, if the runtime guard were ever loosened).
    """
    findings: list[Finding] = []
    tree = _parse(snapshot_path)
    if tree is None:
        return findings

    declared: tuple[str, ...] | None = None
    declared_line = 1
    snapshot_cls: ast.ClassDef | None = None
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "SNAPSHOT_FIELDS"):
            declared_line = node.lineno
            if isinstance(node.value, ast.Tuple):
                values = [e.value for e in node.value.elts
                          if isinstance(e, ast.Constant)
                          and isinstance(e.value, str)]
                if len(values) == len(node.value.elts):
                    declared = tuple(values)
        elif isinstance(node, ast.ClassDef) and node.name == "ShardSnapshot":
            snapshot_cls = node

    if declared is None:
        findings.append(Finding(
            rule="snapshot-field-drift", severity=Severity.ERROR,
            path=rel, line=declared_line,
            message="SNAPSHOT_FIELDS is missing or is not a literal tuple "
                    "of field-name strings; the snapshot schema cannot be "
                    "audited"))
        return findings
    if snapshot_cls is None:
        findings.append(Finding(
            rule="snapshot-field-drift", severity=Severity.ERROR,
            path=rel, line=declared_line,
            message="ShardSnapshot dataclass not found; SNAPSHOT_FIELDS "
                    "describes nothing"))
        return findings

    actual = tuple(_dataclass_fields(snapshot_cls))
    if actual != declared:
        findings.append(Finding(
            rule="snapshot-field-drift", severity=Severity.ERROR,
            path=rel, line=snapshot_cls.lineno,
            message=f"ShardSnapshot fields {actual} drifted from "
                    f"SNAPSHOT_FIELDS {declared}: update both and bump "
                    f"SNAPSHOT_VERSION"))
    return findings


def audit_cache_keys(repo_root: Path) -> list[Finding]:
    """Run every cache-key/schema rule against the repo's source tree."""
    src = repo_root / "src" / "repro"
    findings: list[Finding] = []
    cache_rel = "src/repro/experiments/cache.py"
    key_findings, key_names = audit_key_classes(
        src / "experiments" / "cache.py", cache_rel)
    findings += key_findings
    findings += audit_base_helpers(
        src / "experiments" / "base.py", "src/repro/experiments/base.py",
        key_names or {"StreamKey", "GpdKey", "MonitorKey"})
    findings += audit_fault_tokens(
        src / "faults" / "model.py", "src/repro/faults/model.py")
    findings += audit_fault_tokens(
        src / "faults" / "service.py", "src/repro/faults/service.py")
    for rule, (module, _, _) in _TOKEN_RULES.items():
        findings += audit_token_discipline(
            src / module, f"src/repro/{module}", rule)
    findings += audit_snapshot_fields(
        src / "serve" / "snapshot.py", "src/repro/serve/snapshot.py")
    return findings
