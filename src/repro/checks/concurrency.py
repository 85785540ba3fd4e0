"""Concurrency/IPC lint: AST rules over the fleet-serving layers.

The ``serve`` and ``telemetry`` packages are the only parts of the repo
that cross process boundaries, and the defect classes that break them
are statically recognizable.  Six rules:

``fork-unsafe-global``
    Module-level mutable state (a dict/list/set binding, or a
    constructor call) is silently duplicated into every forked worker;
    mutations after the fork diverge between processes.  Literal
    bindings under CONSTANT_CASE names are exempt (convention: never
    mutated); anything else needs an ``allow`` with a justification of
    its fork story.
``queue-no-timeout``
    A blocking ``.put``/``.get`` on a queue without a ``timeout=``
    deadlocks forever when the peer process is dead.  The rule keys on
    queue-named receivers (``q``, ``*_q`` such as ``in_q``/``out_q``,
    ``*queue*``);
    ``put_nowait``/``get_nowait`` are explicitly non-blocking and fine.
    A ``send`` on a worker's ack pipe is out of its scope: the
    supervisor waits on that pipe together with the worker's process
    sentinel, so a dead peer is seen rather than waited on.
``message-field-unpicklable``
    A wire-message dataclass field annotated with a callable, lock,
    queue, process or file handle cannot cross a ``multiprocessing``
    pipe (or does so by accident, dragging live state along).
``message-schema-drift``
    Every message dataclass must appear in the module's
    ``MESSAGE_SCHEMA`` registry with exactly its field tuple, and the
    module must carry an integer ``PROTOCOL_VERSION`` — unversioned
    messages make rolling restarts silently unpickle stale layouts.
``signal-handler-blocking``
    A handler registered via ``signal.signal`` runs between any two
    bytecodes; calling anything blocking (sleep/join/acquire/queue ops)
    inside it can deadlock the interpreter.  Handlers should set a flag
    and return (exactly what ``worker_main`` does).
``unreaped-worker``
    A module that spawns ``Process`` workers must also contain the
    reaping ladder — ``join`` plus ``terminate``/``kill`` — somewhere
    in its shutdown paths, or dead children linger and interpreter
    exit can hang on them.
"""

from __future__ import annotations

import ast
import re

from repro.checks.findings import Finding, Severity

__all__ = ["ConcurrencyLint", "lint_concurrency", "audit_messages",
           "CONCURRENCY_PATHS"]

#: Package prefixes (repo-relative) the lint applies to.
CONCURRENCY_PATHS = ("src/repro/serve/", "src/repro/telemetry/")

#: Receivers that look like queues; dict/attribute ``.get`` elsewhere
#: is out of scope (the rule aims at IPC endpoints, not mappings).
_QUEUE_NAME = re.compile(r"(^|_)(in_q|out_q|q|queue)$|queue", re.IGNORECASE)

#: CONSTANT_CASE module bindings are read-only by convention.
_CONSTANT_NAME = re.compile(r"^_?[A-Z][A-Z0-9_]*$")

#: Constructor calls whose results are mutable containers.
_MUTABLE_CONSTRUCTORS = frozenset({
    "list", "dict", "set", "deque", "defaultdict", "OrderedDict",
    "Counter",
})

#: Constructors whose results are immutable (or effectively so) and
#: safe as CONSTANT_CASE module bindings.
_IMMUTABLE_CONSTRUCTORS = frozenset({
    "frozenset", "tuple", "namedtuple", "MappingProxyType", "Struct",
    "compile",
})

#: Annotation identifiers that cannot (or must not) cross a pipe.
_UNPICKLABLE_TYPES = frozenset({
    "Callable", "Lock", "RLock", "Condition", "Semaphore", "Event",
    "Queue", "SimpleQueue", "JoinableQueue", "Thread", "Process",
    "Pool", "Connection", "IO", "TextIO", "BinaryIO", "Generator",
    "Iterator", "Iterable",
})

#: Blocking call names forbidden inside signal handlers.
_BLOCKING_IN_HANDLER = frozenset({
    "sleep", "join", "acquire", "wait", "get", "put", "recv", "send",
    "select", "open", "flush",
})


def _receiver_name(func: ast.expr) -> str | None:
    """The attribute/name a method is called on, e.g. ``out_q``."""
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Name):
        return value.id
    return None


class ConcurrencyLint(ast.NodeVisitor):
    """One-file AST walk emitting concurrency findings."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: list[Finding] = []
        self._depth = 0  # >0 inside a function/class body
        self._handler_names: set[str] = set()
        self._spawn_nodes: list[ast.Call] = []
        self._reap_calls: set[str] = set()

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            rule=rule, severity=Severity.ERROR, path=self.path,
            line=getattr(node, "lineno", 0), message=message))

    # -- fork-unsafe module state ---------------------------------------------

    def _check_module_binding(self, node: ast.stmt, target: ast.expr,
                              value: ast.expr | None) -> None:
        if not isinstance(target, ast.Name) or value is None:
            return
        name = target.id
        if name.startswith("__") and name.endswith("__"):
            return  # dunders (__all__ et al.) are interpreter surface
        literal = isinstance(value, (ast.Dict, ast.List, ast.Set,
                                     ast.DictComp, ast.ListComp,
                                     ast.SetComp))
        call = isinstance(value, ast.Call)
        if not literal and not call:
            return
        if literal and _CONSTANT_NAME.match(name):
            return  # convention: CONSTANT_CASE literals are never mutated
        if call:
            func = value.func
            callee = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else "")
            if callee not in _MUTABLE_CONSTRUCTORS \
                    and not callee[:1].isupper():
                return  # factory functions returning immutables
            if _CONSTANT_NAME.match(name) \
                    and callee in _IMMUTABLE_CONSTRUCTORS:
                return
        self._emit(
            "fork-unsafe-global", node,
            f"module-level mutable binding {name!r} is duplicated into "
            f"every forked worker; move it into an object owned by one "
            f"process, or annotate its fork story")

    # -- visitors --------------------------------------------------------------

    def visit_Module(self, node: ast.Module) -> None:
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    self._check_module_binding(stmt, target, stmt.value)
            elif isinstance(stmt, ast.AnnAssign):
                self._check_module_binding(stmt, stmt.target, stmt.value)
        self.generic_visit(node)

    def _enter_scope(self, node: ast.AST) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_scope(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._enter_scope(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # signal.signal(SIG, handler) registration
        if isinstance(func, ast.Attribute) and func.attr == "signal" \
                and isinstance(func.value, ast.Name) \
                and func.value.id == "signal" and len(node.args) == 2:
            handler = node.args[1]
            if isinstance(handler, ast.Name):
                self._handler_names.add(handler.id)
        if isinstance(func, ast.Attribute):
            if func.attr in ("put", "get"):
                receiver = _receiver_name(func)
                if receiver is not None and _QUEUE_NAME.search(receiver):
                    has_timeout = any(kw.arg == "timeout"
                                      for kw in node.keywords)
                    has_block_flag = any(kw.arg == "block"
                                         for kw in node.keywords)
                    if not has_timeout and not has_block_flag:
                        self._emit(
                            "queue-no-timeout", node,
                            f"blocking .{func.attr}() on {receiver!r} "
                            f"without a timeout deadlocks when the peer "
                            f"process dies; pass timeout= (or use "
                            f"{func.attr}_nowait and justify with an "
                            f"allow comment why blocking is safe)")
            if func.attr == "Process":
                self._spawn_nodes.append(node)
            if func.attr in ("join", "terminate", "kill"):
                self._reap_calls.add(func.attr)
        elif isinstance(func, ast.Name) and func.id == "Process":
            self._spawn_nodes.append(node)
        self.generic_visit(node)

    def finish(self, tree: ast.Module) -> None:
        """Whole-file rules that need the completed walk."""
        if self._spawn_nodes:
            if "join" not in self._reap_calls or not (
                    {"terminate", "kill"} & self._reap_calls):
                self._emit(
                    "unreaped-worker", self._spawn_nodes[0],
                    "this module spawns worker processes but lacks the "
                    "reaping ladder (join plus terminate/kill); dead "
                    "children will wedge interpreter exit")
        if self._handler_names:
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) \
                        and node.name in self._handler_names:
                    self._check_handler(node)

    def _check_handler(self, handler: ast.FunctionDef) -> None:
        for node in ast.walk(handler):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else "")
            if name in _BLOCKING_IN_HANDLER:
                self._emit(
                    "signal-handler-blocking", node,
                    f"signal handler {handler.name!r} calls blocking "
                    f"{name}(); handlers must only set a flag and "
                    f"return")


def lint_concurrency(path: str, source: str) -> list[Finding]:
    """Run the concurrency rules over one file's source."""
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return []  # the determinism lint already reports parse-error
    lint = ConcurrencyLint(path)
    lint.visit(tree)
    lint.finish(tree)
    return lint.findings


# -- the message-module audit -------------------------------------------------


def _annotation_names(node: ast.expr) -> set[str]:
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.Constant) \
                and isinstance(child.value, str):
            # string annotations ("Callable[...]") still carry names
            names.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*",
                                    child.value))
    return names


def audit_messages(path: str, source: str) -> list[Finding]:
    """Picklability + schema-registry rules for ``serve/messages.py``."""
    findings: list[Finding] = []
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return []

    version_ok = False
    schema: dict[str, tuple[str, ...]] | None = None
    schema_line = 0
    messages: dict[str, tuple[ast.ClassDef, tuple[str, ...]]] = {}

    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            is_dataclass = any(
                (isinstance(dec, ast.Name) and dec.id == "dataclass")
                or (isinstance(dec, ast.Call)
                    and isinstance(dec.func, ast.Name)
                    and dec.func.id == "dataclass")
                for dec in node.decorator_list)
            if not is_dataclass:
                continue
            fields: list[str] = []
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) \
                        and isinstance(stmt.target, ast.Name):
                    fields.append(stmt.target.id)
                    bad = _annotation_names(stmt.annotation) \
                        & _UNPICKLABLE_TYPES
                    if bad:
                        findings.append(Finding(
                            rule="message-field-unpicklable",
                            severity=Severity.ERROR, path=path,
                            line=stmt.lineno,
                            message=f"{node.name}.{stmt.target.id} is "
                                    f"annotated with "
                                    f"{', '.join(sorted(bad))}, which "
                                    f"cannot safely cross a process "
                                    f"boundary"))
            messages[node.name] = (node, tuple(fields))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            if isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets
                           if isinstance(t, ast.Name)]
                value = node.value
            else:
                targets = ([node.target.id]
                           if isinstance(node.target, ast.Name) else [])
                value = node.value
            if "PROTOCOL_VERSION" in targets \
                    and isinstance(value, ast.Constant) \
                    and isinstance(value.value, int):
                version_ok = True
            if "MESSAGE_SCHEMA" in targets \
                    and isinstance(value, ast.Dict):
                schema = {}
                schema_line = node.lineno
                for key, entry in zip(value.keys, value.values):
                    if isinstance(key, ast.Constant) \
                            and isinstance(key.value, str) \
                            and isinstance(entry, ast.Tuple):
                        schema[key.value] = tuple(
                            e.value for e in entry.elts
                            if isinstance(e, ast.Constant)
                            and isinstance(e.value, str))

    if not messages:
        return findings
    if not version_ok:
        findings.append(Finding(
            rule="message-schema-drift", severity=Severity.ERROR,
            path=path, line=0,
            message="message module has no integer PROTOCOL_VERSION; "
                    "the wire protocol is unversioned"))
    if schema is None:
        findings.append(Finding(
            rule="message-schema-drift", severity=Severity.ERROR,
            path=path, line=0,
            message="message module has no MESSAGE_SCHEMA registry; "
                    "receivers cannot validate payload layouts"))
        return findings
    for name, (node, fields) in sorted(messages.items()):
        declared = schema.get(name)
        if declared is None:
            findings.append(Finding(
                rule="message-schema-drift", severity=Severity.ERROR,
                path=path, line=node.lineno,
                message=f"message {name} missing from MESSAGE_SCHEMA"))
        elif declared != fields:
            findings.append(Finding(
                rule="message-schema-drift", severity=Severity.ERROR,
                path=path, line=node.lineno,
                message=f"MESSAGE_SCHEMA[{name!r}] {declared} drifted "
                        f"from the dataclass fields {fields}; update "
                        f"both and bump PROTOCOL_VERSION"))
    for name in sorted(set(schema) - set(messages)):
        findings.append(Finding(
            rule="message-schema-drift", severity=Severity.ERROR,
            path=path, line=schema_line,
            message=f"MESSAGE_SCHEMA entry {name!r} has no message "
                    f"dataclass; remove the stale entry"))
    return findings
