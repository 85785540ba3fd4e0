"""In-memory span recorder that times calls into repro's layers from outside.

The recorder replaces entry points with timing wrappers — methods on their
class, module functions in every loaded module that bound them by name —
so the program under test is not edited and no call site escapes.  Each
call becomes one span (name, start, end, parent); spans stay in memory
until the run ends.

Forked children (the serve layer's shard workers) inherit the wrappers.
After a fork the child starts an empty span list and writes it to
``<handoff_dir>/spans-<pid>.json`` when it exits cleanly, or earlier when
a hook knows the process is about to die (see :meth:`SpanRecorder.dump`).
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

__all__ = ["Span", "EntryPoint", "SpanRecorder", "self_times",
           "top_level_busy", "load_handoff"]


@dataclass(frozen=True)
class Span:
    """One timed call: *parent* indexes the enclosing span, -1 at top."""

    name: str
    start: float
    end: float
    parent: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class EntryPoint:
    """A callable to time: ``qualname`` is ``Class.method`` or ``function``.

    *observe*, when given, is called as ``observe(recorder, args, result)``
    after every call so counts are taken where the work happens.
    """

    span: str
    module: str
    qualname: str
    observe: Callable[["SpanRecorder", tuple, Any], None] | None = None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


def top_level_busy(spans: Iterable[Span]) -> float:
    """Seconds covered by top-level spans (they never overlap)."""
    return sum(span.duration for span in spans if span.parent < 0)


class SpanRecorder:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self, handoff_dir: str | Path | None = None) -> None:
        self.handoff_dir = None if handoff_dir is None else Path(handoff_dir)
        self.counters: dict[str, float] = {}
        self._records: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []
        self._restore: list[Callable[[], None]] = []
        multiprocessing.util.register_after_fork(self, SpanRecorder._forked)

    # -- recording ------------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @property
    def spans(self) -> list[Span]:
        """Spans in start order; one still open reads as zero-length."""
        return [Span(name, start, start if end is None else end, parent)
                for name, start, end, parent in self._records]

    def wrap(self, name: str, fn: Callable,
             observe: Callable[["SpanRecorder", tuple, Any], None] | None
             = None) -> Callable:
        """*fn* timed as span *name*; a same-name call inside it is not."""
        records = self._records
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if stack and records[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            index = len(records)
            records.append([name, clock(), None,
                            stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                records[index][2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return timed

    # -- installation ---------------------------------------------------------

    def install(self, entry_points: Iterable[EntryPoint]) -> None:
        """Replace every entry point with its timing wrapper."""
        for entry in entry_points:
            module = importlib.import_module(entry.module)
            owner_name, _, attr = entry.qualname.rpartition(".")
            if owner_name:
                self._patch_method(getattr(module, owner_name), attr, entry)
            else:
                self._patch_function(getattr(module, attr), entry)

    def _patch_method(self, cls: type, attr: str, entry: EntryPoint) -> None:
        had_own = attr in cls.__dict__
        original = cls.__dict__.get(attr)
        setattr(cls, attr, self.wrap(entry.span, getattr(cls, attr),
                                     entry.observe))

        def restore() -> None:
            if had_own:
                setattr(cls, attr, original)
            else:
                delattr(cls, attr)

        self._restore.append(restore)

    def _patch_function(self, fn: Callable, entry: EntryPoint) -> None:
        """Rebind *fn* in every loaded module that holds it by name."""
        wrapper = self.wrap(entry.span, fn, entry.observe)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._restore.append(
                        functools.partial(setattr, module, attr, fn))

    def uninstall(self) -> None:
        """Put every original callable back."""
        while self._restore:
            self._restore.pop()()

    # -- process hand-off -----------------------------------------------------

    def _forked(self) -> None:
        """In a forked child: start empty and hand spans back at exit."""
        self._records.clear()
        self._stack.clear()
        self.counters.clear()
        if self.handoff_dir is not None and self._restore:
            multiprocessing.util.Finalize(self, self.dump, exitpriority=100)

    def dump(self) -> None:
        """Write this process's spans and counters for the parent to read.

        Safe to call more than once: a later call overwrites the file with
        everything recorded so far.
        """
        if self.handoff_dir is None:
            return
        path = self.handoff_dir / f"spans-{os.getpid()}.json"
        payload = {"spans": [[s.name, s.start, s.end, s.parent]
                             for s in self.spans],
                   "counters": self.counters}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        tmp.replace(path)


def load_handoff(handoff_dir: str | Path
                 ) -> list[tuple[list[Span], dict[str, float]]]:
    """Every child's ``(spans, counters)`` written by :meth:`dump`."""
    loaded = []
    for path in sorted(Path(handoff_dir).glob("spans-*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        spans = [Span(name, start, end, parent)
                 for name, start, end, parent in payload["spans"]]
        loaded.append((spans, payload["counters"]))
    return loaded
