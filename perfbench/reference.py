"""The host's current speed, read from a fixed reference loop.

On top of its short slow episodes (see ``measure.best_steps``), the host
these numbers come from drifts in speed by 20% and more over minutes, so a
whole run can sit in a slow stretch.  The benchmark therefore times a
fixed loop of plain Python work before every pass — object creation,
attribute reads and dict updates, the kind of work the program's scalar
layers do.  For a workload whose time goes to the interpreter
(``INTERPRETER_BOUND``), every end-to-end time is scaled by
``NOMINAL_S`` over the loop's fastest time in the run; it then reads as
seconds on a host that runs the loop in ``NOMINAL_S``.  Set-up is
interpreter work on every workload: each set-up is scaled by a reading
taken just before it.

The loop runs in the measuring process, so it shares that process's
interpreter: a change that slows every line of Python in it alike (a
profiling hook, a busy background thread) slows the loop as well and is
hidden from the scaled metrics.  The raw pass times are printed beside
them, and the traced run's busy times are not scaled.
"""

from __future__ import annotations

import time

#: The loop's fastest time on the host the bounds were set on (a 2-vCPU
#: Xeon VM); a scaled time equals the raw one on a host this fast.
NOMINAL_S = 5.5e-4

#: Timings per reading; a reading is their fastest.
REPEATS = 10

ITEMS = 2000


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = 2 * key


def loop_s() -> float:
    """One timing of the reference loop."""
    started = time.perf_counter()
    totals: dict[int, int] = {}
    for item in [_Item(key) for key in range(ITEMS)]:
        totals[item.key & 127] = totals.get(item.key & 127, 0) + item.value
    return time.perf_counter() - started


def reading_s() -> float:
    """The loop's fastest time over ``REPEATS`` timings."""
    return min(loop_s() for _ in range(REPEATS))


def scale(fastest_s: float) -> float:
    """The factor from seconds at loop time *fastest_s* to nominal seconds."""
    return NOMINAL_S / fastest_s
