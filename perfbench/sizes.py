"""Validation shared by the workloads' ``Size`` dataclasses."""

from __future__ import annotations


def positive_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def scale(name: str, value) -> None:
    """A workload-duration multiplier: a number in (0, 1]."""
    if isinstance(value, bool) or not (isinstance(value, (int, float))
                                       and 0.0 < value <= 1.0):
        raise ValueError(f"{name} must lie in (0, 1], got {value!r}")
