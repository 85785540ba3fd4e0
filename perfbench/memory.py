"""Peak resident memory per pass, read from Linux's ``/proc``.

Writing ``5`` to ``/proc/self/clear_refs`` resets the process's peak RSS
to its current RSS, so each pass's peak can be read on its own and a run
can report the median pass rather than whichever pass happened to
fragment the heap most.  Where the reset is refused, peaks accumulate
over the run instead.
"""

from __future__ import annotations


def reset_peak_rss() -> None:
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak RSS of *pid* since its start or last reset, in MiB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0
