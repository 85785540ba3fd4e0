"""Supervisor-side sample journal: the replay source for recovery.

Every batch a shard accepts is appended here *before* it is staged for
its round, keyed by the shard-local sequence.  The entry's samples are
the one copy the supervisor makes of a submitted batch: read-only, and
shared with the ``Batch`` the round carries.  When a worker dies, the
supervisor respawns it, learns the sequence its restored snapshot
covers (``WorkerStarted.restored_seq``) and replays every entry after
it that had been sent, in rounds — the worker's per-stream dedupe
cursors make the overlap with any stale in-flight rounds harmless.

Entries are dropped only once they are covered by the shard's
*second-newest* snapshot (:meth:`SnapshotStore.safe_truncation_seq`),
so recovery still works when the newest snapshot is torn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ServeError

__all__ = ["JournalEntry", "ShardJournal"]


@dataclass(frozen=True)
class JournalEntry:
    """One accepted batch, exactly as the worker receives it."""

    seq: int
    stream: str
    stream_seq: int
    samples: np.ndarray


class ShardJournal:
    """Ordered in-memory journal of one shard's accepted batches."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self._entries: list[JournalEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def max_seq(self) -> int:
        """Highest journaled sequence (-1 when empty)."""
        return self._entries[-1].seq if self._entries else -1

    def append(self, seq: int, stream: str, stream_seq: int,
               samples: np.ndarray) -> JournalEntry:
        """Record a read-only copy of one batch; sequences must increase."""
        if seq <= self.max_seq:
            raise ServeError(
                f"journal for shard {self.shard_id} got seq {seq} after "
                f"{self.max_seq}; dispatch sequences must increase")
        copy = np.array(samples, dtype=np.int64)
        copy.flags.writeable = False
        entry = JournalEntry(seq=seq, stream=stream, stream_seq=stream_seq,
                             samples=copy)
        self._entries.append(entry)
        return entry

    def entries_after(self, seq: int) -> list[JournalEntry]:
        """Every retained entry with a sequence greater than *seq*."""
        return [entry for entry in self._entries if entry.seq > seq]

    def truncate_through(self, seq: int) -> int:
        """Drop entries with sequence <= *seq*; returns how many."""
        kept = [entry for entry in self._entries if entry.seq > seq]
        dropped = len(self._entries) - len(kept)
        self._entries = kept
        return dropped
