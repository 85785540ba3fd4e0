"""NumPy-vectorized batch backend: many streams/regions in lockstep.

The scalar detectors (:mod:`repro.core.lpd`, :mod:`repro.core.gpd`)
process one region or one stream per Python call.  This package advances
*populations* of detectors per call instead — per-region stable-set and
current-interval histograms stacked into 2-D arrays, Pearson's r computed
for every region of every stream in one shot, centroid/band updates for
all streams at once, and the Fig-12/Fig-1 state machines stepped through
integer state vectors compiled from the declarative
:func:`~repro.core.states.lpd_machine_spec` /
:func:`~repro.core.states.gpd_machine_spec` tables.

The contract is strict bit-equality with the scalar path: identical
phase-change indices, state trajectories, stable-set freezes and
deoptimization events, enforced by the conformance oracle in
``tests/conformance/``.  The batch backend is an optimization, never a
semantic fork: the scalar pipeline stays the oracle it is compared
against.

Entry points:

* :class:`BatchSession` — the engine's one driver: N
  :class:`~repro.monitor.online.OnlineSession`-equivalent pipelines, each
  added with :meth:`~BatchSession.add_lane`, fed with
  :meth:`~BatchLane.feed_many` / :meth:`~BatchLane.feed_stream` and
  advanced in lockstep by :meth:`~BatchSession.process_ready`, with
  per-lane telemetry buses;
* the low-level :class:`BatchLpdBank` / :class:`BatchGpdBank` for custom
  harnesses, with :class:`LpdRowGroup` / :class:`GpdRowGroup` pinning
  fixed populations onto the compiled block-stepping fast path,
  :class:`ShardRing` queueing samples zero-copy, and
  :class:`FleetRegrouper` re-coalescing churned fleets
  (:mod:`repro.batch.compiled` holds the row-wise NumPy kernels).
"""

from repro.batch.gpd import (BatchGlobalPhaseDetector, BatchGpdBank,
                             GpdRowGroup)
from repro.batch.lpd import (BatchLocalPhaseDetector, BatchLpdBank,
                             LpdRowGroup)
from repro.batch.regroup import FleetRegrouper
from repro.batch.rings import ShardRing
from repro.batch.session import BatchLane, BatchSession

__all__ = [
    "BatchGlobalPhaseDetector",
    "BatchGpdBank",
    "BatchLocalPhaseDetector",
    "BatchLpdBank",
    "BatchLane",
    "BatchSession",
    "FleetRegrouper",
    "GpdRowGroup",
    "LpdRowGroup",
    "ShardRing",
]
