"""Change-point-detection subsystem (ROADMAP item 3).

The modern statistical counterpart to the paper's LPD/GPD detectors:

* :mod:`repro.cpd.detectors` — online E-divisive-means and CUSUM
  detectors implementing the ``LocalPhaseDetector`` observe contract,
  so they plug into the region monitor, ``OnlineSession``, the watchdog
  and telemetry via the existing ``detector_factory`` hook;
* :mod:`repro.cpd.energy` — the energy-statistic split scan and
  permutation test shared by the online and offline detectors;
* :mod:`repro.cpd.offline` — hierarchical offline E-divisive for
  complete scalar series;
* :mod:`repro.cpd.hunt` — the `repro-bench hunt` CLI: Hunter-style
  regression detection over the committed ``BENCH_*.json`` snapshots
  of per-benchmark medians, segmented by machine.

The head-to-head scoring against LPD/GPD lives in
:mod:`repro.experiments.extra_cpd` (``repro-experiments cpd``).
"""

from repro.cpd.config import CpdThresholds
from repro.cpd.detectors import (ChangePointDetector, CpdObservation,
                                 CusumDetector, EDivisiveDetector,
                                 cpd_detector_factory)
from repro.cpd.energy import (best_split, pairwise_distances,
                              permutation_pvalue, split_statistics)
from repro.cpd.hunt import hunt_report, machine_fingerprint
from repro.cpd.offline import ChangePoint, e_divisive

__all__ = [
    "CpdThresholds",
    "ChangePointDetector", "CpdObservation", "EDivisiveDetector",
    "CusumDetector", "cpd_detector_factory",
    "pairwise_distances", "split_statistics", "best_split",
    "permutation_pvalue",
    "ChangePoint", "e_divisive",
    "hunt_report", "machine_fingerprint",
]
