"""Experiment harness: one module per reproduced figure of the paper.

Figures 1 and 12 are state diagrams, reproduced as code
(:mod:`repro.core.gpd`, :mod:`repro.core.lpd`); every data figure has a
module here, a shape test in ``tests/experiments/test_experiments.py``
and committed full-scale rows in ``results/``.
"""

from repro.experiments import (fig02_mcf_region_chart,  # noqa: F401
                               fig03_gpd_phase_changes,
                               fig04_gpd_stable_time,
                               fig05_facerec_region_chart, fig06_ucr_median,
                               fig07_ucr_over_time,
                               fig08_pearson_properties, fig09_mcf_regions,
                               fig10_mcf_correlation, fig11_gap_regions,
                               fig13_lpd_phase_changes,
                               fig14_lpd_stable_time, fig15_cost,
                               fig16_interval_tree, fig17_speedup)
from repro.experiments.base import ExperimentResult
from repro.experiments.config import (BASE_PERIOD, GPD_PERIODS, RTO_PERIODS,
                                      ExperimentConfig)

__all__ = [
    "ExperimentResult",
    "ExperimentConfig",
    "BASE_PERIOD",
    "GPD_PERIODS",
    "RTO_PERIODS",
]
