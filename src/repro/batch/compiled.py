"""Row-wise NumPy kernels for the batch interval hot path.

Every kernel here is bit-identical to its scalar counterpart.  NumPy
reduces float64 arrays with pairwise summation, and the reduction tree
depends only on the number of elements reduced: ``X.sum(axis=1)`` over
a block with unit inner stride reduces each row through exactly the
tree ``X[i].sum()`` uses for the 1-D row.  Zero-padding rows would
change the element count and therefore the tree, so callers never pad:
LPD detector rows are grouped by exact histogram width
(:mod:`repro.batch.lpd`) and GPD history rows by exact fill count
(:mod:`repro.batch.gpd`).  Elementwise arithmetic (``+ - * /``,
``sqrt``, comparisons) is IEEE-754 double in NumPy and pure Python
alike, so replaying the scalar operation sequence per row yields the
same bits, which the bank suites in ``tests/batch/`` and the
conformance oracle in ``tests/conformance/`` assert.
"""

from __future__ import annotations

import numpy as np

from repro.core.correlation import _degenerate_r

__all__ = ["kernel_backend", "pearson_cached", "centroid_rows",
           "band_stats_rows", "lpd_step", "fsm_step", "gpd_classify"]

#: np.allclose defaults, used by the scalar degenerate-case resolution.
_ALLCLOSE_RTOL = 1.0e-5
_ALLCLOSE_ATOL = 1.0e-8


def kernel_backend() -> str:
    """Name of the kernel implementation, recorded in benchmark receipts."""
    return "numpy"


def _degenerate_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise :func:`repro.core.correlation._degenerate_r`.

    The scalar resolves zero-variance pairs with
    ``np.allclose(v, v[0])`` per side; this replicates the finite-input
    formula ``|v_i - v_0| <= atol + rtol * |v_0|`` vectorized, and falls
    back to the scalar helper for rows containing non-finite values
    (np.allclose treats those by equality, not tolerance).
    """
    finite = np.isfinite(x).all(axis=1) & np.isfinite(y).all(axis=1)
    x0 = x[:, :1]
    y0 = y[:, :1]
    x_flat = np.all(np.abs(x - x0) <= _ALLCLOSE_ATOL
                    + _ALLCLOSE_RTOL * np.abs(x0), axis=1)
    y_flat = np.all(np.abs(y - y0) <= _ALLCLOSE_ATOL
                    + _ALLCLOSE_RTOL * np.abs(y0), axis=1)
    out = np.where(x_flat & y_flat, 1.0, 0.0)
    if not finite.all():
        for i in np.flatnonzero(~finite):
            out[i] = _degenerate_r(x[i], y[i])
    return out


def pearson_cached(stable: np.ndarray, current: np.ndarray,
                   sum_x: np.ndarray, sum_x2: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pearson's r per row, bit-identical to ``pearson_r(row_x, row_y)``.

    *stable* and *current* are ``(k, n)`` float64 blocks with unit inner
    stride: one stable-set and one current-interval histogram per row.
    *sum_x* / *sum_x2* must be bitwise what ``stable.sum(axis=1)`` and
    ``(stable * stable).sum(axis=1)`` would return; the LPD bank caches
    them per stable-set slot.  Returns ``(r, sum_y, sum_y2)``: the
    current-side sums let the caller refresh its cache for rows whose
    stable set is being replaced by *current* (same data, same reduction
    tree, same bits as recomputing later).

    Rows with zero or non-finite variance on either side resolve by the
    detector's convention (both flat -> 1.0, else 0.0).  That includes
    every row of width one, whose variance ``x*x - x*x/1`` is exactly 0.
    """
    n = stable.shape[1]
    # Undefined rows produce nan/inf here and are resolved below, so
    # their warnings are noise.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        sum_y = current.sum(axis=1)
        sum_xy = (stable * current).sum(axis=1)
        sum_y2 = (current * current).sum(axis=1)
        var_x = sum_x2 - (sum_x * sum_x) / n
        var_y = sum_y2 - (sum_y * sum_y) / n
        r = (sum_xy - (sum_x * sum_y) / n) / np.sqrt(var_x * var_y)
        np.maximum(r, -1.0, out=r)
        np.minimum(r, 1.0, out=r)
        defined = (np.isfinite(var_x) & np.isfinite(var_y)
                   & (var_x > 0.0) & (var_y > 0.0))
    if not defined.all():
        undefined = ~defined
        r[undefined] = _degenerate_rows(stable[undefined],
                                        current[undefined])
    return r, sum_y, sum_y2


def centroid_rows(block: np.ndarray) -> np.ndarray:
    """Mean PC per row, bit-identical to ``centroid(row)``.

    *block* is ``(k, B)``, any integer or float dtype with unit inner
    stride (ring-buffer column slices qualify).  NumPy's cast-and-reduce
    accumulates in float64 and produces the same bits as converting the
    row first (PCs are far below 2**53), without a converted copy.
    """
    return block.mean(axis=1)


def band_stats_rows(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(expectation, sd) per row of an equal-fill centroid-history block.

    *block* is ``(k, n)`` float64 with ``n >= 2``: the retained centroids
    of k detectors, oldest first, all with the same fill count.  Matches
    ``CentroidHistory.band()``: population mean and standard deviation
    (ddof=0) over the retained values.
    """
    return block.mean(axis=1), block.std(axis=1)


def lpd_step(before: np.ndarray, r: np.ndarray, threshold: np.ndarray,
             similar_input: int, dissimilar_input: int,
             next_state: np.ndarray, phase_change: np.ndarray,
             updates_stable_set: np.ndarray, stable: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One fused LPD transition per row: classify r, step the tables.

    Returns ``(after, changed, updated, frozen)`` — successor states,
    phase-change flags, stable-set-update flags and the froze-this-step
    flags (``changed & stable[after]``).
    """
    inputs = np.where(r >= threshold, similar_input, dissimilar_input)
    after = next_state[before, inputs]
    changed = phase_change[before, inputs]
    updated = updates_stable_set[before, inputs]
    frozen = changed & stable[after]
    return after, changed, updated, frozen


def fsm_step(before: np.ndarray, inputs: np.ndarray,
             next_state: np.ndarray, phase_change: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Generic table step: ``(after, changed)`` for precomputed inputs."""
    return next_state[before, inputs], phase_change[before, inputs]


def gpd_classify(ratio: np.ndarray, thin: np.ndarray, banded: np.ndarray,
                 th1: np.ndarray, th2: np.ndarray, th3: np.ndarray,
                 th4: np.ndarray, no_band_input: int) -> np.ndarray:
    """Map drift ratios to GPD input-class indices.

    Implements the paper's bucket scheme: five drift buckets split by
    TH1..TH4, each doubled by the thin/thick band flag, plus the
    ``no_band`` class for rows without two retained centroids.  Input
    indices follow the spec's input ordering (``no_band`` first, then
    bucket-major thin/thick pairs).
    """
    bucket = np.full(ratio.size, 4, dtype=np.int64)
    bucket[ratio <= th4] = 3
    bucket[ratio <= th3] = 2
    bucket[ratio <= th2] = 1
    bucket[ratio <= th1] = 0
    inputs = 1 + 2 * bucket + np.where(thin, 0, 1)
    inputs[~banded] = no_band_input
    return inputs
