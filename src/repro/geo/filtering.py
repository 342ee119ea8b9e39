"""Trajectory signal filtering (denoising).

Used by the adversary (denoising a noisy protected trace before POI
extraction is the classic counter to per-fix perturbation mechanisms) and
by on-device pre-processing in the platform layer.

Both filters reduce centred windows over the coordinate columns, every
window at once: the attacker runs this once per user-day of every
audited dataset, so it sits on PRIVAPI's critical path (one
``np.median`` call per fix and coordinate costs ~20 us each).  The
median sorts every window in one ``np.sort`` — the truncated windows at
the ends padded with NaN, which sorts last — and takes the middle; the
mean reduces the full windows of one ``sliding_window_view`` in one
call and the ``window - 1`` truncated ones one by one.
"""

from __future__ import annotations

from typing import Callable, TypeVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import TrajectoryError
from repro.geo.trajectory import TraceColumns, Trajectory

Trace = TypeVar("Trace", Trajectory, TraceColumns)


def _rolling(
    trace: Trace, window: int, reduce: Callable[[np.ndarray, int], np.ndarray]
) -> Trace:
    """``trace`` with ``reduce`` applied component-wise over centred windows.

    Window ``i`` covers fixes ``[i - window // 2, i + window // 2]`` cut at
    the ends of the trace, so the first and last ``window // 2`` outputs
    see fewer fixes.  A column slice comes back as a column slice, a
    trajectory as a trajectory.
    """
    if window < 1 or window % 2 == 0:
        raise TrajectoryError(f"window must be odd and >= 1: {window}")
    if window == 1 or len(trace.time) <= 2:
        return trace
    return trace.with_positions(*reduce(np.stack((trace.lat, trace.lon)), window))


def _median(positions: np.ndarray, window: int) -> np.ndarray:
    """Every window's median of the ``(2, n)`` ``positions``, from one sort.

    A window of ``m`` fixes (fewer at the ends, whose NaN padding sorts
    last) has its median at the mean of its two middle fixes, ``(a +
    b) / 2.0``: the bits ``np.median`` computes, and ``a`` itself when
    ``m`` is odd.  A window holding a NaN fix is NaN, as in ``np.median``.
    """
    n, half = positions.shape[1], window // 2
    padded = np.pad(positions, ((0, 0), (half, half)), constant_values=np.nan)
    ordered = np.sort(sliding_window_view(padded, window, axis=1), axis=2)
    rows = np.arange(n)
    m = np.minimum(rows, half) + 1 + np.minimum(n - 1 - rows, half)
    filtered = (ordered[:, rows, (m - 1) // 2] + ordered[:, rows, m // 2]) / 2.0
    missing = np.isnan(positions)
    if missing.any():
        padded = np.pad(missing, ((0, 0), (half, half)))
        filtered[sliding_window_view(padded, window, axis=1).any(axis=2)] = np.nan
    return filtered


def _mean(positions: np.ndarray, window: int) -> np.ndarray:
    """Every window's mean of the ``(2, n)`` ``positions``."""
    n, half = positions.shape[1], window // 2
    filtered = np.empty_like(positions)
    if n >= window:
        filtered[:, half : n - half] = np.mean(
            sliding_window_view(positions, window, axis=1), axis=2
        )
    for index in (*range(min(half, n)), *range(max(half, n - half), n)):
        filtered[:, index] = np.mean(
            positions[:, max(0, index - half) : index + half + 1], axis=1
        )
    return filtered


def rolling_median(trace: Trace, window: int) -> Trace:
    """Component-wise rolling median over ``window`` records.

    The median is robust to the heavy-tailed displacement of planar
    Laplace noise; at a stop the filtered fix converges on the true
    anchor at rate ~1/sqrt(window), which is exactly why
    geo-indistinguishability fails to hide POIs (experiment E2).

    ``window`` must be odd and >= 1; ``window=1`` is the identity.
    """
    return _rolling(trace, window, _median)


def rolling_mean(trace: Trace, window: int) -> Trace:
    """Component-wise rolling mean; cheaper but less robust than median."""
    return _rolling(trace, window, _mean)
