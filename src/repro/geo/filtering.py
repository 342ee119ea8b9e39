"""Trajectory signal filtering (denoising).

Used by the adversary (denoising a noisy protected trace before POI
extraction is the classic counter to per-fix perturbation mechanisms) and
by on-device pre-processing in the platform layer.

Both filters are one rolling-window kernel over the coordinate columns:
every full window is a row of one ``sliding_window_view`` reduced in a
single call, and only the ``window - 1`` truncated windows at the two
ends are reduced one by one.  The attacker runs this once per user-day
of every audited dataset, so it sits on PRIVAPI's critical path: one
``np.median`` call per fix and coordinate costs ~20 us each, which is
why the windows are reduced together.
"""

from __future__ import annotations

from typing import Callable, TypeVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import TrajectoryError
from repro.geo.trajectory import TraceColumns, Trajectory

Trace = TypeVar("Trace", Trajectory, TraceColumns)


def _rolling(trace: Trace, window: int, reduce: Callable[..., np.ndarray]) -> Trace:
    """``trace`` with ``reduce`` applied component-wise over centred windows.

    Window ``i`` covers fixes ``[i - window // 2, i + window // 2]`` cut at
    the ends of the trace, so the first and last ``window // 2`` outputs
    see fewer fixes.  A column slice comes back as a column slice, a
    trajectory as a trajectory.
    """
    if window < 1 or window % 2 == 0:
        raise TrajectoryError(f"window must be odd and >= 1: {window}")
    n = len(trace.time)
    if window == 1 or n <= 2:
        return trace
    half = window // 2
    positions = np.stack((trace.lat, trace.lon))
    filtered = np.empty_like(positions)
    if n >= window:
        filtered[:, half : n - half] = reduce(
            sliding_window_view(positions, window, axis=1), axis=2
        )
    for index in (*range(min(half, n)), *range(max(half, n - half), n)):
        filtered[:, index] = reduce(
            positions[:, max(0, index - half) : index + half + 1], axis=1
        )
    return trace.with_positions(*filtered)


def rolling_median(trace: Trace, window: int) -> Trace:
    """Component-wise rolling median over ``window`` records.

    The median is robust to the heavy-tailed displacement of planar
    Laplace noise; at a stop the filtered fix converges on the true
    anchor at rate ~1/sqrt(window), which is exactly why
    geo-indistinguishability fails to hide POIs (experiment E2).

    ``window`` must be odd and >= 1; ``window=1`` is the identity.
    """
    return _rolling(trace, window, np.median)


def rolling_mean(trace: Trace, window: int) -> Trace:
    """Component-wise rolling mean; cheaper but less robust than median."""
    return _rolling(trace, window, np.mean)
