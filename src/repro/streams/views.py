"""Windowed materialized views: pane state and window snapshots.

The engine keeps one :class:`PaneStats` per (task, pane) and folds each
flush's columns into it at flush time; every registered windowed view is
assembled *at window close* by merging the panes it spans into a
:class:`WindowSnapshot`.  A snapshot is therefore a real materialized
view — record rate, geo-cell coverage, per-user activity, and P²
value/lag percentiles for that window — computed without ever
re-scanning the columnar store.

Snapshots keep their mergeable state (user counts, cell sets, P²
sketches) so the federation tier can fold member-hive snapshots of the
same window into one federation-wide view (count-sum, cell-union,
P²-merge; see :class:`repro.federation.streams.FederatedStreamMerger`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import StreamError
from repro.store.quantiles import P2Quantile

#: The quantiles every view tracks for record values and ingest lag.
VIEW_QUANTILES = (0.50, 0.95)

CellIndex = tuple[int, int]


class PaneStats:
    """Accumulated statistics of one task over one pane of the stream."""

    __slots__ = ("start", "end", "records", "value_count", "value_sum",
                 "user_counts", "cells", "value_sketches", "lag_sketches")

    def __init__(self, start: float, end: float):
        self.start = start
        self.end = end
        self.records = 0
        self.value_count = 0
        self.value_sum = 0.0
        self.user_counts: dict[str, int] = {}
        self.cells: set[CellIndex] = set()
        self.value_sketches = {p: P2Quantile(p) for p in VIEW_QUANTILES}
        self.lag_sketches = {p: P2Quantile(p) for p in VIEW_QUANTILES}

    def update_columns(
        self,
        users: Sequence[str],
        counts: Sequence[int],
        cells: Iterable[CellIndex],
        values: np.ndarray,
        lags: np.ndarray | None,
    ) -> None:
        """Absorb one flush's records of this pane, column by column.

        ``users``/``counts`` are the distinct contributors and how many
        records each brought, ``cells`` the cell of every record with a
        fix, ``values`` the scalar values that are present and ``lags``
        every record's ingest lag (``None``: untracked) — the last two
        in record order, which is the order the sketches observe them.
        """
        self.records += sum(counts)
        for user, count in zip(users, counts):
            self.user_counts[user] = self.user_counts.get(user, 0) + count
        self.cells.update(cells)
        self.value_count += len(values)
        self.value_sum += float(values.sum())
        for sketch in self.value_sketches.values():
            sketch.extend(values)
        if lags is not None:
            for sketch in self.lag_sketches.values():
                sketch.extend(lags)


@dataclass(frozen=True)
class WindowSnapshot:
    """One closed window of one task's windowed view.

    Aggregate readings are plain attributes/properties; the mergeable
    state (``user_counts``, ``cells``, sketches) rides along so member
    snapshots can be folded across a federation.
    """

    task: str
    view: str
    start: float
    end: float
    records: int
    user_counts: Mapping[str, int]
    cells: frozenset[CellIndex]
    value_quantiles: Mapping[float, P2Quantile]
    lag_quantiles: Mapping[float, P2Quantile]
    #: Additive scalar-value state: records carrying a scalar value and
    #: their sum.  Exactly mergeable (unlike the sketches), which is
    #: what the federation's *secure* window fold aggregates.
    value_count: int = 0
    value_sum: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def mean_value(self) -> float:
        """Mean scalar value over the window (0.0 when none were seen)."""
        return self.value_sum / self.value_count if self.value_count else 0.0

    @property
    def rate(self) -> float:
        """Record rate over the window, in records/second."""
        return self.records / self.duration if self.duration else 0.0

    @property
    def n_users(self) -> int:
        return len(self.user_counts)

    @property
    def coverage_cells(self) -> int:
        return len(self.cells)

    def top_users(self, k: int = 5) -> tuple[tuple[str, int], ...]:
        """The ``k`` most active users of the window, most active first."""
        ranked = sorted(self.user_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return tuple(ranked[:k])

    def value_quantile(self, p: float) -> float:
        """The window's value percentile (0.0 when no values were seen)."""
        sketch = self.value_quantiles.get(p)
        return sketch.value() if sketch is not None and len(sketch) else 0.0

    def lag_quantile(self, p: float) -> float:
        """The window's ingest-lag percentile (0.0 when lag untracked)."""
        sketch = self.lag_quantiles.get(p)
        return sketch.value() if sketch is not None and len(sketch) else 0.0

    def to_text(self) -> str:
        return window_text(
            {
                "task": self.task,
                "view": self.view,
                "start": self.start,
                "end": self.end,
                "records": self.records,
                "n_users": self.n_users,
                "coverage_cells": self.coverage_cells,
                "value_p50": self.value_quantile(0.50),
                "value_p95": self.value_quantile(0.95),
                "lag_p95": self.lag_quantile(0.95),
                "top_users": self.top_users(3),
            }
        )


def window_text(window: Mapping[str, Any]) -> str:
    """One closed window as a dashboard line.

    ``window`` has the keys of the serving tier's pushed digest
    (:func:`repro.server.protocol.snapshot_digest`), so a snapshot and
    its push render alike.
    """
    start, end, records = window["start"], window["end"], window["records"]
    rate = records / (end - start) if end > start else 0.0
    top = ", ".join(f"{user}:{count}" for user, count in window["top_users"])
    return (
        f"[{start:.0f},{end:.0f})s {window['task']}/{window['view']}: "
        f"{records} rec ({rate:.2f}/s) from {window['n_users']} users, "
        f"{window['coverage_cells']} cells, value p50/p95 "
        f"{window['value_p50']:.2f}/{window['value_p95']:.2f}, "
        f"lag p95 {window['lag_p95']:.1f}s" + (f", top [{top}]" if top else "")
    )


def _fold_window(
    task: str,
    view: str,
    start: float,
    end: float,
    parts: Sequence[tuple[int, int, float, Mapping[str, int],
                          "frozenset[CellIndex] | set[CellIndex]",
                          Mapping[float, P2Quantile], Mapping[float, P2Quantile]]],
) -> WindowSnapshot:
    """The one fold both assembly paths share.

    ``parts`` are ``(records, value_count, value_sum, user_counts,
    cells, value_sketches, lag_sketches)`` tuples — pane slices of one
    engine or same-window snapshots of federation members.  Keeping a
    single fold is what guarantees pane-assembly and cross-hive merging
    stay semantically identical (merged members == monolithic engine).
    """
    user_counts: dict[str, int] = {}
    cells: set[CellIndex] = set()
    for _records, _vc, _vs, part_users, part_cells, _vq, _lq in parts:
        for user, count in part_users.items():
            user_counts[user] = user_counts.get(user, 0) + count
        cells |= part_cells
    value_q = {
        p: P2Quantile.merge([vq[p] for *_head, vq, _lq in parts] or [P2Quantile(p)])
        for p in VIEW_QUANTILES
    }
    lag_q = {
        p: P2Quantile.merge([lq[p] for *_head, lq in parts] or [P2Quantile(p)])
        for p in VIEW_QUANTILES
    }
    return WindowSnapshot(
        task=task,
        view=view,
        start=start,
        end=end,
        records=sum(records for records, *_rest in parts),
        user_counts=user_counts,
        cells=frozenset(cells),
        value_quantiles=value_q,
        lag_quantiles=lag_q,
        value_count=sum(part[1] for part in parts),
        value_sum=sum(part[2] for part in parts),
    )


def snapshot_from_panes(
    task: str,
    view: str,
    start: float,
    end: float,
    panes: Sequence[PaneStats],
) -> WindowSnapshot:
    """Assemble one window by merging the panes it spans.

    ``panes`` may be empty (an idle window still closes, with zero
    records) — dashboards and ``rate_below`` queries depend on empty
    windows being observable.
    """
    return _fold_window(
        task,
        view,
        start,
        end,
        [
            (p.records, p.value_count, p.value_sum, p.user_counts, p.cells,
             p.value_sketches, p.lag_sketches)
            for p in panes
        ],
    )


def merge_snapshots(snapshots: Sequence[WindowSnapshot]) -> WindowSnapshot:
    """Fold same-window snapshots from different sources into one.

    The federation merger uses this: counts sum, user activity sums,
    cells union, sketches P²-merge.  All snapshots must describe the
    same (task, view, start, end) window.
    """
    if not snapshots:
        raise StreamError("cannot merge zero window snapshots")
    head = snapshots[0]
    for other in snapshots[1:]:
        if (other.task, other.view, other.start, other.end) != (
            head.task, head.view, head.start, head.end,
        ):
            raise StreamError(
                "cannot merge snapshots of different windows: "
                f"{(head.task, head.view, head.start, head.end)} vs "
                f"{(other.task, other.view, other.start, other.end)}"
            )
    return _fold_window(
        head.task,
        head.view,
        head.start,
        head.end,
        [
            (s.records, s.value_count, s.value_sum, s.user_counts, s.cells,
             s.value_quantiles, s.lag_quantiles)
            for s in snapshots
        ],
    )
