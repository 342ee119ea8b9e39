"""Windowed materialized views: pane state and window snapshots.

The engine keeps one :class:`PaneStats` per (task, pane) and folds the
flushes' columns into it before windows close; every registered view is
assembled *at window close* by merging the panes it spans into a
:class:`WindowSnapshot`.  A snapshot is therefore a real materialized
view — record rate, geo-cell coverage, per-user activity, and value
and lag percentiles at any p for that window — computed without ever
re-scanning the columnar store.

Snapshots keep their mergeable state (user counts, cell sets, quantile
sketches) so the federation tier can fold member-hive snapshots of the
same window into one federation-wide view (count-sum, cell-union,
bucket-sum; see :class:`repro.federation.streams.FederatedStreamMerger`).
Every part of that fold is exact, so a window assembled from panes or
from members equals the one a single engine over the pooled stream
would have built.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.errors import StreamError
from repro.store.quantiles import reading
from repro.store.summary import Summary


#: A pane's state: one task's :class:`~repro.store.summary.Summary` over
#: the pane's ``[start, end)``, the same type as the store's all-time
#: aggregate, filled by the same :func:`~repro.store.summary.fold`.
PaneStats = Summary


class WindowSnapshot(Summary):
    """One closed window of one task's windowed view: the merged
    :class:`~repro.store.summary.Summary` of the panes it spans.

    Aggregate readings are plain attributes/properties; the mergeable
    state (``user_counts``, ``cells``, sketches, ``value_count`` and
    ``value_sum``, which the federation's *secure* window fold
    aggregates) rides along so member snapshots can be folded across a
    federation.
    """

    __slots__ = ("view",)

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

    def top_users(self, k: int = 5) -> tuple[tuple[str, int], ...]:
        """The ``k`` most active users of the window, most active first."""
        ranked = sorted(self.user_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return tuple(ranked[:k])

    def value_quantile(self, p: float) -> float:
        """The window's value ``p``-quantile, ``p`` in (0, 1) (0.0 when no
        values were seen)."""
        check_quantile(p)
        return reading(self.value_sketch, p)

    def lag_quantile(self, p: float) -> float:
        """The window's ingest-lag ``p``-quantile, ``p`` in (0, 1) (0.0
        when lag untracked)."""
        check_quantile(p)
        return reading(self.lag_sketch, p)

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


def check_quantile(p: float) -> None:
    """Refuse a percentile outside (0, 1)."""
    if not 0.0 < p < 1.0:
        raise StreamError(f"percentile must be in (0, 1): {p}")


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


def _snapshot(task: str, view: str, start: float, end: float, parts) -> WindowSnapshot:
    """The one fold both assembly paths share: :meth:`Summary.merge` of
    pane slices of one engine or of same-window snapshots of federation
    members.  Every part of it is exact, which is what makes pane
    assembly and cross-hive merging agree: merged members == monolithic
    engine."""
    snapshot = WindowSnapshot.merge(parts, task=task)
    snapshot.view, snapshot.start, snapshot.end = view, start, end
    return snapshot


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
    return _snapshot(task, view, start, end, panes)


def merge_snapshots(snapshots: Sequence[WindowSnapshot]) -> WindowSnapshot:
    """Fold same-window snapshots from different sources into one.

    The federation merger uses this: counts sum, user activity sums,
    cells union, sketch buckets sum.  All snapshots must describe the
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
    return _snapshot(head.task, head.view, head.start, head.end, snapshots)
