"""Metrics over time: a scraper, a columnar TSDB, and a query layer.

PR 8's :class:`~repro.obs.registry.MetricsRegistry` answers "what is
the counter *now*"; this module adds the time dimension production
monitoring actually runs on — subscription-based remote observation of
server state over time (the CERN-RDA pattern in PAPERS.md):

- :class:`MetricsScraper` samples the registry on the **simulator
  clock** at a fixed cadence into a :class:`TimeSeriesStore`.  The hot
  path is flat: reader lists are rebuilt only when the registry's
  topology :attr:`~repro.obs.registry.MetricsRegistry.version` changes,
  so one scrape is a handful of list comprehensions feeding batched
  numpy row writes.  A disabled registry turns a scrape into one branch.
- :class:`TimeSeriesStore` is a bounded **frame-columnar ring buffer**:
  one clock vector plus a ``(capacity, n_series)`` value matrix, one
  row per scrape, drop-oldest retention with exact eviction accounting
  (``samples_appended == samples_retained + samples_evicted`` always).
- The query layer — :meth:`~TimeSeriesStore.rate`,
  :meth:`~TimeSeriesStore.delta`, :meth:`~TimeSeriesStore.windowed_agg`,
  :meth:`~TimeSeriesStore.histogram_quantile` — turns scraped counters
  and cumulative histogram buckets into the trends the SLO module
  (:mod:`repro.obs.slo`) and the autoscaling roadmap items consume.

A federation is scraped like a single hive: one scraper over the
shared registry.  Every component's series carries its ``instance``
label, so a query with ``instance=hive.pipeline.obs.instance`` reads one
hive, and a query without ``instance`` folds the whole federation.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from repro.errors import ObsError
from repro.obs.registry import (
    Histogram,
    MetricsRegistry,
    _format,
    _label_key,
    _render_labels,
    bucket_quantile,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation import CancelToken, Simulator

__all__ = [
    "SeriesKey",
    "Series",
    "TimeSeriesStore",
    "ScrapeFrame",
    "ScraperStats",
    "MetricsScraper",
    "series_id",
]

#: One series' identity: (fully-expanded name, sorted label pairs).
#: Histogram families appear as their Prometheus-conventional expansion
#: (``<name>_bucket`` per ``le``, ``<name>_sum``, ``<name>_count``).
SeriesKey = "tuple[str, tuple[tuple[str, str], ...]]"


def series_id(name: str, labels: Mapping[str, str] | None = None) -> tuple:
    """Build the canonical :data:`SeriesKey` for (name, labels)."""
    return (name, _label_key(labels or {}))


class Series:
    """One materialized series: aligned ``t`` / ``values`` numpy arrays."""

    __slots__ = ("name", "labels", "t", "values")

    def __init__(
        self,
        name: str,
        labels: tuple,
        t: np.ndarray,
        values: np.ndarray,
    ):
        self.name = name
        self.labels = labels
        self.t = t
        self.values = values

    def __len__(self) -> int:
        return len(self.t)

    @property
    def series(self) -> str:
        """Rendered identity (``name{label="v",...}``)."""
        return self.name + _render_labels(self.labels)

    def label(self, key: str) -> str | None:
        for k, v in self.labels:
            if k == key:
                return v
        return None

    def latest(self) -> tuple[float, float] | None:
        """Newest ``(t, value)`` sample, or None for an empty series."""
        if not len(self.t):
            return None
        return float(self.t[-1]), float(self.values[-1])

    def clipped(self, t0: float, t1: float) -> "Series":
        """The sub-series with ``t0 <= t <= t1`` (zero-copy views)."""
        lo = int(np.searchsorted(self.t, t0, side="left"))
        hi = int(np.searchsorted(self.t, t1, side="right"))
        return Series(self.name, self.labels, self.t[lo:hi], self.values[lo:hi])


class TimeSeriesStore:
    """A bounded frame-columnar ring buffer of scraped samples.

    Layout follows the store tier's columnar idiom: one time vector and
    one ``(capacity, n_series)`` float matrix; every scrape is one row.
    Series appearing mid-run get a new column back-filled with NaN (the
    "did not exist yet" marker), so reads drop NaN before returning.
    Retention is drop-oldest by whole frames, with the eviction
    accounted per sample: ``samples_appended == samples_retained +
    samples_evicted`` holds at every moment.
    """

    def __init__(self, capacity: int = 512):
        if capacity < 2:
            raise ObsError(f"time-series capacity must be >= 2 frames: {capacity}")
        self.capacity = capacity
        self._t = np.zeros(capacity, dtype=np.float64)
        self._values = np.full((capacity, 0), np.nan, dtype=np.float64)
        self._cols: dict[tuple, int] = {}
        self._keys: list[tuple] = []
        self._start = 0  # oldest retained frame slot
        self._count = 0  # retained frames
        self.frames_appended = 0
        self.frames_evicted = 0
        self.samples_appended = 0
        self.samples_evicted = 0

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def column(self, key: tuple) -> int:
        """The column index for ``key`` (allocated on first use)."""
        col = self._cols.get(key)
        if col is None:
            col = len(self._keys)
            self._cols[key] = col
            self._keys.append(key)
            if col >= self._values.shape[1]:
                # Amortised doubling: a fresh registry brings hundreds
                # of series in one scrape, and growing one column at a
                # time would copy the whole matrix per series.  Spare
                # columns stay NaN, which every reader already skips.
                width = max(8, 2 * self._values.shape[1])
                grown = np.full(
                    (self.capacity, width), np.nan, dtype=np.float64
                )
                if self._values.shape[1]:
                    grown[:, : self._values.shape[1]] = self._values
                self._values = grown
        return col

    def open_frame(self, t: float) -> int:
        """Start the frame at ``t``; returns its row slot.

        Frames must advance strictly in time (the scraper's duplicate
        guard enforces this for clocks that stall).  On a full ring the
        oldest frame is evicted first, its live samples counted.
        """
        if self._count:
            newest = self._t[(self._start + self._count - 1) % self.capacity]
            if t <= newest:
                raise ObsError(
                    f"frames must advance in time: {t} after {newest}"
                )
        if self._count >= self.capacity:
            victim = self._start
            evicted = int(np.count_nonzero(~np.isnan(self._values[victim])))
            self.samples_evicted += evicted
            self.frames_evicted += 1
            self._start = (self._start + 1) % self.capacity
            self._count -= 1
        slot = (self._start + self._count) % self.capacity
        self._count += 1
        self.frames_appended += 1
        self._t[slot] = t
        self._values[slot, :] = np.nan
        return slot

    def write(self, slot: int, cols, values) -> None:
        """Write one group of samples into an open frame's row."""
        self._values[slot, cols] = values
        self.samples_appended += len(cols)

    def write_one(self, slot: int, col: int, value: float) -> None:
        self._values[slot, col] = value
        self.samples_appended += 1

    def append(self, t: float, samples: Mapping[tuple, float]) -> int:
        """Convenience one-shot frame append (synthetic fixtures)."""
        slot = self.open_frame(t)
        for key, value in samples.items():
            self.write_one(slot, self.column(key), value)
        return slot

    def record(
        self, name: str, t: float, value: float, labels: Mapping[str, str] | None = None
    ) -> None:
        """Append one single-series frame (synthetic fixtures)."""
        self.append(t, {series_id(name, labels): value})

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    @property
    def n_series(self) -> int:
        return len(self._keys)

    @property
    def n_frames(self) -> int:
        return self._count

    @property
    def samples_retained(self) -> int:
        """Live (non-NaN) samples across the retained frames."""
        if not self._count:
            return 0
        return int(np.count_nonzero(~np.isnan(self._values[self._order()])))

    def keys(self) -> list[tuple]:
        return list(self._keys)

    def _order(self) -> np.ndarray:
        """Retained frame slots, oldest first."""
        return (self._start + np.arange(self._count)) % self.capacity

    def frame_times(self) -> np.ndarray:
        return self._t[self._order()]

    def _series_at(self, key: tuple, col: int) -> Series:
        order = self._order()
        t = self._t[order]
        values = self._values[order, col]
        live = ~np.isnan(values)
        return Series(key[0], key[1], t[live], values[live])

    def select(self, name: str, **match: str) -> list[Series]:
        """Every series named ``name`` whose labels include ``match``."""
        want = set(_label_key(match))
        out = []
        for key, col in self._cols.items():
            if key[0] == name and want <= set(key[1]):
                out.append(self._series_at(key, col))
        return out

    def series(self, name: str, labels: Mapping[str, str] | None = None) -> Series:
        """One series; with ``labels=None`` the name must be unambiguous."""
        if labels is not None:
            key = series_id(name, labels)
            col = self._cols.get(key)
            if col is None:
                raise ObsError(f"unknown series {name}{_render_labels(key[1])}")
            return self._series_at(key, col)
        matches = [key for key in self._cols if key[0] == name]
        if not matches:
            raise ObsError(f"unknown series {name!r}")
        if len(matches) > 1:
            raise ObsError(
                f"{name!r} is ambiguous across {len(matches)} label sets; "
                "pass labels= or use select()"
            )
        return self._series_at(matches[0], self._cols[matches[0]])

    def latest(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> tuple[float, float] | None:
        return self.series(name, labels).latest()

    # ------------------------------------------------------------------
    # Query layer: trends over scraped samples
    # ------------------------------------------------------------------

    def _window_bounds(self, window: float | None, at: float | None) -> tuple[float, float]:
        if not self._count:
            return (0.0, 0.0)
        newest = float(self._t[(self._start + self._count - 1) % self.capacity])
        t1 = newest if at is None else at
        t0 = float("-inf") if window is None else t1 - window
        return (t0, t1)

    def _pick(self, name: str, labels: Mapping[str, str] | None) -> list[Series]:
        """Every series of ``name`` whose labels include ``labels``: the
        one matching rule, :meth:`select`'s."""
        picked = self.select(name, **(labels or {}))
        if not picked:
            wanted = f" with labels {dict(labels)}" if labels else ""
            raise ObsError(f"unknown series {name!r}{wanted}")
        return picked

    def delta(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        window: float | None = None,
        at: float | None = None,
    ) -> float:
        """Counter increase over the lookback window (newest - oldest).

        Sums over every series whose labels include ``labels``, so
        counters fold platform-wide (``None``) or per instance, like
        :meth:`MetricsRegistry.total` does for point-in-time reads.
        """
        t0, t1 = self._window_bounds(window, at)
        picked = self._pick(name, labels)
        total = 0.0
        for series in picked:
            clip = series.clipped(t0, t1)
            if len(clip) >= 2:
                total += float(clip.values[-1] - clip.values[0])
        return total

    def rate(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        window: float | None = None,
        at: float | None = None,
    ) -> float:
        """Per-second counter rate over the lookback window."""
        t0, t1 = self._window_bounds(window, at)
        picked = self._pick(name, labels)
        total = 0.0
        for series in picked:
            clip = series.clipped(t0, t1)
            if len(clip) >= 2:
                span = float(clip.t[-1] - clip.t[0])
                if span > 0:
                    total += float(clip.values[-1] - clip.values[0]) / span
        return total

    def history(
        self,
        name: str | None = None,
        labels: Mapping[str, str] | None = None,
        window: float | None = None,
    ) -> dict:
        """The JSON digest ``obs history`` serves.

        Without ``name``: the listing of every series id.  With one: its
        rate and each matching series' points over the lookback window.
        """
        if not name:
            return {
                "series": sorted(k[0] + _render_labels(k[1]) for k in self._keys),
                "n_series": self.n_series,
                "frames": self.n_frames,
            }
        labels = labels or None
        picked = self._pick(name, labels)
        t0, t1 = self._window_bounds(window, None)
        return {
            "name": name,
            "rate": self.rate(name, labels=labels, window=window),
            "series": [
                {
                    "labels": dict(series.labels),
                    "points": [
                        [float(t), float(v)] for t, v in zip(clip.t, clip.values)
                    ],
                }
                for series in picked
                for clip in [series.clipped(t0, t1)]
            ],
        }

    def windowed_agg(
        self,
        name: str,
        agg: str = "mean",
        labels: Mapping[str, str] | None = None,
        window: float | None = None,
        at: float | None = None,
    ) -> float:
        """Aggregate a gauge's samples over the lookback window.

        ``agg`` is one of ``mean | min | max | sum | last | count``;
        the matching series' samples pool before aggregating.
        """
        if agg not in ("mean", "min", "max", "sum", "last", "count"):
            raise ObsError(f"unknown windowed agg {agg!r}")
        t0, t1 = self._window_bounds(window, at)
        picked = self._pick(name, labels)
        pooled = [series.clipped(t0, t1) for series in picked]
        values = np.concatenate([clip.values for clip in pooled]) if pooled else np.empty(0)
        if agg == "count":
            return float(len(values))
        if not len(values):
            return 0.0
        if agg == "last":
            newest = max(pooled, key=lambda clip: clip.t[-1] if len(clip) else -math.inf)
            return float(newest.values[-1])
        return float(getattr(np, agg)(values))

    def histogram_quantile(
        self,
        q: float,
        name: str,
        window: float | None = None,
        at: float | None = None,
        **match: str,
    ) -> float:
        """Bucket-interpolated quantile of a histogram *over time*.

        Pass the histogram's *family* name (``..._seconds``); the
        per-``le`` increases of its cumulative ``_bucket`` series over
        the window — summed across matching label sets, so a federation
        of instances folds into one distribution — feed the same
        interpolation the registry uses for whole-run quantiles.
        """
        if not 0.0 <= q <= 1.0:
            raise ObsError(f"quantile must be in [0, 1]: {q}")
        buckets = self.select(f"{name}_bucket", **match)
        if not buckets:
            raise ObsError(f"no scraped buckets for histogram {name!r}")
        t0, t1 = self._window_bounds(window, at)
        by_edge: dict[float, float] = {}
        for series in buckets:
            le = series.label("le")
            edge = math.inf if le == "+Inf" else float(le)
            clip = series.clipped(t0, t1)
            if len(clip) >= 2:
                by_edge[edge] = by_edge.get(edge, 0.0) + float(
                    clip.values[-1] - clip.values[0]
                )
        finite = sorted(edge for edge in by_edge if math.isfinite(edge))
        total = by_edge.get(math.inf, by_edge[finite[-1]] if finite else 0.0)
        return bucket_quantile(q, finite, [by_edge[edge] for edge in finite], total)


class ScrapeFrame:
    """One scrape's worth of aligned samples (lazy materialization).

    Built only when frame subscribers exist — the scrape hot path never
    pays for dict rendering nobody asked for.
    """

    __slots__ = ("seq", "t", "_store", "_slot")

    def __init__(self, seq: int, t: float, store: TimeSeriesStore, slot: int):
        self.seq = seq
        self.t = t
        self._store = store
        self._slot = slot

    @property
    def store(self) -> TimeSeriesStore:
        return self._store

    @property
    def n_series(self) -> int:
        return self._store.n_series

    def samples(self, names: Sequence[str] = ()) -> dict[str, float]:
        """Rendered ``series -> value`` rows; ``names`` are prefixes
        (empty = everything live in this frame)."""
        row = self._store._values[self._slot]
        out: dict[str, float] = {}
        for key, col in self._store._cols.items():
            value = row[col]
            if math.isnan(value):
                continue
            if names and not any(key[0].startswith(prefix) for prefix in names):
                continue
            out[key[0] + _render_labels(key[1])] = float(value)
        return out

    def digest(self, names: Sequence[str] = ()) -> dict:
        """The wire form the ``obs watch`` channel pushes."""
        return {
            "seq": self.seq,
            "t": self.t,
            "n_series": self.n_series,
            "samples": self.samples(names),
        }


class ScraperStats:
    """Scrape accounting (the robustness tests pin these)."""

    __slots__ = ("scrapes", "skipped_disabled", "skipped_clock", "samples")

    def __init__(self):
        self.scrapes = 0
        self.skipped_disabled = 0
        self.skipped_clock = 0
        self.samples = 0


class MetricsScraper:
    """Samples a registry into a :class:`TimeSeriesStore` on a cadence.

    - ``cadence`` is in **simulated seconds** (:meth:`start` schedules a
      periodic event);
    - every series lands under its own labels, ``instance`` included:
      per-hive and federation-wide numbers are queries on one store;
    - a disabled registry makes :meth:`scrape` a counted no-op, and a
      stalled clock never writes two frames at one timestamp.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        cadence: float = 1.0,
        clock: Callable[[], float] | None = None,
        capacity: int = 512,
    ):
        if cadence <= 0:
            raise ObsError(f"scrape cadence must be positive: {cadence}")
        if registry is None:
            from repro import obs as _obs

            registry = _obs.default().registry
        self.registry = registry
        self.store = TimeSeriesStore(capacity)
        self.cadence = cadence
        self._clock = clock
        self.stats = ScraperStats()
        self._frame_callbacks: list[Callable[[ScrapeFrame], None]] = []
        self._last_t = float("-inf")
        self._seq = 0
        # Flat reader cache, rebuilt only on registry topology change:
        self._readers_version = -1
        self._plain: list = []  # children that hold their own value
        self._plain_cols = np.empty(0, dtype=np.intp)
        self._fns: list = []  # children read through their function
        self._fn_cols = np.empty(0, dtype=np.intp)
        #: per histogram child: (child, bucket col array, sum col, count col)
        self._hists: list[tuple] = []
        # Fused-write plan (see _rebuild_readers): all columns in
        # reader order plus a reusable row buffer.
        self._all_cols = np.empty(0, dtype=np.intp)
        self._value_buf = np.empty(0, dtype=np.float64)
        self._hist_segments: list[tuple] = []
        self._samples_per_scrape = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def on_frame(self, callback: Callable[[ScrapeFrame], None]) -> None:
        """Subscribe to completed frames (the watch channel's feed)."""
        self._frame_callbacks.append(callback)

    def start(
        self,
        sim: "Simulator",
        until: float | None = None,
        first_at: float | None = None,
    ) -> "CancelToken":
        """Schedule periodic scrapes on the simulator clock.

        Pass ``until`` for bounded replays — an unbounded periodic event
        keeps a drained simulator alive forever.
        """
        if self._clock is None:
            self._clock = lambda: sim.now
        return sim.schedule_periodic(
            self.cadence, lambda: self.scrape(sim.now), until=until, first_at=first_at
        )

    # ------------------------------------------------------------------
    # The scrape hot path
    # ------------------------------------------------------------------

    def _rebuild_readers(self) -> None:
        registry = self.registry
        store = self.store
        plain: list = []
        plain_cols: list[int] = []
        fns: list = []
        fn_cols: list[int] = []
        hists: list[tuple] = []
        for name in registry.families:
            family = registry.family(name)
            for key, child in family.children():
                if isinstance(child, Histogram):
                    bucket_cols = [
                        store.column((f"{name}_bucket", key + (("le", _format(edge)),)))
                        for edge in child.buckets
                    ]
                    bucket_cols.append(
                        store.column((f"{name}_bucket", key + (("le", "+Inf"),)))
                    )
                    hists.append(
                        (
                            child,
                            np.asarray(bucket_cols, dtype=np.intp),
                            store.column((f"{name}_sum", key)),
                            store.column((f"{name}_count", key)),
                        )
                    )
                elif child._fn is not None:
                    fns.append(child)
                    fn_cols.append(store.column((name, key)))
                else:
                    plain.append(child)
                    plain_cols.append(store.column((name, key)))
        self._plain = plain
        self._plain_cols = np.asarray(plain_cols, dtype=np.intp)
        self._fns = fns
        self._fn_cols = np.asarray(fn_cols, dtype=np.intp)
        self._hists = hists
        # One fused write per scrape: all columns in reader order, and
        # a reusable value buffer the readers fill segment by segment
        # (17 small fancy-index writes cost ~2x the whole sample pass).
        all_cols: list[int] = list(plain_cols) + list(fn_cols)
        hist_segments: list[tuple] = []
        offset = len(all_cols)
        for child, bucket_cols, sum_col, count_col in hists:
            all_cols.extend(int(c) for c in bucket_cols)
            all_cols.append(sum_col)
            all_cols.append(count_col)
            hist_segments.append((child, offset, offset + len(bucket_cols)))
            offset += len(bucket_cols) + 2
        self._all_cols = np.asarray(all_cols, dtype=np.intp)
        self._value_buf = np.empty(len(all_cols), dtype=np.float64)
        self._hist_segments = hist_segments
        self._samples_per_scrape = len(all_cols)
        self._readers_version = registry.version

    def scrape(self, now: float | None = None) -> ScrapeFrame | None:
        """Take one sample of every series; None when skipped."""
        registry = self.registry
        if not registry.enabled:
            self.stats.skipped_disabled += 1
            return None
        if now is None:
            if self._clock is None:
                raise ObsError("scrape needs now= or a bound clock")
            now = self._clock()
        if now <= self._last_t:
            # A stalled simulator clock must not produce two frames at
            # one timestamp (rates would divide by zero).
            self.stats.skipped_clock += 1
            return None
        if registry.version != self._readers_version:
            self._rebuild_readers()
        store = self.store
        slot = store.open_frame(now)
        buf = self._value_buf
        n_plain = len(self._plain)
        buf[:n_plain] = [c._value for c in self._plain]
        if self._fns:
            buf[n_plain : n_plain + len(self._fns)] = [
                g.value for g in self._fns
            ]
        for child, start, stop in self._hist_segments:
            buf[start:stop] = list(accumulate(child.bucket_counts))
            buf[stop] = child._sum
            buf[stop + 1] = child._count
        store.write(slot, self._all_cols, buf)
        self._last_t = now
        self._seq += 1
        self.stats.scrapes += 1
        self.stats.samples += self._samples_per_scrape
        frame = ScrapeFrame(self._seq, now, store, slot)
        for callback in self._frame_callbacks:
            callback(frame)
        return frame
