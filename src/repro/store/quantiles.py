"""Streaming quantiles: one exactly-mergeable log-bucket sketch.

The store's freshness aggregates and the stream tier's windows need
value and ingest-lag percentiles over unbounded streams without keeping
the samples, and the federation must fold member sketches into one.
:class:`QuantileSketch` is DDSketch (Masson, Rim & Lee, VLDB 2019): an
observation ``x != 0`` is counted in bucket ``ceil(log|x| / log γ)`` of a
positive or a negative store, zeros in a count of their own, with
``γ = (1 + α) / (1 - α)``.  Bucket ``k`` spans ``(γ^(k-1), γ^k]`` and is
read back as ``(1 + α) γ^(k-1)``, within ``α`` relative of anything in
it; so every quantile is within :data:`RELATIVE_ACCURACY` relative of the
exact one, and the exact minimum and maximum clamp the answer to the
observed range.

Merging adds bucket counts (:meth:`QuantileSketch.merge`), so it is
exact and blind to how a stream was cut: a sliding window folded from
panes, a federation-wide window folded from members and the sketch of
the whole stream hold the same state, bit for bit.  One sketch answers
every ``p`` in (0, 1).

The feed is *lazy*.  A flush hands each sketch a handful of values —
often none — so :meth:`QuantileSketch.extend` validates the chunk, parks
it on a pending list and returns; every reader (:meth:`~QuantileSketch.
quantile`, :meth:`~QuantileSketch.state`, :meth:`~QuantileSketch.merge`)
first buckets what is pending with one ``np.log`` and one
``np.bincount``.  Bucket counts do not depend on chunking, so deferring
changes no state a reader can see; :data:`PENDING_LIMIT` bounds what a
sketch nobody reads may hold.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import StoreError

#: α, the relative accuracy of every reported quantile.  One constant,
#: not a parameter: two sketches merge only when they share γ.  At 1 %
#: a percentile is off by at most 0.01 on a battery level, 1 s on a
#: 100 s ingest lag and 36 s on an hour-old record — finer than a
#: campaign's sampling period — while a bucket spans 2 % of its
#: values, so one decade of magnitude takes ~115 buckets and a window's
#: lags (seconds to an hour) a few dozen.  Buckets, merge and read cost
#: grow as 1/α: ten times the accuracy would cost ten times the state.
RELATIVE_ACCURACY = 0.01

_GAMMA = (1.0 + RELATIVE_ACCURACY) / (1.0 - RELATIVE_ACCURACY)
_LOG_GAMMA = math.log(_GAMMA)

#: Pending observations at which a sketch buckets them unasked: a sketch
#: nobody reads holds fewer than this many values beside its buckets.
PENDING_LIMIT = 4096


class QuantileSketch:
    """Relative-error quantiles of one stream of finite floats."""

    __slots__ = ("_positive", "_negative", "_zeros", "_count", "_min", "_max",
                 "_pending", "_pending_len")

    def __init__(self) -> None:
        # Bucket key -> count, for x > 0 and for x < 0 (keyed by |x|).
        self._positive: dict[int, int] = {}
        self._negative: dict[int, int] = {}
        self._zeros = 0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        # Chunks handed to extend() and not yet bucketed.
        self._pending: list[np.ndarray] = []
        self._pending_len = 0

    def __len__(self) -> int:
        return self._count + self._pending_len

    def extend(self, values) -> None:
        """Observe finite values; chunking never shows in the state.

        The chunk is only parked: the next reader — or the chunk that
        brings the backlog to :data:`PENDING_LIMIT` — buckets everything
        pending in one pass.
        """
        if not len(values):
            return
        chunk = np.asarray(values, dtype=np.float64)
        # Checked here: the bucketing runs later.
        if chunk.ndim != 1:
            raise StoreError(f"observations must be one-dimensional: {chunk.shape}")
        if not np.isfinite(chunk).all():
            raise StoreError("observations must be finite")
        self.extend_finite(chunk)

    def extend_finite(self, chunk: np.ndarray) -> None:
        """:meth:`extend` by a one-dimensional float64 array the caller
        has already checked finite: parked as it is, a view included."""
        if not len(chunk):
            return
        self._pending.append(chunk)
        self._pending_len += len(chunk)
        if self._pending_len >= PENDING_LIMIT:
            self._absorb()

    def _absorb(self) -> None:
        """Count the pending chunks into their buckets."""
        if not self._pending:
            return
        xs = self._pending[0] if len(self._pending) == 1 else np.concatenate(self._pending)
        self._pending = []
        self._pending_len = 0
        self._count += len(xs)
        low, high = float(xs.min()), float(xs.max())
        self._min = min(self._min, low)
        self._max = max(self._max, high)
        if low > 0.0:  # the common case: lags, rates
            _count_keys(self._positive, xs)
            return
        _count_keys(self._positive, xs[xs > 0.0])
        _count_keys(self._negative, -xs[xs < 0.0])
        self._zeros += int(np.count_nonzero(xs == 0.0))

    def state(self) -> tuple:
        """``(count, zeros, negative buckets, positive buckets, min, max)``
        with nothing pending — what two sketches of one stream share."""
        self._absorb()
        return (self._count, self._zeros, tuple(sorted(self._negative.items())),
                tuple(sorted(self._positive.items())), self._min, self._max)

    def quantile(self, p: float) -> float:
        """The ``p``-quantile (NaN when empty).

        Within :data:`RELATIVE_ACCURACY` relative of the observation of
        rank ``floor(p * (n - 1))`` — ``np.quantile(..., method="lower")``
        — for observations above the subnormal range.
        """
        if not 0.0 < p < 1.0:
            raise StoreError(f"quantile must be in (0, 1): {p}")
        self._absorb()
        if not self._count:
            return math.nan
        rank = p * (self._count - 1)
        seen = 0
        for key in sorted(self._negative, reverse=True):
            seen += self._negative[key]
            if seen > rank:
                return self._clamp(-_representative(key))
        seen += self._zeros
        if seen > rank:
            return self._clamp(0.0)
        for key in sorted(self._positive):
            seen += self._positive[key]
            if seen > rank:
                return self._clamp(_representative(key))
        raise AssertionError("unreachable: the buckets hold every observation")

    def _clamp(self, estimate: float) -> float:
        return min(max(estimate, self._min), self._max)

    @classmethod
    def merge(cls, sketches: Sequence["QuantileSketch"]) -> "QuantileSketch":
        """A new sketch of the members' pooled observations, exactly.

        The members' states are left as they were.  At least one member
        (empty or not) is required.
        """
        if not sketches:
            raise StoreError("cannot merge an empty collection of sketches")
        merged = cls()
        for sketch in sketches:
            sketch._absorb()
            for into, buckets in ((merged._positive, sketch._positive),
                                  (merged._negative, sketch._negative)):
                for key, count in buckets.items():
                    into[key] = into.get(key, 0) + count
            merged._zeros += sketch._zeros
            merged._count += sketch._count
            merged._min = min(merged._min, sketch._min)
            merged._max = max(merged._max, sketch._max)
        return merged


def reading(sketch: QuantileSketch, p: float) -> float:
    """``sketch``'s ``p``-quantile as a dashboard shows it: 0.0 while empty."""
    return sketch.quantile(p) if len(sketch) else 0.0


def _count_keys(buckets: dict[int, int], magnitudes: np.ndarray) -> None:
    """Add positive ``magnitudes`` to their buckets: one log, one bincount."""
    if not len(magnitudes):
        return
    keys = np.ceil(np.log(magnitudes) / _LOG_GAMMA).astype(np.int64)
    low = int(keys.min())
    counts = np.bincount(keys - low)
    present = np.flatnonzero(counts)
    for key, count in zip((present + low).tolist(), counts[present].tolist()):
        buckets[key] = buckets.get(key, 0) + count


def _representative(key: int) -> float:
    """Bucket ``key``'s reading: ``(1 + α) γ^(key-1)``, which cannot
    overflow for a bucket holding a finite value (``2γ^k / (γ+1)`` can)."""
    return _GAMMA ** (key - 1) * (1.0 + RELATIVE_ACCURACY)
