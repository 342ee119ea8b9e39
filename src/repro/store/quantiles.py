"""Streaming quantile estimation (the P-square algorithm).

The store's freshness aggregates need ingest-lag percentiles over an
unbounded stream without keeping the samples.  Jain & Chlamtac's P²
algorithm (CACM 1985) tracks one quantile with five markers in O(1)
memory and O(1) per observation — exactly the budget a per-flush update
path can afford.

Sketches are also *mergeable* (:meth:`P2Quantile.merge`): each sketch's
five markers describe a piecewise-linear CDF approximation, and a
count-weighted combination of the members' CDFs can be inverted at the
five marker quantiles to reconstruct a valid merged sketch.  The merge
is approximate (P² does not compose exactly) but its error stays on the
order of the per-sketch error — good enough for the streaming tier's
pane windows and the federation's cross-hive dashboard, both of which
fold many partial sketches into one estimate.

The feed is *lazy*.  A flush hands each sketch a handful of values —
often none — and the per-call cost of the marker loop (unpacking and
re-packing fifteen floats) then outweighs the values themselves.  So
:meth:`P2Quantile.extend` validates the chunk, parks it on a pending
list and returns; every reader (:meth:`~P2Quantile.value`,
:meth:`~P2Quantile.state`, :meth:`~P2Quantile.merge`) first absorbs what
is pending, in arrival order, through the one marker loop.  ``extend``
is bit-identical under any chunking, so deferring it changes no state a
reader can see; :data:`PENDING_LIMIT` bounds what a sketch nobody reads
may hold.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import StoreError

#: Pending observations at which a sketch absorbs them unasked: a sketch
#: nobody reads holds fewer than this many values beside its markers.
PENDING_LIMIT = 4096


class P2Quantile:
    """One streaming quantile estimator (P² algorithm, five markers)."""

    def __init__(self, p: float):
        if not (0.0 < p < 1.0):
            raise StoreError(f"quantile must be in (0, 1): {p}")
        self.p = p
        self._count = 0
        # Marker heights, integer positions, and desired positions; live
        # only once the first five observations have been absorbed.
        self._q: list[float] = []
        self._n: list[float] = [0.0] * 5
        self._np: list[float] = [0.0] * 5
        self._dn = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]
        # Chunks handed to extend() and not yet run through the markers.
        self._pending: list[np.ndarray] = []
        self._pending_len = 0

    def __len__(self) -> int:
        return self._count + self._pending_len

    def add(self, x: float) -> None:
        """Observe one value."""
        self.extend((x,))

    def extend(self, values) -> None:
        """Observe values in order; chunking never shows in the state.

        The chunk is only parked: the next reader — or the chunk that
        brings the backlog to :data:`PENDING_LIMIT` — runs everything
        pending through the markers in one pass.
        """
        if not len(values):
            return
        chunk = np.asarray(values, dtype=np.float64)
        if chunk.ndim != 1:  # checked here: the marker loop runs later
            raise StoreError(f"observations must be one-dimensional: {chunk.shape}")
        self._pending.append(chunk)
        self._pending_len += len(chunk)
        if self._pending_len >= PENDING_LIMIT:
            self._absorb()

    def state(self) -> tuple[int, tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
        """``(count, marker heights, positions, desired positions)`` with
        nothing pending — what two sketches fed the same stream share."""
        self._absorb()
        return self._count, tuple(self._q), tuple(self._n), tuple(self._np)

    def _absorb(self) -> None:
        """Run the pending chunks through the markers, in arrival order.

        The one update path: the five markers live in locals for the
        whole backlog.
        """
        if not self._pending:
            return
        xs = np.concatenate(self._pending).tolist()
        self._pending = []
        self._pending_len = 0
        warmup = min(len(xs), max(0, 5 - self._count))
        for x in xs[:warmup]:
            self._count += 1
            self._q.append(x)
            self._q.sort()
            if self._count == 5:
                dn = self._dn
                self._n = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._np = [1.0, 1.0 + 4.0 * dn[1], 1.0 + 4.0 * dn[2],
                            1.0 + 4.0 * dn[3], 5.0]
        if len(xs) == warmup:
            return

        q0, q1, q2, q3, q4 = self._q
        n0, n1, n2, n3, n4 = self._n  # n0 stays 1.0: no cell lies below it
        _, p1, p2, p3, p4 = self._np
        _, d1, d2, d3, _ = self._dn
        for x in xs[warmup:]:
            # 1. Find the cell containing x (clamping the extreme
            #    markers) and shift the positions of the markers above it.
            if x < q0:
                q0 = x
                n1 += 1.0
                n2 += 1.0
                n3 += 1.0
            elif x >= q4:
                q4 = x
            elif x >= q1:
                if x >= q2:
                    if not x >= q3:
                        n3 += 1.0
                else:
                    n2 += 1.0
                    n3 += 1.0
            else:
                n1 += 1.0
                n2 += 1.0
                n3 += 1.0
            n4 += 1.0
            p1 += d1
            p2 += d2
            p3 += d3
            p4 += 1.0
            # 2. Nudge each interior marker toward its desired position,
            #    in order (marker i reads the already-moved marker i-1):
            #    parabolic prediction, linear when that would leave the
            #    neighbours' bracket.
            d = p1 - n1
            if (d >= 1.0 and n2 - n1 > 1.0) or (d <= -1.0 and n0 - n1 < -1.0):
                d = 1.0 if d > 0.0 else -1.0
                c = q1 + d / (n2 - n0) * (
                    (n1 - n0 + d) * (q2 - q1) / (n2 - n1)
                    + (n2 - n1 - d) * (q1 - q0) / (n1 - n0)
                )
                if not (q0 < c < q2):
                    c = (q1 + d * (q2 - q1) / (n2 - n1) if d > 0.0
                         else q1 + d * (q0 - q1) / (n0 - n1))
                q1 = c
                n1 += d
            d = p2 - n2
            if (d >= 1.0 and n3 - n2 > 1.0) or (d <= -1.0 and n1 - n2 < -1.0):
                d = 1.0 if d > 0.0 else -1.0
                c = q2 + d / (n3 - n1) * (
                    (n2 - n1 + d) * (q3 - q2) / (n3 - n2)
                    + (n3 - n2 - d) * (q2 - q1) / (n2 - n1)
                )
                if not (q1 < c < q3):
                    c = (q2 + d * (q3 - q2) / (n3 - n2) if d > 0.0
                         else q2 + d * (q1 - q2) / (n1 - n2))
                q2 = c
                n2 += d
            d = p3 - n3
            if (d >= 1.0 and n4 - n3 > 1.0) or (d <= -1.0 and n2 - n3 < -1.0):
                d = 1.0 if d > 0.0 else -1.0
                c = q3 + d / (n4 - n2) * (
                    (n3 - n2 + d) * (q4 - q3) / (n4 - n3)
                    + (n4 - n3 - d) * (q3 - q2) / (n3 - n2)
                )
                if not (q2 < c < q4):
                    c = (q3 + d * (q4 - q3) / (n4 - n3) if d > 0.0
                         else q3 + d * (q2 - q3) / (n2 - n3))
                q3 = c
                n3 += d
        self._count += len(xs) - warmup
        self._q = [q0, q1, q2, q3, q4]
        self._n = [n0, n1, n2, n3, n4]
        self._np = [self._np[0], p1, p2, p3, p4]

    def value(self) -> float:
        """The current quantile estimate (NaN before any observation)."""
        self._absorb()
        if self._count == 0:
            return float("nan")
        if self._count <= 5:
            # Exact from the sorted sample: nearest-rank interpolation.
            rank = self.p * (self._count - 1)
            lo = int(math.floor(rank))
            hi = min(lo + 1, self._count - 1)
            frac = rank - lo
            return self._q[lo] * (1.0 - frac) + self._q[hi] * frac
        return self._q[2]

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def _cdf_points(self) -> tuple[list[float], list[float]]:
        """This sketch as a piecewise-linear CDF: (heights, fractions).

        Heights are strictly the observed value range; fractions map the
        minimum to 0 and the maximum to 1.  Only valid once the markers
        are live (>= 5 observations — :meth:`add` initializes them at
        exactly the fifth); smaller sketches still hold their raw sorted
        sample and are pooled directly by :meth:`merge`.
        """
        self._absorb()
        span = self._count - 1
        return list(self._q), [(n - 1.0) / span for n in self._n]

    @classmethod
    def merge(cls, sketches: Sequence["P2Quantile"]) -> "P2Quantile":
        """Merge sketches tracking the same quantile into a new sketch.

        Empty members contribute nothing; at least one sketch (empty or
        not) is required to fix ``p``.  The merged sketch carries the
        pooled count, the pooled min/max exactly, and interior markers
        read off the count-weighted combination of the members' CDF
        approximations — it remains a live estimator (``add`` keeps
        working on it).
        """
        if not sketches:
            raise StoreError("cannot merge an empty collection of sketches")
        ps = {s.p for s in sketches}
        if len(ps) > 1:
            raise StoreError(
                f"cannot merge sketches tracking different quantiles: {sorted(ps)}"
            )
        merged = cls(sketches[0].p)
        for sketch in sketches:
            sketch._absorb()
        live = [s for s in sketches if s._count]
        if not live:
            return merged
        # Members with < 5 observations have no live marker state — their
        # ``_q`` is still the raw sorted sample (and ``_n`` is all zeros),
        # so the CDF combination cannot read them.  Degrade gracefully:
        # pool their raw samples into the merged sketch one by one.
        small = [s for s in live if s._count < 5]
        big = [s for s in live if s._count >= 5]
        if not big:
            for sketch in small:
                merged.extend(sketch._q)
            merged._absorb()
            return merged
        total = sum(s._count for s in big)

        # Count-weighted piecewise-linear CDF combination over the
        # marker-live members, inverted at the five marker quantiles.
        curves = [(s._count, *s._cdf_points()) for s in big]
        grid = sorted({h for _, heights, _ in curves for h in heights})
        combined = []
        for h in grid:
            mass = 0.0
            for count, heights, fractions in curves:
                mass += count * _interp(h, heights, fractions)
            combined.append(mass / total)

        lo = min(heights[0] for _, heights, _ in curves)
        hi = max(heights[-1] for _, heights, _ in curves)
        dn = merged._dn
        # Inverting the monotone CDF is interpolation with axes swapped.
        q = [_interp(d, combined, grid) for d in dn]
        q[0], q[4] = lo, hi
        for i in range(1, 5):  # enforce monotone marker heights
            q[i] = max(q[i], q[i - 1])

        # Integer marker positions at their desired ranks, kept strictly
        # increasing (total > 5 guarantees room).
        n = [1.0 + round((total - 1) * d) for d in dn]
        n[0], n[4] = 1.0, float(total)
        for i in range(1, 4):
            n[i] = min(max(n[i], n[i - 1] + 1.0), total - (4.0 - i))

        merged._count = total
        merged._q = q
        merged._n = n
        merged._np = [1.0 + (total - 1) * d for d in dn]
        # The merged sketch is live; absorb the small members' raw
        # samples like any other stream of observations.
        for sketch in small:
            merged.extend(sketch._q)
        merged._absorb()
        return merged


def _interp(x: float, xs: Sequence[float], ys: Sequence[float]) -> float:
    """Piecewise-linear interpolation clamped to [ys[0], ys[-1]]."""
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    for i in range(1, len(xs)):
        if x <= xs[i]:
            if xs[i] == xs[i - 1]:
                return ys[i]
            t = (x - xs[i - 1]) / (xs[i] - xs[i - 1])
            return ys[i - 1] + t * (ys[i] - ys[i - 1])
    return ys[-1]  # pragma: no cover - unreachable
