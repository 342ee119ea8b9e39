"""Per-observation references the batch paths are tested against.

:class:`ReferenceP2Quantile` runs P² the way ``P2Quantile.add`` did
before ``extend`` became the one update path: one observation per call,
markers kept in lists, ``_parabolic``/``_linear`` as methods.  The
property tests require ``extend`` (any chunking, interleaved with
``add``) to leave exactly this state, field for field.
"""

from __future__ import annotations

import math

import numpy as np

from repro.store.quantiles import P2Quantile


class ReferenceP2Quantile(P2Quantile):
    def add(self, x: float) -> None:
        x = float(x)
        self._count += 1
        if self._count <= 5:
            self._q.append(x)
            self._q.sort()
            if self._count == 5:
                self._n = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._np = [1.0, 1.0 + 4.0 * self._dn[1], 1.0 + 4.0 * self._dn[2],
                            1.0 + 4.0 * self._dn[3], 5.0]
            return

        q, n = self._q, self._n
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = 0
            while x >= q[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1.0
        for i in range(5):
            self._np[i] += self._dn[i]
        for i in range(1, 4):
            d = self._np[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (d <= -1.0 and n[i - 1] - n[i] < -1.0):
                d = math.copysign(1.0, d)
                candidate = self._parabolic(i, d)
                if not (q[i - 1] < candidate < q[i + 1]):
                    candidate = self._linear(i, d)
                q[i] = candidate
                n[i] += d

    def extend(self, values) -> None:
        for x in values:
            self.add(x)

    def _parabolic(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        j = i + int(d)
        return q[i] + d * (q[j] - q[i]) / (n[j] - n[i])


def sketch_state(sketch: P2Quantile) -> tuple:
    """Every field of a sketch, NaN-safe to compare (bit patterns)."""
    count, *markers = sketch.state()
    return (sketch.p, count, *(np.array(m, dtype=np.float64).tobytes() for m in markers))
