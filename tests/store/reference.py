"""Per-observation references the batch paths are tested against.

:class:`ReferenceSketch` feeds :class:`QuantileSketch` one observation
at a time and buckets each at once — no chunk, no pending list.  The
property tests require ``extend`` (any chunking, any interleaving of
reads) to leave exactly this state, bucket for bucket.
"""

from __future__ import annotations

from repro.store.quantiles import QuantileSketch


class ReferenceSketch(QuantileSketch):
    __slots__ = ()

    def extend(self, values) -> None:
        for x in values:
            super().extend((float(x),))
            self._absorb()
