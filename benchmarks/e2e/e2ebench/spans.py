"""Benchmark-side spans: the per-layer ledger's raw material.

The platform is not edited by the benchmark, so every span is recorded
from outside, on the instances a workload builds: a public method is
shadowed by an instance attribute that times the call
(:meth:`SpanRecorder.wrap`), or — where the callee was bound before the
benchmark could reach it — a span is *bracketed* between two callbacks
the benchmark registers on either side of it (:meth:`SpanRecorder.begin`
in the first, :meth:`SpanRecorder.close` in the second).

All workloads are single-threaded closed loops with one driver
operation in flight, so "the innermost open span" is always the causal
parent and a plain stack is enough — also across ``await``: the tasks
that run while the driver awaits only open spans on the driver's behalf
(the server handling the driver's own request).

A span is ``[name, start, end, parent_index, group]``; ``group`` is the
shared id of one upload tick / window / mechanism and is inherited from
the parent unless given.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterator

NAME, START, END, PARENT, GROUP = range(5)

_NO_SPAN = nullcontext()


def _no_span(name: str, group: str | None = None):
    return _NO_SPAN


def span_of(recorder: "SpanRecorder | None"):
    """``recorder.span``, or a no-op stand-in for an untraced round."""
    return recorder.span if recorder is not None else _no_span


class SpanRecorder:
    """In-memory span log of one traced round."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def begin(self, name: str, group: str | None = None) -> int:
        """Open a span under the innermost open one; returns its index."""
        parent = self._stack[-1] if self._stack else -1
        if group is None and parent >= 0:
            group = self.spans[parent][GROUP]
        index = len(self.spans)
        self._stack.append(index)
        self.spans.append([name, time.perf_counter(), 0.0, parent, group])
        return index

    def end(self, index: int) -> None:
        """Close span ``index`` and any bracket left open inside it."""
        now = time.perf_counter()
        stack = self._stack
        while stack:
            top = stack.pop()
            self.spans[top][END] = now
            if top == index:
                return

    def close(self, name: str) -> None:
        """Close the innermost open span if it is a ``name`` bracket."""
        if self._stack and self.spans[self._stack[-1]][NAME] == name:
            self.end(self._stack[-1])

    def innermost(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    @contextmanager
    def span(self, name: str, group: str | None = None) -> Iterator[int]:
        index = self.begin(name, group)
        try:
            yield index
        finally:
            self.end(index)

    def timed(self, function: Callable, name: str) -> Callable:
        """``function`` with every call recorded as a ``name`` span."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def wrap(self, target: object, method: str, name: str) -> None:
        """Shadow ``target.method`` with a timing instance attribute.

        Works for calls that look the method up on the instance at call
        time (``self.store.append(...)``); a bound method captured
        before this call is out of reach and needs a bracket instead.
        """
        setattr(target, method, self.timed(getattr(target, method), name))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        """Duration of every ``name`` span, in recording order."""
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def self_durations(self) -> list[float]:
        """Per span: its duration minus the time its children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        totals: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_durations()):
            totals[span[NAME]] = totals.get(span[NAME], 0.0) + own
        return totals

    def ledger(self, driver: tuple[str, ...] = ("round", "tick")) -> tuple[dict, float, float]:
        """``(self time per span name, driver seconds, covered seconds)``.

        Every span nests under the round's root span, so self times sum
        to the round's wall; ``driver`` names the benchmark's own spans,
        and what is not theirs is covered by some layer's span.
        """
        self_times = self.self_times()
        driver_s = sum(self_times.get(name, 0.0) for name in driver)
        return self_times, driver_s, sum(self_times.values()) - driver_s

    def self_of(self, name: str) -> list[float]:
        """Self time of every ``name`` span, in recording order."""
        return [
            own
            for span, own in zip(self.spans, self.self_durations())
            if span[NAME] == name
        ]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[NAME] == name)

    def children_of(self, name: str, child: str) -> list[float]:
        """Duration of every ``child`` span whose parent is a ``name`` span."""
        return [
            s[END] - s[START]
            for s in self.spans
            if s[NAME] == child
            and s[PARENT] >= 0
            and self.spans[s[PARENT]][NAME] == name
        ]

    def to_rows(self, round_index: int) -> list[dict]:
        """JSON-able rows for ``--trace-out`` (parent = span id or null)."""
        return [
            {
                "round": round_index,
                "id": index,
                "name": span[NAME],
                "start": span[START],
                "end": span[END],
                "parent": span[PARENT] if span[PARENT] >= 0 else None,
                "group": span[GROUP],
            }
            for index, span in enumerate(self.spans)
        ]


def write_trace(path: str, recorders: list[SpanRecorder]) -> None:
    """Dump every traced round's spans as one JSON document."""
    rows = [
        row
        for round_index, recorder in enumerate(recorders)
        for row in recorder.to_rows(round_index)
    ]
    with open(path, "w") as handle:
        json.dump({"spans": rows}, handle)
        handle.write("\n")
