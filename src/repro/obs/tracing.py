"""End-to-end record tracing: spans, a bounded trace log, reconstruction.

A *trace* follows one device upload through the platform's record path:

    ingest.admit  (Hive.receive_upload — the root span)
      -> ingest.flush       (IngestPipeline shard flush)
           -> store.append  (DatasetStore columnar write)
      -> stream.window      (StreamEngine pane/window close)
      -> federation.merge   (FederatedStreamMerger fold)
      -> server.push        (dashboard channel push)

Span context propagates *with the data*, not with the call stack: the
record path is asynchronous (flushes are simulator events, window
closes happen on watermark advance), so each traced upload chunk
(:class:`~repro.store.columns.UploadChunk`) carries its ``trace_id``
and downstream stages stamp the record keys they handled onto their
spans (``records`` attr: ``{trace_id: [record times]}``). That makes the
:class:`TraceLog` a *correctness* tool as well as a latency one —
:func:`record_paths` rebuilds every record's journey from spans alone,
and tests assert exactly-once pipeline → store → window delivery
without consulting any component's internal counters.

Durations are wall-clock (``time.perf_counter``) because the point is
profiling the reproduction's real hot paths; each span additionally
stamps the simulated time at which it ran (``sim_time``) so spans are
placeable on the simulated axis too.

The log is bounded and drop-oldest (like the platform's ``AlertLog``):
tracing must never grow memory without bound on long simulations.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.errors import ObsError

__all__ = ["Span", "TraceLog", "Tracer", "record_paths", "trace_tree"]

#: Stages making up the record path, in path order.
RECORD_PATH_STAGES = (
    "ingest.admit",
    "ingest.flush",
    "store.append",
    "stream.window",
    "federation.merge",
    "server.push",
)


@dataclass
class Span:
    """One timed operation, possibly belonging to a trace."""

    name: str
    span_id: int
    trace_id: int | None = None
    parent_id: int | None = None
    start: float = 0.0
    end: float = 0.0
    sim_time: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall-clock seconds spent inside the span."""
        return max(0.0, self.end - self.start)

    def record_keys(self) -> list[tuple[int, float]]:
        """The ``(trace_id, record_time)`` keys this span handled."""
        keys: list[tuple[int, float]] = []
        for tid, times in (self.attrs.get("records") or {}).items():
            keys.extend((tid, t) for t in times)
        return keys

    def to_dict(self) -> dict:
        """The JSON form: what the span did, without the record keys it carried."""
        return {
            "name": self.name,
            "duration": self.duration,
            "sim_time": self.sim_time,
            "attrs": {k: v for k, v in self.attrs.items() if k != "records"},
        }

    def to_text(self) -> str:
        extra = self.to_dict()["attrs"]
        bits = [f"{self.name:<20} {self.duration * 1e6:>9.1f}us"]
        if self.sim_time is not None:
            bits.append(f"sim={self.sim_time:g}")
        if self.trace_id is not None:
            bits.append(f"trace={self.trace_id}")
        if extra:
            bits.append(" ".join(f"{k}={v}" for k, v in sorted(extra.items())))
        return "  ".join(bits)


class TraceLog:
    """Bounded drop-oldest span sink."""

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ObsError(f"trace log capacity must be positive: {capacity}")
        self.capacity = capacity
        self._spans: deque[Span] = deque(maxlen=capacity)
        self.total = 0
        self.dropped = 0

    def append(self, span: Span) -> None:
        if len(self._spans) == self.capacity:
            self.dropped += 1
        self._spans.append(span)
        self.total += 1

    def spans(self, name: str | None = None, trace_id: int | None = None) -> list[Span]:
        out = list(self._spans)
        if name is not None:
            out = [s for s in out if s.name == name]
        if trace_id is not None:
            out = [s for s in out if s.trace_id == trace_id]
        return out

    def trace_ids(self) -> list[int]:
        """Distinct trace ids still fully or partially in the log."""
        seen: dict[int, None] = {}
        for span in self._spans:
            if span.trace_id is not None:
                seen.setdefault(span.trace_id, None)
        return list(seen)

    def clear(self) -> None:
        self._spans.clear()
        self.total = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)


class _SpanHandle:
    """Context manager produced by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span | None):
        self._tracer = tracer
        self.span = span

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span (no-op when tracing is off)."""
        if self.span is not None:
            self.span.attrs.update(attrs)

    def add_records(self, records: Mapping[int, Iterable[float]]) -> None:
        """Merge ``{trace_id: [record times]}`` into the span's record set."""
        if self.span is None:
            return
        existing = self.span.attrs.setdefault("records", {})
        for tid, times in records.items():
            existing.setdefault(tid, []).extend(times)

    def __enter__(self) -> "_SpanHandle":
        if self.span is not None:
            self._tracer._stack.append(self.span)
            self.span.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.span is not None:
            self.span.end = time.perf_counter()
            popped = self._tracer._stack.pop()
            assert popped is self.span
            self._tracer.log.append(self.span)


class Tracer:
    """Span factory with deterministic sampling and parent propagation.

    The simulator is single-threaded, so parenthood is a plain stack:
    a span opened while another is open becomes its child. Cross-event
    parenthood (a flush span caused by an earlier admit span) is
    expressed through ``trace_id`` + the ``records`` attr instead —
    the record path is reconstructed from data lineage, not the stack.
    """

    def __init__(
        self,
        log: TraceLog | None = None,
        enabled: bool = False,
        sample_rate: float = 1.0,
        clock: Callable[[], float] | None = None,
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ObsError(f"sample_rate must be in [0, 1]: {sample_rate}")
        self.log = log if log is not None else TraceLog()
        self.enabled = enabled
        self.sample_rate = sample_rate
        self._clock = clock
        self._stack: list[Span] = []
        self._next_trace = 1
        self._next_span = 1
        self._accum = 0.0  # systematic sampler state

    def set_clock(self, clock: Callable[[], float] | None) -> None:
        self._clock = clock

    def new_trace(self) -> int | None:
        """Start a new trace, or ``None`` when disabled / not sampled.

        Sampling is *systematic* (every ``1/rate``-th candidate), not
        random — deterministic runs stay deterministic.
        """
        if not self.enabled or self.sample_rate == 0.0:
            return None
        self._accum += self.sample_rate
        if self._accum < 1.0:
            return None
        self._accum -= 1.0
        trace_id = self._next_trace
        self._next_trace += 1
        return trace_id

    def span(self, name: str, trace_id: int | None = None, **attrs: Any) -> _SpanHandle:
        """Open a span; a cheap no-op handle when tracing is disabled.

        ``trace_id`` ties the span to a trace explicitly; when omitted,
        the enclosing open span's trace (if any) is inherited.
        """
        if not self.enabled:
            return _SpanHandle(self, None)
        parent = self._stack[-1] if self._stack else None
        if trace_id is None and parent is not None:
            trace_id = parent.trace_id
        span = Span(
            name=name,
            span_id=self._next_span,
            trace_id=trace_id,
            parent_id=parent.span_id if parent else None,
            sim_time=self._clock() if self._clock else None,
            attrs=dict(attrs),
        )
        self._next_span += 1
        return _SpanHandle(self, span)


def record_paths(
    spans: Iterable[Span],
) -> dict[tuple[int, float], dict[str, list[Span]]]:
    """Rebuild per-record journeys from spans alone.

    Returns ``{(trace_id, record_time): {stage_name: [spans]}}`` —
    every record key any span claimed to handle, mapped to the spans
    that handled it, grouped by stage. Exactly-once delivery through a
    stage means the key's list for that stage has length 1.
    """
    paths: dict[tuple[int, float], dict[str, list[Span]]] = {}
    for span in spans:
        for key in span.record_keys():
            paths.setdefault(key, {}).setdefault(span.name, []).append(span)
    return paths


def trace_tree(spans: Iterable[Span], trace_id: int) -> list[tuple[int, Span]]:
    """One trace's spans as ``(depth, span)`` rows in tree order.

    Depth follows ``parent_id`` links; spans whose parent is not in the
    log (evicted, or a cross-event stage) sit at depth 0 in start order.
    """
    mine = sorted(
        (s for s in spans if s.trace_id == trace_id),
        key=lambda s: (s.start, s.span_id),
    )
    by_id = {s.span_id: s for s in mine}
    rows: list[tuple[int, Span]] = []

    def depth_of(span: Span) -> int:
        depth = 0
        parent = span.parent_id
        while parent is not None and parent in by_id:
            depth += 1
            parent = by_id[parent].parent_id
        return depth

    for span in mine:
        rows.append((depth_of(span), span))
    return rows
