"""Unit tests of the tracer: spans, sampling, the bounded log."""

from __future__ import annotations

import pytest

from repro.errors import ObsError
from repro.obs.tracing import (
    Span,
    TraceLog,
    Tracer,
    record_paths,
    trace_tree,
)


class TestTraceLog:
    def test_bounded_drop_oldest(self):
        log = TraceLog(capacity=3)
        for index in range(5):
            log.append(Span(name=f"s{index}", span_id=index))
        assert len(log) == 3
        assert log.total == 5
        assert log.dropped == 2
        assert [s.name for s in log] == ["s2", "s3", "s4"]

    def test_filtering(self):
        log = TraceLog()
        log.append(Span(name="a", span_id=1, trace_id=7))
        log.append(Span(name="b", span_id=2, trace_id=7))
        log.append(Span(name="a", span_id=3, trace_id=8))
        assert len(log.spans(name="a")) == 2
        assert len(log.spans(trace_id=7)) == 2
        assert len(log.spans(name="a", trace_id=8)) == 1
        assert log.trace_ids() == [7, 8]

    def test_invalid_capacity(self):
        with pytest.raises(ObsError):
            TraceLog(capacity=0)


class TestTracer:
    def test_disabled_tracer_emits_nothing(self):
        tracer = Tracer(enabled=False)
        assert tracer.new_trace() is None
        with tracer.span("anything") as handle:
            handle.set(key="value")
            handle.add_records({1: [2.0]})
        assert len(tracer.log) == 0

    def test_span_records_duration_and_attrs(self):
        tracer = Tracer(enabled=True)
        with tracer.span("work", shard=3) as handle:
            handle.set(batch=10)
        (span,) = tracer.log.spans("work")
        assert span.duration >= 0.0
        assert span.attrs == {"shard": 3, "batch": 10}

    def test_nested_spans_get_parents_and_trace(self):
        tracer = Tracer(enabled=True)
        trace_id = tracer.new_trace()
        with tracer.span("outer", trace_id=trace_id):
            with tracer.span("inner"):
                pass
        outer = tracer.log.spans("outer")[0]
        inner = tracer.log.spans("inner")[0]
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id == trace_id

    def test_systematic_sampling_is_deterministic(self):
        tracer = Tracer(enabled=True, sample_rate=0.25)
        sampled = [tracer.new_trace() is not None for _ in range(100)]
        assert sum(sampled) == 25
        again = Tracer(enabled=True, sample_rate=0.25)
        assert [again.new_trace() is not None for _ in range(100)] == sampled

    def test_zero_sample_rate_traces_nothing(self):
        tracer = Tracer(enabled=True, sample_rate=0.0)
        assert all(tracer.new_trace() is None for _ in range(10))

    def test_invalid_sample_rate(self):
        with pytest.raises(ObsError):
            Tracer(sample_rate=1.5)

    def test_sim_clock_stamped(self):
        tracer = Tracer(enabled=True, clock=lambda: 42.0)
        with tracer.span("work"):
            pass
        assert tracer.log.spans("work")[0].sim_time == 42.0


class TestReconstruction:
    def test_record_paths_groups_by_stage(self):
        spans = [
            Span(name="ingest.flush", span_id=1, attrs={"records": {7: [1.0, 2.0]}}),
            Span(name="store.append", span_id=2, attrs={"records": {7: [1.0, 2.0]}}),
            Span(name="store.append", span_id=3, attrs={"records": {7: [1.0]}}),
        ]
        paths = record_paths(spans)
        assert set(paths) == {(7, 1.0), (7, 2.0)}
        # Record (7, 1.0) hit store.append twice — a duplicate-delivery
        # signal record_paths must surface, not mask.
        assert len(paths[(7, 1.0)]["store.append"]) == 2
        assert len(paths[(7, 2.0)]["store.append"]) == 1

    def test_trace_tree_depths(self):
        spans = [
            Span(name="root", span_id=1, trace_id=5, start=1.0),
            Span(name="child", span_id=2, trace_id=5, parent_id=1, start=2.0),
            Span(name="grandchild", span_id=3, trace_id=5, parent_id=2, start=3.0),
            Span(name="other-trace", span_id=4, trace_id=6, start=4.0),
            Span(name="orphan", span_id=5, trace_id=5, parent_id=99, start=5.0),
        ]
        rows = trace_tree(spans, trace_id=5)
        assert [(depth, span.name) for depth, span in rows] == [
            (0, "root"),
            (1, "child"),
            (2, "grandchild"),
            (0, "orphan"),
        ]
