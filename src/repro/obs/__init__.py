"""``repro.obs`` — unified observability for the whole platform.

An :class:`Obs` context pairs a :class:`MetricsRegistry` (labeled
counters, gauges, fixed-bucket histograms, Prometheus-style text
exposition) with a :class:`Tracer` (spans into a bounded drop-oldest
:class:`TraceLog`).  A platform root owns one and hands it to every tier
it builds; a component built on its own takes :func:`default`, which
the module-level helpers read and :func:`reset` refreshes (tests).

Metrics are **on** by default (cheap: pre-resolved children, one int
add per event, and counts the components already keep are read, not
mirrored); tracing is **off** by default. Both are live toggles —
``configure(metrics=False)`` stops every histogram and the clock reads
around it without rewiring anything, while counters keep counting.

Typical use::

    context = obs.Obs(tracing=True, sample_rate=0.05)
    hive = Hive(sim, obs=context)
    ... drive the platform ...
    print(context.render_prometheus())      # obs dump
    for row in context.hot_paths():         # obs top
        print(row.to_text())
    paths = obs.record_paths(context.tracer.log)
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ObsError
from repro.obs import instruments, registry, tracing
from repro.obs.registry import DEFAULT_BUCKETS, MetricsRegistry, Sample, StageTiming
from repro.obs.slo import (
    DEFAULT_BURN_RULES,
    BurnRateRule,
    ObsAlert,
    SLODefinition,
    SLOStatus,
    SLOTracker,
    availability_sli,
    freshness_sli,
    latency_sli,
)
from repro.obs.timeseries import (
    MetricsScraper,
    ScrapeFrame,
    Series,
    TimeSeriesStore,
    series_id,
)
from repro.obs.tracing import Span, TraceLog, Tracer, record_paths, trace_tree

__all__ = [
    "MetricsRegistry",
    "Tracer",
    "TraceLog",
    "Span",
    "Sample",
    "StageTiming",
    "DEFAULT_BUCKETS",
    "record_paths",
    "trace_tree",
    "Obs",
    "default",
    "configure",
    "reset",
    "metrics_registry",
    "tracer",
    "render_prometheus",
    "hot_paths",
    "instruments",
    "registry",
    "tracing",
    # metrics over time
    "MetricsScraper",
    "TimeSeriesStore",
    "ScrapeFrame",
    "Series",
    "series_id",
    # SLOs
    "SLODefinition",
    "SLOStatus",
    "SLOTracker",
    "ObsAlert",
    "BurnRateRule",
    "DEFAULT_BURN_RULES",
    "availability_sli",
    "latency_sli",
    "freshness_sli",
]


class Obs:
    """One deployment's :class:`MetricsRegistry` and :class:`Tracer`, on
    one clock: two platforms on two contexts count and trace apart."""

    def __init__(
        self,
        metrics: bool = True,
        tracing: bool = False,
        sample_rate: float = 1.0,
        clock: Callable[[], float] | None = None,
    ):
        self.registry = MetricsRegistry(enabled=metrics, clock=clock)
        self.tracer = Tracer(enabled=tracing, sample_rate=sample_rate, clock=clock)

    def configure(
        self,
        metrics: bool | None = None,
        tracing: bool | None = None,
        sample_rate: float | None = None,
        trace_capacity: int | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        """Flip switches in place; only the arguments given are touched."""
        if metrics is not None:
            self.registry.enabled = metrics
        if tracing is not None:
            self.tracer.enabled = tracing
        if sample_rate is not None:
            if not 0.0 <= sample_rate <= 1.0:
                raise ObsError(f"sample_rate must be in [0, 1]: {sample_rate}")
            self.tracer.sample_rate = sample_rate
        if trace_capacity is not None:
            self.tracer.log = TraceLog(capacity=trace_capacity)
        if clock is not None:
            self.registry.set_clock(clock)
            self.tracer.set_clock(clock)

    def render_prometheus(self) -> str:
        """The registry's full text exposition."""
        return self.registry.render_prometheus()

    def hot_paths(self) -> list[StageTiming]:
        """Every timed stage, hottest first — the ``obs top`` table."""
        return self.registry.stage_timings()


_default = Obs()


def default() -> Obs:
    """The context a component built stand-alone reports to."""
    return _default


def metrics_registry() -> MetricsRegistry:
    """The default context's registry."""
    return _default.registry


def tracer() -> Tracer:
    """The default context's tracer."""
    return _default.tracer


def configure(**switches) -> None:
    """:meth:`Obs.configure` on the default context."""
    _default.configure(**switches)


def reset(metrics: bool = True, tracing: bool = False) -> None:
    """A fresh registry + tracer in the default context; components
    built before keep the old ones — re-construct the platform after."""
    fresh = Obs(metrics=metrics, tracing=tracing)
    _default.registry, _default.tracer = fresh.registry, fresh.tracer


def render_prometheus() -> str:
    """The default context's full text exposition."""
    return _default.render_prometheus()


def hot_paths() -> list[StageTiming]:
    """The default context's timed stages, hottest first."""
    return _default.hot_paths()
