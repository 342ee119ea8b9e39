"""``repro.streams``: the live streaming analytics tier.

Every analytic the platform had so far (coverage, percentiles, OD
matrices) was a batch scan over the columnar store *after* a campaign;
this tier lets scientists watch a campaign **as it runs** — the
continuous-query middleware service the context-aware literature calls
out as defining, built over the ingest pipeline's existing flush tap:

- :class:`~repro.streams.windows.WindowSpec` — tumbling / sliding
  window geometry over simulated event time;
- :class:`~repro.streams.engine.StreamEngine` — incrementally-updated
  windowed materialized views (per-task record rates, geo-cell
  coverage, value/lag percentiles, per-user activity top-K), O(batch)
  at flush time with no store re-scan, state shared across views via
  panes so registering more views adds no per-record cost;
- :class:`~repro.streams.queries.ContinuousQuery` — standing predicates
  (:func:`~repro.streams.queries.rate_below`,
  :func:`~repro.streams.queries.coverage_stalled`,
  :func:`~repro.streams.queries.percentile_above`, custom callables)
  evaluated on window close, emitting
  :class:`~repro.streams.queries.StreamAlert`\\ s into a bounded
  :class:`~repro.streams.queries.AlertLog` surfaced by ``monitoring``;
- window snapshots are **exactly mergeable** (count-sum, cell-union,
  quantile-bucket-sum), which is what lets :class:`repro.federation.streams.
  FederatedStreamMerger` expose one live dashboard over a multi-hive
  deployment.

Every :class:`~repro.apisense.hive.Hive` owns a stream engine attached
to its ingest pipeline (``hive.streams``); ``python -m repro stream``
drives the same machinery from the shell.
"""

from repro.streams.engine import StreamEngine, StreamStats
from repro.streams.queries import (
    AlertLog,
    ContinuousQuery,
    StreamAlert,
    coverage_stalled,
    percentile_above,
    rate_below,
)
from repro.streams.views import (
    PaneStats,
    WindowSnapshot,
    merge_snapshots,
    snapshot_from_panes,
)
from repro.streams.windows import WindowSpec

__all__ = [
    "AlertLog",
    "ContinuousQuery",
    "PaneStats",
    "StreamAlert",
    "StreamEngine",
    "StreamStats",
    "WindowSnapshot",
    "WindowSpec",
    "coverage_stalled",
    "merge_snapshots",
    "percentile_above",
    "rate_below",
    "snapshot_from_panes",
]
