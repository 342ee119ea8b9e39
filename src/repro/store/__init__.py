"""``repro.store``: sharded ingestion + columnar dataset storage.

The server side of the platform (paper Section 2's Hive) must absorb
continuous uploads from a large fleet; this subsystem provides the two
halves that make that scale:

- :class:`~repro.store.pipeline.IngestPipeline` — a bounded, batching
  upload gateway with backpressure policies (``drop-oldest``,
  ``reject``, ``spill``) and per-shard flush scheduling driven by the
  deterministic simulator;
- :class:`~repro.store.dataset_store.DatasetStore` — append-only
  columnar segments (numpy ``time/lat/lon/value/user`` arrays) sharded
  by ``hash(task, user)``, with segment sealing, compaction, and
  O(shard) time-range / bbox / per-user scans;
- :func:`~repro.store.columns.batch_of` — one flush as a
  :class:`~repro.store.columns.RecordBatch` of columns, built once from
  device upload chunks (:class:`~repro.store.columns.UploadChunk`) and
  record lists, and shared by the store, the router and every flush
  listener;
- :class:`~repro.store.summary.Summary` — one task's counts, users,
  coverage cells, values and freshness/lag percentiles over a span of
  event time: the store's all-time aggregate per task
  (:class:`~repro.store.summary.StoreAggregates`) and the stream
  engine's pane, both folded many flushes at a time from columns each
  flush derives once;
- :class:`~repro.store.quantiles.QuantileSketch` — the one
  relative-error, exactly-mergeable quantile sketch behind every
  percentile the store, the streams and the federation report.

The Hive routes every upload through an ingest pipeline into its store;
``python -m repro store`` exposes the same machinery from the shell.
"""

from repro.store.columns import RecordBatch, UploadChunk, batch_of, columnize
from repro.store.dataset_store import (
    ColumnarBatch,
    CompactionReport,
    DatasetStore,
    ShardStats,
    StoreStats,
    shard_of,
)
from repro.store.pipeline import POLICIES, IngestPipeline, PipelineStats
from repro.store.quantiles import QuantileSketch
from repro.store.segment import Segment, SegmentBuilder, merge_segments
from repro.store.summary import StoreAggregates, Summary

__all__ = [
    "ColumnarBatch",
    "CompactionReport",
    "DatasetStore",
    "IngestPipeline",
    "PipelineStats",
    "POLICIES",
    "QuantileSketch",
    "RecordBatch",
    "Segment",
    "SegmentBuilder",
    "ShardStats",
    "StoreAggregates",
    "StoreStats",
    "Summary",
    "UploadChunk",
    "batch_of",
    "columnize",
    "merge_segments",
    "shard_of",
]
