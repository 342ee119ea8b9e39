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
- :func:`~repro.store.columns.columnize` — one flush as a
  :class:`~repro.store.columns.RecordBatch` of columns, built once and
  shared by the store, the router and every flush listener;
- :class:`~repro.store.aggregates.StoreAggregates` — streaming per-task
  views (record counts, spatial coverage cells, freshness/lag
  percentiles) maintained incrementally at flush time.

The Hive routes every upload through an ingest pipeline into its store;
``python -m repro store`` exposes the same machinery from the shell.
"""

from repro.store.aggregates import StoreAggregates, TaskAggregate
from repro.store.columns import RecordBatch, columnize
from repro.store.dataset_store import (
    ColumnarBatch,
    CompactionReport,
    DatasetStore,
    ShardStats,
    StoreStats,
    shard_of,
)
from repro.store.pipeline import POLICIES, IngestPipeline, PipelineStats
from repro.store.quantiles import P2Quantile
from repro.store.segment import Segment, SegmentBuilder, merge_segments

__all__ = [
    "ColumnarBatch",
    "CompactionReport",
    "DatasetStore",
    "IngestPipeline",
    "P2Quantile",
    "PipelineStats",
    "POLICIES",
    "RecordBatch",
    "Segment",
    "SegmentBuilder",
    "ShardStats",
    "StoreAggregates",
    "StoreStats",
    "TaskAggregate",
    "columnize",
    "merge_segments",
    "shard_of",
]
