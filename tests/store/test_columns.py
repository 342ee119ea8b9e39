"""Unit tests for the one reader of ``SensorRecord.values`` (``chunks_of``,
through ``columnize``) and the one batch builder, ``batch_of``."""

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.store.columns import (
    RecordBatch,
    TaskRows,
    UploadChunk,
    batch_of,
    chunks_of,
    columnize,
    group_rows,
)
from tests.store.conftest import make_record, make_records


class TestColumnize:
    def test_columns_follow_record_order(self):
        records = [
            make_record(user="b", task="t2", time=5.0, lat=44.8, lon=-0.6, value=0.5),
            make_record(user="a", task="t1", time=1.0, lat=None, lon=None, value=2),
            make_record(user="b", task="t1", time=3.0, value=None),
        ]
        batch = columnize(records)
        assert batch.time.tolist() == [5.0, 1.0, 3.0]
        assert batch.lat.tolist()[0] == 44.8 and np.isnan(batch.lat[1])
        assert batch.value.tolist()[:2] == [0.5, 2.0] and np.isnan(batch.value[2])
        # Names are coded in first-appearance order.
        assert (batch.tasks, batch.task_index.tolist()) == (["t2", "t1"], [0, 1, 1])
        assert (batch.users, batch.user_index.tolist()) == (["b", "a"], [0, 1, 0])

    def test_a_batch_is_columns_not_records(self):
        records = make_records(5)
        batch = columnize(iter(records))
        assert isinstance(batch, RecordBatch) and not isinstance(batch, Sequence)
        assert len(batch) == 5 and batch.time.tolist() == [r.time for r in records]

    def test_a_batch_passes_through_and_empty_is_fine(self):
        batch = columnize(make_records(3))
        assert columnize(batch) is batch
        empty = columnize([])
        assert len(empty) == 0 and empty.time.shape == (0,) and empty.tasks == []

    def test_first_real_number_wins_and_bools_never_do(self):
        record = make_record(value=None)
        record.values.update(  # type: ignore[attr-defined]
            {"on": True, "flag": np.bool_(False), "name": "x", "level": np.float32(1.5), "n": 7}
        )
        assert columnize([record]).value.tolist() == [1.5]

    def test_traced_keys_skips_untraced(self):
        one, two, three = make_records(3, dt=1.0)
        batch = columnize(
            [
                dataclasses.replace(one, trace_id=7),
                two,
                dataclasses.replace(three, trace_id=7),
            ]
        )
        assert batch.traced_keys() == {7: [0.0, 2.0]}
        assert batch.traced_keys(np.array([1, 2])) == {7: [2.0]}
        assert columnize([two]).traced_keys() == {}


class TestGroupRows:
    def test_groups_in_first_appearance_order_rows_ascending(self):
        groups = group_rows(np.array([5, 2, 5, 9, 2, 5]))
        assert [g.tolist() for g in groups] == [[0, 2, 5], [1, 4], [3]]

    def test_single_code_is_one_group_of_every_row(self):
        assert [g.tolist() for g in group_rows(np.zeros(4, dtype=np.int64))] == [[0, 1, 2, 3]]


class TestBatchOf:
    def chunk(self, user, task, times, trace_id=None):
        rows = [(t, 44.8, -0.6, t / 10) for t in times]
        return UploadChunk(f"dev-{user}", user, task, rows, trace_id)

    def test_parts_keep_their_order_and_names_their_first_appearance(self):
        listed = [
            make_record(user="c", task="t2", time=3.0, value=0.5),
            make_record(user="a", task="t1", time=4.0, value=0.25),
        ]
        batch = batch_of(
            [
                self.chunk("b", "t1", [1.0, 2.0], trace_id=5),
                *chunks_of(listed),
                self.chunk("a", "t3", [5.0]),
            ]
        )
        assert batch.time.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert batch.value.tolist() == [0.1, 0.2, 0.5, 0.25, 0.5]
        assert (batch.tasks, batch.task_index.tolist()) == (["t1", "t2", "t3"], [0, 0, 1, 0, 2])
        assert (batch.users, batch.user_index.tolist()) == (["b", "c", "a"], [0, 0, 1, 2, 2])
        assert batch.trace_id.tolist() == [5, 5, -1, -1, -1]
        picked = TaskRows(batch, np.array([4, 0])).columns()
        assert picked.time.tolist() == [5.0, 1.0] and picked.user_names() == ["a", "b"]

    def test_a_record_list_becomes_one_chunk_per_run(self):
        one, two, three, four = make_records(4, dt=1.0)
        records = [
            one,
            dataclasses.replace(two, trace_id=7),
            dataclasses.replace(three, trace_id=7),
            dataclasses.replace(four, user="v"),
        ]
        chunks = chunks_of(records)
        assert [(c.user, c.task, c.trace_id, len(c)) for c in chunks] == [
            ("u0", "t", None, 1), ("u0", "t", 7, 2), ("v", "t", None, 1),
        ]
        again = columnize(records)
        rows = np.array([row for chunk in chunks for row in chunk.rows])
        assert again.lat.tobytes() == rows[:, 1].tobytes()
        assert again.value.tobytes() == rows[:, 3].tobytes()
        assert chunks_of(chunks[1]) == [chunks[1]]
        head, tail = chunks[1].split(1)
        assert (head.rows, tail.rows, tail.trace_id) == (chunks[1].rows[:1], chunks[1].rows[1:], 7)
