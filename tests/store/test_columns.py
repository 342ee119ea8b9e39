"""Unit tests for the one reader of ``SensorRecord.values``: ``columnize``."""

import dataclasses

import numpy as np

from repro.store.columns import RecordBatch, columnize, group_rows
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

    def test_batch_is_a_sequence_of_its_records(self):
        records = make_records(5)
        batch = columnize(iter(records))
        assert isinstance(batch, RecordBatch)
        assert len(batch) == 5 and list(batch) == records
        assert batch[1] is records[1] and batch[-2:] == records[-2:]
        assert records[2] in batch

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
