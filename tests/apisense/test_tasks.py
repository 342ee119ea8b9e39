"""Unit tests for the task DSL and its validation."""

import pytest

from repro.apisense.tasks import KNOWN_SENSORS, SensingTask
from repro.errors import TaskValidationError
from repro.geo.bbox import BoundingBox


class TestValidation:
    def test_minimal_valid_task(self):
        task = SensingTask(name="t", sensors=("gps",))
        assert task.duration > 0
        assert task.expected_samples() > 0

    def test_empty_name_rejected(self):
        with pytest.raises(TaskValidationError):
            SensingTask(name="", sensors=("gps",))

    def test_no_sensors_rejected(self):
        with pytest.raises(TaskValidationError):
            SensingTask(name="t", sensors=())

    def test_unknown_sensor_rejected(self):
        with pytest.raises(TaskValidationError) as error:
            SensingTask(name="t", sensors=("gps", "microphone"))
        assert "microphone" in str(error.value)

    def test_duplicate_sensor_rejected(self):
        with pytest.raises(TaskValidationError):
            SensingTask(name="t", sensors=("gps", "gps"))

    def test_sub_second_sampling_rejected(self):
        with pytest.raises(TaskValidationError):
            SensingTask(name="t", sensors=("gps",), sampling_period=0.5)

    def test_upload_faster_than_sampling_rejected(self):
        with pytest.raises(TaskValidationError):
            SensingTask(
                name="t", sensors=("gps",), sampling_period=60.0, upload_period=30.0
            )

    def test_backwards_window_rejected(self):
        with pytest.raises(TaskValidationError):
            SensingTask(name="t", sensors=("gps",), start=100.0, end=50.0)

    def test_non_callable_script_rejected(self):
        with pytest.raises(TaskValidationError):
            SensingTask(name="t", sensors=("gps",), script="not-a-function")  # type: ignore[arg-type]

    def test_all_known_sensors_accepted(self):
        SensingTask(name="t", sensors=tuple(sorted(KNOWN_SENSORS)))

    def test_region_task(self):
        region = BoundingBox(south=44.8, west=-0.65, north=44.88, east=-0.5)
        task = SensingTask(name="t", sensors=("gps",), region=region)
        assert task.region == region


class TestDerivedQuantities:
    def test_expected_samples(self):
        task = SensingTask(
            name="t", sensors=("gps",), sampling_period=60.0, start=0.0, end=3600.0
        )
        assert task.expected_samples() == 60

    def test_script_attached(self):
        def keep_fast(ctx):
            def tick(c):
                if c.accel.magnitude > 1.0:
                    c.save({"accelerometer": c.accel.magnitude})

            ctx.every(60.0, tick)

        task = SensingTask(name="t", sensors=("accelerometer",), script=keep_fast)
        assert task.script is keep_fast
