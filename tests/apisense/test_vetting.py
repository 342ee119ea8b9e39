"""Unit tests for task script vetting."""

import pytest

from repro.apisense.tasks import SensingTask
from repro.apisense.vetting import dry_run_task


def task_with(script=None, sensors=("gps", "battery")):
    return SensingTask(name="vet-me", sensors=sensors, script=script)


def every_tick(handler):
    """A setup function that runs ``handler`` every sampling period."""

    def setup(ctx):
        ctx.every(ctx.task.sampling_period, handler)

    return setup


def save_all(ctx):
    ctx.save(ctx.read_all())


def explode(ctx):
    raise RuntimeError("boom")


class TestDryRun:
    def test_scriptless_task_passes_trivially(self):
        report = dry_run_task(task_with())
        assert report.errors == 0
        assert report.dropped == 0
        assert report.acceptable()

    def test_clean_script_passes(self):
        report = dry_run_task(task_with(script=every_tick(save_all)))
        assert report.error_rate == 0.0
        assert report.acceptable()

    def test_crashing_script_rejected(self):
        report = dry_run_task(task_with(script=every_tick(explode)))
        assert report.error_rate == 1.0
        assert report.dropped == 0  # a raise is an error, not a drop
        assert not report.acceptable()
        assert any("boom" in message for message in report.error_messages)

    def test_error_messages_deduplicated_and_capped(self):
        counter = {"n": 0}

        def varied_errors(ctx):
            counter["n"] += 1
            raise ValueError(f"error-{counter['n'] % 20}")

        report = dry_run_task(task_with(script=every_tick(varied_errors)), n_samples=100)
        assert len(report.error_messages) == 10

    def test_drop_everything_rejected(self):
        # Reads a sensor on every firing but never saves.
        report = dry_run_task(task_with(script=every_tick(lambda c: c.battery.level)))
        assert report.drop_rate == 1.0
        assert not report.acceptable()

    def test_selective_filter_accepted(self):
        def keep_low_battery(ctx):
            values = ctx.read_all()
            if values["battery"] < 0.5:
                ctx.save(values)

        report = dry_run_task(task_with(script=every_tick(keep_low_battery)), n_samples=400)
        assert 0.3 < report.drop_rate < 0.7
        assert report.acceptable()

    def test_deterministic_per_seed(self):
        def flaky(ctx):
            values = ctx.read_all()
            if values["battery"] > 0.9:
                raise RuntimeError("rare")
            ctx.save(values)

        a = dry_run_task(task_with(script=every_tick(flaky)), seed=5)
        b = dry_run_task(task_with(script=every_tick(flaky)), seed=5)
        assert a.errors == b.errors

    @pytest.mark.parametrize(
        "script",
        [
            pytest.param(lambda ctx: None, id="empty-setup"),
            # A per-sample hook passed as a script: called once with the
            # context, it returns it and registers nothing.
            pytest.param(lambda values: values, id="leftover-hook"),
        ],
    )
    def test_setup_registering_nothing_rejected(self, script):
        report = dry_run_task(task_with(script=script))
        assert report.samples == 0
        assert report.handlers == ()
        assert not report.acceptable()
        assert "registered no handler" in report.to_text()
        assert report.to_text().endswith("verdict: REJECTED")

    def test_deploy_with_vetting_blocks_bad_script(self, sim, hive):
        from repro.apisense.honeycomb import Honeycomb
        from repro.errors import TaskValidationError

        def bad_script(ctx):
            raise RuntimeError("bad script")

        honeycomb = Honeycomb("lab", hive)
        with pytest.raises(TaskValidationError) as error:
            honeycomb.deploy(task_with(script=every_tick(bad_script)), vet=True)
        assert "failed vetting" in str(error.value)
        assert honeycomb.tasks == []  # nothing was registered

    def test_deploy_with_vetting_passes_good_script(self, sim, hive):
        from repro.apisense.honeycomb import Honeycomb

        honeycomb = Honeycomb("lab", hive)
        honeycomb.deploy(task_with(script=every_tick(save_all)), vet=True)
        assert len(honeycomb.tasks) == 1

    def test_all_sensor_kinds_synthesized(self):
        seen = {}

        def record_types(ctx):
            values = ctx.read_all()
            seen.update({k: type(v).__name__ for k, v in values.items()})
            ctx.save(values)

        task = SensingTask(
            name="v",
            sensors=("gps", "battery", "network", "accelerometer"),
            script=every_tick(record_types),
        )
        dry_run_task(task, n_samples=5)
        assert seen["gps"] == "GeoPoint"
        assert seen["battery"] == "float"
