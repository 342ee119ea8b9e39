"""E1 (Figure 1): the platform pipeline, deployment to dataset routing.

Measures a full simulated campaign — task publication, device sampling,
store-and-forward uploads, Hive routing — and checks the architecture's
flow invariants (everything a device collected reaches the Honeycomb).
"""

import pytest

from benchmarks.conftest import record_rows
from repro.apisense import Campaign, CampaignConfig, SensingTask, WinWinIncentive
from repro.units import DAY


def run_campaign(population, n_days: float):
    campaign = Campaign(
        population,
        incentive=WinWinIncentive(),
        config=CampaignConfig(n_days=n_days, seed=1),
    )
    honeycomb = campaign.deploy(
        SensingTask(
            name="mobility",
            sensors=("gps", "battery"),
            sampling_period=300.0,
            upload_period=1800.0,
            end=n_days * DAY,
        )
    )
    report = campaign.run()
    return campaign, honeycomb, report


@pytest.mark.benchmark(group="platform")
def test_bench_campaign_throughput(benchmark, population):
    campaign, honeycomb, report = benchmark.pedantic(
        lambda: run_campaign(population, n_days=2.0), iterations=1, rounds=3
    )
    rows = [
        {
            "devices": report.n_devices,
            "records": report.total_records,
            "uploads": report.uploads_per_task["mobility"],
            "messages": report.messages_sent,
            "events": report.events_processed,
            "acceptance": round(report.acceptance_rate_per_task["mobility"], 2),
        }
    ]
    record_rows(benchmark, rows)
    # Flow invariant of Figure 1: device data all lands at the Honeycomb.
    assert honeycomb.n_records("mobility") == report.total_records
    assert report.total_records > 0
    # Offloading works: more than half the community participates.
    assert report.acceptance_rate_per_task["mobility"] > 0.4


#: Events the day below processed when every sample was an event: 4 018
#: ticks (one per record) plus 1 561 offers, uploads, deliveries and flushes.
PER_TICK_EVENTS = 5_579


@pytest.mark.benchmark(group="platform")
def test_bench_event_rate(benchmark, population):
    """Simulator capacity: events per second of wall-clock."""

    def run():
        campaign, _, report = run_campaign(population, n_days=1.0)
        return campaign, report

    campaign, report = benchmark(run)
    stats = [s for device in campaign.devices for s in device.stats.values()]
    ticks = sum(
        s.samples_taken + s.samples_filtered + s.samples_battery_refused + s.script_errors
        for s in stats
    )
    # Every sampled record was stored, and the scriptless task's ticks
    # were sampled as a grid at upload time: none of them is an event.
    assert report.total_records == sum(s.samples_taken for s in stats) == 4_018
    assert report.events_processed == PER_TICK_EVENTS - ticks
