"""What the command families share: the flags several commands take
(declared once, as argparse parent parsers), the one CSV replay, the
store query path and the campaign set-up."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
from typing import Callable, Iterator

from repro import obs


def flag_group(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Flags declared once: a parent parser that every command taking
    them lists in its ``parents``."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def population_flags(users: int, days: int, period: float) -> argparse.ArgumentParser:
    """``--users`` / ``--days`` / ``--period``, with one command's defaults."""
    flags = flag_group()
    flags.add_argument("--users", type=int, default=users)
    flags.add_argument("--days", type=int, default=days)
    flags.add_argument("--period", type=float, default=period, help="sampling period (s)")
    return flags


def out_flag(required: bool, help: str | None = None) -> argparse.ArgumentParser:
    flags = flag_group()
    flags.add_argument("--out", required=required, help=help)
    return flags


SEED = flag_group()
SEED.add_argument("--seed", type=int, default=0)

INPUT = flag_group()
INPUT.add_argument("--input", required=True, help="mobility CSV (user,time,lat,lon)")

#: A CSV loaded as one task's GPS records into a sharded store.
STORE = flag_group(INPUT)
STORE.add_argument("--task-name", default="ingested", help="task label")
STORE.add_argument("--shards", type=int, default=4)

SEGMENTS = flag_group()
SEGMENTS.add_argument("--segment-capacity", type=int, default=4096)

QUERY = flag_group(out_flag(False, "write matching rows as CSV"))
QUERY.add_argument("--t0", type=float, help="inclusive start time (s)")
QUERY.add_argument("--t1", type=float, help="exclusive end time (s)")
QUERY.add_argument(
    "--bbox",
    type=float,
    nargs=4,
    metavar=("SOUTH", "WEST", "NORTH", "EAST"),
    help="spatial filter in decimal degrees",
)
QUERY.add_argument("--user", help="restrict to one user")

FLUSH_DELAY = flag_group()
FLUSH_DELAY.add_argument("--flush-delay", type=float, default=30.0)

#: A CSV replayed through a pipeline into one windowed view.
STREAM = flag_group(STORE, FLUSH_DELAY)
STREAM.add_argument("--window", type=float, default=3600.0, help="window size (s)")
STREAM.add_argument(
    "--slide", type=float, help="window slide (s); defaults to --window (tumbling)"
)
STREAM.add_argument(
    "--lateness", type=float, default=1800.0, help="allowed event lateness (s)"
)
STREAM.add_argument(
    "--cell-deg", type=float, default=0.005, help="coverage cell size (deg)"
)
STREAM.add_argument("--history", type=int, default=256, help="windows retained per view")


def command_group(subparsers, name: str, help: str):
    """A command family, ``repro NAME VERB``: returns its verbs' subparsers."""
    group = subparsers.add_parser(name, help=help)
    return group.add_subparsers(
        dest=f"{name}_command", title=f"{name} subcommands", required=True
    )


def command(subparsers, name: str, handler, *parents: argparse.ArgumentParser):
    """Command ``name``, run by ``handler(args)``; its help line is the
    first line of the handler's docstring."""
    help = (handler.__doc__ or "").split("\n")[0].rstrip(".")
    parser = subparsers.add_parser(name, help=help, parents=parents)
    parser.set_defaults(handler=handler)
    return parser


def csv_records(args: argparse.Namespace) -> list:
    """``--input`` as single-task GPS records in time order (the arrival
    order a live deployment would see)."""
    from repro.apisense.device import SensorRecord
    from repro.mobility import MobilityDataset

    records = [
        SensorRecord(f"csv:{user}", user, args.task_name, record.time, {"gps": record.point})
        for user, record in MobilityDataset.from_csv(args.input).all_records()
    ]
    return sorted(records, key=lambda r: r.time)


def new_store(args: argparse.Namespace):
    from repro.store import DatasetStore

    return DatasetStore(n_shards=args.shards, segment_capacity=args.segment_capacity)


def scan_and_report(args: argparse.Namespace, source, what: str = "query") -> None:
    """Scan ``source`` (a store or a federation) with the :data:`QUERY`
    filters, print what matched and write it to ``--out``."""
    import csv

    bbox = tuple(args.bbox) if args.bbox else None
    batch = source.scan(args.task_name, t0=args.t0, t1=args.t1, bbox=bbox, user=args.user)
    users = set(batch.user_names())
    print(f"{what} matched {len(batch)} records from {len(users)} users")
    if len(batch):
        print(f"  time span [{batch.time.min():.0f}, {batch.time.max():.0f}]s")
    if args.out:
        with open(args.out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["user", "time", "lat", "lon", "value"])
            writer.writerows(batch.rows())
        print(f"wrote {len(batch)} rows to {args.out}")


class Replay:
    """``--input`` replayed in time order through a fresh ingest stack:
    a simulator, a store, an ingest pipeline and — unless ``streams`` is
    false — a stream engine with one view, ``"window"``, plus a metrics
    scraper when ``scrape``.  ``segment_capacity`` and the ``pipeline``
    keywords carry ``store stats``' flags; their defaults are the
    components' own.  Built by :func:`replay`."""

    def __init__(
        self, args, sim, streams=True, scrape=False, segment_capacity=4096, **pipeline
    ):
        from repro.store import DatasetStore, IngestPipeline
        from repro.streams import StreamEngine, WindowSpec

        self.args = args
        self.records = csv_records(args)
        self.sim = sim
        self.scraper = self.engine = None
        if scrape:
            self.scraper = obs.MetricsScraper(cadence=args.cadence, capacity=args.retain)
            if self.records:
                # Bounded past the last record's window close, so the
                # periodic scrape cannot keep the drained simulator alive.
                horizon = self.records[-1].time + max(args.window, args.lateness)
                self.scraper.start(sim, until=horizon + args.flush_delay)
        if streams:
            slide = args.slide if args.slide is not None else args.window
            self.engine = StreamEngine(
                sim,  # the clock of lag views: this replay's pipeline delay
                pane_seconds=min(slide, args.window),
                allowed_lateness=args.lateness,
                cell_deg=args.cell_deg,
                history=args.history,
            )
            self.engine.register_view("window", WindowSpec(size=args.window, slide=slide))
        self.store = DatasetStore(n_shards=args.shards, segment_capacity=segment_capacity)
        self.pipeline = IngestPipeline(
            sim, self.store, flush_delay=args.flush_delay, **pipeline
        )
        if self.engine is not None:
            self.engine.attach(self.pipeline)

    def timeline(self) -> Iterator[float]:
        """Submit the records one same-timestamp group at a time, then
        drain the simulator, the pipeline and the engine.

        Each group's timestamp is yielded first, so the caller advances
        the clock there (``sim.run_until`` or a server's ``drive``):
        windows close as event time advances, and ingest lag measures
        flush batching, not submit slicing.  Groups pass the Hive
        gateway's traced admit gate: sampled ones carry a trace id.
        """
        tracer = obs.tracer()
        for timestamp, group in itertools.groupby(self.records, key=lambda r: r.time):
            yield timestamp
            batch = list(group)
            trace_id = tracer.new_trace()
            if trace_id is None:
                self.pipeline.submit(batch)
                continue
            batch = [dataclasses.replace(r, trace_id=trace_id) for r in batch]
            with tracer.span(
                "ingest.admit", trace_id=trace_id, task=self.args.task_name, batch=len(batch)
            ) as span:
                span.add_records({trace_id: [r.time for r in batch]})
                self.pipeline.submit(batch)
        self.sim.run()
        self.pipeline.flush_all()
        if self.engine is not None:
            self.engine.finalize()

    def run(self) -> None:
        """Replay on the simulator alone."""
        for timestamp in self.timeline():
            self.sim.run_until(max(self.sim.now, timestamp))

    def watch(self, subscribe, show: Callable[[list], None], slos=None) -> None:
        """Replay behind an in-process :class:`repro.server.ReproServer`:
        one client, whose channel ``subscribe(client)`` opens, hands every
        batch of pushes to ``show`` as it arrives.  The scraper (and the
        ``slos`` evaluated at its frames) feeds the ``obs watch`` channel."""
        import asyncio

        from repro.server import ReproServer, ServerClient

        server = ReproServer(
            engine=self.engine, sim=self.sim, scraper=self.scraper, slos=slos
        )

        async def run() -> None:
            client = ServerClient(server.connect_in_process())
            await client.connect()
            await subscribe(client)
            for timestamp in self.timeline():
                await pump_pushes(client, show)
                if timestamp > self.sim.now:
                    await server.drive(timestamp, slice_seconds=self.args.window)
            await server.drain()
            await pump_pushes(client, show)
            await client.close()

        asyncio.run(run())


@contextlib.contextmanager
def replay(args, sample_rate: float | None = None, **options) -> Iterator[Replay]:
    """A :class:`Replay` of ``--input`` (``options`` as for its constructor)
    with its own obs registry and tracer on the replay's simulator clock
    (:func:`repro.obs.scoped`), tracing on at ``sample_rate`` if given.
    Read the registry and the trace log inside the block."""
    from repro.simulation import Simulator

    sim = Simulator()
    tracing = sample_rate is not None
    with obs.scoped(tracing=tracing, sample_rate=sample_rate, clock=lambda: sim.now):
        yield Replay(args, sim, **options)


async def pump_pushes(client, show: Callable[[list], None]) -> None:
    """Let the server's delivery pass run, then hand every push that
    arrived to ``show`` (repeats until a pass delivers nothing)."""
    import asyncio

    while True:
        await asyncio.sleep(0)
        pushes = client.drain_pushes()
        if not pushes:
            return
        show(pushes)


def population(args: argparse.Namespace, **config):
    """``--users`` x ``--days`` of synthetic mobility, seeded by ``--seed``."""
    from repro.mobility import GeneratorConfig, MobilityGenerator

    config = GeneratorConfig(n_users=args.users, n_days=args.days, **config)
    return MobilityGenerator(config).generate(seed=args.seed)


def sensing_task(args: argparse.Namespace, name: str):
    """The GPS + battery task a platform command deploys: one sample per
    ``--period``, uploads every half hour, for ``--days``."""
    from repro.apisense import SensingTask
    from repro.units import DAY

    return SensingTask(
        name=name,
        sensors=("gps", "battery"),
        sampling_period=args.period,
        upload_period=1800.0,
        end=args.days * DAY,
    )


def build_campaign(args: argparse.Namespace, task_name: str, incentive=None, loss=0.0):
    """A :class:`~repro.apisense.Campaign` over :func:`population` with
    :func:`sensing_task` deployed; returns ``(campaign, honeycomb)``."""
    from repro.apisense import Campaign, CampaignConfig

    config = CampaignConfig(n_days=float(args.days), uplink_loss=loss, seed=args.seed)
    campaign = Campaign(population(args), incentive=incentive, config=config)
    return campaign, campaign.deploy(sensing_task(args, task_name))
