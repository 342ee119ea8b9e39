"""Command-line interface: ``python -m repro`` or the ``repro`` script.

One module per command family — :mod:`~repro.cli.dataset` (generate,
campaign, protect, attack, evaluate, stats, publish), ``store``,
``stream``, ``obs``, ``serve``, ``federation``, ``privacy`` and
``task`` — each adding its commands through ``init_subparser`` and
listing them in its docstring; :mod:`repro.cli.common` is what they
share.
"""

from __future__ import annotations

import argparse
from typing import Sequence

from repro.cli import dataset, federation, obs, privacy, serve, store, stream, task
from repro.errors import ReproError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Privacy-preserving crowd-sensing toolkit (APISENSE + PRIVAPI)",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for family in (dataset, store, stream, obs, serve, federation, privacy, task):
        family.init_subparser(commands)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the exit code: 0 done, 1 a reported failure
    (alerts fired, an SLO burning, a bar unmet), 2 a usage error — also
    for input the library (:class:`~repro.errors.ReproError`) or the
    system (:class:`OSError`) refuses, reported without a traceback."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, OSError) as error:
        parser.error(str(error))
