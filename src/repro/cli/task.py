"""``repro task``: vet or describe a sensing task before deploying it::

    repro task vet      --spec examples/adaptive_scripting.py
    repro task describe --spec my_experiment.py:TASK

A spec is a Python file exposing a :class:`~repro.apisense.tasks.
SensingTask` as ``TASK`` or through a ``build_task()`` factory; ``vet``
exits 1 when the dry run rejects the task.
"""

from __future__ import annotations

import argparse

from repro.cli import common

SPEC = common.flag_group()
SPEC.add_argument(
    "--spec",
    required=True,
    help="python file exposing TASK or build_task(), optionally path.py:ATTR",
)


def _load_task_from_spec(spec: str):
    """Load a :class:`SensingTask` from ``path.py`` or ``path.py:ATTR``.

    Without an explicit attribute the loader looks for ``TASK`` (a task
    instance) then ``build_task`` (a zero-argument factory) — the same
    contract the examples follow.  A spec requesting custom sensors must
    register them first (build the :class:`~repro.apisense.sensors.
    SensorSuite` providing them, or call ``sensor_registry.register``)
    — validation consults the process-wide registry.
    """
    import importlib.util
    from pathlib import Path

    from repro.apisense.tasks import SensingTask

    path, _, attribute = spec.partition(":")
    if not Path(path).exists():
        raise SystemExit(f"task spec not found: {path}")
    module_spec = importlib.util.spec_from_file_location("_task_spec", path)
    if module_spec is None or module_spec.loader is None:
        raise SystemExit(f"cannot import task spec: {path}")
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)

    candidates = [attribute] if attribute else ["TASK", "build_task"]
    for name in candidates:
        value = getattr(module, name, None)
        if value is None:
            continue
        if callable(value) and not isinstance(value, SensingTask):
            value = value()
        if isinstance(value, SensingTask):
            return value
        raise SystemExit(f"{path}:{name} is not a SensingTask (got {type(value).__name__})")
    if attribute:
        raise SystemExit(f"{path} has no attribute {attribute!r}")
    raise SystemExit(
        f"{path} exposes neither TASK nor build_task(); "
        "point at the right attribute with --spec path.py:NAME"
    )


def cmd_task_vet(args: argparse.Namespace) -> int:
    """Dry-run a task's script and print its DryRunReport."""
    from repro.apisense.vetting import dry_run_task

    task = _load_task_from_spec(args.spec)
    report = dry_run_task(task, n_samples=args.samples, seed=args.seed)
    print(report.to_text())
    return 0 if report.acceptable() else 1


def cmd_task_describe(args: argparse.Namespace) -> int:
    """Print a task's static description and handlers."""
    from repro.apisense.vetting import describe_task

    task = _load_task_from_spec(args.spec)
    print(describe_task(task))
    return 0


def init_subparser(subparsers) -> None:
    verbs = common.command_group(
        subparsers, "task", "Task lifecycle operations (vet / describe a task spec)"
    )
    vet = common.command(verbs, "vet", cmd_task_vet, SPEC, common.SEED)
    vet.add_argument("--samples", type=int, default=200, help="sampling ticks")
    common.command(verbs, "describe", cmd_task_describe, SPEC)
