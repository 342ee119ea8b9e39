"""Shared fixtures for the observability-tier tests.

The registry and tracer are process-wide singletons; every test here
starts from a fresh pair (and leaves the process-wide defaults —
metrics on, tracing off — behind for whatever suite runs next).
"""

from __future__ import annotations

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def fresh_obs():
    obs.reset(metrics=True, tracing=False)
    yield
    obs.reset(metrics=True, tracing=False)


def stored_columns(store, task: str) -> tuple:
    """Everything the store holds for ``task``, comparable byte for byte
    (``==`` on the arrays would call two NaN coordinates different)."""
    batch = store.scan(task)
    return (
        batch.time.tobytes(),
        batch.lat.tobytes(),
        batch.lon.tobytes(),
        batch.value.tobytes(),
        batch.user_names(),
    )
