"""Wire shapes of the serving tier: JSON-able digests and record codecs.

Every message the server sends or receives is a plain dict of JSON-able
values, so the in-process transport and the TCP binding carry the exact
same protocol.  This module holds the conversions:

- :func:`encode_record` — a :class:`~repro.apisense.device.SensorRecord`
  as an upload-surface payload row (``gps`` travels as a ``[lat, lon]``
  pair), and :func:`decode_row` — a payload row straight into an upload
  chunk's ``(time, lat, lon, value)`` row;
- :func:`snapshot_digest` — the dashboard push for one closed
  :class:`~repro.streams.views.WindowSnapshot`.  A digest is the
  *comparable* projection of a snapshot (counts, users, coverage,
  percentile readings) — two snapshots describing the same window
  digest identically, which is what the serving-tier tests and
  benchmarks assert between pushed streams and the engine's batch view;
- :func:`alert_digest` — one :class:`~repro.streams.queries.StreamAlert`
  as pushed on the channel;
- :func:`aggregate_digest` / :func:`secure_aggregate_digest` — the
  query surface's response bodies.

Floats are rounded to 9 decimals so digests survive a JSON round-trip
bit-identically.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.apisense.device import SensorRecord
from repro.errors import ServerError
from repro.geo.point import GeoPoint
from repro.store.columns import Row, row_of
from repro.streams.queries import StreamAlert
from repro.streams.views import WindowSnapshot


#: JSON numbers, for :func:`wire_field`.
NUMBER = (int, float)


def wire_field(
    message: Mapping[str, Any],
    name: str,
    kind: "type | tuple[type, ...]",
    default: Any = None,
    of: "type | tuple[type, ...] | None" = None,
) -> Any:
    """``message[name]``, checked to be of JSON type ``kind`` (``default`` if absent).

    Inbound frames are outside input: a field of the wrong type (or a
    list whose items are not ``of`` the right type) is the sender's
    error — a :class:`ServerError` naming the field, which the server
    answers on the same connection — never an exception that ends it.
    """
    value = message.get(name)
    if value is None:
        return default
    if not isinstance(value, kind):
        raise ServerError(f"field {name!r} must not be a {type(value).__name__}")
    if of is not None and not all(isinstance(item, of) for item in value):
        raise ServerError(f"field {name!r} holds an item of the wrong type")
    return value


def _num(value: float) -> float:
    """JSON-stable float: fixed precision, no negative zero."""
    rounded = round(float(value), 9)
    return rounded + 0.0  # -0.0 -> 0.0


# ----------------------------------------------------------------------
# Upload surface: sensor records
# ----------------------------------------------------------------------


def encode_record(record: SensorRecord) -> dict[str, Any]:
    """One record as an upload payload row."""
    values: dict[str, Any] = {}
    for name, item in record.values.items():
        if isinstance(item, GeoPoint):
            values[name] = [item.lat, item.lon]
        elif isinstance(item, (bool, int, float, str)) or item is None:
            values[name] = item
        else:
            raise ServerError(
                f"record value {name}={item!r} is not wire-serializable"
            )
    return {"time": record.time, "values": values}


def decode_row(row: Mapping[str, Any]) -> Row:
    """An upload payload row as a ``(time, lat, lon, value)`` row
    (:func:`~repro.store.columns.row_of`).

    A two-element list/tuple of numbers under any key is a
    :class:`GeoPoint` (and must be a valid one); the ``gps`` one gives
    the position.
    """
    # Checked inline, not through wire_field: this runs once per record.
    if not isinstance(row, dict):
        raise ServerError(f"upload records must be objects, not {row!r}")
    time, raw = row.get("time"), row.get("values", {})
    if not isinstance(time, NUMBER) or not isinstance(raw, dict):
        raise ServerError(
            f"upload row needs a numeric 'time' and an object 'values': {row!r}"
        )
    values: dict[str, Any] = {}
    for name, item in raw.items():
        if (
            isinstance(item, (list, tuple))
            and len(item) == 2
            and all(isinstance(c, (int, float)) for c in item)
        ):
            values[name] = GeoPoint(float(item[0]), float(item[1]))
        else:
            values[name] = item
    return row_of(float(time), values)


# ----------------------------------------------------------------------
# Channel surface: snapshots and alerts
# ----------------------------------------------------------------------


def snapshot_digest(snapshot: WindowSnapshot) -> dict[str, Any]:
    """The comparable projection of one closed window."""
    return {
        "task": snapshot.task,
        "view": snapshot.view,
        "start": _num(snapshot.start),
        "end": _num(snapshot.end),
        "records": snapshot.records,
        "n_users": snapshot.n_users,
        "coverage_cells": snapshot.coverage_cells,
        "value_count": snapshot.value_count,
        "value_sum": _num(snapshot.value_sum),
        "value_p50": _num(snapshot.value_quantile(0.50)),
        "value_p95": _num(snapshot.value_quantile(0.95)),
        "lag_p95": _num(snapshot.lag_quantile(0.95)),
        "top_users": [[user, count] for user, count in snapshot.top_users(3)],
    }


def alert_digest(alert: StreamAlert) -> dict[str, Any]:
    """One continuous-query firing as pushed on the channel."""
    return {
        "time": _num(alert.time),
        "task": alert.task,
        "view": alert.view,
        "query": alert.query,
        "window": [_num(alert.window[0]), _num(alert.window[1])],
        "message": alert.message,
    }


# ----------------------------------------------------------------------
# Query surface: aggregates
# ----------------------------------------------------------------------


def aggregate_digest(aggregate) -> dict[str, Any]:
    """A :class:`~repro.federation.query.FederatedTaskAggregate` body."""
    return {
        "task": aggregate.task,
        "records": aggregate.records,
        "n_users": aggregate.n_users,
        "coverage_cells": aggregate.coverage_cells,
        "first_time": aggregate.first_time,
        "last_time": aggregate.last_time,
        "lag_mean": _num(aggregate.lag_mean),
        "lag_p95": _num(aggregate.lag_p95),
        "members": sorted(aggregate.per_member),
        "per_member_records": {
            name: member.records for name, member in aggregate.per_member.items()
        },
    }


def secure_aggregate_digest(result) -> dict[str, Any]:
    """A :class:`~repro.federation.query.FederatedSecureAggregate` body."""
    return {
        "task": result.task,
        "records": result.records,
        "value_count": result.value_count,
        "value_sum": _num(result.value_sum),
        "mean_value": _num(result.mean_value),
        "histogram": dict(result.histogram) if result.histogram is not None else None,
        "contributors": result.contributors,
        "dropped": list(result.dropped),
        "protocol_split": dict(result.protocol_split),
        "members": list(result.members),
    }
