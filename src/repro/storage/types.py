"""Column types and value coercion for the storage engine.

Every value written to a table passes through :func:`coerce` for its
column's declared type.  Coercion is strict where it matters (no silent
truncation, no bool→int surprises) and convenient where it is safe
(ISO strings for datetimes, ints for floats).
"""

from __future__ import annotations

import datetime as _dt
import enum
import json
from typing import Any

from repro.errors import SchemaError


class ColumnType(enum.Enum):
    """The value domains the engine supports."""

    INT = "int"
    FLOAT = "float"
    TEXT = "text"
    BOOL = "bool"
    DATETIME = "datetime"
    JSON = "json"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnType.{self.name}"


#: The Python type every non-null value of each plain column type has
#: once coerced (:meth:`Table.load_rows` calls :func:`coerce` only for
#: other values).  Such values already compare in :func:`sort_key`
#: order, and equal ones share a hash and a sort key.
PLAIN_TYPES = {
    ColumnType.INT: int,
    ColumnType.FLOAT: float,
    ColumnType.TEXT: str,
    ColumnType.BOOL: bool,
}

_DATETIME_FORMATS = (
    "%Y-%m-%dT%H:%M:%S",
    "%Y-%m-%dT%H:%M:%S.%f",
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%d",
)


def _parse_datetime(value: str) -> _dt.datetime:
    for fmt in _DATETIME_FORMATS:
        try:
            return _dt.datetime.strptime(value, fmt)
        except ValueError:
            continue
    raise SchemaError(f"cannot parse {value!r} as a datetime")


def decode_datetime(value: str) -> _dt.datetime:
    """Parse a stored datetime (``to_jsonable``'s ``isoformat()`` output).

    ``fromisoformat`` is ~40× faster than the ``strptime`` ladder and
    returns the same value for every string both accept; anything it
    rejects, or reads as timezone-aware, goes through the strict
    parser, which raises :class:`SchemaError` where :func:`coerce`
    would.  :func:`coerce` itself stays on the strict parser.
    """
    try:
        parsed = _dt.datetime.fromisoformat(value)
    except ValueError:
        return _parse_datetime(value)
    if parsed.tzinfo is not None:
        return _parse_datetime(value)
    return parsed


def coerce(value: Any, column_type: ColumnType, *, column: str = "?") -> Any:
    """Coerce *value* to *column_type*, raising :class:`SchemaError` on mismatch.

    ``None`` passes through — nullability is enforced separately by the
    table so that the error message can name the constraint.
    """
    if value is None:
        return None

    if column_type is ColumnType.INT:
        # bool is a subclass of int; writing True into an INT column is
        # almost always a bug, so reject it explicitly.
        if isinstance(value, bool):
            raise SchemaError(f"column {column!r}: bool given for INT")
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise SchemaError(f"column {column!r}: {value!r} is not an int")

    if column_type is ColumnType.FLOAT:
        if isinstance(value, bool):
            raise SchemaError(f"column {column!r}: bool given for FLOAT")
        if isinstance(value, (int, float)):
            return float(value)
        raise SchemaError(f"column {column!r}: {value!r} is not a float")

    if column_type is ColumnType.TEXT:
        if isinstance(value, str):
            return value
        raise SchemaError(f"column {column!r}: {value!r} is not text")

    if column_type is ColumnType.BOOL:
        if isinstance(value, bool):
            return value
        raise SchemaError(f"column {column!r}: {value!r} is not a bool")

    if column_type is ColumnType.DATETIME:
        if isinstance(value, _dt.datetime):
            return value
        if isinstance(value, _dt.date):
            return _dt.datetime(value.year, value.month, value.day)
        if isinstance(value, str):
            return _parse_datetime(value)
        raise SchemaError(f"column {column!r}: {value!r} is not a datetime")

    if column_type is ColumnType.JSON:
        # Accept anything JSON-representable; round-trip to guarantee it
        # and to deep-copy so callers cannot mutate stored state.
        try:
            return json.loads(json.dumps(value))
        except (TypeError, ValueError) as exc:
            raise SchemaError(
                f"column {column!r}: {value!r} is not JSON-serializable"
            ) from exc

    raise SchemaError(f"unknown column type {column_type!r}")  # pragma: no cover


def to_jsonable(value: Any, column_type: ColumnType) -> Any:
    """Encode a coerced value for the WAL / snapshot files."""
    if value is None:
        return None
    if column_type is ColumnType.DATETIME:
        return value.isoformat()
    return value


def from_jsonable(value: Any, column_type: ColumnType) -> Any:
    """Decode a WAL / snapshot value back to its runtime representation."""
    if value is None:
        return None
    if column_type is ColumnType.DATETIME:
        return decode_datetime(value)
    return coerce(value, column_type)


def sort_rank(value: Any) -> int:
    """The type tag :func:`sort_key` gives *value* (its first element),
    without building the key: values of a lower rank sort first."""
    if value is None:
        return 0
    if isinstance(value, (int, float)):
        return 2
    if isinstance(value, _dt.datetime):
        return 3
    if isinstance(value, str):
        return 4
    return 5


def _canonical(value: Any, foreign: "list[Any]") -> Any:
    """*value* with every ``bool`` and integral finite ``float`` inside
    it replaced by the ``int`` it equals, so that containers equal by
    ``==`` (``[1] == [True] == [1.0]``) dump to one string.

    What a JSON column never stores — a tuple, a dict key that is not a
    ``str``, any object beyond ``str``, numbers and ``None`` — is noted
    in *foreign*: it dumps like a value the column does store (``(1,)``
    as ``[1]``) but equals none of them."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return int(value) if value.is_integer() else value
    if isinstance(value, (list, tuple)):
        if type(value) is not list:
            foreign.append(value)
        return [_canonical(item, foreign) for item in value]
    if isinstance(value, dict):
        if all(type(key) is str for key in value):
            return {key: _canonical(item, foreign) for key, item in value.items()}
        # Keys of several types do not sort: key each by its own dump.
        foreign.append(value)
        return {
            json.dumps(_canonical(key, foreign), default=str): _canonical(item, foreign)
            for key, item in value.items()
        }
    if value is not None and not isinstance(value, (str, int)):
        foreign.append(value)
    return value


def sort_key(value: Any) -> tuple:
    """Total-order key over heterogeneous, possibly-None values.

    ``None`` sorts before everything (matching SQL ``NULLS FIRST``), then
    values are grouped by type so comparisons never raise.  Values that
    compare equal get equal keys, so an index probe finds what ``==``
    does: ``bool`` ranks as the number it equals (``True == 1 == 1.0``),
    an aware datetime by its UTC instant, and a JSON container by its
    :func:`_canonical` dump (``[True]`` as ``[1]``).  A value no JSON
    column stores sorts just after the one it dumps like, and never
    shares its key: ``(1,) != [1]``, so an index probe with ``(1,)``
    must not find ``[1]``.
    """
    if value is None:
        return (0, "")
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, _dt.datetime):
        if value.utcoffset() is not None:
            value = value.astimezone(_dt.timezone.utc)
        return (3, value.isoformat())
    if isinstance(value, str):
        return (4, value)
    foreign: list[Any] = []
    dumped = json.dumps(_canonical(value, foreign), sort_keys=True, default=str)
    return (5, dumped, 1) if foreign else (5, dumped)
