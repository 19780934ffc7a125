"""Dataclass records as JSON values, for the config and report documents."""

from __future__ import annotations

from dataclasses import fields
from enum import Enum
from typing import Any


def json_record(record: Any) -> dict[str, Any]:
    """A dataclass record's fields as JSON values: enum members by value, tuples as lists."""
    return {f.name: _json_value(getattr(record, f.name)) for f in fields(record)}


def _json_value(value: Any) -> Any:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_json_value(item) for item in value]
    return value
