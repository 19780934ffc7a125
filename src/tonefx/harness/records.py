"""Dataclass records as JSON values and back, for config files, report rows and corpus lines.

``json_record`` writes a record's fields as JSON values, and
``record_values`` reads JSON values back into fields, each checked
against its field's annotation.  Every reader of a record shares these
rules: a bool is never a number, a float field takes an int and keeps it
an int, a tuple field takes a list, an enum field takes one of its
values, and only an ``X | None`` field takes null.
"""

from __future__ import annotations

import types
import typing
from dataclasses import fields
from enum import Enum
from functools import cache
from typing import Any, Callable, Mapping


def json_record(record: Any) -> dict[str, Any]:
    """A dataclass record's fields as JSON values: enum members by value, tuples as lists."""
    return {f.name: _json_value(getattr(record, f.name)) for f in fields(record)}


def _json_value(value: Any) -> Any:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_json_value(item) for item in value]
    return value


def record_values(cls: type, values: Mapping[str, Any]) -> dict[str, Any]:
    """The fields of dataclass ``cls`` present in ``values``, checked and converted.

    The inverse of ``json_record``: enum values become members and lists
    become tuples.  Keys that name no field are left out.  A value that
    does not fit its field raises a ValueError that starts with the
    field name, such as ``k must be an integer, got 2.5``.
    """
    record = {}
    for name, check, kind in _field_checks(cls):
        if name in values:
            value = values[name]
            try:
                record[name] = check(value)
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be {kind}, got {value!r}") from None
    return record


# one entry per record class, so the cache is as small as the set of classes
@cache
def _field_checks(cls: type) -> tuple[tuple[str, Callable[[Any], Any], str], ...]:
    hints = typing.get_type_hints(cls)
    return tuple((f.name, *_check(hints[f.name])) for f in fields(cls))


_KINDS = {str: "a string", int: "an integer", float: "a number", bool: "true or false"}


def _check(annotation: Any, nullable: bool = False) -> tuple[Callable[[Any], Any], str]:
    """A function that converts a JSON value for ``annotation`` or raises, and its wording."""
    origin = typing.get_origin(annotation)
    if origin is typing.Union or origin is types.UnionType:
        # X | None: the check for X also takes None, so no field pays for a second call
        (member,) = [arg for arg in typing.get_args(annotation) if arg is not type(None)]
        check, kind = _check(member, nullable=True)
        return check, f"{kind} or null"
    if origin is tuple:
        item, kind = _check(typing.get_args(annotation)[0])

        def check(value: Any) -> Any:
            if isinstance(value, (list, tuple)):
                return tuple(map(item, value))
            if nullable and value is None:
                return None
            raise TypeError

        return check, f"a list, each item {kind}"
    if issubclass(annotation, Enum):
        choices = ", ".join(repr(member.value) for member in annotation)

        def check(value: Any) -> Any:
            return None if nullable and value is None else annotation(value)

        return check, f"one of {choices}"
    accepted = (int, float) if annotation is float else annotation
    takes_bool = annotation is bool

    def check(value: Any) -> Any:
        if isinstance(value, accepted) and (takes_bool or value.__class__ is not bool):
            return value
        if nullable and value is None:
            return None
        raise TypeError

    return check, _KINDS[annotation]
