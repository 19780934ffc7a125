"""Input files as values, and dataclass records as JSON values and back.

``read_input``, ``decode_text``, ``decode_json`` and ``check_format``
turn each fault of an input file into one ValueError; a caller adds only
its error class and its lead-in, a line number or a file name.
``json_record`` writes a record's fields as JSON values, and
``record_values`` reads JSON values back into fields, each checked
against its field's annotation.  Every reader of a record shares these
rules: a bool is never a number, a float field takes an int and keeps it
an int, a tuple field takes a list, an enum field takes one of its
values, and only an ``X | None`` field takes null.
"""

from __future__ import annotations

import json
import sys
import types
import typing
from dataclasses import fields
from enum import Enum
from functools import cache
from pathlib import Path
from typing import Any, Callable, Mapping


def read_input(path: str | Path) -> bytes:
    """A file's bytes: FileNotFoundError if it is missing, ValueError if it cannot be read."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise FileNotFoundError(f"file not found: {path}") from None
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc


def decode_text(data: bytes) -> str:
    """``data`` as UTF-8 text; bytes that are not UTF-8 raise ValueError."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError("not valid UTF-8") from None


def decode_json(data: bytes | str) -> Any:
    """The JSON value of UTF-8 bytes or of text.  Every fault is a ValueError, also an
    integer longer than Python converts or nesting deeper than the decoder recurses;
    the line and column of a syntax error are given in a text of more than one line."""
    text = decode_text(data) if isinstance(data, bytes) else data
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        reason = f"{exc.msg}: line {exc.lineno} column {exc.colno}" if "\n" in text else exc.msg
    except RecursionError:
        reason = "nested too deeply"
    except ValueError:  # an integer past sys.get_int_max_str_digits()
        reason = f"an integer has more than {sys.get_int_max_str_digits()} digits"
    raise ValueError(f"invalid JSON ({reason})")


def check_format(document: Any, name: str, version_key: str, version: str) -> None:
    """ValueError unless ``document`` is a ``name`` object of ``version``'s major version."""
    if not isinstance(document, dict) or document.get("format") != name:
        raise ValueError(f"not a {name} document")
    found, major = str(document.get(version_key, "")), version.split(".")[0]
    if found.split(".")[0] != major:
        raise ValueError(f"unsupported {name} version {found!r}; this build reads {major}.x")


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
