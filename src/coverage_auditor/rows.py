"""Artifact rows: ``json_row`` builds a row dataclass's ``to_json_dict()``,
``from_json_dict(row, registry=None)`` and ``json_keys`` from its fields,
as ``dataclass`` builds ``__init__``. The encoder is one generated function,
as fast as a dict literal: it writes an Enum as its value, a date in ISO
format, a ``CountryCode`` as its iso3 and a nested row as its object. The
decoder checks each value against its field's annotation (a bool is not an
int) and raises ``RowError`` naming the key (``date.year_source`` if nested).
``read_jsonl`` reads a JSON-lines file and names the line of any bad row.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from datetime import date
from enum import EnumMeta
from pathlib import Path

from .countries import CountryCode

# The name of each type ``json.loads`` returns.
_JSON = {str: "string", int: "integer", float: "number", bool: "boolean",
         types.NoneType: "null", list: "array", dict: "object"}


class RowError(ValueError):
    """A JSON row that does not fit its row type."""


def _write(tp) -> str:
    """The expression that writes a value ``{}`` of annotation ``tp``."""
    return ("{}.to_json_dict()" if hasattr(tp, "from_json_dict") else
            "{}.value" if isinstance(tp, EnumMeta) else
            {date: "{}.isoformat()", CountryCode: "{}.iso3"}.get(tp, "{}"))


def _read(tp, value, registry):
    """The value of annotation ``tp`` that a JSON value stands for, or a
    ValueError."""
    if optional := type(tp) is types.UnionType:  # X | None
        if value is None:
            return None
        tp = typing.get_args(tp)[0]
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    want = (list if origin in (list, tuple) else
            dict if origin is dict or hasattr(tp, "from_json_dict") else
            origin if origin in (int, float, bool) else str)
    if type(value) is not want and not (want is float and type(value) is int):
        raise ValueError(f"expected {_JSON[want]}{' or null' if optional else ''}, "
                         f"got {_JSON[type(value)]}")
    if origin is list:
        return [_read(args[0], item, registry) for item in value]
    if origin is tuple:
        if len(value) != len(args):
            raise ValueError(f"expected {len(args)} items, got {len(value)}")
        return tuple(_read(arg, item, registry) for arg, item in zip(args, value))
    if origin is dict:  # JSON keys are strings
        return {key: _read(args[1], item, registry) for key, item in value.items()}
    if hasattr(tp, "from_json_dict"):
        return tp.from_json_dict(value, registry)
    if isinstance(tp, EnumMeta):
        return tp(value)
    if tp is date:
        return date.fromisoformat(value)
    if tp is CountryCode:
        if (country := registry.get_optional(value)) is None:
            raise ValueError(f"unknown country {value!r}")
        return country
    return float(value) if tp is float else value


def json_row(keys: dict[str, str] | None = None, encode: dict[str, str] | None = None):
    """``keys``/``encode``: a field's key, or expression writing its value ``{}``."""
    keys, encode = keys or {}, encode or {}

    def build(cls):
        hints = typing.get_type_hints(cls)
        names = [f.name for f in dataclasses.fields(cls)]
        cls.json_keys = tuple(keys.get(name, name) for name in names)
        namespace: dict = {}
        exec("def to_json_dict(self):\n    return {%s}\n" % ", ".join(
            f"{key!r}: {(encode.get(name) or _write(hints[name])).format('self.' + name)}"
            for name, key in zip(names, cls.json_keys)), namespace)
        cls.to_json_dict = namespace["to_json_dict"]

        def from_json_dict(row, registry=None):
            if type(row) is not dict:
                raise RowError(f"expected object, got {_JSON[type(row)]}")
            values = {}
            for name, key in zip(names, cls.json_keys):
                try:
                    if key not in row:
                        raise ValueError("missing")
                    values[name] = _read(hints[name], row[key], registry)
                except RowError as exc:  # a nested row's
                    raise RowError(f"{key}.{exc}") from None
                except ValueError as exc:
                    raise RowError(f"{key}: {exc}") from None
            if extra := row.keys() - set(cls.json_keys):
                raise RowError(f"{min(extra)}: unexpected key")
            return cls(**values)
        cls.from_json_dict = staticmethod(from_json_dict)
        return cls
    return build


def read_jsonl(path: Path, decode=None) -> list:
    """The rows of a JSON-lines file, each passed through ``decode`` if given;
    blank lines are skipped. A line that does not parse or decode (a missing
    key included) is a RowError ``<file> line N: <problem>``, N counting
    every line of the file."""
    rows = []
    with open(path, "rb") as fh:
        for n, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line.decode("utf-8"))
                rows.append(decode(row) if decode else row)
            except (ValueError, KeyError, TypeError) as exc:  # RowError included
                problem = (f"{exc.args[0]}: missing" if type(exc) is KeyError else
                           f"{exc.msg}: column {exc.colno}"
                           if isinstance(exc, json.JSONDecodeError) else exc)
                raise RowError(f"{Path(path).name} line {n}: {problem}") from None
    return rows
