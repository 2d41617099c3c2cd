"""Artifact rows: ``json_row`` builds a row dataclass's ``to_json_line()``,
``from_json_dict(row, registry=None)`` and ``json_keys`` from its fields, as
``dataclass`` builds ``__init__``. ``to_json_line`` is a row's one writer: it
writes the row as text, one %-template per row type with its keys sorted and
nested rows inlined, generated from a table of annotations (an Enum is
written as its value, a date in ISO format, a ``CountryCode`` as its iso3 and
a nested row as its object), byte for byte the line that ``json.dumps(...,
sort_keys=True, separators=(",", ":"), ensure_ascii=False)`` would write for
the row's object. It is generated on its first call, so that importing a row
type stays cheap. The decoder checks each value against its field's
annotation (a bool is not an int) and raises ``RowError`` naming the key
(``date.year_source`` if nested). ``read_jsonl`` reads a JSON-lines file and
names the line of any bad row.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import types
import typing
from datetime import date
from enum import EnumMeta
from json.encoder import encode_basestring as _str  # json's own, in C
from pathlib import Path

from .countries import CountryCode, text_lines

# The name of each type ``json.loads`` returns.
_JSON = {str: "string", int: "integer", float: "number", bool: "boolean",
         types.NoneType: "null", list: "array", dict: "object"}


def _typed(name: str, value, *kinds: type):
    """``value`` if its type is one of ``kinds`` (exactly, so a bool is no
    integer); else a ValueError naming the field (a value of no JSON type
    is "nothing")."""
    if type(value) not in kinds:
        raise ValueError(f"{name}: expected {' or '.join(map(_JSON.get, kinds))}, "
                         f"got {_JSON.get(type(value), 'nothing')}")
    return value


class RowError(ValueError):
    """A JSON row that does not fit its row type."""


def _float(value) -> str:
    """A float as ``json`` writes it."""
    return (repr(value) if math.isfinite(value) else
            "NaN" if value != value else "Infinity" if value > 0 else "-Infinity")


# A leaf annotation's %-format, and the expression that fills it to write a
# value ``{}`` as JSON text.
_LEAVES = {
    str: ("%s", "_str({})"),
    int: ("%s", "repr({})"),
    float: ("%s", "_float({})"),
    bool: ("%s", "('true' if {} else 'false')"),
    date: ('"%s"', "{}.isoformat()"),
    CountryCode: ("%s", "_str({}.iso3)"),
}


def _filled(fmt: str, args: list[str]) -> str:
    """The expression that fills the %-format ``fmt`` with ``args``."""
    return args[0] if fmt == "%s" else f"{fmt!r} % ({', '.join(args)},)"


def _writers(tp, value: str, depth: int = 0) -> tuple[str, list[str]]:
    """How the value of expression ``value``, of annotation ``tp``, is
    written as JSON text (a tuple as an array): a %-format and the
    expressions that fill it. ``depth`` names loop variables."""
    if type(tp) is types.UnionType:  # X | None
        fmt, args = _writers(typing.get_args(tp)[0], value, depth)
        return "%s", [f"('null' if {value} is None else {_filled(fmt, args)})"]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    item, key = f"_v{depth}", f"_k{depth}"
    if origin is list:
        fmt, texts = _writers(args[0], item, depth + 1)
        return "[%s]", [f"','.join([{_filled(fmt, texts)} for {item} in {value}])"]
    if origin is tuple:
        parts = [_writers(arg, f"{value}[{i}]", depth) for i, arg in enumerate(args)]
        return ("[%s]" % ",".join(fmt for fmt, _ in parts),
                [arg for _, part in parts for arg in part])
    if origin is dict:  # keys sorted, as json sorts them
        fmt, texts = _writers(args[1], item, depth + 1)
        text = _filled("%s:" + fmt, [f"_str({key})", *texts])
        return "{%s}", [f"','.join([{text} for {key}, {item} in sorted({value}.items())])"]
    if hasattr(tp, "from_json_dict"):
        return _object(tp, value, depth)
    if isinstance(tp, EnumMeta):  # a str Enum member's text is its value
        return "%s", [f"_str({value})"]
    fmt, text = _LEAVES[tp]
    return fmt, [text.format(value)]


def _object(cls, value: str, depth: int) -> tuple[str, list[str]]:
    """The %-format and expressions writing row ``value`` of type ``cls``."""
    fmts, args = [], []
    for key, tp, name in sorted(cls._json_fields):
        fmt, texts = _writers(tp, f"{value}.{name}", depth)
        fmts.append(_str(key).replace("%", "%%") + ":" + fmt)
        args += texts
    return "{%s}" % ",".join(fmts), args


def _line_writer(cls):
    """``cls``'s generated ``to_json_line``."""
    fmt, args = _object(cls, "self", 0)
    namespace = {"_str": _str, "_float": _float}
    exec("def to_json_line(self):\n    return %r %% (%s,)\n" % (fmt, ", ".join(args)),
         namespace)
    return namespace["to_json_line"]


_ISO_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def iso_date(text: str) -> date:
    """The date that ``text`` writes as exactly ``YYYY-MM-DD``, or a
    ValueError. ``date.fromisoformat`` alone reads more forms on Python 3.11
    (``20160301``, ``2016-W10-4``) than on 3.10."""
    if not _ISO_DATE_RE.fullmatch(text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return date.fromisoformat(text)


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
        return iso_date(value)
    if tp is CountryCode:
        if (country := registry.get_optional(value)) is None:
            raise ValueError(f"unknown country {value!r}")
        return country
    return float(value) if tp is float else value


def json_row(keys: dict[str, str] | None = None):
    """``keys``: a field's key, where it is not the field's name."""
    keys = keys or {}

    def build(cls):
        hints = typing.get_type_hints(cls)
        names = [f.name for f in dataclasses.fields(cls)]
        cls.json_keys = tuple(keys.get(name, name) for name in names)
        # (key, annotation, field name)
        cls._json_fields = tuple(
            (key, hints[name], name) for name, key in zip(names, cls.json_keys))

        def to_json_line(self):
            """This row as one line of JSON, its keys sorted."""
            write = _line_writer(cls)
            if cls.__dict__["to_json_line"] is to_json_line:  # unless patched meanwhile
                cls.to_json_line = write
            return write(self)
        cls.to_json_line = to_json_line

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
        for n, line in enumerate(text_lines(fh, Path(path).name, RowError), start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                rows.append(decode(row) if decode else row)
            except (ValueError, KeyError, TypeError) as exc:  # RowError included
                problem = (f"{exc.args[0]}: missing" if type(exc) is KeyError else
                           f"{exc.msg}: column {exc.colno}"
                           if isinstance(exc, json.JSONDecodeError) else exc)
                raise RowError(f"{Path(path).name} line {n}: {problem}") from None
    return rows
