"""Country registry with alias-based name normalization.

The registry maps ISO-3166 alpha-3 codes to display names and continents,
and alpha-2 codes (what live geocoders answer with) to alpha-3.
Source databases spell country names inconsistently ("USA", "United States
of America (the)", "Viet Nam"), so lookups go through an alias table that
is case- and punctuation-insensitive. Unknown names are reported as
unresolved, never guessed.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import BinaryIO, Iterator


class Continent(str, Enum):
    ASIA = "Asia"
    NORTH_AMERICA = "NorthAmerica"
    AFRICA = "Africa"
    EUROPE = "Europe"
    SOUTH_AMERICA = "SouthAmerica"
    OCEANIA = "Oceania"


@dataclass(frozen=True)
class CountryCode:
    iso3: str
    display_name: str
    continent: Continent


_NON_WORD_RE = re.compile(r"[^\w\s]", re.UNICODE)


def normalize_name(raw: str) -> str:
    """Lowercase, drop punctuation, collapse whitespace."""
    cleaned = _NON_WORD_RE.sub(" ", raw.lower())
    return " ".join(cleaned.split())


def _default_data_path(filename: str) -> Path:
    return Path(str(resources.files("coverage_auditor").joinpath("data", filename)))


class CountryRegistry:
    """Immutable lookup from country names/aliases to CountryCode."""

    def __init__(self, countries: dict[str, CountryCode], aliases: dict[str, str],
                 iso2: dict[str, str]):
        self._countries = dict(countries)
        self._aliases = dict(aliases)  # normalized alias -> iso3
        self._iso2 = dict(iso2)  # upper-case alpha-2 -> iso3

    @classmethod
    def load(cls, registry_path: Path | None = None,
             alias_path: Path | None = None) -> "CountryRegistry":
        registry_path = registry_path or _default_data_path("country_registry.tsv")
        alias_path = alias_path or _default_data_path("country_aliases.tsv")

        rows = _read_tsv(registry_path, 4, lambda iso3, display_name, continent, iso2: (
            iso2, CountryCode(iso3, display_name, Continent(continent))))
        countries = {code.iso3: code for _, code in rows}

        def alias_row(alias: str, iso3: str) -> tuple[str, str]:
            if iso3 not in countries:
                raise ValueError(f"alias {alias!r} points to unknown code {iso3!r}")
            return _alias_key("alias", alias), iso3

        aliases: dict[str, str] = {}
        # Canonical display names always resolve to themselves.
        for code in countries.values():
            aliases[_alias_key("display name", code.display_name)] = code.iso3
            aliases[_alias_key("code", code.iso3)] = code.iso3
        aliases.update(_read_tsv(alias_path, 2, alias_row))
        return cls(countries, aliases, {iso2: code.iso3 for iso2, code in rows})

    def get(self, iso3: str) -> CountryCode:
        return self._countries[iso3]

    def get_optional(self, iso3: str) -> CountryCode | None:
        return self._countries.get(iso3)

    def from_iso2(self, iso2: str) -> CountryCode | None:
        """The country with this alpha-2 code (any case), or None."""
        iso3 = self._iso2.get(iso2.upper())
        return self._countries[iso3] if iso3 else None

    def normalize_country(self, name_raw: str) -> CountryCode | None:
        """Resolve a raw country name through the alias table, or None."""
        iso3 = self._aliases.get(normalize_name(name_raw))
        return self._countries[iso3] if iso3 else None

    def alias_items(self) -> list[tuple[str, CountryCode]]:
        """All (normalized alias, country) pairs, each alias once: the
        phrases of whole-text country inference."""
        return [(alias, self._countries[iso3]) for alias, iso3 in self._aliases.items()]

    def __len__(self) -> int:
        return len(self._countries)

    def __iter__(self):
        return iter(sorted(self._countries.values(), key=lambda c: c.iso3))


def _alias_key(kind: str, name: str) -> str:
    """``name`` normalized. A name that normalizes to nothing would answer
    for every name without a word in it, so it is a ``ValueError``."""
    key = normalize_name(name)
    if not key:
        raise ValueError(f"{kind} {name!r} normalizes to nothing")
    return key


def text_lines(fh: BinaryIO, name: str, error: type[Exception] = ValueError) -> Iterator[str]:
    """The lines of the binary input file ``fh``, decoded from UTF-8 one at a
    time: a byte-order mark is dropped from the first, and ``\\r\\n`` and a
    lone ``\\r`` are read as ``\\n``, as text mode reads them. A line that is
    not UTF-8 raises ``error("<name> line N: <problem>")``. Every input but
    the corpus is read through here."""
    for n, raw in enumerate(fh, start=1):
        try:
            line = raw.decode("utf-8-sig" if n == 1 else "utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"{name} line {n}: {exc}") from None
        if "\r" in line:
            yield from io.StringIO(line, newline=None)
        else:
            yield line


def _read_tsv(path: Path, width: int | None, row=lambda *fields: fields) -> list:
    """``row(*fields)`` of each row of a tab-separated table, its fields
    stripped; blank lines and ``#`` comments are skipped. A row of another
    ``width`` (any width if None), a ValueError from ``row``, or a line that
    is not UTF-8, is a ValueError naming the file and line."""
    rows = []
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(text_lines(fh, str(path)), start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = [field.strip() for field in line.split("\t")]
            try:
                if width is not None and len(fields) != width:
                    raise ValueError(f"{len(fields)} tab-separated fields, expected {width}")
                rows.append(row(*fields))
            except ValueError as exc:
                raise ValueError(f"{path} line {line_no}: {exc}") from None
    return rows


_DEFAULT: CountryRegistry | None = None


def default_registry() -> CountryRegistry:
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = CountryRegistry.load()
    return _DEFAULT
