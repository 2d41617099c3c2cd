import codecs
import io
from importlib import resources
from pathlib import Path

import pytest

from coverage_auditor.countries import (Continent, CountryRegistry, _read_tsv,
                                        default_registry, normalize_name, text_lines)


def _bundled(filename: str) -> Path:
    return Path(str(resources.files("coverage_auditor").joinpath("data", filename)))


def test_normalize_name():
    assert normalize_name("  Iran (Islamic Republic of) ") == "iran islamic republic of"
    assert normalize_name("VIET NAM") == "viet nam"
    assert normalize_name("Cote-d'Ivoire") == "cote d ivoire"


@pytest.mark.parametrize("raw,iso3", [
    ("United States", "USA"),
    ("USA", "USA"),
    ("United States of America (the)", "USA"),
    ("U.S.", "USA"),
    ("United Kingdom", "GBR"),
    ("UK", "GBR"),
    ("Viet Nam", "VNM"),
    ("Vietnam", "VNM"),
    ("Iran (Islamic Republic of)", "IRN"),
    ("DEMOCRATIC REPUBLIC OF THE CONGO", "COD"),
])
def test_normalize_country_aliases(registry, raw, iso3):
    assert registry.normalize_country(raw).iso3 == iso3


def test_unknown_names_are_never_guessed(registry):
    assert registry.normalize_country("Elbonia") is None
    assert registry.normalize_country("") is None


def test_get_and_continent(registry):
    japan = registry.get("JPN")
    assert japan.display_name == "Japan"
    assert japan.continent is Continent.ASIA
    assert registry.get_optional("XXX") is None


def test_alias_items_hold_each_alias_once(registry):
    items = registry.alias_items()
    aliases = [alias for alias, _ in items]
    assert len(set(aliases)) == len(aliases)
    countries = dict(items)
    assert (countries["south sudan"].iso3, countries["sudan"].iso3) == ("SSD", "SDN")


def test_registry_iterates_sorted_by_iso3(registry):
    codes = [c.iso3 for c in registry]
    assert codes == sorted(codes)
    assert len(registry) == len(codes)


def test_every_registry_row_has_a_distinct_alpha2_code():
    text = _bundled("country_registry.tsv").read_text(encoding="utf-8")
    rows = [line.split("\t") for line in text.splitlines()
            if line and not line.startswith("#")]
    codes = [row[3] for row in rows]
    assert all(len(row) == 4 for row in rows)
    assert all(len(code) == 2 and code.isascii() and code.isupper() for code in codes)
    assert len(set(codes)) == len(rows)


def test_from_iso2_maps_alpha2_codes_in_any_case(registry):
    assert registry.from_iso2("bo").iso3 == "BOL"
    assert registry.from_iso2("GB").iso3 == "GBR"
    assert registry.from_iso2("XX") is None
    assert sum(registry.from_iso2(c) is not None
               for c in ("AF", "BT", "ZW", "VU", "NA")) == 5


def test_default_registry_is_cached():
    assert default_registry() is default_registry()


def test_load_rejects_alias_to_unknown_code(tmp_path):
    reg = tmp_path / "registry.tsv"
    reg.write_text("USA\tUnited States\tNorthAmerica\tUS\n")
    bad = tmp_path / "aliases.tsv"
    bad.write_text("Atlantis\tATL\n")
    with pytest.raises(ValueError):
        CountryRegistry.load(reg, bad)


def test_load_rejects_an_alias_that_normalizes_to_nothing(tmp_path):
    # Loaded, "(?)" would make "" and "---" name France, and make
    # whole-text inference answer France for any text.
    aliases = tmp_path / "aliases.tsv"
    aliases.write_text(_bundled("country_aliases.tsv").read_text(encoding="utf-8")
                       + "(?)\tFRA\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"alias '\(\?\)'"):
        CountryRegistry.load(_bundled("country_registry.tsv"), aliases)


def test_load_rejects_a_display_name_that_normalizes_to_nothing(tmp_path):
    reg = tmp_path / "registry.tsv"
    reg.write_text("USA\tUnited States\tNorthAmerica\tUS\nFRA\t---\tEurope\tFR\n")
    aliases = tmp_path / "aliases.tsv"
    aliases.write_text("")
    with pytest.raises(ValueError, match="display name '---'"):
        CountryRegistry.load(reg, aliases)


def test_text_lines_drop_a_byte_order_mark_from_the_first_line_only():
    data = codecs.BOM_UTF8 + b"a\r\n" + codecs.BOM_UTF8 + b"b\rc\n"
    assert list(text_lines(io.BytesIO(data), "t")) == ["a\n", "\ufeffb\n", "c\n"]


@pytest.mark.parametrize("table, width", [("country_registry.tsv", 4),
                                          ("country_aliases.tsv", 2), ("kb.tsv", 3),
                                          ("gazetteer.tsv", 1)])
def test_a_byte_order_mark_is_no_row_of_a_table(tmp_path, table, width):
    """Each bundled table starts with a ``#`` comment, which stays one
    behind a byte-order mark."""
    path = tmp_path / table
    path.write_bytes(codecs.BOM_UTF8 + _bundled(table).read_bytes())
    assert list(_read_tsv(path, width)) == list(_read_tsv(_bundled(table), width))
