import bz2
import codecs
import configparser
import gzip
import hashlib
import json
import re
import shutil
from pathlib import Path

import pytest

from coverage_auditor.cli import main
from coverage_auditor.geocode import geocache_path
from coverage_auditor.pipeline import SETTINGS, STAGE_TABLE, STAGES
from conftest import FIXTURES
from test_corpus import MEDIAWIKI_XML

E2E = FIXTURES / "e2e"
DATA = Path(__file__).resolve().parents[1] / "src" / "coverage_auditor" / "data"

ARTIFACT_NAMES = ["events.jsonl", "candidates.jsonl", "resolved.jsonl",
                  "matches.jsonl", "analysis.json"]


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture()
def finished_run(tmp_path):
    out = tmp_path / "run"
    assert run_cli("run", "--config", E2E / "config.ini", "--out", out) == 0
    return out


def read_manifest(out):
    return json.loads((out / "manifest.json").read_text())


def test_run_produces_all_artifacts_and_manifest(finished_run):
    for name in ARTIFACT_NAMES:
        assert (finished_run / name).exists()
    manifest = read_manifest(finished_run)
    assert [s["status"] for s in manifest["stages"]] == ["ran"] * 5
    assert manifest["tool_version"]
    assert manifest["config_hash"]
    assert len(manifest["input_digests"]) == 5


def test_rerun_is_byte_identical(finished_run, tmp_path):
    other = tmp_path / "run2"
    assert run_cli("run", "--config", E2E / "config.ini", "--out", other) == 0
    for name in ARTIFACT_NAMES:
        assert (finished_run / name).read_bytes() == (other / name).read_bytes(), name


# The sha256 of what a fresh run of the e2e fixture writes. A change to how
# rows are written that gives the same bytes on every run passes the test
# above but not this one. Update a digest only with a change that means to
# change that artifact.
GOLDEN = {
    "events.jsonl": "3e605a5f86961dfc884f07a67023a0a63e8c23c95aa2ef9e7e384417addbd47b",
    "candidates.jsonl": "df9952af93f81b5553f03ec661ebf47d7281815cf517c7e4ba1a378636554f69",
    "resolved.jsonl": "5eef433067386678d09c58b51f2547f880e66c5349a0f908be3d4987e5ec5c75",
    "matches.jsonl": "33d508f167379ff1151c3aa778c7db0817efb9f8504899616a2295ccb75c3ba3",
    "analysis.json": "108f8ce7748afed946ad00a0df6eb539500d510780fda1de4df8597ad918e269",
    "gt_rejects.jsonl": "2a3e96060d52c5ac4044847fa46fd3f3a539162f92c75fa170b6b31a9b0af577",
}


def test_fresh_run_writes_the_golden_artifacts(finished_run):
    assert {name: hashlib.sha256((finished_run / name).read_bytes()).hexdigest()
            for name in GOLDEN} == GOLDEN


def test_replay_run_writes_no_geocache(finished_run, tmp_path, monkeypatch):
    """Only a live geocoder's answers are cached: neither --cache-dir nor
    COVAUD_CACHE_DIR makes a replay run create a cache, and its artifacts
    are a run's without one."""
    monkeypatch.setenv("COVAUD_CACHE_DIR", str(tmp_path / "env-cache"))
    out = tmp_path / "cached"
    assert run_cli("run", "--config", E2E / "config.ini", "--out", out) == 0
    resolved = (out / "resolved.jsonl").read_bytes()
    assert run_cli("extract", "--config", E2E / "config.ini", "--out", out,
                   "--cache-dir", tmp_path / "cache") == 0
    assert (out / "resolved.jsonl").read_bytes() == resolved
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cached", "run"]
    assert {name: (out / name).read_bytes() for name in GOLDEN} == {
        name: (finished_run / name).read_bytes() for name in GOLDEN}
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in GOLDEN} == GOLDEN


def test_resume_skips_completed_stages(finished_run, capsys):
    capsys.readouterr()
    assert run_cli("run", "--config", E2E / "config.ini",
                   "--out", finished_run) == 0
    out = capsys.readouterr().out
    assert out.count("skipped") == 5


def test_deleting_one_artifact_reruns_only_that_stage(finished_run, capsys):
    before = {n: (finished_run / n).read_bytes() for n in ARTIFACT_NAMES}
    (finished_run / "matches.jsonl").unlink()
    capsys.readouterr()
    assert run_cli("run", "--config", E2E / "config.ini",
                   "--out", finished_run) == 0
    statuses = {line.split(":")[0]: line.split()[1]
                for line in capsys.readouterr().out.strip().splitlines()}
    assert statuses == {"consolidate": "skipped", "scan": "skipped",
                        "extract": "skipped", "match": "ran",
                        "analyze": "skipped"}
    assert (finished_run / "matches.jsonl").read_bytes() == before["matches.jsonl"]


def test_single_stage_command_always_reruns(finished_run, capsys):
    capsys.readouterr()
    assert run_cli("match", "--config", E2E / "config.ini",
                   "--out", finished_run) == 0
    assert "match: ran" in capsys.readouterr().out


def test_single_stage_flag_overrides_config(finished_run):
    before = (finished_run / "matches.jsonl").read_bytes()
    assert run_cli("match", "--config", E2E / "config.ini",
                   "--out", finished_run, "--strategy", "ym") == 0
    rows = [json.loads(l) for l in
            (finished_run / "matches.jsonl").read_text().splitlines()]
    assert all(r["strategy"] == "ym" for r in rows)
    assert (finished_run / "matches.jsonl").read_bytes() != before


def test_missing_indicators_fails_before_any_stage(tmp_path):
    broken = tmp_path / "broken.ini"
    text = (E2E / "config.ini").read_text().replace(
        "indicators = indicators.csv", "indicators = nope.csv")
    broken.write_text(text)
    for name in ("floodlist.csv", "emdat.csv", "dfo.csv", "corpus.jsonl",
                 "replay.jsonl"):
        shutil.copy(E2E / name, tmp_path / name)
    out = tmp_path / "run"
    assert run_cli("run", "--config", broken, "--out", out) == 2
    assert not out.exists() or not any(out.iterdir())


# The input files: every file setting but the cache directory, which
# extract creates.
INPUT_FILES = [s for s in SETTINGS if s.kind == "Path | None" and s.field != "cache_dir"]


def _key(s):
    return s.ini.partition(".")[2]


def _set_ini(config, key, value):
    parser = configparser.ConfigParser()
    parser.read(config)
    section, option = key.split(".")
    parser[section][option] = value
    with open(config, "w") as fh:
        parser.write(fh)


def _snapshot(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("s", [s for s in INPUT_FILES if s.flag], ids=lambda s: s.flag)
def test_missing_extract_table_fails_before_any_stage(finished_run, capsys, s):
    """A stage's flag naming a missing input file: the finished run is left
    as it was."""
    before = _snapshot(finished_run)
    assert run_cli(s.stage, "--config", E2E / "config.ini", "--out", finished_run,
                   s.flag, finished_run / "nope.tsv") == 2
    assert f"{_key(s)} file not found" in capsys.readouterr().err
    assert _snapshot(finished_run) == before


@pytest.mark.parametrize("s", INPUT_FILES, ids=_key)
def test_missing_registry_file_fails_every_stage_that_reads_it(tmp_path, capsys, s):
    """An INI key naming a missing input file fails each command that reads
    it (the registry's files: each stage that reads the registry) before any
    stage runs, and no other command."""
    inputs = tmp_path / "inputs"
    shutil.copytree(E2E, inputs)
    config = inputs / "config.ini"
    _set_ini(config, s.ini, "nope.tsv")
    key = _key(s)
    readers = [s.stage] if s.stage else [
        stage for stage in STAGES if "registry" in STAGE_TABLE[stage].reads]
    for command in ["run", *readers]:
        out = tmp_path / command
        assert run_cli(command, "--config", config, "--out", out) == 2
        assert f"{key} file not found" in capsys.readouterr().err
        assert not out.exists()
    other = next(stage for stage in STAGES if stage not in readers)
    assert run_cli(other, "--config", config, "--out", tmp_path / other) == 0


@pytest.mark.parametrize("key, table, edit, error", [
    ("extract.kb", DATA / "kb.tsv", lambda t: t + "Kyushu\tJPN\n",
     "stage extract failed: {path} line {n}: 2 tab-separated fields, expected 3"),
    ("inputs.registry", DATA / "country_registry.tsv",
     lambda t: t + "XKX\tKosovo\tEurope\n",
     "stage consolidate failed: {path} line {n}: 3 tab-separated fields, expected 4"),
    ("inputs.aliases", DATA / "country_aliases.tsv", lambda t: t + "Burma\tMMR\tAsia\n",
     "stage consolidate failed: {path} line {n}: 3 tab-separated fields, expected 2"),
    ("inputs.registry", DATA / "country_registry.tsv",
     lambda t: t + "XKX\tKosovo\tAtlantis\tXK\n",
     "stage consolidate failed: {path} line {n}: 'Atlantis' is not a valid Continent"),
    ("inputs.aliases", DATA / "country_aliases.tsv", lambda t: t + "Kosovo\tXKX\n",
     "stage consolidate failed: {path} line {n}: alias 'Kosovo' points to unknown code 'XKX'"),
    ("inputs.indicators", E2E / "indicators.csv", lambda t: t.replace(",english_pct", ""),
     "stage analyze failed: indicators {path}: no english_pct column"),
    ("inputs.indicators", E2E / "indicators.csv", lambda t: t + "USA,65280,High income,2.2\n",
     "stage analyze failed: indicators {path} line {n}: lack_of_coping: missing"),
    ("inputs.indicators", E2E / "indicators.csv",
     lambda t: t + "XKX,abc,Upper middle income,2.0,2.0,5,1800000,Europe\n",
     "stage analyze failed: indicators {path} line {n}: gdp_per_capita: "
     "could not convert string to float: 'abc'"),
], ids=["kb", "registry", "aliases", "registry continent", "alias code", "indicators",
        "indicators short row", "indicators non-number"])
def test_malformed_table_names_its_file(tmp_path, capsys, key, table, edit, error):
    inputs = tmp_path / "inputs"
    shutil.copytree(E2E, inputs)
    path = inputs / table.name
    text = edit(table.read_text(encoding="utf-8"))
    path.write_text(text, encoding="utf-8")
    _set_ini(inputs / "config.ini", key, table.name)
    assert run_cli("run", "--config", inputs / "config.ini", "--out", tmp_path / "run") == 4
    assert capsys.readouterr().err == error.format(
        path=path.resolve(), n=len(text.splitlines())) + "\n"


def _many_dfo_rows(data):
    """``data`` and 2000 more good rows: more than 64 KiB, past the chunk
    that a text-mode reader decodes along with the header."""
    return data + "".join(f"Angola,2016-03-01,2016-03-10,14,9000,x{i}\n"
                          for i in range(2000)).encode()


@pytest.mark.parametrize("key, table, grow, error, code", [
    ("extract.kb", DATA / "kb.tsv", None, "stage extract failed: {path} line {n}", 4),
    ("extract.gazetteer", DATA / "gazetteer.tsv", None,
     "stage extract failed: {path} line {n}", 4),
    ("inputs.registry", DATA / "country_registry.tsv", None,
     "stage consolidate failed: {path} line {n}", 4),
    ("inputs.aliases", DATA / "country_aliases.tsv", None,
     "stage consolidate failed: {path} line {n}", 4),
    ("inputs.indicators", E2E / "indicators.csv", None,
     "stage analyze failed: indicators {path} line {n}", 4),
    ("inputs.dfo", E2E / "dfo.csv", _many_dfo_rows,
     "input error: unreadable dfo file line {n}", 3),
    ("extract.replay", E2E / "replay.jsonl", None,
     "stage extract failed: replay.jsonl line {n}", 4),
    (None, E2E / "config.ini", None, "config error: {path} line {n}", 2),
    ("labels", E2E / "labels.csv", None, "input error: labels {path} line {n}", 3),
], ids=["kb", "gazetteer", "registry", "aliases", "indicators", "source csv", "replay",
        "config", "labels"])
def test_a_byte_that_is_not_utf8_names_its_file_and_line(tmp_path, capsys, key, table,
                                                         grow, error, code):
    """Each input named by ``key``: an INI key, the config file itself
    (None), or ``report``'s labels."""
    inputs = tmp_path / "inputs"
    shutil.copytree(E2E, inputs)
    path = inputs / table.name
    if key not in (None, "labels"):
        _set_ini(inputs / "config.ini", key, table.name)
    data = (grow or bytes)(table.read_bytes()) + b"Kerala \xff\n"
    path.write_bytes(data)
    argv = ["run", "--config", inputs / "config.ini", "--out", tmp_path / "run"]
    if key == "labels":
        assert run_cli(*argv) == 0
        argv = ["report", "--out", tmp_path / "run", "--labels", path]
    capsys.readouterr()
    assert run_cli(*argv) == code
    assert capsys.readouterr().err == error.format(path=path.resolve(), n=data.count(b"\n")) + (
        ": 'utf-8' codec can't decode byte 0xff in position 7: invalid start byte\n")


# Each input but the corpus: the INI key that names it (None for the config
# file itself, "labels" for report's labels) and its file.
BOM_INPUTS = {
    "floodlist": ("inputs.floodlist", E2E / "floodlist.csv"),
    "emdat": ("inputs.emdat", E2E / "emdat.csv"),
    "dfo": ("inputs.dfo", E2E / "dfo.csv"),
    "indicators": ("inputs.indicators", E2E / "indicators.csv"),
    "registry": ("inputs.registry", DATA / "country_registry.tsv"),
    "aliases": ("inputs.aliases", DATA / "country_aliases.tsv"),
    "kb": ("extract.kb", DATA / "kb.tsv"),
    "gazetteer": ("extract.gazetteer", DATA / "gazetteer.tsv"),
    "replay": ("extract.replay", E2E / "replay.jsonl"),
    "config": (None, E2E / "config.ini"),
    "labels": ("labels", E2E / "labels.csv"),
}


@pytest.mark.parametrize("key, table", BOM_INPUTS.values(), ids=BOM_INPUTS)
def test_a_byte_order_mark_changes_no_output(tmp_path, capsys, key, table):
    """An input that starts with a UTF-8 byte-order mark, as spreadsheet
    exports write it, reads as it does without one: the run writes the same
    artifacts, and report prints the same lines."""
    outputs = []
    for bom in (b"", codecs.BOM_UTF8):
        inputs = tmp_path / f"inputs{len(bom)}"
        shutil.copytree(E2E, inputs)
        if key not in (None, "labels"):
            _set_ini(inputs / "config.ini", key, table.name)
        (inputs / table.name).write_bytes(bom + table.read_bytes())
        out = tmp_path / f"run{len(bom)}"
        assert run_cli("run", "--config", inputs / "config.ini", "--out", out) == 0
        assert run_cli("report", "--out", out, "--labels", inputs / "labels.csv") == 0
        artifacts = _snapshot(out)
        del artifacts["manifest.json"]  # holds the inputs' digests
        outputs.append((capsys.readouterr().out, artifacts))
    assert "precision: 7/8" in outputs[0][0] and outputs[0][1]["matches.jsonl"]
    assert outputs[1] == outputs[0]


def _flip_middle_byte(data):
    mid = len(data) // 2
    return data[:mid] + bytes([data[mid] ^ 0xFF]) + data[mid + 1:]


@pytest.mark.parametrize("name, data, cause", [
    ("dump.xml.bz2", bz2.compress(MEDIAWIKI_XML.encode())[:200],
     "Compressed file ended before the end-of-stream marker was reached"),
    ("corpus.jsonl.gz", _flip_middle_byte(gzip.compress(
        (E2E / "corpus.jsonl").read_bytes(), mtime=0)), ""),
    ("dump.xml", MEDIAWIKI_XML.replace("<title>", "<<title>", 1).encode(),
     "not well-formed (invalid token)"),
], ids=["truncated bz2", "corrupt gz", "ill-formed xml"])
def test_unreadable_corpus_names_its_file(tmp_path, capsys, name, data, cause):
    """A corpus that cannot be decompressed or parsed fails scan with one
    line that names it."""
    inputs = tmp_path / "inputs"
    shutil.copytree(E2E, inputs)
    path = inputs / name
    path.write_bytes(data)
    _set_ini(inputs / "config.ini", "inputs.corpus", name)
    out = tmp_path / "run"
    assert run_cli("run", "--config", inputs / "config.ini", "--out", out) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"stage scan failed: {path.resolve()}: {cause}")
    assert err.count("\n") == 1 and err.endswith("\n")
    scan = read_manifest(out)["stages"][1]
    assert scan["status"] == "failed" and str(path.resolve()) in scan["error"]


@pytest.mark.parametrize("setting", ["max_inflight = 0", "max_inflight = -1",
                                     "min_delay_ms = -1"])
def test_bad_geocoder_limits_fail_before_any_stage(tmp_path, setting):
    inputs = tmp_path / "inputs"
    shutil.copytree(E2E, inputs)
    config = inputs / "config.ini"
    config.write_text(config.read_text().replace("[extract]\n",
                                                 f"[extract]\n{setting}\n"))
    out = tmp_path / "run"
    assert run_cli("run", "--config", config, "--out", out) == 2
    assert not out.exists() or not any(out.iterdir())


def test_unknown_strategy_is_a_config_error(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text((E2E / "config.ini").read_text().replace(
        "strategy = ymd", "strategy = fuzzy"))
    assert run_cli("run", "--config", bad, "--out", tmp_path / "run") == 2


def test_unparsable_source_csv_is_an_input_error(tmp_path):
    for name in ("emdat.csv", "dfo.csv", "corpus.jsonl", "replay.jsonl",
                 "indicators.csv", "config.ini"):
        shutil.copy(E2E / name, tmp_path / name)
    (tmp_path / "floodlist.csv").write_text("totally,wrong,header\n1,2,3\n")
    assert run_cli("run", "--config", tmp_path / "config.ini",
                   "--out", tmp_path / "run") == 3


def test_artifacts_carry_keys_not_copies(finished_run):
    candidates = [json.loads(l) for l in
                  (finished_run / "candidates.jsonl").read_text().splitlines()]
    resolved = [json.loads(l) for l in
                (finished_run / "resolved.jsonl").read_text().splitlines()]
    assert candidates and resolved
    assert all("paragraph_years" in c and "paragraph" not in c for c in candidates)
    keys = {(c["article_id"], c["sentence_index"]) for c in candidates}
    for row in resolved:
        assert set(row) == {"article_id", "sentence_index", "iso3", "date",
                            "place_span", "place_stage"}
        assert (row["article_id"], row["sentence_index"]) in keys


def test_candidates_without_paragraph_years_fail_extract(finished_run):
    path = finished_run / "candidates.jsonl"
    rows = [json.loads(l) for l in path.read_text().splitlines()]
    for row in rows:
        del row["paragraph_years"]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert run_cli("extract", "--config", E2E / "config.ini",
                   "--out", finished_run) == 4


def _edit_row(path, n, edit):
    """Apply ``edit`` to the JSON object on line ``n`` of a JSONL file."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    row = json.loads(lines[n - 1])
    edit(row)
    lines[n - 1] = json.dumps(row) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


@pytest.mark.parametrize("artifact, reader, edit, error", [
    ("candidates.jsonl", "extract", lambda row: row.pop("title"), "title: missing"),
    ("candidates.jsonl", "extract", lambda row: row.update(colour="red"),
     "colour: unexpected key"),
    ("resolved.jsonl", "match", lambda row: row.update(sentence_index="x"),
     "sentence_index: expected integer, got string"),
    ("resolved.jsonl", "match", lambda row: row.update(sentence_index=True),
     "sentence_index: expected integer, got boolean"),
    ("resolved.jsonl", "match", lambda row: row.update(place_stage="NOPE"),
     "place_stage: 'NOPE' is not a valid ResolverStage"),
    ("resolved.jsonl", "match", lambda row: row["date"].update(year_source="SOON"),
     "date.year_source: 'SOON' is not a valid YearSource"),
    ("events.jsonl", "analyze", lambda row: row.update(fatalities="many"),
     "fatalities: expected integer or null, got string"),
    ("events.jsonl", "match", lambda row: row.update(country="XXX"),
     "country: unknown country 'XXX'"),
    ("events.jsonl", "match", lambda row: row.update(start_date="20160301"),
     "start_date: Invalid isoformat string: '20160301'"),
], ids=["missing key", "extra key", "string for int", "bool for int", "unknown enum value",
        "nested field", "string for int or null", "unknown country", "basic-format date"])
def test_bad_artifact_row_names_its_artifact_line_and_field(finished_run, capsys, artifact,
                                                            reader, edit, error):
    """A single stage, and a resumed run, fail on the row in one line."""
    _edit_row(finished_run / artifact, 2, edit)
    capsys.readouterr()
    for command in (reader, "run"):
        (finished_run / STAGE_TABLE[reader].artifact).unlink(missing_ok=True)
        assert run_cli(command, "--config", E2E / "config.ini", "--out", finished_run) == 4
        assert capsys.readouterr().err == f"stage {reader} failed: {artifact} line 2: {error}\n"


def _cut_line_3(run, tmp_path):
    path = run / "candidates.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = lines[2][:50] + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    return [], "candidates.jsonl line 3: Invalid control character at: column 51"


def _blank_line_2(run, tmp_path):
    path = run / "candidates.jsonl"
    _edit_row(path, 5, lambda row: row.pop("title"))
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:1] + ["\n"] + lines[1:]), encoding="utf-8")
    return [], "candidates.jsonl line 6: title: missing"


def _replay_row_without_results(run, tmp_path):
    replay = tmp_path / "replay.jsonl"
    text = (E2E / "replay.jsonl").read_text(encoding="utf-8") + '{"query": "X"}\n'
    replay.write_text(text, encoding="utf-8")
    return (["--geocoder", f"replay:{replay}"],
            f"replay.jsonl line {text.count(chr(10))}: results: missing")


# A loopback port nothing listens on: the live geocoder of the geocache
# case, whose cache fails to load before any request is made.
DEAD_ENDPOINT = "http://127.0.0.1:9/search"


def _geocache_row_without_stage(run, tmp_path):
    cache = geocache_path(tmp_path, DEAD_ENDPOINT)
    cache.write_text('{"query": "x", "result": null}\n', encoding="utf-8")
    return (["--geocoder", "live", "--cache-dir", tmp_path],
            f"{cache.name} line 1: stage: missing")


@pytest.mark.parametrize("damage", [_cut_line_3, _blank_line_2,
                                    _replay_row_without_results, _geocache_row_without_stage],
                         ids=["cut short", "blank line", "replay row", "geocache row"])
def test_bad_jsonl_line_names_its_file_and_line(finished_run, tmp_path, capsys, monkeypatch,
                                                damage):
    """Every JSON-lines file extract reads names the file line, counting
    blank lines, of a row that does not parse or lacks a key."""
    monkeypatch.setenv("COVAUD_GEOCODER_URL", DEAD_ENDPOINT)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    monkeypatch.delenv("no_proxy", raising=False)
    argv, error = damage(finished_run, tmp_path)
    capsys.readouterr()
    assert run_cli("extract", "--config", E2E / "config.ini", "--out", finished_run,
                   *argv) == 4
    assert capsys.readouterr().err == f"stage extract failed: {error}\n"


@pytest.fixture()
def failed_run(tmp_path, capsys):
    """A good run of a copy of the e2e inputs, then a --no-resume run whose
    consolidate fails on a bad dfo.csv header; its stderr is returned. The
    artifacts left on disk are the good run's."""
    inputs = tmp_path / "inputs"
    shutil.copytree(E2E, inputs)
    out = tmp_path / "run"
    assert run_cli("run", "--config", inputs / "config.ini", "--out", out) == 0
    dfo = inputs / "dfo.csv"
    dfo.write_text("bogus,header\n" + dfo.read_text().split("\n", 1)[1])
    capsys.readouterr()
    assert run_cli("run", "--no-resume", "--config", inputs / "config.ini",
                   "--out", out) == 3
    return out, capsys.readouterr().err


def test_input_error_in_a_stage_still_writes_the_manifest(failed_run):
    out, err = failed_run
    [stage] = read_manifest(out)["stages"]
    assert (stage["name"], stage["status"]) == ("consolidate", "failed")
    assert err == f"input error: {stage['error']}\n"


def test_report_after_a_failed_run_prints_no_hit_rate(failed_run, capsys):
    out, _ = failed_run
    assert run_cli("report", "--out", out, "--labels", E2E / "labels.csv") == 0
    lines = [line.rstrip() for line in capsys.readouterr().out.splitlines()]
    assert lines[1:] == ["  consolidate  failed", "  hit rate: n/a (consolidate failed)"]


def test_report_summarizes_run(finished_run, capsys):
    capsys.readouterr()
    assert run_cli("report", "--out", finished_run,
                   "--labels", E2E / "labels.csv") == 0
    out = capsys.readouterr().out
    assert "hit rate: 7/11 = 63.64%" in out
    assert "precision: 7/8 = 87.50%" in out


def test_report_without_matches_has_no_precision(finished_run, capsys):
    (finished_run / "matches.jsonl").write_text("")
    capsys.readouterr()
    assert run_cli("report", "--out", finished_run,
                   "--labels", E2E / "labels.csv") == 0
    out = capsys.readouterr().out
    assert "hit rate: 0/11 = 0.00%" in out
    assert "precision: undefined (no matched candidates)" in out


@pytest.mark.parametrize("labels, code", [
    (None, 2),  # no such file
    ("article_id,relevant\nhurricane-irma,1\n", 3),
    ("article_id,sentence_index,relevant\nhurricane-irma,first,1\n", 3),
], ids=["missing file", "no sentence_index column", "non-integer sentence_index"])
def test_report_with_bad_labels_fails_in_one_line(finished_run, tmp_path, capsys,
                                                  labels, code):
    path = tmp_path / "labels.csv"
    if labels is not None:
        path.write_text(labels)
    capsys.readouterr()
    assert run_cli("report", "--out", finished_run, "--labels", path) == code
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("name, damage", [
    ("manifest.json", lambda text: '{"stages": ['),
    ("matches.jsonl", lambda text: text[:-20]),
    ("events.jsonl", lambda text: text + '{"event_id": '),
    ("matches.jsonl", lambda text: re.sub(r'"event_id":"[^"]*",', "", text, count=1)),
], ids=["manifest", "truncated matches", "truncated events", "match row without event_id"])
def test_report_on_a_corrupt_run_fails_in_one_line(finished_run, capsys, name, damage):
    path = finished_run / name
    path.write_text(damage(path.read_text()))
    capsys.readouterr()
    assert run_cli("report", "--out", finished_run) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and name in err


@pytest.mark.parametrize("manifest", [
    "{}",
    '{"stages": [{"name": "scan"}]}',
    "[]",
], ids=["no stages", "stage without counts", "not an object"])
def test_report_on_a_wrong_shaped_manifest_fails_in_one_line(finished_run, capsys,
                                                             manifest):
    (finished_run / "manifest.json").write_text(manifest)
    capsys.readouterr()
    assert run_cli("report", "--out", finished_run) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "manifest.json" in err


def test_report_without_manifest_fails(tmp_path):
    assert run_cli("report", "--out", tmp_path / "empty") == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
