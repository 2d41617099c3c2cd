"""The settings schema: each ``PipelineConfig`` field declares its setting,
and ``pipeline.SETTINGS``, read off those fields, is the one table behind
the INI reader, the stage flags, their overrides and the value checks;
``config_hash`` hashes the settings a run actually used."""

import json
import logging
import shutil
from dataclasses import fields
from pathlib import Path

import pytest

from coverage_auditor.cli import _load_config, build_parser, main
from coverage_auditor.pipeline import SETTINGS, ConfigError, PipelineConfig, run_pipeline
from conftest import FIXTURES

E2E = FIXTURES / "e2e"
README = Path(__file__).resolve().parents[1] / "README.md"

# Every subcommand's option strings. Single-stage commands have no
# --no-resume (they always re-run) and report has neither --config nor
# --no-resume (it reads only the run directory).
OPTIONS = {
    "consolidate": {"--config", "--dfo", "--emdat", "--floodlist", "--help",
                    "--min-sources", "--out", "-h"},
    "scan": {"--config", "--help", "--input", "--out", "--scorer",
             "--substring", "--threshold", "-h"},
    "extract": {"--cache-dir", "--config", "--gazetteer", "--geocoder", "--help",
                "--kb", "--max-inflight", "--min-delay-ms", "--out", "--refresh",
                "-h"},
    "match": {"--config", "--help", "--out", "--strategy", "--window-days", "-h"},
    "analyze": {"--axes", "--config", "--fatalities-unknown", "--help",
                "--indicators", "--min-country-events", "--out", "--top-domains",
                "-h"},
    "run": {"--config", "--help", "--no-resume", "--out", "-h"},
    "report": {"--help", "--labels", "--out", "-h"},
}

# A value of each kind as INI text and as a flag argument, each unlike the
# field's default and unlike each other.
INI_TEXT = {"Path | None": "sub/in.csv", "str": "text", "int": "7",
            "float": "0.7", "bool": "yes", "list[str]": "gdp, month"}
FLAG_TEXT = {"Path | None": "other.csv", "str": "other", "int": "9",
             "float": "0.9", "list[str]": "country"}


def _expected(kind, text, base=None):
    if kind == "Path | None":
        return base / text if base else Path(text)
    return {"int": int, "float": float, "bool": lambda t: True,
            "list[str]": lambda t: [a.strip() for a in t.split(",")]
            }.get(kind, str)(text)


def _ini_text(s):
    return s.choices[-1] if s.choices and s.kind == "str" else INI_TEXT[s.kind]


def _write_ini(path, s, text):
    section, key = s.ini.split(".")
    path.write_text(f"[{section}]\n{key} = {text}\n", encoding="utf-8")
    return path


def test_settings_cover_every_config_field_once():
    assert sorted(s.field for s in SETTINGS) == sorted(f.name for f in fields(PipelineConfig))
    inis = [s.ini for s in SETTINGS if s.ini]
    flags = [(s.stage, s.flag) for s in SETTINGS if s.flag]
    assert len(set(inis)) == len(inis) and len(set(flags)) == len(flags)


def test_subcommand_options_are_pinned():
    subparsers = build_parser()._subparsers._group_actions[0].choices
    got = {name: {o for action in p._actions for o in action.option_strings}
           for name, p in subparsers.items()}
    assert got == OPTIONS


@pytest.mark.parametrize("s", [s for s in SETTINGS if s.ini], ids=lambda s: s.ini)
def test_every_ini_key_is_read(tmp_path, s):
    cfg = PipelineConfig.from_ini(_write_ini(tmp_path / "c.ini", s, _ini_text(s)))
    expected = _expected(s.kind, _ini_text(s), tmp_path)
    assert expected != getattr(PipelineConfig(), s.field)
    assert vars(cfg) == {**vars(PipelineConfig()), s.field: expected}


@pytest.mark.parametrize("s", [s for s in SETTINGS if s.flag],
                         ids=lambda s: f"{s.stage} {s.flag}")
def test_every_flag_overrides_the_ini(tmp_path, s):
    argv = [s.stage, s.flag]
    if s.kind == "bool":
        ini_text, expected = "no", True
    else:
        ini_text = _ini_text(s)
        flag_text = s.choices[0] if s.choices and s.kind == "str" else FLAG_TEXT[s.kind]
        argv.append(flag_text)
        expected = _expected(s.kind, flag_text)
    if s.ini:
        argv += ["--config", str(_write_ini(tmp_path / "c.ini", s, ini_text))]
        assert getattr(PipelineConfig.from_ini(tmp_path / "c.ini"), s.field) != expected
    cfg = _load_config(build_parser().parse_args(argv))
    assert getattr(cfg, s.field) == expected


@pytest.mark.parametrize("s", [s for s in SETTINGS if s.kind == "int" and s.flag],
                         ids=lambda s: f"{s.stage} {s.flag}")
def test_negative_int_setting_is_a_config_error(tmp_path, capsys, s):
    out = tmp_path / "run"
    assert main([s.stage, s.flag, "-1", "--config", str(E2E / "config.ini"),
                 "--out", str(out)]) == 2
    low = 1 if s.field == "max_inflight" else 0
    assert capsys.readouterr().err == f"config error: {s.field} must be >= {low}, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("stage, error", [
    ("scan", "scan needs inputs.corpus (--input)"),
    ("analyze", "analyze needs inputs.indicators (--indicators)"),
])
def test_unset_required_input_names_its_setting_and_flag(tmp_path, capsys, stage, error):
    out = tmp_path / "run"
    assert main([stage, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {error}\n"
    assert not out.exists()


CONFIG, MISSING = str(E2E / "config.ini"), str(E2E / "missing")
NOT_UTF8 = str(FIXTURES / "not_utf8.ini")  # ends in "0.5\xff"
AXES = next(s.choices for s in SETTINGS if s.field == "axes")


# Each config error: the command line that makes it, and its message.
CONFIG_ERRORS = {
    "unreadable config": (["run", "--config", MISSING], f"cannot read config {MISSING}: "),
    "config not utf-8": (["run", "--config", NOT_UTF8], f"{NOT_UTF8} line 2: 'utf-8' codec "
                         "can't decode byte 0xff in position 15: invalid start byte"),
    "unknown scorer": (["scan", "--config", CONFIG, "--scorer", "foo"],
                       "unknown scorer 'foo'"),
    "scorer not a number": (["scan", "--config", CONFIG, "--scorer", "constant:x"],
                            "bad scorer 'constant:x': could not convert string to float: 'x'"),
    "scorer out of range": (["scan", "--config", CONFIG, "--scorer", "constant:2"],
                            "bad scorer 'constant:2': constant score 2.0 outside [0, 1]"),
    "missing replay file": (["extract", "--config", CONFIG, "--geocoder", f"replay:{MISSING}"],
                            f"replay file not found: {MISSING}"),
    "unknown geocoder": (["extract", "--config", CONFIG, "--geocoder", "bogus"],
                         "unknown geocoder 'bogus'"),
    "unknown strategy": (["match", "--config", CONFIG, "--strategy", "yx"],
                         "strategy must be in ('ymd', 'ym'), got 'yx'"),
    "unknown axis": (["analyze", "--config", CONFIG, "--axes", "gdp,bogus"],
                     f"axes must be in {AXES}, got 'bogus'"),
    "unknown fatalities rule": (["analyze", "--config", CONFIG, "--fatalities-unknown", "maybe"],
                                "fatalities_unknown must be in ('zero', 'exclude'), got 'maybe'"),
    "no request in flight": (["extract", "--config", CONFIG, "--max-inflight", "0"],
                             "max_inflight must be >= 1, got 0"),
    "no source file": (["consolidate"], "consolidate stage needs at least one source file"),
}


@pytest.mark.parametrize("argv, error", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS)
def test_config_error_names_its_cause(tmp_path, capsys, argv, error):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    # The one message that ends in the OS's own words is matched up to them.
    assert err.startswith(f"config error: {error}") and err.count("\n") == 1
    assert err.endswith("\n" if error.endswith(": ") else f"{error}\n")
    assert not out.exists()


def test_unknown_stage_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="unknown stage 'bogus'"):
        run_pipeline(PipelineConfig(), tmp_path / "run", stages=["bogus"])
    assert not (tmp_path / "run").exists()


def test_replay_key_folds_into_the_replay_geocoder(tmp_path):
    ini = tmp_path / "c.ini"
    ini.write_text("[extract]\nreplay = r.jsonl\n")
    assert PipelineConfig.from_ini(ini).geocoder == f"replay:{tmp_path / 'r.jsonl'}"
    ini.write_text("[extract]\ngeocoder = live\nreplay = r.jsonl\n")
    assert PipelineConfig.from_ini(ini).geocoder == "live"


def test_unknown_ini_section_or_key_is_logged_and_ignored(tmp_path, caplog):
    ini = tmp_path / "c.ini"
    ini.write_text("[DEFAULT]\nwindow_days = 9\nwindow = 9\n"
                   "[match]\n[scan]\ntreshold = 0.95\n[extract]\nreplay = r.jsonl\n"
                   "[scna]\nthreshold = 0.95\nscorer = builtin\n")
    with caplog.at_level(logging.WARNING):
        cfg = PipelineConfig.from_ini(ini)
        PipelineConfig.from_ini(E2E / "config.ini")
    assert (cfg.threshold, cfg.window_days) == (PipelineConfig().threshold, 9)
    assert [r.getMessage() for r in caplog.records] == [
        f"{ini}: unknown key DEFAULT.window ignored",
        f"{ini}: unknown key scan.treshold ignored",
        f"{ini}: unknown section [scna] ignored"]


def test_absolute_ini_paths_are_kept(tmp_path):
    ini = tmp_path / "c.ini"
    ini.write_text("[inputs]\nfloodlist = /data/floodlist.csv\n")
    assert PipelineConfig.from_ini(ini).floodlist == Path("/data/floodlist.csv")


@pytest.mark.parametrize("line, edited, key", [
    ("min_sources = 2", "min_sources = two", "consolidate.min_sources"),
    ("threshold = 0.40", "threshold = high", "scan.threshold"),
    ("scorer = builtin", "scorer = builtin\nsubstring = maybe", "scan.substring"),
    ("window_days = 5", "window_days = 5.5", "match.window_days"),
])
def test_malformed_ini_value_is_a_config_error(tmp_path, capsys, line, edited, key):
    inputs = tmp_path / "inputs"
    shutil.copytree(E2E, inputs)
    config = inputs / "config.ini"
    config.write_text(config.read_text().replace(line, edited))
    out = tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}:")
    assert not out.exists()


@pytest.mark.parametrize("text", ["on", "OFF", "1", "no", "True"])
def test_ini_booleans_take_configparser_words(tmp_path, text):
    ini = tmp_path / "c.ini"
    ini.write_text(f"[scan]\nsubstring = {text}\n")
    assert PipelineConfig.from_ini(ini).keyword_substring is (
        text.lower() in ("on", "1", "true"))


def _config_hash(out):
    return json.loads((out / "manifest.json").read_text())["config_hash"]


def test_config_hash_follows_cli_overrides(tmp_path):
    out = tmp_path / "run"
    config = str(E2E / "config.ini")
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    assert main(["match", "--config", config, "--out", str(out)]) == 0
    plain = _config_hash(out)
    assert main(["match", "--config", config, "--out", str(out),
                 "--strategy", "ym"]) == 0
    assert _config_hash(out) != plain


@pytest.mark.parametrize("edit, same", [
    (lambda t: "# a comment\n" + t.replace(" = ", "  =  ") + "\n\n", True),
    (lambda t: t.replace("min_sources = 2", "min_sources = 3"), False),
])
def test_config_hash_is_of_the_settings_not_the_text(tmp_path, edit, same):
    inputs = tmp_path / "inputs"
    shutil.copytree(E2E, inputs)
    original = inputs / "config.ini"
    edited = inputs / "edited.ini"
    edited.write_text(edit(original.read_text()))
    hashes = []
    for config in (original, edited):
        out = tmp_path / config.stem
        assert main(["consolidate", "--config", str(config), "--out", str(out)]) == 0
        hashes.append(_config_hash(out))
    assert (hashes[0] == hashes[1]) is same


def test_config_hash_ignores_how_paths_are_spelled(tmp_path, monkeypatch):
    shutil.copytree(E2E, tmp_path / "in")
    monkeypatch.chdir(tmp_path)
    manifests = []
    for i, base in enumerate([Path("in"), tmp_path / "in"] * 2):
        argv = ["consolidate", "--config", str(base / "config.ini"), "--out", f"run{i}"]
        if i >= 2:
            argv += ["--floodlist", str(base / "floodlist.csv"),
                     "--emdat", str(base / "emdat.csv")]
        assert main(argv) == 0
        manifests.append(json.loads(Path(f"run{i}", "manifest.json").read_text()))
    # The flags name the files the INI names, so all four runs use one config.
    assert len({m["config_hash"] for m in manifests}) == 1
    assert len({tuple(m["input_digests"]) for m in manifests}) == 1
    hashes = set()
    for replay in ("in/replay.jsonl", tmp_path / "in" / "replay.jsonl"):
        cfg = PipelineConfig.from_ini(Path("in/config.ini"))
        cfg.geocoder = f"replay:{replay}"
        hashes.add(run_pipeline(cfg, Path("run"), stages=["consolidate"])["config_hash"])
    assert len(hashes) == 1


def test_input_digests_do_not_depend_on_where_the_inputs_lie(tmp_path):
    digests = []
    for name in ("in", "a-longer-directory"):
        shutil.copytree(E2E, tmp_path / name)
        out = tmp_path / f"{name}-run"
        assert main(["consolidate", "--config", str(tmp_path / name / "config.ini"),
                     "--out", str(out)]) == 0
        digests.append(json.loads((out / "manifest.json").read_text())["input_digests"])
    assert digests[0] == digests[1]
    assert sorted(digests[0]) == ["corpus", "dfo", "emdat", "floodlist", "indicators"]


def test_readme_lists_every_setting():
    rows = [line for line in README.read_text().splitlines() if line.startswith("|")]
    for s in SETTINGS:
        cells = [f"`{s.ini}`" if s.ini else "", f"`{s.stage} {s.flag}`" if s.flag else ""]
        assert any(all(c in row for c in cells) for row in rows), s
