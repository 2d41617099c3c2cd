"""The benchmark's tracer (``perfbench/tracing.py``) still finds the layers
it times: every name it patches exists in the program, a scan of a
MediaWiki dump runs through the patched ingest and markup passes, and
extract runs through the patched spotter and context inference, so a
rename or a bypass cannot leave a per-layer metric silently reading 0."""

import bz2
import json
import subprocess
import sys
from pathlib import Path

from test_corpus import MEDIAWIKI_XML

ROOT = Path(__file__).resolve().parents[1]
E2E = ROOT / "tests" / "fixtures" / "e2e"
PATHS = [str(ROOT / "src"), str(ROOT / "perfbench")]


def _traced(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` after instrumenting a tracer ``t``, in a fresh process."""
    setup = (f"import sys; sys.path[:0] = {PATHS!r}; import tracing; "
             "t = tracing.Tracer(); tracing.instrument(t)\n")
    proc = subprocess.run([sys.executable, "-c", setup + code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_the_tracer_finds_every_target():
    proc = _traced("")
    assert [line for line in proc.stderr.splitlines() if "not traced" in line] == []


def test_a_traced_xml_scan_records_ingest_and_markup_passes(tmp_path):
    plain_page = ("<page><title>Kyushu</title><ns>0</ns><id>103</id>"
                  "<revision><text>Rain fell on [[Kyushu]].</text></revision></page>")
    corpus = tmp_path / "corpus.xml.bz2"
    corpus.write_bytes(bz2.compress(
        MEDIAWIKI_XML.replace("</mediawiki>", plain_page + "</mediawiki>").encode()))
    proc = _traced(
        "from pathlib import Path\n"
        "from coverage_auditor import pipeline\n"
        f"cfg = pipeline.PipelineConfig(corpus=Path({str(corpus)!r}))\n"
        f"pipeline.stage_scan(cfg, Path({str(tmp_path)!r}), {{}})\n"
        "import collections, json\n"
        "print(json.dumps(collections.Counter(span[1] for span in t.spans)))\n")
    spans = json.loads(proc.stdout.splitlines()[-1])
    # Two main-namespace pages, then the end of the dump. The page without a
    # flood keyword goes through the markup passes too: the gate reads them.
    assert spans["corpus.ingest"] == 3
    assert spans["corpus.strip_wikitext"] == 2


def test_a_traced_extract_records_spotter_and_context_inference(tmp_path):
    proc = _traced(
        "from pathlib import Path\n"
        "from coverage_auditor import pipeline\n"
        f"cfg = pipeline.PipelineConfig.from_ini(Path({str(E2E / 'config.ini')!r}))\n"
        f"pipeline.run_pipeline(cfg, Path({str(tmp_path)!r}), stages=['scan', 'extract'])\n"
        "import collections, json\n"
        "print(json.dumps(collections.Counter(span[1] for span in t.spans)))\n")
    spans = json.loads(proc.stdout.splitlines()[-1])
    assert spans["pipeline.extract"] == 1
    assert spans["places.spotter"] > 0
    assert spans["geocode.context_infer"] > 0


# Every layer a replay run of the e2e fixture goes through. A rename, or a
# call that goes around a patched name, leaves its metric reading 0.
RUN_LAYERS = [
    "pipeline.consolidate", "pipeline.scan", "pipeline.extract", "pipeline.match",
    "pipeline.analyze", "pipeline.write_jsonl", "pipeline.file_digest",
    "corpus.ingest", "corpus.keyword", "corpus.segment", "corpus.extract_candidates",
    "corpus.score", "dates.find_dates", "dates.infer_year", "places.spotter",
    "places.expand", "geocode.resolve", "geocode.kb", "geocode.remote",
    "geocode.request", "geocode.context_infer", "countries.normalize_name",
    "matching.index", "matching.match_all", "analysis.load_indicators",
    "analysis.stratify", "analysis.domains", "ground_truth.parse",
    "ground_truth.consolidate",
]


def test_a_traced_replay_run_records_every_layer_on_its_path(tmp_path):
    proc = _traced(
        "from pathlib import Path\n"
        "from coverage_auditor import pipeline\n"
        f"cfg = pipeline.PipelineConfig.from_ini(Path({str(E2E / 'config.ini')!r}))\n"
        f"pipeline.run_pipeline(cfg, Path({str(tmp_path / 'run')!r}))\n"
        "import collections, json\n"
        "print(json.dumps(collections.Counter(span[1] for span in t.spans)))\n")
    spans = json.loads(proc.stdout.splitlines()[-1])
    assert [layer for layer in RUN_LAYERS if not spans.get(layer)] == []
