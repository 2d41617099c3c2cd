"""One fresh process of the benchmark: ``python3 child.py '<job json>'``.

Modes:
  setup  import the package and build the static resources through their
         public loaders; report the time taken.
  run    run the pipeline once; report wall time, CPU time and peak RSS.
  trace  as run, with every layer boundary traced (see tracing.py);
         also report the per-layer metrics and write the spans out.

Setup and run then time a fixed reference task (``reference_s``), so the
harness can tell how fast the shared machine was while they measured. It
runs last, so that its memory does not count towards the peak RSS.

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import json
import re
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_pipeline():
    sys.path.insert(0, str(SRC))
    import coverage_auditor.pipeline as pipeline

    if SRC.resolve() not in Path(pipeline.__file__).resolve().parents:
        raise SystemExit(f"coverage_auditor imported from {pipeline.__file__}, not {SRC}")
    return pipeline


def peak_rss_kib() -> int:
    """High-water RSS of this process image. ru_maxrss would not do: Linux
    carries it over from the parent across fork and exec, so every child
    would report at least the harness's own peak."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


_REF_RE = re.compile(r"\b([A-Z][a-z]+) (\d{1,2}), (\d{4})\b")


def reference_s() -> float:
    """Time one fixed piece of pure-Python work of the pipeline's kind
    (string building, regex scans, dicts, JSON). It is the benchmark's own
    code, so it only changes with the speed of the machine."""
    started = time.perf_counter()
    rows = [{"id": i, "text": f"Floods hit Town{i % 97} on May {i % 28 + 1}, {2000 + i % 21}."}
            for i in range(10000)]
    counts: dict[str, int] = {}
    for row in json.loads(json.dumps(rows)):
        for name, _, year in _REF_RE.findall(row["text"]):
            key = f"{name}:{year}"
            counts[key] = counts.get(key, 0) + 1
    sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return time.perf_counter() - started


def setup(job: dict) -> dict:
    started, cpu = time.perf_counter(), time.process_time()
    pipeline = import_pipeline()
    from coverage_auditor.countries import CountryRegistry
    from coverage_auditor.geocode import AliasScanInferencer, GeoCache, KnowledgeBase
    from coverage_auditor.places import Gazetteer, GazetteerSpotter

    cfg = pipeline.PipelineConfig.from_ini(Path(job["config"]))
    registry = CountryRegistry.load(cfg.registry_path, cfg.alias_path)
    GazetteerSpotter(Gazetteer.load(cfg.gazetteer_path, registry))
    KnowledgeBase.load(registry, cfg.kb_path)
    AliasScanInferencer(registry)
    cfg.make_geocoder_client()
    GeoCache(Path(job["cache"]) / "geocache.jsonl")
    result = {"setup_s": time.perf_counter() - started, "cpu_s": time.process_time() - cpu}
    result["ref_s"] = reference_s()
    return result


def run(job: dict, traced: bool) -> dict:
    pipeline = import_pipeline()
    cfg = pipeline.PipelineConfig.from_ini(Path(job["config"]))
    out = Path(job["out"])
    tracer = None
    if traced:
        from tracing import Tracer, instrument, layer_metrics, stage_walls

        tracer = Tracer(run_id=job["rep"])
        instrument(tracer)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    started = time.perf_counter()
    pipeline.run_pipeline(cfg, out, resume=False)
    wall = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "wall_s": wall,
        "cpu_s": (after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime),
        "maxrss_kib": peak_rss_kib(),
    }
    result["ref_s"] = reference_s()
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, out)
        result["stage_s"] = stage_walls(tracer.spans)
        result["spans"] = len(tracer.spans)
        tracer.write_spans(Path(job["spans"]))
    return result


def main() -> None:
    job = json.loads(sys.argv[1])
    mode = job["mode"]
    result = setup(job) if mode == "setup" else run(job, traced=mode == "trace")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
