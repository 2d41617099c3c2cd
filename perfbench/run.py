"""Offline, seeded benchmark of the coverage_auditor pipeline.

    python3 perfbench/run.py --workload news_dense --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

For one workload and seed it generates every input (generate.py), then,
for ``--seconds``, alternates two kinds of fresh processes (child.py): one
that only imports the package and builds its static resources (setup_s),
and one that runs the pipeline on a fresh output directory and a cold
geocache (articles_per_s, peak_rss_mb, artifact_mb). Every pipeline run
is checked (outcheck.py); a run that exits non-zero or fails the check
counts as failed.

articles_per_s and setup_s are medians over the run's processes, in
seconds of a nominal machine. The machine the benchmark runs on is shared:
other tenants slow it by a third or more, for seconds or for many minutes,
and a slow stretch can cover a whole run. So every process also times a
fixed reference task (child.reference_s, the benchmark's own code) right
after its measurement, and its CPU time is rescaled by REF_S over that
reference time; time spent waiting is kept as measured. Over ten seeds
of 40 s runs on a 2-vCPU VM, the quartile spread of articles_per_s was
0.16-0.37 of the median by the fastest raw repeat and 0.04-0.07 by this
rescaled median. Memory and artifact sizes are medians as measured.

With ``--trace 1`` it alternates untraced and traced pipeline processes
instead and reports the per-layer metrics of the traced ones (tracing.py)
plus the tracing overhead.

Workloads, metric names and units come from BENCHMARK.json; catalog.py
says what each per-layer metric should move.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. Everything the benchmark writes goes under .perfbench-work/ in
the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench-work"
CHILD = HERE / "child.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CHILD_TIMEOUT_S = 120
# The reference task's time at nominal speed: about its fastest on a
# 2-vCPU 2.1 GHz x86-64 VM under CPython 3.11.
REF_S = 0.032
MIN_REPS = 3          # pipeline runs per run, however short --seconds is
SETUP_EVERY = 3       # one setup process per this many pipeline runs
MIN_TRACED = 2        # traced (and as many untraced) runs with --trace 1
# Nothing here may reach a real geocoder: replay workloads get a dead
# local endpoint, geocode_cold the local stub.
DEAD_ENDPOINT = "http://127.0.0.1:9/search"
PROXY_VARS = ["http_proxy", "https_proxy", "all_proxy", "HTTP_PROXY", "HTTPS_PROXY",
              "ALL_PROXY"]

sys.path.insert(0, str(HERE))
import catalog  # noqa: E402
import generate  # noqa: E402
import outcheck  # noqa: E402
from geostub import GeocoderStub  # noqa: E402


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _tree_state(*dirs: Path) -> dict[Path, tuple[int, int]]:
    return {p: (p.stat().st_size, p.stat().st_mtime_ns)
            for d in dirs if d.exists() for p in d.rglob("*") if p.is_file()}


class Workload:
    """One workload's inputs, geocoder and repeated pipeline processes."""

    def __init__(self, name: str, seed: int, stack: ExitStack):
        self.name = name
        self.work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        stack.callback(shutil.rmtree, self.work, True)
        self.inputs = self.work / "inputs"
        self.truth = generate.generate(name, seed, self.inputs)
        self.config = self.inputs / "config.ini"
        self.env = {k: v for k, v in os.environ.items() if k not in PROXY_VARS}
        self.env.update(NO_PROXY="127.0.0.1,localhost", no_proxy="127.0.0.1,localhost",
                        COVAUD_GEOCODER_URL=DEAD_ENDPOINT)
        self.stub = None
        if name == "geocode_cold":
            self.stub = stack.enter_context(GeocoderStub(self.truth["stub"]))
            self.env["COVAUD_GEOCODER_URL"] = self.stub.url
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] | None = None

    def _child(self, job: dict, cache: Path) -> dict | None:
        env = dict(self.env, COVAUD_CACHE_DIR=str(cache))
        try:
            proc = subprocess.run([sys.executable, str(CHILD), json.dumps(job)], env=env,
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.problems.append(f"{job['mode']} process timed out")
            return None
        if proc.returncode != 0:
            self.problems.append(f"{job['mode']} process exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-400:]}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_sample(self) -> dict | None:
        """One setup process; a failed one counts as a failed operation."""
        cache = self.work / "setup-cache"
        self.attempted += 1
        result = self._child({"mode": "setup", "config": str(self.config),
                              "cache": str(cache)}, cache)
        if result is None:
            self.failed += 1
        return result

    def pipeline_run(self, rep: int, traced: bool) -> dict | None:
        """One checked pipeline process; None if it failed."""
        out, cache = self.work / f"out{rep}", self.work / f"cache{rep}"
        before = _tree_state(out, cache)
        if self.stub is not None:
            self.stub.take_stats()
        job = {"mode": "trace" if traced else "run", "config": str(self.config),
               "out": str(out), "rep": rep,
               "spans": str(WORK_ROOT / f"spans-{self.name}.jsonl")}
        self.attempted += 1
        result = self._child(job, cache)
        if result is not None:
            if self.stub is not None:
                result["stub"] = self.stub.take_stats()
            after = _tree_state(out, cache)
            result["artifact_bytes"] = sum(size for p, (size, mtime) in after.items()
                                           if before.get(p) != (size, mtime))
            problems = outcheck.check_matches(out, self.truth)
            digests = outcheck.artifact_digests(out)
            if self.digests is None:
                self.digests = digests
            problems += outcheck.compare_digests(self.digests, digests)
            if problems:
                self.problems += [f"repeat {rep}: {p}" for p in problems]
                result = None
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(cache, ignore_errors=True)
        if result is None:
            self.failed += 1
        return result

    @property
    def articles(self) -> int:
        return self.truth["properties"]["articles"]


def nominal_s(seconds: float, cpu_s: float, ref_s: float) -> float:
    """``seconds`` of one process, its ``cpu_s`` CPU part rescaled to a
    machine on which the reference task takes REF_S; waiting (geocoder
    requests) stays as measured."""
    return seconds + cpu_s * (REF_S / ref_s - 1)


def measure(w: Workload, seconds: float) -> dict[str, float]:
    """End-to-end metrics: alternate setup and pipeline processes."""
    w.setup_sample()  # untimed: compiles bytecode, warms the page cache
    setups, walls, rss, written = [], [], [], []
    deadline = time.perf_counter() + seconds
    rep = 0
    while rep < MIN_REPS or time.perf_counter() < deadline:
        if rep % SETUP_EVERY == 0:
            setup = w.setup_sample()
            if setup is not None:
                setups.append(nominal_s(setup["setup_s"], setup["cpu_s"], setup["ref_s"]))
        result = w.pipeline_run(rep, traced=False)
        rep += 1
        if result is not None:
            walls.append(nominal_s(result["wall_s"], result["cpu_s"], result["ref_s"]))
            rss.append(result["maxrss_kib"] / 1024)
            written.append(result["artifact_bytes"] / 2**20)
    return {"articles_per_s": w.articles / _median(walls) if walls else 0.0,
            "setup_s": _median(setups),
            "peak_rss_mb": _median(rss), "artifact_mb": _median(written)}


def measure_layers(w: Workload, seconds: float) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics, and each stage's share of the traced wall time:
    alternate untraced and traced pipeline processes."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    rep = 0
    while rep < 2 * MIN_TRACED or time.perf_counter() < deadline:
        result = w.pipeline_run(rep, traced=rep % 2 == 1)
        if result is not None:
            (traced if rep % 2 else plain).append(result)
        rep += 1
    layers = {}
    for name in _units(trace=True):
        values = [r["layers"][name] for r in traced if name in r.get("layers", {})]
        layers[name] = _median(values)
    layers["pipeline.cpu_s"] = _median([r["cpu_s"] for r in plain])
    if w.stub is not None:
        layers["geocode.server_inflight_max"] = _median(
            [r["stub"]["inflight_max"] for r in traced])
        layers["geocode.server_busy_ratio"] = _median(
            [r["stub"]["busy_s"] / r["wall_s"] for r in traced])
    else:
        layers["geocode.server_inflight_max"] = 0
        layers["geocode.server_busy_ratio"] = 0.0
    plain_wall = min((r["wall_s"] for r in plain), default=0.0)
    traced_wall = min((r["wall_s"] for r in traced), default=0.0)
    layers["trace_overhead_pct"] = (100 * (traced_wall / plain_wall - 1)
                                    if plain_wall and traced_wall else 0.0)
    shares = {stage: _median([r["stage_s"][stage] / r["wall_s"] for r in traced])
              for stage in (traced[0]["stage_s"] if traced else ())}
    return layers, shares


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    with ExitStack() as stack:
        w = Workload(name, seed, stack)
        metrics, shares = measure_layers(w, seconds) if trace else (measure(w, seconds), {})
        return {"workload": name, "attempted": w.attempted, "failed": w.failed,
                "problems": w.problems, "metrics": metrics, "stage_shares": shares,
                "properties": w.truth["properties"]}


def _units(trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(results: list[dict], trace: bool) -> None:
    """Human-readable tables: end-to-end metrics one row per workload,
    per-layer metrics one column per workload."""
    for r in results:
        print(f"# {r['workload']}: inputs {json.dumps(r['properties'], sort_keys=True)}")
        if r["stage_shares"]:
            shares = " ".join(f"{k} {v:.2f}" for k, v in r["stage_shares"].items())
            print(f"# {r['workload']}: stage shares of traced wall time: {shares}")
        for problem in r["problems"]:
            print(f"# {r['workload']}: FAILED {problem}")
        r["metrics"]["failed_pct"] = 100 * r["failed"] / max(r["attempted"], 1)
    units = dict(_units(trace), failed_pct="%")
    if not trace:
        heads = [f"{m} [{u}]" for m, u in units.items()]
        print(f"{'workload':<14}" + "".join(f"{h:>26}" for h in heads))
        for r in results:
            print(f"{r['workload']:<14}"
                  + "".join(f"{_fmt(r['metrics'][m]):>26}" for m in units))
        return
    width = max(len(n) for n in units) + 2
    print(f"{'metric':<{width}}{'unit':<15}" + "".join(f"{r['workload']:>15}" for r in results))
    for metric, unit in units.items():
        print(f"{metric:<{width}}{unit:<15}"
              + "".join(f"{_fmt(r['metrics'][metric]):>15}" for r in results))
    print("\nmetric -> end-to-end metric and workload it should move")
    for metric in _units(trace):
        print(f"  {metric:<{width}}{catalog.MOVES[metric]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind normally: the child in flight is killed and waited
    # for, the stub stops and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "coverage_auditor" / "pipeline.py").exists():
        print(f"no coverage_auditor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else [args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    report(results, bool(args.trace))

    units = _units(bool(args.trace))
    prefix = len(results) > 1
    metrics = {(f"{r['workload']}." if prefix else "") + m: {"value": r["metrics"][m],
                                                              "unit": unit}
               for r in results for m, unit in units.items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
