"""Every name the benchmark's tracer (``perfbench/tracing.py``) patches
still exists in the program, so a rename cannot leave a per-layer metric
silently reading 0."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_tracer_finds_every_target():
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    code = (f"import sys; sys.path[:0] = {paths!r}; import tracing; "
            "tracing.instrument(tracing.Tracer())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stderr.splitlines() if "not traced" in line] == []
