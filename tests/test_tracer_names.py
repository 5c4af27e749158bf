"""The benchmark's tracer (``perfbench/tracer.py``) still finds every package name it wraps."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_this_package():
    code = "import sys; sys.path[:0] = sys.argv[1:]; from tracer import Tracer, install; install(Tracer('t'))"
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
