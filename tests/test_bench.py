"""The benchmark's self-test passes against the library in src/.

bench/ reads engine internals (the term count of exact_mixture's slot table,
the fields of McPiece), so a change to the engine that breaks those reads
fails here and not only in a benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # no __pycache__ left under bench/
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--selftest"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count(": PASS") == 4, done.stdout
