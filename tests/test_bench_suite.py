"""The benchmark's own tests pass against the library, so a library change that
breaks what the benchmark uses (``AugGraph.edges``, ``PowerIterationError``,
``connected_components``, ``subgraph_diameter``) fails this suite too.

They run in a subprocess: collecting ``bench`` beside ``tests`` in one session
fails, because both directories hold a ``conftest`` module and
``tests/test_acceptance.py`` imports ``record_criterion`` from its own."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 0, output
    summary = proc.stdout.strip().splitlines()[-1]
    assert re.search(r"\d+ passed", summary) and not re.search(r"failed|error", summary), output
