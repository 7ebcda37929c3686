"""Every name the bench tracer wraps still exists in ``cvqe``.

``bench/tracer.py`` wraps functions by their module path, so renaming one
blinds its per-layer metric.  ``pytest bench`` checks this too; this test
runs the same ``install`` with the main suite, in a child process so that
no wrapper leaks into the other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_finds_every_wrapped_name():
    path = [str(ROOT / "bench"), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run(
        [sys.executable, "-c", "import tracer; print(tracer.install(tracer.Tracer()))"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "[]\n"
