"""The README's library quick start runs as written and prints what it promises."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The one python block under the "Library quick start" heading."""
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1, blocks
    return blocks[0]


def test_library_quick_start_runs_and_reaches_the_sector_ground():
    namespace = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(quick_start(), str(README), "exec"), namespace)
    best, target = (float(word) for word in printed.getvalue().split())
    assert best == pytest.approx(namespace["target"].energy, abs=1e-6)
    assert target == namespace["target"].energy
