"""The four demos print exactly their golden output.

Each demo runs in-process with `runpy.run_path`; its stdout is compared
with tests/data/golden/demo_<name>.txt. The forecast demo writes its CSV
under a fresh temporary directory and prints that path, so that directory
is masked as `<tmp>`; the directory must be gone when the demo ends.

The files were captured once, from the code before `component_estimate`
took a config. Regenerate them only for an intended output change:

    PYTHONPATH=src python tests/test_demos.py
"""

from __future__ import annotations

import contextlib
import io
import re
import runpy
import sys
import tempfile
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"
GOLDEN = Path(__file__).parent / "data" / "golden"
NAMES = sorted(path.stem for path in DEMOS.glob("*.py"))


def render(name: str, workdir: Path) -> str:
    """The demo's stdout, with its temporary directories made under workdir
    and masked."""
    saved = tempfile.tempdir
    tempfile.tempdir = str(workdir)
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    finally:
        tempfile.tempdir = saved
    return re.sub(re.escape(str(workdir)) + r"/[^/\s]+", "<tmp>", stdout.getvalue())


def test_all_demos_covered():
    assert len(NAMES) == 4


@pytest.mark.parametrize("name", NAMES)
def test_demo_matches_golden(name, tmp_path):
    want = (GOLDEN / f"demo_{name}.txt").read_text(encoding="utf-8")
    assert render(name, tmp_path) == want
    assert list(tmp_path.iterdir()) == []  # a demo removes what it writes


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for demo in NAMES:
        with tempfile.TemporaryDirectory() as tmp:
            text = render(demo, Path(tmp))
        (GOLDEN / f"demo_{demo}.txt").write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN / f'demo_{demo}.txt'}", file=sys.stderr)
