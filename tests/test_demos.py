"""Byte-for-byte replay of the six demos against committed output.

`golden_demos.json` holds, for each `demos/*.py` by file name, the exact
stdout of running it.  Each demo runs in this process, through
`runpy.run_path` as `__main__`, with stdout captured.  Refactors must leave
every output unchanged.  To rewrite the file after an intended output
change, run `PYTHONPATH=src python tests/test_demos.py`.
"""

import contextlib
import io
import json
import runpy
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden_demos.json")
DEMOS = sorted((GOLDEN.parent.parent / "demos").glob("*.py"))


def replay(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def test_every_demo_has_a_golden_output():
    assert sorted(json.loads(GOLDEN.read_text())) == [p.name for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_output_is_byte_identical(path):
    assert replay(path) == json.loads(GOLDEN.read_text())[path.name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({p.name: replay(p) for p in DEMOS}, indent=1) + "\n")
