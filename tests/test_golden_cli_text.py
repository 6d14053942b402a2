"""Byte-for-byte replay of the human-readable CLI output.

`golden_cli_text.json` holds, for each command line in CORPUS, the exit code
and the exact stdout of `dcrit <argv> --no-timing` without `--json`, so the
text lines are pinned the way `golden_cli.json` pins the JSON reports.  To
rewrite the file after an intended output change, run
`PYTHONPATH=src python tests/test_golden_cli_text.py`.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from dcrit.cli import main

GOLDEN = Path(__file__).with_name("golden_cli_text.json")

CORPUS = (
    ("suite",),
    ("crit", "--vars", "x,y", "-f", "x^2*y + y^4", "--weights", "3,2", "--cutoff", "10"),
    ("crit", "--vars", "x,y", "-f", "x^3 + y^2 + x*y", "--cutoff", "6"),
    ("zero", "--vars", "x,y", "--section", "x^2, y^3", "--cutoff", "8"),
    ("zero", "--vars", "x,y", "--section", "x*y, x^2", "--cutoff", "6"),
    ("fancy", "--vars", "x,y", "--rank", "2", "--cutoff", "6"),
    ("check", "compat", "--vars", "x,y", "--alpha", "y*d_x", "--trials", "5"),
    ("check", "d2", "--vars", "x,y", "--section", "x^2, x*y, y^3"),
    ("lagr", "--vars", "x,y", "--alpha", "2*x*d_x - 2*y*d_y", "--beta", "y*d_x + x*d_y"),
    ("lagr", "--vars", "x,y,z", "--alpha", "1/2*y*z*d_x + 1/2*x*z*d_y + 1/2*x*y*d_z",
     "--beta", "x*d_x - 2/3*z*d_z"),
    ("check", "compat", "--vars", "x,y,z",
     "--alpha", "1/2*y*z*d_x + 1/2*x*z*d_y + 1/2*x*y*d_z", "--trials", "10"),
)


def replay(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv) + ["--no-timing"])
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


def test_corpus_matches_golden_file():
    recorded = json.loads(GOLDEN.read_text())
    assert [entry["argv"] for entry in recorded] == [list(a) for a in CORPUS]


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=[a[0] for a in CORPUS])
def test_text_output_is_byte_identical(index):
    expected = json.loads(GOLDEN.read_text())[index]
    assert replay(CORPUS[index]) == expected


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([replay(a) for a in CORPUS], indent=1) + "\n")
