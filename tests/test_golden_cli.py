"""Byte-for-byte replay of a fixed CLI corpus against committed output.

`golden_cli.json` holds, for each command line in CORPUS, the exit code and
the exact stdout of `dcrit <argv> --json --no-timing`.  Refactors of the
algebra must leave every one of them unchanged.  To rewrite the file after
an intended output change, run `PYTHONPATH=src python tests/test_golden_cli.py`.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from dcrit.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

CORPUS = (
    ("suite",),
    ("crit", "--vars", "x,y", "-f", "x^2*y + y^4", "--weights", "3,2", "--cutoff", "10"),
    ("crit", "--vars", "x,y", "-f", "x^3 + y^2 + x*y", "--cutoff", "6"),
    ("zero", "--vars", "x,y", "--section", "x^2, y^3", "--cutoff", "8"),
    ("zero", "--vars", "x,y", "--section", "x*y, x^2", "--cutoff", "6"),
    ("fancy", "--vars", "x,y", "--rank", "2", "--cutoff", "6"),
    ("fancy", "--vars", "", "--rank", "3", "--cutoff", "5"),
    ("check", "gerstenhaber", "--n", "2", "--trials", "30"),
    ("check", "bv", "--n", "2", "--trials", "30"),
    ("check", "coalgebra", "--rank", "3", "--trials", "30"),
    ("check", "compat", "--vars", "x,y", "--alpha", "y*d_x", "--trials", "5"),
    ("check", "d2", "--vars", "x,y", "--section", "x^2, x*y, y^3"),
    ("lagr", "--vars", "x,y", "--alpha", "2*x*d_x - 2*y*d_y", "--beta", "y*d_x + x*d_y"),
    ("lagr", "--vars", "x,y", "--alpha", "y*d_x"),
    ("lagr", "--vars", "x,y,z", "--alpha", "1/2*y*z*d_x + 1/2*x*z*d_y + 1/2*x*y*d_z",
     "--beta", "x*d_x - 2/3*z*d_z"),
    ("check", "compat", "--vars", "x,y,z",
     "--alpha", "1/2*y*z*d_x + 1/2*x*z*d_y + 1/2*x*y*d_z", "--trials", "10"),
)


def replay(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv) + ["--json", "--no-timing"])
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


def test_corpus_matches_golden_file():
    recorded = json.loads(GOLDEN.read_text())
    assert [entry["argv"] for entry in recorded] == [list(a) for a in CORPUS]


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=[a[0] for a in CORPUS])
def test_output_is_byte_identical(index):
    expected = json.loads(GOLDEN.read_text())[index]
    assert replay(CORPUS[index]) == expected


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([replay(a) for a in CORPUS], indent=1) + "\n")
