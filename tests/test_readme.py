"""The README's "Library tour" runs as written, and says what it returns.

The tour is executed statement by statement in one namespace; each bare
expression's value is recorded and compared with the value its comment
states, as `repr` shows it (or `str`, for the printed elements and forms).
Every expression of the tour has an entry here, so a new line needs its value.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# expression -> the value its comment states
STATED = {
    "hilbert_table(K, (1, 1), 5).rows[0]": "(1, 2, 1, 0, 0, 0)",
    "J.dimension": "4",
    "obstruction_theory(K).h0": "4",
    "minus_one_pairing(K).symmetric": "True",
    "J.monomials": "((0, 0), (0, 1), (1, 0), (1, 1))",
    "J.vector(f)": "({}, 1)",
    'J.vector(parse_poly("1/2*x*y - 3", ("x", "y")))': "({3: 1, 0: -6}, 2)",
    "X((0, 1)), [X(m) for m in J.monomials]":
        "(({3: 1}, 1), [({2: 1}, 1), ({3: 1}, 1), ({}, 1), ({}, 1)])",
    "hilbert_table(K, (1, 1), 5).complete[0]": "True",
    "is_regular_sequence(K, (1, 1), 8).passed": "True",
    'is_regular_sequence(build_koszul(("x",), [x, x]), (1,), 8).counterexample':
        "{'first_failure': (-1, 1)}",
    "resolution_certificate(taut, hilbert_table(taut, (1, 1, 1), 6)).passed": "True",
    'schouten(V("@x/\\\\@y"), V("x*y"))': "x*@x - y*@y",
    "form_str(alpha)": "3*x^2*d_x + 3*y^2*d_y",
    "closedness_witness(alpha)": "None",
    'contract(alpha, V("@x/\\\\@y"))': "3*y^2*@x - 3*x^2*@y",
}
PRINTED = {'schouten(V("@x/\\\\@y"), V("x*y"))', "form_str(alpha)",
           'contract(alpha, V("@x/\\\\@y"))'}


def tour_source():
    text = README.read_text()
    return re.search(r"## Library tour\n\n```python\n(.*?)```", text, re.S).group(1)


def test_the_library_tour_returns_what_its_comments_state():
    source = tour_source()
    namespace = {}
    got = {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            got[ast.get_source_segment(source, stmt)] = value
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert sorted(got) == sorted(STATED)
    for expr, value in got.items():
        assert (str(value) if expr in PRINTED else repr(value)) == STATED[expr], expr
