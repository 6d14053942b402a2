"""Grammar coverage and error positions for the expression parsers."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcrit.exterior as exterior
from dcrit.checks import rand_poly
from dcrit.exterior import Ambient, ExtElt, Section
from dcrit.parsing import (MAX_NESTING, ParseError, _Parser, parse_one_form, parse_poly,
                           parse_polyvector, parse_section)
from dcrit.poly import Poly
from dcrit.polyvec import form_str, polyvector_ambient

from potentials import corpus

VS = ("x", "y")


def test_rationals_and_precedence():
    f = parse_poly("3/4*x + x*y^2", VS)
    assert str(f) == "x*y^2 + 3/4*x"
    assert parse_poly("2*x^2", VS) == parse_poly("2*(x^2)", VS)
    assert parse_poly("(x + y)^2", VS) == parse_poly("x^2 + 2*x*y + y^2", VS)
    assert parse_poly("-x + x", VS) == Poly.zero(VS)
    assert parse_poly("0", VS) == Poly.zero(VS)


def test_whitespace_insignificant():
    assert parse_poly(" x +  2* y ", VS) == parse_poly("x+2*y", VS)


def test_error_positions():
    with pytest.raises(ParseError) as e:
        parse_poly("x +* 2", VS)
    assert e.value.pos == 3
    assert "position 3" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_poly("q + 1", VS)
    assert e.value.pos == 0
    with pytest.raises(ParseError):
        parse_poly("(x", VS)
    with pytest.raises(ParseError):
        parse_poly("x^", VS)
    with pytest.raises(ParseError):
        parse_poly("x y", VS)  # missing operator
    with pytest.raises(ParseError):
        parse_poly("1/0", VS)
    with pytest.raises(ParseError):
        parse_poly("", VS)


def test_nesting_depth_is_bounded():
    at_limit = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_poly(at_limit, VS) == parse_poly("x", VS)
    with pytest.raises(ParseError) as e:
        parse_poly("(" * 3000 + "x" + ")" * 3000, VS)
    assert e.value.pos == MAX_NESTING
    with pytest.raises(ParseError):
        parse_polyvector("-(" * (MAX_NESTING + 1) + "@x" + ")" * (MAX_NESTING + 1), VS)


def test_parse_section():
    comps = parse_section("x^2, y", VS)
    assert comps == (parse_poly("x^2", VS), parse_poly("y", VS))
    with pytest.raises(ParseError):
        parse_section("x^2, ", VS)


@pytest.mark.parametrize("src, pos", [("x^2, y, z*", 10), ("x, y^", 5), ("x^2, ", 5)])
def test_section_error_points_into_the_whole_input(src, pos):
    # each part is parsed alone, but the error names the whole input
    with pytest.raises(ParseError) as e:
        parse_section(src, ("x", "y", "z"))
    assert (e.value.pos, e.value.src) == (pos, src)
    assert str(e.value).endswith(f"at position {pos}: {src!r}")


def test_parse_one_form():
    alpha = parse_one_form("x*d_x + 2*y*d_y", VS)
    assert alpha == Section(polyvector_ambient(VS), (parse_poly("x", VS), parse_poly("2*y", VS)))
    zero = parse_one_form("0", VS)
    assert zero.components == (Poly.zero(VS), Poly.zero(VS))
    with pytest.raises(ParseError):
        parse_one_form("x", VS)  # scalar term, no d_ factor
    with pytest.raises(ParseError):
        parse_one_form("d_x/\\d_y", VS)  # two odd factors in one term


@pytest.mark.parametrize("src, pos", [
    ("x*d_x+y", 6),                         # a scalar summand
    ("-y + x*d_x", 1),                      # the first summand, after its sign
    ("x*d_x + 2*y*d_y - d_x/\\d_y", 18),    # a wedge of two generators
    ("x*d_x + (y*d_y + 1)*d_x", 8),         # a parenthesized summand counts as one
    ("x*d_x + y - y + x", 8),               # the first bad summand, though it cancels later
])
def test_one_form_error_points_at_the_bad_summand(src, pos):
    with pytest.raises(ParseError) as e:
        parse_one_form(src, VS)
    assert e.value.pos == pos
    assert f"position {pos}" in str(e.value)


def test_one_form_whose_bad_terms_cancel_is_accepted():
    assert parse_one_form("x*d_x + y - y", VS) == parse_one_form("x*d_x", VS)
    assert parse_one_form("d_x/\\d_y + y*d_y - d_x/\\d_y", VS) == parse_one_form("y*d_y", VS)


def test_one_form_variable_may_not_shadow_a_generator():
    # with x and d_x both variables, "d_x" could be either; it is refused
    with pytest.raises(ValueError, match="'d_x'"):
        parse_one_form("d_x*d_x", ("x", "d_x"))
    assert form_str(parse_one_form("dx*d_x", ("x", "dx"))) == "dx*d_x"


def test_generator_free_input_is_lifted():
    assert parse_one_form("0", VS) == Section(polyvector_ambient(VS), (Poly.zero(VS),) * 2)
    x = parse_polyvector("x", VS)
    assert isinstance(x, ExtElt)
    assert x == ExtElt.from_poly(polyvector_ambient(VS), parse_poly("x", VS))
    with pytest.raises(ParseError) as e:
        parse_one_form("0 + x", VS)
    assert e.value.pos == 4


def test_parse_polyvector():
    a = parse_polyvector("(x*y)*@x/\\@y", VS)
    assert str(a) == "x*y*@x/\\@y"
    assert parse_polyvector("@y/\\@x", VS) == -parse_polyvector("@x/\\@y", VS)
    assert parse_polyvector("@x/\\@x", VS).terms == {}
    assert parse_polyvector("0", VS).terms == {}


def test_polyvector_round_trip():
    for src in ("x*@x - y*@y", "@x/\\@y + 1", "2/3*x^2*@y", "x*y - 1"):
        a = parse_polyvector(src, VS)
        assert parse_polyvector(str(a), VS) == a


coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=8)


def exponents(n):
    return st.tuples(*[st.integers(0, 3)] * n)


def polyvectors(n):
    vs = ("x", "y", "z")[:n]
    subsets = st.sets(st.integers(0, n - 1)).map(lambda s: tuple(sorted(s)))
    terms = st.dictionaries(st.tuples(exponents(n), subsets), coeffs, max_size=5)
    return terms.map(lambda d: ExtElt(polyvector_ambient(vs), d))


def one_forms(n):
    vs = ("x", "y", "z")[:n]
    polys = st.dictionaries(exponents(n), coeffs, max_size=4).map(lambda d: Poly(vs, d))
    return st.tuples(*[polys] * n).map(lambda comps: Section(polyvector_ambient(vs), comps))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(polyvectors))
def test_polyvector_str_parse_round_trip(a):
    assert parse_polyvector(str(a), a.ambient.vars) == a


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(one_forms))
def test_one_form_str_parse_round_trip(alpha):
    assert parse_one_form(form_str(alpha), alpha.ambient.vars) == alpha


# -- a polynomial is built as a polynomial --------------------------------------

class _LiftedParser(_Parser):
    """Every number and variable lifted to wedge degree 0, so that all
    arithmetic is exterior: the construction the Poly leaves replace."""

    def primary(self):
        value = super().primary()
        return ExtElt.from_poly(self.ambient, value) if isinstance(value, Poly) else value


def lifted_parse(src, vars):
    return _LiftedParser(src, Ambient(tuple(vars), ()), {}).parse().scalar_part()


def random_expr(rng, vars, depth=3):
    """Integers, fractions and variables under sums, signs, products and powers."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([str(rng.randint(0, 4)), f"{rng.randint(0, 6)}/{rng.randint(1, 4)}", *vars])
    a, b = random_expr(rng, vars, depth - 1), random_expr(rng, vars, depth - 1)
    return rng.choice([f"({a}) + ({b})", f"({a}) - ({b})", f"({a})*({b})",
                       f"({a})^{rng.randint(0, 3)}", f"-({a})"])


def typed(p):
    return {e: (c, type(c)) for e, c in p.terms.items()}


def test_polynomials_and_sections_make_no_exterior_product(monkeypatch):
    calls = []
    wedge = exterior.wedge
    monkeypatch.setattr(exterior, "wedge", lambda a, b: calls.append(1) or wedge(a, b))
    monkeypatch.setattr(ExtElt, "scalar_part", None)  # the parsed Poly is returned as it is
    assert str(parse_poly("(x + 2/3*y)^3*(x - y) - x*y", VS)) == \
        "x^4 + x^3*y - 2/3*x^2*y^2 - 28/27*x*y^3 - 8/27*y^4 - x*y"
    parse_section("x^2*y, (x - y)^2, 3/2*x*y, 0", VS)
    assert calls == []
    parse_one_form("x*d_x", VS)  # a generator still meets a polynomial by a wedge
    assert calls


@pytest.mark.parametrize("seed", range(8))
def test_parse_poly_matches_the_all_exterior_construction(seed):
    rng = Random(seed)
    vars = ("x", "y", "z")
    sources = [str(f) for f, _ in corpus(seed)]
    sources += [random_expr(rng, vars) for _ in range(12)]
    sources += [", ".join(str(rand_poly(rng, vars, 3, 4)) for _ in range(rng.randint(1, 4)))
                for _ in range(4)]
    for src in sources:
        parts = src.split(",")
        got = parse_section(src, vars)
        assert len(got) == len(parts)
        for part, p in zip(parts, got):
            assert typed(p) == typed(lifted_parse(part, vars)), part
            assert typed(parse_poly(part, vars)) == typed(p)
