"""Grammar coverage and error positions for the expression parsers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcrit.exterior import ExtElt, Section
from dcrit.parsing import (MAX_NESTING, ParseError, parse_one_form, parse_poly,
                           parse_polyvector, parse_section)
from dcrit.poly import Poly
from dcrit.polyvec import form_str, polyvector_ambient

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
