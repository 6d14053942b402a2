"""Polynomial arithmetic, ordering, and string round trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcrit.parsing import parse_poly
from dcrit.poly import (ANY_DEGREE, INHOMOGENEOUS, Poly, UnknownVariableError, degrevlex_key,
                        gradient, monomials_of_weight, normalize_weights)

VS = ("x", "y")


def P(src, vars=VS):
    return parse_poly(src, vars)


def test_constructors():
    assert Poly.zero(VS).terms == {}
    assert Poly.one(VS) == Poly.constant(VS, 1)
    assert Poly.variable(VS, "y") == Poly.monomial(VS, (0, 1))
    with pytest.raises(UnknownVariableError):
        Poly.variable(VS, "q")


def test_zero_coefficients_are_dropped():
    f = Poly(VS, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert f == 2 * Poly.variable(VS, "y")
    assert (f - f).terms == {}


def test_square_of_binomial():
    assert P("(x + 1)^2") == P("x^2 + 2*x + 1")


def test_scalar_coercion_both_sides():
    x = Poly.variable(VS, "x")
    assert 2 * x == x * 2 == x + x
    assert Fraction(1, 2) * (x + x) == x
    assert x - 1 == -(1 - x)


def test_power():
    x = Poly.variable(VS, "x")
    assert x ** 0 == Poly.one(VS)
    assert x ** 3 == x * x * x
    with pytest.raises(ValueError):
        x ** (-1)


def test_diff():
    f = P("x^3*y + 2*y")
    assert f.diff("x") == P("3*x^2*y")
    assert f.diff("y") == P("x^3 + 2")
    assert Poly.constant(VS, 5).diff("x") == Poly.zero(VS)
    with pytest.raises(UnknownVariableError):
        f.diff("q")


def test_gradient():
    gx, gy = gradient(P("x^3 + y^3"))
    assert gx == P("3*x^2") and gy == P("3*y^2")


def test_degrevlex_order():
    # ties in total degree break toward the smaller last exponent
    assert degrevlex_key((2, 0)) > degrevlex_key((1, 1)) > degrevlex_key((0, 2))
    assert degrevlex_key((1, 0, 1)) < degrevlex_key((0, 2, 0))  # xz < y^2
    assert P("x*y + x^2 + y^2").leading() == ((2, 0), Fraction(1))


def test_str_is_degrevlex_descending():
    assert str(P("y^2 + x^2 + x*y")) == "x^2 + x*y + y^2"
    assert str(P("x - 1")) == "x - 1"
    assert str(P("-x + 1/2")) == "-x + 1/2"
    assert str(Poly.zero(VS)) == "0"


def test_weighted_degree():
    f = P("x^3 + y^2")
    assert f.weighted_degree((2, 3)) == 6
    assert f.weighted_degree((1, 1)) is INHOMOGENEOUS
    assert P("0").weighted_degree((1, 1)) is ANY_DEGREE
    assert f.total_degree() == 3


def test_substitute():
    f = P("x^2 + y")
    g = f.substitute({"x": P("y + 1")})
    assert g == P("y^2 + 3*y + 1")
    # missing variables map to the same-named target variable
    h = f.substitute({}, vars_out=("x", "y", "z"))
    assert h == parse_poly("x^2 + y", ("x", "y", "z"))


def test_normalize_weights():
    assert normalize_weights(VS, {"x": 2, "y": 3}) == (2, 3)
    assert normalize_weights(VS, (2, 3)) == (2, 3)
    with pytest.raises(ValueError):
        normalize_weights(VS, (1,))
    with pytest.raises(ValueError):
        normalize_weights(VS, {"x": 1})


def test_monomials_of_weight():
    # ascending degrevlex within each weight slice
    assert monomials_of_weight((1, 1), 3) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert monomials_of_weight((2, 3), 6) == [(0, 2), (3, 0)]
    assert monomials_of_weight((2, 3), 1) == []
    assert monomials_of_weight((), 0) == [()]
    assert monomials_of_weight((), 1) == []


exps = st.tuples(st.integers(0, 4), st.integers(0, 4))
coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=8)
polys = st.dictionaries(exps, coeffs, max_size=5).map(lambda d: Poly(VS, d))


@settings(max_examples=80, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * Poly.one(VS) == f
    assert f + Poly.zero(VS) == f


@settings(max_examples=80, deadline=None)
@given(polys)
def test_str_parse_round_trip(f):
    assert parse_poly(str(f), VS) == f


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_diff_is_a_derivation(f, g):
    assert (f * g).diff("x") == f.diff("x") * g + f * g.diff("x")
