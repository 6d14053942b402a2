"""Coefficient types: an int for integral input, a Fraction otherwise, never a float.

Equality, hashing and printing must not depend on which of int and Fraction
holds an integral value, so the two forms of one element are interchangeable.
"""

from fractions import Fraction
from random import Random

import pytest

from dcrit.checks import rand_mixed, rand_poly
from dcrit.coalgebra import antipode, comultiply
from dcrit.exterior import ExtElt, Section, contract, wedge
from dcrit.parsing import parse_one_form, parse_poly, parse_polyvector
from dcrit.poly import Poly
from dcrit.polyvec import (VolumeForm, bv_delta, de_rham,
                           polyvector_ambient, schouten, vol_contract)

VS = ("x", "y", "z")
AMB = polyvector_ambient(VS)


def types(*elements):
    return {type(c) for e in elements for c in e.terms.values()}


def integral(e):
    """e times 6, which clears rand_coeff's denominators 2 and 3."""
    return type(e)(e._ring, {k: 6 * c for k, c in e.terms.items()})


def int_elements(seed, count=6):
    rng = Random(seed)
    return [integral(rand_mixed(rng, AMB, 3)) for _ in range(count)]


def test_constructors_store_integral_values_as_ints():
    assert types(Poly.one(VS), Poly.constant(VS, Fraction(4, 2)), Poly.variable(VS, "y"),
                 Poly.monomial(VS, (1, 0, 2), Fraction(-6, 3)), ExtElt.one(AMB),
                 ExtElt.generator(AMB, 1), ExtElt.monomial(AMB, (0, 0, 1), (0, 2), Fraction(9, 3)),
                 ExtElt.from_poly(AMB, Poly(VS, {(1, 1, 0): Fraction(5)}))) == {int}
    assert Poly.constant(VS, Fraction(4, 2)).terms == {(0, 0, 0): 2}
    assert types(*int_elements(0)) == {int}


def test_arithmetic_on_int_input_stays_on_ints():
    es = int_elements(1)
    vol = VolumeForm(VS)
    section = Section(AMB, tuple(integral(rand_poly(Random(2), VS, 2)) for _ in VS))
    operations = {
        "+": lambda a, b: a + b, "-": lambda a, b: a - b, "neg": lambda a, b: -a,
        "scalar": lambda a, b: 3 * a + a * -2, "wedge": wedge, "*": lambda a, b: a * b,
        "**": lambda a, b: (a + b) ** 2, "schouten": schouten,
        "bv_delta": lambda a, b: bv_delta(vol, a), "contract": lambda a, b: contract(section, a),
        "comultiply": lambda a, b: comultiply(a),
        "coproduct_wedge": lambda a, b: wedge(comultiply(a), comultiply(b)),
        "antipode": lambda a, b: antipode(a), "vol_contract": lambda a, b: vol_contract(vol, a),
    }
    for name, op in operations.items():
        assert types(*(op(a, b) for a, b in zip(es, es[1:]))) == {int}, name
    f = Poly(VS, {(2, 1, 0): 3, (0, 0, 1): -2, (1, 0, 0): 5})
    g = Poly(VS, {(0, 2, 0): -1, (1, 0, 1): 4})
    for result in (f * g, f - 2 * g, f.diff("x"), f.diff("z"), f ** 3, f.substitute({"x": g})):
        assert types(result) == {int}
    parsed = [parse_poly("(x - 2*y)^3 - 4/2*x*z + 7", VS),
              parse_polyvector("(x*@x + 2*@y)^2 + y^2*@x/\\@z", VS),
              *parse_one_form("2*y*d_x + 6/3*x*d_y", VS).components]
    assert types(*parsed) == {int}


def test_non_integral_input_gives_fractions():
    f = parse_poly("1/2*x^2 + 3*y", VS)
    assert f.terms == {(2, 0, 0): Fraction(1, 2), (0, 1, 0): 3}
    assert type(f.terms[(2, 0, 0)]) is Fraction and type(f.terms[(0, 1, 0)]) is int
    assert types(Fraction(1, 3) * Poly.one(VS), Poly.constant(VS, Fraction(-5, 4))) == {Fraction}
    a = parse_polyvector("1/2*x^2*@x + 1/3*y*@y", VS)
    bracket = schouten(a, parse_polyvector("x*y", VS))
    assert bracket == parse_polyvector("1/2*x^2*y + 1/3*x*y", VS) and types(bracket) == {Fraction}
    delta = bv_delta(VolumeForm(VS), a)
    assert delta == parse_polyvector("x + 1/3", VS)
    assert type(delta.terms[((0, 0, 0), ())]) is Fraction


@pytest.mark.parametrize("seed", range(4))
def test_int_and_fraction_forms_are_one_element(seed):
    rng = Random(seed)
    for e in (rand_mixed(rng, AMB, 3), rand_poly(rng, VS, 3), comultiply(rand_mixed(rng, AMB, 2))):
        as_fractions = type(e)._make(e._ring, {k: Fraction(c) for k, c in e.terms.items()})
        assert types(as_fractions) == {Fraction}
        assert as_fractions == e and e == as_fractions
        assert str(as_fractions) == str(e) and repr(as_fractions) == repr(e)
        assert all(hash(as_fractions.terms[k]) == hash(c) for k, c in e.terms.items())
        assert as_fractions - e == type(e).zero(e._ring)


def test_no_float_in_volume_forms():
    vol = VolumeForm(VS, 2)
    assert type(vol.density) is int and vol == VolumeForm(VS, Fraction(4, 2))
    for a in int_elements(5) + [rand_mixed(Random(6), AMB, 3)]:
        w = vol_contract(vol, a)
        assert float not in types(w, de_rham(w), bv_delta(vol, a))
    w = vol_contract(vol, int_elements(7)[0])
    assert types(w) == {int} and types(de_rham(w)) <= {int}
