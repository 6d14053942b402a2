"""Coefficient types: an int for integral input, a Fraction otherwise, never a float.

Equality, hashing and printing must not depend on which of int and Fraction
holds an integral value, so the two forms of one element are interchangeable.
"""

from fractions import Fraction
from math import gcd
from random import Random

import pytest

from dcrit.checks import rand_homogeneous, rand_mixed, rand_poly, rand_section
from dcrit.coalgebra import antipode, comultiply, tensor_ambient
from dcrit.exterior import ExtElt, Section, algebra_map, contract, merge_sign, wedge
from dcrit.groebner import buchberger, normal_form
from dcrit.parsing import parse_one_form, parse_poly, parse_polyvector
from dcrit.poly import Poly
from dcrit.polyvec import (VolumeForm, bv_delta, de_rham, form_ambient,
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
        given = {k: Fraction(c) for k, c in e.terms.items()}
        assert {type(c) for c in given.values()} == {Fraction}
        as_fractions = type(e)(e._ring, given)
        assert [(k, type(c)) for k, c in as_fractions.terms.items()] == \
            [(k, type(c)) for k, c in e.terms.items()]
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


# -- the integer kernels against plain Fraction arithmetic ------------------
#
# Each reference is the kernel's loop with every coefficient a Fraction, as
# the kernels ran before they cleared denominators; they share only
# `merge_sign`, the sign rule, with the code under test.


def shift(exps, i):
    return exps[:i] + (exps[i] - 1,) + exps[i + 1:]


def add(e1, e2):
    return tuple(x + y for x, y in zip(e1, e2))


def nonzero(terms):
    return {k: c for k, c in terms.items() if c}


def reference_poly_product(f, g):
    terms = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = add(e1, e2)
            terms[e] = terms.get(e, 0) + Fraction(c1) * Fraction(c2)
    return nonzero(terms)


def reference_wedge(a, b):
    terms = {}
    for (e1, s1), c1 in a.terms.items():
        for (e2, s2), c2 in b.terms.items():
            sign, merged = merge_sign(s1, s2)
            if sign:
                key = (add(e1, e2), merged)
                terms[key] = terms.get(key, 0) + sign * Fraction(c1) * Fraction(c2)
    return nonzero(terms)


def odd_parts(subset):
    return [(i, -1 if k % 2 else 1, subset[:k] + subset[k + 1:]) for k, i in enumerate(subset)]


def reference_schouten(a, b):
    terms = {}
    for (ea, sa), ca in a.terms.items():
        front = 1 if len(sa) % 2 else -1
        for (eb, sb), cb in b.terms.items():
            c = Fraction(ca) * Fraction(cb)
            e = add(ea, eb)
            for i, sign, rest in odd_parts(sa):
                s, merged = merge_sign(rest, sb)
                if eb[i] and s:
                    key = (shift(e, i), merged)
                    terms[key] = terms.get(key, 0) + front * sign * s * eb[i] * c
            for i, sign, rest in odd_parts(sb):
                s, merged = merge_sign(sa, rest)
                if ea[i] and s:
                    key = (shift(e, i), merged)
                    terms[key] = terms.get(key, 0) - sign * s * ea[i] * c
    return nonzero(terms)


def reference_comultiply(a):
    """Each e_j sent to e_j + e_j' (index j + m), the images multiplied out in order."""
    m = a.ambient.rank
    terms = {}
    for (exps, subset), c in a.terms.items():
        product = {(): Fraction(c)}
        for j in subset:
            step = {}
            for sub, v in product.items():
                for t in (j, j + m):
                    sign, merged = merge_sign(sub, (t,))
                    if sign:
                        step[merged] = step.get(merged, 0) + sign * v
            product = step
        for sub, v in product.items():
            terms[(exps, sub)] = terms.get((exps, sub), 0) + v
    return nonzero(terms)


def reference_contract(section, a):
    terms = {}
    for (exps, subset), c in a.terms.items():
        for j, sign, omitted in odd_parts(subset):
            for sexps, sc in section.components[j].terms.items():
                key = (add(exps, sexps), omitted)
                terms[key] = terms.get(key, 0) - sign * Fraction(c) * Fraction(sc)
    return nonzero(terms)


def reference_bv_delta(a):
    terms = {}
    for (exps, subset), c in a.terms.items():
        for i, sign, rest in odd_parts(subset):
            if exps[i]:
                key = (shift(exps, i), rest)
                terms[key] = terms.get(key, 0) + sign * exps[i] * Fraction(c)
    return nonzero(terms)


def exact(e):
    """True when every coefficient of e is an int exactly when it is integral."""
    return all(type(c) is (int if Fraction(c).denominator == 1 else Fraction)
               for c in e.terms.values())


def rational_inputs(seed, count=12):
    """Draws with a Fraction coefficient one time in five, and the same draws
    times 3/2, which leaves integral Fractions such as Fraction(3, 1) behind."""
    rng = Random(seed)
    out = []
    for k in range(count):
        a = rand_mixed(rng, AMB, 3)
        out.append(Fraction(3, 2) * a if k % 2 else a)
    return out


def rational_section(rng):
    s = rand_section(rng, AMB, 2)
    return Section(AMB, tuple(Fraction(2, 3) * p if j % 2 else p
                              for j, p in enumerate(s.components)))


KERNELS = {
    "wedge": (wedge, reference_wedge),
    "schouten": (schouten, reference_schouten),
    "comultiply": (lambda a, b: comultiply(a), lambda a, b: reference_comultiply(a)),
    "bv_delta": (lambda a, b: bv_delta(VolumeForm(VS), a), lambda a, b: reference_bv_delta(a)),
}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", KERNELS)
def test_exterior_kernels_equal_fraction_arithmetic_term_by_term(name, seed):
    kernel, reference = KERNELS[name]
    es = rational_inputs(seed)
    assert any(type(c) is Fraction for e in es for c in e.terms.values())
    for a, b in zip(es, es[1:]):
        result = kernel(a, b)
        assert result.terms == reference(a, b)
        assert exact(result), (name, str(a), str(b))


@pytest.mark.parametrize("seed", range(6))
def test_contract_equals_fraction_arithmetic_term_by_term(seed):
    rng = Random(100 + seed)
    for a in rational_inputs(seed):
        section = rational_section(rng)
        result = contract(section, a)
        assert result.terms == reference_contract(section, a)
        assert exact(result), (str(section), str(a))


@pytest.mark.parametrize("seed", range(6))
def test_poly_product_equals_fraction_arithmetic_term_by_term(seed):
    rng = Random(200 + seed)
    for k in range(12):
        f, g = rand_poly(rng, VS, 3, 4), rand_poly(rng, VS, 3, 4)
        if k % 2:
            f = Fraction(5, 2) * f
        result = f * g
        assert result.terms == reference_poly_product(f, g)
        assert exact(result), (str(f), str(g))


def test_an_integral_product_of_fractions_is_an_int():
    zero = (0, 0, 0)
    half, two = ExtElt.monomial(AMB, zero, (0,), Fraction(1, 2)), ExtElt.monomial(AMB, zero, (1,), 2)
    assert wedge(half, two).terms == {(zero, (0, 1)): 1}
    assert type(wedge(half, two).terms[(zero, (0, 1))]) is int
    f = Poly.constant(VS, Fraction(2, 3))
    assert (f * Poly.constant(VS, Fraction(3, 2))).terms == {zero: 1}
    assert type((f * Poly.constant(VS, Fraction(3, 2))).terms[zero]) is int
    assert type(comultiply(2 * half).terms[(zero, (0,))]) is int
    form = Section(AMB, (Poly.constant(VS, Fraction(1, 3)),) + (Poly.zero(VS),) * 2)
    assert contract(form, 3 * ExtElt.generator(AMB, 0)).terms == {(zero, ()): -1}
    assert type(contract(form, 3 * ExtElt.generator(AMB, 0)).terms[(zero, ())]) is int


# (operation, its int term map): each on Fraction coefficients with an integral result
INTEGRAL_RESULTS = {
    "add": (lambda: parse_poly("1/2*x", VS) + parse_poly("1/2*x", VS), {(1, 0, 0): 1}),
    "scale": (lambda: Fraction(2, 3) * Poly.constant(VS, 3), {(0, 0, 0): 2}),
    "diff": (lambda: parse_poly("1/2*x^2", VS).diff("x"), {(1, 0, 0): 1}),
    "vol_contract": (lambda: vol_contract(VolumeForm(VS, 2), parse_polyvector("1/2*x^2*@x", VS)),
                     {((2, 0, 0), (1, 2)): 1}),
    "de_rham": (lambda: de_rham(ExtElt.monomial(form_ambient(VS), (2, 0, 0), (1,), Fraction(1, 2))),
                {((1, 0, 0), (0, 1)): 1}),
}


@pytest.mark.parametrize("name", INTEGRAL_RESULTS)
def test_an_integral_result_of_fractions_is_an_int(name):
    build, expected = INTEGRAL_RESULTS[name]
    result = build()
    assert result.terms == expected
    assert types(result) == {int}


# -- drawn elements and the no-copy clearing rule ---------------------------


@pytest.mark.parametrize("seed", range(4))
def test_a_drawn_element_is_what_the_public_constructor_gives(seed):
    rng = Random(seed)
    for _ in range(30):
        for drawn in (rand_mixed(rng, AMB, 3), rand_homogeneous(rng, AMB, 2)):
            built = ExtElt(AMB, drawn.terms)
            assert drawn == built
            assert [(k, type(c)) for k, c in drawn.terms.items()] == \
                [(k, type(c)) for k, c in built.terms.items()]
        drawn = rand_poly(rng, VS, 3, 5)
        built = Poly(VS, drawn.terms)
        assert [(k, c, type(c)) for k, c in drawn.terms.items()] == \
            [(k, c, type(c)) for k, c in built.terms.items()]


def test_normal_form_leaves_its_input_alone():
    basis = buchberger([parse_poly("x^2 - y", VS), parse_poly("y^2 - 2*z", VS)])
    for src in ("x^3*y + 3*x^2 - y^2 + 1", "1/2*x^3 + 2/3*y^2 + z", "x^4*y^2"):
        p = parse_poly(src, VS)
        before = [(e, c, type(c)) for e, c in p.terms.items()]
        r = normal_form(p, basis)
        assert [(e, c, type(c)) for e, c in p.terms.items()] == before
        assert r != p and r == normal_form(parse_poly(src, VS), basis)


# -- one coefficient form ------------------------------------------------------
#
# Every element is int numerators `_num` over one positive int denominator
# `_den`, in lowest terms, and equality compares the two; `terms` is the
# rational view of them.


@pytest.mark.parametrize("bad", [0.1, 1.0, 0.0, "1/3", "2", None, 1j])
def test_constructors_take_only_ints_and_fractions(bad):
    for build in (lambda: Poly(VS, {(1, 0, 0): bad}), lambda: Poly.constant(VS, bad),
                  lambda: Poly.monomial(VS, (0, 1, 0), bad),
                  lambda: ExtElt(AMB, {((0, 0, 0), (0,)): bad}),
                  lambda: ExtElt.monomial(AMB, (1, 0, 0), (1, 2), bad),
                  lambda: VolumeForm(VS, bad)):
        with pytest.raises(TypeError):
            build()
    f, a = Poly.variable(VS, "x"), ExtElt.generator(AMB, 0)
    for operation in (lambda: f * bad, lambda: bad * f, lambda: f + bad, lambda: f - bad,
                      lambda: a * bad, lambda: a + bad):
        with pytest.raises(TypeError):
            operation()


def assert_lowest_terms(e):
    assert type(e._den) is int and e._den > 0
    assert all(type(c) is int and c for c in e._num.values())
    assert gcd(e._den, *e._num.values()) == 1


def reference_sum(a, b, sign=1):
    return nonzero({k: Fraction(a.terms.get(k, 0)) + sign * Fraction(b.terms.get(k, 0))
                    for k in [*a.terms, *b.terms]})


def reference_scale(s, a):
    return nonzero({k: s * Fraction(c) for k, c in a.terms.items()})


def reference_diff(f, i):
    return {shift(e, i): e[i] * Fraction(c) for e, c in f.terms.items() if e[i]}


def reference_antipode(a):
    return {k: (-1) ** len(k[1]) * Fraction(c) for k, c in a.terms.items()}


SPLIT = [[(j, 1), (j + AMB.rank, 1)] for j in range(AMB.rank)]  # comultiplication's images
NEGATE = [[(j, -1)] for j in range(AMB.rank)]  # the antipode's


@pytest.mark.parametrize("seed", range(4))
def test_every_result_is_in_lowest_terms_and_equals_fraction_arithmetic(seed):
    rng = Random(300 + seed)
    es = rational_inputs(seed)
    assert any(e._den > 1 for e in es) and any(e._den == 1 for e in es)
    for e in es:
        assert_lowest_terms(e)
    vol, third = VolumeForm(VS), Fraction(-4, 9)
    for a, b in zip(es, es[1:]):
        section = rational_section(rng)
        results = {
            "sum": (a + b, reference_sum(a, b)), "difference": (a - b, reference_sum(a, b, -1)),
            "scaling": (third * a, reference_scale(third, a)),
            "integral scaling": (a * 6, reference_scale(6, a)),
            "product": (a * b, reference_wedge(a, b)),
            "wedge": (wedge(a, b), reference_wedge(a, b)),
            "contract": (contract(section, a), reference_contract(section, a)),
            "schouten": (schouten(a, b), reference_schouten(a, b)),
            "bv_delta": (bv_delta(vol, a), reference_bv_delta(a)),
            "algebra_map": (algebra_map(a, tensor_ambient(AMB, 2), SPLIT), reference_comultiply(a)),
            "signed algebra_map": (algebra_map(a, AMB, NEGATE), reference_antipode(a)),
        }
        for name, (result, expected) in results.items():
            assert_lowest_terms(result)
            assert result.terms == expected, (name, str(a), str(b))
            assert exact(result), name
    for k in range(12):
        f, g = rand_poly(rng, VS, 3, 4), rand_poly(rng, VS, 3, 4)
        if k % 2:
            f = Fraction(5, 2) * f
        results = {"sum": (f + g, reference_sum(f, g)),
                   "difference": (f - g, reference_sum(f, g, -1)),
                   "scaling": (f * third, reference_scale(third, f)),
                   "product": (f * g, reference_poly_product(f, g)),
                   **{f"diff {v}": (f.diff(v), reference_diff(f, i)) for i, v in enumerate(VS)}}
        for name, (result, expected) in results.items():
            assert_lowest_terms(result)
            assert result.terms == expected, (name, str(f), str(g))
            assert exact(result), name
