"""Groebner bases, normal forms, and quotient dimension oracles."""

import json
import random
from fractions import Fraction

import pytest

from dcrit.cli import main
from dcrit.cohomology import InhomogeneousSectionError, hilbert_table
from dcrit.groebner import (INFINITE, GroebnerBasis, buchberger, jacobian_ideal,
                            milnor_number, normal_form, quotient_dimension,
                            standard_monomials)
from dcrit.koszul import build_koszul
from dcrit.parsing import parse_poly
from dcrit.poly import Poly, degrevlex_key, gradient
from dcrit.symplectic import obstruction_theory

VS = ("x", "y")


def P(src, vars=VS):
    return parse_poly(src, vars)


def test_textbook_reduced_basis():
    # classic two-variable example with a non-trivial interreduction step
    gb = buchberger([P("x^3 - 2*x*y"), P("x^2*y - 2*y^2 + x")])
    assert gb.gens == (P("y^2 - 1/2*x"), P("x*y"), P("x^2"))
    assert gb.leading_exponents() == [(0, 2), (1, 1), (2, 0)]


def test_basis_is_canonical_under_permutation_and_scaling():
    gens = [P("x^3 - 2*x*y"), P("x^2*y - 2*y^2 + x")]
    gb1 = buchberger(gens)
    gb2 = buchberger([3 * gens[1], gens[0] - gens[1]])
    assert gb1.gens == gb2.gens


def test_membership_and_normal_form():
    gb = buchberger([P("x^3 - 2*x*y"), P("x^2*y - 2*y^2 + x")])
    combo = P("x^3 - 2*x*y") * P("x + y") - 5 * P("x^2*y - 2*y^2 + x")
    assert gb.contains(combo)
    assert not gb.contains(P("x"))
    nf = gb.normal_form(P("x^2 + y^2 + x*y + x + 1"))
    assert nf == P("3/2*x + 1")  # x^2, x*y drop; y^2 rewrites to x/2
    assert gb.normal_form(nf) == nf


def test_normal_form_module_function():
    x2 = P("x^2")
    assert normal_form(P("x^3 + y"), [x2]) == P("y")


def test_buchberger_empty_and_zero_input():
    with pytest.raises(ValueError):
        buchberger([])  # variables cannot be inferred
    zero_ideal = buchberger([parse_poly("0", VS)])
    assert zero_ideal.gens == ()
    assert zero_ideal.normal_form(P("x + y")) == P("x + y")
    assert quotient_dimension(zero_ideal) is INFINITE


def test_unit_ideal():
    gb = buchberger([P("x"), P("x + 1")])
    assert gb.gens == (parse_poly("1", VS),)
    assert standard_monomials(gb) == []
    assert quotient_dimension(gb) == 0


def test_standard_monomials_box():
    gb = buchberger([P("x^2"), P("y^3")])
    monos = standard_monomials(gb)
    assert sorted(monos) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert quotient_dimension(gb) == 6


def test_infinite_quotient():
    gb = buchberger([P("x*y")])
    assert standard_monomials(gb) is None
    assert quotient_dimension(gb) is INFINITE


def test_milnor_numbers_frozen():
    cases = {
        ("x^2", ("x",)): 1,
        ("x^3", ("x",)): 2,
        ("x^3 + y^3", VS): 4,
        ("x^2 + y^2", VS): 1,
        ("x^4 + y^4", VS): 9,
        ("x^3 + y^3 + z^3", ("x", "y", "z")): 8,
        ("x^2*y^2", VS): INFINITE,
    }
    for (src, vars), expected in cases.items():
        assert milnor_number(parse_poly(src, vars)) == expected, src


def test_jacobian_ideal():
    gb = jacobian_ideal(P("x^3 + y^3"))
    assert gb.contains(P("x^2"))
    assert gb.contains(P("y^2"))
    assert not gb.contains(P("x*y"))


def test_empty_variable_ring():
    one = parse_poly("1", ())
    gb = buchberger([one])
    assert quotient_dimension(gb) == 0


# -- differential tests ---------------------------------------------------

def reference_division(p, basis):
    """Textbook division (Cox-Little-O'Shea, section 2.3), one Poly per step.

    Reference for normal_form: leading term first, first divisor in list
    order whose leading term divides it.
    """
    basis = [g for g in basis if not g.is_zero()]
    work = p
    remainder = Poly.zero(p.vars)
    while not work.is_zero():
        exps, c = work.leading()
        for g in basis:
            ge, gc = g.leading()
            if all(a <= b for a, b in zip(ge, exps)):
                q = tuple(b - a for a, b in zip(ge, exps))
                work = work - Poly.monomial(p.vars, q, c / gc) * g
                break
        else:
            mono = Poly.monomial(p.vars, exps, c)
            remainder = remainder + mono
            work = work - mono
    return remainder


def random_poly(rng, vars, max_deg, nterms):
    terms = {}
    for _ in range(nterms):
        exps = [0] * len(vars)
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(len(vars))] += 1
        terms[tuple(exps)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
    return Poly(vars, terms)


def random_ideal(seed):
    rng = random.Random(seed)
    vars = ("x", "y", "z")[:rng.choice([2, 2, 3])]
    max_deg = 3 if len(vars) == 2 else 2
    return [random_poly(rng, vars, max_deg, rng.randint(2, 4))
            for _ in range(rng.randint(2, len(vars)))]


def test_normal_form_matches_reference_division_on_arbitrary_divisors():
    # not Groebner bases: the remainder depends on the divisor order, so
    # this pins the choice of divisor as well as the arithmetic
    rng = random.Random(7)
    for _ in range(200):
        vars = ("x", "y", "z")[:rng.choice([1, 2, 3])]
        divisors = [random_poly(rng, vars, 3, rng.randint(1, 4))
                    for _ in range(rng.randint(1, 4))]
        divisors.insert(rng.randint(0, len(divisors)), Poly.zero(vars))
        p = random_poly(rng, vars, 6, rng.randint(1, 8))
        assert normal_form(p, divisors) == reference_division(p, divisors)
        assert normal_form(p, divisors[::-1]) == reference_division(p, divisors[::-1])


def _to_sympy(p, gens, sympy):
    return sympy.Poly.from_dict({e: sympy.Rational(c.numerator, c.denominator)
                                 for e, c in p.terms.items()}, *gens, domain=sympy.QQ)


def _from_sympy(q, vars):
    return Poly(vars, {e: Fraction(int(c.p), int(c.q)) for e, c in q.terms() if c})


@pytest.mark.parametrize("seed", range(24))
def test_reduced_basis_matches_sympy(seed):
    sympy = pytest.importorskip("sympy")
    gens = random_ideal(seed)
    vars = gens[0].vars
    syms = sympy.symbols(vars)
    expected = sympy.groebner([_to_sympy(g, syms, sympy).as_expr() for g in gens],
                              *syms, order="grevlex", domain=sympy.QQ)
    expected = sorted((_from_sympy(q, vars) for q in expected.polys),
                      key=lambda g: degrevlex_key(g.leading()[0]))
    gb = buchberger(gens)
    assert list(gb.gens) == expected
    # with a Groebner basis the remainder is unique, so sympy's division agrees
    rng = random.Random(seed)
    divisors = [_to_sympy(g, syms, sympy).as_expr() for g in gb.gens]
    for _ in range(5):
        p = random_poly(rng, vars, 5, 6)
        _, r = sympy.reduced(_to_sympy(p, syms, sympy).as_expr(), divisors,
                             *syms, order="grevlex", domain=sympy.QQ)
        assert gb.normal_form(p) == _from_sympy(sympy.Poly(r, *syms, domain=sympy.QQ), vars)
        assert gb.normal_form(p) == reference_division(p, gb.gens)


@pytest.mark.parametrize("src, vars", [
    ("x^3 + y^3", ("x", "y")),
    ("x^2*y^2", ("x", "y")),
    ("x^4 + x^2*y^2 + y^5 + x*y", ("x", "y")),
    ("x^3 + y^3 + z^3 + x*y*z", ("x", "y", "z")),
])
def test_crit_results_do_not_depend_on_sharing_the_basis(capsys, src, vars):
    code = main(["crit", "--vars", ",".join(vars), "-f", src, "--cutoff", "6",
                 "--json", "--no-timing"])
    shared = json.loads(capsys.readouterr().out)["results"]
    f = parse_poly(src, vars)
    assert code == 0
    assert shared["milnor"] == milnor_number(f)
    assert shared["obstruction"] == obstruction_theory(f).to_json()
    K = build_koszul(vars, list(gradient(f)))
    try:
        table = hilbert_table(K, (1,) * len(vars), 6)
    except InhomogeneousSectionError:
        assert shared["hilbert"] is None
    else:
        assert shared["hilbert"] == {str(p): list(table.rows[p]) for p in table.rows}
        with_basis = hilbert_table(K, (1,) * len(vars), 6, basis=jacobian_ideal(f))
        assert with_basis == table  # rows and the degree-zero completeness flag


def test_precomputed_basis_must_share_the_variables():
    f = P("x^3 + y^3")
    other = buchberger([parse_poly("x^2", ("x",))])
    with pytest.raises(ValueError):
        obstruction_theory(f, basis=other)
    with pytest.raises(ValueError):
        hilbert_table(build_koszul(VS, list(gradient(f))), (1, 1), 3, basis=other)


def test_basis_finds_its_leading_terms_once(monkeypatch):
    gb = buchberger([P("x^3 - 2*x*y"), P("x^2*y - 2*y^2 + x")])
    assert gb == GroebnerBasis(gb.vars, gb.gens)  # the cached leads do not take part
    polys = [P("x^5*y + 3*x*y^4 - y"), P("x^2*y^2"), P("7")]
    expected = [normal_form(p, list(gb.gens)) for p in polys]
    calls = []
    leading = Poly.leading
    monkeypatch.setattr(Poly, "leading", lambda self: calls.append(self) or leading(self))
    assert [gb.normal_form(p) for p in polys] == expected
    assert calls == []
