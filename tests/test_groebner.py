"""Groebner bases, normal forms, and quotient dimension oracles."""

import heapq
import json
import random
from fractions import Fraction
from itertools import count
from math import gcd, lcm
from operator import add, le

import pytest

import dcrit.groebner as groebner
import potentials
from dcrit.cli import main
from dcrit.cohomology import InhomogeneousSectionError, hilbert_table
from dcrit.groebner import (INFINITE, GroebnerBasis, buchberger, ci_numerator,
                            normal_form, standard_monomials)
from dcrit.koszul import build_koszul
from dcrit.parsing import parse_poly
from dcrit.poly import Poly, gradient, monomials_of_weight
from dcrit.symplectic import obstruction_theory

VS = ("x", "y")


def P(src, vars=VS):
    return parse_poly(src, vars)


def degrevlex_key(exps):
    """Sort key for exponent vectors: larger key = larger monomial in degrevlex."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def jacobian_ideal(f):
    """Groebner basis of the partials of f: the ideal of its critical locus."""
    return buchberger(list(gradient(f)))


def test_textbook_reduced_basis():
    # classic two-variable example with a non-trivial interreduction step
    gb = buchberger([P("x^3 - 2*x*y"), P("x^2*y - 2*y^2 + x")])
    assert gb.gens == (P("y^2 - 1/2*x"), P("x*y"), P("x^2"))
    assert [g.leading()[0] for g in gb.gens] == [(0, 2), (1, 1), (2, 0)]


def test_basis_is_canonical_under_permutation_and_scaling():
    gens = [P("x^3 - 2*x*y"), P("x^2*y - 2*y^2 + x")]
    gb1 = buchberger(gens)
    gb2 = buchberger([3 * gens[1], gens[0] - gens[1]])
    assert gb1.gens == gb2.gens


def test_membership_and_normal_form():
    gb = buchberger([P("x^3 - 2*x*y"), P("x^2*y - 2*y^2 + x")])
    combo = P("x^3 - 2*x*y") * P("x + y") - 5 * P("x^2*y - 2*y^2 + x")
    assert normal_form(combo, gb).is_zero()
    assert not normal_form(P("x"), gb).is_zero()
    nf = normal_form(P("x^2 + y^2 + x*y + x + 1"), gb)
    assert nf == P("3/2*x + 1")  # x^2, x*y drop; y^2 rewrites to x/2
    assert normal_form(nf, gb) == nf


def test_normal_form_module_function():
    x2 = P("x^2")
    assert normal_form(P("x^3 + y"), GroebnerBasis(VS, (x2,))) == P("y")


def test_normal_form_refuses_other_variables():
    # exponent tuples of different lengths would divide wrongly, and the
    # remainder would be wrong without an error
    p, x = P("x^2*y"), P("x", ("x",))
    for basis in (GroebnerBasis(x.vars, (x,)), buchberger([x])):
        with pytest.raises(ValueError, match="different variables"):
            normal_form(p, basis)
    for basis in (GroebnerBasis(VS, (P("x"),)), buchberger([P("x")])):
        with pytest.raises(ValueError, match="different variables"):
            normal_form(x, basis)
    # a divisor list over mixed variables is refused when its basis is built
    with pytest.raises(ValueError, match="different variables"):
        GroebnerBasis(x.vars, (P("x"), x))


def test_basis_refuses_generators_over_other_variables():
    # read over x, y only, x^2 and y^3 in x, y, z would give a quotient of dimension 6
    xyz = ("x", "y", "z")
    with pytest.raises(ValueError, match="different variables"):
        GroebnerBasis(VS, (P("x^2", xyz), P("y^3", xyz)))
    with pytest.raises(ValueError, match="different variables"):
        GroebnerBasis(VS, (P("x^2"), P("y^3", xyz)))
    assert GroebnerBasis(VS, (P("x^2"), P("y^3"))).dimension == 6


def test_buchberger_empty_and_zero_input():
    with pytest.raises(ValueError):
        buchberger([])  # variables cannot be inferred
    zero_ideal = buchberger([parse_poly("0", VS)])
    assert zero_ideal.gens == ()
    assert normal_form(P("x + y"), zero_ideal) == P("x + y")
    assert zero_ideal.dimension is INFINITE


def test_unit_ideal():
    gb = buchberger([P("x"), P("x + 1")])
    assert gb.gens == (parse_poly("1", VS),)
    assert standard_monomials(gb) == []
    assert gb.dimension == 0


def test_standard_monomials_box():
    gb = buchberger([P("x^2"), P("y^3")])
    monos = standard_monomials(gb)
    assert sorted(monos) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert gb.dimension == 6


def test_infinite_quotient():
    gb = buchberger([P("x*y")])
    assert standard_monomials(gb) is None
    assert gb.dimension is INFINITE


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
        assert jacobian_ideal(parse_poly(src, vars)).dimension == expected, src


def test_jacobian_ideal():
    gb = jacobian_ideal(P("x^3 + y^3"))
    assert normal_form(P("x^2"), gb).is_zero()
    assert normal_form(P("y^2"), gb).is_zero()
    assert not normal_form(P("x*y"), gb).is_zero()


def test_empty_variable_ring():
    one = parse_poly("1", ())
    gb = buchberger([one])
    assert gb.dimension == 0


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
                work = work - Poly.monomial(p.vars, q, Fraction(c) / gc) * g
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
        for order in (divisors, divisors[::-1]):
            assert normal_form(p, GroebnerBasis(vars, tuple(order))) == reference_division(p, order)


def _to_sympy(p, gens, sympy):
    return sympy.Poly.from_dict({e: sympy.Rational(c.numerator, c.denominator)
                                 for e, c in p.terms.items()}, *gens, domain=sympy.QQ)


def _from_sympy(q, vars):
    return Poly(vars, {e: Fraction(int(c.p), int(c.q)) for e, c in q.terms() if c})


def sympy_basis(gens, sympy):
    """sympy's reduced grevlex basis over QQ, as Polys in ascending leading-term order."""
    vars = gens[0].vars
    syms = sympy.symbols(vars)
    expected = sympy.groebner([_to_sympy(g, syms, sympy).as_expr() for g in gens],
                              *syms, order="grevlex", domain=sympy.QQ)
    return sorted((_from_sympy(q, vars) for q in expected.polys),
                  key=lambda g: degrevlex_key(g.leading()[0]))


@pytest.mark.parametrize("seed", range(24))
def test_reduced_basis_matches_sympy(seed):
    sympy = pytest.importorskip("sympy")
    gens = random_ideal(seed)
    vars = gens[0].vars
    syms = sympy.symbols(vars)
    gb = buchberger(gens)
    assert list(gb.gens) == sympy_basis(gens, sympy)
    # with a Groebner basis the remainder is unique, so sympy's division agrees
    rng = random.Random(seed)
    divisors = [_to_sympy(g, syms, sympy).as_expr() for g in gb.gens]
    for _ in range(5):
        p = random_poly(rng, vars, 5, 6)
        _, r = sympy.reduced(_to_sympy(p, syms, sympy).as_expr(), divisors,
                             *syms, order="grevlex", domain=sympy.QQ)
        assert normal_form(p, gb) == _from_sympy(sympy.Poly(r, *syms, domain=sympy.QQ), vars)
        assert normal_form(p, gb) == reference_division(p, gb.gens)


# -- the integer path: content, signs and denominators ------------------------

PRIMES = (10007, 65537, 1000003, 2 ** 31 - 1)


def integer_path_ideal(seed):
    """Generators with non-unit integer content, negative leading coefficients
    and large coprime denominators, the cases fraction-free division scales for."""
    rng = random.Random(seed)
    vars = ("x", "y", "z")[:rng.choice([2, 2, 3])]
    max_deg = 3 if len(vars) == 2 else 2
    gens = []
    for _ in range(rng.randint(2, len(vars) + 1)):
        g = random_poly(rng, vars, max_deg, rng.randint(2, 4))
        content = rng.choice([1, 6, -4, 15, -35])
        den = rng.choice([1, *PRIMES])
        gens.append(g * Fraction(content, den))
    # one generator made integral with non-unit content, like 6*x + 4*y
    denominator = lcm(*(c.denominator for c in gens[0].terms.values()))
    gens[0] = gens[0] * (rng.choice([6, -10, 12]) * denominator)
    return gens


def test_content_and_sign_do_not_change_the_basis():
    gb = buchberger([P("6*x + 4*y"), P("-9*y^2 + 3*x")])
    assert gb.gens == buchberger([P("x + 2/3*y"), P("y^2 - 1/3*x")]).gens
    assert all(g.leading()[1] == 1 for g in gb.gens)
    assert normal_form(P("6*x + 4*y"), gb).is_zero()
    assert normal_form(P("x"), gb) == P("-2/3*y")


@pytest.mark.parametrize("seed", range(16))
def test_integer_path_matches_sympy(seed):
    sympy = pytest.importorskip("sympy")
    gens = integer_path_ideal(seed)
    gb = buchberger(gens)
    assert list(gb.gens) == sympy_basis(gens, sympy)
    rng = random.Random(seed)
    for _ in range(4):
        p = random_poly(rng, gb.vars, 5, 6) * Fraction(rng.choice(PRIMES), rng.choice(PRIMES))
        assert normal_form(p, gb) == reference_division(p, gb.gens)
        assert normal_form(p, GroebnerBasis(gb.vars, tuple(gens))) == reference_division(p, gens)


def loose_basis(gb, rng):
    """The same ideal through the public constructor, neither monic nor reduced:
    each generator scaled (sign and denominator included) plus a multiple of a
    generator with a smaller leading term, which keeps the leading terms."""
    gens = list(gb.gens)
    loose = []
    for k, g in enumerate(gens):
        c = Fraction(rng.choice([-6, -1, 2, 15]), rng.choice([1, 7, 65537]))
        g = c * g
        if k:  # the generators come in ascending order of leading term
            g = g + rng.choice([-3, 5]) * gens[rng.randrange(k)]
        loose.append(g)
    return GroebnerBasis(gb.vars, tuple(loose))


@pytest.mark.parametrize("seed", range(8))
def test_loose_basis_agrees_with_reference_division(seed):
    gb = buchberger(zero_dimensional_ideal(seed))
    loose = loose_basis(gb, random.Random(seed))
    assert loose.gens != gb.gens
    assert loose.monomials == gb.monomials
    rng = random.Random(100 + seed)
    for _ in range(4):
        p = random_poly(rng, gb.vars, 5, 5) * Fraction(rng.choice(PRIMES), 3)
        nf = reference_division(p, loose.gens)
        assert normal_form(p, loose) == nf == normal_form(p, gb)
        assert as_poly(loose, loose.vector(p)) == nf
    for k in range(len(gb.vars)):
        for s, m in enumerate(loose.monomials):
            xs = Poly.monomial(gb.vars, tuple(e + (i == k) for i, e in enumerate(m)))
            assert as_poly(loose, loose.matrices[k][s]) == reference_division(xs, loose.gens)
    h = random_poly(rng, gb.vars, 3, 4)
    multiples = loose.multiples(h)
    assert [as_poly(loose, multiples(m)) for m in loose.monomials] == [
        reference_division(h * Poly.monomial(gb.vars, m), loose.gens) for m in loose.monomials]


def cyclic(n):
    vars = tuple(f"x{i}" for i in range(n))
    xs = [Poly.variable(vars, v) for v in vars]
    gens = []
    for k in range(1, n):
        total = Poly.zero(vars)
        for i in range(n):
            term = Poly.one(vars)
            for j in range(k):
                term = term * xs[(i + j) % n]
            total = total + term
        gens.append(total)
    every = Poly.one(vars)
    for x in xs:
        every = every * x
    return gens + [every - 1]


def katsura(n):
    """Katsura-n: n + 1 unknowns u_0..u_n, with u_{-i} = u_i and u_i = 0 past n;
    its quotient has dimension 2^n."""
    vars = tuple(f"u{i}" for i in range(n + 1))
    us = [Poly.variable(vars, v) for v in vars]

    def u(i):
        return us[abs(i)] if abs(i) <= n else Poly.zero(vars)

    gens = [sum((u(i) for i in range(-n, n + 1)), Poly.zero(vars)) - Poly.one(vars)]
    for m in range(n):
        gens.append(sum((u(i) * u(m - i) for i in range(-n, n + 1)), Poly.zero(vars)) - u(m))
    return gens


def s_polynomial(f, g):
    (fe, fc), (ge, gc) = f.leading(), g.leading()
    m = tuple(max(a, b) for a, b in zip(fe, ge))
    return (Poly.monomial(f.vars, tuple(a - b for a, b in zip(m, fe)), 1 / Fraction(fc)) * f
            - Poly.monomial(g.vars, tuple(a - b for a, b in zip(m, ge)), 1 / Fraction(gc)) * g)


def test_cyclic_4_certificate():
    sympy = pytest.importorskip("sympy")
    gens = cyclic(4)
    gb = buchberger(gens)
    assert list(gb.gens) == sympy_basis(gens, sympy)
    # Buchberger's criterion, checked with textbook division: every S-pair reduces to zero
    for i, f in enumerate(gb.gens):
        for g in gb.gens[i + 1:]:
            assert reference_division(s_polynomial(f, g), gb.gens).is_zero()
    assert all(reference_division(g, gb.gens).is_zero() for g in gens)
    assert gb.dimension is INFINITE  # cyclic-4 has a curve of solutions


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
    assert shared["milnor"] == jacobian_ideal(f).dimension
    K = build_koszul(vars, list(gradient(f)))
    assert shared["obstruction"] == obstruction_theory(K).to_json()
    try:
        table = hilbert_table(build_koszul(vars, list(gradient(f))), (1,) * len(vars), 6)
    except InhomogeneousSectionError:
        assert shared["hilbert"] is None
    else:
        assert shared["hilbert"] == {str(p): list(table.rows[p]) for p in table.rows}
        # K already holds the basis the obstruction report computed
        assert hilbert_table(K, (1,) * len(vars), 6) == table  # rows and completeness


def test_basis_finds_its_leading_terms_once(monkeypatch):
    gb = buchberger([P("x^3 - 2*x*y"), P("x^2*y - 2*y^2 + x")])
    assert gb == GroebnerBasis(gb.vars, gb.gens)  # the cached leads do not take part
    polys = [P("x^5*y + 3*x*y^4 - y"), P("x^2*y^2"), P("7")]
    expected = [normal_form(p, GroebnerBasis(gb.vars, gb.gens)) for p in polys]
    calls = []
    leading = Poly.leading
    monkeypatch.setattr(Poly, "leading", lambda self: calls.append(self) or leading(self))
    assert [normal_form(p, gb) for p in polys] == expected
    assert calls == []


def test_buchberger_pairs_each_divisor_with_its_leading_term_once(monkeypatch):
    # the divisor list grows alongside the basis: one pairing of the input,
    # none per reduction, and none when the GroebnerBasis is made, which
    # reads its leading terms and tails off its generators only when asked
    import dcrit.groebner as groebner
    calls = []
    with_leads = groebner._with_leads
    monkeypatch.setattr(groebner, "_with_leads", lambda b, ring: calls.append(b) or with_leads(b, ring))
    gb = buchberger([P("x^3 - 2*x*y"), P("x^2*y - 2*y^2 + x")])
    assert gb.gens == (P("y^2 - 1/2*x"), P("x*y"), P("x^2"))
    assert len(calls) == 1


def seeded_basis(seed):
    """A reduced basis of one to three random generators in one to three variables."""
    rng = random.Random(seed)
    vars = ("x", "y", "z")[:rng.choice([1, 2, 3])]
    return buchberger([random_poly(rng, vars, 3, 4) * rng.choice([-6, -1, 1, 2, Fraction(5, 3)])
                       for _ in range(rng.randint(1, 3))])


@pytest.mark.parametrize("seed", range(12))
def test_each_tail_is_the_primitive_form_the_reducer_divides_by(seed):
    # the quotient reads each generator's tail off gens alone: a primitive int
    # term map with a positive leading coefficient, the form _with_leads packs
    # for the reducer, term order included, and for a monic generator simply
    # its int numerators
    gb = seeded_basis(seed)
    loose = loose_basis(gb, random.Random(seed))
    loose = GroebnerBasis(gb.vars, (Poly.zero(gb.vars),) + loose.gens)  # a zero generator too
    for basis in (gb, loose):
        ring = groebner._packing(len(basis.vars), max(map(Poly.total_degree, basis.gens)))
        packed = [(ring.unpack(ge), [(ring.unpack(e), c) for e, c in terms.items()])
                  for (ge, _), terms in groebner._with_leads(basis.gens, ring)]
        tails = basis._tails
        assert [(ge, list(t.items())) for ge, t in tails.items()] == packed
        assert list(tails) == basis._leads == [g.leading()[0] for g in basis.gens if g]
        for ge, t in tails.items():
            assert t[ge] > 0 and gcd(*t.values()) == 1
    for g in gb.gens:
        assert g.leading()[1] == 1 and gb._tails[g.leading()[0]] == g._num


@pytest.mark.parametrize("seed", range(12))
def test_buchberger_and_the_constructor_give_the_same_quotient(seed):
    gb = seeded_basis(seed)
    public = GroebnerBasis(gb.vars, gb.gens)
    ones = (1,) * len(gb.vars)
    assert public.monomials == gb.monomials
    assert public.dimension == gb.dimension
    assert public.hilbert_numerator(ones) == gb.hilbert_numerator(ones)
    if gb.monomials is not None:
        assert public.matrices == gb.matrices


# -- the quotient R/I: border-basis oracle -----------------------------------

def assert_int_vector(v):
    """(nums, den): nonzero int numerators over a positive int denominator, in lowest terms."""
    nums, den = v
    assert type(den) is int and den > 0
    assert all(type(a) is int and a for a in nums.values())
    assert gcd(den, *nums.values()) == 1


def apply(columns, v):
    """The matrix with these IntVector columns applied to an IntVector, in Fractions."""
    nums, den = v
    out = {}
    for t, c in nums.items():
        col_nums, col_den = columns[t]
        for r, a in col_nums.items():
            out[r] = out.get(r, 0) + Fraction(c * a, den * col_den)
    return {r: a for r, a in out.items() if a}


def as_poly(gb, v):
    nums, den = v
    return Poly(gb.vars, {gb.monomials[r]: Fraction(c, den) for r, c in nums.items()})


def zero_dimensional_ideal(seed):
    """A pure power plus lower-degree noise per variable, and a few extra generators."""
    rng = random.Random(seed)
    vars = ("x", "y", "z")[:rng.choice([1, 2, 2, 3])]
    gens = []
    for k in range(len(vars)):
        a = rng.randint(2, 4 if len(vars) < 3 else 3)
        gens.append(Poly.monomial(vars, tuple(a if i == k else 0 for i in range(len(vars))))
                    + random_poly(rng, vars, a - 1, 3))
    gens += [random_poly(rng, vars, 3, 3) for _ in range(rng.randint(0, 2))]
    return gens


def check_border_basis(gens, seed):
    gb = buchberger(gens)
    M = gb.matrices
    n, mu = len(gb.vars), len(gb.monomials)
    assert len(M) == n and all(len(Mk) == mu for Mk in M)
    # column s of M_k is the normal form of the border monomial x_k*s
    for k in range(n):
        for s, m in enumerate(gb.monomials):
            xs = Poly.monomial(gb.vars, tuple(e + (i == k) for i, e in enumerate(m)))
            assert_int_vector(M[k][s])
            assert as_poly(gb, M[k][s]) == normal_form(xs, gb)
    # the multiplication matrices commute, independently of S-pair bookkeeping
    for j in range(n):
        for k in range(j + 1, n):
            for s in range(mu):
                assert apply(M[j], M[k][s]) == apply(M[k], M[j][s])
    # every original generator is zero in the quotient
    for g in gens:
        assert gb.vector(g) == ({}, 1)
    rng = random.Random(seed)
    for _ in range(6):
        p = random_poly(rng, gb.vars, 6, 6)
        assert_int_vector(gb.vector(p))
        assert as_poly(gb, gb.vector(p)) == normal_form(p, gb)
    return gb


@pytest.mark.parametrize("seed", range(16))
def test_quotient_is_a_border_basis_of_zero_dimensional_ideals(seed):
    check_border_basis(zero_dimensional_ideal(seed), seed)


@pytest.mark.parametrize("seed", range(4))
def test_quotient_is_a_border_basis_of_corpus_jacobians(seed):
    for f, mu in potentials.corpus(seed):
        q = check_border_basis(list(gradient(f)), seed)
        assert len(q.monomials) == mu


def test_quotient_of_the_unit_and_the_zero_variable_ideal():
    unit = buchberger([P("x"), P("x + 1")])
    assert unit.monomials == () and unit.matrices == ((), ())
    assert unit.vector(P("x^3*y + 5")) == ({}, 1)
    assert [unit.multiples(P("x"))(m) for m in unit.monomials] == []
    assert unit.multiples(P("x"))((2, 1)) == ({}, 1)
    point = buchberger([Poly.zero(())])
    assert point.monomials == ((),) and point.matrices == ()
    assert point.vector(parse_poly("3", ())) == ({0: 3}, 1)
    assert point.vector(parse_poly("3/4", ())) == ({0: 3}, 4)
    assert [point.multiples(parse_poly("2", ()))(m) for m in point.monomials] == [({0: 2}, 1)]
    with pytest.raises(ValueError):
        unit.vector(parse_poly("x", ("x",)))


def test_infinite_quotient_has_no_matrices():
    q = buchberger([P("x*y")])
    assert q.monomials is None
    with pytest.raises(ValueError):
        q.matrices
    for p in (P("x"), P("0")):
        with pytest.raises(ValueError):
            q.vector(p)


def test_basis_that_is_not_reduced_gives_the_same_quotient():
    # a monic-free basis whose tail is not standard still describes R/I
    loose = GroebnerBasis(VS, (P("y^2"), P("2*x^2 + 3*y^2")))
    tight = buchberger([P("x^2"), P("y^2")])
    assert loose.monomials == tight.monomials
    assert loose.matrices == tight.matrices


def test_multiplication_matrix_columns_are_normal_forms():
    gb = jacobian_ideal(P("x^4 + x^2*y^2 + y^5 + x*y"))
    for h in (P("x^3 - 2*y"), P("7"), P("0"), P("x*y^4 + 1/3*x")):
        columns = [gb.multiples(h)(m) for m in gb.monomials]
        for c in columns:
            assert_int_vector(c)
        assert [as_poly(gb, c) for c in columns] == [
            normal_form(h * Poly.monomial(VS, m), gb) for m in gb.monomials]


def test_multiplication_columns_are_built_along_their_chain(monkeypatch):
    # NF(h*x^s) is M_k times NF(h*x^(s - e_k)), x_k the first variable of s:
    # asking for s builds exactly the values on its chain down to 1
    gb = jacobian_ideal(P("x^4 + x^2*y^2 + y^5 + x*y"))
    h = P("x^3 - 2*y")
    gb.vector(h)  # builds the M_k and memoizes the normal forms of h's monomials
    applied = []
    real = groebner._apply
    monkeypatch.setattr(groebner, "_apply", lambda cols, v: applied.append(1) or real(cols, v))
    multiples = gb.multiples(h)
    assert applied == []
    last = gb.monomials[-1]
    chain, m = [], last
    while any(m):
        chain.append(m)
        k = next(k for k, a in enumerate(m) if a)
        m = m[:k] + (m[k] - 1,) + m[k + 1:]
    chain.append(m)
    v = multiples(last)
    assert as_poly(gb, v) == normal_form(h * Poly.monomial(VS, last), gb)
    assert len(applied) == len(chain) - 1   # one product per step above the monomial 1
    assert multiples(last) is v and len(applied) == len(chain) - 1
    assert sorted(multiples.args[0]) == sorted(chain)  # the memo the walk fills
    # any monomial is a key, standard or not
    assert as_poly(gb, multiples((5, 7))) == normal_form(h * Poly.monomial(VS, (5, 7)), gb)
    with pytest.raises(ValueError):
        gb.multiples(parse_poly("x", ("x",)))
    for p in (P("x"), P("0")):
        with pytest.raises(ValueError):
            buchberger([P("x*y")]).multiples(p)


def test_counting_never_builds_the_matrices(monkeypatch, capsys):
    import dcrit.groebner as groebner

    def refuse(self):
        raise AssertionError("multiplication matrices built for a count")

    monkeypatch.setattr(groebner.GroebnerBasis, "matrices", property(refuse))
    assert main(["zero", "--vars", "x,y", "--section", "x^2 + y, y^3 - x*y",
                 "--json", "--no-timing"]) == 0
    assert main(["crit", "--vars", "x,y", "-f", "x^3 + y^4", "--milnor", "--hilbert",
                 "--json", "--no-timing"]) == 0
    K = build_koszul(VS, [P("x^2"), P("y^3")])
    hilbert_table(K, (1, 1), 5)
    capsys.readouterr()
    # the obstruction report is what asks for them
    assert main(["crit", "--vars", "x,y", "-f", "x^3 + y^4", "--obstruction", "--no-timing"]) == 3
    assert "built for a count" in capsys.readouterr().err


def test_crit_enumerates_the_standard_monomials_once(monkeypatch, capsys):
    import dcrit.groebner as groebner
    calls = []
    box = groebner.product
    monkeypatch.setattr(groebner, "product", lambda *a: calls.append(a) or box(*a))
    assert main(["crit", "--vars", "x,y", "-f", "x^3 + y^4", "--json", "--no-timing"]) == 0
    doc = json.loads(capsys.readouterr().out)["results"]
    assert doc["milnor"] == doc["obstruction"]["quotient_dim"] == 6
    assert len(calls) == 1


# -- the Hilbert numerator: counting from the leading terms alone -----------

def series(k, weights, cutoff):
    """Coefficients of K(t) / prod_i (1 - t^w_i) up to t^cutoff."""
    c = [k.get(e, 0) for e in range(cutoff + 1)]
    for w in weights:
        for e in range(w, cutoff + 1):
            c[e] += c[e - w]
    return c


def standard_counts(gb, weights, cutoff):
    """Per weight, the listed monomials no leading term of the basis divides."""
    leads = [g.leading()[0] for g in gb.gens]
    return [sum(1 for e in monomials_of_weight(weights, w)
                if not any(all(a <= b for a, b in zip(lt, e)) for lt in leads))
            for w in range(cutoff + 1)]


def own_weights(f):
    """Weights making f quasi-homogeneous: lcm/a_i for a sum of pure powers, else 1."""
    if any(sum(1 for a in e if a) != 1 for e in f.terms):
        return (1,) * len(f.vars)
    powers = [next(e[i] for e in f.terms if e[i]) for i in range(len(f.vars))]
    return tuple(lcm(*powers) // a for a in powers)


def seeded_ideals(seed):
    """(generators, weights to count in) over the seeded ideals of this file and of potentials."""
    rng = random.Random(f"numerator-{seed}")
    for gens in (random_ideal(seed), integer_path_ideal(seed), zero_dimensional_ideal(seed)):
        n = len(gens[0].vars)
        yield gens, (1,) * n
        yield gens, tuple(rng.randint(1, 3) for _ in range(n))
    for f, _ in potentials.corpus(seed):
        yield list(gradient(f)), (1,) * len(f.vars)
        yield list(gradient(f)), own_weights(f)


@pytest.mark.parametrize("seed", range(8))
def test_hilbert_numerator_counts_the_standard_monomials(seed):
    cutoff = 14
    for gens, ws in seeded_ideals(seed):
        gb = buchberger(gens)
        k = gb.hilbert_numerator(ws)
        assert all(k.values())
        assert series(k, ws, cutoff) == standard_counts(gb, ws, cutoff), ([str(g) for g in gens], ws)
        if gb.monomials is None:
            assert gb.dimension is INFINITE
        else:
            assert gb.dimension == len(gb.monomials)
            # a finite quotient's series is a polynomial: zero past its top weight
            top = max((sum(a * w for a, w in zip(e, ws)) for e in gb.monomials), default=0)
            assert not any(series(k, ws, top + 6)[top + 1:])


def test_hilbert_numerator_of_degenerate_ideals():
    assert buchberger([P("x"), P("x + 1")]).hilbert_numerator((1, 1)) == {}
    assert buchberger([P("0")]).hilbert_numerator((2, 3)) == {0: 1}
    assert buchberger([Poly.zero(())]).hilbert_numerator(()) == {0: 1}
    # (x^2, x*y, y^3), by inclusion and exclusion of the lcms:
    # 1 - (t^2 + t^2 + t^3) + (t^3 + t^5 + t^4) - t^5; the quotient is 1, x, y, y^2
    q = buchberger([P("x^2"), P("x*y"), P("y^3")])
    assert q.hilbert_numerator((1, 1)) == {0: 1, 2: -2, 4: 1}
    assert series(q.hilbert_numerator((1, 1)), (1, 1), 6) == [1, 2, 1, 0, 0, 0, 0]
    assert q.dimension == 4


def test_hilbert_numerator_refuses_bad_weights():
    q = buchberger([P("x^2"), P("y^3")])
    for ws in ((1,), (1, 2, 3), (0, 1), (-1, 2)):
        with pytest.raises(ValueError, match="weights"):
            q.hilbert_numerator(ws)
    assert q.hilbert_numerator({"y": 2, "x": 1}) == q.hilbert_numerator((1, 2)) == {0: 1, 2: -1, 6: -1, 8: 1}


def test_complete_intersections_have_the_product_numerator():
    rng = random.Random(5)
    for seed in range(6):
        for f, mu in potentials.corpus(seed)[:2]:  # kinds (a) and (b) are homogeneous
            ws = own_weights(f)
            d = f.weighted_degree(ws)
            q = jacobian_ideal(f)
            assert q.hilbert_numerator(ws) == ci_numerator(d - w for w in ws), str(f)
            assert q.dimension == mu
    # m < n: two generic quadrics in three variables, and a pure power
    vs = ("x", "y", "z")
    quadrics = [sum((rng.choice([-2, -1, 1, 2]) * Poly.monomial(vs, e)
                     for e in ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1))),
                    Poly.zero(vs)) for _ in range(2)]
    assert buchberger(quadrics).hilbert_numerator((1, 1, 1)) == {0: 1, 2: -2, 4: 1}
    assert buchberger([parse_poly("z^5", vs)]).hilbert_numerator((1, 2, 3)) == {0: 1, 15: -1}
    # not a complete intersection: a common factor leaves the product
    common = buchberger([P("x*y"), P("x^2")]).hilbert_numerator((1, 1))
    assert common != ci_numerator((2, 2))


def test_dimension_is_counted_not_listed(monkeypatch, capsys):
    import dcrit.groebner as groebner

    def refuse(*ranges):
        raise AssertionError("standard monomials listed for a count")

    monkeypatch.setattr(groebner, "product", refuse)
    # the last exponent packs into fields wider than 64 bits
    for src, vars, mu in (("x^2000 + y^2000", "x,y", 1999 ** 2), ("x^100000000", "x", 99999999),
                          ("x^3 + y^3 + z^3 + x*y*z", "x,y,z", 8),
                          ("x^99999999999999999999 + y^3", "x,y", 199999999999999999996)):
        assert main(["crit", "--vars", vars, "-f", src, "--milnor", "--json", "--no-timing"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["milnor"] == mu
    assert main(["zero", "--vars", "x,y", "--section", "x^3, y^4", "--json", "--no-timing"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["h0_dimension"] == 12


# -- pair criteria: Gebauer-Moller's update against all pairs ---------------

def all_pairs_buchberger(gens):
    """Reference basis: every pair of generators, skipping only coprime leading
    terms, on the module's S-polynomial and reducer, then minimalized and
    interreduced; the reduced basis is canonical, so it must equal buchberger's.
    Monomials are packed 12 bits an exponent, which every lcm must fit."""
    vars = gens[0].vars
    ring = groebner._Packing(len(vars), 12)
    divisors = groebner._with_leads(gens, ring)
    leads = [ring.unpack(ge) for (ge, _), _ in divisors]
    order = count(0, -1)

    def pair(i, j):
        m = tuple(map(max, leads[i], leads[j]))
        assert sum(m) < 1 << ring.width
        return degrevlex_key(m), next(order), i, j, m

    pairs = [pair(i, j) for i in range(len(leads)) for j in range(i + 1, len(leads))]
    heapq.heapify(pairs)
    while pairs:
        _, _, i, j, m = heapq.heappop(pairs)
        if m == tuple(map(add, leads[i], leads[j])):
            continue
        r, _ = groebner._reduce(groebner._s_poly(divisors[i], divisors[j], ring.pack(m)), divisors,
                                ring.guard)
        if r:
            re = next(iter(r))
            r = groebner._primitive(r, re)
            divisors.append(((re, r[re]), r))
            leads.append(ring.unpack(re))
            for k in range(len(leads) - 1):
                heapq.heappush(pairs, pair(k, len(leads) - 1))
    minimal = []
    for k in sorted(range(len(leads)), key=lambda k: degrevlex_key(leads[k])):
        if not any(all(map(le, leads[m], leads[k])) for m in minimal):
            minimal.append(k)
    kept = [divisors[k] for k in minimal]
    basis = []
    for pos, ((ge, _), terms) in enumerate(kept):
        r, _ = groebner._reduce(dict(terms), kept[:pos] + kept[pos + 1:], ring.guard)
        basis.append(Poly(vars, {ring.unpack(e): Fraction(c, r[ge]) for e, c in r.items()}))
    return basis


@pytest.mark.parametrize("seed", range(24))
def test_pair_criteria_keep_the_all_pairs_basis_on_seeded_ideals(seed):
    # random_ideal, integer_path_ideal, zero_dimensional_ideal and the corpus
    # Jacobians, each drawn twice in a row for two weightings
    for gens, _ in list(seeded_ideals(seed))[::2]:
        assert list(buchberger(gens).gens) == all_pairs_buchberger(gens), [str(g) for g in gens]


@pytest.mark.parametrize("gens, mu", [(cyclic(5), 70), (katsura(4), 16)], ids=["cyclic-5", "katsura-4"])
def test_pair_criteria_keep_the_all_pairs_basis_on_named_systems(gens, mu):
    gb = buchberger(gens)
    assert list(gb.gens) == all_pairs_buchberger(gens)
    assert gb.dimension == mu


@pytest.mark.parametrize("srcs, vars", [
    (["x^2 + y", "x^2 + y", "x*y - 1"], VS),                # duplicate generators
    (["x^2 + y", "x^2 - y^2", "x*y + x"], VS),              # equal leading terms
    (["x^2*y + y", "x*y - x", "y^3 + 2"], VS),              # a later leading term divides an earlier
    (["x^3*y^2 - z", "x*y^2 + y", "x^2 - z^2", "y*z - x"], ("x", "y", "z")),
    (["0", "x^3 - y", "0", "x*y^2 + 1", "0"], VS),          # zero generators mixed in
    (["x*y - 1", "x", "y^2"], VS),                          # the unit ideal, reached by a pair
    (["x^2 + y", "3", "x*y"], VS),                          # the unit ideal, given
    (["0"], VS),
    (["0", "0"], ()),                                       # the zero-variable ring
    (["0", "5", "2"], ()),
])
def test_pair_criteria_keep_the_all_pairs_basis_on_edge_inputs(srcs, vars):
    gens = [parse_poly(src, vars) for src in srcs]
    assert list(buchberger(gens).gens) == all_pairs_buchberger(gens)


@pytest.mark.parametrize("gens", [katsura(4), cyclic(5)], ids=["katsura-4", "cyclic-5"])
def test_a_pair_whose_lcm_does_not_fit_repacks_the_basis_wider(monkeypatch, gens):
    # the narrowest width holds the input's degrees and nothing more, so the
    # first S-polynomial of higher degree must widen every field first
    widths = []

    def narrowest(n, degree):
        widths.append(degree.bit_length())
        return groebner._Packing(n, widths[-1])

    monkeypatch.setattr(groebner, "_packing", narrowest)
    basis = buchberger(gens)
    assert len(widths) > 1 and widths == sorted(widths)
    assert max(sum(g.leading()[0]) for g in basis.gens) >= 1 << widths[0]
    assert list(basis.gens) == all_pairs_buchberger(gens)


def count_s_pair_reductions(monkeypatch, build, gens):
    """(S-pairs reduced, how many came back zero) by one basis computation.

    Interreduction calls the reducer once per reduced generator, never with
    a zero result; those calls are taken off.
    """
    calls = zeros = 0
    reduce = groebner._reduce

    def counting(*args):
        nonlocal calls, zeros
        r = reduce(*args)
        calls += 1
        zeros += not r[0]
        return r

    monkeypatch.setattr(groebner, "_reduce", counting)
    basis = build(gens)
    size = len(basis.gens if isinstance(basis, GroebnerBasis) else basis)
    return calls - size, zeros


@pytest.mark.parametrize("gens, pinned, reference", [
    (cyclic(5), (106, 65), (868, 827)),
    (list(gradient(potentials.corpus(0)[1][0])), (10, 5), (16, 11)),
], ids=["cyclic-5", "power-sum-jacobian"])
def test_pair_criteria_reduce_fewer_pairs(monkeypatch, gens, pinned, reference):
    # pinned, so that switching off the chain criterion or the B-criterion fails here
    assert count_s_pair_reductions(monkeypatch, buchberger, gens) == pinned
    assert count_s_pair_reductions(monkeypatch, all_pairs_buchberger, gens) == reference
    assert pinned[0] < reference[0] and pinned[1] < reference[1]
