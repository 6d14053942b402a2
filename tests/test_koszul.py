"""Koszul complexes: matrices, d^2, base change, and the ideal R/I."""

from fractions import Fraction
from random import Random

import pytest

from dcrit.checks import rand_poly, var_names
import dcrit.koszul as koszul
from dcrit.cli import main
from dcrit.cohomology import hilbert_table
from dcrit.exterior import Ambient, ExtElt, Section, contract, wedge
from dcrit.groebner import INFINITE, normal_form
from dcrit.koszul import (KoszulComplex, base_change_compare,
                          build_koszul, build_tautological_koszul,
                          check_d_squared)
from dcrit.parsing import parse_poly, parse_section
from dcrit.poly import Poly, gradient
from test_cohomology import _sign_broken_contract

VS = ("x", "y")


def P(src, vars=VS):
    return parse_poly(src, vars)


def coordinate_complex():
    return build_koszul(VS, [P("x"), P("y")])


def test_differential_matrices_are_pinned():
    K = coordinate_complex()
    assert K.differential_matrix(-1) == [[P("-x"), P("-y")]]
    assert K.differential_matrix(-2) == [[P("y")], [P("-x")]]
    assert K.basis(0) == [()]
    assert K.basis(-1) == [(0,), (1,)]
    assert K.basis(-2) == [(0, 1)]
    assert K.basis(-3) == []
    assert list(K.degrees) == [-2, -1, 0]


def test_d_squared_on_random_sections():
    rng = Random(3)
    for _ in range(25):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        vs = var_names(n)
        comps = [rand_poly(rng, vs, 3) for _ in range(m)]
        assert check_d_squared(build_koszul(vs, comps))


@pytest.mark.parametrize("flip_at, shows_from", [(0, 2), (1, 2), (2, 3)])
def test_a_broken_sign_rule_is_caught_on_every_section(monkeypatch, flip_at, shows_from):
    # all-zero sections: contracting twice along them gives zero under any
    # sign rule, so only the tautological section can show the flip
    sections = [build_koszul(("x",), [Poly.zero(("x",))] * m) for m in range(5)]
    monkeypatch.setattr(koszul, "_contract", _sign_broken_contract(None))
    assert [check_d_squared(K) for K in sections] == [True] * 5  # the copy is faithful
    monkeypatch.setattr(koszul, "_contract", _sign_broken_contract(flip_at))
    assert [check_d_squared(K) for K in sections] == [m < shows_from for m in range(5)]


def test_zero_and_hilbert_table_build_no_differential_matrix(monkeypatch, capsys):
    K = build_koszul(VS, [P("x^2"), P("x*y"), P("y^3")])
    table = hilbert_table(K, (1, 1), 5)

    def refuse(self, p):
        raise AssertionError("differential_matrix was built")

    monkeypatch.setattr(KoszulComplex, "differential_matrix", refuse)
    assert hilbert_table(K, (1, 1), 5) == table
    assert main(["zero", "--vars", "x,y", "--section", "x^2, x*y, y^3"]) == 0
    assert "d^2 = 0: pass" in capsys.readouterr().out


def test_tautological_complex_shape():
    taut = build_tautological_koszul(("x",), 2)
    assert taut.ambient.vars == ("x", "xi1", "xi2")
    assert check_d_squared(taut)
    # the section is the fiber coordinates themselves
    comps = taut.section.components
    assert comps == parse_section("xi1, xi2", ("x", "xi1", "xi2"))


def test_fiber_name_collision_is_rejected():
    with pytest.raises(ValueError):
        build_tautological_koszul(("x", "xi1"), 2)


def test_base_change_matches_direct_koszul():
    rng = Random(4)
    for _ in range(20):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        vs = var_names(n)
        comps = [Poly.zero(vs) if rng.random() < 0.2 else rand_poly(rng, vs, 3)
                 for _ in range(m)]
        report = base_change_compare(build_tautological_koszul(vs, m), comps)
        assert report.passed and report.counterexample is None
        assert report.to_json() == {"name": "base_change", "status": "pass"}


def test_augmentation_projects_to_the_critical_quotient():
    # the augmentation onto H^0 = R/I is the normal form modulo the complex's ideal
    K = build_koszul(VS, list(gradient(P("x^3 + y^3"))))
    assert K.ideal.dimension == 4
    assert normal_form(P("x^2"), K.ideal) == Poly.zero(VS)
    assert normal_form(P("x*y + 7"), K.ideal) == P("x*y + 7")
    assert normal_form(P("x^4 + x"), K.ideal) == P("x")


def test_a_complex_with_no_components_augments_onto_the_ring():
    # the zero ideal: R/0 = R, an infinite-dimensional target
    K = build_koszul(("x",), [])
    x = parse_poly("x", ("x",))
    assert normal_form(x, K.ideal) == x
    assert K.ideal.dimension == INFINITE == "infinite"


@pytest.mark.parametrize("seed", range(8))
def test_differential_matrix_is_the_contraction_of_each_unit_monomial(seed):
    rng = Random(seed)
    m = rng.randint(2, 4)
    comps = [Poly.zero(VS), rand_poly(rng, VS, 2, 3) * Fraction(2, 3)]
    comps += [rand_poly(rng, VS, 2, 3) for _ in range(m - 2)]
    rng.shuffle(comps)
    K = KoszulComplex(Section(Ambient(VS, koszul.default_gens(m)), tuple(comps)))
    for p in K.degrees:
        matrix, target = K.differential_matrix(p), K.basis(p + 1)
        assert len(matrix) == len(target)
        for j, subset in enumerate(K.basis(p)):
            image = contract(K.section, ExtElt.monomial(K.ambient, (0, 0), subset))
            for i, t in enumerate(target):
                want = image.coefficient_poly(t)
                assert matrix[i][j] == want, (p, i, j)
                assert {e: type(c) for e, c in matrix[i][j].terms.items()} == \
                    {e: type(c) for e, c in want.terms.items()}


def test_zero_rank_and_empty_base():
    K = build_koszul((), [])
    assert list(K.degrees) == [0]
    assert check_d_squared(K)


# -- a second certificate for the tautological complex: a contracting homotopy --

def de_rham_homotopy(taut, a):
    """h(f e_S) = sum_j (df/dxi_j) e_j ^ e_S: the de Rham differential along the fiber."""
    amb = taut.ambient
    out = ExtElt.zero(amb)
    for subset in a.subsets():
        f = a.coefficient_poly(subset)
        e_S = ExtElt.monomial(amb, (0,) * len(amb.vars), subset)
        for j, xi in enumerate(taut.fiber_vars):
            out = out + wedge(ExtElt.generator(amb, j), ExtElt.from_poly(amb, f.diff(xi)) * e_S)
    return out


@pytest.mark.parametrize("n, m", [(n, m) for n in range(3) for m in range(2, 5)])
def test_the_fiber_de_rham_operator_contracts_the_tautological_complex(n, m):
    # dh + hd = -N on x^a xi^b e_S, with N = |b| + |S|: every weight slice
    # with N > 0 is contractible, so the complex resolves Q[base], whatever
    # the Hilbert series says
    taut = build_tautological_koszul(var_names(n), m)
    amb, section = taut.ambient, taut.section
    rng = Random(f"homotopy-{n}-{m}")
    for _ in range(40):
        exps = tuple(rng.randint(0, 2) for _ in range(n + m))
        subset = tuple(sorted(rng.sample(range(m), rng.randint(0, m))))
        a = ExtElt.monomial(amb, exps, subset, rng.choice([-3, -1, 2, 5]))
        N = sum(exps[n:]) + len(subset)
        dh_hd = contract(section, de_rham_homotopy(taut, a)) + de_rham_homotopy(taut, contract(section, a))
        assert dh_hd == a * (-N), (exps, subset)
