"""The odd bracket, the divergence operator, and volume-form contraction."""

from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from dcrit import polyvec
from dcrit.checks import rand_homogeneous, rand_mixed, rand_poly, var_names
from dcrit.exterior import Ambient, ExtElt, Section, contract
from dcrit.parsing import parse_one_form, parse_poly, parse_polyvector
from dcrit.poly import Poly
from dcrit.polyvec import (VolumeForm, alpha_of_vector, apply_vector, bv_delta,
                           check_bracket_compat, check_bv, check_gerstenhaber,
                           closedness_witness, de_rham, exact_form,
                           form_ambient, form_str, polyvector_ambient,
                           schouten, vol_contract)
from dcrit.symplectic import intersect_graph_lagrangians
from test_exterior import homogeneous_components

VS = ("x", "y")


def V(src, vars=VS):
    return parse_polyvector(src, vars)


def P(src, vars=VS):
    return parse_poly(src, vars)


def test_bracket_extends_vector_field_action():
    assert schouten(V("@x"), V("x^2")) == V("2*x")
    assert schouten(V("x*@y"), V("y^3")) == V("3*x*y^2")
    assert schouten(V("@x"), V("1")).terms == {}


def test_bracket_extends_lie_bracket():
    assert schouten(V("x*@y"), V("y*@x")) == V("x*@x - y*@y")
    assert schouten(V("x*@x"), V("@x")) == V("-@x")
    assert schouten(V("@x"), V("@y")).terms == {}


def test_bivector_against_function():
    # the sign convention is fixed by [[X, f]] = X(f); this one follows from it
    assert schouten(V("@x/\\@y"), V("x*y")) == V("x*@x - y*@y")


def test_graded_antisymmetry_samples():
    rng = Random(21)
    amb = polyvector_ambient(VS)
    for _ in range(30):
        a = rand_mixed(rng, amb, 2)
        b = rand_mixed(rng, amb, 2)
        for p, ap in homogeneous_components(a).items():
            for q, bq in homogeneous_components(b).items():
                sign = -1 if ((p + 1) * (q + 1)) % 2 else 1
                assert schouten(ap, bq) == -sign * schouten(bq, ap)


def test_gerstenhaber_suite_passes():
    report = check_gerstenhaber(2, trials=60, seed=1)
    assert report.passed, report.counterexample
    assert report.trials >= 60


def test_one_form_basics():
    f = P("x^2*y")
    alpha = exact_form(f)
    assert alpha == Section(polyvector_ambient(VS), (P("2*x*y"), P("x^2")))
    assert closedness_witness(alpha) is None
    X = V("x*@x + @y")
    assert apply_vector(X, f) == P("2*x^2*y + x^2")
    assert alpha_of_vector(alpha, X) == P("2*x^2*y + x^2")
    assert form_str(alpha) == "2*x*y*d_x + x^2*d_y"
    assert form_str(exact_form(Poly.zero(VS))) == "0"


def test_evaluation_refuses_a_polyvector_that_is_not_a_vector_field():
    # the 2-vector term has no value under a 1-form: dropping it would give x*y
    alpha = parse_one_form("y*d_x", VS)
    X = V("x*@x + @y + @x/\\@y")
    for call in (lambda: alpha_of_vector(alpha, X), lambda: apply_vector(X, P("x*y"))):
        with pytest.raises(ValueError, match="expected a vector field"):
            call()
    with pytest.raises(ValueError, match="expected a vector field"):
        alpha_of_vector(alpha, V("1"))


def reference_evaluation(alpha, X):
    """sum_i a_i X^i, the components of the form against those of the field."""
    total = Poly.zero(X.ambient.vars)
    for i, a in enumerate(alpha.components):
        total = total + a * X.coefficient_poly((i,))
    return total


@pytest.mark.parametrize("n", [1, 2, 3])
def test_evaluation_matches_the_componentwise_sum(n):
    rng = Random(f"evaluation-{n}")
    vs = var_names(n)
    amb = polyvector_ambient(vs)
    fractions = 0
    for _ in range(40):
        alpha = Section(amb, tuple(rand_poly(rng, vs, 3) for _ in vs))
        X = rand_homogeneous(rng, amb, 2, wedge_degree=1)
        fractions += any(type(c) is Fraction for a in alpha.components for c in a.terms.values())
        assert alpha_of_vector(alpha, X) == reference_evaluation(alpha, X)
        f = rand_poly(rng, vs, 3)
        assert apply_vector(X, f) == reference_evaluation(exact_form(f), X)
    assert fractions > 0


def test_closedness_witness():
    bad = parse_one_form("y*d_x", VS)
    w = closedness_witness(bad)
    assert w == {"pair": ("x", "y"), "d_x(a_y)": "0", "d_y(a_x)": "1"}
    assert closedness_witness(parse_one_form("y*d_x + x*d_y", VS)) is None


def test_d_alpha_is_koszul_contraction():
    alpha = exact_form(parse_poly("x^2", ("x",)))
    assert contract(alpha, parse_polyvector("@x", ("x",))) == parse_polyvector(
        "-2*x", ("x",))
    rng = Random(22)
    amb = polyvector_ambient(VS)
    beta = exact_form(P("x^3 + x*y"))
    for _ in range(20):
        a = rand_mixed(rng, amb, 2)
        assert contract(beta, contract(beta, a)).terms == {}


def test_one_forms_live_on_the_polyvector_ambient():
    # a Koszul section on e1, e2 has the right shape but is not a 1-form
    koszul = Section(Ambient(VS, ("e1", "e2")), (P("x"), P("y")))
    X = V("@x")
    for call in (lambda: check_bracket_compat(koszul, trials=1),
                 lambda: alpha_of_vector(koszul, X),
                 lambda: intersect_graph_lagrangians(koszul, koszul),
                 lambda: intersect_graph_lagrangians(exact_form(P("x")), koszul)):
        with pytest.raises(ValueError, match="polyvector ambient"):
            call()


def test_compat_check_accepts_exact_forms():
    alpha = exact_form(P("x^3 + y^3"))
    report = check_bracket_compat(alpha, trials=15, seed=0)
    assert report.passed
    assert report.details["closed"] is True


def test_compat_check_falsifies_y_dx():
    report = check_bracket_compat(parse_one_form("y*d_x", VS), trials=5, seed=0)
    assert not report.passed
    ce = report.counterexample
    assert ce["X"] == "@x" and ce["Y"] == "@y"
    assert ce["discrepancy"] == "-1"
    assert report.details["closed"] is False


def test_bv_normalization_and_samples():
    vol = VolumeForm(VS, Fraction(1))
    assert bv_delta(vol, V("x*@x")) == V("1")
    assert bv_delta(vol, V("x*@x/\\@y")) == V("@y")
    assert bv_delta(vol, V("x^2*y")).terms == {}  # functions are killed


def test_bv_squares_to_zero_samples():
    rng = Random(23)
    vol = VolumeForm(VS, Fraction(3, 2))
    amb = polyvector_ambient(VS)
    for _ in range(25):
        a = rand_mixed(rng, amb, 3)
        assert bv_delta(vol, bv_delta(vol, a)).terms == {}


def test_bv_generating_relation_sample():
    vol = VolumeForm(VS, Fraction(1))
    a = V("x*@x/\\@y")
    b = V("y*@y")
    p = 2  # wedge degree of a
    lhs = schouten(a, b)
    sign_outer = Fraction((-1) ** (p + 1))
    sign_inner = Fraction((-1) ** p)
    rhs = sign_outer * (bv_delta(vol, a * b) - bv_delta(vol, a) * b
                        - sign_inner * (a * bv_delta(vol, b)))
    assert lhs == rhs


def test_bv_suite_passes():
    report = check_bv(2, trials=60, seed=2)
    assert report.passed, report.counterexample
    assert report.details["non_derivation_witness"] is not None
    # a pass says every identity held; no detail restates it
    assert list(report.details) == ["n", "densities", "non_derivation_witness"]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_the_non_derivation_witness_is_x1_in_every_dimension(n):
    vs = var_names(n)
    vol = VolumeForm(vs)
    amb = polyvector_ambient(vs)
    x1 = Poly.variable(vs, vs[0])
    a, b = ExtElt.wedge_monomial(amb, x1, (0,)), ExtElt.from_poly(amb, x1)
    # b is a function, so delta(b) = 0 and the sign in front of a * delta(b) does not matter
    deviation = bv_delta(vol, a * b) - bv_delta(vol, a) * b - a * bv_delta(vol, b)
    assert deviation == b
    witness = check_bv(n, trials=2, seed=n).details["non_derivation_witness"]
    assert witness == {"a": f"{vs[0]}*@{vs[0]}", "b": vs[0], "deviation": vs[0]}


def test_a_zero_deviation_on_the_witness_fails(monkeypatch):
    # a wedge that returns zero makes every deviation zero: no witness
    monkeypatch.setattr(polyvec, "wedge", lambda a, b: ExtElt.zero(a.ambient))
    report = check_bv(2, trials=5, seed=0)
    assert (report.status, report.trials) == ("fail", 0)
    assert report.counterexample == {"identity": "non_derivation", "a": "x*@x", "b": "x",
                                     "deviation": "0"}


def test_one_ambient_per_variable_tuple():
    forms = form_ambient(VS)
    assert forms is form_ambient(list(VS)) is vol_contract(VolumeForm(VS), V("1")).ambient
    assert polyvector_ambient(VS) is polyvector_ambient(list(VS))
    assert form_ambient(VS).gens == ("d_x", "d_y") and polyvector_ambient(VS).gens == ("@x", "@y")


def test_volume_contraction_frozen_values():
    vol = VolumeForm(VS, Fraction(1))
    d_x, d_y = (ExtElt.generator(form_ambient(VS), i) for i in range(2))
    top = d_x * d_y
    assert vol_contract(vol, V("1")) == top
    assert vol_contract(vol, V("@x")) == d_y
    assert vol_contract(vol, V("@y")) == -d_x
    assert vol_contract(vol, V("@x/\\@y")) == -ExtElt.one(top.ambient)


def test_volume_contraction_is_injective_on_wedge_monomials():
    # the 2^n wedge monomials go to 2^n distinct form monomials, each with a
    # nonzero coefficient, so vol_contract is injective
    for n in (1, 2, 3):
        vs = var_names(n)
        for density in (Fraction(1), Fraction(5, 3)):
            vol = VolumeForm(vs, density)
            images = set()
            for p in range(n + 1):
                for subset in combinations(range(n), p):
                    w = vol_contract(vol, ExtElt.monomial(polyvector_ambient(vs), (0,) * n, subset))
                    [(key, c)] = w.terms.items()
                    assert c != 0
                    images.add(key)
            assert len(images) == 2 ** n


def test_intertwining_sample():
    for density in (Fraction(1), Fraction(7, 2)):
        vol = VolumeForm(VS, density)
        a = V("x^2*y*@x/\\@y + x*@x")
        lhs = vol_contract(vol, bv_delta(vol, a))
        rhs = de_rham(vol_contract(vol, a))
        assert lhs == rhs


def test_de_rham_squares_to_zero():
    w = de_rham(vol_contract(VolumeForm(VS, Fraction(1)), V("x^3*@x + y*@y")))
    assert de_rham(w).terms == {}


def test_volume_form_rejects_zero_density():
    with pytest.raises(ValueError):
        VolumeForm(VS, Fraction(0))


# -- the closed formulas, written out as a reference for the one-pass kernels


def odd_derivative(a, i):
    """Left derivative along @x_i: drops i from each subset, with sign (-1)^k at position k."""
    terms = {}
    for (exps, subset), c in a.terms.items():
        if i in subset:
            k = subset.index(i)
            terms[(exps, subset[:k] + subset[k + 1:])] = c if k % 2 == 0 else -c
    return ExtElt(a.ambient, terms)


def coeff_derivative(a, i):
    """Partial derivative of each polynomial coefficient along x_i."""
    var = a.ambient.vars[i]
    out = ExtElt.zero(a.ambient)
    for subset in a.subsets():
        out = out + ExtElt.wedge_monomial(a.ambient, a.coefficient_poly(subset).diff(var), subset)
    return out


def reference_bracket(a, b):
    """[[a, b]] = (-1)^(p+1) sum_i od_i(a) ^ d_i(b) - sum_i d_i(a) ^ od_i(b), a of wedge degree p."""
    out = ExtElt.zero(a.ambient)
    for deg, comp in homogeneous_components(a).items():
        front = 1 if (1 - deg) % 2 == 0 else -1
        for i in range(len(a.ambient.vars)):
            out = out + front * (odd_derivative(comp, i) * coeff_derivative(b, i))
            out = out - coeff_derivative(comp, i) * odd_derivative(b, i)
    return out


def reference_delta(a):
    """Delta = sum_i d_i o od_i."""
    out = ExtElt.zero(a.ambient)
    for i in range(len(a.ambient.vars)):
        out = out + coeff_derivative(odd_derivative(a, i), i)
    return out


def test_reference_derivatives_are_pinned():
    assert odd_derivative(V("x*@x/\\@y"), 1) == V("-x*@x")
    assert odd_derivative(V("y^2*@y"), 0).terms == {}
    assert coeff_derivative(V("x^2*y*@y + 3*x"), 0) == V("2*x*y*@y + 3")


@pytest.mark.parametrize("n", range(4))
def test_one_pass_kernels_match_the_closed_formulas(n):
    rng = Random(40 + n)
    amb = polyvector_ambient(var_names(n))
    vol = VolumeForm(amb.vars)
    elements = [ExtElt.zero(amb)] + [rand_mixed(rng, amb, 3) for _ in range(9)]
    elements.append(Fraction(2, 3) * elements[1])
    coeffs = [c for e in elements for c in e.terms.values()]
    assert any(type(c) is Fraction for c in coeffs) and any(type(c) is int for c in coeffs)
    if n:
        assert any(len({len(s) for s in e.subsets()}) > 1 for e in elements)
    for a in elements:
        assert bv_delta(vol, a) == reference_delta(a)
        for b in elements:
            assert schouten(a, b) == reference_bracket(a, b)


@pytest.mark.parametrize("n", range(4))
def test_contraction_is_minus_alpha_times_the_odd_derivatives(n):
    """The one sign rule: contract(alpha, a) = -sum_i alpha_i * od_i(a), checked
    against the test-local odd derivative that also pins the bracket kernels."""
    rng = Random(70 + n)
    amb = polyvector_ambient(var_names(n))
    elements = [rand_mixed(rng, amb, 3) for _ in range(8)]
    elements.append(Fraction(3, 5) * elements[0])
    alphas = [Section(amb, tuple(rand_poly(rng, amb.vars, 2) for _ in amb.vars))
              for _ in range(6)]
    alphas.append(Section(amb, tuple(Fraction(1, 2) * p for p in alphas[0].components)))
    coeffs = [c for e in elements for c in e.terms.values()]
    coeffs += [c for alpha in alphas for p in alpha.components for c in p.terms.values()]
    assert any(type(c) is Fraction for c in coeffs) and any(type(c) is int for c in coeffs)
    for alpha in alphas:
        for a in elements:
            expected = ExtElt.zero(amb)
            for i, alpha_i in enumerate(alpha.components):
                expected = expected - alpha_i * odd_derivative(a, i)
            assert contract(alpha, a) == expected
