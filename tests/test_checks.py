"""The shrink path of the randomized identity suites.

Each test breaks one kernel so that exactly one identity fails, runs the
suite, and checks the reported counterexample: its keys, that the shrunk
inputs still fail, and that deleting any single term from them makes the
identity hold (or raise).  The identities are restated here so that the
reported strings, parsed back, are judged independently of the suite.
"""

from fractions import Fraction

from dcrit import coalgebra, polyvec
from dcrit.exterior import Ambient, ExtElt, Section
from dcrit.koszul import KoszulComplex, default_gens
from dcrit.parsing import _Parser, parse_poly, parse_polyvector, parse_section
from dcrit.polyvec import VolumeForm


def parse_elt(src, ambient):
    return _Parser(src, ambient, {g: j for j, g in enumerate(ambient.gens)}).parse()


def one_term_deleted(elts):
    """Every input list that drops one term of one input."""
    for i, e in enumerate(elts):
        for key in e.terms:
            smaller = ExtElt(e.ambient, {k: c for k, c in e.terms.items() if k != key})
            yield elts[:i] + [smaller] + elts[i + 1:]


def assert_shrunk(fails, elts):
    assert fails(*elts)
    for smaller in one_term_deleted(elts):
        try:
            still = fails(*smaller)
        except (ValueError, ZeroDivisionError):
            continue
        assert not still, [str(e) for e in smaller]


def shifted_sign(a, b):
    return 1 if ((a.degree() + 1) * (b.degree() + 1)) % 2 == 0 else -1


def test_gerstenhaber_shrinks_a_jacobi_failure(monkeypatch):
    bracket = polyvec.schouten

    def odd_part_negated(a, b):
        r = bracket(a, b)
        return ExtElt._make(r.ambient, {k: -c if len(k[1]) % 2 else c for k, c in r.terms.items()})

    monkeypatch.setattr(polyvec, "schouten", odd_part_negated)
    report = polyvec.check_gerstenhaber(2, trials=50, seed=0)
    assert report.status == "fail"
    ce = report.counterexample
    assert list(ce) == ["identity", "a", "b", "c"]
    assert ce["identity"] == "jacobi"

    def jacobi_fails(a, b, c):
        s = odd_part_negated
        return s(a, s(b, c)) != s(s(a, b), c) + shifted_sign(a, b) * s(b, s(a, c))

    vs = ("x", "y")
    assert_shrunk(jacobi_fails, [parse_polyvector(ce[k], vs) for k in "abc"])


def test_bv_shrinks_a_one_input_failure(monkeypatch):
    d = polyvec.de_rham
    monkeypatch.setattr(polyvec, "de_rham", lambda w: -d(w))
    # at seed 1 the first failing input has four terms before shrinking
    report = polyvec.check_bv(2, trials=50, seed=1)
    assert report.status == "fail"
    ce = report.counterexample
    assert list(ce) == ["identity", "input"]
    assert ce["identity"] == "volume_intertwine"
    vs = ("x", "y")
    vols = [VolumeForm(vs, Fraction(density)) for density in report.details["densities"]]

    def intertwine_fails(v):
        return any(polyvec.vol_contract(vf, polyvec.bv_delta(vf, v))
                   != polyvec.de_rham(polyvec.vol_contract(vf, v)) for vf in vols)

    assert_shrunk(intertwine_fails, [parse_polyvector(ce["input"], vs)])


def test_bv_shrinks_a_generating_relation_failure(monkeypatch):
    bracket = polyvec.schouten
    monkeypatch.setattr(polyvec, "schouten", lambda a, b: -bracket(a, b))
    report = polyvec.check_bv(2, trials=50, seed=0)
    assert report.status == "fail"
    ce = report.counterexample
    assert list(ce) == ["identity", "a", "b"]
    assert ce["identity"] == "generating_relation"
    vs = ("x", "y")
    vol = VolumeForm(vs)

    def generating_fails(a, b):
        delta, w = polyvec.bv_delta, polyvec.wedge
        sign = 1 if a.degree() % 2 == 0 else -1
        deviation = delta(vol, w(a, b)) - w(delta(vol, a), b) - sign * w(a, delta(vol, b))
        return polyvec.schouten(a, b) != -sign * deviation

    assert_shrunk(generating_fails, [parse_polyvector(ce[k], vs) for k in "ab"])


def test_bracket_compat_shrinks_a_derivation_failure(monkeypatch):
    contract = polyvec.contract
    monkeypatch.setattr(polyvec, "contract", lambda s, a: contract(s, a) + a)
    vs = ("x", "y")
    alpha = polyvec.exact_form(parse_poly("x^3 + x*y^2", vs))
    report = polyvec.check_bracket_compat(alpha, trials=20, seed=0)
    assert report.status == "fail"
    ce = report.counterexample
    assert list(ce) == ["identity", "a", "b"]
    assert ce["identity"] == "derivation"

    def derivation_fails(a, b):
        s, d = polyvec.schouten, lambda e: polyvec.contract(alpha, e)
        sign = 1 if (a.degree() + 1) % 2 == 0 else -1
        return d(s(a, b)) != s(d(a), b) + sign * s(a, d(b))

    assert_shrunk(derivation_fails, [parse_polyvector(ce[k], vs) for k in "ab"])


def rank_two_ambient():
    return Ambient(("x", "y"), default_gens(2))


def test_coalgebra_shrinks_a_coassociativity_failure(monkeypatch):
    def unsigned(t, slot):
        return coalgebra.TensorElt._make(t.ambient, {
            key[:slot] + (a, b) + key[slot + 1:]: c
            for key, c in t.terms.items() for a, b, _ in coalgebra._split_terms(key[slot])})

    monkeypatch.setattr(coalgebra, "tensor_comultiply", unsigned)
    report = coalgebra.check_coalgebra(2, trials=50, seed=0)
    assert report.status == "fail"
    ce = report.counterexample
    assert list(ce) == ["identity", "a"]
    assert ce["identity"] == "coassociativity"

    def coassoc_fails(a):
        d = coalgebra.comultiply(a)
        return unsigned(d, 1) != unsigned(d, 2)

    assert_shrunk(coassoc_fails, [parse_elt(ce["a"], rank_two_ambient())])


def test_coalgebra_shrinks_a_counit_failure(monkeypatch):
    tensor_counit = coalgebra.tensor_counit
    monkeypatch.setattr(coalgebra, "tensor_counit", lambda t, slot: -tensor_counit(t, slot))
    report = coalgebra.check_coalgebra(2, trials=50, seed=0)
    assert report.status == "fail"
    ce = report.counterexample
    assert list(ce) == ["identity", "a"]
    assert ce["identity"] == "counit"

    def counit_fails(a):
        d = coalgebra.comultiply(a)
        return any(-tensor_counit(d, slot) != a for slot in (1, 2))

    assert_shrunk(counit_fails, [parse_elt(ce["a"], rank_two_ambient())])


def test_coalgebra_shrinks_an_antipode_failure(monkeypatch):
    monkeypatch.setattr(coalgebra, "antipode", lambda a: a)
    report = coalgebra.check_coalgebra(2, trials=50, seed=0)
    assert report.status == "fail"
    ce = report.counterexample
    assert list(ce) == ["identity", "a"]
    assert ce["identity"] == "antipode"
    amb = rank_two_ambient()

    def antipode_fails(a):
        d = coalgebra.comultiply(a)
        target = ExtElt.from_poly(amb, coalgebra.counit(a))
        return any(coalgebra.tensor_collapse(coalgebra.tensor_map(d, coalgebra.antipode, slot))
                   != target for slot in (1, 2))

    assert_shrunk(antipode_fails, [parse_elt(ce["a"], amb)])


def test_coalgebra_shrinks_a_chain_map_failure(monkeypatch):
    contract = coalgebra.contract
    monkeypatch.setattr(coalgebra, "contract", lambda s, a: -contract(s, a))
    report = coalgebra.check_coalgebra(2, trials=50, seed=0)
    assert report.status == "fail"
    ce = report.counterexample
    assert list(ce) == ["identity", "a", "section"]
    assert ce["identity"] == "chain_map"
    amb = rank_two_ambient()
    section = Section(amb, parse_section(ce["section"][1:-1], amb.vars))
    complex = KoszulComplex(section)

    def chain_map_fails(a):
        lhs = coalgebra.tensor_d_first(coalgebra.coaction(complex, a), section)
        return lhs != coalgebra.coaction(complex, coalgebra.contract(section, a))

    assert_shrunk(chain_map_fails, [parse_elt(ce["a"], amb)])


def test_coalgebra_shrinks_an_algebra_map_failure(monkeypatch):
    wedge = coalgebra.wedge
    monkeypatch.setattr(coalgebra, "wedge", lambda a, b: wedge(b, a))
    report = coalgebra.check_coalgebra(2, trials=50, seed=0)
    assert report.status == "fail"
    ce = report.counterexample
    assert list(ce) == ["identity", "a", "b"]
    assert ce["identity"] == "algebra_map"
    amb = rank_two_ambient()

    def algebra_map_fails(a, b):
        lhs = coalgebra.comultiply(coalgebra.wedge(a, b))
        return lhs != coalgebra.tensor_multiply(coalgebra.comultiply(a), coalgebra.comultiply(b))

    assert_shrunk(algebra_map_fails, [parse_elt(ce[k], amb) for k in "ab"])
