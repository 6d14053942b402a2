"""The shrink path of the randomized identity suites.

Each test breaks one kernel so that exactly one identity fails, runs the
suite, and checks the reported counterexample: its keys, that the shrunk
inputs still fail, and that deleting any single term from them makes the
identity hold (or raise).  The identities are restated here so that the
reported strings, parsed back, are judged independently of the suite.
One test runs `counterexample` itself on a hand-made identity.
"""

from fractions import Fraction

from dcrit import cli, coalgebra, polyvec
from dcrit.checks import counterexample
from dcrit.exterior import Ambient, ExtElt, Section, algebra_map, merge_sign
from dcrit.koszul import default_gens
from dcrit.parsing import _Parser, parse_poly, parse_polyvector, parse_section
from dcrit.poly import Poly, exps_add
from dcrit.polyvec import VolumeForm

from test_cohomology import _sign_broken_contract


def parse_elt(src, ambient):
    return ExtElt.zero(ambient) + _Parser(src, ambient, {g: j for j, g in enumerate(ambient.gens)}).parse()


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
        return ExtElt(r.ambient, {k: -c if len(k[1]) % 2 else c for k, c in r.terms.items()})

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


def test_counterexample_passes_other_inputs_through_and_appends_a_witness():
    vs = ("x", "y")
    f = parse_poly("x^2 + y", vs)

    def fails(v, f):
        # fails while v has an @x term; the witness names the term count
        return {"terms": len(v.terms)} if any(s == (0,) for s in v.subsets()) else None

    v = parse_polyvector("x*@x + y*@y + @x/\\@y", vs)
    ce = counterexample("probe", fails, [v, f], ("v", "f"))
    assert ce == {"identity": "probe", "v": "x*@x", "f": "x^2 + y", "terms": 1}


def test_bv_fails_anticommutation_under_a_sign_broken_contraction(monkeypatch, capsys):
    # with the sign at position 1 of each subset flipped, contraction along df
    # no longer anticommutes with the divergence on 2-vectors
    def flipped(s, a):
        return ExtElt(a.ambient, _sign_broken_contract(1)([p.terms for p in s.components], a.terms))

    monkeypatch.setattr(polyvec, "contract", flipped)
    report = polyvec.check_bv(2, trials=30, seed=0)
    assert report.status == "fail"
    ce = report.counterexample
    assert list(ce) == ["identity", "input", "f"]
    assert ce["identity"] == "delta_d_alpha_anticommute"
    assert "delta_d_alpha_anticommute" not in report.details
    vs = ("x", "y")
    f = parse_poly(ce["f"], vs)
    vol = VolumeForm(vs)

    def anticommute_fails(v):
        alpha = polyvec.exact_form(f)
        delta = polyvec.bv_delta
        return not (delta(vol, flipped(alpha, v)) + flipped(alpha, delta(vol, v))).is_zero()

    assert_shrunk(anticommute_fails, [parse_polyvector(ce["input"], vs)])
    assert cli.main(["check", "bv", "--n", "2", "--trials", "30", "--expect-holds"]) == 1
    assert "identity = delta_d_alpha_anticommute" in capsys.readouterr().out


def test_bracket_compat_shrinks_a_random_scalar_probe_failure(monkeypatch):
    # a negated bracket vanishes on coordinate fields, so the sweep passes
    # and a random pair of vector fields finds the failure
    bracket = polyvec.schouten
    monkeypatch.setattr(polyvec, "schouten", lambda a, b: -bracket(a, b))
    vs = ("x", "y")
    alpha = polyvec.exact_form(parse_poly("x^2*y + y^3", vs))
    report = polyvec.check_bracket_compat(alpha, trials=20, seed=0)
    assert report.status == "fail" and report.trials > 1
    ce = report.counterexample
    assert list(ce) == ["identity", "X", "Y", "alpha_of_bracket", "probe_value", "discrepancy"]
    assert ce["identity"] == "scalar"
    X, Y = (parse_polyvector(ce[k], vs) for k in "XY")

    def sides(X, Y):
        lhs = polyvec.alpha_of_vector(alpha, -bracket(X, Y))
        rhs = (-polyvec.apply_vector(Y, polyvec.alpha_of_vector(alpha, X))
               + polyvec.apply_vector(X, polyvec.alpha_of_vector(alpha, Y)))
        return lhs, rhs

    lhs, rhs = sides(X, Y)
    assert [ce[k] for k in ("alpha_of_bracket", "probe_value", "discrepancy")] == [
        str(lhs), str(rhs), str(rhs - lhs)]
    assert_shrunk(lambda X, Y: sides(X, Y)[0] != sides(X, Y)[1], [X, Y])


def rank_two_ambient():
    return Ambient(("x", "y"), default_gens(2))


def copy_images(i, m=2):
    """Images e_j -> e_j of copy i."""
    return [((i * m + j, 1),) for j in range(m)]


def split_images(i, m=2):
    """Images e_j -> e_j of copy i + e_j of copy i + 1."""
    return [((i * m + j, 1), ((i + 1) * m + j, 1)) for j in range(m)]


def test_coalgebra_shrinks_a_coassociativity_failure(monkeypatch):
    amb = rank_two_ambient()
    two, three = coalgebra.tensor_ambient(amb, 2), coalgebra.tensor_ambient(amb, 3)

    def second_copy_negated(a):
        return algebra_map(a, two, [((j, 1), (j + 2, -1)) for j in range(2)])

    monkeypatch.setattr(coalgebra, "comultiply", second_copy_negated)
    report = coalgebra.check_coalgebra(2, trials=50, seed=0)
    assert report.status == "fail"
    ce = report.counterexample
    assert list(ce) == ["identity", "a"]
    assert ce["identity"] == "coassociativity"
    left, right = split_images(0) + copy_images(2), copy_images(0) + split_images(1)

    def coassoc_fails(a):
        d = second_copy_negated(a)
        return algebra_map(d, three, left) != algebra_map(d, three, right)

    assert_shrunk(coassoc_fails, [parse_elt(ce["a"], amb)])


def test_coalgebra_shrinks_a_counit_failure(monkeypatch):
    def negated_onto_fewer_copies(a, target, images):
        image = algebra_map(a, target, images)
        return -image if target.rank < a.ambient.rank else image

    monkeypatch.setattr(coalgebra, "algebra_map", negated_onto_fewer_copies)
    report = coalgebra.check_coalgebra(2, trials=50, seed=0)
    assert report.status == "fail"
    ce = report.counterexample
    assert list(ce) == ["identity", "a"]
    assert ce["identity"] == "counit"
    amb = rank_two_ambient()

    def counit_fails(a):
        d = coalgebra.comultiply(a)
        return any(-algebra_map(d, amb, images) != a
                   for images in ([()] * 2 + copy_images(0), copy_images(0) + [()] * 2))

    assert_shrunk(counit_fails, [parse_elt(ce["a"], amb)])


def test_coalgebra_shrinks_an_antipode_failure(monkeypatch):
    # with its sign dropped, the antipode in either slot is the identity
    copy = coalgebra._copy
    monkeypatch.setattr(coalgebra, "_copy", lambda m, i, sign=1: copy(m, i))
    report = coalgebra.check_coalgebra(2, trials=50, seed=0)
    assert report.status == "fail"
    ce = report.counterexample
    assert list(ce) == ["identity", "a"]
    assert ce["identity"] == "antipode"
    amb = rank_two_ambient()

    def antipode_fails(a):
        # the Hopf law with the identity in place of the antipode: collapse(D(a)) = counit(a)
        collapsed = algebra_map(coalgebra.comultiply(a), amb, copy_images(0) + copy_images(0))
        return collapsed != ExtElt.from_poly(amb, coalgebra.counit(a))

    assert_shrunk(antipode_fails, [parse_elt(ce["a"], amb)])


def test_coalgebra_shrinks_a_chain_map_failure(monkeypatch):
    # the contraction with the sign of each subset's second factor flipped
    def flipped(s, a):
        return ExtElt(a.ambient, _sign_broken_contract(1)([p.terms for p in s.components], a.terms))

    monkeypatch.setattr(coalgebra, "contract", flipped)
    report = coalgebra.check_coalgebra(2, trials=50, seed=0)
    assert report.status == "fail"
    ce = report.counterexample
    assert list(ce) == ["identity", "a", "section"]
    assert ce["identity"] == "chain_map"
    amb = rank_two_ambient()
    section = Section(amb, parse_section(ce["section"][1:-1], amb.vars))
    on_first = Section(coalgebra.tensor_ambient(amb, 2),
                       section.components + (Poly.zero(amb.vars),) * 2)

    def chain_map_fails(a):
        lhs = flipped(on_first, coalgebra.comultiply(a))
        return lhs != coalgebra.comultiply(flipped(section, a))

    assert_shrunk(chain_map_fails, [parse_elt(ce["a"], amb)])


def test_coalgebra_shrinks_an_algebra_map_failure(monkeypatch):
    def unsigned_wedge(a, b):
        """The wedge with every merge sign taken as +1."""
        terms: dict = {}
        for (e1, s1), c1 in a.terms.items():
            for (e2, s2), c2 in b.terms.items():
                sign, merged = merge_sign(s1, s2)
                if sign:
                    key = (exps_add(e1, e2), merged)
                    terms[key] = terms.get(key, 0) + c1 * c2
        return ExtElt(a.ambient, terms)

    monkeypatch.setattr(coalgebra, "wedge", unsigned_wedge)
    report = coalgebra.check_coalgebra(2, trials=50, seed=0)
    assert report.status == "fail"
    ce = report.counterexample
    assert list(ce) == ["identity", "a", "b"]
    assert ce["identity"] == "algebra_map"
    amb = rank_two_ambient()

    def algebra_map_fails(a, b):
        lhs = coalgebra.comultiply(unsigned_wedge(a, b))
        return lhs != unsigned_wedge(coalgebra.comultiply(a), coalgebra.comultiply(b))

    assert_shrunk(algebra_map_fails, [parse_elt(ce[k], amb) for k in "ab"])
