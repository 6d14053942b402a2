"""Wedge algebra, merge signs, and the contraction differential."""

from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from dcrit.checks import rand_mixed, rand_poly, rand_section
from dcrit.exterior import Ambient, ExtElt, Section, algebra_map, contract, merge_sign, wedge
from dcrit.parsing import parse_poly
from dcrit.poly import Poly

VS = ("x", "y")
AMB = Ambient(VS, ("e1", "e2", "e3"))


def gen(i):
    return ExtElt.generator(AMB, i)


def homogeneous_components(a):
    """a split by cohomological degree (wedge degree p lives in degree -p)."""
    buckets = {}
    for (exps, subset), c in a.terms.items():
        buckets.setdefault(-len(subset), {})[(exps, subset)] = c
    return {d: ExtElt(a.ambient, t) for d, t in buckets.items()}


def test_merge_sign():
    assert merge_sign((0,), (1,)) == (1, (0, 1))
    assert merge_sign((1,), (0,)) == (-1, (0, 1))
    assert merge_sign((), (0, 2)) == (1, (0, 2))
    assert merge_sign((0, 2), (1,)) == (-1, (0, 1, 2))
    assert merge_sign((0, 1), (1,)) == (0, ())  # overlap kills the term


def test_merge_sign_counts_inversions_on_every_pair_of_subsets():
    subsets = [s for r in range(6) for s in combinations(range(5), r)]
    for left in subsets:
        for right in subsets:
            inversions = sum(1 for i in left for j in right if i > j)
            expected = ((-1) ** inversions, tuple(sorted(left + right)))
            assert merge_sign(left, right) == (expected if not set(left) & set(right) else (0, ()))


def test_ambient_validation():
    with pytest.raises(ValueError):
        Ambient(VS, ("e1", "e1"))


def test_wedge_anticommutes_on_generators():
    assert gen(0) * gen(1) == -(gen(1) * gen(0))
    assert (gen(0) * gen(0)).terms == {}


def test_graded_commutativity():
    rng = Random(7)
    for _ in range(40):
        a = rand_mixed(rng, AMB, 2)
        b = rand_mixed(rng, AMB, 2)
        for p, ap in homogeneous_components(a).items():
            for q, bq in homogeneous_components(b).items():
                sign = -1 if (p * q) % 2 else 1
                assert ap * bq == sign * (bq * ap)


def test_wedge_associativity():
    rng = Random(8)
    for _ in range(30):
        a, b, c = (rand_mixed(rng, AMB, 2) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_poly_coefficients_multiply_through():
    x = parse_poly("x", VS)
    a = x * gen(0)
    assert a == gen(0) * x
    assert a.coefficient_poly((0,)) == x
    assert a.scalar_part() == Poly.zero(VS)


def test_contraction_signs_are_pinned():
    # rank 1, s = (x): contracting the generator yields minus the component
    amb1 = Ambient(("x",), ("e1",))
    s = Section(amb1, (parse_poly("x", ("x",)),))
    assert contract(s, ExtElt.generator(amb1, 0)) == ExtElt.from_poly(
        amb1, -parse_poly("x", ("x",)))
    # rank 2, s = (1, 0): d(e1 /\ e2) = -e2
    amb2 = Ambient(VS, ("e1", "e2"))
    s2 = Section(amb2, (Poly.one(VS), Poly.zero(VS)))
    e12 = ExtElt.generator(amb2, 0) * ExtElt.generator(amb2, 1)
    assert contract(s2, e12) == -ExtElt.generator(amb2, 1)


def test_contraction_is_an_odd_derivation():
    rng = Random(9)
    for _ in range(40):
        s = rand_section(rng, AMB, 2)
        a = rand_mixed(rng, AMB, 2)
        b = rand_mixed(rng, AMB, 2)
        for p, ap in homogeneous_components(a).items():
            sign = -1 if p % 2 else 1
            lhs = contract(s, ap * b)
            rhs = contract(s, ap) * b + sign * (ap * contract(s, b))
            assert lhs == rhs


def test_contraction_squares_to_zero():
    rng = Random(10)
    for _ in range(40):
        s = rand_section(rng, AMB, 2)
        a = rand_mixed(rng, AMB, 2)
        assert contract(s, contract(s, a)).terms == {}


def test_homogeneous_components_and_degree():
    a = gen(0) * gen(1) + gen(2) + ExtElt.one(AMB)
    comps = homogeneous_components(a)
    assert sorted(comps) == [-2, -1, 0]
    assert comps[-2] == gen(0) * gen(1)
    with pytest.raises(ValueError):  # a is not homogeneous
        a.degree()
    assert (gen(0) * gen(1)).degree() == -2
    assert ExtElt.zero(AMB).degree() == 0


def test_str_formats():
    x = parse_poly("x", VS)
    a = 2 * x * gen(0) * gen(1)
    assert str(a) == "2*x*e1/\\e2"
    assert str(ExtElt.zero(AMB)) == "0"
    assert str(ExtElt.one(AMB) + gen(0)) == "1 + e1"


def test_section_validation():
    with pytest.raises(ValueError):
        Section(AMB, (Poly.one(VS),))  # wrong arity
    with pytest.raises(ValueError):
        Section(AMB, (Poly.one(VS), Poly.one(("x",)), Poly.one(VS)))


def test_wedge_helper_matches_mul():
    rng = Random(11)
    a = rand_mixed(rng, AMB, 2)
    b = rand_mixed(rng, AMB, 2)
    assert wedge(a, b) == a * b


@pytest.mark.parametrize("seed", range(6))
def test_a_poly_operand_is_lifted_to_wedge_degree_zero(seed):
    # the parser meets a generator this way: Poly on either side of + - *
    rng = Random(seed)
    p = rand_poly(rng, VS, 2, 4) * Fraction(3, 2)  # Fractions, some of them integral
    e = rand_mixed(rng, AMB, 2)
    lift = ExtElt.from_poly(AMB, p)
    for got, want in [(p + e, lift + e), (p - e, lift - e), (e - p, e - lift),
                      (p * e, lift * e), (e * p, e * lift)]:
        assert isinstance(got, ExtElt)
        assert got == want
        assert {k: type(c) for k, c in got.terms.items()} == {k: type(c) for k, c in want.terms.items()}


# -- algebra maps: an R-algebra map is given by the images of the generators --

def test_identity_images_return_the_input():
    rng = Random(12)
    for _ in range(20):
        a = rand_mixed(rng, AMB, 2)
        assert algebra_map(a, AMB, [((j, 1),) for j in range(3)]) == a


def test_two_maps_composed_are_the_map_of_the_composed_images():
    # f sends the three generators into four, g sends those four back into three
    four = Ambient(VS, ("f1", "f2", "f3", "f4"))
    f = [((0, 1), (2, -1)), ((3, 1),), ((1, 2), (0, 1), (3, -1))]
    g = [((2, 1),), ((0, -1), (1, 1)), ((1, 3),), ((0, 1), (2, 1))]
    composed = [tuple((u, s * r) for t, s in image for u, r in g[t]) for image in f]
    rng = Random(13)
    for _ in range(20):
        a, b = rand_mixed(rng, AMB, 2), rand_mixed(rng, AMB, 2)
        once = algebra_map(a, AMB, composed)
        assert algebra_map(algebra_map(a, four, f), AMB, g) == once
        assert algebra_map(a * a, AMB, composed) == once * once
        # multiplicative on independent inputs, so fixed by 1 and the generators
        for target, table in ((four, f), (AMB, composed)):
            assert algebra_map(a * b, target, table) == (
                algebra_map(a, target, table) * algebra_map(b, target, table))


def test_a_generator_sent_to_nothing_removes_every_term_that_holds_it():
    rng = Random(14)
    images = [((0, 1),), (), ((2, 1),)]
    signed = [((2, -1),), (), ((2, 1), (0, 1))]
    for _ in range(20):
        a, b = rand_mixed(rng, AMB, 2), rand_mixed(rng, AMB, 2)
        kept = ExtElt(AMB, {k: c for k, c in a.terms.items() if 1 not in k[1]})
        assert algebra_map(a, AMB, images) == kept
        for table in (images, signed):
            assert algebra_map(a * b, AMB, table) == algebra_map(a, AMB, table) * algebra_map(b, AMB, table)


def test_algebra_map_signs_follow_the_wedge():
    # e1 -> e2, e2 -> e1 swaps the factors of e1/\e2, so one sign
    swap = [((1, 1),), ((0, 1),), ((2, 1),)]
    assert algebra_map(gen(0) * gen(1), AMB, swap) == -(gen(0) * gen(1))
    assert algebra_map(gen(0) * gen(1), AMB, [((0, 1), (1, 1)), ((0, 1), (1, 1)), ()]) == ExtElt.zero(AMB)


@pytest.mark.parametrize("target, images", [
    (Ambient(("x",), ("e1", "e2", "e3")), [((j, 1),) for j in range(3)]),
    (AMB, [((0, 1),), ((1, 1),)]),
    (AMB, [((0, 1),), ((1, 1),), ((3, 1),)]),
], ids=["other-variables", "too-few-images", "out-of-range"])
def test_algebra_map_rejects_tables_that_do_not_fit(target, images):
    with pytest.raises(ValueError):
        algebra_map(gen(0), target, images)
