"""The exterior coalgebra and its coaction on Koszul complexes.

A tensor of k slots is an exterior element on k copies of the generators,
so each slot map below is an `algebra_map` given by its image table.
"""

from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from dcrit import coalgebra, exterior
from dcrit.checks import rand_mixed, rand_section
from dcrit.coalgebra import antipode, check_coalgebra, comultiply, counit, tensor_ambient
from dcrit.exterior import Ambient, ExtElt, Section, algebra_map, contract, merge_sign, wedge
from dcrit.koszul import default_gens
from dcrit.parsing import parse_poly
from dcrit.poly import Poly

VS = ("x", "y")
AMB = Ambient(VS, ("e1", "e2"))
AMB2, AMB3 = tensor_ambient(AMB, 2), tensor_ambient(AMB, 3)
E1 = ExtElt.generator(AMB, 0)
E2 = ExtElt.generator(AMB, 1)


def P(src):
    return parse_poly(src, VS)


def copy(i, sign=1, m=2):
    """Images e_j -> sign * e_j of copy i."""
    return [((i * m + j, sign),) for j in range(m)]


def split(i, m=2):
    """Images e_j -> e_j of copy i + e_j of copy i + 1."""
    return [((i * m + j, 1), ((i + 1) * m + j, 1)) for j in range(m)]


NONE = [()] * 2
FLIP = copy(1) + copy(0)
COLLAPSE = copy(0) + copy(0)


def T(*slots):
    """slots[0] (x) slots[1] (x) ...: slot i moved onto copy i, then wedged."""
    target = tensor_ambient(AMB, len(slots))
    out = ExtElt.one(target)
    for i, a in enumerate(slots):
        out = wedge(out, algebra_map(a, target, copy(i)))
    return out


def split_terms(subset):
    """Every two-block split (left, right) of a subset, with its merge sign."""
    for r in range(len(subset) + 1):
        for left in combinations(subset, r):
            right = tuple(j for j in subset if j not in left)
            yield left, right, merge_sign(left, right)[0]


def test_comultiply_is_the_two_block_split_formula():
    # the reference: e_S -> sum over splits S = U + V of sign(U, V) e_U (x) e_V,
    # with e_U (x) e_V stored as e_U /\ e_V' under the key map V -> V + m
    rng = Random(30)
    for trial in range(200):
        m = trial % 5
        amb = Ambient(VS, default_gens(m))
        a = rand_mixed(rng, amb, 2)
        expected: dict = {}
        for (exps, subset), c in a.terms.items():
            for left, right, sign in split_terms(subset):
                key = (exps, left + tuple(j + m for j in right))
                expected[key] = expected.get(key, 0) + sign * c
        assert comultiply(a) == ExtElt(tensor_ambient(amb, 2), expected), (m, str(a))


def test_tensor_ambient_primes_each_copy():
    assert tensor_ambient(AMB, 1) == AMB
    assert AMB3.gens == ("e1", "e2", "e1'", "e2'", "e1''", "e2''")
    assert tensor_ambient(AMB, 0).rank == 0
    assert tensor_ambient(Ambient(VS, ()), 3).rank == 0


def test_generators_are_primitive():
    one = ExtElt.one(AMB)
    assert comultiply(E1) == T(one, E1) + T(E1, one)
    assert comultiply(E2) == T(one, E2) + T(E2, one)


def test_rank_one_comultiplications_coincide():
    # at rank 1 the split form and the primitive form are the same map
    amb = Ambient(("x",), ("e1",))
    e = ExtElt.generator(amb, 0)
    two = tensor_ambient(amb, 2)
    assert comultiply(e) == ExtElt.generator(two, 0) + ExtElt.generator(two, 1)
    x2 = parse_poly("x^2", ("x",))
    assert comultiply(ExtElt.from_poly(amb, x2)) == ExtElt.from_poly(two, x2)


def test_wedge_pair_comultiplies_with_signs():
    one = ExtElt.one(AMB)
    e12 = E1 * E2
    expected = T(one, e12) + T(E1, E2) - T(E2, E1) + T(e12, one)
    assert comultiply(e12) == expected


def test_counit_extracts_scalars():
    assert counit(3 * ExtElt.one(AMB) + E1) == P("3")
    assert counit(ExtElt.from_poly(AMB, P("x*y"))) == P("x*y")


def test_counit_axiom():
    rng = Random(31)
    for _ in range(30):
        a = rand_mixed(rng, AMB, 2)
        assert algebra_map(comultiply(a), AMB, NONE + copy(0)) == a


def test_counit_slots_recover_the_element():
    rng = Random(36)
    for _ in range(30):
        a = rand_mixed(rng, AMB, 2)
        for images in (NONE + copy(0), copy(0) + NONE):
            assert algebra_map(comultiply(a), AMB, images) == a


def test_comultiplying_a_slot_gives_three_slots():
    # (D x id)(D(e1/\e2)): the nine ways to share e1 and e2 among three slots
    one = ExtElt.one(AMB)
    expected = (T(one, one, E1 * E2) + T(one, E1, E2) + T(E1, one, E2) - T(one, E2, E1)
                - T(E2, one, E1) + T(one, E1 * E2, one) + T(E1, E2, one) - T(E2, E1, one)
                + T(E1 * E2, one, one))
    assert algebra_map(comultiply(E1 * E2), AMB3, split(0) + copy(2)) == expected
    assert len(expected.terms) == 9
    assert str(T(E1, one, E2)) == "e1/\\e2''"


@pytest.mark.parametrize("key", [((0, 0),), ((0,), (0,)), ((0, 0), (1, 0)),
                                 ((0, 0), (0, 0)), ((0, 0), (4,))],
                         ids=["no-slot", "short-exponents", "unsorted", "repeated", "out-of-range"])
def test_tensor_keys_are_checked_slot_by_slot(key):
    # a key of a two-slot tensor is an exterior key over both copies
    with pytest.raises(ValueError):
        ExtElt(AMB2, {key: 1})


def test_comultiply_prints_as_in_the_coalgebra_demo():
    assert str(comultiply(P("x") * E1 * E2)) == (
        "x*e1/\\e2 + x*e1/\\e2' - x*e2/\\e1' + x*e1'/\\e2'")


def test_two_slot_maps_reject_three_slot_tensors():
    t = algebra_map(comultiply(E1 * E2), AMB3, split(0) + copy(2))
    for apply in (lambda u: algebra_map(u, AMB, NONE + copy(0)),
                  lambda u: algebra_map(u, AMB2, FLIP),
                  lambda u: algebra_map(u, AMB, COLLAPSE),
                  lambda u: wedge(u, comultiply(E1))):
        with pytest.raises(ValueError):
            apply(t)


def test_antipode_is_parity():
    assert antipode(E1) == -E1
    assert antipode(E1 * E2) == E1 * E2
    assert antipode(ExtElt.one(AMB)) == ExtElt.one(AMB)


def test_hopf_law_samples():
    one = ExtElt.one(AMB)
    for a in (E1, E1 * E2, P("x") * E1 + 2 * one, E2 + E1 * E2):
        for images in (copy(0, -1) + copy(1), copy(0) + copy(1, -1)):
            melted = algebra_map(algebra_map(comultiply(a), AMB2, images), AMB, COLLAPSE)
            assert melted == ExtElt.from_poly(AMB, counit(a))


def test_graded_cocommutativity():
    rng = Random(32)
    for _ in range(30):
        a = rand_mixed(rng, AMB, 2)
        d = comultiply(a)
        assert algebra_map(d, AMB2, FLIP) == d


def test_coassociativity_samples():
    rng = Random(33)
    for _ in range(30):
        a = rand_mixed(rng, AMB, 2)
        d = comultiply(a)
        assert algebra_map(d, AMB3, split(0) + copy(2)) == algebra_map(d, AMB3, copy(0) + split(1))


def test_comultiply_is_an_algebra_map():
    rng = Random(34)
    for _ in range(25):
        a = rand_mixed(rng, AMB, 2)
        b = rand_mixed(rng, AMB, 2)
        assert comultiply(a * b) == comultiply(a) * comultiply(b)


def test_tensor_multiply_koszul_sign():
    # (1 x e1) * (e2 x 1) moves e2 past e1: one sign
    one = ExtElt.one(AMB)
    assert T(one, E1) * T(E2, one) == -T(E2, E1)
    assert T(E1, one) * T(one, E2) == T(E1, E2)


def test_coaction_is_a_chain_map():
    # the coaction on K(s) is comultiply; (d x id) is contraction along the
    # section (s, 0) of the two copies
    rng = Random(35)
    for _ in range(25):
        s = rand_section(rng, AMB, 2)
        a = rand_mixed(rng, AMB, 2)
        on_first = Section(AMB2, s.components + (Poly.zero(VS),) * 2)
        assert contract(on_first, comultiply(a)) == comultiply(contract(s, a))


def test_tensor_element_arithmetic():
    one = ExtElt.one(AMB)
    t = T(E1, one) + T(one, E1)
    assert t - t == ExtElt.zero(AMB2)
    assert Fraction(1, 2) * (t + t) == t
    assert str(T(E1, E2)) == "e1/\\e2'"


def test_identity_suite_all_ranks():
    for m in (0, 1, 2, 3, 4):
        report = check_coalgebra(m, trials=25 if m < 4 else 8, seed=3)
        assert report.passed, (m, report.counterexample)
    # the axioms are decided on 1 and the generators, so with no trial at all
    report = check_coalgebra(64, trials=0)
    assert report.passed and report.trials == 0


# -- the suite catches a broken sign rule or a broken comultiplication --

def test_a_dropped_merge_sign_fails_the_suite(monkeypatch):
    # at rank 1 an element has one generator, so the chain map holds and the
    # product of two coproducts, a wedge on two copies, shows the lost sign
    merge = exterior.merge_sign
    monkeypatch.setattr(exterior, "merge_sign", lambda u, v: (abs(merge(u, v)[0]), merge(u, v)[1]))
    for m in (1, 2, 3, 4):
        report = check_coalgebra(m, trials=20, seed=0)
        assert report.status == "fail"
        assert report.counterexample["identity"] == ("algebra_map" if m == 1 else "chain_map"), m


@pytest.mark.parametrize("second", [(), (-1,)], ids=["dropped", "negated"])
def test_a_broken_second_copy_fails_coassociativity(monkeypatch, second):
    def broken(a):
        m = a.ambient.rank
        images = [((j, 1),) + tuple((j + m, s) for s in second) for j in range(m)]
        return algebra_map(a, tensor_ambient(a.ambient, 2), images)

    monkeypatch.setattr(coalgebra, "comultiply", broken)
    for m in (1, 2, 3, 4):
        report = check_coalgebra(m, trials=20, seed=0)
        assert report.status == "fail"
        assert report.counterexample["identity"] == "coassociativity", m
    # the axioms are decided on 1 and the generators, before and without any trial
    for m in (8, 32):
        report = check_coalgebra(m, trials=0, seed=0)
        assert report.status == "fail" and report.trials == 0, m
        assert report.counterexample == {"identity": "coassociativity", "a": "e1"}, m
