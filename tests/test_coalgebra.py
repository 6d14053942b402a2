"""The exterior coalgebra and its coaction on Koszul complexes."""

from fractions import Fraction
from random import Random

import pytest

from dcrit.checks import rand_mixed, rand_section
from dcrit.coalgebra import (TensorElt, antipode, check_coalgebra, coaction,
                             comultiply, counit, tensor_collapse, tensor_comultiply,
                             tensor_counit, tensor_d_first, tensor_flip, tensor_map,
                             tensor_multiply)
from dcrit.exterior import Ambient, ExtElt, contract
from dcrit.koszul import build_koszul
from dcrit.parsing import parse_poly

VS = ("x", "y")
AMB = Ambient(VS, ("e1", "e2"))
E1 = ExtElt.generator(AMB, 0)
E2 = ExtElt.generator(AMB, 1)


def P(src):
    return parse_poly(src, VS)


def T(a, b):
    return TensorElt.tensor(a, b)


def test_generators_are_primitive():
    one = ExtElt.one(AMB)
    assert comultiply(E1) == T(one, E1) + T(E1, one)
    assert comultiply(E2) == T(one, E2) + T(E2, one)


def test_rank_one_comultiplications_coincide():
    # at rank 1 the split form and the primitive form are the same map
    amb = Ambient(("x",), ("e1",))
    e = ExtElt.generator(amb, 0)
    one = ExtElt.one(amb)
    assert comultiply(e) == T(one, e) + T(e, one)
    assert comultiply(ExtElt.from_poly(amb, parse_poly("x^2", ("x",)))) == T(
        ExtElt.from_poly(amb, parse_poly("x^2", ("x",))), one)


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
        d = comultiply(a)
        left = tensor_collapse(tensor_map(d, lambda u: ExtElt.from_poly(
            AMB, counit(u)), 1))
        assert left == a


def test_counit_slots_recover_the_element():
    rng = Random(36)
    for _ in range(30):
        a = rand_mixed(rng, AMB, 2)
        for slot in (1, 2):
            assert tensor_counit(comultiply(a), slot) == a


def test_comultiplying_a_slot_gives_three_slots():
    zero = (0, 0)
    expected = TensorElt(AMB, {(zero, (), (), (0, 1)): 1, (zero, (), (0,), (1,)): 1,
                               (zero, (0,), (), (1,)): 1, (zero, (), (1,), (0,)): -1,
                               (zero, (1,), (), (0,)): -1, (zero, (), (0, 1), ()): 1,
                               (zero, (0,), (1,), ()): 1, (zero, (1,), (0,), ()): -1,
                               (zero, (0, 1), (), ()): 1})
    assert tensor_comultiply(comultiply(E1 * E2), 1) == expected
    assert str(TensorElt(AMB, {(zero, (0,), (), (1,)): 1})) == "e1 (x) 1 (x) e2"


@pytest.mark.parametrize("key", [((0, 0),), ((0,), (0,), ()), ((0, 0), (1, 0), ()),
                                 ((0, 0), (0,), (0, 0)), ((0, 0), (2,), ())],
                         ids=["no-slot", "short-exponents", "unsorted", "repeated", "out-of-range"])
def test_tensor_keys_are_checked_slot_by_slot(key):
    with pytest.raises(ValueError):
        TensorElt(AMB, {key: 1})


def test_comultiply_prints_as_in_the_coalgebra_demo():
    assert str(comultiply(P("x") * E1 * E2)) == (
        "x*1 (x) e1/\\e2 + x*e1 (x) e2 - x*e2 (x) e1 + x*e1/\\e2 (x) 1")


@pytest.mark.parametrize("slot", [0, 3])
def test_slot_maps_take_slot_one_or_two(slot):
    d = comultiply(E1 * E2)
    with pytest.raises(ValueError):
        tensor_map(d, antipode, slot)
    with pytest.raises(ValueError):
        tensor_counit(d, slot)
    with pytest.raises(ValueError):
        tensor_comultiply(d, slot)


def test_two_slot_maps_reject_three_slot_tensors():
    t = tensor_comultiply(comultiply(E1 * E2), 1)
    for apply in (lambda u: tensor_counit(u, 1), tensor_flip, tensor_collapse,
                  lambda u: tensor_multiply(u, u)):
        with pytest.raises(ValueError):
            apply(t)


def test_antipode_is_parity():
    assert antipode(E1) == -E1
    assert antipode(E1 * E2) == E1 * E2
    assert antipode(ExtElt.one(AMB)) == ExtElt.one(AMB)


def test_hopf_law_samples():
    one = ExtElt.one(AMB)
    for a in (E1, E1 * E2, P("x") * E1 + 2 * one, E2 + E1 * E2):
        d = comultiply(a)
        melted = tensor_collapse(tensor_map(d, antipode, 1))
        assert melted == ExtElt.from_poly(AMB, counit(a))


def test_graded_cocommutativity():
    rng = Random(32)
    for _ in range(30):
        a = rand_mixed(rng, AMB, 2)
        d = comultiply(a)
        assert tensor_flip(d) == d


def test_coassociativity_samples():
    rng = Random(33)
    for _ in range(30):
        a = rand_mixed(rng, AMB, 2)
        d = comultiply(a)
        assert tensor_comultiply(d, 1) == tensor_comultiply(d, 2)


def test_comultiply_is_an_algebra_map():
    rng = Random(34)
    for _ in range(25):
        a = rand_mixed(rng, AMB, 2)
        b = rand_mixed(rng, AMB, 2)
        assert comultiply(a * b) == tensor_multiply(comultiply(a), comultiply(b))


def test_tensor_multiply_koszul_sign():
    # (1 x e1) * (e2 x 1) moves e2 past e1: one sign
    one = ExtElt.one(AMB)
    assert tensor_multiply(T(one, E1), T(E2, one)) == -T(E2, E1)
    assert tensor_multiply(T(E1, one), T(one, E2)) == T(E1, E2)


def test_coaction_is_a_chain_map():
    rng = Random(35)
    for _ in range(25):
        s = rand_section(rng, AMB, 2)
        K = build_koszul(VS, list(s.components))
        a = rand_mixed(rng, AMB, 2)
        lhs = tensor_d_first(coaction(K, a), s)
        rhs = coaction(K, contract(s, a))
        assert lhs == rhs


def test_coaction_rejects_foreign_elements():
    K = build_koszul(VS, [P("x"), P("y")])
    other = Ambient(VS, ("f1", "f2"))
    with pytest.raises(ValueError):
        coaction(K, ExtElt.generator(other, 0))


def test_tensor_element_arithmetic():
    one = ExtElt.one(AMB)
    t = T(E1, one) + T(one, E1)
    assert t - t == TensorElt.zero(AMB)
    assert Fraction(1, 2) * (t + t) == t
    assert str(T(E1, E2)) == "e1 (x) e2"


def test_identity_suite_all_ranks():
    for m in (1, 2, 3):
        report = check_coalgebra(m, trials=25, seed=3)
        assert report.passed, (m, report.counterexample)
