"""The exterior coalgebra and its coaction on Koszul complexes.

The exterior algebra on m generators over R carries a comultiplication
sending a wedge monomial e_S to the signed sum of all two-block splits of
S, the counit picking the scalar part, and an antipode acting by (-1)^p on
wedge degree p.  Together with the wedge product these satisfy the Hopf
compatibilities checked in `check_coalgebra`.  The same splitting map is a
coaction of the bare coalgebra (zero differential) on every Koszul complex
with the same generators: contraction in the left slot commutes with it.

Tensors are stored over R: a term is (exponent vector, slot_1, ..., slot_k),
each slot a subset of the generators, with a rational coefficient, so
e_U (x) e_V with a polynomial coefficient never splits the polynomial
between the slots.  The identities apply one structure map to one slot:
`tensor_map`, `tensor_counit` and `tensor_comultiply` take the slot (1 or 2)
they act on.
"""

from __future__ import annotations

from itertools import combinations
from random import Random
from typing import Callable, Sequence

from .checks import CheckReport, _require_trials, counterexample, rand_mixed, rand_section
from .exterior import Ambient, ExtElt, Section, _contract, contract, merge_sign, wedge
from .koszul import KoszulComplex, default_gens
from .poly import Poly, Scalar, _Terms, exps_add, monomial_str

TensorKey = tuple  # (exponents, slot_1, ..., slot_k), each slot a tuple of generator indices


class TensorElt(_Terms):
    """Element of a tensor power of Lambda over the polynomial ring."""

    __slots__ = ()
    ambient = _Terms._ring  # the ring tag is the Ambient

    @staticmethod
    def _valid_key(ambient: Ambient, key) -> TensorKey:
        """Each slot is checked as the subset of an exterior term."""
        exps, *slots = key
        if not slots:
            raise ValueError("a tensor term needs at least one slot")
        return (tuple(exps),) + tuple(ExtElt._valid_key(ambient, (exps, s))[1] for s in slots)

    @classmethod
    def tensor(cls, a: ExtElt, b: ExtElt) -> "TensorElt":
        a._check(b)
        terms: dict[TensorKey, Scalar] = {}
        for (e1, s1), c1 in a.terms.items():
            for (e2, s2), c2 in b.terms.items():
                key = (exps_add(e1, e2), s1, s2)
                terms[key] = terms.get(key, 0) + c1 * c2
        return cls._make(a.ambient, terms)

    def _product(self, other: "TensorElt") -> "TensorElt":
        return tensor_multiply(self, other)

    @staticmethod
    def _sort_key(key: TensorKey) -> tuple:
        return (len(key[1]),) + key[1:] + (key[0],)

    def _factors(self, key: TensorKey) -> list[str]:
        slots = [("/\\".join(self.ambient.gens[j] for j in s) or "1") for s in key[1:]]
        mono = monomial_str(self.ambient.vars, key[0])
        return ([mono] if mono else []) + [" (x) ".join(slots)]


def _split_terms(subset: tuple[int, ...]):
    """Every two-block split (left, right) of a subset, with its merge sign."""
    for r in range(len(subset) + 1):
        for left in combinations(subset, r):
            right = tuple(j for j in subset if j not in left)
            sign, _ = merge_sign(left, right)
            yield left, right, sign


def comultiply(a: ExtElt) -> TensorElt:
    """Signed sum over all two-block splits of each wedge monomial."""
    return TensorElt._make(a.ambient, {(exps, left, right): sign * c
                                       for (exps, subset), c in a.terms.items()
                                       for left, right, sign in _split_terms(subset)})


def counit(a: ExtElt) -> Poly:
    """Projection onto wedge degree zero."""
    return a.scalar_part()


def antipode(a: ExtElt) -> ExtElt:
    """(-1)^p on wedge degree p; an algebra map because 2-cycles cancel."""
    return ExtElt._make(a.ambient, {(exps, subset): (c if len(subset) % 2 == 0 else -c)
                                    for (exps, subset), c in a.terms.items()})


def coaction(complex: KoszulComplex, a: ExtElt) -> TensorElt:
    """Coaction of the bare coalgebra on a Koszul complex element."""
    if a.ambient != complex.ambient:
        raise ValueError("element does not live on the complex")
    return comultiply(a)


def tensor_multiply(s: TensorElt, t: TensorElt) -> TensorElt:
    """Slotwise wedge with the sign rule (a (x) b)(c (x) d) = (-1)^(|b||c|) ac (x) bd."""
    s._check(t)
    terms: dict[TensorKey, Scalar] = {}
    for (e1, u1, v1), c1 in s.terms.items():
        for (e2, u2, v2), c2 in t.terms.items():
            cross = -1 if (len(v1) * len(u2)) % 2 else 1
            su, mu = merge_sign(u1, u2)
            if su == 0:
                continue
            sv, mv = merge_sign(v1, v2)
            if sv == 0:
                continue
            key = (exps_add(e1, e2), mu, mv)
            terms[key] = terms.get(key, 0) + cross * su * sv * c1 * c2
    return TensorElt._make(s.ambient, terms)


def tensor_flip(t: TensorElt) -> TensorElt:
    """Graded flip a (x) b -> (-1)^(|a||b|) b (x) a."""
    return TensorElt._make(t.ambient, {(exps, right, left): (-c if len(left) * len(right) % 2 else c)
                                       for (exps, left, right), c in t.terms.items()})


def tensor_collapse(t: TensorElt) -> ExtElt:
    """Multiply the two slots back together."""
    terms: dict = {}
    for (exps, left, right), c in t.terms.items():
        sign, merged = merge_sign(left, right)
        if sign:
            key = (exps, merged)
            terms[key] = terms.get(key, 0) + sign * c
    return ExtElt._make(t.ambient, terms)


def _check_slot(slot: int) -> None:
    if slot not in (1, 2):
        raise ValueError(f"slot must be 1 or 2, got {slot}")


def tensor_map(t: TensorElt, fn: Callable[[ExtElt], ExtElt], slot: int) -> TensorElt:
    """Apply an even R-linear map to slot 1 or 2 (no crossing signs arise)."""
    _check_slot(slot)
    terms: dict[TensorKey, Scalar] = {}
    for key, c in t.terms.items():
        image = fn(ExtElt._make(t.ambient, {(key[0], key[slot]): c}))
        for (iexps, isub), ic in image.terms.items():
            k = (iexps,) + key[1:slot] + (isub,) + key[slot + 1:]
            terms[k] = terms.get(k, 0) + ic
    return TensorElt._make(t.ambient, terms)


def tensor_counit(t: TensorElt, slot: int) -> ExtElt:
    """Apply the counit to slot 1 or 2 of a two-slot tensor, keeping the other slot."""
    _check_slot(slot)
    return ExtElt._make(t.ambient, {(exps, right if slot == 1 else left): c
                                    for (exps, left, right), c in t.terms.items()
                                    if not (left if slot == 1 else right)})


def tensor_comultiply(t: TensorElt, slot: int) -> TensorElt:
    """Comultiply slot 1 or 2 into two slots; comultiplication is even, so no extra signs."""
    _check_slot(slot)
    return TensorElt._make(t.ambient, {key[:slot] + (a, b) + key[slot + 1:]: sign * c
                                       for key, c in t.terms.items()
                                       for a, b, sign in _split_terms(key[slot])})


def tensor_d_first(t: TensorElt, section: Section) -> TensorElt:
    """(d otimes id) for the contraction differential; acts on the left slot."""
    if section.ambient != t.ambient:
        raise ValueError("section lives on a different ambient")
    return TensorElt._make(t.ambient, _contract([p.terms for p in section.components], t.terms))


def check_coalgebra(rank: int, trials: int = 200, seed: int = 0,
                    vars: Sequence[str] = ("x", "y"), max_deg: int = 2) -> CheckReport:
    """Coassociativity, counit, cocommutativity, antipode, compatibility.

    Runs on random (not necessarily homogeneous) elements, with random
    sections driving the chain-map probe; sections may have zero or
    inhomogeneous components, since the coaction does not care.
    """
    _require_trials(trials)
    if rank < 0:
        raise ValueError(f"rank must be nonnegative, got {rank}")
    vs = tuple(vars)
    amb = Ambient(vs, default_gens(rank))
    rng = Random(seed)
    ran = 0
    for _ in range(trials):
        ran += 1
        a = rand_mixed(rng, amb, max_deg)
        b = rand_mixed(rng, amb, max_deg)
        section = rand_section(rng, amb, max_deg)
        complex = KoszulComplex(section)

        def coassoc_fails(a):
            d = comultiply(a)
            return tensor_comultiply(d, 1) != tensor_comultiply(d, 2)

        def counit_fails(a):
            d = comultiply(a)
            return any(tensor_counit(d, slot) != a for slot in (1, 2))

        def cocomm_fails(a):
            d = comultiply(a)
            return tensor_flip(d) != d

        def antipode_fails(a):
            d = comultiply(a)
            target = ExtElt.from_poly(amb, counit(a))
            return any(tensor_collapse(tensor_map(d, antipode, slot)) != target
                       for slot in (1, 2))

        def algebra_map_fails(a, b):
            return comultiply(wedge(a, b)) != tensor_multiply(comultiply(a), comultiply(b))

        def chain_map_fails(a):
            lhs = tensor_d_first(coaction(complex, a), section)
            rhs = coaction(complex, contract(section, a))
            return lhs != rhs

        single = [("coassociativity", coassoc_fails), ("counit", counit_fails),
                  ("cocommutativity", cocomm_fails), ("antipode", antipode_fails),
                  ("chain_map", chain_map_fails)]
        for name, fails in single:
            if fails(a):
                ce = counterexample(name, fails, [a])
                if name == "chain_map":
                    ce["section"] = str(section)
                return CheckReport("coalgebra", "fail", ran, ce, {"rank": rank})
        if algebra_map_fails(a, b):
            return CheckReport("coalgebra", "fail", ran,
                               counterexample("algebra_map", algebra_map_fails, [a, b]),
                               {"rank": rank})
    return CheckReport("coalgebra", "pass", ran, None, {"rank": rank})
