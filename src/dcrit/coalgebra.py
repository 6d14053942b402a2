"""The exterior coalgebra and its coaction on Koszul complexes.

The self-intersection of the zero section of a bundle E is 0 x_E 0 = E[-1],
a group over the base under fiberwise addition.  Its functions are the
exterior algebra Lambda on the generators e_j of E^vee, and its structure
maps are pullbacks of algebra maps, each induced by a map of generators:
addition gives the comultiplication e_j -> e_j + e_j', the zero section the
counit e_j -> 0, and negation the antipode e_j -> -e_j.  So Lambda (x) Lambda
is the exterior algebra on two copies of the generators, the second copy
primed (Milnor and Moore's primitively generated Hopf algebra), and a tensor
of k slots is an `ExtElt` over `tensor_ambient(ambient, k)`: a polynomial
coefficient is never split between the slots, the tensor product is
`wedge`, and every map that `check_coalgebra` applies to one slot is an
`exterior.algebra_map` given by its table of generator images.  The same
comultiplication is a coaction of the bare coalgebra (zero differential) on
every Koszul complex with the same generators: contraction along the section
on the first copy commutes with it, which `check_coalgebra`'s chain-map
identity tests with `comultiply` itself.

Lambda is generated as an R-algebra by the e_j, so two R-linear
multiplicative maps out of it agree as soon as they agree on 1 and on every
e_j (Milnor and Moore, Ann. Math. 1965: Lambda is primitively generated).
Both sides of each coalgebra axiom are such composites, so `check_coalgebra`
decides the axioms on those m + 1 elements and samples only the identities
that the decision rests on or that generators cannot show.
"""

from __future__ import annotations

from functools import cache
from random import Random
from typing import Sequence

from .checks import CheckReport, _require_trials, rand_mixed, rand_section, run_identities
from .exterior import Ambient, ExtElt, Section, algebra_map, contract, wedge
from .koszul import default_gens
from .poly import Poly


@cache
def tensor_ambient(ambient: Ambient, k: int) -> Ambient:
    """k copies of the generators over the same ring; copy i (from 0) names each
    generator with i primes, so k = 1 gives the ambient itself.  One shared
    Ambient per (ambient, k)."""
    return Ambient(ambient.vars, tuple(g + "'" * i for i in range(k) for g in ambient.gens))


def _copy(m: int, i: int, sign: int = 1) -> list:
    """Images e_j -> sign * e_j of copy i, for m generators."""
    return [((i * m + j, sign),) for j in range(m)]


def _split(m: int, i: int) -> list:
    """Images e_j -> e_j of copy i + e_j of copy i + 1: comultiplication into copies i, i + 1."""
    return [((i * m + j, 1), ((i + 1) * m + j, 1)) for j in range(m)]


def comultiply(a: ExtElt) -> ExtElt:
    """The algebra map e_j -> e_j + e_j' into two copies of the generators."""
    return algebra_map(a, tensor_ambient(a.ambient, 2), _split(a.ambient.rank, 0))


def counit(a: ExtElt) -> Poly:
    """Projection onto wedge degree zero."""
    return a.scalar_part()


def antipode(a: ExtElt) -> ExtElt:
    """The algebra map e_j -> -e_j: (-1)^p on wedge degree p."""
    return algebra_map(a, a.ambient, _copy(a.ambient.rank, 0, -1))


def check_coalgebra(rank: int, trials: int = 200, seed: int = 0,
                    vars: Sequence[str] = ("x", "y"), max_deg: int = 2) -> CheckReport:
    """Coassociativity, counit, cocommutativity and antipode, decided; the
    chain map and the multiplicativity of `comultiply`, sampled.

    The four axioms compare composites of `algebra_map`, `comultiply` and
    `counit` (the scalar part), each R-linear and multiplicative, so running
    them on 1, e_1, ..., e_m before any trial decides them on every element,
    for any `trials`, including 0; a failure there is reported with 0 trials.
    Each trial then draws random (not necessarily homogeneous) elements a and
    b, for the multiplicativity comultiply(a * b) = comultiply(a) *
    comultiply(b) that the decision rests on, and a random section, along
    which the coaction of a is contracted in the chain-map identity; sections
    may have zero or inhomogeneous components, since the coaction does not
    care.
    """
    _require_trials(trials)
    if rank < 0:
        raise ValueError(f"rank must be nonnegative, got {rank}")
    vs = tuple(vars)
    amb = Ambient(vs, default_gens(rank))
    two, three = tensor_ambient(amb, 2), tensor_ambient(amb, 3)
    m = rank
    # image tables of the maps on two copies: (D x id) and (id x D) into three
    # copies; the counit, then the antipode, in slot 1 and in slot 2; the graded
    # flip; and the collapse (the product) back onto one copy
    coassociativity = (_split(m, 0) + _copy(m, 2), _copy(m, 0) + _split(m, 1))
    counits = ([()] * m + _copy(m, 0), _copy(m, 0) + [()] * m)
    antipodes = (_copy(m, 0, -1) + _copy(m, 1), _copy(m, 0) + _copy(m, 1, -1))
    flip = _copy(m, 1) + _copy(m, 0)
    collapse = _copy(m, 0) + _copy(m, 0)
    zero_section = (Poly.zero(vs),) * m
    rng = Random(seed)

    def coassoc_fails(a):
        d = comultiply(a)
        left, right = (algebra_map(d, three, images) for images in coassociativity)
        return left != right

    def counit_fails(a):
        d = comultiply(a)
        return any(algebra_map(d, amb, images) != a for images in counits)

    def cocomm_fails(a):
        d = comultiply(a)
        return algebra_map(d, two, flip) != d

    def antipode_fails(a):
        d = comultiply(a)
        target = ExtElt.from_poly(amb, counit(a))
        return any(algebra_map(algebra_map(d, two, images), amb, collapse) != target
                   for images in antipodes)

    def chain_map_fails(a, section):
        on_first = Section(two, section.components + zero_section)
        return contract(on_first, comultiply(a)) != comultiply(contract(section, a))

    def algebra_map_fails(a, b):
        return comultiply(wedge(a, b)) != wedge(comultiply(a), comultiply(b))

    def draws():
        while True:
            yield {"a": rand_mixed(rng, amb, max_deg), "b": rand_mixed(rng, amb, max_deg),
                   "section": rand_section(rng, amb, max_deg)}

    axioms = (("coassociativity", coassoc_fails, ("a",)), ("counit", counit_fails, ("a",)),
              ("cocommutativity", cocomm_fails, ("a",)), ("antipode", antipode_fails, ("a",)))
    generators = [ExtElt.one(amb)] + [ExtElt.generator(amb, j) for j in range(m)]
    details = {"rank": rank}
    decided = run_identities("coalgebra", m + 1, ({"a": g} for g in generators), axioms, details)
    if not decided.passed:
        decided.trials = 0  # no random trial ran
        return decided
    sampled = (("chain_map", chain_map_fails, ("a", "section")),
               ("algebra_map", algebra_map_fails, ("a", "b")))
    return run_identities("coalgebra", trials, draws(), sampled, details)
