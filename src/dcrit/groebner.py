"""Groebner bases over Q in degrevlex order.

Buchberger's algorithm with the coprime-leading-term criterion, followed by
minimalization and full interreduction, so the returned basis is the reduced
monic Groebner basis: a canonical form, idempotent under recomputation.
This is the independent oracle for degree-zero cohomology (quotient ring
dimension) and for Milnor numbers.

Critical pairs wait in a heap keyed by the degrevlex key of their lcm,
computed once per pair.  Division (`normal_form`) reduces one term dict in
place and finds each leading term through a heap, building a single Poly at
the end.  A basis is worth computing once per ideal: `quotient_dimension`,
`cohomology.hilbert_table` and `symplectic.obstruction_theory` all accept a
precomputed GroebnerBasis, and the `crit` and `zero` commands compute one
and pass it to each of them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, product
from operator import add, le, sub
from typing import Iterable, Sequence, Union

from .poly import Exponents, Poly, _descending_key, degrevlex_key, gradient

#: Returned where a quotient ring has no finite vector-space dimension.
INFINITE = "infinite"


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(map(le, a, b))


def _exps_sub(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(sub, a, b))


def _exps_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def _with_leads(basis: Sequence[Poly]) -> list:
    """(leading term, term map) of each nonzero divisor, in list order."""
    return [(g.leading(), g.terms) for g in basis if not g.is_zero()]


def normal_form(p: Poly, basis: Union["GroebnerBasis", Sequence[Poly]]) -> Poly:
    """Remainder of full multivariate division of p by the basis.

    Each step takes the leading term of what is left and divides it by the
    first divisor, in list order, whose leading term divides it; terms no
    leading term divides move to the remainder.  The work is done in place
    on one term dict, with a heap of monomials to find the leading term.
    A GroebnerBasis brings its generators' leading terms along.
    """
    divisors = basis._divisors if isinstance(basis, GroebnerBasis) else _with_leads(basis)
    work = dict(p.terms)
    heap = [(_descending_key(e), e) for e in work]
    heapq.heapify(heap)
    remainder: dict[Exponents, Fraction] = {}
    while heap:
        exps = heapq.heappop(heap)[1]
        c = work.get(exps)
        if c is None:
            continue  # cancelled since it was pushed, or a duplicate entry
        for (ge, gc), gterms in divisors:
            if _divides(ge, exps):
                m = c / gc
                q = _exps_sub(exps, ge)
                for e, gcoef in gterms.items():
                    e = tuple(map(add, q, e))
                    old = work.get(e)
                    if old is None:
                        work[e] = -m * gcoef
                        heapq.heappush(heap, (_descending_key(e), e))
                    else:
                        new = old - m * gcoef
                        if new:
                            work[e] = new
                        else:
                            del work[e]  # the divisor's leading term cancels exps here
                break
        else:
            remainder[exps] = work.pop(exps)
    return Poly._make(p.vars, remainder)


def s_poly(f: Poly, g: Poly) -> Poly:
    fe, fc = f.leading()
    ge, gc = g.leading()
    lcm = _exps_lcm(fe, ge)
    mf = Poly.monomial(f.vars, _exps_sub(lcm, fe), Fraction(1) / fc)
    mg = Poly.monomial(g.vars, _exps_sub(lcm, ge), Fraction(1) / gc)
    return mf * f - mg * g


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced monic Groebner basis, sorted by ascending leading term.

    The generators' leading terms are found once, when the basis is made,
    and every normal form divides by them.
    """

    vars: tuple[str, ...]
    gens: tuple[Poly, ...]
    _divisors: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_divisors", _with_leads(self.gens))

    def normal_form(self, p: Poly) -> Poly:
        if p.vars != self.vars:
            raise ValueError("polynomial lives over different variables")
        return normal_form(p, self)

    def contains(self, p: Poly) -> bool:
        """Ideal membership: true when the normal form vanishes."""
        return self.normal_form(p).is_zero()

    def leading_exponents(self) -> list[Exponents]:
        return [g.leading()[0] for g in self.gens]

    def __str__(self) -> str:
        return "{" + ", ".join(str(g) for g in self.gens) + "}"


def buchberger(gens: Iterable[Poly]) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal the generators span."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least the ring (pass explicit zero polynomials)")
    vars = gens[0].vars
    for g in gens:
        if g.vars != vars:
            raise ValueError("generators live over different variables")
    basis = [g * (Fraction(1) / g.leading()[1]) for g in gens if not g.is_zero()]
    leads = [g.leading()[0] for g in basis]
    # pairs come off the heap smallest lcm first, which keeps intermediate
    # growth down; among equal lcms the newest pair comes off first
    order = count(0, -1)
    pairs = [(degrevlex_key(_exps_lcm(leads[i], leads[j])), next(order), i, j)
             for i in range(len(basis)) for j in range(i + 1, len(basis))]
    heapq.heapify(pairs)
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        fe, ge = leads[i], leads[j]
        if _exps_lcm(fe, ge) == tuple(a + b for a, b in zip(fe, ge)):
            continue  # coprime leading terms: s-polynomial reduces to zero
        r = normal_form(s_poly(basis[i], basis[j]), basis)
        if not r.is_zero():
            r = r * (Fraction(1) / r.leading()[1])
            basis.append(r)
            leads.append(r.leading()[0])
            last = len(basis) - 1
            for k in range(last):
                heapq.heappush(pairs, (degrevlex_key(_exps_lcm(leads[k], leads[last])),
                                       next(order), k, last))
    # minimalize: drop any generator whose leading term another one divides
    basis.sort(key=lambda g: degrevlex_key(g.leading()[0]))
    minimal: list[Poly] = []
    for g in basis:
        ge = g.leading()[0]
        if not any(_divides(h.leading()[0], ge) for h in minimal):
            minimal.append(g)
    # interreduce: fully reduce each generator against the others
    reduced = []
    for k, g in enumerate(minimal):
        rest = minimal[:k] + minimal[k + 1:]
        r = normal_form(g, rest)
        reduced.append(r * (Fraction(1) / r.leading()[1]))
    reduced.sort(key=lambda g: degrevlex_key(g.leading()[0]))
    return GroebnerBasis(vars, tuple(reduced))


def standard_monomials(gb: GroebnerBasis) -> list[Exponents] | None:
    """Monomials not divisible by any leading term; None if infinitely many.

    There are finitely many exactly when every variable has a pure power
    among the leading terms.  With no variables the quotient is Q itself.
    """
    if any(g.is_constant() for g in gb.gens):
        return []
    n = len(gb.vars)
    leads = gb.leading_exponents()
    caps = []
    for i in range(n):
        powers = [e[i] for e in leads
                  if e[i] > 0 and all(e[k] == 0 for k in range(n) if k != i)]
        if not powers:
            return None
        caps.append(min(powers))
    out = []
    for exps in product(*(range(c) for c in caps)):
        if not any(_divides(le, exps) for le in leads):
            out.append(exps)
    return sorted(out, key=degrevlex_key)


def quotient_dimension(arg: Union[GroebnerBasis, Iterable[Poly]]):
    """dim_Q of R/I as a vector space, or INFINITE."""
    gb = arg if isinstance(arg, GroebnerBasis) else buchberger(arg)
    monos = standard_monomials(gb)
    if monos is None:
        return INFINITE
    return len(monos)


def milnor_number(f: Poly):
    """dim_Q R/(all partials of f), or INFINITE for non-isolated critical loci."""
    return quotient_dimension(gradient(f))


def jacobian_ideal(f: Poly) -> GroebnerBasis:
    return buchberger(gradient(f))
