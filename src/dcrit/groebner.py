"""Groebner bases over Q in degrevlex order, and the quotient rings they describe.

Buchberger's algorithm with Gebauer and Moller's pair criteria, followed by
minimalization and full interreduction, so the returned basis is the reduced
monic Groebner basis: a canonical form, idempotent under recomputation.
This is the independent oracle for degree-zero cohomology (quotient ring
dimension) and for Milnor numbers.

The work runs on primitive integer polynomials: term maps of Python ints
with content 1 and a positive leading coefficient, which span the same
ideal and have the same leading terms as the rational ones.  Division is
fraction-free: to cancel a term c by a divisor whose leading coefficient is
gc, the work is scaled by gc/gcd(c, gc) and (c/gcd(c, gc))*x^q*g is
subtracted, and the content comes off once, at the end.  Scaling by a
positive integer changes neither the ideal nor any leading term, so the
basis is the one rational arithmetic gives; it is made monic, with a
Fraction for each coefficient the leading one does not divide, only when
the GroebnerBasis is built, and a rational remainder is made only when
`normal_form` returns one.

Critical pairs are kept by Gebauer and Moller's update (Installation of
Buchberger's algorithm, J. Symb. Comp. 1988; the UPDATE procedure of Becker
and Weispfenning, Groebner Bases, 1993, section 5.5).  Each input generator,
and then each nonzero remainder h, is paired only with the active
generators, those whose leading term no later one divides.  Of those new
pairs the chain criterion keeps the ones whose lcm no other new pair's lcm
divides, one per equal lcm, and then drops the coprime ones, whose
S-polynomials reduce to zero.  The B-criterion drops an old pair (i, j)
when lt(h) divides its lcm m and neither lcm(lt_i, lt_h) nor lcm(lt_j, lt_h)
is m.  The generators lt(h) divides leave the active set; their pairs already
queued stay.  Pairs wait in a heap keyed by the degrevlex key of their lcm,
computed once per pair, and each S-polynomial is built straight into the
integer dict it is reduced in.  Division reduces that dict in place and
finds each leading term through a heap; one private reducer serves
`normal_form` and `buchberger`, which grows its (leading term, terms)
divisor list alongside the basis.  A basis is worth computing once per
ideal, so a `KoszulComplex` computes the basis of its components once, as
its `ideal`, and every caller that needs one reads it there.

A GroebnerBasis is also the description of R/I, as a vector space on its
standard monomials, filled as it is asked.  Counting lists nothing: the
Hilbert numerator K(t) of R/in(I), in any positive weights, comes from the
leading terms alone by Bayer and Stillman's recursion, and `dimension`,
dim R/I, is read off K.  The standard monomials are listed, once per basis,
only when they are asked for, as the multiplication matrices M_k (column s
holds NF(x_k*s)) are.  Those are built only when a normal form in R/I is
asked for, from the basis alone: a border monomial x_k*s is standard, or
the leading term of a reduced generator g (NF = lt(g) - g), or x_j*b' for
a smaller non-standard b' (NF = M_j NF(b'), FGLM's increasing-order rule).
After that every normal form in R/I is linear algebra on vectors of length
mu.  Those vectors are IntVectors, int numerators over one positive int
denominator, and `matrices`, `vector` and `multiples` hand them out as
they are.  One walk makes them all: NF(p*x^s) comes from NF(p*x^(s - e_k)),
x_k the first variable x^s holds, through M_k, and each value on the way
is kept.  `vector` walks from NF(1) over the memo the matrices seed with
the standard and border monomials; `multiples(p)` walks from NF(p), so it
is the map s -> NF(p*x^s), each value built only when it is asked for, and
a caller that needs few of them (`symplectic.obstruction_theory` skips
every multiple of a dependent column) builds few.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, count, product
from math import comb, gcd, lcm
from operator import add, le, mul, sub
from typing import Iterable, Union

from .poly import (Exponents, Poly, _descending_key, _integral, _primitive, _shift,
                   degrevlex_key)

#: Returned where a quotient ring has no finite vector-space dimension.
INFINITE = "infinite"


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(map(le, a, b))


def _exps_sub(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(sub, a, b))


def _exps_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def _with_leads(basis: Sequence[Poly]) -> list:
    """((leading term, its coefficient), term map) of each nonzero divisor, in list
    order, as primitive integer polynomials."""
    out = []
    for g in basis:
        if g.terms:
            e = g.leading()[0]
            terms = _primitive(_integral(g.terms)[0], e)
            out.append(((e, terms[e]), terms))
    return out


def normal_form(p: Poly, basis: Union["GroebnerBasis", Sequence[Poly]]) -> Poly:
    """Remainder of full multivariate division of p by the basis.

    Each step takes the leading term of what is left and divides it by the
    first divisor, in list order, whose leading term divides it; terms no
    leading term divides move to the remainder.  A GroebnerBasis brings its
    generators' leading terms along.  p and every divisor must live over the
    same variables, or ValueError.
    """
    if isinstance(basis, GroebnerBasis):
        same, divisors = basis.vars == p.vars, basis._divisors
    else:
        same, divisors = all(g.vars == p.vars for g in basis), _with_leads(basis)
    if not same:
        raise ValueError("polynomial lives over different variables")
    work, d = _integral(p.terms)
    r, s = _reduce(dict(work), divisors)  # _integral may hand back p.terms itself
    return Poly._make(p.vars, r, d * s)


def _reduce(work: dict[Exponents, int], divisors: list) -> tuple[dict[Exponents, int], int]:
    """Fraction-free division of an int term map by a list `_with_leads` makes.

    Returns (r, s) for a positive int s: r is s times the remainder that
    rational division of `work` leaves, with its terms in descending order.
    The work is done in place on `work`, with a heap of monomials to find
    the leading term.  A term moved to the remainder is not scaled again;
    it keeps the scale it had then, and is brought up to the final one once.
    """
    heap = [(_descending_key(e), e) for e in work]
    heapq.heapify(heap)
    scale = 1
    remainder: dict[Exponents, tuple[int, int]] = {}  # term -> (coefficient, scale then)
    while heap:
        exps = heapq.heappop(heap)[1]
        c = work.get(exps)
        if c is None:
            continue  # cancelled since it was pushed, or a duplicate entry
        for (ge, gc), gterms in divisors:
            if _divides(ge, exps):
                g = gcd(c, gc)
                if g != gc:
                    s = gc // g
                    scale *= s
                    for e in work:
                        work[e] *= s
                m = c // g
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
            remainder[exps] = (work.pop(exps), scale)
    return {e: c * (scale // s) for e, (c, s) in remainder.items()}, scale


def _s_poly(f, g, lcm_exps: Exponents) -> dict[Exponents, int]:
    """The S-polynomial of two divisors, as a fresh int term map.

    With d = gcd(fc, gc) it is (gc/d)*x^(l - fe)*f - (fc/d)*x^(l - ge)*g,
    a positive multiple of the rational S-polynomial.
    """
    (fe, fc), fterms = f
    (ge, gc), gterms = g
    d = gcd(fc, gc)
    a, b = gc // d, fc // d
    qf, qg = _exps_sub(lcm_exps, fe), _exps_sub(lcm_exps, ge)
    work = {tuple(map(add, qf, e)): a * c for e, c in fterms.items()}
    for e, c in gterms.items():
        e = tuple(map(add, qg, e))
        v = work.get(e, 0) - b * c
        if v:
            work[e] = v
        else:
            del work[e]  # the leading terms cancel
    return work


IntVector = tuple  # (standard-monomial index -> nonzero int numerator, positive int denominator)


def _vector(nums: dict[int, int], den: int) -> IntVector:
    """nums/den in lowest terms: the numerators and the denominator share no factor."""
    g = gcd(den, *nums.values())
    return (nums, den) if g == 1 else ({r: a // g for r, a in nums.items()}, den // g)


def _combine(parts: list, den: int = 1) -> IntVector:
    """The sum of c*v over the (int c, IntVector v) parts, divided by den."""
    common = lcm(*(v[1] for _, v in parts))
    out: dict[int, int] = {}
    for c, (nums, d) in parts:
        c *= common // d
        for r, a in nums.items():
            out[r] = out.get(r, 0) + c * a
    return _vector({r: a for r, a in out.items() if a}, den * common)


def _apply(columns: Sequence[IntVector], v: IntVector) -> IntVector:
    """The matrix with these sparse columns, applied to a sparse vector."""
    nums, den = v
    return _combine([(c, columns[t]) for t, c in nums.items()], den)


def ci_numerator(degrees: Iterable[int]) -> dict[int, int]:
    """prod_j (1 - t^d_j), the Hilbert numerator of a complete intersection
    of these degrees, as {exponent: nonzero coefficient}."""
    out = {0: 1}
    for d in degrees:
        times = dict(out)
        for e, c in out.items():
            times[e + d] = times.get(e + d, 0) - c
        out = {e: c for e, c in times.items() if c}
    return out


def _hilbert_numerator(gens: list[Exponents], ws: tuple[int, ...]) -> dict[int, int]:
    """K(t) of the monomial ideal J the gens span, in weights ws.

    The weighted Hilbert series of R/J is K(t) / prod_i (1 - t^w_i).  Once
    no minimal generator mixes two variables, the generators are pairwise
    coprime and K is the product of the 1 - t^w(g).  Otherwise the exact
    sequence 0 -> R/(J : p)(-w(p)) -> R/J -> R/(J + p) -> 0 gives Bayer and
    Stillman's recursion K(J) = K(J + p) + t^w(p) K(J : p), here with
    Bigatti's pivot p = x_i^k: x_i is the variable in the most mixed
    generators and k the median of its exponents there.  J + p has fewer
    mixed generators and J : p smaller exponents, so the recursion ends.
    On the leading ideals of Jacobians this pivot is 3-10 times faster than
    taking p to be a generator and removing one generator at a time.
    """
    minimal: list[Exponents] = []
    for e in sorted(set(gens), key=sum):
        if not any(_divides(g, e) for g in minimal):
            minimal.append(e)
    mixed = [g for g in minimal if sum(1 for a in g if a) > 1]
    if not mixed:
        return ci_numerator(sum(map(mul, g, ws)) for g in minimal)
    i = max(range(len(ws)), key=lambda i: sum(1 for g in mixed if g[i]))
    exps = sorted(g[i] for g in mixed if g[i])
    k = exps[len(exps) // 2]
    # a pure power x_i^a with a <= k would divide the median generator, so p is not in J
    out = _hilbert_numerator([g for g in minimal if g[i] < k] + [_shift((0,) * len(ws), i, k)], ws)
    shift = k * ws[i]
    for e, c in _hilbert_numerator([_shift(g, i, -min(g[i], k)) for g in minimal], ws).items():
        v = out.get(e + shift, 0) + c
        if v:
            out[e + shift] = v
        else:
            del out[e + shift]
    return out


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced monic Groebner basis, sorted by ascending leading term, and the
    quotient R/I it describes, as a Q-vector space on its standard monomials.

    The generators' leading terms, and their primitive integer forms, are
    found once, when the basis is made, and every normal form divides by
    them; `buchberger` hands over the forms it already has as `_divisors`,
    which must then be what `_with_leads(gens)` would give.

    A vector of R/I is an IntVector (nums, den): nums is a sparse dict from
    a standard monomial's position in `monomials` to a nonzero int
    numerator, den a positive int denominator, and the two share no factor.
    Each part of R/I is computed the first time it is asked for and kept:
    `dimension` and `monomials` need only the leading terms, and the
    matrices, with the normal forms built on them, are made only when a
    vector is asked for.  What `matrices`, `vector` and `multiples` hand
    out is shared: read it, do not change it.
    """

    vars: tuple[str, ...]
    gens: tuple[Poly, ...]
    _divisors: list | None = field(default=None, kw_only=True, repr=False, compare=False)
    _numerators: dict[tuple[int, ...], dict[int, int]] = field(
        init=False, default_factory=dict, repr=False, compare=False)
    _memo: dict[Exponents, IntVector] = field(  # NF(x^e) by e, seeded by `matrices`
        init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self._divisors is None:
            object.__setattr__(self, "_divisors", _with_leads(self.gens))

    def __str__(self) -> str:
        return "{" + ", ".join(str(g) for g in self.gens) + "}"

    @cached_property
    def _box(self) -> tuple[int, ...] | None:
        """Per variable, the least pure power of it among the leading terms;
        None when some variable has none, and R/I is infinite-dimensional.

        The constant of the unit ideal is a pure power of every variable.
        """
        leads = [ge for (ge, _), _ in self._divisors]
        caps = []
        for i in range(len(self.vars)):
            powers = [e[i] for e in leads if not any(e[:i]) and not any(e[i + 1:])]
            if not powers:
                return None
            caps.append(min(powers))
        return tuple(caps)

    def hilbert_numerator(self, weights: Sequence[int]) -> dict[int, int]:
        """K(t), as {exponent: nonzero coefficient}, with
        sum_w dim (R/in(I))_w t^w = K(t) / prod_i (1 - t^w_i) in the given
        positive weights; from the leading terms alone, kept per weights.

        When I is weighted-homogeneous in the same weights, so is its reduced
        basis, and R/I has the same Hilbert function as R/in(I).
        """
        ws = tuple(weights)
        k = self._numerators.get(ws)
        if k is None:
            leads = [ge for (ge, _), _ in self._divisors]
            k = self._numerators[ws] = _hilbert_numerator(leads, ws)
        return k

    @cached_property
    def dimension(self):
        """dim_Q R/I, or INFINITE, counted without listing a monomial.

        With unit weights and K = sum c_k t^e_k in n variables, a finite R/I
        has the polynomial Hilbert series K(t) / (1 - t)^n, whose value at 1
        is (-1)^n K^(n)(1) / n! = (-1)^n sum c_k C(e_k, n).
        """
        if self._box is None:
            return INFINITE
        n = len(self.vars)
        k = self.hilbert_numerator((1,) * n)
        return (-1) ** n * sum(c * comb(e, n) for e, c in k.items())

    @cached_property
    def monomials(self) -> tuple[Exponents, ...] | None:
        """Monomials no leading term divides, ascending; None if infinitely many.

        There are finitely many exactly when every variable has a pure power
        among the leading terms, and they all lie in the box those powers
        bound.  With no variables the quotient is Q itself.
        """
        box = self._box
        if box is None:
            return None
        leads = [ge for (ge, _), _ in self._divisors]
        out = [exps for exps in product(*map(range, box))
               if not any(_divides(le, exps) for le in leads)]
        return tuple(sorted(out, key=degrevlex_key))

    @cached_property
    def index(self) -> dict[Exponents, int]:
        """Position of each standard monomial; ValueError when there are infinitely many."""
        if self.monomials is None:
            raise ValueError("the quotient is infinite-dimensional: no finite basis")
        return {m: k for k, m in enumerate(self.monomials)}

    @cached_property
    def matrices(self) -> tuple[tuple[IntVector, ...], ...]:
        """M_k for each variable x_k, as columns: column s is the vector of NF(x_k*s).

        Border monomials x_k*s are taken in increasing order.  A standard one
        is a unit vector and a reduced generator's leading term reads its
        normal form off the generator.  Any other is x_j*b' for a border
        monomial b' below it that is not standard either, and then
        NF = M_j NF(b') uses only columns filled before it.
        """
        index = self.index
        monos = self.monomials
        n = len(self.vars)
        tails = {ge: (gc, terms) for (ge, gc), terms in self._divisors}
        border: dict[Exponents, list[tuple[int, int]]] = {}
        for col, s in enumerate(monos):
            for k in range(n):
                b = _shift(s, k, 1)
                border.setdefault(b, []).append((k, col))
        columns: list[list] = [[None] * len(monos) for _ in range(n)]
        memo = self._memo
        for b in sorted(border, key=degrevlex_key):
            memo[b] = v = self._border_vector(b, tails, memo, columns)
            for k, col in border[b]:
                columns[k][col] = v
        memo.update({m: ({k: 1}, 1) for m, k in index.items()})
        if not monos:
            memo[(0,) * n] = ({}, 1)  # the unit ideal: every normal form is zero
        return tuple(tuple(c) for c in columns)

    def _border_vector(self, b, tails, memo, columns) -> IntVector:
        index = self.index
        if b in index:
            return {index[b]: 1}, 1
        lead = tails.get(b)
        if lead is not None and all(e in index for e in lead[1] if e != b):
            gc, terms = lead
            return _vector({index[e]: -c for e, c in terms.items() if e != b}, gc)
        for j, a in enumerate(b):
            smaller = _shift(b, j, -1) if a else None
            if smaller in memo and smaller not in index:
                return _apply(columns[j], memo[smaller])
        # only a basis that is not reduced gets here: one reduction
        r, s = _reduce({b: 1}, self._divisors)
        return _vector({index[e]: c for e, c in r.items()}, s)

    def _walk(self, memo: dict[Exponents, IntVector], exps: Exponents) -> IntVector:
        """NF(q*x^exps), for the q whose values s -> NF(q*x^s) `memo` holds in part
        (q = 1 in `self._memo`): walk down by the first variable x_k each monomial
        holds until one is in memo, then apply M_k back up, keeping each step."""
        matrices = self.matrices
        path = []
        while exps not in memo:
            k = next(k for k, a in enumerate(exps) if a)
            path.append((exps, k))
            exps = _shift(exps, k, -1)
        v = memo[exps]
        for exps, k in reversed(path):
            memo[exps] = v = _apply(matrices[k], v)
        return v

    def vector(self, p: Poly) -> IntVector:
        """NF(p) in R/I as a vector."""
        if p.vars != self.vars:
            raise ValueError("polynomial lives over different variables")
        self.index  # raises on an infinite-dimensional quotient, even for p = 0
        work, d = _integral(p.terms)
        return _combine([(c, self._walk(self._memo, e)) for e, c in work.items()], d)

    def multiples(self, p: Poly) -> Callable[[Exponents], IntVector]:
        """Multiplication by p on R/I: the map s -> NF(p*x^s), keyed by exponent
        vector, each value built the first time it is asked for and kept.

        Every monomial s other than 1 is x_k times s/x_k, x_k the first variable
        it holds, and its value is M_k times that of s/x_k; a caller that asks
        for s only after s/x_k builds each value with one matrix-vector product.
        """
        return partial(self._walk, {(0,) * len(self.vars): self.vector(p)})


def buchberger(gens: Iterable[Poly]) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal the generators span.

    Pairs form only among the active generators, those whose leading term
    no later leading term divides; every generator still divides in each
    reduction, in list order.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least the ring (pass explicit zero polynomials)")
    vars = gens[0].vars
    for g in gens:
        if g.vars != vars:
            raise ValueError("generators live over different variables")
    divisors: list = []  # the basis, as primitive integer polynomials
    leads: list[Exponents] = []
    active: list[int] = []  # the generators whose leading term no later one divides
    pairs: list[tuple] = []
    # pairs come off the heap smallest lcm first, which keeps intermediate
    # growth down; among equal lcms the newest pair comes off first
    order = count(0, -1)

    def update(divisor) -> None:
        """Add a divisor with the pairs it needs, and drop the old pairs it makes redundant."""
        (he, _), _ = divisor
        h = len(leads)
        new = [(_exps_lcm(leads[g], he), g) for g in active]
        # chain criterion: a new pair goes when another new pair's lcm divides
        # its lcm, and one of each equal lcm stays; a coprime pair counts here
        # and goes only after, since its S-polynomial reduces to zero
        chosen: list[tuple] = []
        for k, (m, g) in enumerate(new):
            if m == tuple(map(add, leads[g], he)):
                chosen.append((m, None))
            elif not any(_divides(q, m) for q, _ in chain(new[k + 1:], chosen)):
                chosen.append((m, g))
        # B-criterion: an old pair (i, j) goes when lt(h) divides its lcm m
        # and neither lcm(lt_i, lt_h) nor lcm(lt_j, lt_h) is m
        old = [p for p in pairs if not (_divides(he, p[4]) and _exps_lcm(leads[p[2]], he) != p[4]
                                        and _exps_lcm(leads[p[3]], he) != p[4])]
        if len(old) < len(pairs):
            pairs[:] = old
            heapq.heapify(pairs)
        for m, g in chosen:
            if g is not None:
                heapq.heappush(pairs, (degrevlex_key(m), next(order), g, h, m))
        active[:] = [g for g in active if not _divides(he, leads[g])] + [h]
        divisors.append(divisor)
        leads.append(he)

    for divisor in _with_leads(gens):
        update(divisor)
    while pairs:
        _, _, i, j, m = heapq.heappop(pairs)
        r, _ = _reduce(_s_poly(divisors[i], divisors[j], m), divisors)
        if r:
            re = next(iter(r))  # the remainder comes out in descending order
            r = _primitive(r, re)
            update(((re, r[re]), r))
    # minimalize: drop any generator whose leading term another one divides
    minimal: list[int] = []
    for k in sorted(range(len(leads)), key=lambda k: degrevlex_key(leads[k])):
        if not any(_divides(leads[m], leads[k]) for m in minimal):
            minimal.append(k)
    # interreduce: fully reduce each generator against the others; no other
    # leading term divides its own, so it stays first and the order by
    # leading term stays.  The basis keeps the primitive forms as its
    # divisors, and each generator is made monic.
    kept = [divisors[k] for k in minimal]
    reduced, primitive = [], []
    for pos, ((ge, _), terms) in enumerate(kept):
        r, _ = _reduce(dict(terms), kept[:pos] + kept[pos + 1:])
        r = _primitive(r, ge)
        lc = r[ge]
        primitive.append(((ge, lc), r))
        reduced.append(Poly._make(vars, dict(r), lc))
    return GroebnerBasis(vars, tuple(reduced), _divisors=primitive)


def standard_monomials(gb: GroebnerBasis) -> list[Exponents] | None:
    """Monomials not divisible by any leading term, ascending; None if infinitely many."""
    monos = gb.monomials
    return None if monos is None else list(monos)
