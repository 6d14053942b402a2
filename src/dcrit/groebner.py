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
queued stay.  Pairs wait in a heap by lcm; each S-polynomial is built
straight into the int dict that the one reducer, which `normal_form`
shares, reduces in place, finding each leading term through a heap.  A
`KoszulComplex` computes the basis of its components once, as its `ideal`,
and every caller that needs one reads it there.

Monomials are packed (Monagan and Pearce, J. Symb. Comp. 2011): e_i fills
field i, W bits under a zero guard bit, of an int E, and a monomial of
degree d is the key E - d*2^(n(W+1)).  A product is then +, a quotient -,
a smaller key a larger monomial in degrevlex, and g divides e exactly when
no field of e - g borrows, (e - g) & guard == 0.  Degrevlex is degree-
compatible, so no term of a reduction is heavier than its pair's lcm: W
holds twice the input degrees, and every key is repacked wider before an
lcm that would not fit.  The GroebnerBasis keeps exponent vectors.

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

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from heapq import heapify, heappop, heappush
from itertools import chain, count, product
from math import comb, gcd, lcm
from operator import le, mul
from typing import Iterable, Union

from .poly import Exponents, Poly, _integral, _primitive, _shift, degrevlex_key

#: Returned where a quotient ring has no finite vector-space dimension.
INFINITE = "infinite"


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(map(le, a, b))


@cache  # one per (n, width): it holds only constants
class _Packing:
    """Monomials in n variables as int keys, `width` bits an exponent (see the module docstring)."""

    def __init__(self, n: int, width: int):
        self.width, self.top = width, n * (width + 1)
        self.shifts = range(0, self.top, width + 1)
        self.guard = sum(1 << (s + width) for s in self.shifts)
        self.units = [(1 << s) - (1 << self.top) for s in self.shifts]  # the keys of the variables

    def pack(self, exps: Exponents) -> int:
        return sum(map(mul, exps, self.units))

    def unpack(self, key: int) -> Exponents:
        field = (1 << self.width) - 1
        return tuple([key >> s & field for s in self.shifts])

    def lcm(self, a: int, b: int) -> int:
        """The key of lcm(a, b), for a and b of degree below 2^width."""
        mask = (1 << self.top) - 1
        a, b = a & mask, b & mask
        d = (a | self.guard) - b  # field i holds 2^W + a_i - b_i, its guard bit set where a_i >= b_i
        up = d & self.guard
        e = b + (d & (up - (up >> self.width)))  # max(a_i, b_i) in field i
        # the degree is below 2^(W+1) - 1, and casting out 2^(W+1) - 1 sums the fields
        return e - (e % ((2 << self.width) - 1) << self.top)


def _packing(n: int, degree: int) -> _Packing:
    """The packing for terms up to this degree, with room for lcms of twice it."""
    return _Packing(n, (2 * degree).bit_length())


def _map_monomials(divisors: list, f: Callable) -> list:
    """A divisor list of `_with_leads`' form with each monomial passed through f."""
    return [((f(ge), gc), {f(e): c for e, c in terms.items()}) for (ge, gc), terms in divisors]


def _with_leads(basis: Sequence[Poly], ring: _Packing) -> list:
    """((leading key, its coefficient), term map) of each nonzero divisor, in list
    order, as primitive integer polynomials on the ring's keys."""
    out = []
    for g in basis:
        if g.terms:
            terms = {ring.pack(e): c for e, c in _integral(g.terms)[0].items()}
            e = min(terms)  # the least key is the leading term
            terms = _primitive(terms, e)
            out.append(((e, terms[e]), terms))
    return out


def normal_form(p: Poly, basis: Union["GroebnerBasis", Sequence[Poly]]) -> Poly:
    """Remainder of full multivariate division of p by the basis.

    Each step takes the leading term of what is left and divides it by the
    first divisor, in list order, whose leading term divides it; terms no
    leading term divides move to the remainder.  A GroebnerBasis divides by
    its generators.  p and every divisor must live over the same variables,
    or ValueError.
    """
    if isinstance(basis, GroebnerBasis):
        same, basis = basis.vars == p.vars, basis.gens
    else:
        same = all(g.vars == p.vars for g in basis)
    if not same:
        raise ValueError("polynomial lives over different variables")
    # no term of the division is of higher degree than p or a leading term
    ring = _packing(len(p.vars), max(map(Poly.total_degree, [p, *basis])))
    work, d = _integral(p.terms)
    r, s = _reduce({ring.pack(e): c for e, c in work.items()}, _with_leads(basis, ring), ring.guard)
    return Poly._make(p.vars, {ring.unpack(e): c for e, c in r.items()}, d * s)


def _reduce(work: dict[int, int], divisors: list, guard: int) -> tuple[dict[int, int], int]:
    """Fraction-free division of an int term map by a divisor list, both on the
    keys of one `_Packing`, whose guard mask is `guard`.

    Returns (r, s) for a positive int s: r is s times the remainder that
    rational division of `work` leaves, with its terms in descending order.
    The work is done in place on `work`, with a heap of keys to find the
    leading term.  A term moved to the remainder is not scaled again; it
    keeps the scale it had then, and is brought up to the final one once.
    """
    heap = list(work)
    heapify(heap)
    scale = 1
    remainder: dict[int, tuple[int, int]] = {}  # term -> (coefficient, scale then)
    while heap:
        key = heappop(heap)
        c = work.get(key)
        if c is None:
            continue  # cancelled since it was pushed, or a duplicate entry
        for (ge, gc), gterms in divisors:
            q = key - ge
            if not q & guard:
                g = gcd(c, gc)
                if g != gc:
                    s = gc // g
                    scale *= s
                    for e in work:
                        work[e] *= s
                m = c // g
                for e, gcoef in gterms.items():
                    e += q
                    old = work.get(e)
                    if old is None:
                        work[e] = -m * gcoef
                        heappush(heap, e)
                    else:
                        new = old - m * gcoef
                        if new:
                            work[e] = new
                        else:
                            del work[e]  # the divisor's leading term cancels key here
                break
        else:
            remainder[key] = (work.pop(key), scale)
    return {e: c * (scale // s) for e, (c, s) in remainder.items()}, scale


def _s_poly(f, g, lcm_key: int) -> dict[int, int]:
    """The S-polynomial of two packed divisors, as a fresh int term map.

    With d = gcd(fc, gc) it is (gc/d)*x^(l - fe)*f - (fc/d)*x^(l - ge)*g,
    a positive multiple of the rational S-polynomial.
    """
    (fe, fc), fterms = f
    (ge, gc), gterms = g
    d = gcd(fc, gc)
    a, b = gc // d, fc // d
    qf, qg = lcm_key - fe, lcm_key - ge
    work = {qf + e: a * c for e, c in fterms.items()}
    for e, c in gterms.items():
        e += qg
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
    found once, when the basis is made, and the quotient reads them there;
    `buchberger` hands over the forms it already has as `_divisors`, on
    exponent vectors, which must then be what the constructor would find.

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
            ring = _packing(len(self.vars), max(map(Poly.total_degree, self.gens), default=0))
            object.__setattr__(self, "_divisors",
                               _map_monomials(_with_leads(self.gens, ring), ring.unpack))

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
        r, s = _integral(normal_form(Poly.monomial(self.vars, b), self).terms)
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
    ring = _packing(len(vars), max(map(Poly.total_degree, gens)))
    divisors: list = []  # the basis, as primitive integer polynomials on ring's keys
    leads: list[int] = []
    active: list[int] = []  # the generators whose leading term no later one divides
    pairs: list[tuple] = []
    # pairs come off the heap smallest lcm first, which keeps intermediate
    # growth down; among equal lcms the newest pair comes off first
    order = count(0, -1)

    def update(divisor) -> None:
        """Add a divisor with the pairs it needs, and drop the old pairs it makes redundant."""
        (he, _), _ = divisor
        h = len(leads)
        new = [(ring.lcm(leads[g], he), g) for g in active]
        # chain criterion: a new pair goes when another new pair's lcm divides
        # its lcm, and one of each equal lcm stays; a coprime pair counts here
        # and goes only after, since its S-polynomial reduces to zero
        chosen: list[tuple] = []
        for k, (m, g) in enumerate(new):
            if m == leads[g] + he:
                chosen.append((m, None))
            elif not any((m - q) & ring.guard == 0 for q, _ in chain(new[k + 1:], chosen)):
                chosen.append((m, g))
        # B-criterion: an old pair (i, j) goes when lt(h) divides its lcm m
        # and neither lcm(lt_i, lt_h) nor lcm(lt_j, lt_h) is m
        old = [p for p in pairs if (-p[0] - he) & ring.guard or ring.lcm(leads[p[2]], he) == -p[0]
               or ring.lcm(leads[p[3]], he) == -p[0]]
        if len(old) < len(pairs):
            pairs[:] = old
            heapify(pairs)
        for m, g in chosen:
            if g is not None:
                heappush(pairs, (-m, next(order), g, h))
        active[:] = [g for g in active if (leads[g] - he) & ring.guard] + [h]
        divisors.append(divisor)
        leads.append(he)

    for divisor in _with_leads(gens, ring):
        update(divisor)
    while pairs:
        degree = -(-pairs[0][0] >> ring.top)
        if degree >> ring.width:  # the next S-polynomial's terms would not fit: repack wider
            narrow, ring = ring, _packing(len(vars), degree)
            move = lambda k: ring.pack(narrow.unpack(k))
            divisors[:] = _map_monomials(divisors, move)
            leads[:] = [ge for (ge, _), _ in divisors]
            pairs[:] = [(-move(-p[0]), *p[1:]) for p in pairs]  # packing keeps the order
        key, _, i, j = heappop(pairs)
        r, _ = _reduce(_s_poly(divisors[i], divisors[j], -key), divisors, ring.guard)
        if r:
            re = next(iter(r))  # the remainder comes out in descending order
            r = _primitive(r, re)
            update(((re, r[re]), r))
    # minimalize: drop any generator whose leading term another one divides
    minimal: list[int] = []
    for k in sorted(range(len(leads)), key=leads.__getitem__, reverse=True):
        if all((leads[k] - leads[m]) & ring.guard for m in minimal):
            minimal.append(k)
    # interreduce: fully reduce each generator against the others; no other
    # leading term divides its own, so it stays first and the order by
    # leading term stays.  The basis keeps the primitive forms as its
    # divisors, each generator is made monic, and both go back to exponents.
    kept = [divisors[k] for k in minimal]
    reduced, primitive = [], []
    for pos, ((ge, _), terms) in enumerate(kept):
        r, _ = _reduce(dict(terms), kept[:pos] + kept[pos + 1:], ring.guard)
        r = {ring.unpack(e): c for e, c in _primitive(r, ge).items()}
        ge = next(iter(r))
        primitive.append(((ge, r[ge]), r))
        reduced.append(Poly._make(vars, dict(r), r[ge]))
    return GroebnerBasis(vars, tuple(reduced), _divisors=primitive)


def standard_monomials(gb: GroebnerBasis) -> list[Exponents] | None:
    """Monomials not divisible by any leading term, ascending; None if infinitely many."""
    monos = gb.monomials
    return None if monos is None else list(monos)
