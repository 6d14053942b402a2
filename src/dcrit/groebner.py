"""Groebner bases over Q in degrevlex order, and the quotient rings they describe.

Buchberger's algorithm with the coprime-leading-term criterion, followed by
minimalization and full interreduction, so the returned basis is the reduced
monic Groebner basis: a canonical form, idempotent under recomputation.
This is the independent oracle for degree-zero cohomology (quotient ring
dimension) and for Milnor numbers.

Critical pairs wait in a heap keyed by the degrevlex key of their lcm,
computed once per pair.  Division reduces one term dict in place and finds
each leading term through a heap, building a single Poly at the end; one
private reducer serves `normal_form` and `buchberger`, which grows its
(leading term, terms) divisor list alongside the basis.  A basis is worth
computing once per ideal: `quotient_dimension`, `cohomology.hilbert_table`
and `symplectic.obstruction_theory` all accept a precomputed GroebnerBasis,
and the `crit` and `zero` commands compute one and pass it to each of them.

Each GroebnerBasis carries one `Quotient`, the description of R/I as a
vector space on its standard monomials, filled as it is asked.  Counting
the standard monomials enumerates them once per basis.  The multiplication
matrices M_k (column s holds NF(x_k*s)) are built only when a normal form
in R/I is asked for, in `Quotient.matrices`, from the basis alone: a border
monomial x_k*s is standard, or the leading term of a reduced generator g
(NF = lt(g) - g), or x_j*b' for a smaller non-standard b' (NF = M_j NF(b'),
FGLM's increasing-order rule).  After that every normal form in R/I is
linear algebra on vectors of length mu, memoized per monomial.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
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
    leading term divides move to the remainder.  A GroebnerBasis brings its
    generators' leading terms along.
    """
    divisors = basis._divisors if isinstance(basis, GroebnerBasis) else _with_leads(basis)
    return _reduce(p, divisors)


def _reduce(p: Poly, divisors: list) -> Poly:
    """normal_form against a (leading term, term map) list, as `_with_leads` makes.

    The work is done in place on one term dict, with a heap of monomials to
    find the leading term.
    """
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


Vector = dict  # standard-monomial index -> nonzero coefficient


def _shift(exps: Exponents, k: int, d: int) -> Exponents:
    """exps with d added to the exponent of variable k."""
    return exps[:k] + (exps[k] + d,) + exps[k + 1:]


def _apply(columns: Sequence[Vector], v: Vector) -> Vector:
    """The matrix with these sparse columns, applied to a sparse vector."""
    out: Vector = {}
    for t, c in v.items():
        for r, a in columns[t].items():
            out[r] = out.get(r, 0) + c * a
    return {r: a for r, a in out.items() if a}


class Quotient:
    """R/I as a Q-vector space on the standard monomials of a Groebner basis.

    Vectors are sparse dicts from a standard monomial's position in
    `monomials` to its coefficient.  Each part is computed the first time it
    is asked for and kept: `monomials` needs only the leading terms, and
    `matrices`, with the normal forms built on them, is made only when a
    vector is asked for.  What it hands out is shared: read it, do not
    change it.
    """

    def __init__(self, vars: tuple[str, ...], divisors: list):
        self.vars = vars
        self._divisors = divisors  # the basis's (leading term, term map) pairs

    @cached_property
    def monomials(self) -> tuple[Exponents, ...] | None:
        """Monomials no leading term divides, ascending; None if infinitely many.

        There are finitely many exactly when every variable has a pure power
        among the leading terms.  With no variables the quotient is Q itself.
        """
        leads = [ge for (ge, _), _ in self._divisors]
        if any(not any(ge) for ge in leads):
            return ()  # a constant generator: the unit ideal
        n = len(self.vars)
        caps = []
        for i in range(n):
            powers = [e[i] for e in leads
                      if e[i] > 0 and all(e[k] == 0 for k in range(n) if k != i)]
            if not powers:
                return None
            caps.append(min(powers))
        out = [exps for exps in product(*(range(c) for c in caps))
               if not any(_divides(le, exps) for le in leads)]
        return tuple(sorted(out, key=degrevlex_key))

    @cached_property
    def index(self) -> dict[Exponents, int]:
        return {m: k for k, m in enumerate(self._finite_monomials())}

    def _finite_monomials(self) -> tuple[Exponents, ...]:
        if self.monomials is None:
            raise ValueError("the quotient is infinite-dimensional: no finite basis")
        return self.monomials

    @cached_property
    def matrices(self) -> tuple[tuple[Vector, ...], ...]:
        """M_k for each variable x_k, as columns: column s is the vector of NF(x_k*s).

        Border monomials x_k*s are taken in increasing order.  A standard one
        is a unit vector and a reduced generator's leading term reads its
        normal form off the generator.  Any other is x_j*b' for a border
        monomial b' below it that is not standard either, and then
        NF = M_j NF(b') uses only columns filled before it.
        """
        monos, index = self._finite_monomials(), self.index
        n = len(self.vars)
        tails = {ge: (gc, terms) for (ge, gc), terms in self._divisors}
        border: dict[Exponents, list[tuple[int, int]]] = {}
        for col, s in enumerate(monos):
            for k in range(n):
                b = _shift(s, k, 1)
                border.setdefault(b, []).append((k, col))
        columns: list[list] = [[None] * len(monos) for _ in range(n)]
        memo: dict[Exponents, Vector] = {}
        for b in sorted(border, key=degrevlex_key):
            memo[b] = v = self._border_vector(b, tails, memo, columns)
            for k, col in border[b]:
                columns[k][col] = v
        memo.update({m: {k: 1} for m, k in index.items()})
        if not monos:
            memo[(0,) * n] = {}  # the unit ideal: every normal form is zero
        self._memo = memo
        return tuple(tuple(c) for c in columns)

    def _border_vector(self, b, tails, memo, columns) -> Vector:
        index = self.index
        if b in index:
            return {index[b]: 1}
        lead = tails.get(b)
        if lead is not None and all(e in index for e in lead[1] if e != b):
            gc, terms = lead
            return {index[e]: -c / gc for e, c in terms.items() if e != b}
        for j, a in enumerate(b):
            smaller = _shift(b, j, -1) if a else None
            if smaller in memo and smaller not in index:
                return _apply(columns[j], memo[smaller])
        # only a basis that is not reduced gets here: one reduction
        nf = _reduce(Poly._make(self.vars, {b: Fraction(1)}), self._divisors)
        return {index[e]: c for e, c in nf.terms.items()}

    def _monomial_vector(self, exps: Exponents) -> Vector:
        """NF(x^exps) as a vector, memoized: M_k applied to NF(x^(exps - e_k))."""
        matrices = self.matrices
        memo = self._memo  # made along with the matrices
        path = []
        while exps not in memo:
            k = next(k for k, a in enumerate(exps) if a)
            path.append((exps, k))
            exps = _shift(exps, k, -1)
        v = memo[exps]
        for exps, k in reversed(path):
            memo[exps] = v = _apply(matrices[k], v)
        return v

    def vector(self, p: Poly) -> Vector:
        """NF(p) in R/I as a vector."""
        if p.vars != self.vars:
            raise ValueError("polynomial lives over different variables")
        out: Vector = {}
        for e, c in p.terms.items():
            for r, a in self._monomial_vector(e).items():
                out[r] = out.get(r, 0) + c * a
        return {r: a for r, a in out.items() if a}

    def multiplication_matrix(self, p: Poly) -> list[Vector]:
        """Multiplication by p on R/I, as columns: column s is the vector of NF(p*s).

        The column of the monomial 1 is NF(p); every other standard monomial
        s is x_k times a smaller standard monomial s', and its column is M_k
        times that of s'.
        """
        columns = [self.vector(p)]
        matrices, index = self.matrices, self.index
        for s in self._finite_monomials()[1:]:
            k = next(k for k, a in enumerate(s) if a)
            columns.append(_apply(matrices[k], columns[index[_shift(s, k, -1)]]))
        return columns[:len(index)]  # none at all for the unit ideal


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced monic Groebner basis, sorted by ascending leading term.

    The generators' leading terms are found once, when the basis is made,
    and every normal form divides by them.  `quotient()` is the one
    description of R/I this basis gives, shared by every caller.
    """

    vars: tuple[str, ...]
    gens: tuple[Poly, ...]
    _divisors: list = field(init=False, repr=False, compare=False)
    _quotient: Quotient = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_divisors", _with_leads(self.gens))
        object.__setattr__(self, "_quotient", Quotient(self.vars, self._divisors))

    def quotient(self) -> Quotient:
        return self._quotient

    def normal_form(self, p: Poly) -> Poly:
        if p.vars != self.vars:
            raise ValueError("polynomial lives over different variables")
        return normal_form(p, self)

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
    divisors = _with_leads(basis)  # grows with the basis
    leads = [ge for (ge, _), _ in divisors]
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
        r = _reduce(s_poly(basis[i], basis[j]), divisors)
        if not r.is_zero():
            re, rc = r.leading()
            r = r * (Fraction(1) / rc)
            basis.append(r)
            divisors.append(((re, Fraction(1)), r.terms))
            leads.append(re)
            last = len(basis) - 1
            for k in range(last):
                heapq.heappush(pairs, (degrevlex_key(_exps_lcm(leads[k], leads[last])),
                                       next(order), k, last))
    # minimalize: drop any generator whose leading term another one divides
    minimal: list[int] = []
    for k in sorted(range(len(basis)), key=lambda k: degrevlex_key(leads[k])):
        if not any(_divides(leads[m], leads[k]) for m in minimal):
            minimal.append(k)
    # interreduce: fully reduce each generator against the others; no other
    # leading term divides its own, so the order by leading term stays
    kept = [divisors[k] for k in minimal]
    reduced = []
    for pos, k in enumerate(minimal):
        r = _reduce(basis[k], kept[:pos] + kept[pos + 1:])
        reduced.append(r * (Fraction(1) / r.leading()[1]))
    return GroebnerBasis(vars, tuple(reduced))


def standard_monomials(gb: GroebnerBasis) -> list[Exponents] | None:
    """Monomials not divisible by any leading term, ascending; None if infinitely many."""
    monos = gb.quotient().monomials
    return None if monos is None else list(monos)


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
