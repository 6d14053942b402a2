"""Koszul complexes of sections, and the tautological complex they come from.

For a rank-m free module over R = Q[vars] with a section s, the complex
lives on the exterior algebra of the dual basis (wedge degree p in
cohomological degree -p) with differential the contraction along s.  The
same construction applied over the total space Sym(dual), with the fiber
coordinates themselves as the section, gives the tautological complex;
substituting a concrete section for the fiber coordinates recovers the
usual Koszul complex on the nose, and `base_change_compare` checks that
entrywise, in a `checks.CheckReport` whose counterexample is the first
entry that differs.  So d∘d = 0 is decided once, by `check_d_squared`, on
the tautological section.

A complex computes three values on first use and keeps them: `ideal`, the
Groebner basis of its components; `jacobian`, the matrix of their partials;
and `d_squared`, the answer of `check_d_squared`.  Everything that reads
them from the same complex shares one computation.  The basis is also the
degree-zero cohomology R/I: the augmentation onto it is
`normal_form(p, ideal)`, and dim H^0 is `ideal.dimension`.  For a
potential f, the derived critical locus is the complex of df, so its ideal
is the Jacobian ideal and its Jacobian is the Hessian.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Sequence

from .checks import CheckReport
from .exterior import Ambient, ExtElt, Section, _contract, contract
from .groebner import GroebnerBasis, buchberger
from .poly import Poly


def default_gens(m: int) -> tuple[str, ...]:
    return tuple(f"e{j + 1}" for j in range(m))


class KoszulComplex:
    """The contraction differential on the exterior algebra of a section."""

    def __init__(self, section: Section):
        self.section = section
        self.ambient = section.ambient

    @property
    def rank(self) -> int:
        return self.ambient.rank

    @property
    def degrees(self) -> range:
        """Source degrees p for which the differential out of degree p is defined."""
        return range(-self.rank, 1)

    def basis(self, p: int) -> list[tuple[int, ...]]:
        """Wedge-monomial subsets spanning cohomological degree p over R."""
        if not -self.rank <= p <= 0:
            return []
        return list(combinations(range(self.rank), -p))

    def differential_matrix(self, p: int) -> list[list[Poly]]:
        """Matrix of d from degree p to p+1 (rows target, columns source): column j is
        `contract` of the j-th unit monomial, its coefficients as `contract` gives them."""
        if p not in self.degrees:
            raise ValueError(f"no differential out of degree {p}")
        source = self.basis(p)
        index = {s: i for i, s in enumerate(self.basis(p + 1))}
        vs = self.ambient.vars
        entries = [[{} for _ in source] for _ in index]
        for j, subset in enumerate(source):
            column = contract(self.section, ExtElt.monomial(self.ambient, (0,) * len(vs), subset))
            for (exps, t), c in column._num.items():
                entries[index[t]][j][exps] = c
            for row in entries:
                row[j] = Poly._make(vs, row[j], column._den)
        return entries

    @cached_property
    def ideal(self) -> GroebnerBasis:
        """Reduced Groebner basis of the ideal the components span.

        With no components it is the zero ideal of the ring, so R/I is R.
        """
        return buchberger(list(self.section.components) or [Poly.zero(self.ambient.vars)])

    @cached_property
    def jacobian(self) -> tuple[tuple[Poly, ...], ...]:
        """The matrix ds_i/dx_j of the section; the Hessian when s = df."""
        vs = self.ambient.vars
        return tuple(tuple(s.diff(v) for v in vs) for s in self.section.components)

    @cached_property
    def d_squared(self) -> bool:
        """What `check_d_squared` says of this complex."""
        return check_d_squared(self)

    def __str__(self) -> str:
        return f"Koszul complex of {self.section} (rank {self.rank})"


def build_koszul(vars: Sequence[str], components: Sequence[Poly]) -> KoszulComplex:
    """Koszul complex of the section with the given polynomial components,
    on generators e1, e2, ...; `KoszulComplex(Section(...))` names them."""
    comps = tuple(components)
    return KoszulComplex(Section(Ambient(tuple(vars), default_gens(len(comps))), comps))


class TautologicalKoszul(KoszulComplex):
    """Koszul complex over the total space, against the tautological section.

    Base ring Q[vars], fiber coordinates xi1..xim, one per generator, which
    must not be base variables; the section is
    the tuple of fiber coordinates, so each differential entry is linear in
    them.  Substituting an actual section for the fiber coordinates must
    reproduce the ordinary Koszul complex entry by entry.
    """

    def __init__(self, base_vars: Sequence[str], rank: int):
        base = tuple(base_vars)
        if rank < 1:
            raise ValueError("rank must be at least 1")
        fiber = tuple(f"xi{j + 1}" for j in range(rank))
        clash = set(base) & set(fiber)
        if clash:
            raise ValueError(f"fiber coordinate names collide with base variables: {sorted(clash)}")
        total = base + fiber
        ambient = Ambient(total, default_gens(rank))
        super().__init__(Section(ambient, tuple(Poly.variable(total, v) for v in fiber)))
        self.base_vars = base
        self.fiber_vars = fiber

    def specialize_entry(self, entry: Poly, components: Sequence[Poly]) -> Poly:
        """Substitute the given section for the fiber coordinates of one entry."""
        images = {v: comp for v, comp in zip(self.fiber_vars, components)}
        return entry.substitute(images, vars_out=components[0].vars if components else self.base_vars)


def build_tautological_koszul(vars: Sequence[str], rank: int) -> TautologicalKoszul:
    return TautologicalKoszul(vars, rank)


def base_change_compare(taut: TautologicalKoszul, components: Sequence[Poly]) -> CheckReport:
    """Compare the specialized tautological complex with the direct one.

    components: the section over the base ring.  Checks every matrix entry
    in every degree; the first mismatch fails the "base_change" report with
    a counterexample naming the degree, row, column, and both entries.
    """
    comps = tuple(components)
    if len(comps) != taut.rank:
        raise ValueError(f"expected {taut.rank} components, got {len(comps)}")
    for p in comps:
        if p.vars != taut.base_vars:
            raise ValueError("section components must live over the base variables")
    direct = build_koszul(taut.base_vars, comps)
    for p in taut.degrees:
        fancy_matrix = taut.differential_matrix(p)
        direct_matrix = direct.differential_matrix(p)
        for i, (frow, drow) in enumerate(zip(fancy_matrix, direct_matrix)):
            for j, (fe, de) in enumerate(zip(frow, drow)):
                specialized = taut.specialize_entry(fe, comps)
                if specialized != de:
                    return CheckReport("base_change", "fail", None, {
                        "degree": p, "row": i, "col": j,
                        "specialized": str(specialized), "direct": str(de),
                    })
    return CheckReport("base_change", "pass", None)


def check_d_squared(c: KoszulComplex) -> bool:
    """True when contracting twice gives zero on every wedge monomial e_S.

    Decided along the tautological section of rank `c.rank`, whose
    component j is one fresh variable xi_j.  Contraction is linear over
    the base ring and K(s) is the image of that complex under xi_j -> s_j,
    so this holds for every section of the rank; no zero component can hide
    a wrong sign, as one of s could.
    """
    m = c.rank
    taut = [{tuple(int(i == j) for i in range(m)): 1} for j in range(m)]
    zero = (0,) * m
    return not any(any(_contract(taut, _contract(taut, {(zero, subset): 1})).values())
                   for k in range(m + 1) for subset in combinations(range(m), k))
