"""Cohomology of Koszul complexes, weight slice by weight slice.

For a quasi-homogeneous section, every differential preserves weighted
degree once each exterior generator is assigned the weight of its section
component, so the complex splits into finite slices, with dim H^p_w =
dim C^p_w - rank d_p - rank d_{p-1}; the dimensions are counted.  The
Hilbert numerator K(t) of the section's ideal gives ranks by two theorems,
and only the others are eliminated, exactly, on integer columns: K's series
gives rank d_{-1}, and one recurrence gives the ranks of the g lowest degrees,

    rank d_p(w) = dim C^p_w - rank d_{p-1}(w + e),

with g the grade of I and e = 0 (depth sensitivity).  When the grade is
1 < m, the components share a factor f of weight e = -K'(1), and g is the
grade of the cofactor s' = s/f, read off K(t) too: K(f*s') is K(s') with
every generator e heavier and differential f*d'.  A section is a regular
sequence exactly when g = m with e = 0, and then no slice is listed; nor is
one for f*s' with s' regular.
`is_regular_sequence` computes the table and `resolution_certificate` is
handed one; each returns a `checks.CheckReport` whose counterexample names
the first entry that fails.  `slice_cohomology` is given no theorem, so it
lists and eliminates every degree: it is the independent route the table is
tested against (in the tests, and in the `tautological_resolution`
criterion of `dcrit suite`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, combinations, repeat
from math import comb
from operator import sub
from typing import Mapping, Sequence

from .checks import CheckReport
from .exterior import _contract
from .groebner import INFINITE
from .koszul import KoszulComplex, TautologicalKoszul
from .linalg import rank_rows
from .poly import ANY_DEGREE, INHOMOGENEOUS, Poly, _integral, monomials_of_weight, normalize_weights


class InhomogeneousSectionError(ValueError):
    """A section component mixes weighted degrees, so slicing is unavailable."""

    def __init__(self, component: int, polynomial: Poly):
        super().__init__(
            f"section component {component + 1} ({polynomial}) is not quasi-homogeneous "
            "for the given weights")
        self.component = component
        self.polynomial = polynomial


def generator_degrees(c: KoszulComplex, weights) -> tuple[int, ...]:
    """Weight of each exterior generator: that of its section component.

    Zero components put no constraint on their generator; they inherit the
    common weight of the nonzero components when there is one, else 1.
    """
    ws = normalize_weights(c.ambient.vars, weights)
    raw = []
    for j, p in enumerate(c.section.components):
        d = p.weighted_degree(ws)
        if d == INHOMOGENEOUS:
            raise InhomogeneousSectionError(j, p)
        raw.append(d)
    seen = {d for d in raw if d != ANY_DEGREE}
    default = seen.pop() if len(seen) == 1 else 1
    return tuple(default if d == ANY_DEGREE else d for d in raw)


def _series(k: Mapping[int, int], ws: Sequence[int], cutoff: int) -> list[int]:
    """Coefficients of K(t) / prod_i (1 - t^w_i) up to t^cutoff."""
    out = [0] * (cutoff + 1)
    for e, v in k.items():
        if e <= cutoff:
            out[e] += v
    for w in ws:  # out[i] += out[i - w]: a running sum over each residue class mod w
        for r in range(w):
            out[r::w] = accumulate(out[r::w])
    return out


def _grade(k: Mapping[int, int], m: int) -> int:
    """grade I = n - dim R/I, the multiplicity of t = 1 as a root of K(t), capped at m."""
    return next((j for j in range(m) if sum(v * comb(e, j) for e, v in k.items())), m)


def _settle(ranks: dict[int, list[int]], p: int, row: list[int], span: range,
            by: str, source: str = "") -> None:
    """Record `row` as the ranks of d_p, or check it against those `by` gives."""
    given = ranks.setdefault(p, row)
    if given != row:
        i = next(i for i, (a, b) in enumerate(zip(row, given)) if a != b)
        raise AssertionError(f"d_{p} in weight {span[i]} has rank {row[i]}{source}, "
                             f"but {by} gives {given[i]}")


class _Slices:
    """The weight slices of one Koszul complex, computed over the integers.

    Each section component j is multiplied by the least positive integer
    lambda_j that clears its denominators (`_integral`).  That conjugates
    every slice differential by the diagonal map e_S -> prod_{j in S}
    lambda_j * e_S, which changes no rank and no pivot column, so the
    clearing below stays exact; the slice columns come out of `_contract`
    as int dicts.  The monomials of each weight are listed once per object,
    and a basis only for a degree whose differential is eliminated, or its
    target; it must have the counted length.  Clearing is exact only when
    the differential squares to zero, so `of` first reads the complex's
    `d_squared`.
    """

    def __init__(self, components: Sequence[dict], ws: tuple[int, ...], gd: tuple[int, ...]):
        self.rank = len(gd)
        self.ws = ws
        self.gd = gd
        self.components = components
        self._monomials: dict[int, list] = {}

    @classmethod
    def of(cls, c: KoszulComplex, ws: tuple[int, ...]) -> "_Slices":
        """The slices of c in weights ws; refuses a differential that does not square to zero."""
        gd = generator_degrees(c, ws)
        if not c.d_squared:
            raise AssertionError(f"the differential of {c} does not square to zero")
        return cls([_integral(p.terms)[0] for p in c.section.components], ws, gd)

    def dimensions(self, top: int, first: int = 0) -> dict[int, list[int]]:
        """dim C^p_w for every degree p and w = first, ..., top: the series of
        R shifted by the weight of each (-p)-element generator subset."""
        return {p: _series(Counter(sum(self.gd[j] for j in subset)
                                   for subset in combinations(range(self.rank), -p)),
                           self.ws, top)[first:]
                for p in range(-self.rank, 1)}

    def basis(self, p: int, w: int, dim: int) -> list:
        """Basis of the weight-w part of degree p, whose counted dimension is `dim`."""
        out = []
        for subset in combinations(range(self.rank), -p):
            rem = w - sum(self.gd[j] for j in subset)
            if rem < 0:
                continue
            monos = self._monomials.get(rem)
            if monos is None:
                monos = self._monomials[rem] = monomials_of_weight(self.ws, rem)
            out.extend((exps, subset) for exps in monos)
        if len(out) != dim:
            raise AssertionError(f"C^{p} in weight {w} lists {len(out)} elements, "
                                 f"but the count gives {dim}")
        return out

    def cohomology(self, top: int, k: Mapping[int, int] | None = None,
                   first: int = 0) -> dict[int, list[int]]:
        """dim H^p in weights first..top, by degree p: dim - rank(d out) - rank(d in)."""
        dims, ranks = self.ranks(range(first, top + 1), k)
        zero = repeat(0)
        return {p: list(map(sub, map(sub, row, ranks.get(p, zero)), ranks.get(p - 1, zero)))
                for p, row in dims.items()}

    def ranks(self, span: range, k: Mapping[int, int] | None = None
              ) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
        """(dim C^p for every degree p, rank d_p for every p < 0), each a row
        over the weights of `span`.

        Two theorems, when K(t) is given as `k`, stand in for elimination, a
        whole row over the weights at a time: rank d_{-1} = dim C^0 - h0,
        with `h0` read off the Hilbert series of R/I; and

            rank d_p(w) = dim C^p_w - rank d_{p-1}(w + e)   for p < -m + g,

        where (g, e) is (grade I, 0), or, for a section of grade 1 < m, the
        grade of the cofactor s' = s/f and the weight of f (`_common_factor`).
        With e = 0 this is depth sensitivity (Eisenbud, Thm 17.4: K(s) is
        exact in its g lowest degrees).  Otherwise the differential of f*s'
        is f times that of s', each generator e heavier, and multiplication
        by f != 0 is injective on R, so rank d_p in weight w is rank d'_p in
        weight w + p*e; a (-p)-element generator subset weighs p*e less in
        K(s'), so dim C^p_w = dim C'^p_{w+pe}; and K(s') is exact in its g
        lowest degrees.  The recurrence reads weights up to the top one plus
        (m - 1)*e, so the dimensions are counted that far, once, and the
        rows cut back.  The other differentials are eliminated weight by
        weight, and so is d_{-m+g-1}, whose pivots clear the next one's
        rows.  A rank given twice (d_{-1}, and d_{-m+g-1} when also
        eliminated) must agree in every weight, or AssertionError names it.

        Ranking runs from the top wedge degree down, and the pivot columns of
        d_p clear the rows of d_{p+1} they index (Chen and Kerber's twist): a
        pivot row with leading column i lies in the image of d_p, so
        d_{p+1} d_p = 0 writes row i of d_{p+1} as a combination of later
        rows, and by descending induction no rank changes.
        """
        m = self.rank
        grade, e, h0 = 0, 0, None
        if k is not None:
            grade = _grade(k, m)
            if grade == 1 < m:
                e, grade = _common_factor(k, m)
            h0 = _series(k, self.ws, span.stop - 1)[span.start:]
        counted = self.dimensions(span.stop - 1 + (m - 1) * e, span.start)
        ranks: dict[int, list[int]] = {}
        for p in range(-m, -m + grade):
            ranks[p] = list(map(sub, counted[p], ranks[p - 1][e:])) if p > -m else counted[p]
        dims = {p: row[:len(span)] for p, row in counted.items()}
        ranks = {p: row[:len(span)] for p, row in ranks.items()}
        by = "the common factor" if e else f"grade {grade}"
        if h0 is not None:
            _settle(ranks, -1, list(map(sub, dims[0], h0)), span, by, " by K(t)")
        found = {p: [0] * len(span)
                 for p in range(max(-m, -m + grade - 1), 0 if h0 is None else -1)}
        for i, w in enumerate(span if found else ()):
            cleared: set[int] = set()
            target = None
            for p, row in found.items():
                source = self.basis(p, w, dims[p][i]) if target is None else target
                target = self.basis(p + 1, w, dims[p + 1][i])
                leads: set[int] = set()
                if source and target:
                    index = {key: j for j, key in enumerate(target)}
                    # contraction preserves the slice, so every image key has an index
                    cols = [{index[k]: v for k, v in _contract(self.components, {key: 1}).items()}
                            for j, key in enumerate(source) if j not in cleared]
                    row[i] = rank_rows(cols, leads)
                cleared = leads
        for p, row in found.items():
            _settle(ranks, p, row, span, by)
        return dims, ranks


def _common_factor(k: Mapping[int, int], m: int) -> tuple[int, int]:
    """(e, g) for a section s = f*s' of grade 1 < m with Hilbert numerator k:
    the weight e of f and the grade g of I' = (s'), read off K(t) alone.

    f, the gcd of the components, is never computed: R is a UFD, so its
    height-one primes are principal and I' has grade at least 2.  As
    I = f*I' is I'(-e), K_I = 1 - t^e + t^e K_I' with (1 - t)^2 dividing
    K_I', so e is minus the derivative of K_I at t = 1, and
    K_I' = (K_I - 1 + t^e) / t^e.  A K(t) that gives e <= 0, or a
    K_I - 1 + t^e that t^e does not divide, is no Hilbert numerator of
    such a section, and AssertionError says so.
    """
    e = -sum(d * v for d, v in k.items())
    if e <= 0:
        raise AssertionError(f"K(t) = {dict(k)} gives the common factor weight {e}")
    numerator = Counter(k)
    numerator[0] -= 1
    numerator[e] += 1
    terms = dict(sorted((d, v) for d, v in numerator.items() if v))
    if any(d < e for d in terms):
        raise AssertionError(f"K(t) - 1 + t^{e} = {terms} is not divisible by t^{e}")
    return e, _grade({d - e: v for d, v in terms.items()}, m)


def slice_cohomology(c: KoszulComplex, weights, w: int) -> dict[int, int]:
    """Cohomology dimensions of one weight slice, every degree listed and eliminated."""
    slices = _Slices.of(c, normalize_weights(c.ambient.vars, weights))
    rows = slices.cohomology(w, first=w) if w >= 0 else {p: [0] for p in range(-c.rank, 1)}
    return {p: row[0] for p, row in rows.items()}


@dataclass(frozen=True)
class HilbertTable:
    """Cohomology dimensions, weight by weight, up to a weight cutoff.

    rows[p][w] is dim H^p in weight w; row 0 is the Hilbert series of R/I,
    and for a regular section every negative row is 0.  complete[p] is True
    only when an independent oracle certifies that every weight above the
    cutoff contributes nothing; currently that exists for degree zero
    (finite Groebner quotient whose dimension the row already accounts for).
    """

    weights: tuple[int, ...]
    cutoff: int
    rows: Mapping[int, tuple[int, ...]]
    complete: Mapping[int, bool]

    def total(self, p: int) -> int:
        return sum(self.rows.get(p, ()))

    def degrees(self) -> list[int]:
        return sorted(self.rows)


def hilbert_table(c: KoszulComplex, weights, cutoff: int) -> HilbertTable:
    """Tabulate the cohomology of every weight slice up to the cutoff.

    The Hilbert numerator K(t) of the complex's `ideal` gives H^0, the series
    K(t) / prod_i (1 - t^w_i), and the grade g of I, the multiplicity of
    t = 1 as a root of K: the least j with sum_e k_e C(e, j) != 0, capped at
    m (K = 0 for a unit ideal).  `_Slices.ranks` takes the ranks they give,
    or those the common factor and its cofactor's grade give when
    g = 1 < m, and eliminates the rest.  A quasi-homogeneous section is a
    regular sequence exactly when g = m; then no slice is listed or ranked,
    and the two ranks of d_{-1} must agree in every weight, or
    AssertionError.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    ws = normalize_weights(c.ambient.vars, weights)
    columns = _Slices.of(c, ws).cohomology(cutoff, c.ideal.hilbert_numerator(ws))
    rows = {p: tuple(row) for p, row in columns.items()}
    qd = c.ideal.dimension
    complete = {p: p == 0 and qd != INFINITE and sum(rows[0]) == qd for p in rows}
    return HilbertTable(ws, cutoff, rows, complete)


def _first_nonzero_negative(rows: Mapping[int, Sequence[int]]) -> tuple[int, int] | None:
    """(degree, weight) of the first nonzero negative-degree entry, weight by
    weight and then degree by degree, or None."""
    first = min(((next(w for w, h in enumerate(row) if h), p)
                 for p, row in rows.items() if p < 0 and any(row)), default=None)
    return None if first is None else (first[1], first[0])


def is_regular_sequence(c: KoszulComplex, weights, cutoff: int) -> CheckReport:
    """Check H^p = 0 for all p < 0 in every weight up to the cutoff.

    Read off `hilbert_table`, so a regular section lists no slice.  A failure's
    counterexample is {"first_failure": (degree, weight)}, the first nonzero
    negative entry, weight by weight and then degree by degree; it is
    definitive.  A pass certifies regularity only up to the cutoff.
    """
    failure = _first_nonzero_negative(hilbert_table(c, weights, cutoff).rows)
    if failure is None:
        return CheckReport("regular_sequence", "pass", None)
    return CheckReport("regular_sequence", "fail", None, {"first_failure": failure})


def resolution_certificate(taut: TautologicalKoszul, table: HilbertTable) -> CheckReport:
    """Evidence, read off the complex's Hilbert table, that a tautological
    complex resolves its base ring.

    Checks, weight by weight up to the table's cutoff, that dim H^0 in weight
    w equals the number of base-ring monomials of weight w, in the base
    weights `table.weights` opens with, and that negative-degree cohomology
    vanishes.  The tautological section is a regular sequence, so every rank
    of the table comes from a theorem, and the base-ring count checks them.
    The counterexample is the first H^0 mismatch, else the first nonzero
    negative entry in `is_regular_sequence`'s order.
    """
    bws = table.weights[:len(taut.base_vars)]
    rows = table.rows
    mismatch = next(({"degree": 0, "weight": w, "expected": e, "got": rows[0][w]}
                     for w in range(table.cutoff + 1)
                     if (e := len(monomials_of_weight(bws, w))) != rows[0][w]), None)
    if mismatch is None and (failure := _first_nonzero_negative(rows)):
        p, w = failure
        mismatch = {"degree": p, "weight": w, "expected": 0, "got": rows[p][w]}
    return CheckReport("resolution_certificate", "pass" if mismatch is None else "fail",
                       None, mismatch)
