"""Cohomology of Koszul complexes, weight slice by weight slice.

For a quasi-homogeneous section, every differential preserves weighted
degree once each exterior generator is assigned the weight of its section
component, so the complex splits into finite slices, with dim H^p_w =
dim C^p_w - rank d_p - rank d_{p-1}; the dimensions are counted.  The
Hilbert numerator K(t) of the section's ideal gives ranks by two theorems,
and only the others are eliminated, exactly, on integer columns.  A section
is a regular sequence exactly when every rank comes from a theorem, and
then no slice is listed.  `is_regular_sequence` and `resolution_certificate`
read the table; `slice_cohomology` is given no theorem, so it lists and
eliminates every degree: it is the independent route the table is tested
against (in the tests, and in the `tautological_resolution` criterion of
`dcrit suite`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, combinations
from math import comb
from operator import sub
from typing import Mapping, Sequence

from .exterior import _contract
from .groebner import INFINITE
from .koszul import KoszulComplex, TautologicalKoszul
from .linalg import rank_rows
from .poly import (ANY_DEGREE, INHOMOGENEOUS, Poly, _integral, monomials_of_weight,
                   normalize_weights)


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


def _require_d_squared(c: KoszulComplex) -> None:
    """Refuse a complex whose differential does not square to zero."""
    if not c.d_squared:
        raise AssertionError(f"the differential of {c} does not square to zero")


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


def _settle(ranks: dict[int, list[int]], p: int, row: list[int], span: range,
            grade: int, source: str = "") -> None:
    """Record `row` as the ranks of d_p, or check it against those the grade gives."""
    given = ranks.setdefault(p, row)
    if given != row:
        i = next(i for i, (a, b) in enumerate(zip(row, given)) if a != b)
        raise AssertionError(f"d_{p} in weight {span[i]} has rank {row[i]}{source}, "
                             f"but grade {grade} gives {given[i]}")


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
    the differential squares to zero, so every caller first reads the
    complex's `d_squared`.
    """

    def __init__(self, c: KoszulComplex, ws: tuple[int, ...]):
        self.rank = c.rank
        self.ws = ws
        self.gd = generator_degrees(c, ws)
        self.components = [_integral(p.terms)[0] for p in c.section.components]
        self._monomials: dict[int, list] = {}

    def dimensions(self, p: int, top: int) -> list[int]:
        """dim C^p_w for w = 0, ..., top: the series of R shifted by the
        weight of each (-p)-element generator subset."""
        return _series(Counter(sum(self.gd[j] for j in subset)
                               for subset in combinations(range(self.rank), -p)), self.ws, top)

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

    def cohomology(self, top: int, h0: list[int] | None = None, grade: int = 0,
                   first: int = 0) -> dict[int, list[int]]:
        """dim H^p in weights first..top, by degree p: dim - rank(d out) - rank(d in).

        Two rank facts, when given, stand in for elimination, a whole row
        over the weights at a time: rank d_{-1} = dim C^0 - h0, with `h0`
        read off the Hilbert series of R/I, and rank d_p = dim C^p -
        rank d_{p-1} for p < -m + `grade`, grade I (depth sensitivity,
        Eisenbud, Thm 17.4: the complex is exact in its `grade` lowest
        degrees).  The other differentials are eliminated weight by weight,
        and so is d_{-m+grade-1}, whose pivots clear the next one's rows.  A
        rank given twice (d_{-1} when grade = m, d_{-m+grade-1} when also
        eliminated) must agree in every weight, or AssertionError names it.

        Ranking runs from the top wedge degree down, and the pivot columns of
        d_p clear the rows of d_{p+1} they index (Chen and Kerber's twist): a
        pivot row with leading column i lies in the image of d_p, so
        d_{p+1} d_p = 0 writes row i of d_{p+1} as a combination of later
        rows, and by descending induction no rank changes.
        """
        m = self.rank
        span = range(first, top + 1)
        dims = {p: self.dimensions(p, top)[first:] for p in range(-m, 1)}
        ranks: dict[int, list[int]] = {}
        for p in range(-m, -m + grade):
            ranks[p] = list(map(sub, dims[p], ranks[p - 1])) if p > -m else dims[p]
        if h0 is not None:
            _settle(ranks, -1, list(map(sub, dims[0], h0)), span, grade, " by K(t)")
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
            _settle(ranks, p, row, span, grade)
        for p in range(-m, 1):
            for q in (p, p - 1):
                if q in ranks:
                    dims[p] = list(map(sub, dims[p], ranks[q]))
        return dims


def slice_cohomology(c: KoszulComplex, weights, w: int) -> dict[int, int]:
    """Cohomology dimensions of one weight slice, every degree listed and eliminated."""
    slices = _Slices(c, normalize_weights(c.ambient.vars, weights))
    _require_d_squared(c)
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
    m (K = 0 for a unit ideal).  `_Slices.cohomology` takes the ranks they
    give and eliminates the rest.  A quasi-homogeneous section is a regular
    sequence exactly when g = m; then no slice is listed or ranked, and the
    two ranks of d_{-1} must agree in every weight, or AssertionError.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    ws = normalize_weights(c.ambient.vars, weights)
    slices = _Slices(c, ws)
    _require_d_squared(c)
    k = c.ideal.hilbert_numerator(ws)
    m = c.rank
    # grade I = n - dim R/I, the multiplicity of t = 1 as a root of K
    grade = next((j for j in range(m) if sum(v * comb(e, j) for e, v in k.items())), m)
    columns = slices.cohomology(cutoff, _series(k, ws, cutoff), grade)
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


@dataclass(frozen=True)
class RegularSequenceReport:
    """Vanishing of negative Koszul cohomology, certified up to a cutoff."""

    regular: bool
    cutoff: int
    first_failure: tuple[int, int] | None = None  # (degree, weight)

    def __bool__(self) -> bool:
        return self.regular


def is_regular_sequence(c: KoszulComplex, weights, cutoff: int) -> RegularSequenceReport:
    """Check H^p = 0 for all p < 0 in every weight up to the cutoff.

    Read off `hilbert_table`, so a regular section lists no slice.  The
    first failure is the first nonzero negative entry, weight by weight and
    then degree by degree; it is definitive.  An all-zero table certifies
    regularity only up to the cutoff, which the report records.
    """
    failure = _first_nonzero_negative(hilbert_table(c, weights, cutoff).rows)
    return RegularSequenceReport(failure is None, cutoff, failure)


@dataclass(frozen=True)
class ResolutionCertificate:
    """Evidence that a tautological complex resolves its base ring.

    Checks, weight by weight up to the cutoff, that negative-degree
    cohomology vanishes and that dim H^0 in weight w equals the number of
    base-ring monomials of weight w.  `table` is the Hilbert table the
    checks read; the tautological section is a regular sequence, so every
    rank of that table comes from a theorem, and the base-ring count checks
    them.  `first_mismatch` is the first H^0 mismatch, else the first
    nonzero negative entry in `is_regular_sequence`'s order.
    """

    ok: bool
    cutoff: int
    h0_matches: bool
    negatives_vanish: bool
    table: HilbertTable
    first_mismatch: dict | None = None


def resolution_certificate(taut: TautologicalKoszul, cutoff: int,
                           base_weights: Sequence[int] | None = None) -> ResolutionCertificate:
    base = taut.base_vars
    bws = normalize_weights(base, base_weights) if base_weights is not None else (1,) * len(base)
    # fiber coordinates get weight 1; they are the section, so the slicing
    # is automatically consistent
    ws = bws + (1,) * taut.rank
    table = hilbert_table(taut, ws, cutoff)
    mismatch = next(({"degree": 0, "weight": w, "expected": e, "got": table.rows[0][w]}
                     for w in range(cutoff + 1)
                     if (e := len(monomials_of_weight(bws, w))) != table.rows[0][w]), None)
    h0_matches = mismatch is None
    failure = _first_nonzero_negative(table.rows)
    if failure is not None and mismatch is None:
        p, w = failure
        mismatch = {"degree": p, "weight": w, "expected": 0, "got": table.rows[p][w]}
    return ResolutionCertificate(h0_matches and failure is None, cutoff,
                                 h0_matches, failure is None, table, mismatch)
