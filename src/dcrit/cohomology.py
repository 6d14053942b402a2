"""Cohomology of Koszul complexes: a closed form where theory gives one,
finite weight slices where it does not.

For a quasi-homogeneous section, every differential preserves weighted
degree once each exterior generator is assigned the weight of its section
component, so the complex splits into finite-dimensional slices.  The
Groebner basis of the section's ideal gives the Hilbert numerator K(t) of
R/I from its leading terms.  When K(t) = prod_j (1 - t^d_j), the section is
a regular sequence (Stanley), its Koszul complex resolves R/I, and the whole
table is read off K: no slice is built.  Every other section is sliced, and
K gives two ranks there too.  Rank d_{-1} is dim R_w - dim (R/I)_w, so the
degree-zero row is K's series, as on the closed-form path.  The grade g of
I, the multiplicity of t = 1 as a root of K, makes the complex exact in its
g lowest degrees (depth sensitivity), so their ranks follow from the
dimensions.  Only the other ranks are eliminated, exactly, on integer
columns, and so is the highest rank the grade gives, which must agree with
it.  `is_regular_sequence` and `resolution_certificate` read the table;
`slice_cohomology` always slices and eliminates every degree, and is the
independent route the table is tested against (in the tests, and in the
`tautological_resolution` criterion of `dcrit suite`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Mapping, Sequence

from .exterior import _contract
from .groebner import INFINITE, ci_numerator
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


class _Slices:
    """The weight slices of one Koszul complex, computed over the integers.

    Each section component j is multiplied by the least positive integer
    lambda_j that clears its denominators (`_integral`).  That conjugates
    every slice differential by the diagonal map e_S -> prod_{j in S}
    lambda_j * e_S, which changes no rank and no pivot column, so the
    clearing below stays exact; the slice columns come out of `_contract`
    as int dicts.  The monomials of each weight are computed once and
    shared by every slice asked of the same object.

    The slice ranks skip rows by clearing, which is exact only when the
    differential squares to zero, so every caller first reads the complex's
    `d_squared`, which decides that for every section of the rank.
    """

    def __init__(self, c: KoszulComplex, ws: tuple[int, ...]):
        self.rank = c.rank
        self.ws = ws
        self.gd = generator_degrees(c, ws)
        self.components = [_integral(p.terms)[0] for p in c.section.components]
        self._monomials: dict[int, list] = {}

    def basis(self, p: int, w: int) -> list:
        """Basis of the weight-w part of cohomological degree p."""
        out = []
        for subset in combinations(range(self.rank), -p):
            rem = w - sum(self.gd[j] for j in subset)
            if rem < 0:
                continue
            monos = self._monomials.get(rem)
            if monos is None:
                monos = self._monomials[rem] = monomials_of_weight(self.ws, rem)
            out.extend((exps, subset) for exps in monos)
        return out

    def cohomology(self, w: int, h0: int | None = None, grade: int = 0) -> dict[int, int]:
        """dim H^p of the weight-w slice for every degree p: dim - rank(d out) - rank(d in).

        Two rank facts, when given, stand in for elimination.  `h0` is
        dim H^0, read off the Hilbert series of R/I, so rank d_{-1} =
        dim C^0 - h0.  `grade` is grade I: by depth sensitivity (Eisenbud,
        Thm 17.4) the complex is exact in its `grade` lowest degrees, so
        rank d_p = dim C^p - rank d_{p-1} for p = -m, ..., -m + grade - 1.
        Only the other differentials are eliminated, plus d_{-m+grade-1},
        the highest the grade gives: its pivots clear the next one's rows,
        and its eliminated rank must equal the grade's, or AssertionError
        names the degree and weight.

        The differentials are ranked from the top wedge degree down, and the
        pivot columns of d_p clear the rows of d_{p+1} they index (Chen and
        Kerber's twist).  A pivot row with leading column i lies in the image
        of d_p, so d_{p+1} d_p = 0 writes row i of d_{p+1} as a combination
        of later rows; by descending induction every cleared row lies in the
        span of the kept ones, and no rank changes.
        """
        m = self.rank
        bases = {p: self.basis(p, w) for p in range(-m, 1)}
        ranks: dict[int, int] = {}
        for p in range(-m, -m + grade):
            ranks[p] = len(bases[p]) - ranks.get(p - 1, 0)
        if h0 is not None:
            ranks[-1] = len(bases[0]) - h0
        cleared: set[int] = set()
        for p in range(max(-m, -m + grade - 1), 0 if h0 is None else -1):
            leads: set[int] = set()
            rank = 0
            if bases[p] and bases[p + 1]:
                index = {key: i for i, key in enumerate(bases[p + 1])}
                # contraction preserves the slice, so every image key has an index
                cols = [{index[k]: v for k, v in _contract(self.components, {key: 1}).items()}
                        for i, key in enumerate(bases[p]) if i not in cleared]
                rank = rank_rows(cols, leads)
            if ranks.setdefault(p, rank) != rank:
                raise AssertionError(f"d_{p} in weight {w} has rank {rank}, "
                                     f"but grade {grade} gives {ranks[p]}")
            cleared = leads
        return {p: len(basis) - ranks.get(p, 0) - ranks.get(p - 1, 0)
                for p, basis in bases.items()}


def slice_cohomology(c: KoszulComplex, weights, w: int) -> dict[int, int]:
    """Cohomology dimensions of one weight slice, by cohomological degree."""
    slices = _Slices(c, normalize_weights(c.ambient.vars, weights))
    _require_d_squared(c)
    return slices.cohomology(w)


@dataclass(frozen=True)
class HilbertTable:
    """Cohomology dimensions, weight by weight, up to a weight cutoff.

    rows[p][w] is dim H^p in weight w.  For a regular section they are read
    off the closed form (H^p = 0 for p < 0, H^0 the Hilbert series of R/I);
    for any other they come from the slices, whose H^0 is that series too.
    complete[p] is True only when an independent oracle certifies that
    every weight above the cutoff contributes nothing; currently that
    exists for degree zero (finite Groebner quotient whose dimension the
    row already accounts for).
    """

    weights: tuple[int, ...]
    cutoff: int
    rows: Mapping[int, tuple[int, ...]]
    complete: Mapping[int, bool]

    def total(self, p: int) -> int:
        return sum(self.rows.get(p, ()))

    def degrees(self) -> list[int]:
        return sorted(self.rows)


def _series(k: Mapping[int, int], ws: Sequence[int], cutoff: int) -> list[int]:
    """Coefficients of K(t) / prod_i (1 - t^w_i) up to t^cutoff."""
    out = [0] * (cutoff + 1)
    for e, v in k.items():
        if e <= cutoff:
            out[e] += v
    for w in ws:
        for i in range(w, cutoff + 1):
            out[i] += out[i - w]
    return out


def hilbert_table(c: KoszulComplex, weights, cutoff: int) -> HilbertTable:
    """Tabulate the cohomology of every weight slice up to the cutoff.

    The Hilbert numerator K(t) of the complex's `ideal` decides the path.
    A section whose components are all nonzero and of positive weights d_j
    is a regular sequence exactly when K(t) = prod_j (1 - t^d_j) (Stanley, 1978).  Its Koszul
    complex then resolves R/I: every negative row is 0 and row 0 is the
    series K(t) / prod_i (1 - t^w_i), and no slice is built.  Any other
    section is sliced, with two ranks read off K.  Rank d_{-1} in weight w
    is dim R_w minus that series, so row 0 is the series here too.  The
    grade g of I is the multiplicity of t = 1 as a root of K, the least j
    with sum_e k_e C(e, j) != 0, capped at m (K = 0 for a unit ideal); the
    complex is exact in its g lowest degrees (Eisenbud, Thm 17.4), which
    gives their ranks.  The rest are eliminated, and so is d_{-m+g-1}: an
    eliminated rank that disagrees with the grade's raises AssertionError.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    ws = normalize_weights(c.ambient.vars, weights)
    degrees = generator_degrees(c, ws)
    _require_d_squared(c)
    comps = c.section.components
    quotient = c.ideal.quotient()
    k = quotient.hilbert_numerator(ws)
    h0 = _series(k, ws, cutoff)
    m = c.rank
    if all(comps) and all(degrees) and k == ci_numerator(degrees):
        rows = {p: (0,) * (cutoff + 1) for p in range(-m, 0)}
        rows[0] = tuple(h0)
    else:
        # grade I = n - dim R/I, the multiplicity of t = 1 as a root of K
        grade = next((j for j in range(m) if sum(v * comb(e, j) for e, v in k.items())), m)
        slices = _Slices(c, ws)
        columns = [slices.cohomology(w, h0[w], grade) for w in range(cutoff + 1)]
        rows = {p: tuple(dims[p] for dims in columns) for p in range(-m, 1)}
    qd = quotient.dimension
    complete = {p: False for p in range(-m, 1)}
    complete[0] = qd != INFINITE and sum(rows[0]) == qd
    return HilbertTable(ws, cutoff, rows, complete)


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

    Read off `hilbert_table`, so a regular section takes the closed form
    and builds no slice.  The first failure is the first nonzero negative
    entry, weight by weight and then degree by degree; it is definitive.
    An all-zero table certifies regularity only up to the cutoff, which the
    report records.
    """
    rows = hilbert_table(c, weights, cutoff).rows
    for w in range(cutoff + 1):
        for p in range(-c.rank, 0):
            if rows[p][w]:
                return RegularSequenceReport(False, cutoff, (p, w))
    return RegularSequenceReport(True, cutoff, None)


@dataclass(frozen=True)
class ResolutionCertificate:
    """Evidence that a tautological complex resolves its base ring.

    Checks, weight by weight up to the cutoff, that negative-degree
    cohomology vanishes and that dim H^0 in weight w equals the number of
    base-ring monomials of weight w.  `table` is the Hilbert table the
    checks read; the tautological section is a regular sequence, so its
    rows come from the closed form, and the base-ring count checks that.
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
    h0_matches = True
    negatives_vanish = True
    mismatch = None
    for w in range(cutoff + 1):
        expected = len(monomials_of_weight(bws, w))
        got = table.rows[0][w]
        if got != expected:
            h0_matches = False
            mismatch = {"degree": 0, "weight": w, "expected": expected, "got": got}
            break
    for p in range(-taut.rank, 0):
        row = table.rows[p]
        for w, h in enumerate(row):
            if h:
                negatives_vanish = False
                if mismatch is None:
                    mismatch = {"degree": p, "weight": w, "expected": 0, "got": h}
                break
    return ResolutionCertificate(h0_matches and negatives_vanish, cutoff,
                                 h0_matches, negatives_vanish, table, mismatch)
