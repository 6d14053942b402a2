"""Derived zero loci: the shifted pairing, obstruction ranks, graph Lagrangians.

A derived zero locus, the Koszul complex of a section s with one component
per variable, has tangent complex T^0 -> T^1 (both free of rank n) with
differential the Jacobian of s.  The symmetry of that matrix is exactly
what makes the degree -1 pairing of the complex with itself well defined,
and the pairing is perfect levelwise (the duality map is the identity on
the chosen bases).  Two kinds of locus are built here: the critical locus
of f, the complex of df, whose Jacobian is the Hessian; and the
intersection of the graphs of two closed 1-forms, the complex of their
difference.  `minus_one_pairing` and the obstruction report read the
`jacobian` and `ideal` the complex computes once.

On the Milnor algebra A = R/J the Hessian is an A-linear map A^n -> A^n,
whose kernel and cokernel dimensions are the obstruction numbers h0 and
h1.  `obstruction_theory` eliminates its columns one at a time through a
`linalg.Echelon`, reading entry (i, j) of column t*e_j from the Jacobian
basis's `multiples(h_ij)` (the basis is R/J), which builds NF(h_ij*t) only
when it is asked for: once the column of t*e_j is dependent, so is that
of m*t*e_j for every monomial m, and none of those is built or eliminated.

The shifted symplectic structure is a self-duality of the tangent complex,
and for a weighted-homogeneous f with finite Milnor number it has an exact
algebraic form: A is a graded Gorenstein algebra, whose residue pairing
makes the Hessian self-adjoint (Eisenbud, Commutative Algebra, ch. 21;
Milnor and Orlik, Topology 1970).  So the Hessian's rank on weight block a
equals its rank on the dual block, and only the blocks up to the middle
are eliminated.  The weights are read off the section (`_grading`); a
section without them is one self-dual block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from operator import mul

from .groebner import INFINITE, _divides
from .exterior import Section
from .koszul import KoszulComplex
from .linalg import Echelon
from .poly import Poly, _shift
from .polyvec import closedness_witness


def is_symmetric(m) -> bool:
    """True when the matrix equals its transpose."""
    return [list(row) for row in m] == [list(col) for col in zip(*m)]


@dataclass(frozen=True)
class PairingReport:
    """The degree -1 pairing data attached to a two-term complex."""

    matrix: tuple[tuple[Poly, ...], ...]
    symmetric: bool

    @property
    def nondegenerate(self) -> bool:
        """The pairing is perfect levelwise exactly when the differential is self-adjoint."""
        return self.symmetric

    @cached_property
    def _entries(self) -> list[str]:
        """The matrix as text, row by row, formatted once for every report that prints it."""
        return [str(p) for row in self.matrix for p in row]

    def to_json(self) -> dict:
        return {"hessian": self._entries, "symmetric": self.symmetric,
                "nondegenerate": self.nondegenerate}


def _tangent_differential(locus: KoszulComplex) -> tuple[tuple[Poly, ...], ...]:
    """The Jacobian of the locus's section, square: one component per variable."""
    n = len(locus.ambient.vars)
    if locus.rank != n:
        raise ValueError(f"the tangent complex needs one section component per variable, "
                         f"got {locus.rank} for {n}")
    return locus.jacobian


def minus_one_pairing(locus: KoszulComplex) -> PairingReport:
    """The degree -1 pairing of a derived zero locus's tangent complex, whose
    differential is the Jacobian of the section (for the critical locus of f,
    the Hessian): perfect levelwise when it is symmetric, and none otherwise."""
    m = _tangent_differential(locus)
    return PairingReport(m, is_symmetric(m))


@dataclass(frozen=True)
class ObstructionReport:
    """The tangent complex restricted to the critical locus.

    pairing is the locus's `minus_one_pairing`, which holds the Hessian.
    quotient_dim is dim_Q of R modulo the partials (INFINITE when the
    critical locus is not isolated, in which case the restricted ranks are
    not computed and the remaining fields are None).  h0 and h1 are the
    kernel and cokernel dimensions of the Hessian acting on the quotient.
    """

    pairing: PairingReport
    quotient_dim: object  # int or INFINITE
    h0: int | None = None

    @property
    def hessian(self) -> tuple[tuple[Poly, ...], ...]:
        return self.pairing.matrix

    @property
    def symmetric(self) -> bool:
        return self.pairing.symmetric

    @property
    def h1(self) -> int | None:
        """The cokernel dimension, equal to h0: the Hessian is an endomorphism of
        the finite-dimensional space A^n, so dim ker = dim coker."""
        return self.h0

    @property
    def hessian_invertible(self) -> bool | None:
        """Whether the Hessian is invertible on A^n: h0 = 0."""
        return None if self.h0 is None else self.h0 == 0

    def to_json(self) -> dict:
        return {"hessian": self.pairing._entries, "symmetric": self.symmetric,
                "quotient_dim": self.quotient_dim,
                "h0": self.h0, "h1": self.h1,
                "hessian_invertible": self.hessian_invertible}


def _grading(section: Section) -> tuple[tuple[int, ...], int] | None:
    """Positive coprime weights w and a degree D with every component s_i of
    the section weighted-homogeneous of weight D - w_i; None when there are
    none, or when they are not unique up to scale.

    Each term e of s_i puts the point e + e_i on the hyperplane w.p = D.  The
    differences from the first point go into an integer echelon until their
    rank is n - 1, w is their kernel, found by back-substitution with ints
    alone, and every point is then checked with one integer dot product.  For
    the gradient of an f with finite Milnor number the weights are unique
    (Saito, Invent. Math. 1971).
    """
    n = len(section.ambient.vars)
    points = [_shift(e, i, 1) for i, s in enumerate(section.components) for e in s.terms]
    if not points:
        return None
    first = points[0]
    echelon = Echelon()
    for p in points[1:]:
        if echelon.rank == n - 1:
            break
        echelon.add({k: a - b for k, (a, b) in enumerate(zip(p, first)) if a != b})
    if echelon.rank < n - 1:
        return None
    w = [int(k not in echelon.pivots) for k in range(n)]  # the one free column is 1
    for c in sorted(echelon.pivots, reverse=True):
        row = echelon.pivots[c]
        rest = -sum(v * w[k] for k, v in row.items() if k != c)
        g = gcd(rest, row[c])
        q, r = row[c] // g, rest // g
        if q < 0:
            q, r = -q, -r
        w = [v * q for v in w]
        w[c] = r
    g = gcd(*w)
    w = [v // g for v in w]
    d = sum(map(mul, w, first))
    if min(w) <= 0 or any(sum(map(mul, w, p)) != d for p in points):
        return None
    return tuple(w), d


def obstruction_theory(locus: KoszulComplex) -> ObstructionReport:
    """Restrict the Hessian to the critical quotient and measure exactness.

    `locus` is the derived critical locus of f, the Koszul complex of df:
    J is its `ideal` and the Hessian its `jacobian`.  Any section with one
    component per variable is taken the same way; another is a ValueError.

    On A = R/J the Hessian is an A-linear map H: A^n -> A^n, and its rank
    over Q is that of the n*mu columns H(t*e_j), for t a standard monomial
    and j a variable; component i of column (t, j) is NF(t*h_ij).  The
    columns are eliminated one at a time, t ascending in degrevlex and then
    j.  When (t, j) lies in the span of the columns before it, so does
    (t*x_k, j) for every standard t*x_k.  Proof: H(t*x_k*e_j) = x_k*H(t*e_j)
    = sum c*x_k*H(s*e_j'), summed over columns (s, j') before (t, j); and
    x_k*H(s*e_j') is a combination of the H(u*e_j') over the terms u of
    NF(x_k*s), each at most x_k*s, which is below x_k*t when s < t and is
    x_k*t with j' < j when s = t.  So for each j the minimal monomials whose
    column was dependent are kept, and no column whose t one of them divides
    is built or eliminated (Faugere's F5 rule, J. Pure Appl. Algebra 2002:
    never reduce a row already known to be a syzygy, here over A).  Each
    eliminated column is scaled by the lcm of its entries' denominators,
    which keeps the rank.

    Half of the rest is given by local duality.  Let the Jacobian be
    symmetric and component i of the section weighted-homogeneous of weight
    D - w_i for positive weights w (`_grading`).  Column (t, j) lies in
    block a = wdeg(t) - w_j, and its entries in row block a + D, so a
    dependency never mixes blocks and H is the sum of its blocks H_a.  With
    mu finite, A is a graded complete intersection, hence Gorenstein, with
    socle degree sigma = sum_i (D - 2*w_i) (Eisenbud, Commutative Algebra,
    ch. 21; Milnor and Orlik, Topology 1970), and the residue pairing
    <u*e_i, v*e_k> = delta_ik res(u*v) is perfect and pairs block a with
    block top - a, top = sigma - D.  H is self-adjoint for it because
    h_ij = h_ji, so rank H_a = rank H_(top - a): only the blocks with
    2a <= top are eliminated, and each rank below the middle counts twice.
    The skip rule holds inside each block, since the columns its proof
    uses lie in the block of (t*x_k, j).  Without a grading every weight is
    0 and top = 0: one self-dual block, counted once, the same loop.
    """
    pairing = minus_one_pairing(locus)
    h, sym = pairing.matrix, pairing.symmetric
    n = len(h)
    gb = locus.ideal
    monos = gb.monomials
    if monos is None:
        return ObstructionReport(pairing, INFINITE)
    mu = len(monos)
    ws, d = (_grading(locus.section) if sym else None) or ((0,) * n, 0)
    top = sum(d - 2 * w for w in ws) - d
    # entry (i, j) is multiplication by h[i][j] on the quotient, t -> NF(h[i][j]*t)
    # built as it is asked for; a symmetric Hessian shares (i, j) and (j, i)
    entries = {}
    for i in range(n):
        for j in range(i if sym else 0, n):
            if not h[i][j].is_zero():
                entries[i, j] = gb.multiples(h[i][j])
                if sym:
                    entries[j, i] = entries[i, j]
    by_column = [[(i * mu, entries[i, j]) for i in range(n) if (i, j) in entries]
                 for j in range(n)]
    echelon = Echelon()
    rank = 0
    dead: list[list] = [[] for _ in range(n)]  # per j, the minimal dependent t
    for mono in monos:
        deg = sum(map(mul, ws, mono))
        for j in range(n):
            twice = 2 * (deg - ws[j])  # twice the block of (mono, j)
            if twice > top or any(_divides(t, mono) for t in dead[j]):
                continue
            parts = [(offset, entry(mono)) for offset, entry in by_column[j]]
            scale = lcm(*(den for _, (_, den) in parts))
            column = {}
            for offset, (nums, den) in parts:
                k = scale // den
                for r, c in nums.items():
                    column[offset + r] = c * k
            if echelon.add(column):
                rank += 1 if twice == top else 2
            else:
                dead[j].append(mono)
    return ObstructionReport(pairing, mu, n * mu - rank)


class NotClosedError(ValueError):
    """A graph Lagrangian needs a closed 1-form; carries the witness."""

    def __init__(self, label: str, witness: dict):
        self.label = label
        self.witness = witness
        pair = witness.get("pair")
        super().__init__(f"1-form {label} is not closed: mixed partials differ on {pair}: "
                         + ", ".join(f"{k}={v}" for k, v in witness.items() if k != "pair"))


def intersect_graph_lagrangians(alpha: Section, beta: Section) -> KoszulComplex:
    """Derived intersection of the graphs of two closed 1-forms.

    Rejects non-closed input with a NotClosedError naming the offending
    form and the failing pair of partials.  The intersection is the derived
    zero locus of alpha - beta: its Koszul complex on polyvector generators,
    whose `minus_one_pairing` reads the Jacobian of the difference, symmetric
    because both forms are closed.
    """
    for label, form in (("alpha", alpha), ("beta", beta)):
        w = closedness_witness(form)
        if w is not None:
            raise NotClosedError(label, w)
    if alpha.ambient != beta.ambient:
        raise ValueError("forms live over different variables")
    diff = tuple(a - b for a, b in zip(alpha.components, beta.components))
    return KoszulComplex(Section(alpha.ambient, diff))
