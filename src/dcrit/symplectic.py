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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .groebner import INFINITE, _divides, standard_monomials
from .exterior import Section
from .koszul import KoszulComplex
from .linalg import Echelon
from .poly import Poly
from .polyvec import closedness_witness


def is_symmetric(m) -> bool:
    """True when the matrix equals its transpose."""
    return [list(row) for row in m] == [list(col) for col in zip(*m)]


def _flat(matrix) -> list[str]:
    return [str(p) for row in matrix for p in row]


@dataclass(frozen=True)
class PairingReport:
    """The degree -1 pairing data attached to a two-term complex."""

    matrix: tuple[tuple[Poly, ...], ...]
    symmetric: bool

    @property
    def nondegenerate(self) -> bool:
        """The pairing is perfect levelwise exactly when the differential is self-adjoint."""
        return self.symmetric

    def to_json(self) -> dict:
        return {"hessian": _flat(self.matrix), "symmetric": self.symmetric,
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

    quotient_dim is dim_Q of R modulo the partials (INFINITE when the
    critical locus is not isolated, in which case the restricted ranks are
    not computed and the remaining fields are None).  h0 and h1 are the
    kernel and cokernel dimensions of the Hessian acting on the quotient.
    """

    hessian: tuple[tuple[Poly, ...], ...]
    symmetric: bool
    quotient_dim: object  # int or INFINITE
    h0: int | None = None

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
        return {"hessian": _flat(self.hessian), "symmetric": self.symmetric,
                "quotient_dim": self.quotient_dim,
                "h0": self.h0, "h1": self.h1,
                "hessian_invertible": self.hessian_invertible}


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
    """
    h = _tangent_differential(locus)
    n = len(h)
    sym = is_symmetric(h)
    gb = locus.ideal
    monos = standard_monomials(gb)
    if monos is None:
        return ObstructionReport(h, sym, INFINITE)
    mu = len(monos)
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
    dead: list[list] = [[] for _ in range(n)]  # per j, the minimal dependent t
    for mono in monos:
        for j in range(n):
            if any(_divides(d, mono) for d in dead[j]):
                continue
            parts = [(offset, entry(mono)) for offset, entry in by_column[j]]
            scale = lcm(*(den for _, (_, den) in parts))
            column = {}
            for offset, (nums, den) in parts:
                k = scale // den
                for r, c in nums.items():
                    column[offset + r] = c * k
            if not echelon.add(column):
                dead[j].append(mono)
    return ObstructionReport(h, sym, mu, n * mu - echelon.rank)


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
