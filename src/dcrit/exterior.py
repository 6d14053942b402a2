"""Exterior algebra over a polynomial ring, with contraction.

Elements live in R otimes Lambda(e_1, ..., e_m) for R = Q[vars]: sparse maps
from (exponent vector, strictly increasing generator subset) to nonzero
rational coefficients, stored as `Poly` stores them: int numerators over one
positive denominator, in lowest terms.  The wedge, contraction and algebra
maps run on the numerators, as `Poly`'s product does.  The generator in slot
j of a wedge monomial is e_{j}; a subset is a tuple of 0-based generator
indices.  Wedge degree p sits in cohomological degree -p, so contraction
along a section raises cohomological degree by one.

Sign conventions (the single source of truth for every complex built here):

  * e_S wedge e_T = sign(S, T) * e_{S union T}, where sign(S, T) is the
    parity of the number of pairs (s, t) in S x T with s > t, and zero
    when the subsets overlap.
  * contraction along s = (s_1, ..., s_m) sends e_{j_1} ^ ... ^ e_{j_p}
    (j_1 < ... < j_p) to sum_k (-1)^k s_{j_k} e_{j_1} ^ ... omit k ... ^ e_{j_p}
    with k counted from 1.  In particular contract(s, e_j) = -s_j.
  * equivalently, contraction is -sum_j s_j od_j for the left odd
    derivatives od_j, which `_odd_parts` writes once for contraction and
    for the polyvector bracket and divergence.
  * an algebra map sends e_{j_1} ^ ... ^ e_{j_p} (j_1 < ... < j_p) to the
    wedge of the images of e_{j_1}, ..., e_{j_p} in that order
    (`algebra_map`), so its signs are the wedge's.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Mapping, Sequence

from .poly import (_SCALARS, Exponents, Poly, Scalar, _descending_key, _power, _Terms, exps_add,
                   monomial_str)

TermKey = tuple[Exponents, tuple[int, ...]]


@dataclass(frozen=True)
class Ambient:
    """A polynomial ring together with named exterior generators."""

    vars: tuple[str, ...]
    gens: tuple[str, ...]

    @property
    def rank(self) -> int:
        return len(self.gens)

    def __post_init__(self):
        if len(set(self.gens)) != len(self.gens):
            raise ValueError("generator names must be distinct")


def merge_sign(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Merge two strictly increasing index tuples, tracking the Koszul sign.

    Returns (sign, merged) where sign is (-1)**inversions for the shuffle
    sorting left + right, or (0, ()) when the tuples overlap.
    """
    if not left or not right or left[-1] < right[0]:  # already in order: no inversion
        return 1, left + right
    inv = 0
    merged: list[int] = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] == right[j]:
            return 0, ()
        if left[i] < right[j]:
            merged.append(left[i])
            i += 1
        else:
            inv += len(left) - i
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return (1 if inv % 2 == 0 else -1), tuple(merged)


class ExtElt(_Terms):
    """Immutable element of the exterior algebra over an Ambient."""

    __slots__ = ()
    ambient = _Terms._ring  # the ring tag is the Ambient

    @staticmethod
    def _valid_key(ambient: Ambient, key) -> TermKey:
        exps, subset = key
        if len(exps) != len(ambient.vars):
            raise ValueError(f"exponent vector {exps!r} does not match {len(ambient.vars)} variables")
        if list(subset) != sorted(set(subset)):
            raise ValueError(f"subset {subset!r} must be strictly increasing")
        if subset and subset[-1] >= ambient.rank:
            raise ValueError(f"generator index out of range in {subset!r}")
        return tuple(exps), tuple(subset)

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, ambient: Ambient) -> "ExtElt":
        return cls(ambient, {((0,) * len(ambient.vars), ()): 1})

    @classmethod
    def from_poly(cls, ambient: Ambient, p: Poly) -> "ExtElt":
        return cls.wedge_monomial(ambient, p, ())

    @classmethod
    def generator(cls, ambient: Ambient, j: int) -> "ExtElt":
        if not 0 <= j < ambient.rank:
            raise ValueError(f"no generator with index {j}")
        return cls(ambient, {((0,) * len(ambient.vars), (j,)): 1})

    @classmethod
    def monomial(cls, ambient: Ambient, exps: Exponents, subset: Sequence[int], c: Scalar = 1) -> "ExtElt":
        return cls(ambient, {(tuple(exps), tuple(subset)): c})

    @classmethod
    def wedge_monomial(cls, ambient: Ambient, p: Poly, subset: Sequence[int]) -> "ExtElt":
        """p * e_{subset} for a polynomial coefficient p."""
        if p.vars != ambient.vars:
            raise ValueError("polynomial lives over different variables")
        sub = cls._valid_key(ambient, ((0,) * len(ambient.vars), subset))[1]
        return cls._make(ambient, {(exps, sub): c for exps, c in p._num.items()}, p._den)

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, _SCALARS):
            other = Poly.constant(self.ambient.vars, other)
        if isinstance(other, Poly):
            return ExtElt.from_poly(self.ambient, other)
        return other if isinstance(other, ExtElt) else None

    def _product(self, other: "ExtElt") -> "ExtElt":
        return wedge(self, other)

    def __pow__(self, n: int) -> "ExtElt":
        return _power(self, n, ExtElt.one(self.ambient))

    # -- structure -----------------------------------------------------------

    def scalar_part(self) -> Poly:
        """The wedge-degree-zero component, as a polynomial."""
        return self.coefficient_poly(())

    def coefficient_poly(self, subset: Sequence[int]) -> Poly:
        sub = tuple(subset)
        return Poly._make(self.ambient.vars,
                          {exps: c for (exps, s), c in self._num.items() if s == sub}, self._den)

    def subsets(self) -> set[tuple[int, ...]]:
        return {s for (_, s) in self._num}

    def degree(self) -> int:
        """Cohomological degree; zero elements report 0, mixed ones raise."""
        sizes = {len(s) for (_, s) in self._num}
        if not sizes:
            return 0
        if len(sizes) > 1:
            raise ValueError("element is not homogeneous")
        return -sizes.pop()

    # -- printing --------------------------------------------------------------

    @staticmethod
    def _sort_key(key: TermKey) -> tuple:
        exps, subset = key
        return (len(subset), subset) + _descending_key(exps)

    def _factors(self, key: TermKey) -> list[str]:
        exps, subset = key
        mono = monomial_str(self.ambient.vars, exps)
        gens = "/\\".join(self.ambient.gens[j] for j in subset)
        return [f for f in (mono, gens) if f]


@dataclass(frozen=True)
class Section:
    """An m-tuple of polynomials pairing against the exterior generators."""

    ambient: Ambient
    components: tuple[Poly, ...]

    def __post_init__(self):
        if len(self.components) != self.ambient.rank:
            raise ValueError(f"expected {self.ambient.rank} components, got {len(self.components)}")
        for p in self.components:
            if p.vars != self.ambient.vars:
                raise ValueError("section component lives over different variables")

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.components) + ")"


def wedge(a: ExtElt, b: ExtElt) -> ExtElt:
    """Graded-commutative product."""
    a._check(b)
    bt = b._num
    terms: dict[TermKey, int] = {}
    for (e1, s1), c1 in a._num.items():
        for (e2, s2), c2 in bt.items():
            sign, merged = merge_sign(s1, s2)
            if sign == 0:
                continue
            key = (exps_add(e1, e2), merged)
            terms[key] = terms.get(key, 0) + sign * c1 * c2
    return ExtElt._make(a.ambient, terms, a._den * b._den)


def algebra_map(a: ExtElt, target: Ambient,
                images: Sequence[Sequence[tuple[int, int]]]) -> ExtElt:
    """The R-algebra map sending generator j to the sum of sign * e_t over the
    (t, sign) pairs in images[j], e_t a generator of `target`.

    A generator sent to () kills every term that holds it.  Each subset's
    product of images is expanded once per call with `merge_sign`; its signs
    stay ints, each multiplying a numerator of a once.
    """
    if target.vars != a.ambient.vars:
        raise ValueError("target lives over different variables")
    if len(images) != a.ambient.rank:
        raise ValueError(f"expected images of {a.ambient.rank} generators, got {len(images)}")
    if any(not 0 <= t < target.rank for image in images for t, _ in image):
        raise ValueError(f"an image leaves the {target.rank} generators of the target")
    singles = [[((t,), s) for t, s in image] for image in images]
    products: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    terms: dict[TermKey, int] = {}
    for (exps, subset), c in a._num.items():
        product = products.get(subset)
        if product is None:
            product = {(): 1}
            for j in subset:
                step: dict[tuple[int, ...], int] = {}
                for sub, sign in product.items():
                    for t, s in singles[j]:
                        merge, merged = merge_sign(sub, t)
                        if merge:
                            step[merged] = step.get(merged, 0) + merge * s * sign
                product = step
            products[subset] = product
        for sub, sign in product.items():
            if sign:
                key = (exps, sub)
                terms[key] = terms[key] + sign * c if key in terms else sign * c
    return ExtElt._make(target, terms, a._den)


def _odd_parts(subset: tuple[int, ...]) -> list[tuple[int, int, tuple[int, ...]]]:
    """(i, sign, subset without i) for each generator i of a wedge monomial: the left
    odd derivative od_i drops i with the sign (-1)^k, k its position from 0."""
    return [(i, -1 if k % 2 else 1, subset[:k] + subset[k + 1:]) for k, i in enumerate(subset)]


def _common_denominator(polys: Sequence[Poly]) -> tuple[list[dict[Exponents, int]], int]:
    """(numerator maps, d): each polynomial times the lcm d of their denominators."""
    d = lcm(*[p._den for p in polys])
    return [p._num if p._den == d else {e: c * (d // p._den) for e, c in p._num.items()}
            for p in polys], d


def _contract(components: Sequence[Mapping[Exponents, int]],
              terms: Mapping[TermKey, int]) -> dict[TermKey, int]:
    """The contraction sign rule, written once.

    `components` are the section components' numerator maps and `terms` an
    exterior element's.  The result is the accumulated int term dict, zeros
    included.
    """
    out: dict[TermKey, int] = {}
    for (exps, subset), c in terms.items():
        for j, sign, omitted in _odd_parts(subset):
            signed = -sign * c
            for sexps, sc in components[j].items():
                k = (exps_add(exps, sexps), omitted)
                out[k] = out.get(k, 0) + signed * sc
    return out


def contract(s: Section, a: ExtElt) -> ExtElt:
    """Contraction of a along the section s; cohomological degree +1.

    On a wedge monomial e_{j_1} ^ ... ^ e_{j_p} the value is
    sum_k (-1)^k s_{j_k} e_{j_1} ^ ... omit k ... ^ e_{j_p}, k from 1.
    Squares to zero; a graded derivation up to the sign of the left factor.
    The components are brought to one common denominator, so `_contract`
    runs on numerators.
    """
    if s.ambient is not a.ambient and s.ambient != a.ambient:
        raise ValueError("section and element live in different ambients")
    components, ds = _common_denominator(s.components)
    return ExtElt._make(a.ambient, _contract(components, a._num), ds * a._den)
