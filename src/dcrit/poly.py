"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is a sparse map from exponent vectors to nonzero rational
coefficients, stored as int numerators over one positive int denominator in
lowest terms (as FLINT's fmpq_poly is), so it is canonical by construction:
two polynomials are equal exactly when their variable tuples, numerators and
denominators are equal.  The constructors take ints and Fractions, and
nothing else.  A sum, a product, a scaling and a derivative compute on the
numerators and reduce the result once (`_lowest`); `terms` reads the
coefficients back, an integral one as an `int` and any other as a `Fraction`.
No floating point is used anywhere.  The monomial order for printing and
leading-term extraction is degree-reverse-lexicographic with respect to the
declared variable order.
The same storage, arithmetic and printing rule (`_Terms`) backs the exterior
algebra, whose elements on copies of the generators are the coalgebra tensors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Mapping, Sequence, Union

Exponents = tuple[int, ...]
Scalar = Union[int, Fraction]
_SCALARS = (int, Fraction)  # the coefficient types every element accepts as an operand

# weighted_degree() sentinels: the zero polynomial is homogeneous of every
# weight, and a mixed-weight polynomial has no weight at all.
ANY_DEGREE = "any"
INHOMOGENEOUS = "inhomogeneous"


class UnknownVariableError(ValueError):
    pass


def _descending_key(exps: Exponents) -> tuple:
    """The one degrevlex sort key: ascending order under it lists the largest
    monomial first, and `reverse=True` the smallest.

    Degrevlex compares total degree first; on a tie the vector whose last
    differing exponent is smaller is the larger monomial.  No two distinct
    exponent vectors have equal keys.
    """
    return (-sum(exps), exps[::-1])


def exps_add(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(add, a, b))


def _exact(c) -> Scalar:
    """c, an int or a Fraction, as an int when it is integral; TypeError for any other type."""
    if type(c) is int:
        return c
    if not isinstance(c, _SCALARS):
        raise TypeError(f"coefficient {c!r} is not an int or a Fraction")
    return int(c) if c.denominator == 1 else c


def _quotient(n: int, d: int) -> Scalar:
    """n/d for ints, exactly: an int when d divides n, else a Fraction."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def _lowest(num: dict, den: int) -> tuple[dict, int]:
    """num/den in lowest terms, for nonzero int numerators over a positive int
    denominator: divided by gcd(den, *num), so the two share no factor."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            return {k: c // g for k, c in num.items()}, den // g
    return num, den


def _primitive(terms: dict[Exponents, int], lead: Exponents) -> dict[Exponents, int]:
    """A nonzero int term map divided by its content, signed so the coefficient at lead is positive."""
    g = gcd(*terms.values())
    if terms[lead] < 0:
        g = -g
    return terms if g == 1 else {e: c // g for e, c in terms.items()}


def _shift(exps: Exponents, k: int, d: int) -> Exponents:
    """exps with d added to the exponent of variable k."""
    return exps[:k] + (exps[k] + d,) + exps[k + 1:]


class _Terms:
    """Immutable sparse map from monomial keys to nonzero rationals, over a ring tag.

    The one storage, arithmetic and printing rule shared by Poly and ExtElt
    (the coalgebra tensors are ExtElts on copies of the generators).
    Subclasses supply `_valid_key` (the public constructor's key check),
    `_coerce` (the operands they accept besides their own type), `_product`,
    and `_sort_key`/`_factors` for printing.
    An element is int numerators `_num` over one positive int denominator
    `_den`, in lowest terms (`_lowest`), so equal elements have equal
    numerators and denominators.  Every kernel reads the two directly and
    hands `_make` a fresh int map with its denominator.  `terms` is the
    rational view, an int wherever a coefficient is integral.
    Instances must not be mutated after construction; every operation
    returns a fresh element, so values can be shared freely.
    """

    __slots__ = ("_ring", "_num", "_den")

    def __init__(self, ring, terms: Mapping):
        clean = {}
        den = 1
        for key, c in terms.items():
            key = self._valid_key(ring, key)
            c = _exact(c)
            if c:
                clean[key] = c
                if type(c) is not int:
                    den = lcm(den, c.denominator)
        if den != 1:  # over the lcm of the denominators the numerators are in lowest terms
            clean = {k: c.numerator * (den // c.denominator) for k, c in clean.items()}
        object.__setattr__(self, "_ring", ring)
        object.__setattr__(self, "_num", clean)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _make(cls, ring, num: dict, den: int = 1):
        """Trusted constructor for results of valid elements: the element whose
        coefficient at k is num[k] / den, for int numerators and a positive int den.

        Keys are not re-checked.  The dict may become the element's: the
        caller hands in a fresh dict it owns and does not touch it again.
        """
        if 0 in num.values():
            num = {k: c for k, c in num.items() if c}
        num, den = _lowest(num, den)
        self = object.__new__(cls)
        object.__setattr__(self, "_ring", ring)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        return self

    @property
    def terms(self) -> Mapping:
        """The coefficient map, an int where a coefficient is integral and a
        Fraction elsewhere; with denominator 1 it is the numerator map itself."""
        if self._den == 1:
            return self._num
        return {k: _quotient(c, self._den) for k, c in self._num.items()}

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _coerce(self, other):
        """`other` as an element of this type, or None when it is not one."""
        return other if isinstance(other, type(self)) else None

    def _product(self, other):
        return NotImplemented

    def _check(self, other) -> None:
        if self._ring is not other._ring and self._ring != other._ring:
            raise ValueError(f"mixed rings {self._ring} vs {other._ring}")

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check(other)
        da, db = self._den, other._den
        den = da if da == db else lcm(da, db)
        num = dict(self._num) if den == da else {k: c * (den // da) for k, c in self._num.items()}
        sb = den // db
        for key, c in other._num.items():
            num[key] = num.get(key, 0) + c * sb
        return self._make(self._ring, num, den)

    __radd__ = __add__

    def __neg__(self):
        return self._make(self._ring, {k: -c for k, c in self._num.items()}, self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            c = other.numerator
            return self._make(self._ring, {k: c * v for k, v in self._num.items()},
                              self._den * other.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._product(other)

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self * other
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other._product(self)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ((self._ring is other._ring or self._ring == other._ring)
                and self._den == other._den and self._num == other._num)

    __hash__ = None  # mutable-looking API; not intended as a dict key

    def __bool__(self) -> bool:
        return bool(self._num)

    def is_zero(self) -> bool:
        return not self._num

    def __str__(self) -> str:
        """Signed terms, largest first: `c*f1*f2 - f3 + ...`, with a unit coefficient omitted."""
        terms = self.terms
        if not terms:
            return "0"
        out = ""
        for key in sorted(terms, key=self._sort_key):
            c = terms[key]
            factors = self._factors(key)
            if abs(c) != 1 or not factors:
                factors = [str(abs(c))] + factors
            body = "*".join(factors)
            if out:
                out += (" - " if c < 0 else " + ") + body
            else:
                out = ("-" if c < 0 else "") + body
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


class Poly(_Terms):
    """Immutable sparse polynomial over Q in a fixed tuple of variables."""

    __slots__ = ()
    vars = _Terms._ring  # the ring tag is the variable tuple

    def __init__(self, vars: Sequence[str], terms: Mapping[Exponents, Scalar]):
        super().__init__(tuple(vars), terms)

    @staticmethod
    def _valid_key(vars, exps) -> Exponents:
        if len(exps) != len(vars):
            raise ValueError(f"exponent vector {exps!r} does not match {len(vars)} variables")
        return tuple(exps)

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, vars: Sequence[str]) -> "Poly":
        return cls(vars, {(0,) * len(vars): 1})

    @classmethod
    def constant(cls, vars: Sequence[str], c: Scalar) -> "Poly":
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, vars: Sequence[str], name: str) -> "Poly":
        vs = tuple(vars)
        if name not in vs:
            raise UnknownVariableError(f"unknown variable {name!r} (have {', '.join(vs) or 'none'})")
        i = vs.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(vs)))
        return cls(vs, {exps: 1})

    @classmethod
    def monomial(cls, vars: Sequence[str], exps: Exponents, c: Scalar = 1) -> "Poly":
        return cls(vars, {tuple(exps): c})

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, _SCALARS):
            return Poly.constant(self.vars, other)
        return other if isinstance(other, Poly) else None

    def _product(self, other: "Poly") -> "Poly":
        self._check(other)
        b = other._num
        terms: dict[Exponents, int] = {}
        for e1, c1 in self._num.items():
            for e2, c2 in b.items():
                e = exps_add(e1, e2)
                terms[e] = terms.get(e, 0) + c1 * c2
        return Poly._make(self.vars, terms, self._den * other._den)

    def __pow__(self, n: int) -> "Poly":
        return _power(self, n, Poly.one(self.vars))

    # -- structure ---------------------------------------------------------

    def total_degree(self) -> int:
        """Max total degree of a term; -1 for the zero polynomial."""
        if not self._num:
            return -1
        return max(sum(e) for e in self._num)

    def leading(self) -> tuple[Exponents, Scalar]:
        """Leading (exponents, coefficient) under degrevlex; error on zero."""
        if not self._num:
            raise ValueError("zero polynomial has no leading term")
        e = min(self._num, key=_descending_key)
        return e, _quotient(self._num[e], self._den)

    def diff(self, var: str) -> "Poly":
        """Formal partial derivative with respect to one variable."""
        if var not in self.vars:
            raise UnknownVariableError(f"unknown variable {var!r}")
        i = self.vars.index(var)
        return Poly._make(self.vars, {_shift(exps, i, -1): c * exps[i]
                                      for exps, c in self._num.items() if exps[i]}, self._den)

    def weighted_degree(self, weights):
        """Weight of a quasi-homogeneous polynomial.

        weights: positive weights per variable, as a sequence aligned with
        self.vars or a mapping from names.  Returns the common weighted
        degree, or ANY_DEGREE for zero, or INHOMOGENEOUS if terms disagree.
        """
        ws = normalize_weights(self.vars, weights)
        if not self._num:
            return ANY_DEGREE
        degs = {sum(w * e for w, e in zip(ws, exps)) for exps in self._num}
        if len(degs) == 1:
            return degs.pop()
        return INHOMOGENEOUS

    def substitute(self, images: Mapping[str, "Poly"], vars_out: Sequence[str] | None = None) -> "Poly":
        """Ring map sending each variable to a polynomial.

        Variables missing from `images` map to the same-named variable of
        the target ring.  All images must live in one target ring; when
        every variable is defaulted, vars_out picks the target.
        """
        if images:
            target = next(iter(images.values())).vars
        elif vars_out is not None:
            target = tuple(vars_out)
        else:
            target = self.vars
        if vars_out is not None and tuple(vars_out) != target:
            raise ValueError("images do not live in the requested target ring")
        imgs: list[Poly] = []
        for v in self.vars:
            if v in images:
                img = images[v]
                if img.vars != target:
                    raise ValueError("images live in different rings")
                imgs.append(img)
            else:
                imgs.append(Poly.variable(target, v))
        result = Poly.zero(target)
        for exps, c in self.terms.items():
            part = Poly.constant(target, c)
            for img, k in zip(imgs, exps):
                if k:
                    part = part * img ** k
            result = result + part
        return result

    # -- printing ----------------------------------------------------------

    _sort_key = staticmethod(_descending_key)

    def _factors(self, exps: Exponents) -> list[str]:
        mono = monomial_str(self.vars, exps)
        return [mono] if mono else []


def _power(x, n: int, one):
    """x multiplied by itself n times by repeated squaring: log n products,
    as the product is associative.  `one` is returned for n = 0 and never
    multiplied, so x ** 1 is x itself and costs no product."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = None
    while n:
        if n & 1:
            result = x if result is None else result._product(x)
        n >>= 1
        if n:
            x = x._product(x)
    return one if result is None else result


def monomial_str(vars: Sequence[str], exps: Exponents) -> str:
    """Render an exponent vector as 'x^2*y'; the empty product renders as ''."""
    parts = []
    for v, e in zip(vars, exps):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts)


def normalize_weights(vars: Sequence[str], weights) -> tuple[int, ...]:
    """Accept weights as a per-variable sequence or a name-keyed mapping."""
    vs = tuple(vars)
    if isinstance(weights, Mapping):
        missing = [v for v in vs if v not in weights]
        if missing:
            raise ValueError(f"missing weights for {missing}")
        ws = tuple(int(weights[v]) for v in vs)
    else:
        ws = tuple(int(w) for w in weights)
        if len(ws) != len(vs):
            raise ValueError(f"expected {len(vs)} weights, got {len(ws)}")
    if any(w <= 0 for w in ws):
        raise ValueError("weights must be positive")
    return ws


def gradient(f: Poly) -> tuple[Poly, ...]:
    """All partial derivatives of f, in variable order."""
    return tuple(f.diff(v) for v in f.vars)


def monomials_of_weight(weights: Sequence[int], w: int) -> list[Exponents]:
    """All exponent vectors of the given weighted degree, ascending in degrevlex.

    Weights must be positive, so each slice is finite.  With no variables
    the answer is [()] at weight 0 and empty otherwise.
    """
    ws = tuple(int(x) for x in weights)
    if any(x <= 0 for x in ws):
        raise ValueError("weights must be positive")
    out: list[Exponents] = []

    def rec(i: int, remaining: int, prefix: tuple[int, ...]) -> None:
        if i == len(ws):
            if remaining == 0:
                out.append(prefix)
            return
        if i == len(ws) - 1:
            q, r = divmod(remaining, ws[i])
            if r == 0:
                out.append(prefix + (q,))
            return
        for k in range(remaining // ws[i] + 1):
            rec(i + 1, remaining - k * ws[i], prefix + (k,))

    if w >= 0:
        rec(0, w, ())
    return sorted(out, key=_descending_key, reverse=True)
