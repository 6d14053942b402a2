"""Parsers for polynomials, sections, one-forms, and polyvector fields.

One grammar drives all four readers:

    expr    := ['-'] term (('+' | '-') term)*
    term    := factor (('*' | '/\\') factor)*
    factor  := primary ('^' nat)*
    primary := rational | name | '(' expr ')'
    rational:= nat ('/' nat)?

Numbers and ring variables are read as `Poly`; only the basis generators,
'@x' for the vector field dual to x and 'd_x' for its differential, are
`ExtElt`, which lifts a polynomial where the two meet.  Errors carry the
character position of the offending token in the whole input.  Parentheses
nest at most MAX_NESTING deep, so that deep input is refused as a syntax
error instead of exhausting the interpreter's stack.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from .exterior import Ambient, ExtElt, Section
from .poly import Poly
from .polyvec import form_ambient, polyvector_ambient

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+)
  | (?P<generator>@[A-Za-z_][A-Za-z_0-9]*)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<wedge>/\\)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)

#: Deepest parenthesis nesting the parsers accept; each level costs four
#: stack frames of the recursive descent.
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax or name error in an input expression, with its position."""

    def __init__(self, message: str, pos: int, src: str):
        super().__init__(f"{message} at position {pos}: {src!r}")
        self.message = message
        self.pos = pos
        self.src = src


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos, src)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    """Recursive-descent reader over an ambient: a Poly in its variables, or
    an ExtElt once a generator enters.

    Generator tokens are only legal when `gens` maps them to basis indices.
    """

    def __init__(self, src: str, ambient: Ambient, gens: dict[str, int]):
        self.src = src
        self.ambient = ambient
        self.gens = gens
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0
        self.summands: list[tuple[int, Poly | ExtElt]] = []  # (position, value) of each top-level term

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1] or 'end of input'!r}", tok[2], self.src)
        return tok

    def parse(self) -> Poly | ExtElt:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2], self.src)
        return value

    def expr(self) -> Poly | ExtElt:
        negate = False
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            negate = True
        value = self.summand()
        if negate:
            value = -value
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.advance()[1]
            rhs = self.summand()
            value = value + rhs if op == "+" else value - rhs
        return value

    def summand(self) -> Poly | ExtElt:
        """One term of an expr; outside all parentheses it is kept with its position."""
        pos = self.peek()[2]
        value = self.term()
        if self.depth == 0:
            self.summands.append((pos, value))
        return value

    def term(self) -> Poly | ExtElt:
        value = self.factor()
        while self.peek()[0] == "wedge" or self.peek()[:2] == ("op", "*"):
            self.advance()
            value = value * self.factor()
        return value

    def factor(self) -> Poly | ExtElt:
        value = self.primary()
        while self.peek()[:2] == ("op", "^"):
            self.advance()
            tok = self.expect("number")
            value = value ** int(tok[1])
        return value

    def primary(self) -> Poly | ExtElt:
        kind, text, pos = self.advance()
        if kind == "number":
            c = int(text)
            if self.peek()[:2] == ("op", "/"):
                self.advance()
                dtok = self.expect("number")
                if int(dtok[1]) == 0:
                    raise ParseError("zero denominator", dtok[2], self.src)
                c = Fraction(c, int(dtok[1]))
            return Poly.constant(self.ambient.vars, c)
        if kind in ("generator", "name"):
            if text in self.gens:
                return ExtElt.generator(self.ambient, self.gens[text])
            if kind == "name" and text in self.ambient.vars:
                return Poly.variable(self.ambient.vars, text)
            raise ParseError(f"unknown {kind} {text!r}", pos, self.src)
        if (kind, text) == ("op", "("):
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos, self.src)
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            tok = self.advance()
            if tok[:2] != ("op", ")"):
                raise ParseError("expected ')'", tok[2], self.src)
            return value
        raise ParseError(f"unexpected {text or 'end of input'!r}", pos, self.src)


def parse_poly(src: str, vars: Sequence[str]) -> Poly:
    """Parse a polynomial over the given variables."""
    return _Parser(src, Ambient(tuple(vars), ()), {}).parse()


def parse_section(src: str, vars: Sequence[str]) -> tuple[Poly, ...]:
    """Parse a comma-separated list of polynomials; errors point into the whole input."""
    polys, start = [], 0
    for part in src.split(","):
        try:
            polys.append(parse_poly(part, vars))
        except ParseError as e:
            raise ParseError(e.message, start + e.pos, src) from None
        start += len(part) + 1
    return tuple(polys)


def _is_one_form(elt: ExtElt) -> bool:
    return all(len(subset) == 1 for _, subset in elt._num)


def parse_one_form(src: str, vars: Sequence[str]) -> Section:
    """Parse 'a_1*d_x1 + ... + a_n*d_xn' into a 1-form.

    The result is the Section of the polyvector ambient whose component i
    pairs with @x_i.  Every term must contain exactly one d_ generator;
    purely scalar or higher-wedge input is rejected, and so is a variable
    named like a generator (x and d_x), which the input could not tell apart.
    """
    vs = tuple(vars)
    ambient = form_ambient(vs)
    for name in vs:
        if name in ambient.gens:
            raise ValueError(f"variable {name!r} has the name of a 1-form generator")
    gens = {g: j for j, g in enumerate(ambient.gens)}
    parser = _Parser(src, ambient, gens)
    zero = ExtElt.zero(ambient)  # lifts a generator-free value, such as "0"
    elt = zero + parser.parse()
    if not _is_one_form(elt):
        # terms that cancel in the sum are fine, so the sum is checked first;
        # the error points at the first summand that has a bad term
        pos = next(pos for pos, value in parser.summands if not _is_one_form(zero + value))
        raise ParseError("expected a 1-form (every term needs exactly one d_ factor)", pos, src)
    return Section(polyvector_ambient(vs),
                   tuple(elt.coefficient_poly((i,)) for i in range(len(vs))))


def parse_polyvector(src: str, vars: Sequence[str]) -> ExtElt:
    """Parse a polyvector field written with @x generators and /\\ wedges."""
    vs = tuple(vars)
    ambient = polyvector_ambient(vs)
    gens = {g: j for j, g in enumerate(ambient.gens)}
    return ExtElt.zero(ambient) + _Parser(src, ambient, gens).parse()
