"""Exact rank of sparse matrices over Q.

Rows are dicts from column index to coefficient.  A row of Python ints is
taken as it is; any other row is multiplied by the lcm of its denominators
and divided by its content.
All three callers in the package hand in int rows: the slice differentials
of `cohomology.hilbert_table`, the exponent differences of `symplectic._grading`,
and `symplectic.obstruction_theory`, which scales each column of the
restricted Hessian to integers.

An `Echelon` takes rows one at a time.  Each is eliminated in place
against the pivot rows kept so far: when the pivot's leading coefficient
divides the row's, a multiple of the pivot is subtracted; otherwise the row
is first multiplied by |a|/gcd(a, b), a and b the two leading coefficients.
Every step scales the row by a positive factor, so the row is divided by
its content only once, when it becomes a pivot, and the kept pivot is the
primitive positive integer multiple of the row a rational elimination keeps
there.  No rounding or modular reduction ever happens.  `add` says whether
the row was independent of the ones before it, which lets
`obstruction_theory` decide, row by row, which later rows it need not build
at all.  `rank_rows` is a loop over one Echelon.  Pivots are chosen at the
smallest column index, which keeps fill-in low for the banded, very sparse
matrices the slice differentials produce.

The pivot columns, handed out through `leads`, are the leading columns of
the row space: the columns at which some vector of the span starts.  The
slice tables use them to clear rows of the next differential.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping


def _integer_row(row: Mapping[int, int | Fraction]) -> dict[int, int]:
    """A fresh integer row with the same span; the caller's row is not touched."""
    if all(type(v) is int for v in row.values()):
        return {c: v for c, v in row.items() if v}
    d = lcm(*[v.denominator for v in row.values()])
    return _normalize({c: v.numerator * (d // v.denominator) for c, v in row.items() if v})


def _normalize(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    return row


class Echelon:
    """Rows in echelon form over Q, grown one row at a time.

    `pivots` maps each pivot column to its kept integer row, of content 1,
    whose entry there is the row's leading one; the rank is the number of
    pivots.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    def add(self, raw: Mapping[int, int | Fraction]) -> bool:
        """Eliminate a row against the pivots; keep it and return True when it
        is independent of the rows added before it, else return False.

        The caller's row is not touched.
        """
        pivots = self.pivots
        row = _integer_row(raw)
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = _normalize(row)
                return True
            a = pivot[lead]
            b = row[lead]
            mb, r = divmod(b, a)
            if r:
                g = gcd(a, b)
                ma, mb = a // g, b // g
                if ma < 0:
                    ma, mb = -ma, -mb
                for c in row:
                    row[c] *= ma
            for c, v in pivot.items():
                v = row.get(c, 0) - mb * v
                if v:
                    row[c] = v
                else:
                    del row[c]  # absent entries cannot cancel: mb and v are nonzero
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rank_rows(rows: Iterable[Mapping[int, int | Fraction]],
              leads: set[int] | None = None) -> int:
    """Rank over Q of the matrix whose rows are the given sparse dicts.

    When `leads` is given, the pivot columns are added to it.
    """
    echelon = Echelon()
    for row in rows:
        echelon.add(row)
    if leads is not None:
        leads.update(echelon.pivots)
    return echelon.rank
