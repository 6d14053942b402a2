"""Exact rank of sparse matrices over Q.

Rows are dicts from column index to coefficient.  Each row is cleared to
integers, then eliminated against previously kept pivot rows using
fraction-free integer cross-multiplication with gcd normalization, so no
rounding or modular reduction ever happens.  Pivots are chosen at the
smallest column index, which keeps fill-in low for the banded, very sparse
matrices the slice differentials produce.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping


def _integer_row(row: Mapping[int, Fraction]) -> dict[int, int]:
    entries = {c: Fraction(v) for c, v in row.items() if v}
    denom = 1
    for v in entries.values():
        denom = denom * v.denominator // gcd(denom, v.denominator)
    return _normalize({c: int(v * denom) for c, v in entries.items()})


def _normalize(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    return row


def rank_rows(rows: Iterable[Mapping[int, Fraction]]) -> int:
    """Rank over Q of the matrix whose rows are the given sparse dicts."""
    pivots: dict[int, dict[int, int]] = {}
    for raw in rows:
        row = _integer_row(raw)
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = _normalize(row)
                break
            a = pivot[lead]
            b = row[lead]
            g = gcd(a, b)
            ma, mb = a // g, b // g
            new: dict[int, int] = {}
            for c in row.keys() | pivot.keys():
                v = ma * row.get(c, 0) - mb * pivot.get(c, 0)
                if v:
                    new[c] = v
            row = _normalize(new)
    return len(pivots)
