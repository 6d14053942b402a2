"""Exact sparse rank, checked against a plain Fraction Gaussian elimination."""

from fractions import Fraction
from math import gcd
from random import Random

import pytest

from dcrit.linalg import Echelon, rank_rows

BIG = 2 ** 64


def reference_pivots(rows) -> list[int]:
    """Pivot columns of textbook row reduction of the dense Fraction matrix."""
    ncols = 1 + max((c for r in rows for c in r), default=-1)
    m = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        pivots.append(col)
    return pivots


def reference_rank(rows) -> int:
    return len(reference_pivots(rows))


def reference_kept(rows) -> dict[int, dict[int, Fraction]]:
    """Per lead column, the Fraction row an Echelon keeps there: each row minus
    (its lead / the pivot's lead) times the pivot at that lead, until no pivot
    has its lead.  A pivot's scale does not change the result."""
    kept: dict[int, dict[int, Fraction]] = {}
    for raw in rows:
        row = {c: Fraction(v) for c, v in raw.items() if v}
        while row and min(row) in kept:
            pivot = kept[min(row)]
            k = row[min(row)] / pivot[min(row)]
            for c, v in pivot.items():
                row[c] = row.get(c, 0) - k * v
                if not row[c]:
                    del row[c]
        if row:
            kept[min(row)] = row
    return kept


def entry(rng: Random, kind: str):
    if kind == "mixed":
        kind = rng.choice(("int", "fraction", "big"))
    if kind == "int":
        return rng.choice((-1, 1)) * rng.randint(1, 4)
    if kind == "fraction":
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 6))
    return rng.choice((-1, 1)) * rng.randint(BIG, 4 * BIG)  # above 2**64


def sparse_row(rng: Random, kind: str, ncols: int, density: float) -> dict:
    return {c: entry(rng, kind) for c in range(ncols) if rng.random() < density}


def combination(rng: Random, kind: str, basis: list[dict]) -> dict:
    """A random combination of a few basis rows, so that rows cancel in elimination."""
    out: dict = {}
    for b in rng.sample(basis, rng.randint(1, len(basis))):
        k = entry(rng, kind)
        for c, v in b.items():
            out[c] = out.get(c, 0) + k * v
    return out


def matrix(rng: Random, kind: str) -> list[dict]:
    """Random sparse rows, low-rank combinations, and the degenerate rows elimination meets."""
    ncols = rng.randint(1, 9)
    rows = [sparse_row(rng, kind, ncols, rng.choice((0.2, 0.5, 0.9)))
            for _ in range(rng.randint(0, 8))]
    basis = [sparse_row(rng, kind, ncols, 0.5) for _ in range(rng.randint(1, 3))]
    rows += [combination(rng, kind, basis) for _ in range(rng.randint(0, 5))]
    rows.append({})
    rows.append({c: 0 for c in range(ncols)})  # explicit zeros
    if rows[0]:
        rows.append(dict(rows[0]))  # a duplicate
        k = entry(rng, kind)
        rows.append({c: k * v for c, v in rows[0].items()})  # a scaled copy
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed", "big"])
@pytest.mark.parametrize("seed", range(40))
def test_rank_matches_fraction_elimination(kind, seed):
    rows = matrix(Random(f"{kind}-{seed}"), kind)
    before = [dict(r) for r in rows]
    assert rank_rows(rows) == reference_rank(rows)
    assert rows == before  # elimination works on copies


@pytest.mark.parametrize("kind", ["int", "fraction"])
@pytest.mark.parametrize("seed", range(40))
def test_leads_are_the_reference_pivot_columns(kind, seed):
    rows = matrix(Random(f"leads-{kind}-{seed}"), kind)
    leads: set[int] = set()
    assert rank_rows(rows, leads) == rank_rows(rows) == reference_rank(rows)
    assert sorted(leads) == reference_pivots(rows)


@pytest.mark.parametrize("kind", ["int", "mixed"])
@pytest.mark.parametrize("seed", range(40))
def test_echelon_says_which_rows_are_independent(kind, seed):
    # row k is independent of rows 0..k-1 exactly when it raises the reference rank
    rows = matrix(Random(f"echelon-{kind}-{seed}"), kind)
    echelon = Echelon()
    added = [echelon.add(row) for row in rows]
    ranks = [reference_rank(rows[:k]) for k in range(len(rows) + 1)]
    assert added == [b > a for a, b in zip(ranks, ranks[1:])]
    assert echelon.rank == ranks[-1] == rank_rows(rows)
    assert sorted(echelon.pivots) == reference_pivots(rows)
    # every step scales the row by a positive factor, so the kept pivot is the
    # primitive positive integer multiple of the rational row, however it got there
    for lead, want in reference_kept(rows).items():
        got = echelon.pivots[lead]
        assert all(type(v) is int for v in got.values()) and gcd(*got.values()) == 1
        k = got[lead] / want[lead]
        assert k > 0 and got == {c: k * v for c, v in want.items()}


def test_leads_of_degenerate_and_echelon_matrices():
    leads: set[int] = set()
    assert rank_rows([{}, {4: 0}], leads) == 0 and leads == set()
    # the second row cancels at column 0, so its pivot is its next column
    assert rank_rows([{0: 2, 3: 1}, {0: 4, 1: Fraction(1, 3)}, {0: 6, 3: 3}], leads) == 2
    assert leads == {0, 1}


def test_degenerate_matrices():
    assert rank_rows([]) == 0
    assert rank_rows([{}, {}]) == 0
    assert rank_rows([{0: 0, 3: Fraction(0)}]) == 0
    assert rank_rows(iter([{0: 1}, {1: 1}])) == 2
    assert rank_rows([{0: 2, 1: 4}, {0: 2, 1: 4}]) == 1
    assert rank_rows([{0: 2, 1: 4}, {0: Fraction(-3, 7), 1: Fraction(-6, 7)}]) == 1


def test_leads_that_do_not_divide():
    # each pivot lead fails to divide the next row's lead, so rows are cross-multiplied
    assert rank_rows([{0: 2, 1: 1}, {0: 3, 1: 5}]) == 2
    assert rank_rows([{0: 2, 1: 4}, {0: 3, 1: 6}]) == 1
    assert rank_rows([{0: 4, 2: 6}, {0: 6, 1: 1, 2: 9}, {1: 2}]) == 2


def test_entries_above_two_to_the_64():
    a, b = BIG + 1, 3 * BIG - 7
    assert rank_rows([{0: a, 1: b}, {0: 2 * a, 1: 2 * b}]) == 1
    assert rank_rows([{0: a, 1: b}, {0: b, 1: a}]) == 2
    assert rank_rows([{0: Fraction(a, b), 1: 1}, {0: a, 1: b}]) == 1
