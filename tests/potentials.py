"""Seeded potentials of the three kinds the crit benchmark corpus draws.

(a) Brieskorn-Pham sums of pure powers, quasi-homogeneous for the weights
lcm/a_i; (b) sums of d-th powers of independent dense linear forms,
homogeneous; (c) (b) plus c*M^(d-1) for a dense linear form M, whose
Jacobian ideal is inhomogeneous.  Every one has a finite Milnor algebra:
prod(a_i - 1) for (a) and (d - 1)^n for (b) and (c), since the top-degree
form is nondegenerate.
"""

import random
from fractions import Fraction

from dcrit.poly import Poly

VARS = ("x", "y", "z", "w")
DENSE = (-2, -1, 1, 2)


def determinant(rows) -> Fraction:
    """Exact determinant of a square matrix of numbers, by elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            t = m[r][c] / m[c][c]
            m[r] = [a - t * b for a, b in zip(m[r], m[c])]
    return det


def linear_form(vars, row) -> Poly:
    n = len(vars)
    return Poly(vars, {tuple(int(i == k) for i in range(n)): c for k, c in enumerate(row)})


def brieskorn_pham(rng: random.Random, n: int, lo: int = 2, hi: int = 5) -> Poly:
    """Kind (a): sum of x_i^a_i with a_i drawn from lo..hi."""
    vars = VARS[:n]
    return Poly(vars, {tuple(rng.randint(lo, hi) if i == k else 0 for i in range(n)): 1
                       for k in range(n)})


def power_sum(rng: random.Random, n: int, d: int, lower: bool = False) -> Poly:
    """Kind (b): sum of L_i^d for dense independent linear forms; kind (c) with `lower`."""
    vars = VARS[:n]
    while True:
        forms = [[rng.choice(DENSE) for _ in range(n)] for _ in range(n)]
        if determinant(forms):
            break
    f = Poly.zero(vars)
    for row in forms:
        f = f + linear_form(vars, row) ** d
    if lower:
        extra = linear_form(vars, [rng.choice(DENSE) for _ in range(n)])
        f = f + rng.randint(1, 3) * extra ** (d - 1)
    return f


def corpus(seed: int) -> list[tuple[Poly, int]]:
    """One small potential of each kind, drawn from the seed, with its Milnor number."""
    rng = random.Random(seed)
    pham = brieskorn_pham(rng, rng.choice([2, 3]))
    mu = 1
    for e in pham.terms:
        mu *= max(e) - 1
    n, d = rng.choice([2, 3]), 3
    out = [(pham, mu), (power_sum(rng, n, d), (d - 1) ** n)]
    d = rng.choice([3, 4])
    return out + [(power_sum(rng, 2, d, lower=True), (d - 1) ** 2)]
