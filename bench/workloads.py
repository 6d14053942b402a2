"""Seeded problem generators for the three benchmark workloads.

Problem i of a workload depends only on (workload, seed, i).  The shape of
problem i (which command, how many variables, which degree) cycles through a
fixed list, so every prefix of a run has the same mix; the seed draws the
coefficients, exponents and check seeds within that shape.  dcrit sees only
the generated command line.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from random import Random

VARS = ("x", "y", "z", "w")


@dataclass(frozen=True)
class Problem:
    kind: str
    argv: tuple[str, ...]
    params: dict


# -- integer polynomials as {exponents: coefficient}, printed for the parser

def poly_str(terms: dict[tuple[int, ...], int], vars) -> str:
    parts = []
    for exps, c in sorted(terms.items(), key=lambda t: (-sum(t[0]), [-e for e in t[0]])):
        if c == 0:
            continue
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(vars, exps) if e)
        mag = abs(c)
        body = mono if mono and mag == 1 else (f"{mag}*{mono}" if mono else str(mag))
        parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


def linear_str(row, vars) -> str:
    n = len(vars)
    return poly_str({tuple(int(k == i) for k in range(n)): c for i, c in enumerate(row)}, vars)


def determinant(matrix) -> int:
    """Exact integer determinant (Bareiss fraction-free elimination)."""
    a = [list(r) for r in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def invertible_matrix(rng: Random, n: int, entries=(-2, -1, 0, 1, 2)):
    while True:
        m = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        if determinant(m) != 0:
            return m


def _monomial(rng: Random, n: int, degree: int) -> tuple[int, ...]:
    exps = [0] * n
    for _ in range(degree):
        exps[rng.randrange(n)] += 1
    return tuple(exps)


def _power(base: str, e: int) -> str:
    return f"({base})" if e == 1 else f"({base})^{e}"


DENSE = (-2, -1, 1, 2)


def _nonzero(rng: Random, bound: int) -> int:
    return rng.choice([-1, 1]) * rng.randint(1, bound)


# -- crit-corpus ---------------------------------------------------------------

def _crit_pham(rng: Random, n: int, lo: int, hi: int) -> Problem:
    exps = [rng.randint(lo, hi) for _ in range(n)]
    top = lcm(*exps)
    weights = [top // a for a in exps]
    socle = sum((a - 2) * w for a, w in zip(exps, weights))
    vars = VARS[:n]
    f = " + ".join(f"{v}^{a}" for v, a in zip(vars, exps))
    argv = ("crit", "--vars", ",".join(vars), "-f", f,
            "--weights", ",".join(map(str, weights)), "--cutoff", str(socle + 1))
    return Problem("crit-a", argv, {"exponents": exps, "weights": weights, "cutoff": socle + 1})


def _crit_powers(rng: Random, n: int, d: int, lower: bool) -> Problem:
    """Sum of d-th powers of independent linear forms; with `lower`, plus c*M^(d-1).

    Every coefficient of every form is nonzero, so the potential is dense,
    and so is its lower-degree part, which makes the Jacobian ideal
    inhomogeneous.
    """
    vars = VARS[:n]
    forms = invertible_matrix(rng, n, entries=DENSE)
    f = " + ".join(f"({linear_str(row, vars)})^{d}" for row in forms)
    if lower:
        extra = [rng.choice(DENSE) for _ in range(n)]
        f += f" + {rng.randint(1, 3)}*({linear_str(extra, vars)})^{d - 1}"
    cutoff = n * (d - 2) + 1
    argv = ("crit", "--vars", ",".join(vars), "-f", f, "--cutoff", str(cutoff))
    return Problem("crit-c" if lower else "crit-b", argv,
                   {"n": n, "d": d, "homogeneous": not lower, "cutoff": cutoff})


# Ordered by cost, the (3, 3) power sums and the (2, 4) inhomogeneous
# potential sit in the middle, so the median problem comes from one tight
# cost class and stays put across seeds.  The three heaviest shapes set the
# tail.
CRIT_SHAPES = (
    lambda r: _crit_pham(r, 2, 3, 7),
    lambda r: _crit_powers(r, 3, 3, False),
    lambda r: _crit_powers(r, 2, 4, False),
    lambda r: _crit_powers(r, 2, 4, True),
    lambda r: _crit_powers(r, 3, 4, False),
    lambda r: _crit_pham(r, 3, 3, 5),
    lambda r: _crit_powers(r, 3, 3, False),
    lambda r: _crit_powers(r, 3, 3, True),
    lambda r: _crit_powers(r, 4, 3, False),
    lambda r: _crit_pham(r, 4, 2, 4),
    lambda r: _crit_powers(r, 2, 5, False),
    lambda r: _crit_powers(r, 3, 3, False),
    lambda r: _crit_powers(r, 2, 5, True),
    lambda r: _crit_powers(r, 2, 6, True),
    lambda r: _crit_powers(r, 2, 6, False),
)


# -- koszul-slices -------------------------------------------------------------

def _fancy(rng: Random, pairs) -> Problem:
    n, m, cutoff = rng.choice(pairs)
    argv = ("fancy", "--vars", ",".join(VARS[:n]), "--rank", str(m), "--cutoff", str(cutoff))
    return Problem("fancy", argv, {"n": n, "m": m, "cutoff": cutoff})


def _zero(rng: Random, n: int, degrees: tuple[int, ...], common: int) -> Problem:
    """Powers of independent dense linear forms, times a common factor of degree `common`.

    common = 0 gives a regular sequence; common > 0 gives a section whose
    Koszul complex has H^-1 != 0.
    """
    vars = VARS[:n]
    forms = invertible_matrix(rng, n, entries=DENSE)[:len(degrees)]
    factor = ""
    if common:
        row = [rng.choice(DENSE) for _ in range(n)]
        factor = _power(linear_str(row, vars), common) + "*"
    section = ", ".join(factor + _power(linear_str(row, vars), d) for row, d in zip(forms, degrees))
    cutoff = common + sum(degrees) + 5
    argv = ("zero", "--vars", ",".join(vars), "--section", section, "--cutoff", str(cutoff))
    return Problem("zero-common" if common else "zero-regular", argv,
                   {"n": n, "degrees": list(degrees), "common": common, "cutoff": cutoff})


# The cutoff runs 5 weights past the top section degree, so slicing outweighs
# the Groebner bases that `zero` computes for its H^0 dimension.  Ordered by
# cost, the four sections over three variables of degrees (1, 2, 2) and
# (2, 2, 2) sit in the middle, so the median problem comes from one tight
# cost class; the two heaviest fancy pools and sections set the tail.
KOSZUL_SHAPES = (
    lambda r: _zero(r, 2, (3, 4), 0),
    lambda r: _zero(r, 3, (1, 2, 2), 1),
    lambda r: _fancy(r, [(3, 2, 8), (3, 3, 6), (3, 4, 5)]),
    lambda r: _zero(r, 3, (2, 2, 2), 0),
    lambda r: _zero(r, 2, (2, 3), 2),
    lambda r: _zero(r, 3, (2, 2, 2), 1),
    lambda r: _fancy(r, [(3, 3, 8), (2, 3, 9)]),
    lambda r: _zero(r, 3, (2, 3), 0),
    lambda r: _zero(r, 3, (1, 2, 2), 1),
    lambda r: _zero(r, 1, (5,), 0),
    lambda r: _zero(r, 3, (2, 2, 3), 0),
    lambda r: _fancy(r, [(2, 4, 7), (1, 4, 8)]),
    lambda r: _zero(r, 3, (2, 2, 2), 0),
    lambda r: _zero(r, 3, (2, 2), 1),
)


# -- identity-suites -----------------------------------------------------------

def _check(rng: Random, which: str, trials: int, **size) -> Problem:
    argv = ["check", which, "--trials", str(trials), "--seed", str(rng.randrange(10 ** 6)),
            "--expect-holds"]
    for key, value in size.items():
        argv += [f"--{key}", str(value)]
    return Problem(which, tuple(argv), {"which": which, "trials": trials, **size})


def _compat_exact(rng: Random, n: int, trials: int) -> Problem:
    """compat on d(f) for a random f: closed, so the identity must hold."""
    vars = VARS[:n]
    f: dict = {}
    while len([c for c in f.values() if c]) < 2:
        exps = _monomial(rng, n, rng.randint(2, 3))
        f[exps] = f.get(exps, 0) + _nonzero(rng, 3)
    parts = []
    for i, v in enumerate(vars):
        partial: dict = {}
        for exps, c in f.items():
            if exps[i] and c:
                e = list(exps)
                e[i] -= 1
                partial[tuple(e)] = partial.get(tuple(e), 0) + c * exps[i]
        if any(partial.values()):
            parts.append(f"({poly_str(partial, vars)})*d_{v}")
    argv = ("check", "compat", "--vars", ",".join(vars), "--alpha", " + ".join(parts),
            "--trials", str(trials), "--seed", str(rng.randrange(10 ** 6)), "--expect-holds")
    return Problem("compat-exact", argv,
                   {"which": "compat", "trials": trials + n * (n - 1) // 2})


def _compat_pinned(rng: Random, trials: int) -> Problem:
    """The recorded falsification: alpha = y*d_x is not closed."""
    argv = ("check", "compat", "--vars", "x,y", "--alpha", "y*d_x",
            "--trials", str(trials), "--seed", str(rng.randrange(10 ** 6)))
    return Problem("compat-pinned", argv, {"which": "compat", "pinned": True})


IDENTITY_SHAPES = (
    lambda r: _check(r, "gerstenhaber", 40, n=1),
    lambda r: _check(r, "coalgebra", 30, rank=1),
    lambda r: _check(r, "bv", 20, n=2),
    lambda r: _compat_exact(r, 2, 20),
    lambda r: _check(r, "gerstenhaber", 20, n=2),
    lambda r: _check(r, "coalgebra", 20, rank=2),
    lambda r: _compat_pinned(r, 20),
    lambda r: _check(r, "gerstenhaber", 15, n=3),
    lambda r: _check(r, "coalgebra", 10, rank=3),
    lambda r: _check(r, "bv", 15, n=3),
    lambda r: _compat_exact(r, 3, 15),
    lambda r: _check(r, "coalgebra", 6, rank=4),
)


SHAPES = {
    "crit-corpus": CRIT_SHAPES,
    "koszul-slices": KOSZUL_SHAPES,
    "identity-suites": IDENTITY_SHAPES,
}


def problem(workload: str, seed: int, index: int) -> Problem:
    shapes = SHAPES[workload]
    rng = Random(f"{workload}/{seed}/{index}")
    p = shapes[index % len(shapes)](rng)
    return Problem(p.kind, p.argv + ("--json", "--no-timing"), p.params)
