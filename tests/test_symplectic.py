"""Hessian pairings, obstruction ranks, and graph-Lagrangian intersections."""

import json
import random
from collections import defaultdict
from fractions import Fraction
from math import lcm
from operator import le, mul

import pytest

import dcrit.cli
import dcrit.groebner
import dcrit.symplectic
import potentials
from dcrit.cli import main
from dcrit.groebner import INFINITE, buchberger, normal_form, standard_monomials
from dcrit.linalg import Echelon, rank_rows
from dcrit.parsing import parse_one_form, parse_poly
from dcrit.poly import Poly, gradient
from dcrit.polyvec import exact_form
from dcrit.koszul import KoszulComplex, build_koszul
from dcrit.symplectic import (NotClosedError, intersect_graph_lagrangians, is_symmetric,
                              minus_one_pairing, obstruction_theory)

VS = ("x", "y")


def P(src, vars=VS):
    return parse_poly(src, vars)


def crit_locus(f):
    """The derived critical locus of f: the Koszul complex of df."""
    return build_koszul(f.vars, gradient(f))


def test_hessian_values():
    # the Jacobian of the complex of df is the Hessian of f
    assert crit_locus(P("x*y")).jacobian == ((P("0"), P("1")), (P("1"), P("0")))
    assert crit_locus(P("x^3 + y^3")).jacobian == ((P("6*x"), P("0")), (P("0"), P("6*y")))
    assert is_symmetric(crit_locus(P("x^4*y + x*y^3 - 2*x")).jacobian)


def test_a_given_hessian_gives_the_same_reports():
    # the Jacobian of the critical locus is the Hessian, and both reports read it
    f = P("x^4*y + x*y^3 - 2*x")
    locus = crit_locus(f)
    assert locus.jacobian == ((P("12*x^2*y"), P("4*x^3 + 3*y^2")),
                              (P("4*x^3 + 3*y^2"), P("6*x*y")))
    assert minus_one_pairing(locus).matrix == locus.jacobian
    assert obstruction_theory(locus).hessian == locus.jacobian
    # one component, or none, over two variables: the Jacobian is not square
    for short in (build_koszul(VS, gradient(f)[:1]), build_koszul(VS, [])):
        with pytest.raises(ValueError, match="one section component per variable"):
            obstruction_theory(short)
        with pytest.raises(ValueError, match="one section component per variable"):
            minus_one_pairing(short)


def test_crit_takes_the_gradient_once(monkeypatch, capsys):
    calls = []

    def counting(f):
        calls.append(f)
        return gradient(f)

    monkeypatch.setattr(dcrit.cli, "gradient", counting)
    assert main(["crit", "--vars", "x,y", "-f", "x^3 + y^3", "--json", "--no-timing"]) == 0
    doc = json.loads(capsys.readouterr().out)["results"]
    assert doc["pairing"]["hessian"] == doc["obstruction"]["hessian"] == ["6*x", "0", "0", "6*y"]
    assert len(calls) == 1


def test_tangent_complex_shape():
    # T^0 -> T^1 is given by its one differential, the Hessian, a square matrix
    f = P("x^3 + y^3")
    report = minus_one_pairing(crit_locus(f))
    assert [len(row) for row in report.matrix] == [2, 2]
    assert report.matrix == crit_locus(f).jacobian


def test_pairing_symmetric_iff_nondegenerate():
    report = minus_one_pairing(crit_locus(P("x^3 + y^3")))
    assert report.symmetric and report.nondegenerate
    assert report.to_json() == {"hessian": ["6*x", "0", "0", "6*y"],
                                "symmetric": True, "nondegenerate": True}

    # the section (y, 0) has Jacobian [[0, 1], [0, 0]]: no pairing
    adversarial = minus_one_pairing(build_koszul(VS, [P("y"), P("0")]))
    assert adversarial.matrix == ((P("0"), P("1")), (P("0"), P("0")))
    assert not adversarial.symmetric and not adversarial.nondegenerate


def test_obstruction_isolated_degenerate():
    report = obstruction_theory(crit_locus(P("x^3 + y^3")))
    assert report.quotient_dim == 4
    assert report.h0 == 4 and report.h1 == 4
    assert report.hessian_invertible is False


def test_obstruction_nondegenerate_point():
    report = obstruction_theory(crit_locus(P("x^2 + y^2")))
    assert report.quotient_dim == 1
    assert report.h0 == 0 and report.h1 == 0
    assert report.hessian_invertible is True


def test_obstruction_non_isolated():
    report = obstruction_theory(crit_locus(P("x^2*y^2")))
    assert report.quotient_dim is INFINITE
    assert report.h0 is None and report.h1 is None
    assert report.to_json()["quotient_dim"] == INFINITE


def test_graph_intersection_matches_koszul():
    f = P("x^3 + y^3")
    complex = intersect_graph_lagrangians(exact_form(f), exact_form(P("0")))
    direct = build_koszul(VS, list(gradient(f)))
    for p in direct.degrees:
        assert complex.differential_matrix(p) == direct.differential_matrix(p)
    pairing = minus_one_pairing(complex)
    assert pairing.symmetric and pairing.nondegenerate


@pytest.mark.parametrize("seed", range(6))
def test_graph_intersection_is_the_critical_locus_on_seeded_potentials(seed):
    # graph(df) meets the zero section in the derived zero locus of df: the
    # Koszul complex of df, with the critical locus's pairing
    rng = random.Random(seed)
    for f in seeded_potentials(seed) + [potentials.brieskorn_pham(rng, rng.choice([1, 2, 3]))]:
        complex = intersect_graph_lagrangians(exact_form(f), exact_form(Poly.zero(f.vars)))
        assert isinstance(complex, KoszulComplex)
        assert minus_one_pairing(complex) == minus_one_pairing(build_koszul(f.vars, gradient(f)))


def test_graph_intersection_of_two_forms():
    alpha = exact_form(P("x^2"))
    beta = exact_form(P("y^2"))
    complex = intersect_graph_lagrangians(alpha, beta)
    # difference section (2x, -2y) cuts out the origin
    assert complex.section.components == (P("2*x"), P("-2*y"))


def test_non_closed_input_is_rejected_with_witness():
    with pytest.raises(NotClosedError) as e:
        intersect_graph_lagrangians(parse_one_form("y*d_x", VS), exact_form(P("0")))
    assert e.value.label == "alpha"
    assert e.value.witness["pair"] == ("x", "y")
    assert "mixed partials differ" in str(e.value)

    with pytest.raises(NotClosedError) as e:
        intersect_graph_lagrangians(exact_form(P("0")), parse_one_form("x^2*d_y", VS))
    assert e.value.label == "beta"


def test_mismatched_variables_are_rejected():
    with pytest.raises(ValueError):
        intersect_graph_lagrangians(exact_form(P("0")), exact_form(parse_poly("0", ("x",))))


# -- the obstruction report against per-entry reduction ----------------------

def locus_of(src, vars=VS):
    """The complex of a section given as comma-separated components, or the
    critical locus of a potential given as one polynomial."""
    if "," in src:
        return build_koszul(vars, [P(c, vars) for c in src.split(",")])
    return crit_locus(P(src, vars))


def reference_rows(locus, gb):
    """The block rows obstruction_theory built before the quotient's matrices:
    h[i][j]*m reduced by division for every entry and every standard monomial."""
    h = locus.jacobian
    vars = locus.ambient.vars
    monos = standard_monomials(gb)
    if monos is None:
        return None
    mu, n = len(monos), len(vars)
    index = {m: k for k, m in enumerate(monos)}
    rows = [dict() for _ in range(n * mu)]
    for j in range(n):
        for col_m, mono in enumerate(monos):
            col = j * mu + col_m
            for i in range(n):
                reduced = normal_form(h[i][j] * Poly.monomial(vars, mono), gb)
                for exps, c in reduced.terms.items():
                    row = rows[i * mu + index[exps]]
                    row[col] = row.get(col, 0) + c
    return rows


def reference_columns(rows, n, mu):
    """((t, j), column (t, j) of the reference rows), t ascending and then j:
    the order obstruction_theory takes the columns in."""
    out = []
    for t in range(mu):
        for j in range(n):
            col = j * mu + t
            out.append(((t, j), {r: row[col] for r, row in enumerate(rows) if col in row}))
    return out


def positive_multiple(got, want):
    """True when the sparse vector got is a positive integer times want."""
    if got.keys() != want.keys():
        return False
    if not got:
        return True
    r = next(iter(got))
    k = Fraction(got[r]) / want[r]
    return k > 0 and k.denominator == 1 and got == {r: k * v for r, v in want.items()}


def skipped_outside_span(eliminated, columns, blocks=None, top=0):
    """The (t, j) of each skipped column that is not in the span of the columns
    of its block before it, and whose block is not above the middle.

    `blocks` maps (t, j) to its block a, every block 0 when it is None, and
    a block lies above the middle when 2a > top.  The eliminated rows are
    matched, in order, to reference columns, each row a positive integer
    multiple of its column; the columns no row is matched to are the skipped
    ones.  A row that matches no later column, or a column above the middle,
    fails outright.  If the list is empty, the eliminated rows span what all
    the columns at or below the middle span.
    """
    block = (lambda key: 0) if blocks is None else blocks.__getitem__
    matched, p = set(), 0
    for row in eliminated:
        while p < len(columns) and not positive_multiple(row, columns[p][1]):
            p += 1
        assert p < len(columns), f"the eliminated row {row} is no reference column"
        assert 2 * block(columns[p][0]) <= top, f"{columns[p][0]} lies above the middle"
        matched.add(p)
        p += 1
    echelons = defaultdict(Echelon)
    return [key for p, (key, col) in enumerate(columns)
            if echelons[block(key)].add(col) and p not in matched and 2 * block(key) <= top]


def column_blocks(locus, monos):
    """({(t, j): block a}, top) for the columns of the restricted Jacobian, t
    indexing monos, with top = sigma - D; None when the Jacobian is not
    symmetric or the section has no weights.

    sigma is read off the quotient, as the largest weight of a standard
    monomial: the degree of the socle of the graded Gorenstein algebra R/J.
    """
    weights = dcrit.symplectic._grading(locus.section)
    if not is_symmetric(locus.jacobian) or weights is None or not monos:
        return None
    ws, d = weights
    for i, s in enumerate(locus.section.components):
        assert s.weighted_degree(ws) == d - ws[i]
    wdeg = [sum(map(mul, ws, m)) for m in monos]
    blocks = {(t, j): wdeg[t] - ws[j] for t in range(len(monos)) for j in range(len(ws))}
    return blocks, max(wdeg) - d


def assert_obstruction_matches_reference(locus, monkeypatch):
    """obstruction_theory's report against n*mu - rank of the reference rows;
    returns the report and the number of columns it eliminated.  `locus` is a
    complex, or a potential whose critical locus is taken."""
    if isinstance(locus, Poly):
        locus = crit_locus(locus)
    vars = locus.ambient.vars
    gb = buchberger(list(locus.section.components) or [Poly.zero(vars)])  # the reference's own basis
    made = []

    class Recording(Echelon):
        def __init__(self):
            super().__init__()
            self.rows = []
            made.append(self)

        def add(self, row):
            self.rows.append(dict(row))
            return super().add(row)

    monkeypatch.setattr(dcrit.symplectic, "Echelon", Recording)
    report = obstruction_theory(locus)
    expected = reference_rows(locus, gb)
    assert report.hessian == locus.jacobian
    if expected is None:
        assert made == []
        assert (report.quotient_dim, report.h0, report.h1, report.hessian_invertible) == (
            INFINITE, None, None, None)
        return report, 0
    monos, n = standard_monomials(gb), len(vars)
    mu = len(monos)
    # a symmetric Jacobian's grading is looked for with one echelon of its own,
    # made first; every column goes into one more
    assert len(made) == 1 + (report.symmetric and n > 0) and len(expected) == n * mu
    eliminated = made[-1].rows
    assert all(type(v) is int for row in eliminated for v in row.values())
    blocks, top = column_blocks(locus, monos) or (None, 0)
    assert skipped_outside_span(eliminated, reference_columns(expected, n, mu), blocks, top) == []
    rank = rank_rows(expected)
    assert (report.quotient_dim, report.h0, report.h1, report.hessian_invertible) == (
        mu, n * mu - rank, n * mu - rank, rank == n * mu)
    return report, len(eliminated)


def seeded_potentials(seed):
    rng = random.Random(seed)
    homogeneous = potentials.power_sum(rng, rng.choice([2, 3]), rng.choice([3, 4]))
    inhomogeneous = potentials.power_sum(rng, 2, rng.choice([3, 4]), lower=True)
    weighted = potentials.brieskorn_pham(rng, rng.choice([2, 3]))
    return [homogeneous, inhomogeneous, weighted]


@pytest.mark.parametrize("seed", range(6))
def test_obstruction_matches_per_entry_reduction_on_seeded_potentials(seed, monkeypatch):
    for f in seeded_potentials(seed):
        assert_obstruction_matches_reference(f, monkeypatch)


XYZ = ("x", "y", "z")
NON_DIAGONAL = [
    ("x^2*y + y^4", VS),                       # D5, weights (3, 2)
    ("x^3 + x*y^3", VS),                       # E7, weights (3, 2)
    ("x^2*y + y^3 + z^2", XYZ),                # D4
    ("x^3*y + y^3*z + z^3*x", XYZ),            # Klein's quartic: mu = 27, h0 = 44
    ("x^4 + y^4 + z^4 + x^2*y*z", XYZ),        # homogeneous, not a sum of powers
]


@pytest.mark.parametrize("src, vars", NON_DIAGONAL[:3] + [
    ("x^4 + x^2*y^2 + y^5 + x*y", VS),         # not quasi-homogeneous
    ("x^3 - 3*x + y^2", VS),                   # two critical points
] + NON_DIAGONAL[3:] + [
    ("y^2, x^3", VS),                          # weights (1, 2), not symmetric: mu = 6, h0 = 7
])
def test_obstruction_matches_per_entry_reduction_on_fixed_potentials(src, vars, monkeypatch):
    assert_obstruction_matches_reference(locus_of(src, vars), monkeypatch)


def test_obstruction_edge_cases_match_per_entry_reduction(monkeypatch, capsys):
    report, _ = assert_obstruction_matches_reference(P("x^2*y^2"), monkeypatch)
    assert report.to_json()["quotient_dim"] == INFINITE
    report, _ = assert_obstruction_matches_reference(P("x + y^2"), monkeypatch)
    assert (report.quotient_dim, report.h0, report.h1, report.hessian_invertible) == (0, 0, 0, True)
    report, _ = assert_obstruction_matches_reference(P("3", ()), monkeypatch)
    assert (report.quotient_dim, report.h0, report.h1, report.hessian_invertible) == (1, 0, 0, True)
    assert main(["crit", "--vars", "", "-f", "3", "--json", "--no-timing"]) == 0
    doc = json.loads(capsys.readouterr().out)["results"]
    assert doc["obstruction"] == report.to_json()


@pytest.mark.parametrize("src, eliminated", [("x^3 + y^4 + z^5", 16), ("x^2 + y^5 + z^3", 7)])
def test_each_power_above_two_costs_one_dependent_column(src, eliminated, monkeypatch):
    # on A = (x) Q[x_i]/(x_i^(a_i - 1)) column (t, i) is a_i(a_i - 1) x_i^(a_i - 2) t e_i:
    # it vanishes exactly when x_i divides t and a_i >= 3, so the first dependent
    # column of variable i is (x_i, i), and every later multiple of x_i is skipped.
    # Only blocks at or below the middle are eliminated: those of the nonzero
    # columns, and (x_i, i) in block 0 when 0 <= top.  For x^2 + y^5 + z^3,
    # top = 28 - 30 = -2, so no dependent column is eliminated at all
    f = P(src, XYZ)
    report, count = assert_obstruction_matches_reference(f, monkeypatch)
    exps = [max(e) for e in sorted(f.terms, reverse=True)]  # a_i, in variable order
    locus = crit_locus(f)
    monos = standard_monomials(locus.ideal)
    blocks, top = column_blocks(locus, monos)
    nonzero = sum(1 for (t, i), a in blocks.items()
                  if 2 * a <= top and (exps[i] == 2 or monos[t][i] == 0))
    first_zero = sum(1 for a in exps if a >= 3) if top >= 0 else 0
    assert count == nonzero + first_zero == eliminated


def test_each_eliminated_column_costs_at_most_one_product(monkeypatch):
    # columns are taken t ascending, so the value of t*x_k's entry comes from that
    # of t, kept by the walk: once the M_k are built, a column costs at most one
    # matrix-vector product.  A column skipped above the middle never sits
    # below an eliminated one: (t*x_k, j) lies in a block at least that of (t, j).
    # On x^300 + y^300, mu = 299^2 = 89,401 and h0 = mu * sum_i (a_i - 2)/(a_i - 1)
    # = 178,204; with weights (1, 1), D = 300 and top = 596 - 300, column (t, j)
    # is eliminated when deg t <= 149 and x_j does not divide t, or t = x_j:
    # 2 * 150 + 2 columns of 2 * mu
    locus = crit_locus(P("x^300 + y^300"))
    locus.ideal.matrices
    applied, made = [], []
    real_apply = dcrit.groebner._apply

    def apply(columns, v):
        applied.append(1)
        return real_apply(columns, v)

    class Counting(Echelon):
        def __init__(self):
            super().__init__()
            self.adds = 0
            made.append(self)

        def add(self, row):
            self.adds += 1
            return super().add(row)

    monkeypatch.setattr(dcrit.groebner, "_apply", apply)
    monkeypatch.setattr(dcrit.symplectic, "Echelon", Counting)
    report = obstruction_theory(locus)
    assert (report.quotient_dim, report.h0) == (89401, 178204)
    # the last echelon takes the columns; the one before it, the grading
    assert 0 < len(applied) <= made[-1].adds == 302


# -- the obstruction numbers against closed forms -----------------------------

def closed_form_cases(seed):
    """(potential, its h0 = h1) from a closed form, drawn from the seed.

    f = sum_i x_i^a_i has a diagonal Hessian and R/J = (x) Q[x_i]/(x_i^(a_i - 1)),
    so h0 = h1 = sum_i mu (a_i - 2)/(a_i - 1).  A sum of d-th powers of n
    independent linear forms is that case after a change of coordinates, with
    every a_i = d: h0 = h1 = n (d - 2) (d - 1)^(n - 1).
    """
    rng = random.Random(f"closed-form-{seed}")
    n = rng.randint(1, 3)
    exps = [rng.randint(2, 6 if n < 3 else 5) for _ in range(n)]
    pham = Poly(potentials.VARS[:n], {tuple(a if i == k else 0 for i in range(n)): 1
                                      for k, a in enumerate(exps)})
    mu = 1
    for a in exps:
        mu *= a - 1
    n, d = rng.randint(1, 3), rng.randint(2, 5)
    if n == 3:
        d = min(d, 4)
    powers = potentials.power_sum(rng, n, d)
    return [(pham, sum(mu * (a - 2) // (a - 1) for a in exps)),
            (powers, n * (d - 2) * (d - 1) ** (n - 1))]


def closed_form_misses(seeds, capsys):
    """Each seeded case whose obstruction numbers, as crit reports them, miss the closed form."""
    misses = []
    for seed in seeds:
        for f, h in closed_form_cases(seed):
            assert main(["crit", "--vars", ",".join(f.vars), f"--function={f}",
                         "--obstruction", "--json", "--no-timing"]) == 0
            got = json.loads(capsys.readouterr().out)["results"]["obstruction"]
            if (got["h0"], got["h1"]) != (h, h):
                misses.append((str(f), h, got["h0"], got["h1"]))
    return misses


def test_closed_form_examples():
    xyz = ("x", "y", "z")
    assert obstruction_theory(crit_locus(P("x^2 + y^5 + z^3", xyz))).h0 == 10  # mu = 8: 0 + 6 + 4
    assert obstruction_theory(crit_locus(P("x^3 + y^3 + z^3", xyz))).h0 == 12  # n = 3, d = 3


@pytest.mark.parametrize("seeds", [range(0, 12), range(12, 24)])
def test_obstruction_numbers_match_closed_forms(seeds, capsys):
    assert closed_form_misses(seeds, capsys) == []


def test_closed_forms_catch_a_dropped_hessian_entry(monkeypatch, capsys):
    real = dcrit.symplectic.obstruction_theory

    def dropped(locus):
        h = [list(row) for row in locus.jacobian]
        h[-1][-1] = Poly.zero(locus.ambient.vars)
        locus.jacobian = tuple(map(tuple, h))
        return real(locus)

    monkeypatch.setattr(dcrit.symplectic, "obstruction_theory", dropped)
    monkeypatch.setattr(dcrit.cli, "obstruction_theory", dropped)
    # all but two of the twelve: without that entry the restricted Hessian
    # keeps its rank on a nondegenerate quadric and on -48*x^2*y - 16*y^3
    assert len(closed_form_misses(range(6), capsys)) == 10


def shared_list_eliminations(columns, monos):
    """The columns a wrong skip rule eliminates: one list of dependent
    monomials shared by every j, in place of one list per j."""
    echelon, dead, out = Echelon(), [], []
    for (t, j), col in columns:
        if any(all(map(le, d, monos[t])) for d in dead):
            continue
        out.append(col)
        if not echelon.add(col):
            dead.append(monos[t])
    return out


def shared_list_report(f):
    """(h0 under the wrong skip rule, the true h0, whether the span check fails it)."""
    gb = buchberger(list(gradient(f)))
    rows, monos = reference_rows(crit_locus(f), gb), standard_monomials(gb)
    columns = reference_columns(rows, len(f.vars), len(monos))
    eliminated = shared_list_eliminations(columns, monos)
    return (len(columns) - rank_rows(eliminated), len(columns) - rank_rows(rows),
            skipped_outside_span(eliminated, columns) != [])


def test_the_checks_catch_one_dependent_list_for_every_variable():
    # a skip rule that shares the list across j skips (t*x_k, j) once (t, j') went
    # dependent for another j'; the span check, the rank and the closed forms see it
    reports = [shared_list_report(f) for seed in range(6) for f in seeded_potentials(seed)]
    assert sum(caught for _, _, caught in reports) == 7
    assert sum(wrong != h0 for wrong, h0, _ in reports) == 7
    misses = sum(shared_list_report(f)[0] != h for seed in range(24) for f, h in closed_form_cases(seed))
    assert misses == 18


# -- local duality: the Hessian determinant spans the socle -------------------

def determinant(m):
    if not m:
        return None
    if len(m) == 1:
        return m[0][0]
    total = Poly.zero(m[0][0].vars)
    for c, entry in enumerate(m[0]):
        minor = [row[:c] + row[c + 1:] for row in m[1:]]
        total = total + (-1) ** c * entry * determinant(minor)
    return total


def socle_dimension(gb):
    """dim of the intersection of the kernels of the multiplication matrices."""
    mu = len(gb.monomials)
    rows = [dict() for _ in range(len(gb.matrices) * mu)]
    for k, columns in enumerate(gb.matrices):
        for s, (nums, den) in enumerate(columns):
            for r, a in nums.items():
                rows[k * mu + r][s] = Fraction(a, den)
    return mu - rank_rows(rows)


def duality_data(f):
    gb = buchberger(list(gradient(f)))
    det = determinant(crit_locus(f).jacobian)
    times_x = [gb.vector(Poly.variable(f.vars, v) * det) for v in f.vars]
    return gb.vector(det), times_x, socle_dimension(gb)


def duality_potentials(seed):
    rng = random.Random(seed)
    return [potentials.brieskorn_pham(rng, rng.choice([1, 2, 3])),
            potentials.power_sum(rng, rng.choice([2, 3]), rng.choice([3, 4]))]


@pytest.mark.parametrize("seed", range(6))
def test_hessian_determinant_spans_the_socle(seed):
    for f in duality_potentials(seed):
        det, times_x, socle = duality_data(f)
        assert det != ({}, 1)                     # nonzero in R/J
        assert times_x == [({}, 1)] * len(f.vars)  # x_k * det Hess lies in J
        assert socle == 1


def test_socle_oracle_fails_away_from_the_origin():
    # critical points at x = 1 and x = -1: on R/J = Q[x]/(x^2 - 1) multiplication
    # by x is invertible, so x * det Hess is not in J and the socle is zero
    det, times_x, socle = duality_data(P("x^3 - 3*x", ("x",)))
    assert det != ({}, 1) and times_x != [({}, 1)]
    assert socle == 0


# -- local duality: the Hessian's rank on block a equals that on top - a ------

@pytest.mark.parametrize("seed", range(6))
def test_the_grading_of_seeded_potentials(seed):
    # Brieskorn-Pham takes lcm/a_i and degree lcm, a sum of d-th powers of linear
    # forms all ones and degree d; a lower-degree term leaves no grading
    rng = random.Random(seed)
    pham = potentials.brieskorn_pham(rng, rng.choice([1, 2, 3]))
    exps = [max(e) for e in sorted(pham.terms, reverse=True)]
    degree = lcm(*exps)
    assert dcrit.symplectic._grading(crit_locus(pham).section) == (
        tuple(degree // a for a in exps), degree)
    n, d = rng.choice([1, 2, 3]), rng.choice([3, 4])
    powers = potentials.power_sum(rng, n, d)
    assert dcrit.symplectic._grading(crit_locus(powers).section) == ((1,) * n, d)
    lower = potentials.power_sum(rng, rng.choice([2, 3]), d, lower=True)
    assert dcrit.symplectic._grading(crit_locus(lower).section) is None


@pytest.mark.parametrize("src, vars, grading", [
    ("x^2*y + y^4", VS, ((3, 2), 8)),
    ("x^3 + x*y^3", VS, ((3, 2), 9)),
    ("x^3*y + y^3*z + z^3*x", XYZ, ((1, 1, 1), 4)),
    ("y^2, x^3", VS, ((1, 2), 5)),
    ("3", (), None),                  # no variables
    ("x^3 - 3*x", ("x",), None),      # one variable, inhomogeneous
    ("x*y", VS, None),                # every w with w_x + w_y = D: not unique
    ("x*y^2, y", VS, None),           # the only normal has w_x = 0
    ("x^2, x^4", VS, None),           # the only normal is (1, -1)
])
def test_the_grading_of_fixed_sections(src, vars, grading):
    assert dcrit.symplectic._grading(locus_of(src, vars).section) == grading


def block_ranks(f):
    """(rank of the restricted Hessian on each block, top), every block eliminated."""
    locus = crit_locus(f)
    gb = locus.ideal
    monos = standard_monomials(gb)
    n = len(f.vars)
    (ws, d), (blocks, top) = dcrit.symplectic._grading(locus.section), column_blocks(locus, monos)
    # sigma of the graded Gorenstein algebra R/J, read off the quotient above, is sum_i (D - 2 w_i)
    assert top == sum(d - 2 * w for w in ws) - d
    by_block = defaultdict(list)
    for key, col in reference_columns(reference_rows(locus, gb), n, len(monos)):
        # every entry of a column in block a lies in row block a + D
        assert {sum(map(mul, ws, monos[r % len(monos)])) + ws[r // len(monos)] for r in col} <= {
            blocks[key] + d}
        by_block[blocks[key]].append(col)
    return {a: rank_rows(cols) for a, cols in by_block.items()}, top


@pytest.mark.parametrize("f", [f for seed in range(6) for f in duality_potentials(seed)]
                         + [P(src, vars) for src, vars in NON_DIAGONAL], ids=str)
def test_each_block_rank_equals_its_duals(f):
    ranks, top = block_ranks(f)
    assert all(ranks.get(top - a, 0) == r for a, r in ranks.items())
    report = obstruction_theory(crit_locus(f))
    assert report.h0 == len(f.vars) * report.quotient_dim - sum(ranks.values())
