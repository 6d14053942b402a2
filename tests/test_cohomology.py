"""Weight-slice cohomology, Hilbert tables, and resolution certificates."""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import comb
from random import Random

import pytest

import dcrit.cohomology as cohomology
import dcrit.groebner as groebner
import dcrit.koszul as koszul
from dcrit.cohomology import (InhomogeneousSectionError, generator_degrees,
                              hilbert_table, is_regular_sequence,
                              resolution_certificate, slice_cohomology)
from dcrit.exterior import ExtElt, contract
from dcrit.koszul import build_koszul, build_tautological_koszul
from dcrit.linalg import rank_rows
from dcrit.parsing import parse_poly
from dcrit.poly import Poly, exps_add, gradient, monomials_of_weight

VS = ("x", "y")


def P(src, vars=VS):
    return parse_poly(src, vars)


def test_dual_numbers_slices():
    # rank-1 zero section over the empty base: one class in degree 0 and -1
    K = build_koszul((), [Poly.zero(())])
    table = hilbert_table(K, (), 4)
    assert table.rows[0] == (1, 0, 0, 0, 0)
    assert table.rows[-1] == (0, 1, 0, 0, 0)


def test_rank_zero_tables_need_no_basis():
    # no components: the ring itself, certified finite only over Q
    line = hilbert_table(build_koszul(("x",), []), (1,), 3)
    assert line.rows == {0: (1, 1, 1, 1)} and line.complete[0] is False
    point = hilbert_table(build_koszul((), []), (), 3)
    assert point.rows == {0: (1, 0, 0, 0)} and point.complete[0] is True


def test_cusp_critical_slices():
    K = build_koszul(VS, list(gradient(P("x^3 + y^3"))))
    table = hilbert_table(K, (1, 1), 5)
    assert table.rows[0] == (1, 2, 1, 0, 0, 0)
    assert table.rows[-1] == (0,) * 6
    assert table.rows[-2] == (0,) * 6
    assert table.total(0) == 4
    assert table.complete[0] is True


def test_weighted_slices_match_weighted_milnor():
    # f = x^3 + y^2 with weights (2, 3) is quasi-homogeneous of weight 6
    f = parse_poly("x^3 + y^2", VS)
    K = build_koszul(VS, list(gradient(f)))
    table = hilbert_table(K, (2, 3), 6)
    assert table.rows[0] == (1, 0, 1, 0, 0, 0, 0)  # classes 1 and x
    assert table.total(0) == 2
    assert table.complete[0] is True


def test_single_slice_call():
    K = build_koszul(VS, [P("x"), P("y")])
    assert slice_cohomology(K, (1, 1), 0) == {0: 1, -1: 0, -2: 0}
    assert slice_cohomology(K, (1, 1), 2) == {0: 0, -1: 0, -2: 0}


def test_zero_component_inherits_the_section_weight():
    # section (x, 0): the free rank-1 summand shows up in H^-1 at weight 1
    K = build_koszul(("x",), [parse_poly("x", ("x",)), parse_poly("0", ("x",))])
    table = hilbert_table(K, (1,), 4)
    assert table.rows[0] == (1, 0, 0, 0, 0)
    assert table.rows[-1] == (0, 1, 0, 0, 0)
    assert table.rows[-2] == (0,) * 5


def test_inhomogeneous_section_raises():
    K = build_koszul(("x",), [parse_poly("x + x^2", ("x",))])
    with pytest.raises(InhomogeneousSectionError) as e:
        hilbert_table(K, (1,), 3)
    assert "not quasi-homogeneous" in str(e.value)


def test_regular_sequence_reports():
    K = build_koszul(VS, [P("x"), P("y")])
    report = is_regular_sequence(K, (1, 1), 8)
    assert report.passed and report.counterexample is None
    assert report.to_json() == {"name": "regular_sequence", "status": "pass"}

    x = parse_poly("x", ("x",))
    degenerate = is_regular_sequence(build_koszul(("x",), [x, x]), (1,), 8)
    assert not degenerate.passed
    assert degenerate.counterexample == {"first_failure": (-1, 1)}


def test_regular_sequence_refuses_a_negative_cutoff():
    K = build_koszul(VS, [P("x"), P("y")])
    with pytest.raises(ValueError, match="cutoff must be nonnegative"):
        is_regular_sequence(K, (1, 1), -1)


def test_resolution_certificate_small():
    taut = build_tautological_koszul(("x",), 2)
    cert = resolution_certificate(taut, hilbert_table(taut, (1, 1, 1), 6))
    assert cert.passed and cert.counterexample is None
    assert cert.to_json() == {"name": "resolution_certificate", "status": "pass"}


def _with_nonzero_h_minus_one(table):
    """A mutant table with H^-1 = 1 in weight 2 and every other row as it was."""
    return replace(table, rows={**table.rows, -1: (0, 0, 1) + table.rows[-1][3:]})


def test_resolution_certificate_names_a_nonzero_negative_entry():
    taut = build_tautological_koszul(("x",), 2)
    table = hilbert_table(taut, (1, 1, 1), 6)
    cert = resolution_certificate(taut, _with_nonzero_h_minus_one(table))
    assert not cert.passed
    assert cert.counterexample == {"degree": -1, "weight": 2, "expected": 0, "got": 1}


def test_resolution_certificate_names_an_h0_mismatch_first():
    # an H^0 mismatch, even in a later weight, is named before any negative entry
    taut = build_tautological_koszul(("x",), 2)
    table = hilbert_table(taut, (1, 1, 1), 6)
    negative = _with_nonzero_h_minus_one(table)
    both = replace(negative, rows={**negative.rows, 0: (1, 1, 1, 2) + table.rows[0][4:]})
    cert = resolution_certificate(taut, both)
    assert not cert.passed
    assert cert.counterexample == {"degree": 0, "weight": 3, "expected": 1, "got": 2}


def test_resolution_certificate_weighted_base():
    # H^0 counts the base monomials in the weights the table gives the base
    # variables, whatever the fiber coordinates weigh
    taut = build_tautological_koszul(VS, 1)
    for ws in ((1, 2, 1), (1, 2, 3)):
        assert resolution_certificate(taut, hilbert_table(taut, ws, 5)).passed
    assert list(hilbert_table(taut, (1, 2, 1), 5).rows[0]) == [1, 1, 2, 2, 3, 3]


def _quasi_homogeneous(rng, vars, weights, d, skip=0):
    """A random polynomial of weighted degree exactly d, with one to three terms,
    free of the first `skip` variables (zero when no monomial qualifies)."""
    monos = [e for e in product(range(d + 1), repeat=len(vars))
             if sum(a * w for a, w in zip(e, weights)) == d and not any(e[:skip])]
    out = Poly.zero(vars)
    for e in rng.sample(monos, min(3, len(monos))):
        out = out + Poly.monomial(vars, e, rng.choice([-3, -2, -1, 1, 2, 3]))
    return out


def _euler_series(degrees, weights, cutoff):
    """Coefficients of prod_j (1 - t^d_j) / prod_i (1 - t^w_i) up to t^cutoff."""
    c = [1] + [0] * cutoff
    for d in degrees:
        c = [c[k] - (c[k - d] if k >= d else 0) for k in range(cutoff + 1)]
    for w in weights:
        for k in range(w, cutoff + 1):
            c[k] += c[k - w]
    return c


def _sections(seed):
    """(vars, weights, components, component degrees, regular) for each case."""
    rng = Random(seed)
    vs, ws = ("x", "y", "z"), (2, 1, 3)
    powers = [Poly.monomial(vs, e) for e in ((3, 0, 0), (0, 6, 0), (0, 0, 2))]
    regular = [p + _quasi_homogeneous(rng, vs, ws, 6) for p in powers]
    yield vs, ws, regular, (6, 6, 6), True
    vs, ws = ("x", "y"), (1, 2)
    g = _quasi_homogeneous(rng, vs, ws, 2)
    h1, h2 = _quasi_homogeneous(rng, vs, ws, 3), _quasi_homogeneous(rng, vs, ws, 4)
    yield vs, ws, [g * h1, g * h2], (5, 6), False
    f1, f2 = _quasi_homogeneous(rng, vs, ws, 4), _quasi_homogeneous(rng, vs, ws, 3)
    yield vs, ws, [f1, f1, f2], (4, 4, 3), False


@pytest.mark.parametrize("seed", range(3))
def test_euler_characteristic_in_every_weight(seed):
    cutoff = 12
    for vs, ws, comps, degrees, regular in _sections(seed):
        table = hilbert_table(build_koszul(vs, comps), ws, cutoff)
        series = _euler_series(degrees, ws, cutoff)
        for w in range(cutoff + 1):
            euler = sum((-1) ** p * table.rows[p][w] for p in table.degrees())
            assert euler == series[w], (comps, w)
        negatives = any(any(table.rows[p]) for p in table.degrees() if p < 0)
        assert negatives is not regular, comps


def _first_failure(table):
    """The (degree, weight) is_regular_sequence should report, read off the table."""
    for w in range(table.cutoff + 1):
        for p in sorted(table.rows):
            if p < 0 and table.rows[p][w]:
                return (p, w)
    return None


@pytest.mark.parametrize("vs, ws, srcs, scales, degrees", [
    (VS, (1, 1), ["1/2*x", "2/3*y"], (2, 3), (1, 1)),
    (VS, (2, 3), ["1/2*x^3 + 2/3*y^2", "3/4*x^3 - 1/5*y^2"], (6, 20), (6, 6)),
    (("x", "y", "z"), (1, 2, 3), ["1/3*x^2 - 5/2*y", "7/4*z + 1/6*x*y", "1/9*z^2"],
     (6, 12, 9), (2, 3, 6)),
])
def test_fractional_sections_match_cleared_denominators(vs, ws, srcs, scales, degrees):
    cutoff = 10
    comps = [P(s, vs) for s in srcs]
    cleared = [p * k for p, k in zip(comps, scales)]
    assert all(c.denominator == 1 for p in cleared for c in p.terms.values())
    K = build_koszul(vs, comps)
    table = hilbert_table(K, ws, cutoff)
    assert table.rows == hilbert_table(build_koszul(vs, cleared), ws, cutoff).rows
    # each section is a complete intersection: H^0 is the complete-intersection series
    assert list(table.rows[0]) == _euler_series(degrees, ws, cutoff)
    assert not any(any(table.rows[p]) for p in table.degrees() if p < 0)
    for w in range(cutoff + 1):
        assert slice_cohomology(K, ws, w) == {p: table.rows[p][w] for p in table.rows}
    assert is_regular_sequence(K, ws, cutoff).counterexample is None


def test_fractional_common_factor_agrees_with_the_table():
    # 1/2*x + 1/3*y is 3*x + 2*y over 6, so H^-1 is nonzero from weight 1 on;
    # the numerators alone, x + y and 3*x + 2*y, would be a regular sequence
    comps = [P("1/2*x + 1/3*y"), P("3*x + 2*y")]
    K = build_koszul(VS, comps)
    table = hilbert_table(K, (1, 1), 6)
    assert table.rows == hilbert_table(build_koszul(VS, [comps[0] * 6, comps[1]]), (1, 1), 6).rows
    for w in range(7):
        assert slice_cohomology(K, (1, 1), w) == {p: table.rows[p][w] for p in table.rows}
    report = is_regular_sequence(K, (1, 1), 6)
    assert not report.passed
    assert report.counterexample == {"first_failure": _first_failure(table)}
    assert _first_failure(table) == (-1, 1)


# -- clearing: the slice ranks skip rows the previous pivots prove dependent --

def _reference_dims(K, ws, w):
    """dim H^p of the weight-w slice from the full, uncleared rows of every differential."""
    m, gd = K.rank, generator_degrees(K, ws)
    bases = {p: [(e, S) for S in combinations(range(m), -p) if sum(gd[j] for j in S) <= w
                 for e in monomials_of_weight(ws, w - sum(gd[j] for j in S))]
             for p in range(-m, 1)}
    ranks = {}
    for p in range(-m, 0):
        index = {key: i for i, key in enumerate(bases[p + 1])}
        ranks[p] = rank_rows([{index[k]: c for k, c in
                               contract(K.section, ExtElt.monomial(K.ambient, *key)).terms.items()}
                              for key in bases[p]])
    dims = {p: len(b) - ranks.get(p, 0) - ranks.get(p - 1, 0) for p, b in bases.items()}
    assert min(dims.values()) >= 0, dims  # the uncleared ranks obey d∘d = 0 too
    return dims


def _fractional(rng, p):
    """p with every coefficient scaled by its own fraction; weighted degrees stay."""
    return Poly(p.vars, {e: c * Fraction(rng.choice([-5, -1, 2, 7]), rng.randint(2, 9))
                         for e, c in p.terms.items()})


def _clearing_cases(seed):
    """(complex, weights): regular, common factor, zero component, fractional, tautological."""
    rng = Random(f"clearing-{seed}")
    vs, ws = ("x", "y", "z"), (2, 1, 3)
    powers = [Poly.monomial(vs, e) for e in ((3, 0, 0), (0, 6, 0), (0, 0, 2))]
    regular = [p + _quasi_homogeneous(rng, vs, ws, 6) for p in powers]
    yield build_koszul(vs, regular), ws
    yield build_koszul(vs, [_fractional(rng, p) for p in regular]), ws
    vs, ws = ("x", "y"), (1, 2)
    g = _quasi_homogeneous(rng, vs, ws, 2)
    common = [g * _quasi_homogeneous(rng, vs, ws, 3), g * _quasi_homogeneous(rng, vs, ws, 4)]
    yield build_koszul(vs, common), ws
    yield build_koszul(vs, [_fractional(rng, p) for p in common]), ws
    f1, f2 = _quasi_homogeneous(rng, vs, ws, 4), _quasi_homogeneous(rng, vs, ws, 3)
    yield build_koszul(vs, [f1, Poly.zero(vs), f2]), ws
    yield build_koszul(vs, [Poly.zero(vs), _fractional(rng, f1), f1]), ws
    yield build_tautological_koszul(("x",), 3), (1,) * 4


@pytest.mark.parametrize("seed", range(3))
def test_clearing_matches_the_uncleared_ranks(seed):
    cutoff = 9
    for K, ws in _clearing_cases(seed):
        table = hilbert_table(K, ws, cutoff)
        for w in range(cutoff + 1):
            reference = _reference_dims(K, ws, w)
            assert {p: table.rows[p][w] for p in table.rows} == reference, (str(K), w)
            assert slice_cohomology(K, ws, w) == reference, (str(K), w)


def test_cleared_rows_of_a_regular_sequence_are_all_pivots(monkeypatch):
    # H^p = 0 for p < 0, so the rows clearing keeps are exactly independent;
    # hilbert_table takes every rank of a regular section from a theorem, so
    # the slices are asked for one weight at a time
    handed = []

    def counting(rows, leads=None):
        rows = list(rows)
        rank = rank_rows(rows, leads)
        handed.append((len(rows), rank))
        return rank

    monkeypatch.setattr(cohomology, "rank_rows", counting)
    K = build_koszul(("x", "y", "z"), [P(s, ("x", "y", "z")) for s in ("x^2", "y^2 + x*z", "z^2")])
    slices = [slice_cohomology(K, (1, 1, 1), w) for w in range(9)]
    rows = {p: [dims[p] for dims in slices] for p in (-3, -2, -1)}
    assert all(len(rows[p]) == 9 and not any(rows[p]) for p in (-3, -2, -1))
    assert handed and all(n == rank for n, rank in handed)
    assert any(n for n, _ in handed)


def _sign_broken_contract(flip_at):
    """`_contract` with the sign at position `flip_at` of each subset flipped."""
    def contract(components, terms):
        out = {}
        for (exps, subset), c in terms.items():
            for k0, j in enumerate(subset):
                signed = -c if (k0 % 2 == 0) != (k0 == flip_at) else c
                omitted = subset[:k0] + subset[k0 + 1:]
                for sexps, sc in components[j].items():
                    k = (exps_add(exps, sexps), omitted)
                    out[k] = out.get(k, 0) + signed * sc
        return out
    return contract


@pytest.mark.parametrize("flip_at", [0, 1, 2])
def test_a_contraction_that_does_not_square_to_zero_is_refused(monkeypatch, flip_at):
    # the flip at position 2 shows only on e_S with three or more factors
    # a complex keeps its d∘d answer, so each one is built after the patch
    vs = ("x", "y", "z")

    def build():
        return build_koszul(vs, [P(s, vs) for s in ("x", "y + z", "z^2")])

    table = hilbert_table(build(), (1, 1, 1), 3)
    for module in (cohomology, koszul):
        monkeypatch.setattr(module, "_contract", _sign_broken_contract(None))
    assert hilbert_table(build(), (1, 1, 1), 3) == table  # the copy, unbroken, is faithful
    for module in (cohomology, koszul):
        monkeypatch.setattr(module, "_contract", _sign_broken_contract(flip_at))
    with pytest.raises(AssertionError, match="does not square to zero"):
        hilbert_table(build(), (1, 1, 1), 3)
    with pytest.raises(AssertionError, match="does not square to zero"):
        slice_cohomology(build(), (1, 1, 1), 0)


# -- regular sections: grade m, so every rank of the table comes from a theorem --

def _counting_ranks(monkeypatch):
    """Count the `rank_rows` calls the cohomology module makes from here on."""
    calls = []

    def counting(rows, leads=None):
        calls.append(1)
        return rank_rows(rows, leads)

    monkeypatch.setattr(cohomology, "rank_rows", counting)
    return calls


def _no_common_factor(monkeypatch):
    """Make the common factor weigh nothing and its cofactor have grade 1, so
    a grade-1 section takes the grade's path instead of its cofactor's."""
    monkeypatch.setattr(cohomology, "_common_factor", lambda k, m: (0, 1))


def _counting_bases(monkeypatch):
    """Record the (degree, weight) of every slice basis listed from here on."""
    listed = []
    basis = cohomology._Slices.basis

    def counting(self, p, w, *args):
        listed.append((p, w))
        return basis(self, p, w, *args)

    monkeypatch.setattr(cohomology._Slices, "basis", counting)
    return listed


def _triangular(rng, vars, weights, powers):
    """x_i^a_i plus noise in the later variables only.  The only common zero is
    the origin, so the components are a regular sequence, and so is any part."""
    return [Poly.monomial(vars, tuple(a if k == i else 0 for k in range(len(vars))))
            + _quasi_homogeneous(rng, vars, weights, a * weights[i], skip=i + 1)
            for i, a in enumerate(powers)]


def _regular_cases(seed):
    """(complex, weights) of seeded regular sections: m = n and m < n, unit and
    non-unit weights, fractional coefficients, and tautological sections."""
    rng = Random(f"regular-{seed}")
    vs, ws = ("x", "y", "z"), (2, 1, 3)
    regular = _triangular(rng, vs, ws, (3, 4, 2))
    yield build_koszul(vs, regular), ws
    yield build_koszul(vs, regular[1:]), ws
    yield build_koszul(vs, [_fractional(rng, p) for p in regular[:2]]), ws
    vs, ws = ("x", "y"), (1, 2)
    pair = _triangular(rng, vs, ws, (4, 3))
    yield build_koszul(vs, [_fractional(rng, p) for p in pair]), ws
    yield build_koszul(vs, pair[:1]), ws
    yield build_koszul(vs, _triangular(rng, vs, (1, 1), (3, 2))), (1, 1)
    yield build_tautological_koszul(("x",), 3), (1,) * 4
    yield build_tautological_koszul(("x", "y"), 2), (1, 2, 1, 1)
    yield build_tautological_koszul((), 2), (1, 1)


@pytest.mark.parametrize("seed", range(3))
def test_closed_form_tables_match_the_slices(monkeypatch, seed):
    cutoff = 9
    calls = _counting_ranks(monkeypatch)
    listed = _counting_bases(monkeypatch)
    for K, ws in _regular_cases(seed):
        table = hilbert_table(K, ws, cutoff)
        # every rank from a theorem: no slice basis was listed or ranked
        assert not calls and not listed, str(K)
        for w in range(cutoff + 1):
            assert slice_cohomology(K, ws, w) == {p: table.rows[p][w] for p in table.rows}, \
                (str(K), w)
        assert calls and listed
        calls.clear()
        listed.clear()


@pytest.mark.parametrize("seed", range(3))
def test_a_numerator_that_keeps_the_grade_but_not_the_series_is_refused(monkeypatch, seed):
    # adding t^e (1 - t)^m to K(t) keeps t = 1 a root of multiplicity m, so the
    # grade still gives every rank, but moves the series from weight e on
    numerator = groebner.GroebnerBasis.hilbert_numerator
    shift = {}

    def moved(self, weights):
        k = dict(numerator(self, weights))
        for d, v in shift.items():
            k[d] = k.get(d, 0) + v
        return {d: v for d, v in k.items() if v}

    monkeypatch.setattr(groebner.GroebnerBasis, "hilbert_numerator", moved)
    e = 1 + seed
    for K, ws in _regular_cases(seed):
        shift.clear()
        shift.update({e + i: (-1) ** i * comb(K.rank, i) for i in range(K.rank + 1)})
        with pytest.raises(AssertionError, match=rf"^d_-1 in weight {e} has rank -?\d+ by K\(t\), "
                                                 rf"but grade {K.rank} gives \d+$"):
            hilbert_table(K, ws, 9)
    shift.clear()
    shift.update({3: 1, 4: -2, 5: 1})
    with pytest.raises(AssertionError, match=r"^d_-1 in weight 3 has rank 3 by K\(t\), "
                                             r"but grade 2 gives 4$"):
        hilbert_table(build_koszul(VS, [P("x"), P("y")]), (1, 1), 6)


def _table_matches_the_slices(K, ws, cutoff):
    """hilbert_table's rows against slice_cohomology, which eliminates every degree."""
    table = hilbert_table(K, ws, cutoff)
    for w in range(cutoff + 1):
        assert slice_cohomology(K, ws, w) == {p: table.rows[p][w] for p in table.rows}, \
            (str(K), w)
    return table


# (vars, section, grade I): sections outside Stanley's criterion (a zero or
# constant component, or K(t) other than prod_j (1 - t^d_j)), whose tables take
# H^0 from K(t) and the ranks of the grade's exact degrees from the dimensions
OUTSIDE_THE_THEOREM = [
    (VS, ["x*y", "x^2"], 1),                      # a common factor: H^-1 is not zero
    (("x",), ["x", "0"], 1),                      # a zero component
    (VS, ["1", "x"], 2),                          # a unit component: R/I = 0 and K = 0
    (VS, ["x", "y", "x + y"], 2),                 # more components than the quotient has room for
    (("x", "y", "z"), ["x*y", "x*z", "x^2"], 1),  # a common factor of rank 3: H^-2 too
    (VS, ["x^2", "x*y", "y^2"], 2),
    ((), ["0"], 0),                               # no variables: the dual numbers
    ((), ["1", "0"], 2),
]


@pytest.mark.parametrize("vs, srcs", [case[:2] for case in OUTSIDE_THE_THEOREM])
def test_sections_outside_the_theorem_are_sliced(vs, srcs):
    K, ws = build_koszul(vs, [P(s, vs) for s in srcs]), (1,) * len(vs)
    table = _table_matches_the_slices(K, ws, 6)
    series = _euler_series(generator_degrees(K, ws), ws, 6)
    assert [sum((-1) ** p * table.rows[p][w] for p in table.rows) for w in range(7)] == series


def _ranked_slices(K, ws, cutoff, degrees):
    """(p, w) for each p in `degrees` and w <= cutoff where C^p_w and C^{p+1}_w
    are both nonzero: the slices of d_p that elimination ranks, counted by listing."""
    m, gd = K.rank, generator_degrees(K, ws)

    def dim(p, w):
        return sum(len(monomials_of_weight(ws, w - sum(gd[j] for j in S)))
                   for S in combinations(range(m), -p) if sum(gd[j] for j in S) <= w)

    return [(p, w) for w in range(cutoff + 1) for p in degrees if dim(p, w) and dim(p + 1, w)]


@pytest.mark.parametrize("vs, srcs, grade", OUTSIDE_THE_THEOREM)
def test_the_grade_decides_which_differentials_are_eliminated(monkeypatch, vs, srcs, grade):
    # d_{-1} comes from K and d_p, p < -m + grade - 1, from the grade; d_{-m+grade-1}
    # is eliminated all the same, to clear the next one's rows and check the grade.
    # A grade-1 section whose factor is not found takes this path too
    _no_common_factor(monkeypatch)
    K, ws, cutoff = build_koszul(vs, [P(s, vs) for s in srcs]), (1,) * len(vs), 6
    m = K.rank
    eliminated = _ranked_slices(K, ws, cutoff, range(max(-m, -m + grade - 1), -1))
    calls = _counting_ranks(monkeypatch)
    table = hilbert_table(K, ws, cutoff)
    assert len(calls) == len(eliminated), eliminated
    # depth sensitivity: exact in the `grade` lowest degrees and in no other negative one
    exact = [p for p in table.degrees() if p < 0 and not any(table.rows[p])]
    assert exact == list(range(-m, -m + grade))


def _regularity_cases(seed):
    """(complex, weights, regular): seeded regular and common-factor sections of ranks 2 and 3."""
    rng = Random(f"regularity-{seed}")
    for vs, ws, powers in ((VS, (1, 2), (4, 3)), (("x", "y", "z"), (2, 1, 3), (3, 4, 2))):
        yield build_koszul(vs, _triangular(rng, vs, ws, powers)), ws, True
        g = _quasi_homogeneous(rng, vs, ws, rng.choice([1, 2]))
        common = [g * _quasi_homogeneous(rng, vs, ws, rng.choice([2, 3])) for _ in vs]
        yield build_koszul(vs, common), ws, False


@pytest.mark.parametrize("seed", range(3))
def test_regular_sequence_first_failure_matches_the_slices(monkeypatch, seed):
    # the reference: slice_cohomology's first nonzero negative entry, weight by
    # weight and then degree by degree.  The cutoff reaches the first H^-2
    # class of each rank-3 common factor, which comes after its first H^-1.
    cutoff = 14
    calls = _counting_ranks(monkeypatch)
    for K, ws, regular in _regularity_cases(seed):
        report = is_regular_sequence(K, ws, cutoff)
        if regular:
            assert not calls, str(K)  # a regular section slices nothing
        _table_matches_the_slices(K, ws, cutoff)
        sliced = None
        for w in range(cutoff + 1):
            dims = slice_cohomology(K, ws, w)
            sliced = next(((p, w) for p in range(-K.rank, 0) if dims[p]), None)
            if sliced:
                break
        assert (report.counterexample or {}).get("first_failure") == sliced, str(K)
        assert report.passed is (sliced is None) is regular, str(K)
        calls.clear()


@pytest.mark.parametrize("srcs, message", [
    (["x*y", "x^2"], "d_-2 in weight 4 has rank 0, but grade 1 gives 1"),
    (["x", "y", "x + y"], "d_-2 in weight 2 has rank 2, but grade 2 gives 3"),
], ids=["grade-1", "grade-2"])
def test_an_eliminated_rank_the_grade_disagrees_with_is_refused(monkeypatch, srcs, message):
    # d_-2 is the highest rank the grade gives, and the first one eliminated;
    # the grade-1 section's factor is not found, so it is eliminated too
    _no_common_factor(monkeypatch)
    K = build_koszul(VS, [P(s) for s in srcs])
    _table_matches_the_slices(K, (1, 1), 4)
    ranks = []

    def under_reporting(rows, leads=None):
        rank = rank_rows(rows, leads)
        ranks.append(rank)
        return rank - 1 if len(ranks) == 1 else rank

    monkeypatch.setattr(cohomology, "rank_rows", under_reporting)
    with pytest.raises(AssertionError, match=message):
        hilbert_table(K, (1, 1), 4)


@pytest.mark.parametrize("vs, srcs, grade", OUTSIDE_THE_THEOREM)
def test_only_eliminated_degrees_and_their_targets_are_listed(monkeypatch, vs, srcs, grade):
    # d_-1 comes from K(t), so C^0 is never listed; the lowest eliminated
    # degree and every target are listed once per weight, in order (a grade-1
    # section whose factor is not found too)
    _no_common_factor(monkeypatch)
    K, ws, cutoff = build_koszul(vs, [P(s, vs) for s in srcs]), (1,) * len(vs), 6
    lowest = max(-K.rank, -K.rank + grade - 1)
    listed = _counting_bases(monkeypatch)
    hilbert_table(K, ws, cutoff)
    assert listed == [(q, w) for w in range(cutoff + 1) for q in range(lowest, 0) if lowest < -1]
    assert all(q < 0 for q, _ in listed)


def test_a_dropped_monomial_trips_the_basis_count(monkeypatch):
    # the dimensions are counted; every listed basis must have the counted length
    # (the factor x is not found, so hilbert_table lists bases as slice_cohomology does)
    _no_common_factor(monkeypatch)
    K = build_koszul(VS, [P("x*y"), P("x^2")])
    table = _table_matches_the_slices(K, (1, 1), 6)
    assert table.total(-1) > 0
    monkeypatch.setattr(cohomology, "monomials_of_weight",
                        lambda ws, w: monomials_of_weight(ws, w)[:-1])
    with pytest.raises(AssertionError,
                       match=r"^C\^-1 in weight 2 lists 0 elements, but the count gives 2$"):
        hilbert_table(K, (1, 1), 6)
    with pytest.raises(AssertionError,
                       match=r"^C\^-2 in weight 4 lists 0 elements, but the count gives 1$"):
        slice_cohomology(K, (1, 1), 4)


# (vars, weights, section): sections f*s' with a nonconstant common factor f,
# whose tables take the ranks of the g' lowest degrees from s' of grade g'
COMMON_FACTORS = [
    # s' is not regular (grade 2 of 3): its grade gives d_-3, and d_-2 is eliminated
    (("x", "y", "z"), (1, 1, 1), ["(x + y)*x*y", "(x + y)*x*z", "(x + y)*y*z"]),
    # weighted: the gcd is f = (x^2 + y)^2, of weight 4, and s' = (x, y - x^2)
    (VS, (1, 2), ["(x^2 + y)*(x^3 + x*y)", "(x^2 + y)*(y^2 - x^4)"]),
    (VS, (1, 1), ["(x + 2*y)^2*x^2", "(x + 2*y)^2*y^3"]),            # f = L^2
    (VS, (1, 1), ["(x - y)*x", "(x - y)*y", "0"]),                    # a zero component
    (VS, (1, 1), ["1/2*(x + y)*x^2", "2/3*(x + y)*y^2"]),            # Fraction coefficients
    (("x",), (1,), ["x", "0"]),                                       # s' = (1, 0): R/I' = 0
    (("x", "y", "z"), (1, 1, 1), ["x*(x + y)^2", "x*(y - z)^2", "x*(z + 2*x)^2"]),
    # a zero component lighter than f = x^2 would weigh -1 in K(s')
    (VS, (1, 1), ["x^2", "x^2*y", "0"]),
]


@pytest.mark.parametrize("vs, ws, srcs", COMMON_FACTORS)
def test_common_factor_tables_match_the_slices(vs, ws, srcs):
    K = build_koszul(vs, [P(s, vs) for s in srcs])
    table = _table_matches_the_slices(K, ws, 9)
    assert any(table.total(p) for p in table.rows if p < 0)  # grade 1 < m: H^-1 != 0
    series = _euler_series(generator_degrees(K, ws), ws, 9)
    assert [sum((-1) ** p * table.rows[p][w] for p in table.rows) for w in range(10)] == series


def _common_factor_cases(seed):
    """(complex, weights): L^c times powers of independent linear forms, whose
    cofactor is a regular sequence, as `dcrit zero` meets them."""
    rng = Random(f"common-factor-{seed}")
    for n, degrees, c in ((3, (1, 2, 2), 1), (2, (2, 3), 2), (3, (2, 2, 2), 1), (3, (2, 2), 1)):
        vs = ("x", "y", "z")[:n]
        xs = [Poly.variable(vs, v) for v in vs]
        # triangular forms: x_i plus later variables, so they are independent
        forms = [xs[i] + sum((rng.choice([-2, -1, 1, 2, 3]) * v for v in xs[i + 1:]), Poly.zero(vs))
                 for i in range(len(degrees))]
        factor = sum((rng.choice([-3, -1, 1, 2]) * v for v in xs), Poly.zero(vs)) ** c
        yield build_koszul(vs, [factor * form ** d for form, d in zip(forms, degrees)]), (1,) * n


@pytest.mark.parametrize("seed", range(3))
def test_a_regular_cofactor_ranks_and_lists_nothing(monkeypatch, seed):
    calls = _counting_ranks(monkeypatch)
    listed = _counting_bases(monkeypatch)
    for K, ws in _common_factor_cases(seed):
        cutoff = max(generator_degrees(K, ws)) + 5
        table = hilbert_table(K, ws, cutoff)
        assert not calls and not listed, str(K)
        assert table.total(-1) > 0
        for w in range(cutoff + 1):
            assert slice_cohomology(K, ws, w) == {p: table.rows[p][w] for p in table.rows}, \
                (str(K), w)
        calls.clear()
        listed.clear()


def _grade_one_cases(seed):
    """(vars, weights, components) of seeded sections f*s' of grade 1 < m: a
    linear and a non-linear f, the weighted (x^2 + y)^2 of weight 4, f = L^2,
    Fraction coefficients, and zero components, one lighter than f."""
    rng = Random(f"grade-one-{seed}")

    def linear(vars):
        return sum((rng.choice([-2, -1, 1, 2, 3]) * Poly.variable(vars, v) for v in vars),
                   Poly.zero(vars))

    def times(f, vars, ws, degrees):
        return [f * _quasi_homogeneous(rng, vars, ws, d) for d in degrees]

    xyz = ("x", "y", "z")
    yield xyz, (1, 1, 1), times(linear(xyz), xyz, (1, 1, 1), (1, 2, 2))
    yield VS, (1, 2), times(_quasi_homogeneous(rng, VS, (1, 2), 2), VS, (1, 2), (3, 4))
    yield VS, (1, 2), times(P("(x^2 + y)^2"), VS, (1, 2), (2, 3))
    yield VS, (1, 1), times(linear(VS) ** 2, VS, (1, 1), (2, 3))
    f = _fractional(rng, _quasi_homogeneous(rng, xyz, (2, 1, 3), 3))
    yield xyz, (2, 1, 3), [Fraction(rng.choice([-5, 2, 7]), 3) * p
                           for p in times(f, xyz, (2, 1, 3), (2, 3))]
    yield xyz, (1, 1, 1), times(linear(xyz), xyz, (1, 1, 1), (2, 2)) + [Poly.zero(xyz)]
    yield VS, (1, 1), [Poly.zero(VS)] + times(linear(VS) ** 2, VS, (1, 1), (1, 2))


@pytest.mark.parametrize("seed", range(4))
def test_the_weight_of_the_common_factor_is_minus_k_prime_at_one(seed):
    sympy = pytest.importorskip("sympy")
    for vs, ws, comps in _grade_one_cases(seed):
        K = build_koszul(vs, comps)
        k = K.ideal.hilbert_numerator(ws)
        assert cohomology._grade(k, K.rank) == 1 < K.rank, str(K)
        symbols = sympy.symbols(vs)
        g = sympy.gcd_list([sympy.sympify(str(p).replace("^", "**")) for p in comps])
        weight = {sum(a * w for a, w in zip(mono, ws)) for mono in sympy.Poly(g, *symbols).monoms()}
        assert weight == {-sum(d * v for d, v in k.items())}, (str(K), g)
        _table_matches_the_slices(K, ws, 8)


@pytest.mark.parametrize("vs, srcs, ranked", [
    (("x", "y", "z"), ["(x + y)*x*y", "(x + y)*x*z", "(x + y)*y*z"], True),  # s' of grade 2 of 3
    (VS, ["(x - y)*x", "(x - y)*y", "0"], True),                               # s' = (x, y, 0)
    (VS, ["x^2", "x^2*y", "0"], False),               # s' = (1, y, 0) generates R: grade m
], ids=["grade-2-of-3", "zero-component", "zero-lighter-than-f"])
def test_a_cofactor_that_is_not_regular_is_eliminated(monkeypatch, vs, srcs, ranked):
    # the recurrence gives the cofactor's exact degrees, d_-1 comes from K(t), and
    # only the degrees between are eliminated: none when s' generates R, although
    # the zero component would weigh less than 0 in K(s')
    K, ws = build_koszul(vs, [P(s, vs) for s in srcs]), (1,) * len(vs)
    calls = _counting_ranks(monkeypatch)
    table = hilbert_table(K, ws, 8)
    assert bool(calls) is ranked and table.total(-1) > 0
    assert _table_matches_the_slices(K, ws, 8) == table


@pytest.mark.parametrize("vs, srcs, longer", [
    (("x", "y", "z"), ["x*(x+y)^2", "x*(y-z)^2", "x*(z+2*x)^2"], True),  # e = 1, m = 3
    (VS, ["x^2", "y^3"], False),                                         # regular: e = 0
], ids=["common-factor", "regular"])
def test_a_table_counts_its_dimensions_once(monkeypatch, vs, srcs, longer):
    # the recurrence of a common factor of weight e reads (m - 1)*e weights past
    # the cutoff: the one count reaches that far, and the rows are cut back
    counted = []
    dimensions = cohomology._Slices.dimensions

    def counting(self, top, first=0):
        counted.append(top)
        return dimensions(self, top, first)

    monkeypatch.setattr(cohomology._Slices, "dimensions", counting)
    K, ws = build_koszul(vs, [P(s, vs) for s in srcs]), (1,) * len(vs)
    table = hilbert_table(K, ws, 10)
    assert counted == [10 + 2 * longer]
    assert all(len(row) == 11 for row in table.rows.values())
    assert _table_matches_the_slices(K, ws, 10) == table


def _cofactors_that_are_not_regular(seed):
    """(complex, weights, g') of seeded sections f*s', f linear or a square,
    whose cofactor s' has grade g' < m: s' cuts out lines or a point, with
    repeated linear factors or zero components."""
    rng = Random(f"not-regular-{seed}")
    # (n, power of f, g', s' from independent linear forms a, b, c and zero)
    shapes = [
        (3, 1, 2, lambda a, b, c, o: [a * b, a * c, b * c]),          # three lines
        (3, 2, 2, lambda a, b, c, o: [a ** 2 * b, a ** 2 * c, b * c]),
        (2, 1, 2, lambda a, b, c, o: [a, b, o]),
        (3, 2, 2, lambda a, b, c, o: [a ** 2, b, o]),
        (2, 2, 2, lambda a, b, c, o: [o, a ** 2, b ** 3]),
        (3, 1, 2, lambda a, b, c, o: [a, b, c * a, c ** 2 * b]),       # m = 4
        (3, 1, 2, lambda a, b, c, o: [a * b, a * c, b * c, o]),
        (3, 2, 3, lambda a, b, c, o: [a, b ** 2, c, o]),               # the origin, m = 4
    ]
    for n, power, grade, cofactor in shapes:
        vs = ("x", "y", "z")[:n]
        xs = [Poly.variable(vs, v) for v in vs]
        # triangular forms: x_i plus later variables, so they are independent
        forms = [xs[i] + sum((rng.choice([-2, -1, 1, 2, 3]) * v for v in xs[i + 1:]), Poly.zero(vs))
                 for i in range(n)] + [None] * (3 - n)
        f = sum((rng.choice([-3, -1, 1, 2]) * v for v in xs), Poly.zero(vs)) ** power
        yield build_koszul(vs, [f * p for p in cofactor(*forms, Poly.zero(vs))]), (1,) * n, grade


@pytest.mark.parametrize("seed", range(3))
def test_a_cofactor_of_lower_grade_gives_its_exact_degrees(monkeypatch, seed):
    # the recurrence ranks the g' lowest degrees of K(f*s'), d_-1 comes from K(t),
    # and only d_{-m+g'-1}, ..., d_-2 are eliminated, once per slice pair
    calls = _counting_ranks(monkeypatch)
    for K, ws, grade in _cofactors_that_are_not_regular(seed):
        m, cutoff = K.rank, max(generator_degrees(K, ws)) + 4
        eliminated = _ranked_slices(K, ws, cutoff, range(-m + grade - 1, -1))
        calls.clear()
        table = hilbert_table(K, ws, cutoff)
        assert len(calls) == len(eliminated) > 0, str(K)
        assert table.total(-1) > 0
        _table_matches_the_slices(K, ws, cutoff)


@pytest.mark.parametrize("shift, message", [
    # the nonzero terms, in degree order
    ({1: 1, 2: -1}, r"^K\(t\) - 1 \+ t\^2 = \{1: 1, 2: -2, 3: 1\} is not divisible by t\^2$"),
    ({3: 1, 4: -1}, r"^d_-1 in weight 2 has rank 2 by K\(t\), but the common factor gives 1$"),
    ({2: -1, 3: 1}, r"^d_-1 in weight 2 has rank 3 by K\(t\), but grade 2 gives 2$"),
    ({1: -2, 2: 2}, r"^K\(t\) = .* gives the common factor weight -1$"),
], ids=["t-t^2", "t^3-t^4", "t^3-t^2", "2t^2-2t"])
def test_a_numerator_moved_off_the_common_factor_is_refused(monkeypatch, shift, message):
    # K(t) of x*(y, x) is 1 - 2t^2 + t^3, so e = -K'(1) = 1.  Each move keeps
    # K(1) = 0 but changes K'(1): to -2, so K - 1 + t^2 keeps a t term; to -2
    # with K_I' = -(1 - t)^2 of grade 2, whose ranks K's series contradicts; to 0,
    # so I has grade 2; and to 1, a factor of negative weight
    numerator = groebner.GroebnerBasis.hilbert_numerator

    def moved(self, weights):
        k = dict(numerator(self, weights))
        for d, v in shift.items():
            k[d] = k.get(d, 0) + v
        return {d: v for d, v in k.items() if v}

    monkeypatch.setattr(groebner.GroebnerBasis, "hilbert_numerator", moved)
    with pytest.raises(AssertionError, match=message):
        hilbert_table(build_koszul(VS, [P("x*y"), P("x^2")]), (1, 1), 6)


def test_a_numerator_the_factor_does_not_divide_is_refused(monkeypatch):
    # adding (1 - t)^2 to K(t) keeps grade 1 but leaves K - 1 + t with a
    # constant term, so K(t) is no Hilbert numerator of x*(y, x)
    numerator = groebner.GroebnerBasis.hilbert_numerator

    def moved(self, weights):
        k = dict(numerator(self, weights))
        for d, v in {0: 1, 1: -2, 2: 1}.items():
            k[d] = k.get(d, 0) + v
        return {d: v for d, v in k.items() if v}

    monkeypatch.setattr(groebner.GroebnerBasis, "hilbert_numerator", moved)
    with pytest.raises(AssertionError, match=r"^K\(t\) - 1 \+ t\^1 = .* is not divisible by t\^1$"):
        hilbert_table(build_koszul(VS, [P("x*y"), P("x^2")]), (1, 1), 6)
