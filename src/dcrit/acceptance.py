"""The acceptance suite: every release-gating property in one runnable list.

Each criterion is a function returning a `checks.CheckReport` that carries
its wall time and no trial count; `run_all` executes them in order.
Determinism of the CLI's JSON output (the eleventh gate) is exercised in the
test suite by invoking the CLI twice, since the suite cannot usefully re-run
itself from within.
"""

from __future__ import annotations

import time
from fractions import Fraction
from random import Random

from .checks import CheckReport, rand_poly, var_names
from .cohomology import (hilbert_table, is_regular_sequence, resolution_certificate,
                         slice_cohomology)
from .koszul import base_change_compare, build_koszul, build_tautological_koszul
from .parsing import parse_one_form, parse_poly
from .poly import Poly, gradient, normalize_weights
from .polyvec import check_bracket_compat, check_bv, check_gerstenhaber, exact_form
from .symplectic import (NotClosedError, intersect_graph_lagrangians, is_symmetric,
                         minus_one_pairing)
from .coalgebra import check_coalgebra

#: quasi-homogeneous corpus used by several criteria: source and variables
CORPUS = (
    ("x^2", ("x",)),
    ("x^3", ("x",)),
    ("x^3 + y^3", ("x", "y")),
    ("x^2 + y^2", ("x", "y")),
    ("x^4 + y^4", ("x", "y")),
    ("x^3 + y^3 + z^3", ("x", "y", "z")),
)


def _run(name: str, body) -> CheckReport:
    start = time.perf_counter()
    try:
        details, counterexample = body()
        status = "pass" if counterexample is None else "fail"
    except Exception as exc:  # a crash is a failure, not an abort
        details = {"error": f"{type(exc).__name__}: {exc}"}
        counterexample = None
        status = "fail"
    return CheckReport(name, status, None, counterexample, details, time.perf_counter() - start)


def criterion_tautological_resolution(seed: int = 0) -> CheckReport:
    """The tautological complex: H^{<0} = 0 and H^0 counts base monomials.

    The certificate's table takes every rank from a theorem, so every
    weight slice is also computed and compared with it.
    """

    def body():
        for n in range(0, 4):
            for m in range(1, 4):
                taut = build_tautological_koszul(var_names(n), m)
                table = hilbert_table(taut, (1,) * (n + m), 8)
                cert = resolution_certificate(taut, table)
                if not cert.passed:
                    return {}, {"n": n, "m": m, **cert.counterexample}
                for w in range(9):
                    sliced = slice_cohomology(taut, table.weights, w)
                    if sliced != {p: table.rows[p][w] for p in table.rows}:
                        return {}, {"n": n, "m": m, "weight": w, "sliced": sliced}
        return {"cases": "n in 0..3, m in 1..3, cutoff 8"}, None

    return _run("tautological_resolution", body)


def criterion_dual_numbers(seed: int = 0) -> CheckReport:
    """Rank-1 zero section over the empty base: one dimension each in degrees 0, -1."""

    def body():
        complex = build_koszul((), [Poly.zero(())])
        table = hilbert_table(complex, (), 4)
        got = {"0": table.total(0), "-1": table.total(-1)}
        if got != {"0": 1, "-1": 1}:
            return {}, {"expected": {"0": 1, "-1": 1}, "got": got}
        return {"dims": got}, None

    return _run("dual_numbers", body)


def criterion_base_change(seed: int = 0) -> CheckReport:
    """Specializing the tautological complex equals the direct Koszul complex."""

    def body():
        rng = Random(seed)
        for k in range(100):
            n = rng.randint(1, 3)
            m = rng.randint(1, 3)
            vs = var_names(n)
            comps = [Poly.zero(vs) if rng.random() < 0.1 else rand_poly(rng, vs, 3)
                     for _ in range(m)]
            report = base_change_compare(build_tautological_koszul(vs, m), comps)
            if not report.passed:
                return {}, {"trial": k, "n": n, "m": m,
                            "section": [str(c) for c in comps], **report.counterexample}
        return {"sections": 100}, None

    return _run("base_change", body)


def _closed_form_milnor(f: Poly, weights) -> int:
    """Product formula for the Milnor number of a quasi-homogeneous polynomial."""
    ws = normalize_weights(f.vars, weights)
    d = f.weighted_degree(ws)
    value = Fraction(1)
    for w in ws:
        value *= Fraction(d - w, w)
    if value.denominator != 1:
        raise ValueError(f"closed form is not an integer for {f}")
    return int(value)


def criterion_milnor_oracles(seed: int = 0) -> CheckReport:
    """Slice H^0 total, Groebner quotient dimension, and the product formula agree."""

    def body():
        rows = {}
        for src, vs in CORPUS:
            f = parse_poly(src, vs)
            ws = (1,) * len(vs)
            locus = build_koszul(vs, gradient(f))
            cutoff = len(vs) * (f.total_degree() - 2) + 2
            slice_total = hilbert_table(locus, ws, cutoff).total(0)
            quotient = len(locus.ideal.monomials)
            closed = _closed_form_milnor(f, ws)
            rows[src] = {"slices": slice_total, "groebner": quotient, "product": closed}
            if not (slice_total == quotient == closed):
                return {}, {"f": src, **rows[src]}
        return {"corpus": rows}, None

    return _run("milnor_oracles", body)


def criterion_regular_sequences(seed: int = 0) -> CheckReport:
    """Coordinate sections are regular up to the cutoff; (x, x) is not."""

    def body():
        for n in range(1, 4):
            vs = var_names(n)
            complex = build_koszul(vs, [Poly.variable(vs, v) for v in vs])
            report = is_regular_sequence(complex, (1,) * n, 8)
            if not report.passed:
                return {}, {"section": "coordinates", "n": n, **report.counterexample}
        x = Poly.variable(("x",), "x")
        degenerate = is_regular_sequence(build_koszul(("x",), [x, x]), (1,), 8)
        if degenerate.counterexample != {"first_failure": (-1, 1)}:
            return {}, {"section": "(x, x)", "regular": degenerate.passed,
                        "first_failure": None, **(degenerate.counterexample or {})}
        return {"regular": "coordinates n=1..3", "witness": {"section": "(x, x)",
                "first_failure": [-1, 1]}}, None

    return _run("regular_sequences", body)


def _over_sizes(check, key: str, sizes, seed: int) -> tuple[dict, dict | None]:
    """A criterion body that runs an identity suite at each (size, trials) in
    turn: the first failure with its size under `key`, or else the summed
    trials and the witnesses (details named *_witness) of the last run."""
    total = 0
    for size, trials in sizes:
        report = check(size, trials=trials, seed=seed)
        total += report.trials
        if not report.passed:
            return {}, {key: size, **(report.counterexample or {})}
    witnesses = {k: v for k, v in report.details.items() if k.endswith("_witness")}
    return {"trials": total, **witnesses}, None


def criterion_gerstenhaber(seed: int = 0) -> CheckReport:
    """Antisymmetry, Jacobi, Leibniz on 220 random homogeneous triples."""
    sizes = ((1, 20), (2, 100), (3, 100))
    return _run("gerstenhaber", lambda: _over_sizes(check_gerstenhaber, "n", sizes, seed))


def criterion_bracket_compat(seed: int = 0) -> CheckReport:
    """Contraction compatibility holds for exact forms; y d_x is falsified."""

    def body():
        for src, vs in CORPUS:
            alpha = exact_form(parse_poly(src, vs))
            report = check_bracket_compat(alpha, trials=20, seed=seed)
            if not (report.passed and report.details["closed"]):
                return {}, {"alpha": f"d({src})", **(report.counterexample or {})}
        bad = parse_one_form("y*d_x", ("x", "y"))
        report = check_bracket_compat(bad, trials=5, seed=seed)
        ce = report.counterexample or {}
        expected = {"X": "@x", "Y": "@y", "discrepancy": "-1"}
        if report.passed or any(ce.get(k) != v for k, v in expected.items()):
            return {}, {"alpha": "y*d_x", "expected": expected, "got": ce}
        return {"exact_forms": len(CORPUS), "falsification": ce}, None

    return _run("bracket_compat", body)


def criterion_bv(seed: int = 0) -> CheckReport:
    """Square-zero, generating relation, de Rham intertwining, anticommutation
    with d_df, non-derivation."""
    sizes = ((2, 120), (3, 80))
    return _run("bv_divergence", lambda: _over_sizes(check_bv, "n", sizes, seed))


def criterion_hessian_pairing(seed: int = 0) -> CheckReport:
    """Hessian symmetry, graph-intersection consistency, closedness rejection."""

    def body():
        rng = Random(seed)
        for k in range(100):
            n = rng.randint(1, 3)
            vs = var_names(n)
            f = rand_poly(rng, vs, 4, max_terms=4)
            if not is_symmetric(build_koszul(vs, gradient(f)).jacobian):
                return {}, {"trial": k, "f": str(f), "issue": "hessian not symmetric"}
        for src, vs in CORPUS:
            f = parse_poly(src, vs)
            # a nonconstant g, so the intersection is that of d(f - g), not of df
            linear = " + ".join(vs)
            g = parse_poly(f"({linear})^2 + {linear}", vs)
            complex = intersect_graph_lagrangians(exact_form(f), exact_form(g))
            direct = build_koszul(vs, gradient(f - g))
            for p in direct.degrees:
                if complex.differential_matrix(p) != direct.differential_matrix(p):
                    return {}, {"f": src, "degree": p, "issue": "matrices differ"}
            pairing = minus_one_pairing(complex)
            if not (pairing.symmetric and pairing.nondegenerate):
                return {}, {"f": src, "issue": "pairing not symmetric"}
        try:
            intersect_graph_lagrangians(parse_one_form("y*d_x", ("x", "y")),
                                        exact_form(Poly.zero(("x", "y"))))
            return {}, {"issue": "non-closed form was accepted"}
        except NotClosedError as e:
            witness = e.witness
        return {"random_hessians": 100, "rejection_witness": witness}, None

    return _run("hessian_pairing", body)


def criterion_coalgebra(seed: int = 0) -> CheckReport:
    """Coalgebra axioms and the coaction chain map, ranks 1 through 4."""
    sizes = ((1, 50), (2, 50), (3, 50), (4, 50))
    return _run("coalgebra", lambda: _over_sizes(check_coalgebra, "rank", sizes, seed))


ALL_CRITERIA = (
    criterion_tautological_resolution,
    criterion_dual_numbers,
    criterion_base_change,
    criterion_milnor_oracles,
    criterion_regular_sequences,
    criterion_gerstenhaber,
    criterion_bracket_compat,
    criterion_bv,
    criterion_hessian_pairing,
    criterion_coalgebra,
)


def run_all(seed: int = 0) -> list[CheckReport]:
    return [fn(seed) for fn in ALL_CRITERIA]
