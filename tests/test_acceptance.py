"""The release gate: every criterion runs at its stated budget.

Each test prints one `[PASS] criterion N: name (t)` line; `pytest -v` adds
its own verdict line per criterion.  Budgets are wall-clock upper bounds.
"""

import json
import time
from dataclasses import replace

from dcrit import acceptance, cohomology
from dcrit.acceptance import (criterion_base_change, criterion_bracket_compat,
                              criterion_bv, criterion_coalgebra,
                              criterion_dual_numbers, criterion_gerstenhaber,
                              criterion_hessian_pairing,
                              criterion_milnor_oracles,
                              criterion_regular_sequences,
                              criterion_tautological_resolution)
from dcrit.acceptance import CORPUS
from dcrit.checks import var_names
from dcrit.cli import main
from dcrit.cohomology import is_regular_sequence, resolution_certificate
from dcrit.exterior import Section
from dcrit.groebner import buchberger
from dcrit.koszul import (TautologicalKoszul, base_change_compare, build_koszul,
                          build_tautological_koszul)
from dcrit.parsing import parse_poly
from dcrit.poly import Poly

SEED = 0


def report(number, result, budget):
    line = (f"[{result.status.upper()}] criterion {number}: {result.name} "
            f"({result.elapsed:.2f}s, budget {budget:.0f}s)")
    print(line)
    assert result.passed, (result.details, result.counterexample)
    assert result.elapsed < budget, line


def test_criterion_01_tautological_resolution():
    report(1, criterion_tautological_resolution(SEED), 10.0)


def test_criterion_02_dual_numbers():
    report(2, criterion_dual_numbers(SEED), 1.0)


def test_criterion_03_base_change():
    result = criterion_base_change(SEED)
    assert result.details.get("sections") == 100 or not result.passed
    report(3, result, 10.0)


def test_criterion_04_milnor_oracles():
    result = criterion_milnor_oracles(SEED)
    if result.passed:
        corpus = result.details["corpus"]
        assert len(corpus) == 6
        assert corpus["x^3 + y^3"] == {"slices": 4, "groebner": 4, "product": 4}
        assert corpus["x^4 + y^4"]["product"] == 9
        assert corpus["x^3 + y^3 + z^3"]["product"] == 8
    report(4, result, 20.0)


def test_criterion_05_regular_sequences():
    report(5, criterion_regular_sequences(SEED), 5.0)


def test_criterion_06_gerstenhaber():
    result = criterion_gerstenhaber(SEED)
    if result.passed:
        assert result.details["trials"] >= 200
    report(6, result, 30.0)


def test_criterion_07_bracket_compat():
    result = criterion_bracket_compat(SEED)
    if result.passed:
        falsification = result.details["falsification"]
        assert falsification["X"] == "@x"
        assert falsification["Y"] == "@y"
        assert falsification["discrepancy"] == "-1"
    report(7, result, 5.0)


def test_criterion_08_bv():
    result = criterion_bv(SEED)
    if result.passed:
        assert result.details["trials"] >= 200
        assert result.details["non_derivation_witness"] is not None
    report(8, result, 30.0)


def test_criterion_09_hessian_pairing():
    result = criterion_hessian_pairing(SEED)
    if result.passed:
        assert result.details["random_hessians"] == 100
        assert result.details["rejection_witness"]["pair"] == ("x", "y")
    report(9, result, 10.0)


def test_criterion_10_coalgebra():
    result = criterion_coalgebra(SEED)
    if result.passed:
        assert result.details["trials"] >= 200
    report(10, result, 30.0)


def test_criterion_11_determinism(capsys):
    argv = ["suite", "--seed", "0", "--json", "--no-timing"]
    start = time.perf_counter()
    code1 = main(list(argv))
    first = capsys.readouterr().out
    code2 = main(list(argv))
    second = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    assert code1 == code2 == 0
    assert first == second  # byte-identical
    doc = json.loads(first)
    assert [c["status"] for c in doc["results"]["checks"]] == ["pass"] * 10
    print(f"[PASS] criterion 11: determinism ({elapsed:.2f}s)")


def test_milnor_oracles_compute_one_basis_per_potential(monkeypatch):
    calls = []

    def counting(gens):
        calls.append(gens)
        return buchberger(gens)

    monkeypatch.setattr("dcrit.groebner.buchberger", counting)
    monkeypatch.setattr("dcrit.koszul.buchberger", counting)
    assert criterion_milnor_oracles(SEED).passed
    assert len(calls) == len(CORPUS) == 6


def add_one_to_each_specialized_entry(monkeypatch):
    """Break base change: every specialized entry of the tautological complex is off by 1."""
    real = TautologicalKoszul.specialize_entry
    monkeypatch.setattr(TautologicalKoszul, "specialize_entry",
                        lambda self, entry, components: real(self, entry, components) + 1)


def test_base_change_criterion_reports_the_first_mismatched_entry(monkeypatch):
    add_one_to_each_specialized_entry(monkeypatch)
    result = criterion_base_change(SEED)
    assert not result.passed
    ce = result.counterexample
    assert list(ce) == ["trial", "n", "m", "section", "degree", "row", "col",
                        "specialized", "direct"]
    assert ce["trial"] == 0 and (ce["degree"], ce["row"], ce["col"]) == (-ce["m"], 0, 0)


def test_a_failing_criterion_prints_its_counterexample_and_exits_one(monkeypatch, capsys):
    add_one_to_each_specialized_entry(monkeypatch)
    assert main(["suite", "--no-timing"]) == 1
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("[FAIL] base_change")
    assert [line.split(" = ")[0] for line in lines[at + 1:at + 10]] == [
        "    trial", "    n", "    m", "    section", "    degree", "    row", "    col",
        "    specialized", "    direct"]
    assert lines[at + 10].startswith("[PASS]") and lines[-1] == "suite: 9/10 passed"


def nonzero_h_minus_one_in_weight_two(monkeypatch):
    """Break every Hilbert table the criteria read, theirs and `is_regular_sequence`'s:
    H^-1 = 1 in weight 2, every other entry as it was."""
    real = cohomology.hilbert_table

    def mutant(c, weights, cutoff):
        table = real(c, weights, cutoff)
        return replace(table, rows={**table.rows, -1: (0, 0, 1) + table.rows[-1][3:]})

    monkeypatch.setattr(cohomology, "hilbert_table", mutant)
    monkeypatch.setattr(acceptance, "hilbert_table", mutant)


def test_a_criterion_prints_its_case_then_the_failing_reports_counterexample(monkeypatch):
    # base change, regular sequences and the resolution certificate each return a
    # CheckReport; its counterexample is what the criterion prints after the case
    add_one_to_each_specialized_entry(monkeypatch)
    ce = criterion_base_change(SEED).counterexample
    vs = var_names(ce["n"])
    section = [parse_poly(src, vs) for src in ce["section"]]
    report = base_change_compare(build_tautological_koszul(vs, ce["m"]), section)
    assert not report.passed
    case = {k: ce[k] for k in ("trial", "n", "m", "section")}
    assert ce == {**case, **report.counterexample}

    nonzero_h_minus_one_in_weight_two(monkeypatch)
    ce = criterion_regular_sequences(SEED).counterexample
    assert ce == {"section": "coordinates", "n": 1, "first_failure": (-1, 2)}
    vs = var_names(1)
    report = is_regular_sequence(build_koszul(vs, [Poly.variable(vs, "x")]), (1,), 8)
    assert ce == {"section": "coordinates", "n": 1, **report.counterexample}

    ce = criterion_tautological_resolution(SEED).counterexample
    taut = build_tautological_koszul((), 1)
    report = resolution_certificate(taut, acceptance.hilbert_table(taut, (1,), 8))
    assert ce == {"n": 0, "m": 1, **report.counterexample}
    assert report.counterexample == {"degree": -1, "weight": 2, "expected": 0, "got": 1}


def test_a_criterion_whose_body_raises_fails_and_names_the_exception(monkeypatch):
    # a crash is a failed criterion with the error in its details, not an aborted suite
    def exploding(c, weights, cutoff):
        raise RuntimeError("table exploded")

    monkeypatch.setattr(acceptance, "hilbert_table", exploding)
    result = criterion_dual_numbers(SEED)
    assert (result.name, result.status, result.counterexample) == ("dual_numbers", "fail", None)
    assert result.details == {"error": "RuntimeError: table exploded"}


def test_hessian_pairing_catches_a_graph_intersection_of_the_sum(monkeypatch):
    # the intersection of the graphs of alpha and beta is the zero locus of
    # alpha - beta; this mutant meets alpha + beta and still rejects a non-closed form
    real = acceptance.intersect_graph_lagrangians

    def summed(alpha, beta):
        return real(alpha, Section(beta.ambient, tuple(-c for c in beta.components)))

    monkeypatch.setattr(acceptance, "intersect_graph_lagrangians", summed)
    result = criterion_hessian_pairing(SEED)
    assert not result.passed
    assert result.counterexample == {"f": "x^2", "degree": -1, "issue": "matrices differ"}
