"""Command line behavior: output shapes, exit codes, determinism."""

import json
from dataclasses import replace

import pytest

import dcrit.cli
import dcrit.groebner
import dcrit.koszul
from dcrit import __version__
from dcrit.checks import CheckReport
from dcrit.cli import main
from dcrit.koszul import build_koszul
from dcrit.parsing import parse_poly
from dcrit.poly import Poly, gradient
from dcrit.symplectic import obstruction_theory


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json", "--no-timing")
    return code, json.loads(out), err


def count_calls(monkeypatch, name, *owners):
    """One list that grows on every call of `name` through any of the owners."""
    calls = []
    real = getattr(owners[0], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, counting)
    return calls


def test_milnor_line(capsys):
    code, out, _ = run(capsys, "crit", "--vars", "x,y", "-f", "x^3 + y^3",
                       "--milnor")
    assert code == 0
    assert "milnor = 4" in out


def test_crit_json_schema(capsys):
    code, doc, _ = run_json(capsys, "crit", "--vars", "x,y", "-f", "x^3 + y^3")
    assert code == 0
    assert list(doc) == ["command", "inputs", "results", "version"]
    assert doc["command"] == "crit"
    assert doc["version"] == __version__
    assert doc["results"]["milnor"] == 4
    assert doc["results"]["pairing"] == {"hessian": ["6*x", "0", "0", "6*y"],
                                         "symmetric": True,
                                         "nondegenerate": True}
    assert doc["results"]["hilbert"]["0"][:4] == [1, 2, 1, 0]
    assert doc["results"]["obstruction"]["quotient_dim"] == 4


def test_crit_infinite_milnor(capsys):
    code, doc, _ = run_json(capsys, "crit", "--vars", "x,y", "-f", "x^2*y^2",
                            "--milnor")
    assert code == 0
    assert doc["results"]["milnor"] == "infinite"


def test_printed_polynomials_reparse(capsys):
    _, doc, _ = run_json(capsys, "crit", "--vars", "x,y", "-f", "x^3 + y^3",
                         "--pairing")
    entries = [parse_poly(s, ("x", "y")) for s in doc["results"]["pairing"]["hessian"]]
    f = parse_poly("x^3 + y^3", ("x", "y"))
    assert entries == [f.diff("x").diff("x"), f.diff("x").diff("y"),
                       f.diff("y").diff("x"), f.diff("y").diff("y")]


def test_zero_subcommand(capsys):
    code, doc, _ = run_json(capsys, "zero", "--vars", "x,y", "--section",
                            "x^2, y", "--cutoff", "6")
    assert code == 0
    assert doc["results"]["checks"] == [{"name": "d_squared", "status": "pass"}]
    assert doc["results"]["h0_dimension"] == 2
    assert doc["results"]["hilbert"]["0"] == [1, 1, 0, 0, 0, 0, 0]
    assert doc["inputs"]["weights"] == [1, 1]


def test_zero_inhomogeneous_without_weights_is_reported(capsys):
    code, doc, _ = run_json(capsys, "zero", "--vars", "x", "--section",
                            "x + x^2")
    assert code == 0
    assert doc["results"]["hilbert"] is None
    assert doc["results"]["h0_dimension"] == 2


def test_zero_inhomogeneous_with_weights_is_an_input_error(capsys):
    code, out, err = run(capsys, "zero", "--vars", "x", "--section", "x + x^2",
                         "--weights", "2")
    assert code == 2
    assert out == ""
    assert "not quasi-homogeneous" in err


def test_syntax_error_position(capsys):
    code, out, err = run(capsys, "zero", "--vars", "x", "--section", "x +* 2")
    assert code == 2
    assert "position 3" in err


def test_one_form_error_position(capsys):
    # the scalar summand y is at position 6, not at the start of the input
    code, out, err = run(capsys, "lagr", "--vars", "x,y", "--alpha", "x*d_x+y")
    assert code == 2
    assert out == ""
    assert "expected a 1-form" in err and "position 6" in err


def test_parser_is_built_once_and_keeps_no_state(capsys):
    import dcrit.cli as cli
    first = ("crit", "--vars", "x,y", "-f", "x^3 + y^4", "--milnor", "--weights", "3,4",
             "--cutoff", "3", "--json", "--no-timing")
    second = [("crit", "--vars", "x,y", "-f", "x^3 + y^3", "--no-timing"),
              ("check", "bv", "--trials", "3", "--json", "--no-timing")]
    alone = []
    for argv in second:
        cli._parser.cache_clear()
        alone.append(run(capsys, *argv))
    cli._parser.cache_clear()
    run(capsys, *first)
    after_first = [run(capsys, *argv) for argv in second]
    assert cli._parser.cache_info().misses == 1
    assert after_first == alone
    assert "milnor = 4" in after_first[0][1] and "pairing:" in after_first[0][1]


def test_deep_nesting_is_an_input_error(capsys):
    deep = "(" * 3000 + "x" + ")" * 3000
    code, out, err = run(capsys, "crit", "--vars", "x", "-f", deep)
    assert code == 2
    assert out == ""
    assert "nested deeper" in err and "position 100" in err


def test_crit_over_a_point(capsys):
    # a function on a point: the critical locus is the point, Milnor number 1
    code, doc, _ = run_json(capsys, "crit", "--vars", "", "-f", "3")
    assert code == 0
    assert doc["results"]["milnor"] == 1
    assert doc["results"]["obstruction"]["quotient_dim"] == 1
    assert doc["results"]["hilbert"]["0"][:2] == [1, 0]


def test_a_potential_over_a_point_gets_the_clis_values_from_the_library(capsys):
    # no variables: R = Q, the Jacobian ideal is zero and the Milnor number 1
    code, doc, _ = run_json(capsys, "crit", "--vars", "", "-f", "3")
    f = parse_poly("3", ())
    assert code == 0
    K = build_koszul((), gradient(f))
    assert K.ideal.dimension == len(K.ideal.monomials) == doc["results"]["milnor"]
    report = obstruction_theory(K)
    assert report.to_json() == doc["results"]["obstruction"]
    assert (report.quotient_dim, report.h0, report.h1) == (1, 0, 0)


def test_crit_pairing_alone_runs_no_buchberger(capsys, monkeypatch):
    def refuse(gens):
        raise AssertionError("buchberger called")
    monkeypatch.setattr(dcrit.koszul, "buchberger", refuse)
    monkeypatch.setattr(dcrit.groebner, "buchberger", refuse)
    code, doc, _ = run_json(capsys, "crit", "--vars", "x,y", "-f", "x^3 + y^3",
                            "--pairing")
    assert code == 0
    assert list(doc["results"]) == ["pairing"]


@pytest.mark.parametrize("vars, f", [("x,y", "x^3 + y^3"), ("x,y,z", "x^3 + y^3 + z^3 + x*y*z")])
def test_crit_computes_one_basis_and_one_jacobian(capsys, monkeypatch, vars, f):
    # milnor, obstruction and hilbert share one Groebner basis, and pairing and
    # obstruction one Hessian: n partials for the gradient, n^2 for the Jacobian
    bases = count_calls(monkeypatch, "buchberger", dcrit.koszul, dcrit.groebner)
    partials = count_calls(monkeypatch, "diff", Poly)
    code, doc, _ = run_json(capsys, "crit", "--vars", vars, "-f", f, "--cutoff", "6")
    n = len(vars.split(","))
    assert code == 0 and doc["results"]["hilbert"] is not None
    assert len(bases) == 1
    assert len(partials) == n + n * n


@pytest.mark.parametrize("json_flag", [("--json",), ()], ids=["json", "text"])
@pytest.mark.parametrize("argv, formatted", [
    (("crit", "--vars", "x,y,z", "-f", "x^3 + y^3 + z^3 + x*y*z", "--cutoff", "6"), 1 + 9),
    (("zero", "--vars", "x,y", "--section", "x^2, x*y, y^3"), 3),
], ids=["crit", "zero"])
def test_each_polynomial_is_formatted_once_per_report(capsys, monkeypatch, json_flag, argv, formatted):
    # crit prints f and the Hessian, which the pairing and the obstruction
    # both report; zero prints each section component, on its line and as input
    calls = count_calls(monkeypatch, "__str__", Poly)
    code, _, _ = run(capsys, *argv, *json_flag, "--no-timing")
    assert code == 0
    assert len(calls) == formatted


@pytest.mark.parametrize("argv, runs", [
    (("zero", "--vars", "x,y", "--section", "x^2, x*y, y^3"), 1),
    (("zero", "--vars", "x,y", "--section", "x^2 + y^2, x*y"), 1),
    (("lagr", "--vars", "x,y", "--alpha", "(3*x^2 + y^2)*d_x + 2*x*y*d_y"), 0),
], ids=["zero-sliced", "zero-closed-form", "lagr"])
def test_buchberger_runs_once_for_zero_and_never_for_lagr(capsys, monkeypatch, argv, runs):
    bases = count_calls(monkeypatch, "buchberger", dcrit.koszul, dcrit.groebner)
    code, _, _ = run_json(capsys, *argv)
    assert code == 0
    assert len(bases) == runs


def test_unknown_variable_is_an_input_error(capsys):
    code, _, err = run(capsys, "crit", "--vars", "x", "-f", "q + 1")
    assert code == 2
    assert "unknown name" in err


def test_fancy_subcommand(capsys):
    code, doc, _ = run_json(capsys, "fancy", "--vars", "x", "--rank", "2",
                            "--cutoff", "5")
    assert code == 0
    assert doc["results"]["checks"][0] == {"name": "resolution_certificate",
                                           "status": "pass"}
    assert doc["results"]["hilbert"]["0"] == [1, 1, 1, 1, 1, 1]
    assert doc["results"]["hilbert"]["-1"] == [0, 0, 0, 0, 0, 0]


def test_fancy_reports_a_failing_certificate_and_exits_one(capsys, monkeypatch):
    # a mutant table with H^-1 = 1 in weight 2: the certificate fails there
    real = dcrit.cli.hilbert_table

    def mutant(c, weights, cutoff):
        table = real(c, weights, cutoff)
        return replace(table, rows={**table.rows, -1: (0, 0, 1) + table.rows[-1][3:]})

    monkeypatch.setattr(dcrit.cli, "hilbert_table", mutant)
    code, doc, _ = run_json(capsys, "fancy", "--vars", "x", "--rank", "2",
                            "--cutoff", "5")
    assert code == 1
    assert doc["results"]["checks"][0] == {
        "name": "resolution_certificate", "status": "fail",
        "counterexample": {"degree": -1, "weight": 2, "expected": 0, "got": 1}}
    assert doc["results"]["hilbert"]["-1"] == [0, 0, 1, 0, 0, 0]


def test_check_compat_records_failure_but_exits_zero(capsys):
    code, doc, _ = run_json(capsys, "check", "compat", "--vars", "x,y",
                            "--alpha", "y*d_x", "--trials", "5")
    assert code == 0
    assert doc["results"]["holds"] is False
    entry = doc["results"]["checks"][0]
    assert entry["status"] == "fail"
    assert entry["counterexample"]["X"] == "@x"
    assert entry["counterexample"]["Y"] == "@y"
    assert entry["counterexample"]["discrepancy"] == "-1"


def test_check_compat_expect_holds_fails_loudly(capsys):
    code, _, _ = run_json(capsys, "check", "compat", "--vars", "x,y",
                          "--alpha", "y*d_x", "--trials", "5", "--expect-holds")
    assert code == 1


def test_check_compat_on_exact_form(capsys):
    code, doc, _ = run_json(capsys, "check", "compat", "--vars", "x,y",
                            "--alpha", "3*x^2*d_x + 3*y^2*d_y", "--trials", "10")
    assert code == 0
    assert doc["results"]["holds"] is True


def test_check_gerstenhaber(capsys):
    code, doc, _ = run_json(capsys, "check", "gerstenhaber", "--n", "2",
                            "--trials", "15")
    assert code == 0
    assert doc["results"]["checks"][0]["status"] == "pass"


def test_suite_json_times_each_criterion_last_and_counts_no_trials(capsys):
    code, out, _ = run(capsys, "suite", "--json")
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc["timing"]["seconds"], float)
    entries = doc["results"]["checks"]
    assert len(entries) == 10
    for entry in entries:
        assert list(entry)[-1] == "seconds"
        assert isinstance(entry["seconds"], float)
        assert entry["seconds"] >= 0
        assert "trials" not in entry
        assert list(entry)[:2] == ["name", "status"]


@pytest.mark.parametrize("argv", [
    ("gerstenhaber", "--trials", "5"),
    ("compat", "--vars", "x,y", "--alpha", "y*d_x", "--trials", "5"),
    ("d2", "--vars", "x,y", "--section", "x*y, x - y"),
], ids=["gerstenhaber", "compat-fail", "d2"])
def test_check_json_keeps_trials_after_status(capsys, argv):
    code, out, _ = run(capsys, "check", *argv, "--json")
    assert code == 0
    entry = json.loads(out)["results"]["checks"][0]
    assert list(entry)[:3] == ["name", "status", "trials"]
    assert "seconds" not in entry


def test_check_d2(capsys):
    code, doc, _ = run_json(capsys, "check", "d2", "--vars", "x,y",
                            "--section", "x*y, x - y")
    assert code == 0
    assert doc["results"]["checks"][0]["name"] == "d_squared"


@pytest.mark.parametrize("argv", [
    ("check", "bv", "--n", "0"),
    ("check", "gerstenhaber", "--n", "-1"),
    ("check", "coalgebra", "--rank", "-1"),
    ("check", "bv", "--n", "2", "--trials", "-1", "--expect-holds"),
    ("check", "gerstenhaber", "--trials", "-1"),
    ("check", "coalgebra", "--trials", "-1"),
    ("check", "compat", "--vars", "x,y", "--alpha", "y*d_x", "--trials", "-1"),
], ids=["bv-without-variables", "gerstenhaber-negative-n", "coalgebra-negative-rank",
        "bv-negative-trials", "gerstenhaber-negative-trials",
        "coalgebra-negative-trials", "compat-negative-trials"])
def test_check_out_of_range_sizes_are_input_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv, suite", [
    (("gerstenhaber",), "check_gerstenhaber"),
    (("bv",), "check_bv"),
    (("coalgebra",), "check_coalgebra"),
    (("compat", "--vars", "x,y", "--alpha", "y*d_x"), "check_bracket_compat"),
], ids=["gerstenhaber", "bv", "coalgebra", "compat"])
def test_check_max_deg_zero_is_honoured(capsys, monkeypatch, argv, suite):
    seen = []

    def record(*args, max_deg, **kwargs):
        seen.append(max_deg)
        return CheckReport(suite, "pass", 0)
    monkeypatch.setattr(f"dcrit.cli.{suite}", record)
    assert run(capsys, "check", *argv, "--max-deg", "0")[0] == 0
    assert seen == [0]


@pytest.mark.parametrize("argv, suite", [
    (("gerstenhaber",), "check_gerstenhaber"),
    (("bv",), "check_bv"),
    (("coalgebra",), "check_coalgebra"),
    (("compat", "--vars", "x,y", "--alpha", "y*d_x"), "check_bracket_compat"),
], ids=["gerstenhaber", "bv", "coalgebra", "compat"])
def test_check_without_max_deg_keeps_the_suite_default(capsys, monkeypatch, argv, suite):
    seen = []

    def record(*args, **kwargs):
        seen.append(kwargs)
        return CheckReport(suite, "pass", 0)
    monkeypatch.setattr(f"dcrit.cli.{suite}", record)
    assert run(capsys, "check", *argv)[0] == 0
    assert len(seen) == 1 and "max_deg" not in seen[0]


@pytest.mark.parametrize("which", ["gerstenhaber", "bv", "coalgebra"])
def test_check_negative_max_deg_is_an_input_error(capsys, which):
    code, out, err = run(capsys, "check", which, "--max-deg", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--max-deg" in err


def test_check_compat_without_variables_is_an_input_error(capsys):
    code, out, err = run(capsys, "check", "compat", "--vars", "", "--alpha", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "variable" in err


def test_check_coalgebra_over_no_variables_keeps_them(capsys):
    # an empty --vars is the ring with no variables, not the default x, y
    code, doc, _ = run_json(capsys, "check", "coalgebra", "--vars", "", "--trials", "20")
    assert code == 0
    assert doc["inputs"]["vars"] == []
    assert doc["results"]["holds"] is True


def test_check_missing_argument(capsys):
    code, _, err = run(capsys, "check", "compat", "--vars", "x,y")
    assert code == 2
    assert "alpha" in err


@pytest.mark.parametrize("argv, message", [
    (("zero", "--vars", "x,2y", "--section", "x"), "invalid variable name: '2y'"),
    (("zero", "--vars", "x,x", "--section", "x"), "duplicate variable names in 'x,x'"),
    (("zero", "--vars", "x,y", "--section", "x", "--weights", "1,a"),
     "weights must be integers, got '1,a'"),
    (("check", "d2", "--vars", "x,y"), "check d2 needs --vars and --section"),
    (("zero", "--vars", "x", "--section", "x $ 1"), "unexpected character '$'"),
], ids=["variable-name", "duplicate-variables", "weights", "d2-without-section", "character"])
def test_each_input_error_exits_two_on_stderr_alone(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_a_report_value_that_is_not_json_is_an_internal_error(capsys, monkeypatch):
    # --json prints no value as a string: the report is refused, not reworded
    monkeypatch.setattr("dcrit.cli._cmd_crit", lambda args: ({}, {"odd": object()}, ["odd"], 0))
    code, out, err = run(capsys, "crit", "--vars", "x", "-f", "x^2", "--json")
    assert code == 3
    assert err.startswith("internal error: TypeError: ")
    assert json.loads(out)["error"].startswith("TypeError: ")
    assert run(capsys, "crit", "--vars", "x", "-f", "x^2") == (0, "odd\n", "")


def test_lagr_subcommand(capsys):
    code, doc, _ = run_json(capsys, "lagr", "--vars", "x,y", "--alpha",
                            "x*d_x")
    assert code == 0
    assert doc["results"]["pairing"]["hessian"] == ["1", "0", "0", "0"]
    assert doc["results"]["complex"]["-1"] == {"rows": 1, "cols": 2,
                                               "entries": ["-x", "0"]}


def test_lagr_non_closed_is_an_input_error(capsys):
    code, _, err = run(capsys, "lagr", "--vars", "x,y", "--alpha", "y*d_x")
    assert code == 2
    assert "not closed" in err


@pytest.mark.parametrize("argv", [("lagr",), ("check", "compat")], ids=["lagr", "compat"])
def test_variable_named_like_a_generator_is_an_input_error(capsys, argv):
    # read as generators, d_x*d_x would silently be the zero form
    code, out, err = run(capsys, *argv, "--vars", "x,d_x", "--alpha", "d_x*d_x")
    assert code == 2
    assert out == ""
    assert "'d_x'" in err


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "--help")[0] == 0


def test_timing_is_present_unless_suppressed(capsys):
    code, out, _ = run(capsys, "crit", "--vars", "x", "-f", "x^2", "--milnor",
                       "--json")
    doc = json.loads(out)
    assert code == 0
    assert "timing" in doc and "seconds" in doc["timing"]
    _, doc2, _ = run_json(capsys, "crit", "--vars", "x", "-f", "x^2",
                          "--milnor")
    assert "timing" not in doc2


def test_unexpected_handler_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("slice table exploded")
    monkeypatch.setattr("dcrit.cli._cmd_crit", broken)
    code, out, err = run(capsys, "crit", "--vars", "x", "-f", "x^2")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: slice table exploded\n"
    code, out, err = run(capsys, "crit", "--vars", "x", "-f", "x^2", "--json")
    assert code == 3
    assert json.loads(out) == {"command": "crit",
                               "error": "RuntimeError: slice table exploded"}
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, option, value", [
    (("crit", "--vars", "x"), "-f", "-8*x^3"),
    (("crit", "--vars", "x,y"), "--function", "-x^3-y^3"),
    (("crit", "--vars", "f,x"), "-f", "-f*x+x^3"),   # not -f with the value "*x+x^3"
    (("zero", "--vars", "x,y"), "--section", "-x^2"),
    (("check", "d2", "--vars", "x,y"), "--section", "-x, y"),
    (("check", "compat", "--vars", "x,y", "--trials", "3"), "--alpha", "-y*d_x"),
    (("lagr", "--vars", "x,y"), "--alpha", "-2*x*d_x"),
    (("lagr", "--vars", "x,y", "--alpha", "x*d_x"), "--beta", "-y*d_y"),
], ids=["f", "function", "f-variable", "section", "d2-section", "alpha", "lagr-alpha", "beta"])
def test_an_expression_may_start_with_a_minus(capsys, argv, option, value):
    long = {"-f": "--function"}.get(option, option)
    code, doc, err = run_json(capsys, *argv, option, value)
    assert (code, err) == (0, "")
    assert (code, doc, err) == run_json(capsys, *argv, f"{long}={value}")


def test_an_option_after_an_expression_option_is_not_its_value(capsys):
    for value in ("--json", "-h", "--milnor"):
        code, out, err = run(capsys, "crit", "--vars", "x", "-f", value)
        assert code == 2 and out == ""
        assert "argument -f/--function: expected one argument" in err


def test_zero_decides_d_squared_once(capsys, monkeypatch):
    calls = count_calls(monkeypatch, "check_d_squared", dcrit.koszul)
    code, doc, _ = run_json(capsys, "zero", "--vars", "x,y", "--section", "x^2, x*y, y^3")
    assert code == 0 and doc["results"]["hilbert"] is not None
    assert len(calls) == 1


@pytest.mark.parametrize("section", ["x^2, x*y, y^3", "x^2, y^3, x + y"], ids=["sliced", "rank-3"])
def test_zero_refuses_a_table_when_d_squared_fails(capsys, monkeypatch, section):
    # the one d∘d answer zero takes is the one the slice table is refused on;
    # a failed check is exit 1, with the report printed
    import dcrit.koszul
    from test_cohomology import _sign_broken_contract
    monkeypatch.setattr(dcrit.koszul, "_contract", _sign_broken_contract(0))
    code, out, err = run(capsys, "zero", "--vars", "x,y", "--section", section)
    assert code == 1 and err == ""
    assert "d^2 = 0: fail" in out
    assert "slice table unavailable: the differential does not square to zero" in out
    code, doc, _ = run_json(capsys, "zero", "--vars", "x,y", "--section", section)
    assert code == 1
    assert doc["results"]["checks"] == [{"name": "d_squared", "status": "fail"}]
    assert doc["results"]["hilbert"] is None
