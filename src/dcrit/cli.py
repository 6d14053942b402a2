"""Command line entry point.

Subcommands:
    zero   - Koszul complex of a section: d^2 check, H^0 dimension, slice table
    fancy  - tautological complex over a chosen base, with resolution certificate
    crit   - critical locus of a potential: milnor, pairing, obstruction, slices
    check  - randomized identity suites (gerstenhaber, bv, coalgebra, compat, d2)
    lagr   - derived intersection of two graph Lagrangians
    suite  - the full acceptance run

Exit codes: 0 when the requested computation succeeded and no check that was
expected to hold failed, 1 when a check failed (for `check` only together
with --expect-holds; falsification runs are reportable successes), 2 on
input errors such as syntax or unknown variables, 3 on an internal error:
any other exception, reported on stderr as `internal error: <Type>:
<message>` without a traceback (and, with --json, as a JSON object with
the command and the error on stdout).

All output is deterministic for fixed inputs; --no-timing removes the only
wall-clock field so that repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache

from . import __version__
from .acceptance import run_all
from .checks import CheckReport
from .coalgebra import check_coalgebra
from .cohomology import InhomogeneousSectionError, hilbert_table, resolution_certificate
from .koszul import build_koszul, build_tautological_koszul, check_d_squared
from .parsing import parse_one_form, parse_poly, parse_section
from .poly import gradient, normalize_weights
from .polyvec import check_bracket_compat, check_bv, check_gerstenhaber, form_str
from .symplectic import intersect_graph_lagrangians, minus_one_pairing, obstruction_theory


def _parse_vars(spec: str) -> tuple[str, ...]:
    if spec.strip() == "":
        return ()
    names = tuple(part.strip() for part in spec.split(","))
    for name in names:
        if not name.isidentifier():
            raise ValueError(f"invalid variable name: {name!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names in {spec!r}")
    return names


def _parse_weights(spec: str, vars) -> tuple[int, ...]:
    try:
        ws = [int(part.strip()) for part in spec.split(",")]
    except ValueError:
        raise ValueError(f"weights must be integers, got {spec!r}")
    return normalize_weights(vars, ws)


def _matrix_json(matrix) -> dict:
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    return {"rows": rows, "cols": cols,
            "entries": [str(entry) for row in matrix for entry in row]}


def _hilbert_json(table) -> dict:
    return {str(p): list(table.rows[p]) for p in sorted(table.degrees(), reverse=True)}


def _hilbert_lines(table) -> list[str]:
    lines = []
    for p in sorted(table.degrees(), reverse=True):
        row = " ".join(str(d) for d in table.rows[p])
        mark = "  [complete]" if table.complete.get(p, False) else ""
        lines.append(f"H^{p} (w = 0..{table.cutoff}): {row}{mark}")
    return lines


def _slice_table(complex, weights, args, results: dict, lines: list[str]) -> None:
    """Add the slice table of `zero` and `crit` to their results and lines; an
    inhomogeneous section gets `"hilbert": null` unless --weights was given."""
    try:
        table = hilbert_table(complex, weights, args.cutoff)
    except InhomogeneousSectionError as e:
        if args.weights:
            raise
        results["hilbert"] = None
        lines.append(f"slice table unavailable: {e}")
        return
    results["hilbert"] = _hilbert_json(table)
    lines.extend(_hilbert_lines(table))


def _check_lines(entry: dict) -> list[str]:
    label = entry["name"]
    trials = f" ({entry['trials']} trials)" if "trials" in entry else ""
    lines = [f"{label}: {entry['status']}{trials}"]
    if "counterexample" in entry:
        lines.append("  counterexample:")
        lines.extend(f"    {k} = {v}" for k, v in entry["counterexample"].items())
    return lines


def _pairing_line(pairing: dict) -> str:
    """The text line of a PairingReport's JSON, as crit and lagr print it."""
    return (f"pairing: hessian = [{', '.join(pairing['hessian'])}], "
            f"symmetric = {str(pairing['symmetric']).lower()}, "
            f"nondegenerate = {str(pairing['nondegenerate']).lower()}")


def _ring(vars) -> str:
    return "Q[" + ", ".join(vars) + "]" if vars else "Q"


# one handler per subcommand, `_cmd_<command>`, looked up by name when main
# runs; each returns (inputs, results, human lines, exit code), and main
# wraps inputs and results into the JSON document

def _cmd_zero(args):
    vars = _parse_vars(args.vars)
    components = parse_section(args.section, vars)
    weights = _parse_weights(args.weights, vars) if args.weights else (1,) * len(vars)
    complex = build_koszul(vars, list(components))
    d2 = complex.d_squared
    h0 = complex.ideal.dimension
    check = CheckReport("d_squared", "pass" if d2 else "fail", None)
    results: dict = {"checks": [check.to_json()], "h0_dimension": h0}
    section = [str(c) for c in components]
    lines = [f"zero locus of ({', '.join(section)}) over {_ring(vars)}",
             f"d^2 = 0: {check.status}",
             f"H^0 dimension: {h0}"]
    if d2:
        _slice_table(complex, weights, args, results, lines)
    else:  # the check reports it; a table would need d∘d = 0
        results["hilbert"] = None
        lines.append("slice table unavailable: the differential does not square to zero")
    inputs = {"vars": list(vars), "section": section,
              "weights": list(weights), "cutoff": args.cutoff}
    return inputs, results, lines, (0 if d2 else 1)


def _cmd_fancy(args):
    vars = _parse_vars(args.vars)
    taut = build_tautological_koszul(vars, args.rank)
    table = hilbert_table(taut, (1,) * len(taut.ambient.vars), args.cutoff)
    cert = resolution_certificate(taut, table)
    results = {"checks": [cert.to_json()], "hilbert": _hilbert_json(table)}
    lines = [f"tautological complex over {_ring(vars)}, fiber ({', '.join(taut.fiber_vars)})",
             f"resolution certificate (cutoff {args.cutoff}): {cert.status}"]
    lines.extend(_hilbert_lines(table))
    inputs = {"vars": list(vars), "rank": args.rank, "cutoff": args.cutoff}
    return inputs, results, lines, (0 if cert.passed else 1)


def _cmd_crit(args):
    vars = _parse_vars(args.vars)
    f = parse_poly(args.function, vars)
    weights = _parse_weights(args.weights, vars) if args.weights else (1,) * len(vars)
    want_all = not (args.milnor or args.pairing or args.obstruction or args.hilbert)
    results: dict = {}
    text = str(f)
    lines = [f"f = {text} over {_ring(vars)}"]
    # the derived critical locus: every part reads its one Jacobian ideal and
    # Hessian, each computed when a part first asks for it
    locus = build_koszul(vars, gradient(f))
    if args.milnor or want_all:
        mu = locus.ideal.dimension
        results["milnor"] = mu
        lines.append(f"milnor = {mu}")
    # the obstruction report holds the pairing, so the Hessian is formatted once
    report = obstruction_theory(locus) if args.obstruction or want_all else None
    if args.pairing or want_all:
        results["pairing"] = (report.pairing if report else minus_one_pairing(locus)).to_json()
        lines.append(_pairing_line(results["pairing"]))
    if report:
        results["obstruction"] = report.to_json()
        lines.append(f"obstruction: quotient_dim = {report.quotient_dim}, "
                     f"h0 = {report.h0}, h1 = {report.h1}, "
                     f"hessian_invertible = {str(report.hessian_invertible).lower()}")
    if args.hilbert or want_all:
        _slice_table(locus, weights, args, results, lines)
    inputs = {"vars": list(vars), "f": text, "weights": list(weights),
              "cutoff": args.cutoff}
    return inputs, results, lines, 0


def _cmd_check(args):
    if args.max_deg is not None and args.max_deg < 0:
        raise ValueError(f"--max-deg must be nonnegative, got {args.max_deg}")
    # each suite keeps its own default unless --max-deg is given
    max_deg = {} if args.max_deg is None else {"max_deg": args.max_deg}
    inputs: dict = {"which": args.which, "trials": args.trials, "seed": args.seed,
                    "expect_holds": args.expect_holds}
    if args.which == "gerstenhaber":
        inputs["n"] = args.n
        report = check_gerstenhaber(args.n, trials=args.trials, seed=args.seed, **max_deg)
    elif args.which == "bv":
        inputs["n"] = args.n
        report = check_bv(args.n, trials=args.trials, seed=args.seed, **max_deg)
    elif args.which == "coalgebra":
        vars = _parse_vars(args.vars) if args.vars is not None else ("x", "y")
        inputs["rank"] = args.rank
        inputs["vars"] = list(vars)
        report = check_coalgebra(args.rank, trials=args.trials, seed=args.seed,
                                 vars=vars, **max_deg)
    elif args.which == "compat":
        if args.vars is None or args.alpha is None:
            raise ValueError("check compat needs --vars and --alpha")
        vars = _parse_vars(args.vars)
        alpha = parse_one_form(args.alpha, vars)
        inputs["vars"] = list(vars)
        inputs["alpha"] = form_str(alpha)
        report = check_bracket_compat(alpha, trials=args.trials, seed=args.seed, **max_deg)
    else:  # d2, the last of argparse's choices
        if args.vars is None or args.section is None:
            raise ValueError("check d2 needs --vars and --section")
        vars = _parse_vars(args.vars)
        components = parse_section(args.section, vars)
        inputs["vars"] = list(vars)
        inputs["section"] = [str(c) for c in components]
        ok = check_d_squared(build_koszul(vars, list(components)))
        report = CheckReport("d_squared", "pass" if ok else "fail", 1)
    entry = report.to_json()
    results = {"checks": [entry], "holds": report.passed}
    lines = _check_lines(entry)
    code = 1 if (args.expect_holds and not report.passed) else 0
    return inputs, results, lines, code


def _cmd_lagr(args):
    vars = _parse_vars(args.vars)
    alpha = parse_one_form(args.alpha, vars)
    beta = parse_one_form(args.beta, vars)
    complex = intersect_graph_lagrangians(alpha, beta)
    matrices = {str(p): _matrix_json(complex.differential_matrix(p))
                for p in sorted(complex.degrees, reverse=True) if p < 0}
    results = {"pairing": minus_one_pairing(complex).to_json(), "complex": matrices}
    inputs = {"vars": list(vars), "alpha": form_str(alpha), "beta": form_str(beta)}
    lines = [f"graph intersection of ({inputs['alpha']}) and ({inputs['beta']}) over {_ring(vars)}"]
    for p, mat in matrices.items():
        rows = [", ".join(mat["entries"][r * mat["cols"]:(r + 1) * mat["cols"]])
                for r in range(mat["rows"])]
        lines.append(f"d_{p}: [" + "; ".join(rows) + "]")
    lines.append(_pairing_line(results["pairing"]))
    return inputs, results, lines, 0


def _cmd_suite(args):
    outcomes = run_all(args.seed)
    with_timing = not args.no_timing
    results = {"checks": [r.to_json(with_timing=with_timing) for r in outcomes]}
    lines = []
    for r in outcomes:
        stamp = f" ({r.elapsed:.2f}s)" if with_timing else ""
        lines.append(f"[{r.status.upper()}] {r.name}{stamp}")
        if r.counterexample:
            lines.extend(f"    {k} = {v}" for k, v in r.counterexample.items())
    passed = sum(1 for r in outcomes if r.passed)
    lines.append(f"suite: {passed}/{len(outcomes)} passed")
    inputs = {"seed": args.seed}
    code = 0 if passed == len(outcomes) else 1
    return inputs, results, lines, code


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call.

    Parsing reads it and leaves it as it was: each call gets a fresh
    namespace with the defaults filled in.
    """
    parser = argparse.ArgumentParser(
        prog="dcrit",
        description="Exact Koszul complexes and derived critical loci.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--no-timing", action="store_true",
                       help="omit wall-clock fields for byte-stable output")

    p = sub.add_parser("zero", help="Koszul complex of a section")
    p.add_argument("--vars", required=True, help="comma-separated base variables")
    p.add_argument("--section", required=True, help="comma-separated section components")
    p.add_argument("--weights", help="comma-separated positive variable weights")
    p.add_argument("--cutoff", type=int, default=12, help="largest slice weight")
    common(p)

    p = sub.add_parser("fancy", help="tautological complex with generic section")
    p.add_argument("--vars", default="", help="comma-separated base variables")
    p.add_argument("--rank", type=int, required=True, help="number of fiber generators")
    p.add_argument("--cutoff", type=int, default=12, help="largest slice weight")
    common(p)

    p = sub.add_parser("crit", help="critical locus of a potential")
    p.add_argument("--vars", required=True, help="comma-separated base variables")
    p.add_argument("-f", "--function", required=True, help="the potential")
    p.add_argument("--milnor", action="store_true", help="critical quotient dimension")
    p.add_argument("--pairing", action="store_true", help="degree -1 pairing data")
    p.add_argument("--obstruction", action="store_true",
                   help="Hessian ranks on the critical quotient")
    p.add_argument("--hilbert", action="store_true", help="slice dimension table")
    p.add_argument("--weights", help="comma-separated positive variable weights")
    p.add_argument("--cutoff", type=int, default=12, help="largest slice weight")
    common(p)

    p = sub.add_parser("check", help="randomized identity suites")
    p.add_argument("which", choices=("gerstenhaber", "bv", "coalgebra", "compat", "d2"))
    p.add_argument("--n", type=int, default=2, help="number of base variables")
    p.add_argument("--rank", type=int, default=2, help="exterior rank (coalgebra)")
    p.add_argument("--vars", help="comma-separated base variables")
    p.add_argument("--alpha", help="1-form for the compat check")
    p.add_argument("--section", help="section components for the d2 check")
    p.add_argument("--trials", type=int, default=200, help="random trials")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--max-deg", type=int, help="degree bound for random inputs")
    p.add_argument("--expect-holds", action="store_true",
                   help="exit nonzero when the identity fails")
    common(p)

    p = sub.add_parser("lagr", help="derived intersection of graph Lagrangians")
    p.add_argument("--vars", required=True, help="comma-separated base variables")
    p.add_argument("--alpha", required=True, help="first closed 1-form")
    p.add_argument("--beta", default="0", help="second closed 1-form (default 0)")
    common(p)

    p = sub.add_parser("suite", help="run every acceptance criterion")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    common(p)

    parser.commands = sub.choices  # name -> subcommand parser, for _attach_expressions
    return parser


#: Destinations of the options whose value is an expression, which may start with '-'.
_EXPRESSIONS = ("function", "section", "alpha", "beta")


def _attach_expressions(argv: list[str]) -> list[str]:
    """argv with each expression option and a value after it that starts with
    a single '-' joined into one `--option=value` token.

    argparse reads a token that starts with '-' and holds no space as an
    option, so `-f "-8*x^3"` would stop at "expected one argument".  A value
    that is an option of the subcommand, or starts with '--', stays as it is.
    """
    commands = _parser().commands
    command = next((arg for arg in argv if arg in commands), None)
    if command is None:
        return argv
    options = commands[command]._option_string_actions
    out, rest = [], iter(argv)
    for arg in rest:
        action = options.get(arg)
        if action is None or action.dest not in _EXPRESSIONS:
            out.append(arg)
            continue
        value = next(rest, None)
        if (value is not None and value.startswith("-") and not value.startswith("--")
                and value.split("=")[0] not in options):
            out.append(f"{action.option_strings[-1]}={value}")
        else:
            out += [arg] if value is None else [arg, value]
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(_attach_expressions(argv))
    except SystemExit as e:
        return int(e.code or 0)
    start = time.perf_counter()
    try:
        inputs, results, lines, code = globals()[f"_cmd_{args.command}"](args)
        if args.json:
            doc = {"command": args.command, "inputs": inputs, "results": results,
                   "version": __version__}
            if not args.no_timing:
                doc["timing"] = {"seconds": round(time.perf_counter() - start, 3)}
            lines = [json.dumps(doc, indent=2)]
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        error = f"{type(e).__name__}: {e}"
        print(f"internal error: {error}", file=sys.stderr)
        if args.json:
            print(json.dumps({"command": args.command, "error": error}, indent=2))
        return 3
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
