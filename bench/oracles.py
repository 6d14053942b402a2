"""Independent answers for every benchmark problem, and the report checker.

Nothing here imports dcrit.  The expected values come from closed forms of
the problem's parameters:

- Milnor numbers: prod(a_i - 1) for Brieskorn-Pham potentials, (d - 1)^n for
  sums of d-th powers of independent linear forms, with or without
  lower-degree terms (the top-degree form is nondegenerate, so the global
  Jacobian quotient keeps dimension (d - 1)^n).
- Slice tables: for a section of weighted degrees d_j in variables of
  weights w_i, sum_p (-1)^p dim H^p_w is the t^w coefficient of
  prod_j (1 - t^d_j) / prod_i (1 - t^w_i); for a regular sequence H^0 is
  that series and H^{<0} = 0.  A section g*(u_1, ..., u_m) with (u_j)
  regular has dim H^0_w = dim R_w - dim R_{w-e} + dim (R/(u))_{w-e}.
- Identity suites: they hold, except the pinned y*d_x falsification.
"""

from __future__ import annotations

import json
from math import comb, prod


def series(num_degrees, den_weights, upto: int) -> list[int]:
    """Coefficients of t^0..t^upto in prod(1 - t^d) / prod(1 - t^w)."""
    c = [0] * (upto + 1)
    c[0] = 1
    for d in num_degrees:
        for k in range(upto, -1, -1):
            if k >= d:
                c[k] -= c[k - d]
    for w in den_weights:
        for k in range(w, upto + 1):
            c[k] += c[k - w]
    return c


def _shift(row: list[int], e: int) -> list[int]:
    return [0] * e + row[:len(row) - e] if e < len(row) else [0] * len(row)


def _rows(hilbert: dict, m: int, cutoff: int) -> dict[int, list[int]]:
    rows = {int(p): list(r) for p, r in hilbert.items()}
    if sorted(rows) != list(range(-m, 1)):
        raise ValueError(f"degrees {sorted(rows)} != {-m}..0")
    for p, r in rows.items():
        if len(r) != cutoff + 1 or not all(isinstance(v, int) and v >= 0 for v in r):
            raise ValueError(f"row H^{p} is not {cutoff + 1} nonnegative integers")
    return rows


def check_table(errors: list, rows, euler: list[int], h0: list[int] | None,
                negatives_vanish: bool) -> None:
    """Euler characteristic in every weight, plus H^0 and H^{<0} where known."""
    for w, want in enumerate(euler):
        got = sum((-1) ** (-p) * r[w] for p, r in rows.items())
        if got != want:
            errors.append(f"euler characteristic at weight {w}: {got} != {want}")
            break
    if h0 is not None and rows[0] != h0:
        errors.append(f"H^0 row {rows[0]} != {h0}")
    if negatives_vanish and any(any(r) for p, r in rows.items() if p < 0):
        errors.append("negative-degree cohomology should vanish")


def _check_crit(p, out, errors):
    res = out["results"]
    if "exponents" in p:
        mu = prod(a - 1 for a in p["exponents"])
        ws = p["weights"]
        degs = [a * w - w for a, w in zip(p["exponents"], ws)]
        homogeneous = True
    else:
        mu = (p["d"] - 1) ** p["n"]
        ws = [1] * p["n"]
        degs = [p["d"] - 1] * p["n"]
        homogeneous = p["homogeneous"]
    if res["milnor"] != mu:
        errors.append(f"milnor {res['milnor']} != {mu}")
    if res["obstruction"]["quotient_dim"] != res["milnor"]:
        errors.append("obstruction.quotient_dim != milnor")
    if res["pairing"]["symmetric"] is not True:
        errors.append("Hessian pairing reported asymmetric")
    if not homogeneous:
        if res["hilbert"] is not None:
            errors.append("inhomogeneous Jacobian ideal should give a null slice table")
        return
    cutoff = p["cutoff"]
    h0 = series(degs, ws, cutoff)
    check_table(errors, _rows(res["hilbert"], len(ws), cutoff), h0, h0, True)


def _check_fancy(p, out, errors):
    res = out["results"]
    if res["checks"][0]["status"] != "pass":
        errors.append("resolution certificate failed")
    n, m, cutoff = p["n"], p["m"], p["cutoff"]
    h0 = [comb(w + n - 1, n - 1) for w in range(cutoff + 1)]
    euler = series([1] * m, [1] * (n + m), cutoff)
    check_table(errors, _rows(res["hilbert"], m, cutoff), euler, h0, True)


def _check_zero(p, out, errors):
    res = out["results"]
    n, degs, e, cutoff = p["n"], p["degrees"], p["common"], p["cutoff"]
    m = len(degs)
    if res["checks"][0]["status"] != "pass":
        errors.append("d^2 != 0")
    want_h0 = prod(degs) if m == n and not e else "infinite"
    if res["h0_dimension"] != want_h0:
        errors.append(f"h0_dimension {res['h0_dimension']} != {want_h0}")
    rows = _rows(res["hilbert"], m, cutoff)
    euler = series([d + e for d in degs], [1] * n, cutoff)
    quotient = series(degs, [1] * n, cutoff)
    if e:
        ring = series([], [1] * n, cutoff)
        h0 = [a - b + c for a, b, c in zip(ring, _shift(ring, e), _shift(quotient, e))]
    else:
        h0 = quotient
    check_table(errors, rows, euler, h0, not e)
    if any(rows[-m]):
        errors.append(f"H^{-m} of a nonzero section should vanish")
    if e and not any(rows[-1]):
        errors.append("a section with a common factor should have H^-1 != 0")


def _check_identity(p, out, errors):
    res = out["results"]
    entry = res["checks"][0]
    if p.get("pinned"):
        ce = entry.get("counterexample") or {}
        if res["holds"] is not False or (ce.get("X"), ce.get("Y"), ce.get("discrepancy")) != ("@x", "@y", "-1"):
            errors.append(f"pinned y*d_x falsification not reproduced: {entry}")
        return
    if res["holds"] is not True or entry["status"] != "pass":
        errors.append(f"{p['which']} identity suite failed: {entry}")
    if entry["trials"] != p["trials"]:
        errors.append(f"ran {entry['trials']} trials, expected {p['trials']}")


_CHECKERS = {"crit": _check_crit, "fancy": _check_fancy, "zero": _check_zero,
             "check": _check_identity}


def verify(problem, code: int, stdout: str) -> list[str]:
    """Mismatches between one dcrit report and the oracle; empty when verified.

    A malformed report is a mismatch, never an exception.
    """
    if code != 0:
        return [f"exit code {code}"]
    errors: list[str] = []
    try:
        out = json.loads(stdout)
        if out["command"] != problem.argv[0]:
            errors.append(f"command {out['command']!r} != {problem.argv[0]!r}")
        _CHECKERS[problem.argv[0]](problem.params, out, errors)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        errors.append(f"malformed report: {type(exc).__name__}: {exc}")
    return errors
