"""dcrit benchmark harness.

    python3 bench/run.py --workload crit-corpus --seed 0 --seconds 25 --trace 0

Runs one workload in-process through `dcrit.cli.main([..., "--json",
"--no-timing"])`, one problem after another in one thread (a closed loop
with one client), checks every report against the oracles in oracles.py
outside the timed interval, and prints one JSON result as the last line of
stdout.  The line before it is a run record: metadata, the output digest,
failures and, with --trace 1, every traced layer.

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics from spans recorded around dcrit's public functions (spans.py).
Times are scaled by a reference kernel timed around each problem (see
REF_NOMINAL_S).  README.md lists every metric and why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import oracles
import spans
from workloads import SHAPES, problem

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Problems in the digest set: two rounds of every shape.  Every run solves
# at least these, so digests compare across runs; traced runs solve only these.
CORE_ROUNDS = 2
SETUP_REPEATS = 11
# Set-up's warm-up problem comes from this seed, so set-up does the same
# work whatever --seed is.
WARMUP_SEED = 0
# The tail is the highest percentile with this many problems beyond it.
TAIL_BEYOND = 10
# A --trace 0 run stops after this many times --seconds of wall time even
# if it has not yet spent --seconds of scaled time.
WALL_LIMIT = 1.5

END_TO_END = {"solve_s.p50": "s", "solve_s.tail": "s", "problems_per_s": "1/s",
              "setup_s": "s", "peak_rss_mb": "MiB"}

# Layer metrics; see README.md for the end-to-end metric each should move.
TIMED = ("groebner.buchberger", "groebner.normal_form", "groebner.standard_monomials",
         "symplectic.obstruction_theory", "symplectic.minus_one_pairing", "poly.gradient",
         "cohomology.hilbert_table", "cohomology.resolution_certificate", "linalg.rank_rows",
         "poly.monomials_of_weight", "koszul.build_koszul", "koszul.build_tautological_koszul",
         "koszul.check_d_squared", "exterior.wedge", "exterior.contract", "polyvec.schouten",
         "polyvec.bv_delta", "coalgebra.comultiply", "coalgebra.check_coalgebra",
         "parsing.parse_poly", "parsing.parse_section", "cli.main")
CALLED = ("groebner.buchberger", "groebner.normal_form", "cohomology.hilbert_table",
          "linalg.rank_rows", "poly.monomials_of_weight", "exterior.wedge", "exterior.contract",
          "polyvec.schouten", "polyvec.bv_delta", "coalgebra.comultiply")
COUNTED = {"groebner.buchberger.basis_size_max": "count", "groebner.buchberger.distinct_ratio": "ratio",
           "cohomology.slices": "count", "linalg.rank_rows.rows": "count",
           "linalg.rank_rows.nnz": "count", "linalg.rank_rows.pivot_ratio": "ratio",
           "checks.trials": "count", "trace.overhead_frac": "ratio"}
PER_LAYER = {**{f"{n}.calls": "count" for n in CALLED},
             **{f"{n}.self_s": "s" for n in TIMED}, **COUNTED}


def import_dcrit():
    """A fresh import of dcrit from this checkout's src/, as a new process would do."""
    if not (SRC / "dcrit" / "__init__.py").is_file():
        raise FileNotFoundError(f"no dcrit package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "dcrit" or n.startswith("dcrit.")]:
        del sys.modules[name]
    cli = importlib.import_module("dcrit.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"dcrit imported from {cli.__file__}, not from {SRC}")
    return cli


# On a 2-vCPU host whose cores are shared with other tenants, interpreter
# speed drifts by a third over tens of seconds, which no run length averages
# out.  Every timed interval is therefore scaled by REF_NOMINAL_S / (the
# reference kernel's time measured just before and just after it): times
# are seconds of a machine on which the kernel takes REF_NOMINAL_S, its
# quiet-time duration on such a host (Python 3.11).  The kernel is stdlib
# work that dcrit changes cannot speed up.
REF_NOMINAL_S = 0.0025


def reference_kernel() -> Fraction:
    """Fixed work shaped like dcrit's inner loops: Fraction sums, dict updates, a sort."""
    acc: dict = {}
    total = Fraction(0)
    for i in range(1, 400):
        key = (i % 7, i % 11, i % 13)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 17 - 8, i % 5 + 1)
        total += acc[key]
    sorted(acc, key=lambda k: (sum(k), tuple(-e for e in reversed(k))))
    return total


def reference_seconds() -> float:
    start = perf_counter()
    reference_kernel()
    return perf_counter() - start


def solve(cli, prob):
    """(seconds around cli.main, exit code or None if it raised, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(prob.argv))
        except Exception as exc:  # a crash is a failed problem, reported below
            code = None
            print(f"{type(exc).__name__}: {exc}", file=err)
        seconds = perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


class Pass:
    """Scaled times, failures and the output digest of problems solved in order."""

    def __init__(self):
        self.times: list[float] = []
        self.raw_times: list[float] = []
        self.failures: list[dict] = []
        self.digest = hashlib.sha256()
        self.trials = 0
        self._ref = None

    def run(self, cli, index: int, prob) -> float:
        """Solve and check one problem; return the factor its time was scaled by."""
        before = self._ref or reference_seconds()
        seconds, code, out, err = solve(cli, prob)
        self._ref = reference_seconds()
        scale = REF_NOMINAL_S / ((before + self._ref) / 2)
        errors = oracles.verify(prob, code, out) if code is not None else [err.strip()]
        self.times.append(seconds * scale)
        self.raw_times.append(seconds)
        self.digest.update(out.encode())
        if errors:
            self.failures.append({"index": index, "kind": prob.kind,
                                  "argv": list(prob.argv), "errors": errors[:3]})
        elif prob.argv[0] == "check":
            self.trials += json.loads(out)["results"]["checks"][0]["trials"]
        return scale


def setup(workload: str, seed: int):
    """Import dcrit, generate the digest set and solve one warm-up problem (scaled seconds)."""
    before = reference_seconds()
    start = perf_counter()
    cli = import_dcrit()
    core = [problem(workload, seed, i) for i in range(CORE_ROUNDS * len(SHAPES[workload]))]
    solve(cli, problem(workload, WARMUP_SEED, 0))
    seconds = perf_counter() - start
    return seconds * REF_NOMINAL_S / ((before + reference_seconds()) / 2), cli, core


def run_untraced(cli, workload, seed, core, seconds):
    """Solve the digest set, then further problems until `seconds` of scaled time are spent.

    Budgeting scaled rather than wall time keeps the problem count, and with
    it the tail percentile, independent of the machine's speed; the wall
    clock only stops a run on a machine far slower than nominal.
    """
    p = Pass()
    core_digest = None
    wall_limit = perf_counter() + WALL_LIMIT * seconds
    spent = 0.0
    i = 0
    while i < len(core) or (spent < seconds and perf_counter() < wall_limit):
        p.run(cli, i, core[i] if i < len(core) else problem(workload, seed, i))
        spent += p.times[-1]
        i += 1
        if i == len(core):
            core_digest = p.digest.hexdigest()
    n = len(p.times)
    ordered = sorted(p.times)
    verified = n - len(p.failures)
    metrics = {"solve_s.p50": statistics.median(p.times),
               "solve_s.tail": ordered[n - 1 - TAIL_BEYOND],
               "problems_per_s": verified / sum(p.times)}
    info = {"problems": n, "digest": core_digest,
            "tail_percentile": round(100 * (n - TAIL_BEYOND) / n, 2),
            "unscaled": {"solve_s.p50": statistics.median(p.raw_times),
                         "solve_s.tail": sorted(p.raw_times)[n - 1 - TAIL_BEYOND],
                         "problems_per_s": verified / sum(p.raw_times)}}
    return p, metrics, info


class Cycle(NamedTuple):
    plain: Pass
    traced: Pass
    tracer: spans.Tracer
    calls: Counter       # span name -> calls in the traced pass
    selfs: Counter       # span name -> scaled self seconds in the traced pass
    per_kind: dict       # problem kind -> Counter of problems and layer calls


def run_traced(cli, core, seconds):
    """Alternate untraced and traced passes over the digest set until `seconds` pass.

    Every pass must give the same digest and every traced pass the same
    counts; layer times are medians over the traced passes.
    """
    cycles = []
    start = perf_counter()
    while True:
        began = perf_counter()
        plain = Pass()
        for i, prob in enumerate(core):
            plain.run(cli, i, prob)
        tracer = spans.Tracer()
        calls, selfs = Counter(), Counter()
        per_kind: dict[str, Counter] = {}
        tracer.install()
        try:
            traced = Pass()
            for i, prob in enumerate(core):
                mark = len(tracer.names)
                scale = traced.run(cli, i, prob)
                kind = per_kind.setdefault(prob.kind, Counter())
                kind["problems"] += 1
                for name, (n, self_s) in tracer.layers(since=mark).items():
                    calls[name] += n
                    selfs[name] += self_s * scale
                    if name in CALLED or name in TIMED:
                        kind[name] += n
        finally:
            tracer.uninstall()
        cycles.append(Cycle(plain, traced, tracer, calls, selfs, per_kind))
        spent = perf_counter() - start
        if spent + (perf_counter() - began) > seconds:
            break
    return cycles


def layer_metrics(cycles) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics, every traced layer, and any disagreement between passes."""
    disagreements = []
    first = cycles[0]
    digest = first.plain.digest.hexdigest()
    for c in cycles:
        if c.calls != first.calls or c.tracer.counts != first.tracer.counts:
            disagreements.append("traced call counts differ between passes")
        for label, p in (("untraced", c.plain), ("traced", c.traced)):
            if p.digest.hexdigest() != digest:
                disagreements.append(f"{label} pass digest differs from the first pass")
    selfs = {n: statistics.median(c.selfs[n] for c in cycles) for n in first.calls}
    overhead = statistics.median((sum(c.traced.times) - sum(c.plain.times)) / sum(c.plain.times)
                                 for c in cycles)
    counts = first.tracer.counts
    buchberger = first.calls["groebner.buchberger"]
    rows = counts["linalg.rank_rows.rows"]
    metrics = {f"{n}.calls": first.calls[n] for n in CALLED}
    metrics.update({f"{n}.self_s": selfs.get(n, 0.0) for n in TIMED})
    metrics.update({
        "groebner.buchberger.basis_size_max": counts["groebner.buchberger.basis_size_max"],
        "groebner.buchberger.distinct_ratio":
            len(first.tracer.ideals) / buchberger if buchberger else 0.0,
        "cohomology.slices": counts["cohomology.slices"],
        "linalg.rank_rows.rows": rows,
        "linalg.rank_rows.nnz": counts["linalg.rank_rows.nnz"],
        "linalg.rank_rows.pivot_ratio": counts["linalg.rank_rows.rank"] / rows if rows else 0.0,
        "checks.trials": first.traced.trials,
        "trace.overhead_frac": overhead,
    })
    every = {n: {"calls": first.calls[n], "self_s": selfs[n]} for n in sorted(first.calls)}
    return metrics, every, disagreements


def metadata(workload, seed, trace, seconds) -> dict:
    """Run metadata; `commit` is None outside a git checkout or for a packed ref."""
    head = ROOT / ".git" / "HEAD"
    commit = head.read_text().strip() if head.is_file() else None
    if commit and commit.startswith("ref: "):
        target = ROOT / ".git" / commit[5:]
        commit = target.read_text().strip() if target.is_file() else None
    src = hashlib.sha256()
    for path in sorted((SRC / "dcrit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
            "python": platform.python_version(), "commit": commit,
            "src_sha256": src.hexdigest(), "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        setup_s, cli, core = setup(args.workload, args.seed)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = metadata(args.workload, args.seed, args.trace, args.seconds)
    record["core_problems"] = len(core)
    disagreements: list[str] = []
    if args.trace == 0:
        p, metrics, info = run_untraced(cli, args.workload, args.seed, core, args.seconds)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Set-up is repeated only after peak_rss_mb is read: each repeat
        # imports dcrit afresh, and the heap does not shrink back after one.
        metrics["setup_s"] = statistics.median(
            [setup_s] + [setup(args.workload, args.seed)[0] for _ in range(SETUP_REPEATS - 1)])
        units = END_TO_END
        record.update(info)
        passes = [p]
    else:
        cycles = run_traced(cli, core, args.seconds)
        metrics, every, disagreements = layer_metrics(cycles)
        units = PER_LAYER
        record.update({"problems": len(core), "digest": cycles[0].plain.digest.hexdigest(),
                       "cycles": len(cycles), "per_kind": cycles[0].per_kind, "layers": every})
        passes = [p for c in cycles for p in (c.plain, c.traced)]
    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    failures = [f for p in passes for f in p.failures]
    record.update({"failed_frac": failed / attempted, "failures": failures[:5],
                   "disagreements": disagreements})
    for f in failures[:5]:
        print(f"failed: {json.dumps(f)}", file=sys.stderr)
    for d in disagreements:
        print(f"disagreement: {d}", file=sys.stderr)
    result = {"correct": failed == 0 and not disagreements, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
