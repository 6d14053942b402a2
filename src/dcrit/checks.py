"""Shared infrastructure for randomized identity checks.

Every suite is a stream of random inputs, drawn from a deterministic RNG with
an explicit seed, and a table of identities; `run_identities`, the one trial
loop, tries each draw against the table and reports a CheckReport, as the
acceptance criteria do.  A drawn element is built once, by the public
constructor, from its summed int and Fraction coefficients.
`counterexample` shrinks a failing instance by greedily deleting terms while
the failure persists, so counterexamples stay readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Callable, Iterator, Sequence

from .exterior import Ambient, ExtElt, Section
from .poly import Poly, Scalar


@dataclass
class CheckReport:
    """Outcome of one identity suite (counted in trials, not timed) or
    acceptance criterion (timed, no trial count)."""

    name: str
    status: str  # "pass" or "fail"
    trials: int | None
    counterexample: dict | None = None
    details: dict = field(default_factory=dict)
    elapsed: float | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self, with_timing: bool = False) -> dict:
        """name, status, then trials, counterexample, details and seconds where present."""
        out: dict = {"name": self.name, "status": self.status}
        if self.trials is not None:
            out["trials"] = self.trials
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.details:
            out["details"] = self.details
        if with_timing and self.elapsed is not None:
            out["seconds"] = round(self.elapsed, 3)
        return out


def var_names(n: int) -> tuple[str, ...]:
    if n < 0:
        raise ValueError(f"number of variables must be nonnegative, got {n}")
    if n <= 4:
        return ("x", "y", "z", "w")[:n]
    return tuple(f"x{i + 1}" for i in range(n))


def _require_trials(trials: int) -> None:
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")


def rand_coeff(rng: Random) -> Scalar:
    c = 0
    while c == 0:
        c = rng.randint(-3, 3)
    if rng.random() < 0.2:
        return Fraction(c, rng.randint(2, 3))
    return c


def rand_exps(rng: Random, nvars: int, max_deg: int) -> tuple[int, ...]:
    deg = rng.randint(0, max_deg)
    exps = [0] * nvars
    for _ in range(deg):
        if nvars:
            exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def rand_poly(rng: Random, vars: Sequence[str], max_deg: int, max_terms: int = 3) -> Poly:
    vs = tuple(vars)
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = rand_exps(rng, len(vs), max_deg)
        terms[exps] = terms.get(exps, 0) + rand_coeff(rng)
    return Poly(vs, terms)


def _rand_elt(rng: Random, ambient: Ambient, max_deg: int, max_terms: int,
              wedge_degree: int | None) -> ExtElt:
    """Up to max_terms random terms, each of the given wedge degree or, for None,
    of one drawn per term."""
    m = ambient.rank
    pool = list(range(m))
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        p = rng.randint(0, m) if wedge_degree is None else wedge_degree
        subset = tuple(sorted(rng.sample(pool, p)))
        key = (rand_exps(rng, len(ambient.vars), max_deg), subset)
        terms[key] = terms.get(key, 0) + rand_coeff(rng)
    return ExtElt(ambient, terms)


def rand_homogeneous(rng: Random, ambient: Ambient, max_deg: int,
                     wedge_degree: int | None = None, max_terms: int = 3) -> ExtElt:
    """Random element concentrated in a single wedge degree."""
    p = rng.randint(0, ambient.rank) if wedge_degree is None else wedge_degree
    return _rand_elt(rng, ambient, max_deg, max_terms, p)


def rand_mixed(rng: Random, ambient: Ambient, max_deg: int, max_terms: int = 4) -> ExtElt:
    """Random element with no homogeneity constraint."""
    return _rand_elt(rng, ambient, max_deg, max_terms, None)


def rand_section(rng: Random, ambient: Ambient, max_deg: int, zero_chance: float = 0.15) -> Section:
    comps = []
    for _ in range(ambient.rank):
        if rng.random() < zero_chance:
            comps.append(Poly.zero(ambient.vars))
        else:
            comps.append(rand_poly(rng, ambient.vars, max_deg))
    return Section(ambient, tuple(comps))


def _one_term_deleted(elts: list) -> Iterator[list]:
    """Every input list that drops one term of one `ExtElt` input, in order."""
    for i, e in enumerate(elts):
        if isinstance(e, ExtElt):
            for key in e._num:
                smaller = ExtElt._make(e.ambient, {k: c for k, c in e._num.items() if k != key},
                                       e._den)
                yield elts[:i] + [smaller] + elts[i + 1:]


def counterexample(identity: str, fails: Callable, elts: Sequence,
                   labels: Sequence[str] = "abc") -> dict:
    """{"identity": identity, label: input, ...} for a failing identity, each
    `ExtElt` input shrunk by deleting terms while `fails` still holds (a deletion
    it raises on is skipped) and any other input printed as given; a dict that
    `fails` returns on the shrunk inputs is appended."""
    current = list(elts)
    witness = fails(*current)
    while True:
        for trial in _one_term_deleted(current):
            try:
                smaller_witness = fails(*trial)
            except (ValueError, ZeroDivisionError):
                continue
            if smaller_witness:
                current, witness = trial, smaller_witness
                break
        else:
            extra = witness if isinstance(witness, dict) else {}
            return {"identity": identity, **dict(zip(labels, map(str, current))), **extra}


def run_identities(suite: str, trials: int, draws: Iterator[dict],
                   identities: Sequence[tuple[str, Callable, Sequence[str]]],
                   details: dict) -> CheckReport:
    """The trial loop of every identity suite.

    Each of `trials` draws is a dict of inputs keyed by label; every identity
    `(name, fails, labels)` whose labels the draw holds is tried on those
    inputs, in table order, and the first that fails ends the run with its
    shrunk counterexample.
    """
    for ran in range(trials):
        inputs = next(draws)
        for name, fails, labels in identities:
            if all(k in inputs for k in labels):
                elts = [inputs[k] for k in labels]
                if fails(*elts):
                    return CheckReport(suite, "fail", ran + 1,
                                       counterexample(name, fails, elts, labels), details)
    return CheckReport(suite, "pass", trials, None, details)
