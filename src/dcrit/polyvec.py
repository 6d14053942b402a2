"""Polyvector fields: the odd bracket, the divergence operator, and forms.

Polyvector fields on affine n-space are exterior elements over the ambient
with one odd generator @x_i per coordinate (wedge degree p in cohomological
degree -p).  One convention ties everything in this module together, and the
randomized identity suites in `check_*` are the normative statement of it:

  * the bracket of a vector field and a function is the directional
    derivative, and on vector fields it is the Lie bracket;
  * the divergence operator `bv_delta` sends f*@x to df/dx, squares to
    zero, and corresponds to the de Rham differential under contraction
    with a constant volume form;
  * the bracket measures exactly the failure of `bv_delta` to be a
    derivation (the generating relation below).

Closed formulas used here, for a of pure wedge degree p (extended linearly):

    [[a, b]] = (-1)^(p+1) * sum_i od_i(a) ^ d_i(b)  -  sum_i d_i(a) ^ od_i(b)
    Delta(a) = sum_i d_i(od_i(a))

where od_i is the left odd derivative along @x_i and d_i differentiates the
polynomial coefficients along x_i.  Both are evaluated term by term (term
pair by term pair for the bracket), building no intermediate element, on
the operands' int numerators; the result is reduced once at the end, over
the product of their denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from random import Random
from typing import Sequence

from .checks import (CheckReport, _require_trials, rand_homogeneous, rand_mixed, rand_poly,
                     run_identities, var_names)
from .exterior import (Ambient, ExtElt, Section, _common_denominator, _odd_parts, contract,
                       merge_sign, wedge)
from .poly import Poly, Scalar, _exact, _shift, exps_add, gradient


@cache
def _ambient(prefix: str, vars: tuple[str, ...]) -> Ambient:
    """The one Ambient over vars whose generator of each variable x is prefix + x."""
    return Ambient(vars, tuple(prefix + v for v in vars))


def polyvector_ambient(vars: Sequence[str]) -> Ambient:
    """One odd generator @x per variable x; one shared Ambient per variable tuple."""
    return _ambient("@", tuple(vars))


def form_ambient(vars: Sequence[str]) -> Ambient:
    """One generator d_x per variable x; one shared Ambient per variable tuple."""
    return _ambient("d_", tuple(vars))


def _require_polyvector(a: ExtElt | Section) -> None:
    amb = a.ambient
    if amb is not _ambient("@", amb.vars) and amb.gens != tuple("@" + v for v in amb.vars):
        raise ValueError("expected an element of the polyvector ambient")


# -- one-forms ----------------------------------------------------------------
#
# A 1-form sum a_i d_x_i is the Section of the polyvector ambient whose
# component i pairs with @x_i, so contraction along it is `contract`, and
# its value on a vector field is read off that contraction.


def exact_form(f: Poly) -> Section:
    """The 1-form df."""
    return Section(polyvector_ambient(f.vars), gradient(f))


def closedness_witness(alpha: Section) -> dict | None:
    """None when the 1-form alpha is closed, else the first failing pair of partials."""
    _require_polyvector(alpha)
    vs, comps = alpha.ambient.vars, alpha.components
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            lhs = comps[j].diff(vs[i])
            rhs = comps[i].diff(vs[j])
            if lhs != rhs:
                return {
                    "pair": (vs[i], vs[j]),
                    "d_" + vs[i] + "(a_" + vs[j] + ")": str(lhs),
                    "d_" + vs[j] + "(a_" + vs[i] + ")": str(rhs),
                }
    return None


def form_str(alpha: Section) -> str:
    """The 1-form alpha written with d_ generators, as parse_one_form reads it."""
    _require_polyvector(alpha)
    components, d = _common_denominator(alpha.components)
    return str(ExtElt._make(form_ambient(alpha.ambient.vars),
                            {(exps, (i,)): c for i, p in enumerate(components)
                             for exps, c in p.items()}, d))


def alpha_of_vector(alpha: Section, X: ExtElt) -> Poly:
    """Evaluation alpha(X) = sum a_i X^i of a 1-form on a vector field: since
    contraction along alpha sends @x_i to -a_i, it is -contract(alpha, X)."""
    _require_polyvector(alpha)
    _require_polyvector(X)
    if X.ambient != alpha.ambient:
        raise ValueError("form and field live over different variables")
    if any(len(s) != 1 for s in X.subsets()):
        raise ValueError("expected a vector field (pure wedge degree one)")
    return -contract(alpha, X).scalar_part()


def apply_vector(X: ExtElt, f: Poly) -> Poly:
    """Directional derivative X(f) = df(X) of a vector field."""
    return alpha_of_vector(exact_form(f), X)


# -- the bracket ---------------------------------------------------------------


def schouten(a: ExtElt, b: ExtElt) -> ExtElt:
    """The odd bracket of polyvector fields (degree +1 in each slot).

    The closed formula of the module docstring, one term pair at a time:
    each i with @x_i in a's term and x_i in b's gives an od_i(a) ^ d_i(b)
    term, each i with @x_i in b's term and x_i in a's a d_i(a) ^ od_i(b) term.
    """
    _require_polyvector(a)
    if a.ambient is not b.ambient and a.ambient != b.ambient:
        raise ValueError("mixed ambients")
    bterms = [(eb, sb, cb, _odd_parts(sb)) for (eb, sb), cb in b._num.items()]
    terms: dict = {}
    for (ea, sa), ca in a._num.items():
        front = 1 if len(sa) % 2 else -1  # (-1)^(p+1) on wedge degree p
        aparts = _odd_parts(sa)
        for eb, sb, cb, bparts in bterms:
            e = exps_add(ea, eb)
            c = ca * cb
            for i, sign, rest in aparts:
                k = eb[i]
                if k:
                    s, merged = merge_sign(rest, sb)
                    if s:
                        key = (_shift(e, i, -1), merged)
                        terms[key] = terms.get(key, 0) + front * sign * s * k * c
            for i, sign, rest in bparts:
                k = ea[i]
                if k:
                    s, merged = merge_sign(sa, rest)
                    if s:
                        key = (_shift(e, i, -1), merged)
                        terms[key] = terms.get(key, 0) - sign * s * k * c
    return ExtElt._make(a.ambient, terms, a._den * b._den)


# -- volume forms, contraction, de Rham, divergence ----------------------------


@dataclass(frozen=True)
class VolumeForm:
    """A constant multiple of dx_1 ^ ... ^ dx_n."""

    vars: tuple[str, ...]
    density: Scalar = 1

    def __post_init__(self):
        object.__setattr__(self, "density", _exact(self.density))
        if self.density == 0:
            raise ValueError("volume density must be nonzero")


def _complement(subset: tuple[int, ...], n: int) -> tuple[int, ...]:
    inside = set(subset)
    return tuple(i for i in range(n) if i not in inside)


def _vol_factor(subset: tuple[int, ...], rest: tuple[int, ...]) -> int:
    """The sign of @x_subset into dx_1 ^ ... ^ dx_n, whose image is dx_rest."""
    p = len(subset)
    tau = 1 if (p * (p - 1) // 2) % 2 == 0 else -1
    sign, _ = merge_sign(subset, rest)
    return tau * sign


def vol_contract(vol: VolumeForm, a: ExtElt) -> ExtElt:
    """Contraction into the volume form: wedge degree p to form degree n-p."""
    _require_polyvector(a)
    if a.ambient.vars != vol.vars:
        raise ValueError("volume form lives over different variables")
    n = len(vol.vars)
    terms: dict = {}
    for (exps, subset), c in a._num.items():
        rest = _complement(subset, n)
        terms[(exps, rest)] = vol.density.numerator * c * _vol_factor(subset, rest)
    return ExtElt._make(form_ambient(vol.vars), terms, a._den * vol.density.denominator)


def de_rham(w: ExtElt) -> ExtElt:
    """Exterior derivative on polynomial differential forms."""
    amb = w.ambient
    if amb != form_ambient(amb.vars):
        raise ValueError("expected an element of the form ambient")
    n = len(amb.vars)
    terms: dict = {}
    for (exps, subset), c in w._num.items():
        for i in range(n):
            k = exps[i]
            if k == 0 or i in subset:
                continue
            sign, merged = merge_sign((i,), subset)
            key = (_shift(exps, i, -1), merged)
            terms[key] = terms.get(key, 0) + c * k * sign
    return ExtElt._make(amb, terms, w._den)


def bv_delta(vol: VolumeForm, a: ExtElt) -> ExtElt:
    """Divergence operator: sum_i d/dx_i applied after the odd derivative.

    Any constant density gives the same operator; the volume form argument
    records which contraction identifies it with the de Rham differential.
    """
    _require_polyvector(a)
    if a.ambient.vars != vol.vars:
        raise ValueError("volume form lives over different variables")
    terms: dict = {}
    for (exps, subset), c in a._num.items():
        for i, sign, rest in _odd_parts(subset):
            k = exps[i]
            if k:
                key = (_shift(exps, i, -1), rest)
                terms[key] = terms.get(key, 0) + sign * k * c
    return ExtElt._make(a.ambient, terms, a._den)


# -- randomized identity suites -------------------------------------------------


def _shifted_sign(a: ExtElt, b: ExtElt) -> int:
    """(-1)^((|a|+1)(|b|+1)) for homogeneous a, b."""
    e = (a.degree() + 1) * (b.degree() + 1)
    return 1 if e % 2 == 0 else -1


def _antisymmetry_fails(a: ExtElt, b: ExtElt) -> bool:
    return schouten(a, b) != -_shifted_sign(a, b) * schouten(b, a)


def _jacobi_fails(a: ExtElt, b: ExtElt, c: ExtElt) -> bool:
    lhs = schouten(a, schouten(b, c))
    rhs = schouten(schouten(a, b), c) + _shifted_sign(a, b) * schouten(b, schouten(a, c))
    return lhs != rhs


def _leibniz_fails(a: ExtElt, b: ExtElt, c: ExtElt) -> bool:
    sign = 1 if ((a.degree() + 1) * b.degree()) % 2 == 0 else -1
    lhs = schouten(a, wedge(b, c))
    rhs = wedge(schouten(a, b), c) + sign * wedge(b, schouten(a, c))
    return lhs != rhs


def check_gerstenhaber(n: int, trials: int = 200, seed: int = 0, max_deg: int = 3) -> CheckReport:
    """Antisymmetry, Jacobi, and Leibniz for the odd bracket, randomized."""
    _require_trials(trials)
    amb = polyvector_ambient(var_names(n))
    rng = Random(seed)

    def draws():
        while True:
            yield {label: rand_homogeneous(rng, amb, max_deg) for label in "abc"}

    identities = (("antisymmetry", _antisymmetry_fails, ("a", "b")),
                  ("jacobi", _jacobi_fails, ("a", "b", "c")),
                  ("leibniz", _leibniz_fails, ("a", "b", "c")))
    return run_identities("gerstenhaber", trials, draws(), identities, {"n": n})


def check_bracket_compat(alpha: Section, trials: int = 50, seed: int = 0,
                         max_deg: int = 2) -> CheckReport:
    """Compatibility of contraction along alpha with the bracket.

    Two probe families: the scalar identity
        alpha([X, Y]) = -Y(alpha(X)) + X(alpha(Y))
    over all coordinate pairs, then random vector fields, and the derivation
    identity
        d_alpha [[a, b]] = [[d_alpha a, b]] + (-1)^(|a|+1) [[a, d_alpha b]]
    on random homogeneous fields, where d_alpha = contract(alpha, -) is
    contraction along the 1-form.  Both hold exactly when alpha is closed;
    for a non-closed form the coordinate pairs, the first n(n-1)/2 trials,
    find a counterexample, and the report carries it with alpha([X, Y]), the
    probe value and their difference.
    """
    _require_trials(trials)
    _require_polyvector(alpha)
    amb = alpha.ambient
    if not amb.vars:
        raise ValueError("check_bracket_compat needs at least one variable, got none")
    rng = Random(seed)
    details = {"alpha": form_str(alpha), "closed": closedness_witness(alpha) is None}
    n = len(amb.vars)

    def scalar_fails(X: ExtElt, Y: ExtElt) -> dict | None:
        lhs = alpha_of_vector(alpha, schouten(X, Y))
        rhs = -apply_vector(Y, alpha_of_vector(alpha, X)) + apply_vector(X, alpha_of_vector(alpha, Y))
        if lhs == rhs:
            return None
        return {"alpha_of_bracket": str(lhs), "probe_value": str(rhs),
                "discrepancy": str(rhs - lhs)}

    def derivation_fails(a: ExtElt, b: ExtElt) -> bool:
        sign = 1 if (a.degree() + 1) % 2 == 0 else -1
        lhs = contract(alpha, schouten(a, b))
        rhs = schouten(contract(alpha, a), b) + sign * schouten(a, contract(alpha, b))
        return lhs != rhs

    def draws():
        for i, j in combinations(range(n), 2):
            yield {"X": ExtElt.generator(amb, i), "Y": ExtElt.generator(amb, j)}
        while True:
            yield {"X": rand_homogeneous(rng, amb, max_deg, wedge_degree=1),
                   "Y": rand_homogeneous(rng, amb, max_deg, wedge_degree=1),
                   "a": rand_homogeneous(rng, amb, max_deg),
                   "b": rand_homogeneous(rng, amb, max_deg)}

    identities = (("scalar", scalar_fails, ("X", "Y")),
                  ("derivation", derivation_fails, ("a", "b")))
    return run_identities("bracket_compat", n * (n - 1) // 2 + trials, draws(), identities,
                          details)


def check_bv(n: int, trials: int = 200, seed: int = 0, max_deg: int = 3) -> CheckReport:
    """The divergence operator: square zero, generating relation, de Rham, and
    anticommutation with contraction along exact 1-forms.

    The last, Delta(d_df v) + d_df(Delta v) = 0 for d_df = contract(df, -),
    is a theorem: d_df is, up to sign, the bracket [[f, -]], Delta is a
    derivation of the bracket and Delta(f) = 0.  Before any trial the suite
    checks the normalization Delta(x1*@x1) = 1 and the witness that Delta is
    not a derivation, the deviation x1 on a = x1*@x1 and b = x1 (fails if it
    is zero); a passing report records that witness.
    """
    _require_trials(trials)
    if n < 1:
        raise ValueError(f"check_bv needs at least one variable, got n = {n}")
    vars = var_names(n)
    amb = polyvector_ambient(vars)
    rng = Random(seed)
    vol = VolumeForm(vars)
    vol2 = VolumeForm(vars, Fraction(rng.randint(2, 7), rng.randint(1, 3)))
    details: dict = {"n": n, "densities": [str(vol.density), str(vol2.density)]}

    x1 = Poly.variable(vars, vars[0])
    a, b = ExtElt.wedge_monomial(amb, x1, (0,)), ExtElt.from_poly(amb, x1)
    if bv_delta(vol, a) != ExtElt.one(amb):
        return CheckReport("bv", "fail", 0,
                           {"identity": "normalization", "input": f"{vars[0]}*@{vars[0]}"},
                           details)

    def deviation(a: ExtElt, b: ExtElt) -> ExtElt:
        sign = 1 if (-a.degree()) % 2 == 0 else -1
        return bv_delta(vol, wedge(a, b)) - wedge(bv_delta(vol, a), b) - sign * wedge(a, bv_delta(vol, b))

    dev = deviation(a, b)
    witness = {"a": str(a), "b": str(b), "deviation": str(dev)}
    if dev.is_zero():
        return CheckReport("bv", "fail", 0, {"identity": "non_derivation", **witness}, details)

    def square_fails(v: ExtElt) -> bool:
        return not bv_delta(vol, bv_delta(vol, v)).is_zero()

    def generating_fails(a: ExtElt, b: ExtElt) -> bool:
        front = 1 if (1 - a.degree()) % 2 == 0 else -1
        return schouten(a, b) != front * deviation(a, b)

    def intertwine_fails(v: ExtElt) -> bool:
        return any(vol_contract(vf, bv_delta(vf, v)) != de_rham(vol_contract(vf, v))
                   for vf in (vol, vol2))

    def anticommute_fails(v: ExtElt, f: Poly) -> bool:
        alpha = exact_form(f)
        return not (bv_delta(vol, contract(alpha, v)) + contract(alpha, bv_delta(vol, v))).is_zero()

    def draws():
        while True:
            yield {"input": rand_mixed(rng, amb, max_deg), "a": rand_homogeneous(rng, amb, max_deg),
                   "b": rand_mixed(rng, amb, max_deg), "f": rand_poly(rng, vars, max_deg)}

    identities = (("square_zero", square_fails, ("input",)),
                  ("generating_relation", generating_fails, ("a", "b")),
                  ("volume_intertwine", intertwine_fails, ("input",)),
                  ("delta_d_alpha_anticommute", anticommute_fails, ("input", "f")))
    report = run_identities("bv", trials, draws(), identities, details)
    if report.passed:
        report.details["non_derivation_witness"] = witness
    return report
