"""Critical loci three ways: slices, Groebner bases, and a product formula.

For a quasi-homogeneous isolated singularity the dimension of the critical
quotient R/(df) can be computed by three independent routes; they must
agree exactly.  Run as: python3 demos/03_critical_loci.py
"""

from fractions import Fraction

from dcrit import (buchberger, build_koszul, gradient, hilbert_table,
                   is_regular_sequence, parse_poly)

CORPUS = (
    ("x^2", ("x",)),
    ("x^3", ("x",)),
    ("x^3 + y^3", ("x", "y")),
    ("x^2 + y^2", ("x", "y")),
    ("x^4 + y^4", ("x", "y")),
    ("x^3 + y^3 + z^3", ("x", "y", "z")),
)

print("== three oracles for the critical quotient ==")
print(f"{'f':>18} | slices | groebner | product")
for src, vs in CORPUS:
    f = parse_poly(src, vs)
    grads = list(gradient(f))
    cutoff = len(vs) * (f.total_degree() - 2) + 2
    table = hilbert_table(build_koszul(vs, grads), (1,) * len(vs), cutoff)
    slices = table.total(0)
    groebner = buchberger(grads).dimension
    d = f.total_degree()
    product = 1
    for _ in vs:
        product *= Fraction(d - 1, 1)
    print(f"{src:>18} | {slices:6} | {groebner:8} | {int(product):7}")

print()
print("== a non-isolated counterpoint ==")
g = parse_poly("x^2*y^2", ("x", "y"))
print(f"milnor(x^2*y^2) = {buchberger(list(gradient(g))).dimension}")

print()
print("== slice tables show where the classes live ==")
f = parse_poly("x^3 + y^3", ("x", "y"))
table = hilbert_table(build_koszul(("x", "y"), list(gradient(f))), (1, 1), 5)
for p in sorted(table.degrees(), reverse=True):
    print(f"H^{p} by weight: {table.rows[p]}")
print("degree 0 row reads 1, 2, 1: the classes of 1; x, y; x*y")

print()
print("== regular sequences have no negative cohomology ==")
xy = build_koszul(("x", "y"), list(parse_poly(v, ("x", "y")) for v in ("x", "y")))
print(f"(x, y) regular up to weight 8: {is_regular_sequence(xy, (1, 1), 8).passed}")
x = parse_poly("x", ("x",))
report = is_regular_sequence(build_koszul(("x",), [x, x]), (1,), 8)
print(f"(x, x) regular: {report.passed}; first failure (degree, weight) = "
      f"{report.counterexample['first_failure']}")
