"""Koszul complexes: matrices, the tautological construction, base change.

The Koszul complex of a section s of a trivial rank-m bundle lives on the
exterior algebra of the dual frame; its differential contracts along s.
The tautological complex postpones choosing s by adjoining fiber
coordinates; substituting a concrete section recovers the direct complex
on the nose.  Run as: python3 demos/02_koszul_and_base_change.py
"""

from dcrit import (base_change_compare, build_koszul, build_tautological_koszul,
                   check_d_squared, gradient, normal_form, parse_poly, parse_section)

VS = ("x", "y")

print("== the coordinate section ==")
K = build_koszul(VS, list(parse_section("x, y", VS)))
print(f"degrees: {list(K.degrees)}")
for p in (-1, -2):
    rows = [", ".join(str(q) for q in row) for row in K.differential_matrix(p)]
    print(f"d_{p}: [" + "; ".join(rows) + "]")
print(f"d^2 = 0: {check_d_squared(K)}")

print()
print("== the tautological complex over Q[x] ==")
taut = build_tautological_koszul(("x",), 2)
print(f"ambient variables: {taut.ambient.vars}")
print("its section is the fiber coordinates:",
      tuple(str(c) for c in taut.section.components))

print()
print("== base change onto a concrete section ==")
section = parse_section("x^2, x^3 - x", ("x",))
report = base_change_compare(taut, list(section))
print(f"substituting (x^2, x^3 - x) for (xi1, xi2): equal = {report.passed}")

print()
print("== the augmentation onto the critical quotient ==")
f = parse_poly("x^3 + y^3", VS)
crit = build_koszul(VS, list(gradient(f)))
print(f"f = {f}, quotient dimension = {crit.ideal.dimension}")
for src in ("x^2", "x*y", "x^4 + x"):
    print(f"  image of {src:8} = {normal_form(parse_poly(src, VS), crit.ideal)}")
