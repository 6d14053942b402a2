"""The symmetric pairing carried by a critical locus, and graph intersections.

The two-term tangent complex of a critical locus is self-dual through the
Hessian; symmetry of that matrix is exactly what makes the pairing work.
The critical locus of f is the Koszul complex of df, whose Jacobian is the
Hessian.  Intersecting the graphs of two closed 1-forms generalizes the
picture: the intersection is the Koszul complex of their difference, a
derived zero locus with the same pairing.
Run as: python3 demos/05_shifted_pairings.py
"""

from dcrit import (NotClosedError, Poly, build_koszul, exact_form, form_str,
                   gradient, intersect_graph_lagrangians,
                   minus_one_pairing, obstruction_theory, parse_one_form,
                   parse_poly)

VS = ("x", "y")


def P(src):
    return parse_poly(src, VS)


def crit_locus(src):
    """The derived critical locus of f: the Koszul complex of df."""
    return build_koszul(VS, gradient(P(src)))


print("== the Hessian pairing ==")
for src in ("x*y", "x^3 + y^3"):
    rows = ["[" + ", ".join(str(e) for e in row) + "]" for row in crit_locus(src).jacobian]
    print(f"hessian({src:9}) = {' '.join(rows)}")
report = minus_one_pairing(crit_locus("x^3 + y^3"))
print(f"symmetric = {report.symmetric}, nondegenerate = {report.nondegenerate}")
# a symmetric differential is self-adjoint, so the pairing is perfect levelwise
duality = ("identity on the chosen bases (perfect levelwise)" if report.nondegenerate
           else "none: the differential is not self-adjoint")
print(f"duality map: {duality}")

print()
print("== obstruction data on the critical quotient ==")
for src in ("x^2 + y^2", "x^3 + y^3", "x^2*y^2"):
    ob = obstruction_theory(crit_locus(src))
    print(f"f = {src:9}: quotient {ob.quotient_dim!s:>8}, h0 = {ob.h0}, "
          f"h1 = {ob.h1}, hessian invertible = {ob.hessian_invertible}")

print()
print("== graph intersections ==")
f = P("x^3 + y^3")
meet = intersect_graph_lagrangians(exact_form(f), exact_form(Poly.zero(VS)))
print(f"intersecting graph(df) with the zero section for f = {f}:")
print(f"  section components: {tuple(str(c) for c in meet.section.components)}")
print(f"  pairing symmetric = {minus_one_pairing(meet).symmetric}")

alpha = exact_form(P("x^2"))
beta = exact_form(P("y^2"))
meet = intersect_graph_lagrangians(alpha, beta)
print(f"graph({form_str(alpha)}) meets graph({form_str(beta)}) along section "
      f"{tuple(str(c) for c in meet.section.components)}")

print()
print("== closedness is a real precondition ==")
try:
    intersect_graph_lagrangians(parse_one_form("y*d_x", VS), exact_form(Poly.zero(VS)))
except NotClosedError as e:
    print(f"rejected: {e}")
