"""The exterior coalgebra and how it coacts on every Koszul complex.

Splitting a wedge monomial across a tensor sign-correctly gives the
exterior algebra a comultiplication; the same splitting lets any Koszul
complex coact compatibly with its differential.
Run as: python3 demos/06_coalgebra_action.py
"""

from dcrit import (Ambient, ExtElt, build_koszul, check_d_squared, coaction,
                   comultiply, counit, antipode, parse_poly, parse_section)
from dcrit.coalgebra import tensor_collapse, tensor_d_first, tensor_map
from dcrit.exterior import contract

VS = ("x", "y")
AMB = Ambient(VS, ("e1", "e2"))
e1, e2 = ExtElt.generator(AMB, 0), ExtElt.generator(AMB, 1)

print("== comultiplication ==")
print(f"D(e1)       = {comultiply(e1)}")
print(f"D(e1/\\e2)   = {comultiply(e1 * e2)}")
print(f"counit(3 + e1) = {counit(3 * ExtElt.one(AMB) + e1)}")
print(f"antipode(e1)   = {antipode(e1)}")

print()
print("== the Hopf law, melted by hand ==")
a = e1 * e2
d = comultiply(a)
melted = tensor_collapse(tensor_map(d, antipode, 1))
print(f"collapse((S x id)(D(e1/\\e2))) = {melted}")
print(f"counit(e1/\\e2)                = {counit(a)}   (they agree)")

print()
print("== coacting on a Koszul complex ==")
section = parse_section("x^2, y", VS)
K = build_koszul(VS, list(section))
print(f"complex of (x^2, y): d^2 = 0 is {check_d_squared(K)}")
a = parse_poly("x", VS) * e1 * e2
rho = coaction(K, a)
print(f"coaction on {a}:")
print(f"  {rho}")
lhs = tensor_d_first(rho, K.section)
rhs = coaction(K, contract(K.section, a))
print(f"chain map: (d x id) after coaction equals coaction after d: {lhs == rhs}")
