"""The exterior coalgebra and how it coacts on every Koszul complex.

Comultiplication, counit and antipode are the algebra maps induced by
e_j -> e_j + e_j', e_j -> 0 and e_j -> -e_j, where the primed generators are
a second copy: a tensor a (x) b is the exterior element a /\\ b' on two
copies of the generators.  The same comultiplication lets any Koszul complex
coact compatibly with its differential.
Run as: python3 demos/06_coalgebra_action.py
"""

from dcrit import (Ambient, ExtElt, Poly, Section, algebra_map, build_koszul,
                   check_d_squared, comultiply, contract, counit, antipode,
                   parse_poly, parse_section, tensor_ambient)

VS = ("x", "y")
AMB = Ambient(VS, ("e1", "e2"))
TWO = tensor_ambient(AMB, 2)
e1, e2 = ExtElt.generator(AMB, 0), ExtElt.generator(AMB, 1)

print("== comultiplication ==")
print(f"D(e1)       = {comultiply(e1)}")
print(f"D(e1/\\e2)   = {comultiply(e1 * e2)}")
print(f"counit(3 + e1) = {counit(3 * ExtElt.one(AMB) + e1)}")
print(f"antipode(e1)   = {antipode(e1)}")

print()
print("== the Hopf law, as image tables ==")
# S (x) id negates the first copy; the collapse sends both copies onto one
antipode_first = [((0, -1),), ((1, -1),), ((2, 1),), ((3, 1),)]
collapse = [((0, 1),), ((1, 1),), ((0, 1),), ((1, 1),)]
a = e1 * e2
melted = algebra_map(algebra_map(comultiply(a), TWO, antipode_first), AMB, collapse)
print(f"collapse((S x id)(D(e1/\\e2))) = {melted}")
print(f"counit(e1/\\e2)                = {counit(a)}   (they agree)")

print()
print("== coacting on a Koszul complex ==")
section = parse_section("x^2, y", VS)
K = build_koszul(VS, list(section))
print(f"complex of (x^2, y): d^2 = 0 is {check_d_squared(K)}")
a = parse_poly("x", VS) * e1 * e2
# the coaction on K is comultiplication itself
rho = comultiply(a)
print(f"coaction on {a}:")
print(f"  {rho}")
# d (x) id is contraction along the section (s, 0) of the two copies
on_first = Section(TWO, K.section.components + (Poly.zero(VS),) * 2)
lhs = contract(on_first, rho)
rhs = comultiply(contract(K.section, a))
print(f"chain map: (d x id) after coaction equals coaction after d: {lhs == rhs}")
