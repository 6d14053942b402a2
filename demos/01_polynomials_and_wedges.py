"""A first tour: exact polynomials and the wedge algebra they coefficient.

Everything below runs over Q with exact coefficients: an int when integral,
a fractions.Fraction otherwise, never a float, so every printed value is
exact.  Run as: python3 demos/01_polynomials_and_wedges.py
"""

from fractions import Fraction

from dcrit import Ambient, ExtElt, Poly, Section, contract, merge_sign, parse_poly

VS = ("x", "y")

print("== polynomials ==")
f = parse_poly("(x + 1/2*y)^2", VS)
print(f"(x + y/2)^2          = {f}")
print(f"d/dx of that         = {f.diff('x')}")
print(f"weighted degree (1,1) of x^2: {parse_poly('x^2', VS).weighted_degree((1, 1))}")
print(f"weighted degree (2,3) of x^3 + y^2: "
      f"{parse_poly('x^3 + y^2', VS).weighted_degree((2, 3))}")

print()
print("== the exterior algebra ==")
amb = Ambient(VS, ("e1", "e2", "e3"))
e1, e2, e3 = (ExtElt.generator(amb, i) for i in range(3))
print(f"e1 /\\ e2             = {e1 * e2}")
print(f"e2 /\\ e1             = {e2 * e1}")
print(f"e1 /\\ e1             = {e1 * e1}")
a = parse_poly("x", VS) * e1 + e2 * e3
print(f"a                    = {a}")
print(f"a /\\ a               = {a * a}")

print()
print("== merge signs ==")
print("every sign in the package routes through one inversion count:")
for left, right in (((0,), (1,)), ((1,), (0,)), ((0, 2), (1,)), ((0, 1), (1,))):
    sign, merged = merge_sign(left, right)
    print(f"merge {left} with {right}: sign {sign:+d}, merged {merged}"
          if sign else f"merge {left} with {right}: overlap, term dies")

print()
print("== contraction along a section ==")
s = Section(amb, (parse_poly("x", VS), parse_poly("y", VS), Poly.zero(VS)))
print(f"section s            = {s}")
print(f"contract(s, e1)      = {contract(s, e1)}")
print(f"contract(s, e1/\\e2)  = {contract(s, e1 * e2)}")
twice = contract(s, contract(s, e1 * e2 * e3))
print(f"contracting twice    = {twice}  (always zero: d^2 = 0)")

print()
print(f"exactness check: 1/3 stays {Fraction(1, 3)} forever, never 0.333...")
