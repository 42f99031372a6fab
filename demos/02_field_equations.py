"""Why field equations keep everything small.

Adjoining x^q - x for every variable restricts the variety to actual field
points and caps how far degrees can climb: nothing stored ever exceeds
total degree n*(q-1), and nothing created exceeds n*(q-1) + 1. Exponent
folding is the cheap trick that enforces it during multiplication.
"""

from midgb import (
    EngineConfig,
    PolyRing,
    adjoin_field_equations,
    field_polynomial,
    field_reduce,
    groebner_basis,
)

ring = PolyRing(3, ["x", "y"], "grevlex")

print("field polynomials over GF(3), two variables:")
for i in range(ring.n):
    print("  ", field_polynomial(ring, i))

p = ring.poly({(5, 0): 1, (4, 2): 2, (0, 0): 1})  # x^5 + 2*x^4*y^2 + 1
print()
print("p           =", p)
print("field_reduce(p) =", field_reduce(p))
print("  exponents fold by e -> ((e-1) mod (q-1)) + 1, so x^5 -> x,")
print("  and both sides agree on every point of GF(3)^2:")
agree = all(
    p.evaluate(pt) == field_reduce(p).evaluate(pt)
    for pt in [(a, b) for a in range(3) for b in range(3)]
)
print("  pointwise equal on the full grid:", agree)

print()
system = [ring.poly({(1, 1): 1, (0, 0): 2})]  # x*y + 2
adjoined = adjoin_field_equations(system, ring)
print("adjoin_field_equations adds one x^q - x per variable:")
for f in adjoined:
    print("  ", f)

print()
rep = groebner_basis(system, EngineConfig(ring, middle_solving=False))
cap = ring.n * (ring.q - 1)
print(f"basis of (x*y + 2) plus field equations, degree cap {cap}:")
for g in rep.basis:
    print(f"   deg {g.degree()}  {g}")
print("every stored member respects the cap; the engine enforces this")
print("with a monitor that raises if any polynomial ever breaks it.")
