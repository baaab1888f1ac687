#!/usr/bin/env python3
"""Twisted cohomology basics on the 3-torus model.

The twisted differential D = d + H acts on the mod-2 graded complex of a
finite CDGA model; its kernel-mod-image on each parity is the twisted
cohomology.  Here we twist the exterior algebra on three degree-1 generators
by its top form and watch two of the eight dimensions cancel.
"""

from twistss import parse_twist, twisted_cohomology
from twistss.models import bundled_model

model = bundled_model("torus3")
print(f"model: {model.name}, dims per degree {model.dims}")
print(f"de Rham dims: {[model.betti(p) for p in range(4)]}")

# the twist must be closed, odd, of degree >= 3; the top form qualifies
H = parse_twist(model, "e1^e2^e3")
print(f"\ntwist H = {H.describe()}  (components in degrees {H.degrees})")

# D sends the unit to the top form; every other generator is annihilated
D = H.operator(model)
one = model.unit_form()
print(f"D(1)  = {D.apply(one)}")
print(f"D(e1) = {D.apply(model.basis_form('e1'))}")

tc = twisted_cohomology(model, H)
print(f"\ntwisted cohomology dims: even {tc.dims[0]}, odd {tc.dims[1]}")
print("untwisted parity sums would be 4 and 4; the twist cancels the unit")
print("against the top form, in both parities.")

# the index is insensitive to the twist: even - odd equals the alternating
# sum of the Betti numbers
chi = sum((-1) ** p * model.betti(p) for p in range(4))
assert tc.dims[0] - tc.dims[1] == chi
print(f"\nEuler characteristic check: {tc.dims[0]} - {tc.dims[1]} = {chi}")

print("\nrepresentatives of the even classes:")
for rep in tc.representatives(0):
    print(f"  {rep}")
