#!/usr/bin/env python3
"""Pages and differentials of the filtration spectral sequence.

The degree filtration of the twisted complex produces a spectral sequence
whose first page is the graded pieces and whose second page is ordinary
de Rham cohomology.  Differentials are computed by zig-zag lifting: extend a
degree-p form by higher components until D of the sum sits deep enough in
the filtration, then read off the leading component.

The model here has a differential designed so that a class survives to the
ninth page and is finally killed there: the twist a has degree 5, and
d_9[x] = -[a ^ v] where d v = a ^ x.
"""

from twistss import SpectralSequence, parse_twist, twisted_cohomology
from twistss.models import bundled_model

model = bundled_model("cascade5")
H = parse_twist(model, "a")
ss = SpectralSequence(model, H)

print(f"model {model.name}: dims {model.dims}")
print(f"twist H = {H.describe()} (degree 5 only)\n")

for r in (1, 2, 5, 6, 9, 10):
    page = ss.page(r)
    cells = {p: c.dim for p, c in page.cells.items() if c.dim}
    ranks = {p: page.d[p].rank() for p in page.d if page.d[p].rank()}
    print(f"E_{r:<2}: dims {cells or '{}'}   d_{r} ranks {ranks or '{}'}")

# the fifth differential is cup product with the twist: it kills the unit
one = model.unit_form()
print(f"\nd_5[1] = [{ss.representative(ss.differential(5, one))}]  (cup with a)")

# x survives d_5 because a ^ x = d v is exact; its zig-zag acquires a tail
x = model.basis_form("x")
zz = ss.lift_zigzag(x, 9)
print(f"zig-zag lift of x through page 9: {zz.form}")
print(f"D of the lift: {ss.op.apply(zz.form)}  (concentrated in degree 14)")

d9 = ss.differential(9, x)
print(f"d_9[x] = [{ss.representative(d9)}]  -- nonzero, so E_10 = 0")

einf = ss.e_infinity()
even = sum(c.dim for p, c in einf.cells.items() if p % 2 == 0)
odd = sum(c.dim for p, c in einf.cells.items() if p % 2 == 1)
tc = twisted_cohomology(model, H)
print(f"\nstable totals ({even}, {odd}) == twisted cohomology {tc.dims}")
