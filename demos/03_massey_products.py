#!/usr/bin/env python3
"""Massey products and the defining systems behind the higher differentials.

First the classic triple product on the Heisenberg nilmanifold model:
<a, b, b> is represented by c ^ b, a nonzero class that ordinary cup
products cannot see.

Then the structured defining systems: the higher differentials of the
twisted spectral sequence are signed classes of related cocycles.  On the
degree-5-twisted model, d_9[x] can be packaged two ways -- a 5x5 banded
system (treating the twist as the degree-5 band of a general twist) and a
3x3 diagonal system -- and both give the same page class.
"""

from twistss import (
    SpectralSequence,
    banded_defining_system,
    diagonal_defining_system,
    parse_twist,
    related_cocycle,
    triple_product,
    validate_defining_system,
)
from twistss.models import bundled_model

heis = bundled_model("heisenberg")
a, b = heis.basis_form("a"), heis.basis_form("b")
tp = triple_product(a, b, b)
print("Heisenberg model: d c = a^b")
print(f"<a, b, b>: solve d v1 = bar(a)^b  ->  v1 = {tp.v1}")
print(f"           b^b = 0                ->  v2 = {tp.v2}")
print(f"representative omega = {tp.omega}, class nonzero: {not tp.is_zero_class}")
print(f"indeterminacy [a]H^1 + H^1[b] has dimension {tp.indeterminacy.dim}")

model = bundled_model("cascade5")
H = parse_twist(model, "a")
ss = SpectralSequence(model, H)
x = model.basis_form("x")

print("\n--- the two defining systems for d_9[x] on the degree-5 model ---")
banded = banded_defining_system(ss, x, 3)
print("banded (bands carry the twist components; degree-3 band is zero):")
print(banded.layout())
print(f"related cocycle c(A) = {validate_defining_system(banded)}")

diagonal = diagonal_defining_system(ss, x, 3, 2)
print("\ndiagonal (single degree-5 component on the diagonal):")
print(diagonal.layout())
print(f"related cocycle c(B) = {validate_defining_system(diagonal)}")

d9 = ss.differential(9, x)
print(f"\nzig-zag d_9[x] = [{ss.representative(d9)}]")
print("banded route:   (-1)^3 [c(A)] = -[a^v]")
print("diagonal route: (-1)^(2-1) [c(B)] = -[a^v]")
print("all three agree.")

# related cocycles of different defining systems can differ in cohomology
# while agreeing on the page; the mixed-twist model shows it
mixed = bundled_model("mixed5")
Hm = parse_twist(mixed, "a + b")
ssm = SpectralSequence(mixed, Hm)
from twistss import perturbed_banded_system

base = banded_defining_system(ssm, mixed.basis_form("x"), 1)
other = perturbed_banded_system(ssm, mixed.basis_form("x"), 1)
c1, c2 = related_cocycle(base), related_cocycle(other)
h8 = mixed.de_rham(8)
cell = ssm.cell(5, 8)
print(f"\nmixed twist: c(A1) = {c1}  vs  c(A2) = {c2}")
print(f"equal in H^8?        {h8.project(c1.part(8)) == h8.project(c2.part(8))}")
print(f"equal on page 5?     {cell.project(c1.part(8)) == cell.project(c2.part(8))}")
