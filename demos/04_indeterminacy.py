#!/usr/bin/env python3
"""How well-defined is a page class?  Indeterminacy subgroups.

A class on page r at column p is an element of a subquotient of H^p: two
closed forms name the same page class exactly when their difference lies in
the indeterminacy subgroup, the image of a connecting homomorphism modulo
exact forms.  That image is the page's boundary space B_r, so the subgroups
are read off the spectral sequence `ss` and cached there.  The same notion bounds how much d_r values can move when the
representative changes.
"""

from twistss import (
    SpectralSequence,
    differential_indeterminacy,
    indeterminacy_subgroup,
    parse_twist,
)
from twistss.models import bundled_model

model = bundled_model("cascade5")
H = parse_twist(model, "a")
ss = SpectralSequence(model, H)

print(f"model {model.name}, twist {H.describe()}")
print("d_5 kills [1] against [a], so from page 6 on the class [a] is a")
print("boundary direction: representatives of page classes at column 5 are")
print("only defined up to multiples of [a].\n")

for r in (3, 5, 6, 9):
    sub = indeterminacy_subgroup(model, H, 5, 0, r, ss)
    print(f"indeterminacy at column 5, page {r}: dimension {sub.dim}")

sub9 = indeterminacy_subgroup(model, H, 5, 0, 9, ss)
print(f"\n[a] inside the page-9 subgroup? {sub9.contains_class(model.basis_form('a'))}")
print(f"[x] inside it?                 {sub9.contains_class(model.basis_form('x'))}")

# both x and x + a represent the same page-9 class; their d_9 values are
# honest forms that differ only inside the differential indeterminacy
x, a = model.basis_form("x"), model.basis_form("a")
cell = ss.cell(9, 5)
assert cell.project(x.part(5)) == cell.project((x + a).part(5))
y1 = ss.op.apply(ss.lift_zigzag(x, 9).form).homogeneous_part(14)
y2 = ss.op.apply(ss.lift_zigzag(x + a, 9).form).homogeneous_part(14)
print(f"\nd_9 value from x:     {y1}")
print(f"d_9 value from x + a: {y2}")
dsub = differential_indeterminacy(model, H, 5, 0, 3, ss)
delta = y1 - y2
print(f"difference {delta} lies in the d_9 indeterminacy: {dsub.contains_class(delta)}")

# on the torus with its top-form twist the picture is smaller but the same
torus = bundled_model("torus3")
Ht = parse_twist(torus, "e1^e2^e3")
s3 = indeterminacy_subgroup(torus, Ht, 3, 0, 3)
s4 = indeterminacy_subgroup(torus, Ht, 3, 0, 4)
print(f"\ntorus, column 3: page-3 subgroup dim {s3.dim}, page-4 subgroup dim {s4.dim}")
print("(the top form becomes a boundary direction once d_3 has acted)")
