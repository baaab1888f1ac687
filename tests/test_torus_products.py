"""Known answers for products with a torus.

The model M x T^k is M with k extra degree-1 generators whose d is zero,
twisted by M's twist.  Its twisted complex is the direct sum, over the basis
monomials t_S of the torus, of copies of M's complex shifted by |S|, and the
degree filtration splits the same way.  So every page, every d_r rank and
every indeterminacy dimension at column p is sum_j C(k, j) times M's value
at column p - j.  Past M's last page the copies keep M's stable page, with
d_r = 0.  A copy with |S| odd swaps the twisted parities, so each twisted
parity of the product is 2^(k-1) times M's total.
"""

import json
from math import comb
from pathlib import Path

import pytest
from barcode_oracle import mismatches

from twistss import TwistForm, parse_twist
from twistss.cdga import build_generator_model
from twistss.modelgen import random_model, random_twist
from twistss.models import bundled_model, model_path, standard_pairs
from twistss.report import run_analysis


def times_torus(m, H, k):
    """M x T^k on the generators of the generator-form model m, and H on it."""
    gens = [(lab, p) for p in range(1, m.top_degree + 1) for lab in m.labels[p] if "^" not in lab]
    diffs = {}
    for g, p in gens:
        dg = m.basis_form(g).d()
        if not dg.is_zero:
            diffs[g] = [(c, tuple(m.label_of(p + 1, i).split("^"))) for i, c in dg.part(p + 1)]
    torus = [(f"tau{i}", 1) for i in range(1, k + 1)]
    prod = build_generator_model(f"{m.name}xT{k}", gens + torus, diffs, m.top_degree + k)
    # a monomial in m's generators keeps its label, since they come first
    moved = {
        p: tuple(sorted((prod.index_of(m.label_of(p, i))[1], c) for i, c in pairs))
        for p, pairs in H.components.items()
    }
    return prod, TwistForm(prod, moved)


def shifted_sum(values, p, k):
    """sum_j C(k, j) values[p - j], over the columns p - j that values has."""
    return sum(comb(k, j) * values.get(p - j, 0) for j in range(k + 1))


def generator_form(name):
    """Whether the bundled model is written in generator form."""
    return "generators" in json.loads(Path(model_path(name)).read_text())


def pairs():
    named = set()  # a model's first twisted pair is named by the model alone
    for name, expr in standard_pairs():
        if generator_form(name):  # every bundled model but sphere3
            m = bundled_model(name)
            label = name if expr and name not in named else f"{name}/{expr or 'untwisted'}"
            if expr:
                named.add(name)
            yield pytest.param(m, parse_twist(m, expr), id=label)
    for seed in range(5):
        m = random_model(seed)
        yield pytest.param(m, random_twist(m, seed), id=f"modelgen{seed}")


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("m,H", list(pairs()))
def test_product_with_a_torus_has_the_shifted_sums(m, H, k):
    base = run_analysis(m, H)
    prod, HP = times_torus(m, H, k)
    rep = run_analysis(prod, HP)
    assert rep.all_pass
    assert mismatches(rep, prod, HP) == []
    total = base.twisted_even + base.twisted_odd
    assert (rep.twisted_even, rep.twisted_odd) == (2 ** (k - 1) * total,) * 2

    last = len(base.pages)  # M's last page, which is stable
    indet = {(e["r"], e["p"]): e["dim"] for e in base.indeterminacy}
    got_indet = {(e["r"], e["p"]): e["dim"] for e in rep.indeterminacy}
    for page in rep.pages:
        r = page["r"]
        mine = base.pages[min(r, last) - 1]
        dims = {int(p): d for p, d in mine["dims"].items()}
        ranks = {int(p): d for p, d in mine["d_ranks"].items()} if r <= last else {}
        subgroups = {q: d for (s, q), d in indet.items() if s == min(r, last)}
        for p in range(prod.top_degree + 1):
            assert page["dims"][str(p)] == shifted_sum(dims, p, k), (r, p)
            assert page["d_ranks"][str(p)] == shifted_sum(ranks, p, k), (r, p)
            if r >= 3:
                assert got_indet.get((r, p), 0) == shifted_sum(subgroups, p, k), (r, p)
