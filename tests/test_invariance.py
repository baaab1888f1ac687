"""Metamorphic oracles: reports that must not move when the twist does.

Scaling.  Take H'_{2k+1} = mu^k H_{2k+1} with mu = 4, a rational square.
Multiplying the degree-p forms by mu^(-p/2) conjugates D_H to
mu^(1/2) D_{H'} and preserves the filtration, so every page, d_r rank,
indeterminacy dimension and twisted dimension agrees.

Gauge.  For an even form B, x |-> e^B x is a filtered chain isomorphism
(Omega, D_{H+dB}) -> (Omega, D_H) whose leading term is 1, so the same
invariants agree for H and H + dB.  On heisenberg x T^3, d(c ^ tau_i) is
the exact 3-form a^b^tau_i.
"""

import json

import pytest

from twistss import TwistForm, parse_twist
from twistss.modelgen import random_model, random_twist
from twistss.models import bundled_model, standard_pairs
from twistss.report import run_analysis

from test_torus_products import times_torus

INVARIANTS = ("pages", "indeterminacy", "twisted", "overall")


def invariants(m, H):
    doc = json.loads(run_analysis(m, H).to_json())
    return {key: doc[key] for key in INVARIANTS}


def pairs():
    for name, expr in standard_pairs():
        m = bundled_model(name)
        yield pytest.param(m, parse_twist(m, expr), id=f"{name}/{expr}")
    for seed in range(20):
        m = random_model(seed)
        yield pytest.param(m, random_twist(m, seed), id=f"modelgen{seed}")


@pytest.mark.parametrize("m,H", list(pairs()))
def test_scaling_the_twist_by_a_square_keeps_the_report(m, H):
    scaled = TwistForm(m, {
        p: tuple((i, c * 4 ** (p // 2)) for i, c in pairs)  # p = 2k + 1 gets 4^k
        for p, pairs in H.components.items()
    })
    assert invariants(m, scaled) == invariants(m, H)


@pytest.mark.parametrize(
    "expr,gauge",
    [
        ("tau1^tau2^tau3", {"c^tau1": 1}),
        ("a^b^c", {"c^tau1": 1}),
        ("tau1^tau2^tau3 + a^b^c", {"c^tau2": 1, "c^tau3": -1}),
    ],
)
def test_an_exact_change_of_the_twist_keeps_the_report(expr, gauge):
    m = bundled_model("heisenberg")
    prod, _ = times_torus(m, parse_twist(m, ""), 3)
    H = parse_twist(prod, expr)
    exact = prod.zero_form()
    for b, c in gauge.items():
        exact = exact + c * prod.parse_form(b).d()
    assert prod.parse_form("c^tau1").d() == prod.parse_form("a^b^tau1")
    assert not exact.is_zero
    moved = TwistForm(prod, (H.form() + exact).parts)
    assert invariants(prod, moved) == invariants(prod, H)
