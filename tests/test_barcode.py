"""The report's numbers against the barcode of the filtered twisted complex."""

from functools import partial

import pytest
from barcode_oracle import mismatches
from test_massey import torus_model
from test_spectral import odd_model

from twistss import SpectralSequence, parse_twist
from twistss.linalg import SubspaceBasis
from twistss.modelgen import random_model, random_twist
from twistss.models import bundled_model, standard_pairs
from twistss.report import run_analysis


def _pair(make, arg, expr):
    m = make(arg)
    return m, parse_twist(m, expr)


def _random_pair(seed):
    m = random_model(seed)
    return m, random_twist(m, seed)


def barcode_cases():
    for name, expr in standard_pairs():
        yield pytest.param(partial(_pair, bundled_model, name, expr), id=f"{name}/{expr}")
    for seed in range(40):
        yield pytest.param(partial(_random_pair, seed), id=f"modelgen{seed}")
    yield pytest.param(partial(_pair, odd_model, 7, "g2 + g3"), id="odd7/g2 + g3")
    yield pytest.param(partial(_pair, odd_model, 8, "g3"), id="odd8/g3")
    yield pytest.param(partial(_pair, odd_model, 8, "g2 + g3"), id="odd8/g2 + g3")
    yield pytest.param(partial(_pair, torus_model, 10, "e1^e2^e3"), id="torus10/e1^e2^e3")


@pytest.mark.parametrize("build", list(barcode_cases()))
def test_report_numbers_match_the_barcode(build):
    # page dimensions, d_r ranks, indeterminacy dimensions and the even and
    # odd twisted dimensions, against one persistence reduction per parity
    m, H = build()
    assert mismatches(run_analysis(m, H), m, H) == []


def test_barcode_catches_a_dropped_cycle_row(monkeypatch):
    # Z at column 5 of cascade5 with conditions below 13 (Z_8 = Z_9) loses
    # its last basis row and that row's lift
    compute = SpectralSequence._compute_cycles

    def dropped(self, p, end):
        z, lifts = compute(self, p, end)
        if (p, end) == (5, 13):
            return SubspaceBasis(z.ambient_dim, z.sparse[:-1], z.pivots[:-1]), lifts[:-1]
        return z, lifts

    m, H = _pair(bundled_model, "cascade5", "a")
    assert mismatches(run_analysis(m, H), m, H) == []
    monkeypatch.setattr(SpectralSequence, "_compute_cycles", dropped)
    found = mismatches(run_analysis(m, H), m, H)
    assert found == ["page dimensions", "d_r ranks", "indeterminacy dimensions"]
