"""The page engine's growing elimination against one stacked kernel per key.

`SpectralSequence._compute_cycles` keeps one `Echelon` per column and feeds
it one condition degree at a time.  Every cycle key must read the Z and the
lifts that the one-shot kernel of its stacked conditions gives
(`lift_oracle.stacked_cycles`), in whatever order the keys are requested.
"""

from functools import partial

import pytest
from barcode_oracle import mismatches
from lift_oracle import stacked_cycles
from test_barcode import _pair, _random_pair
from test_spectral import odd_model

from twistss import SpectralSequence
from twistss.linalg import Echelon
from twistss.models import bundled_model, standard_pairs
from twistss.report import run_analysis


def contract_cases():
    for name, expr in standard_pairs():
        yield pytest.param(partial(_pair, bundled_model, name, expr), id=f"{name}/{expr}")
    for seed in range(20):
        yield pytest.param(partial(_random_pair, seed), id=f"modelgen{seed}")
    yield pytest.param(partial(_pair, odd_model, 7, "g2 + g3"), id="odd7/g2 + g3")


def key_mismatches(ss):
    """The cycle keys the sequence holds whose (Z, lifts) differ from the stacked kernel's."""
    found = []
    for key, (z, lifts) in sorted(ss._cycles.items()):
        want, want_lifts = stacked_cycles(ss, *key)
        if (z, z.pivots, lifts) != (want, want.pivots, want_lifts):
            found.append(key)
    return found


@pytest.mark.parametrize("build", list(contract_cases()))
def test_every_cycle_key_reads_the_stacked_kernel(build):
    m, H = build()
    ss = SpectralSequence(m, H)
    ss.precompute()
    keys = {ss._cycle_key(p, r) for r in range(1, ss.max_page + 1) for p in range(ss.n + 1)}
    assert set(ss._cycles) == keys
    assert key_mismatches(ss) == []


@pytest.mark.parametrize("build", list(contract_cases()))
def test_keys_requested_top_first_read_the_same(build):
    # each column's last key first, then the lower ones, top down: every
    # lower key starts the column over
    m, H = build()
    ss, in_order = SpectralSequence(m, H), SpectralSequence(m, H)
    in_order.precompute()
    for p in range(ss.n + 1):
        keys = sorted({ss._cycle_key(p, r) for r in range(1, ss.max_page + 1)}, reverse=True)
        for key in keys:
            assert ss._zigzags(key) == in_order._zigzags(key), key
        assert not ss._columns
    assert ss._cycles == in_order._cycles


def test_a_pivot_that_is_never_reported_is_caught(monkeypatch):
    # an accumulator that always answers "no new pivot" keeps every key at
    # the full space; the contract and the barcode both see it (on the
    # twisted pairs the analysis stops earlier, at a Massey defining system)
    m, H = _pair(bundled_model, "heisenberg", "")
    assert mismatches(run_analysis(m, H), m, H) == []
    add = Echelon.add
    monkeypatch.setattr(Echelon, "add", lambda self, rows: add(self, rows) and False)
    ss = SpectralSequence(m, H)
    ss.precompute()
    assert key_mismatches(ss) != []
    assert mismatches(run_analysis(m, H), m, H) == ["page dimensions"]
