"""Acceptance suite: one test per criterion, with a printed verdict line.

All comparisons are exact (rational arithmetic, tolerance zero).  The
criteria run over every bundled (model, twist) pair plus a seeded sweep of
random models; the shared workspace caches the spectral sequences so the
whole battery stays fast.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines; ``twistss selftest`` drives the same
functions from the command line.  Each test also pins its criterion's
detail line for the seed-0 workspace, so the counts in it cannot drift.
"""

import pytest

from twistss.linalg import dense, sparse
from twistss.selftest import CRITERIA, Workspace


@pytest.fixture(scope="module")
def workspace():
    return Workspace(seed=0)


def _run(workspace, index, expected_detail):
    description, fn = CRITERIA[index - 1]
    passed, detail = fn(workspace)
    print(f"{'PASS' if passed else 'FAIL'}  criterion {index:2d}: {description} -- {detail}")
    assert passed, f"criterion {index} failed: {detail}"
    assert detail == expected_detail


def test_criterion_01_structural_axioms(workspace):
    _run(workspace, 1, "14 bundled pairs + 50 random models")


def test_criterion_02_page_identifications(workspace):
    _run(workspace, 2, "E_1/E_2 identifications and q-parity structure")


def test_criterion_03_even_vanishing(workspace):
    _run(workspace, 3, "all even differentials vanish, consecutive pages equal")


def test_criterion_04_convergence(workspace):
    _run(workspace, 4, "page totals match kernel/image twisted cohomology everywhere")


def test_criterion_05_d3_cup_rule(workspace):
    _run(workspace, 5, "d_3 = cup with the degree-3 component on every class")


def test_criterion_06_massey_banded_differentials(workspace):
    _run(workspace, 6, "378 page classes checked")


def test_criterion_07_single_twist_case_table(workspace):
    _run(workspace, 7, "s in {1,2,3}, 112 class checks")


def test_criterion_08_route_compatibility(workspace):
    _run(workspace, 8, "2 classes, nonzero d_9 witnessed")


def test_criterion_09_formality_collapse(workspace):
    _run(workspace, 9, "twisted dims (0,0) and E_4 = stable page = 0")


def test_criterion_10_triple_product(workspace):
    _run(workspace, 10, "<a,b,b> = [c^b] != 0; shifts stay in the indeterminacy subgroup")


def test_criterion_11_indeterminacy_coherence(workspace):
    _run(workspace, 11, "43 representative pairs checked")


def test_criterion_12_page_construction_agreement(workspace):
    _run(workspace, 12, "identical canonical bases on every page of every bundled model")


def test_criterion_01_checks_d_squared_on_the_operator_blocks():
    # Flip the x^v entry of D's wedge-by-a piece on v (degree 9 to 14) in
    # cascade5: then a ^ (a^v + x^v) = a^x^v, so D o D != 0 on the piece
    # columns the engine uses, while D applied to forms is unchanged.
    ws = Workspace(seed=0)
    op = ws.ss("cascade5", "a").op
    (col,) = op.piece(5, 9)
    data = dense(col, op.model.dim(14))
    assert op.model.labels[14] == ("a^v", "x^v") and data == (1, 0)
    op._pieces[5, 9] = (sparse((data[0], 1 - data[1])),)
    assert CRITERIA[0][1](ws) == (False, "D^2 != 0 on cascade5")
