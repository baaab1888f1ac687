"""Both independent page oracles map one list per column and span a suffix
of it per key.  The Z_r oracle projects each column's delta columns and the
classes of K_{p+1}'s cocycle rows once, spans W from the classes of the
window K_end's rows, and takes one kernel per raw key, so `linalg` keeps no
preimage of its own."""

import ast
from pathlib import Path

import pytest

from twistss import SpectralSequence, indet, parse_twist
from twistss.linalg import QuotientSpace
from twistss.models import bundled_model, standard_pairs

SRC = Path(__file__).resolve().parent.parent / "src" / "twistss"


def _tree(name):
    return ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)


def _function(tree, name):
    (f,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name]
    return f


def _pair(name, expr):
    m = bundled_model(name)
    return SpectralSequence(m, parse_twist(m, expr))


def test_linalg_defines_no_preimage_augment_or_basis_matrix():
    names = {n.name for n in ast.walk(_tree("linalg.py")) if isinstance(n, ast.FunctionDef)}
    assert "kernel" in names
    assert not names & {"preimage", "augment", "basis_matrix"}


def test_the_cycles_read_no_window_cohomology_and_have_no_top_branch():
    f = _function(_tree("indet.py"), "_cycles")
    callees = {c.func.attr for c in ast.walk(f) if isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute)}
    assert {"cocycles", "span", "reduce"} <= callees
    assert "cohomology" not in callees
    tops = [
        c for c in ast.walk(f)
        if isinstance(c, ast.Compare) and any(isinstance(op, ast.Eq) for op in c.ops)
        and "whole.b" in ast.unparse(c)
    ]
    assert tops == []


def test_page_agreement_projects_each_column_once(monkeypatch):
    # delta's columns (dim Omega^p) and the classes of K_{p+1}'s cocycle rows,
    # once per column below the top; no key projects anything
    ss = _pair("cascade7", "a")
    ss.precompute()
    whole = ss.twisted_cohomology().complex
    want = sum(ss.model.dim(p) + whole.cocycles((p + 1) % 2, p + 1).dim for p in range(ss.n))
    calls = []
    project = QuotientSpace.project

    def counting(self, v):
        calls.append(v)
        return project(self, v)

    monkeypatch.setattr(QuotientSpace, "project", counting)
    assert indet.page_agreement(ss)[1] is None
    assert len(calls) == want


@pytest.fixture
def w_one_row_short(monkeypatch):
    """Each column's class list loses its last entry, so W is spanned one row short."""
    delta = indet._delta

    def short(whole, p):
        d = delta(whole, p)
        return d if d is None else (d[0], d[1][:-1], d[2])

    monkeypatch.setattr(indet, "_delta", short)


def test_page_agreement_catches_a_w_one_row_short(w_one_row_short):
    checked, failure = indet.page_agreement(_pair("cascade5", "a"))
    assert failure == "disagreement on cascade5 at [(2, 14), (3, 14), (4, 14)]"


@pytest.mark.parametrize("name,expr", list(standard_pairs()), ids=lambda x: x or "untwisted")
def test_a_w_one_row_short_is_caught_on_every_twisted_pair(w_one_row_short, name, expr):
    # untwisted, D = d keeps the classes graded: the dropped class is the top
    # form's, in degree n, and delta lands in degree p + 1 < n wherever a
    # window K_end (end <= n) spans a W, so the short W has the same preimage
    checked, failure = indet.page_agreement(_pair(name, expr))
    assert (failure is not None) == bool(expr)
