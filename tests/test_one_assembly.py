"""D's pieces have one assembly: `DOperator.piece` is the one reader of the
product table for D, and it reads each entry once per operator."""

import ast
from pathlib import Path

import pytest
from test_massey import torus_model

from twistss import parse_twist
from twistss.cdga import CdgaModel
from twistss.models import bundled_model, standard_pairs
from twistss.report import run_analysis

SRC = Path(__file__).resolve().parent.parent / "src" / "twistss"


def _spy_wedge_basis(monkeypatch):
    """Every (p, i, q, j) read through `CdgaModel.wedge_basis` from now on."""
    reads = []
    wedge_basis = CdgaModel.wedge_basis

    def spying(model, p, i, q, j):
        reads.append((p, i, q, j))
        return wedge_basis(model, p, i, q, j)

    monkeypatch.setattr(CdgaModel, "wedge_basis", spying)
    return reads


@pytest.mark.parametrize("name,expr", [p for p in standard_pairs() if p[1]])
def test_building_the_operator_reads_no_product_table(monkeypatch, name, expr):
    m = bundled_model(name)
    twist = parse_twist(m, expr)
    reads = _spy_wedge_basis(monkeypatch)
    twist.operator(m)
    assert reads == []


@pytest.mark.parametrize(
    "make,expr",
    [
        pytest.param(lambda: torus_model(6), "e1^e2^e3", id="torus6/e1^e2^e3"),
        pytest.param(lambda: bundled_model("mixed5"), "a + b", id="mixed5/a + b"),
    ],
)
def test_an_analysis_reads_each_product_entry_once(monkeypatch, make, expr):
    m = make()
    twist = parse_twist(m, expr)
    reads = _spy_wedge_basis(monkeypatch)
    assert run_analysis(m, twist).all_pass
    assert reads and len(set(reads)) == len(reads)


def _wedge_basis_references():
    """(file, enclosing class.function) of every reference to `wedge_basis` in src/."""
    found = set()

    def visit(node, scope, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Attribute) and node.attr == "wedge_basis") or (
            isinstance(node, ast.Name) and node.id == "wedge_basis"
        ):
            found.add((path, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, path)

    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        visit(tree, "", str(path.relative_to(SRC)))
    return found


def test_only_the_operator_pieces_and_cdga_reference_wedge_basis():
    found = _wedge_basis_references()
    assert ("twist.py", "DOperator.piece") in found
    assert {(path, scope) for path, scope in found if path != "cdga.py"} == {("twist.py", "DOperator.piece")}
