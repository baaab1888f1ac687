"""D's pieces have one assembly: `DOperator.piece` is the one reader of the
product table for D, and it reads each entry once per operator.  D is held
once, as those pieces' columns: the operator keeps no other cache, and the
engine and the oracles map vectors by combining columns, not by products of
matrices."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from test_massey import piece_cases, torus_model

from twistss import parse_twist
from twistss.cdga import CdgaModel
from twistss.modelgen import random_model, random_twist
from twistss.models import bundled_model, standard_pairs
from twistss.report import run_analysis
from twistss.twist import BlockSpace, DOperator

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


def _tree(name):
    return ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)


@pytest.mark.parametrize("name", ["spectral.py", "indet.py"])
def test_the_engine_and_the_oracles_multiply_no_matrices(name):
    products = [node.lineno for node in ast.walk(_tree(name)) if isinstance(node, ast.MatMult)]
    assert products == []


def test_the_operator_keeps_only_its_piece_columns():
    (cls,) = [n for n in ast.walk(_tree("twist.py")) if isinstance(n, ast.ClassDef) and n.name == "DOperator"]
    methods = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
    attributes = {n.attr for n in ast.walk(cls) if isinstance(n, ast.Attribute)}
    assert "block" not in methods and "_blocks" not in attributes
    m = bundled_model("cascade5")
    twist = parse_twist(m, "a")
    assert run_analysis(m, twist).all_pass
    assert set(vars(twist.operator(m))) == {"model", "H", "_pieces"}


@pytest.mark.parametrize("name,arg", list(piece_cases()))
def test_columns_read_by_an_analysis_follow_the_form_route(monkeypatch, name, arg):
    # column j of D into degree q is D of the j-th basis form of the space,
    # by d and the wedge of `Form`, for every (space, q) an analysis reads
    if name == "modelgen":
        m = random_model(arg)
        twist = random_twist(m, arg)
    else:
        m = bundled_model(name)
        twist = parse_twist(m, arg)
    reads = set()
    columns = DOperator.columns

    def recording(op, domain, q):
        reads.add((domain.degrees, q))
        return columns(op, domain, q)

    monkeypatch.setattr(DOperator, "columns", recording)
    assert run_analysis(m, twist).all_pass
    monkeypatch.undo()
    op = twist.operator(m)
    assert reads
    for degrees, q in reads:
        into = BlockSpace(m, [q])
        want = tuple(
            into.pack(op.apply(m.part_form(p, ((i, Fraction(1)),))))
            for p in degrees
            for i in range(m.dim(p))
        )
        assert op.columns(BlockSpace(m, degrees), q) == want, (degrees, q)
