"""There is one elimination, `linalg.Echelon`, and the page engine grows one
per column: `rref` and `kernel` are its one-shot uses, the engine builds it
only for its cycle kernels, and no column keeps one once the pages are done."""

import ast
import gc
from pathlib import Path

import pytest

from twistss import SpectralSequence, parse_twist
from twistss.linalg import Echelon, Mat, kernel, rref
from twistss.models import bundled_model, standard_pairs

SRC = Path(__file__).resolve().parent.parent / "src" / "twistss"


def _scopes(name):
    """(enclosing class.function, node) of every node of src/twistss/<name>."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        found.append((scope, node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name), "")
    return found


def _names(name, ident):
    """The scopes of src/twistss/<name> that refer to `ident`, by name or attribute."""
    return {
        scope
        for scope, node in _scopes(name)
        if (isinstance(node, ast.Name) and node.id == ident) or (isinstance(node, ast.Attribute) and node.attr == ident)
    }


def test_the_engine_builds_an_echelon_only_for_its_cycle_kernels():
    # the one-shot `linalg.kernel`, neither imported nor called; reads of a
    # column's accumulator are `Echelon.kernel`
    imported = {a.name for _, node in _scopes("spectral.py") if isinstance(node, ast.ImportFrom) for a in node.names}
    assert "Echelon" in imported and "kernel" not in imported
    assert not any(isinstance(node, ast.Name) and node.id == "kernel" for _, node in _scopes("spectral.py"))
    calls = {
        scope
        for scope, node in _scopes("spectral.py")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Echelon"
    }
    assert calls == {"SpectralSequence._compute_cycles"}
    assert _names("spectral.py", "Echelon") == {"SpectralSequence._compute_cycles"}


def test_linalg_has_one_forward_elimination_loop():
    loops = [scope for scope, node in _scopes("linalg.py") if isinstance(node, ast.While)]
    assert loops == ["Echelon.add"]
    for function in ("rref", "kernel"):
        assert function in _names("linalg.py", "Echelon") and function in _names("linalg.py", "add")


def test_rref_and_kernel_reach_the_one_loop(monkeypatch):
    fed = []
    add = Echelon.add

    def counting(self, rows):
        fed.append(self.cols)
        return add(self, rows)

    monkeypatch.setattr(Echelon, "add", counting)
    m = Mat([[(0, 1), (2, 3)], [(1, 2)]], 3)
    assert rref(m)[1] == (0, 1) and kernel(m).dim == 1
    assert fed == [3, 3]


@pytest.mark.parametrize("name,expr", standard_pairs(), ids=lambda v: str(v))
def test_no_column_accumulator_outlives_the_pages(name, expr):
    def alive():
        gc.collect()
        return {id(obj) for obj in gc.get_objects() if type(obj) is Echelon}

    m = bundled_model(name)
    ss, before = SpectralSequence(m, parse_twist(m, expr)), alive()
    ss.cycles(3, 0)  # column 0 has not reached its last key, so it keeps its accumulator
    assert list(ss._columns) == [0] and alive() - before
    ss.precompute()
    assert ss._columns == {} and alive() == before
