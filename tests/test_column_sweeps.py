"""The verification checks take only the sequence.  Both independent page
oracles are sweeps over the columns in `indet`: each keeps its column's
objects in locals, so no check takes a cache dict or a rule callback, no
module reaches into another's private names, and each sweep builds at most
one relative complex per column."""

import ast
from pathlib import Path

import pytest

from twistss import SpectralSequence, parse_twist
from twistss.indet import boundary_agreement, page_agreement
from twistss.models import bundled_model
from twistss.twist import RelativeComplex

SRC = Path(__file__).resolve().parent.parent / "src" / "twistss"
SWEEPS = ("boundary_agreement", "page_agreement")


def _tree(name):
    return ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)


def _callee(call):
    """The name a call calls: f(...) and x.f(...) both give f."""
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def _calls(node, names):
    """The calls under node (itself included) to one of the names."""
    return [c for c in ast.walk(node) if isinstance(c, ast.Call) and _callee(c) in names]


def _builders(tree):
    """The module's functions by name, and the names that build a
    `RelativeComplex`: the class itself and every function that calls it,
    directly or through another such function."""
    functions = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    builders = {"RelativeComplex"}
    while True:
        more = {name for name, f in functions.items() if _calls(f, builders)} - builders
        if not more:
            return functions, builders
        builders |= more


def test_no_module_imports_a_private_name_from_another():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("twistss")):
                found += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
    assert found == []


@pytest.mark.parametrize("name", ["indet.py", "report.py"])
def test_no_check_takes_a_cache_or_a_callback(name):
    params = set()
    for f in ast.walk(_tree(name)):
        if isinstance(f, (ast.FunctionDef, ast.Lambda)):
            a = f.args
            params |= {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x}
    assert params and not params & {"sources", "tower", "rules"}


def test_each_builder_makes_one_complex_outside_any_loop():
    functions, builders = _builders(_tree("indet.py"))
    assert {"_connecting_column", "connecting_delta_bar", "z_cell"} <= builders
    for name in builders - {"RelativeComplex"} - set(SWEEPS):
        f = functions[name]
        loops = [n for n in ast.walk(f) if isinstance(n, (ast.For, ast.While, ast.comprehension))]
        assert not any(_calls(loop, builders) for loop in loops), name
        assert len(_calls(f, builders)) == 1, name


@pytest.mark.parametrize("sweep", SWEEPS)
def test_each_sweep_builds_at_most_one_complex_per_column(sweep):
    # one loop over the columns; its body calls at most one builder, and the
    # loop over the pages inside it and the code outside it call none
    functions, builders = _builders(_tree("indet.py"))
    f = functions[sweep]
    (columns,) = [n for n in f.body if isinstance(n, ast.For)]
    assert ast.unparse(columns.iter) == "range(ss.n + 1)"
    assert not any(_calls(n, builders) for n in f.body if n is not columns)
    assert len(_calls(columns, builders)) <= 1
    (pages,) = [n for n in columns.body if isinstance(n, ast.For)]
    assert not _calls(pages, builders)


def test_the_sweeps_build_one_complex_per_column_and_none_for_the_cycles(monkeypatch):
    m = bundled_model("cascade5")
    ss = SpectralSequence(m, parse_twist(m, "a"))
    ss.precompute()
    ss.twisted_cohomology()
    built = []
    init = RelativeComplex.__init__

    def counting_init(self, op, a, b):
        built.append((a, b))
        init(self, op, a, b)

    monkeypatch.setattr(RelativeComplex, "__init__", counting_init)
    assert boundary_agreement(ss)[1] is None
    assert built == [(0, p) for p in range(1, ss.n + 1)]
    built.clear()
    assert page_agreement(ss)[1] is None
    assert built == []
