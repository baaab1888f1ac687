"""Every sparse linear combination outside `linalg`'s eliminations is
`linalg.combine`: sums of forms, `d`, `wedge`, the axiom sums and D's pieces
call it, and no other function adds into a coordinate by hand, except the
two kept on purpose."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "twistss"

# D on a form given by its parts (the Massey check's per-condition kernel),
# and the d columns built from the generator formula while a model loads.
KEPT = {("twist.py", "DOperator.image"), ("cdga.py", "expand_generators")}


def _tree(name):
    return ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)


def _same(a, b):
    return ast.dump(a) == ast.dump(b)


def _adds_into_a_coordinate(node):
    """Whether `node` assigns X[k] from X[k] + ... or X.get(k, ...) + ... (or -)."""
    if not isinstance(node, ast.Assign):
        return False
    for target in node.targets:
        if not isinstance(target, ast.Subscript):
            continue
        for sub in ast.walk(node.value):
            if not (isinstance(sub, ast.BinOp) and isinstance(sub.op, (ast.Add, ast.Sub))):
                continue
            left = sub.left
            if isinstance(left, ast.Subscript) and _same(left.value, target.value) and _same(left.slice, target.slice):
                return True
            if (
                isinstance(left, ast.Call)
                and isinstance(left.func, ast.Attribute)
                and left.func.attr == "get"
                and left.args
                and _same(left.func.value, target.value)
                and _same(left.args[0], target.slice)
            ):
                return True
    return False


def _nodes():
    """(file, class.function, node) of every node in the package, with the
    innermost function or class around it."""
    found = []

    def visit(node, scope, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        found.append((path, scope, node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, path)

    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        visit(tree, "", str(path.relative_to(SRC)))
    return found


def test_only_the_kept_functions_accumulate_by_hand():
    found = {(path, scope) for path, scope, n in _nodes() if path != "linalg.py" and _adds_into_a_coordinate(n)}
    assert found == KEPT


def test_cdga_keeps_no_parts_accumulator():
    names = {n.name for n in _tree("cdga.py").body if isinstance(n, ast.FunctionDef)}
    assert "_sparse_parts" not in names


@pytest.mark.parametrize(
    "path,scope,callee",
    [
        ("cdga.py", "Form._plus", "combine"),
        ("cdga.py", "CdgaModel.d", "combine"),
        ("cdga.py", "_combine", "combine"),
        ("cdga.py", "CdgaModel.wedge", "_combine"),
        ("twist.py", "DOperator.piece", "combine"),
    ],
)
def test_the_combinations_go_through_combine(path, scope, callee):
    callees = {
        n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)
        for p, s, n in _nodes()
        if (p, s) == (path, scope) and isinstance(n, ast.Call)
    }
    assert callee in callees
