"""The package imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "twistss"


def _imported_top_levels(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield "twistss" if node.level else node.module.partition(".")[0]


def test_every_import_is_stdlib_or_twistss():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) >= 10, "the package sources were not found"
    outside = {
        (str(path.relative_to(SRC)), name)
        for path in files
        for name in _imported_top_levels(path)
        if name != "twistss" and name not in sys.stdlib_module_names
    }
    assert not outside, f"imports outside the standard library: {sorted(outside)}"
