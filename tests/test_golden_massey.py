"""Golden digests of `twistss massey` stdout.

The sha256 digests in ``golden_massey.json`` pin the printed defining
systems, related cocycles and classes byte for byte, and with them
`Form.__str__` and `DefiningSystem.layout`.  A change that alters any of
these outputs fails here.  Regenerate the file, after checking that the new
outputs are right, with

    PYTHONPATH=src python tests/test_golden_massey.py
"""

import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

import pytest

from twistss.cli import main

GOLDEN = Path(__file__).with_name("golden_massey.json")

QUERIES = [
    "heisenberg --triple a a b",
    "heisenberg --triple a b b",
    "heisenberg --triple b a a",
    "heisenberg --twist a^b^c --thm41 --class a --t 1",
    "heisenberg --twist a^b^c --thm41 --class b --t 1",
    "heisenberg --twist a^b^c --thm42 --class a --t 1 --s 1",
    "torus3 --triple e1 e1 e1",
    "torus3 --twist e1^e2^e3 --thm41 --class e1 --t 1",
    "torus3 --twist e1^e2^e3 --thm41 --class e3 --t 1",
    "torus3 --twist 2*e1^e2^e3 --thm41 --class e1 --t 1",
    "torus3 --twist e1^e2^e3 --thm42 --class e1 --t 1 --s 1",
    "cascade3 --triple a a x",
    "cascade3 --triple a x x",
    "cascade3 --twist a --thm41 --class a --t 1",
    "cascade3 --twist a --thm41 --class x --t 1",
    "cascade3 --twist a --thm42 --class x --t 1 --s 1",
    "cascade5 --triple a a x",
    "cascade5 --twist a --thm41 --class x --t 3",
    "cascade5 --twist 3*a --thm41 --class x --t 3",
    "cascade5 --twist a --thm42 --class x --t 3 --s 2",
    "cascade5 --twist=-2/3*a --thm42 --class x --t 3 --s 2",
    "cascade7 --triple x x a",
    "cascade7 --twist a --thm41 --class x --t 2",
    "cascade7 --twist a --thm41 --class a --t 5",
    "cascade7 --twist a --thm42 --class x --t 5 --s 3",
    "mixed5 --triple a a x",
    "mixed5 --triple b b b",
    "mixed5 --twist 'a + b' --thm41 --class x --t 1",
    "mixed5 --twist '1/2*a + b' --thm41 --class x --t 1",
    "mixed5 --twist b --thm41 --class x --t 1",
]


def _digest(query):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["massey", *shlex.split(query)])
    return {"exit_code": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@pytest.mark.parametrize("query", QUERIES)
def test_massey_stdout_matches_golden_digest(query):
    golden = json.loads(GOLDEN.read_text())
    assert _digest(query) == golden[query]


def test_golden_file_covers_exactly_the_queries():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(QUERIES)


if __name__ == "__main__":
    table = {q: _digest(q) for q in QUERIES}
    GOLDEN.write_text(json.dumps(table, sort_keys=True, indent=2) + "\n")
