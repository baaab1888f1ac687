"""Golden digests of the JSON and text reports of every bundled pair.

The sha256 digests in ``golden_reports.json`` pin both renderings of
``run_analysis`` byte for byte.  A change that alters any report fails here.
Regenerate the file, after checking that the new reports are right, with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from twistss import parse_twist
from twistss.models import bundled_model, standard_pairs
from twistss.report import run_analysis

GOLDEN = Path(__file__).with_name("golden_reports.json")


def _key(name, expr):
    return f"{name}/{expr}"


def _digests(name, expr):
    m = bundled_model(name)
    rep = run_analysis(m, parse_twist(m, expr))
    return {
        "json": hashlib.sha256(rep.to_json().encode()).hexdigest(),
        "text": hashlib.sha256(rep.to_text().encode()).hexdigest(),
    }


@pytest.mark.parametrize("name,expr", standard_pairs(), ids=lambda v: v or "untwisted")
def test_report_matches_golden_digest(name, expr):
    golden = json.loads(GOLDEN.read_text())
    assert _digests(name, expr) == golden[_key(name, expr)]


if __name__ == "__main__":
    table = {_key(n, e): _digests(n, e) for n, e in standard_pairs()}
    GOLDEN.write_text(json.dumps(table, sort_keys=True, indent=2) + "\n")
