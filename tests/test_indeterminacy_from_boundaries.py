"""Indeterminacy is read off the page's B_r.  The report's table is
dim B_r - dim im d, and its samples check that d_r maps B_r into B_r, so an
analysis builds no subgroup object; no sequence or complex keeps a cache for
another module."""

import ast
from dataclasses import fields
from pathlib import Path

from twistss import SpectralSequence, parse_twist
from twistss.indet import IndeterminacySubgroup
from twistss.models import bundled_model
from twistss.twist import RelativeComplex

SRC = Path(__file__).resolve().parent.parent / "src" / "twistss"


def test_report_imports_no_subgroup_and_tests_no_class():
    tree = ast.parse((SRC / "report.py").read_text(encoding="utf-8"), filename="report.py")
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    attributes = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert "indeterminacy_subgroup" not in imported
    assert "contains_class" not in attributes


def test_a_sequence_keeps_no_subgroups():
    m = bundled_model("cascade5")
    assert not hasattr(SpectralSequence(m, parse_twist(m, "a")), "indet_subgroups")


def test_a_subgroup_holds_its_span_in_h_and_no_quotient_of_b_r():
    assert tuple(f.name for f in fields(IndeterminacySubgroup)) == ("p", "a", "in_h", "h")


def test_a_relative_complex_keeps_no_cohomology():
    m = bundled_model("cascade5")
    assert not hasattr(RelativeComplex(parse_twist(m, "a").operator(m), 0, 3), "_cohom")
