"""The benchmark's tracer must still find every layer it wraps.

`perfbench/tracer.py` wraps twistss functions and methods by name; a rename
in `src/` would break the traced benchmark run without failing anything
else.  This loads the tracer by path and checks that it counts calls.
"""

import importlib.util
from pathlib import Path

import pytest

import twistss.cli  # the tracer wraps every twistss module
import twistss.selftest  # noqa: F401
from twistss import indet, parse_twist
from twistss.models import bundled_model
from twistss.report import run_analysis

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_indeterminacy_and_operator_layers():
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        m = bundled_model("torus3")
        H = parse_twist(m, "e1^e2^e3")
        assert run_analysis(m, H).all_pass
        # an analysis reads its table off B_r, so ask for a subgroup directly
        assert indet.indeterminacy_subgroup(m, H, 3, 0, 4).dim == 1
    finally:
        tracer.uninstall()
    assert tracer.calls["indet.subgroup"] == 1
    assert tracer.calls["indet.relcomplex"] > 0
    assert tracer.calls["twist.doperator"] > 0
    assert tracer.calls["twist.matrix"] > 0
    # the spectral spans: lifts, d_r matrices, the page precompute and cells
    for key in ("spectral.lift", "spectral.dmat", "spectral.precompute", "spectral.cell"):
        assert tracer.calls[key] > 0, key


def test_tracer_counts_page_agreement_and_massey_classes():
    # the tracer times page_agreement, counts the class checks that
    # verify_main_theorems returns and times the full defining-system
    # validation it runs once per kind of system
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        m = bundled_model("cascade5")
        assert run_analysis(m, parse_twist(m, "a")).all_pass
    finally:
        tracer.uninstall()
    assert tracer.calls["indet.page_agreement"] > 0
    metrics = tracer.metrics()
    assert metrics["indet.page_agreement_s"]["value"] > 0
    assert metrics["massey.classes_checked"]["value"] > 0
    assert tracer.calls["massey.validate"] > 0
    assert metrics["massey.validate_s"]["value"] > 0


# each kind of `twistss massey` query and the massey spans it must fill; a
# builder or validation inlined out of reach of the tracer reads 0 here
MASSEY_QUERIES = {
    "triple": (["heisenberg", "--triple", "a", "b", "b"], ("massey.triple", "massey.validate")),
    "thm41": (
        ["torus3", "--twist", "e1^e2^e3", "--thm41", "--class", "e1", "--t", "1"],
        ("massey.system", "massey.validate"),
    ),
    "thm42": (
        ["cascade5", "--twist", "a", "--thm42", "--class", "x", "--t", "3", "--s", "2"],
        ("massey.system", "massey.validate"),
    ),
}


@pytest.mark.parametrize("kind", sorted(MASSEY_QUERIES))
def test_tracer_counts_the_massey_spans_of_each_query(capsys, kind):
    query, keys = MASSEY_QUERIES[kind]
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert twistss.cli.main(["massey", *query]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.calls["cli.main"] == 1
    metrics = tracer.metrics()
    for key in keys:
        assert tracer.calls[key] > 0, key
        assert metrics[f"{key}_s"]["value"] > 0, key
