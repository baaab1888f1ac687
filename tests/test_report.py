import json

import pytest

from twistss import parse_twist
from twistss.modelgen import random_model, random_twist
from twistss.models import bundled_model
from twistss.report import run_analysis
from twistss.twist import DOperator


def test_report_reproducible_bit_for_bit():
    m1 = bundled_model("cascade3")
    m2 = bundled_model("cascade3")
    r1 = run_analysis(m1, parse_twist(m1, "a"))
    r2 = run_analysis(m2, parse_twist(m2, "a"))
    assert r1.to_json() == r2.to_json()
    assert r1.to_text() == r2.to_text()


def test_report_verdicts_tristate():
    m = bundled_model("heisenberg")
    rep = run_analysis(m, parse_twist(m, ""))
    statuses = {v.status for v in rep.verdicts.values()}
    assert statuses <= {"pass", "fail", "n/a"}
    assert rep.all_pass
    doc = rep.to_dict()
    assert doc["schema_version"] == 1
    assert doc["overall"] == "pass"


def test_report_json_parse_round_trip():
    m = bundled_model("su3")
    rep = run_analysis(m, parse_twist(m, "x3"))
    text = rep.to_json()
    doc = json.loads(text)
    assert json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=2) + "\n" == text


def test_random_models_deterministic():
    a = random_model(7)
    b = random_model(7)
    assert a.name == b.name
    assert a.dims == b.dims
    assert a.diff == b.diff
    ha = random_twist(a, 7)
    hb = random_twist(b, 7)
    assert ha.components == hb.components


def test_random_models_vary_with_seed():
    seen = {random_model(s).dims for s in range(12)}
    assert len(seen) > 1


@pytest.mark.parametrize("max_page", [0, -1])
def test_max_page_below_one_rejected(max_page):
    m = bundled_model("torus3")
    with pytest.raises(ValueError, match="max_page must be >= 1"):
        run_analysis(m, parse_twist(m, "e1^e2^e3"), max_page=max_page)


def test_one_operator_per_analysis(monkeypatch):
    builds = []
    init = DOperator.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DOperator, "__init__", counting_init)
    m = bundled_model("cascade5")
    assert run_analysis(m, parse_twist(m, "a")).all_pass
    assert len(builds) == 1


def test_each_indeterminacy_subgroup_once_per_analysis(monkeypatch):
    from twistss import indet

    calls = []
    subgroup = indet.indeterminacy_subgroup

    def counting_subgroup(model, H, p, q, r):
        calls.append((p, q % 2, r))
        return subgroup(model, H, p, q, r)

    monkeypatch.setattr(indet, "indeterminacy_subgroup", counting_subgroup)
    m = bundled_model("cascade5")
    assert run_analysis(m, parse_twist(m, "a")).all_pass
    assert calls and len(calls) == len(set(calls))
