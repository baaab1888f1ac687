import json
from fractions import Fraction

import pytest

from twistss import SpectralSequence, indet, parse_twist, report
from twistss.cdga import model_from_dict
from twistss.linalg import SubspaceBasis
from twistss.modelgen import random_model, random_twist
from twistss.models import bundled_model, standard_pairs
from twistss.report import run_analysis
from twistss.selftest import run_selftest
from twistss.twist import DOperator, RelativeComplex


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


def test_one_whole_twisted_complex_per_sequence(monkeypatch):
    # K_0/K_{n+1} has one owner, the sequence's twisted cohomology: convergence,
    # the Z_r oracle and the selftest criteria read it, none builds its own
    wholes = []
    init = RelativeComplex.__init__

    def spying_init(self, op, a, b):
        if (a, b) == (0, op.model.top_degree + 1):
            wholes.append(op)
        init(self, op, a, b)

    monkeypatch.setattr(RelativeComplex, "__init__", spying_init)
    gens = [{"name": f"e{i}", "degree": 1} for i in range(1, 7)]
    torus6 = model_from_dict({"name": "torus6", "top_degree": 6, "generators": gens})
    for m, expr in [(torus6, "e1^e2^e3"), (bundled_model("cascade7"), "a")]:
        wholes.clear()
        assert run_analysis(m, parse_twist(m, expr)).all_pass
        assert len(wholes) == 1, m.name
    wholes.clear()
    assert run_selftest(seed=0, emit=lambda line: None)
    assert wholes and len(set(wholes)) == len(wholes)  # each op is one sequence's


def test_an_analysis_builds_no_indeterminacy_subgroup(monkeypatch):
    # the table reads dim B_r - dim im d off the page, so no subgroup is
    # requested and no B_r is projected into H^p; the B_r oracle spans the
    # connecting map's columns once per distinct (p, a) of the pages r >= 3
    requested, built, spans = [], [], []
    subgroup, span, images_from = (
        indet.indeterminacy_subgroup, indet.span_in_quotient, indet._connecting_images
    )

    def counting_subgroup(*args, **kwargs):
        requested.append(1)
        return subgroup(*args, **kwargs)

    def counting_span(h, rows):
        built.append(1)
        return span(h, rows)

    def counting_images(whole, images, parity, a):
        spans.append((whole.b if whole else 0, a))
        return images_from(whole, images, parity, a)

    monkeypatch.setattr(indet, "indeterminacy_subgroup", counting_subgroup)
    monkeypatch.setattr(indet, "span_in_quotient", counting_span)
    monkeypatch.setattr(indet, "_connecting_images", counting_images)
    m = bundled_model("cascade5")
    assert run_analysis(m, parse_twist(m, "a")).all_pass
    n = m.top_degree
    assert requested == [] and built == []
    assert len(spans) == len(set(spans))
    assert set(spans) == {(p, max(0, p - r + 1)) for r in range(3, n + 3) for p in range(n + 1)}


@pytest.mark.parametrize("name,expr", standard_pairs(), ids=lambda v: str(v))
def test_indeterminacy_checks_count_every_cell(name, expr):
    m = bundled_model(name)
    ss = SpectralSequence(m, parse_twist(m, expr))
    oracle, samples = report.check_indeterminacy(ss)
    assert oracle == ((ss.max_page - 2) * (ss.n + 1), None)
    assert samples[1] is None
    assert report.run_analysis(m, ss.H).verdicts["indeterminacy_coherence"].status == "pass"


def _cascade5():
    m = bundled_model("cascade5")
    return SpectralSequence(m, parse_twist(m, "a"))


def test_connecting_oracle_catches_a_dropped_boundary_row(monkeypatch):
    ss = _cascade5()
    target = (6, 5)  # B_6 at column 5 holds [a], killed by d_5
    assert ss.boundaries(*target).dim >= 1
    boundaries = SpectralSequence.boundaries

    def dropping(self, r, p):
        b = boundaries(self, r, p)
        return SubspaceBasis.span(b.ambient_dim, b.sparse[1:]) if (r, p) == target else b

    monkeypatch.setattr(SpectralSequence, "boundaries", dropping)
    oracle, _ = report.check_indeterminacy(_cascade5())
    assert oracle[1] == "connecting image differs from B_6 on cascade5 at p=5"


def test_connecting_oracle_catches_a_corrupted_stored_lift():
    # B_r spans D of the stored zig-zag lifts, so a lift that loses its tail
    # moves B_10 at column 14; the oracle eliminates its own D and objects
    ss = _cascade5()
    key = ss._cycle_key(5, 14 - 5)  # Z at column 5 with conditions below 14
    z, lifts = ss._zigzags(key)
    head = tuple((j, x) for j, x in lifts[1] if j < ss.model.dim(5))
    assert head != lifts[1]
    ss._cycles[key] = (z, lifts[:1] + (head,) + lifts[2:])
    assert ss.boundaries(10, 14) != _cascade5().boundaries(10, 14)
    oracle, _ = report.check_indeterminacy(ss)
    assert oracle[1] == "connecting image differs from B_10 on cascade5 at p=14"


def test_containment_catches_a_boundary_line_moved_in_its_column(monkeypatch):
    # d_5 maps B_5 at column 3 of mixed5 a + b onto the line B_5 at column
    # 8; another line of Omega^8, of the same dim, must make the samples
    # half fail on its own message
    m = bundled_model("mixed5")
    H = parse_twist(m, "a + b")
    target = (5, 8)
    line = SpectralSequence(m, H).boundaries(*target)
    other = SubspaceBasis.span(m.dim(8), [((0, Fraction(1)),)])
    assert line.dim == other.dim == 1 and line != other
    boundaries = SpectralSequence.boundaries

    def moved(self, r, p):
        return other if (r, p) == target else boundaries(self, r, p)

    monkeypatch.setattr(SpectralSequence, "boundaries", moved)
    _, samples = report.check_indeterminacy(SpectralSequence(m, H))
    assert samples == (3, "d_5 values escape on mixed5 (p=3)")


def test_connecting_oracle_catches_a_shifted_start(monkeypatch):
    images_from = indet._connecting_images

    def shifted(whole, images, parity, a):  # a = max(0, p - r + 1) moves down by one
        return images_from(whole, images, parity, max(0, a - 1))

    monkeypatch.setattr(indet, "_connecting_images", shifted)
    oracle, _ = report.check_indeterminacy(_cascade5())
    assert oracle[1] is not None


def test_connecting_oracle_catches_a_span_kept_after_the_start_moves(monkeypatch):
    # the sweep spans each start a of a column anew; columns that kept the
    # first start's span for every page must fail the oracle
    images_from, first = indet._connecting_images, {}

    def stale(whole, images, parity, a):  # keyed by the column's image list, kept alive
        return first.setdefault(id(images), (images, images_from(whole, images, parity, a)))[1]

    monkeypatch.setattr(indet, "_connecting_images", stale)
    oracle, _ = report.check_indeterminacy(_cascade5())
    assert oracle[1] == "connecting image differs from B_6 on cascade5 at p=5"


def test_page_agreement_catches_a_cycle_space_kept_after_the_key_moves(monkeypatch):
    # the sweep builds one Z per raw key (p, min(p + r, n + 1)); columns that
    # kept their first key's Z for every page must fail the Z_r oracle
    cycles, first = indet._cycles, {}

    def stale(whole, delta, p, end):
        return first.setdefault(p, cycles(whole, delta, p, end))

    monkeypatch.setattr(indet, "_cycles", stale)
    checked, failure = indet.page_agreement(_cascade5())
    assert failure == "disagreement on cascade5 at [(6, 0), (6, 14), (7, 0)]"


def test_stable_totals_read_only_the_stable_cells(monkeypatch):
    # the totals are the stable page's cell dimensions, read without
    # building the page's d_r matrices
    ss = _cascade5()
    cells = ss.e_infinity().cells
    want = tuple(sum(c.dim for p, c in cells.items() if p % 2 == parity) for parity in (0, 1))

    def refused(self, r, p):
        raise AssertionError("stable_totals built a d_r matrix")

    monkeypatch.setattr(SpectralSequence, "differential_matrix", refused)
    assert report.stable_totals(ss) == want == ss.twisted_cohomology().dims


def test_unchecked_verdict_is_not_applicable():
    assert report._status((0, None)) == "n/a"
    assert report._status((3, None)) == "pass"
    assert report._status((0, "broken")) == "fail"


def test_oracles_catch_odd_pages_sharing_the_next_even_cell(monkeypatch):
    # the engine shares one cell between pages 2k and 2k+1; pair the pages
    # wrongly, 2k-1 with 2k, and both independent oracles must object
    cycle_key, boundary_start = SpectralSequence._cycle_key, SpectralSequence._boundary_start

    def up(r):
        return r + 1 if r % 2 == 1 else r

    monkeypatch.setattr(SpectralSequence, "_cycle_key", lambda self, p, r: cycle_key(self, p, up(r)))
    monkeypatch.setattr(SpectralSequence, "_boundary_start", staticmethod(lambda p, r: boundary_start(p, up(r))))
    m = bundled_model("torus3")
    ss = SpectralSequence(m, parse_twist(m, "e1^e2^e3"))
    assert ss.cell(3, 0) is ss.cell(4, 0) and ss.cell(3, 0).dim == 0  # the true E_3^0 holds the unit
    verdicts = run_analysis(m, ss.H).verdicts
    assert verdicts["page_construction_agreement"].status == "fail"
    assert verdicts["indeterminacy_coherence"].status == "fail"


def test_nilmanifold_twisted_by_an_exact_form_has_the_untwisted_pages():
    # the nilmanifold (0,0,0,12,13,14+23): e1^e2^e3 = -d(e1^e6) is exact,
    # so from E_2 on every page is the de Rham cohomology
    doc = {
        "name": "nil6",
        "top_degree": 6,
        "generators": [{"name": f"e{i}", "degree": 1} for i in range(1, 7)],
        "differentials": {"e4": "e1^e2", "e5": "e1^e3", "e6": "e1^e4 + e2^e3"},
    }
    m = model_from_dict(doc)
    assert m.parse_form("e1^e2^e3") == -m.parse_form("e1^e6").d()
    betti = [1, 3, 6, 8, 6, 3, 1]
    rep = run_analysis(m, parse_twist(m, "e1^e2^e3"))
    assert rep.de_rham == betti
    assert len(rep.pages) >= 2
    for page in rep.pages[1:]:
        assert page["dims"] == {str(p): b for p, b in enumerate(betti)}, page["r"]
    assert (rep.twisted_even, rep.twisted_odd) == (14, 14)
    untwisted = run_analysis(m, parse_twist(m, ""))
    assert (untwisted.twisted_even, untwisted.twisted_odd) == (14, 14)
    assert rep.all_pass
