import random

import pytest

from twistss import (
    PageError,
    RelativeComplex,
    SpectralSequence,
    connecting_delta_bar,
    differential_indeterminacy,
    indeterminacy_subgroup,
    page_agreement,
    parse_twist,
    twisted_cohomology,
    z_cell,
)
from twistss.cdga import Form
from twistss.indet import boundary_agreement
from twistss.linalg import Mat, QuotientSpace, SubspaceBasis, image, kernel, span_in_quotient
from twistss.modelgen import random_model, random_twist
from twistss.models import bundled_model, standard_pairs
from twistss.report import run_analysis
from twistss.twist import BlockSpace, DOperator


def make_pair(name, expr):
    m = bundled_model(name)
    return m, parse_twist(m, expr)


# -- relative complexes ------------------------------------------------------------


def test_single_step_quotients():
    # H(K_p / K_{p+1}) is the degree-p piece in matching parity, zero opposite
    for name, expr in [("torus3", "e1^e2^e3"), ("mixed5", "a + b"), ("heisenberg", "a^b^c")]:
        m, H = make_pair(name, expr)
        for p in range(m.top_degree + 1):
            k = RelativeComplex(H.operator(m), p, p + 1)
            assert k.cohomology(p % 2).dim == m.dim(p)
            assert k.cohomology((p + 1) % 2).dim == 0


def test_whole_complex_is_twisted_cohomology():
    for name, expr in [("torus3", "e1^e2^e3"), ("cascade5", "a"), ("su3", "x3")]:
        m, H = make_pair(name, expr)
        tc = twisted_cohomology(m, H)
        k = RelativeComplex(H.operator(m), 0, m.top_degree + 1)
        assert k.cohomology(0).dim == tc.dims[0]
        assert k.cohomology(1).dim == tc.dims[1]


def test_index_violations():
    m, H = make_pair("torus3", "")
    with pytest.raises(ValueError):
        RelativeComplex(H.operator(m), 2, 2).cohomology(0)
    with pytest.raises(ValueError):
        RelativeComplex(H.operator(m), 0, 99).cohomology(0)


def shifted(basis, off, ambient_dim):
    """The subspace with every coordinate moved up by off, in Q^ambient_dim."""
    rows = tuple(tuple((j + off, x) for j, x in row) for row in basis.sparse)
    return SubspaceBasis(ambient_dim, rows, tuple(c + off for c in basis.pivots))


def window_pairs():
    for name, expr in standard_pairs():
        m = bundled_model(name)
        yield pytest.param(m, parse_twist(m, expr), id=f"{name}/{expr}")
    for seed in range(20):
        m = random_model(seed)
        yield pytest.param(m, random_twist(m, seed), id=f"modelgen{seed}")


@pytest.mark.parametrize("m,H", list(window_pairs()))
def test_every_window_is_read_off_the_whole_complex(m, H):
    # the cocycles and cohomology of K_w/K_b, read off K_0/K_b with start w,
    # are the kernel and image of the D of K_w/K_b built alone, moved up by
    # the degrees below w
    op, n = H.operator(m), m.top_degree
    for b in range(1, n + 2):
        whole = RelativeComplex(op, 0, b)
        for w in range(b):
            alone = RelativeComplex(op, w, b)
            for par in (0, 1):
                off = sum(m.dim(q) for q in range(par, w, 2))
                dim = whole.space(par).total_dim
                cocycles = shifted(kernel(alone.d(par)), off, dim)
                assert whole.cocycles(par, w) == cocycles, (b, w, par)
                h = whole.cohomology(par, w)
                assert h.ambient == cocycles, (b, w, par)
                assert h.sub == shifted(image(alone.d(1 - par)), off, dim), (b, w, par)


def test_window_start_defaults_to_a_and_stays_inside_the_complex():
    m, H = make_pair("cascade5", "a")
    k = RelativeComplex(H.operator(m), 2, 7)
    for par in (0, 1):
        assert k.cocycles(par) is k.cocycles(par, 2)
        assert k.cohomology(par) == k.cohomology(par, 2)
        for start in (1, 7):
            with pytest.raises(ValueError, match=rf"window start {start} outside 2\.\.6"):
                k.cocycles(par, start)
            with pytest.raises(ValueError, match=rf"window start {start} outside 2\.\.6"):
                k.cohomology(par, start)


# -- connecting map ------------------------------------------------------------------


def test_delta_bar_r2_is_d():
    # for r = 2 the connecting map is the ordinary differential
    m, H = make_pair("heisenberg", "a^b^c")
    for p in range(1, m.top_degree + 1):
        db = connecting_delta_bar(m, H, p, 2, (p - 1) % 2)
        # source is H(K_{p-1}/K_p) = degree p-1 piece; target is the degree-p piece
        assert db.cols == m.dim(p - 1)
        assert db == m.d_mat(p - 1)


def test_delta_bar_zero_class_maps_to_zero():
    m, H = make_pair("torus3", "e1^e2^e3")
    db = connecting_delta_bar(m, H, 3, 3, 0)
    assert db.is_zero()  # torus has d = 0 and no twist contribution at r = 3


@pytest.mark.parametrize(
    "name,expr",
    [("torus3", "e1^e2^e3"), ("cascade5", "a"), ("mixed5", "a + b"), ("heisenberg", "a^b^c")],
)
def test_delta_bar_chain_level_oracle(name, expr):
    # exhaustive chain-level oracle: the image of delta_bar is the span of
    # (D w)_p over every relative cocycle w of K_{p-r+1}/K_p, i.e. every w
    # with components in degrees [p-r+1, p) of parity p-1 and (D w)_{<p} = 0
    m, H = make_pair(name, expr)
    op = H.operator(m)
    for p in range(m.top_degree + 1):
        for r in range(2, m.top_degree + 3):
            a = max(0, p - r + 1)
            dom = BlockSpace(m, [q for q in range(a, p) if q % 2 != p % 2])
            conds = [q for q in range(a, p) if q % 2 == p % 2]
            if conds:
                lifts = kernel(op.matrix(dom, BlockSpace(m, conds)))
            else:
                lifts = SubspaceBasis.full(dom.total_dim)
            proj = op.matrix(dom, BlockSpace(m, [p]))
            brute = image(proj @ Mat.from_cols(lifts.sparse, lifts.ambient_dim))
            db = connecting_delta_bar(m, H, p, r, (p - 1) % 2)
            assert db.rows == m.dim(p)
            assert image(db) == brute, (p, r)
            if (name, p, r) == ("torus3", 3, 4):
                assert brute.dim == 1  # spanned by the top form
            # the opposite source parity maps into the zero cohomology of K_p/K_{p+1}
            assert connecting_delta_bar(m, H, p, r, p % 2).rows == 0


def coset_delta_bar(m, H, p, r, parity):
    """Reference: the connecting map on the source's cohomology coset representatives.

    This is how `connecting_delta_bar` was computed before it mapped a
    kernel basis of the relative cocycles; it is kept as the oracle for
    that shortcut.
    """
    op = H.operator(m)
    rows = m.dim(p) if (parity + 1) % 2 == p % 2 else 0
    a = max(0, p - r + 1)
    if a == p:
        return Mat.zeros(rows, 0)
    src = RelativeComplex(op, a, p)
    cols = [
        op.apply(src.space(parity).unpack(rep)).part(p) if rows else ()
        for rep in src.cohomology(parity).sparse_reps
    ]
    return Mat.from_cols(cols, rows)


def oracle_pairs():
    for name, expr in standard_pairs():
        yield pytest.param(name, expr, id=f"{name}/{expr}")
    for seed in range(20):
        yield pytest.param("modelgen", seed, id=f"modelgen{seed}")


@pytest.mark.parametrize("name,arg", list(oracle_pairs()))
def test_delta_bar_image_matches_coset_oracle(name, arg):
    if name == "modelgen":
        m = random_model(arg)
        H = random_twist(m, arg)
    else:
        m, H = make_pair(name, arg)
    for p in range(m.top_degree + 1):
        for r in range(2, m.top_degree + 3):
            for parity in (0, 1):
                db = connecting_delta_bar(m, H, p, r, parity)
                want = coset_delta_bar(m, H, p, r, parity)
                assert db.rows == want.rows
                assert image(db) == image(want), (p, r, parity)


def test_delta_bar_shares_one_kernel_and_one_map_per_column(monkeypatch):
    # the B_r sweep reads every start a of a column off one kernel of K_0/K_p
    # in the source parity (p - 1) % 2, and maps its rows into degree p once:
    # per column one kernel, one read of D into degree p and one image list
    from twistss import indet, twist

    m, H = make_pair("mixed5", "a + b")
    ss = SpectralSequence(m, H)
    ss.precompute()
    built, kernels, into_p, image_lists = {}, [], [], []
    matrix, columns, kernel_of = DOperator.matrix, DOperator.columns, twist.kernel
    column = indet._connecting_column

    def recording_matrix(op, domain, codomain):
        out = matrix(op, domain, codomain)
        built[id(out)] = (domain.degrees, codomain.degrees)
        return out

    def recording_columns(op, domain, q):
        into_p.append((domain.degrees, q))
        return columns(op, domain, q)

    def recording_kernel(mat):
        kernels.append(built.pop(id(mat)))
        return kernel_of(mat)

    def recording_column(op, p, parity):
        image_lists.append(p)
        return column(op, p, parity)

    monkeypatch.setattr(DOperator, "matrix", recording_matrix)
    monkeypatch.setattr(DOperator, "columns", recording_columns)
    monkeypatch.setattr(twist, "kernel", recording_kernel)
    monkeypatch.setattr(indet, "_connecting_column", recording_column)
    n = m.top_degree
    assert boundary_agreement(ss) == ((ss.max_page - 2) * (n + 1), None)
    assert image_lists == list(range(n + 1))
    assert kernels == [(tuple(range((p - 1) % 2, p, 2)), tuple(range(p % 2, p, 2))) for p in range(1, n + 1)]
    # every matrix is a whole D, and every other read of D is its columns
    # into one degree p from the source parity of K_0/K_p
    assert not built
    assert into_p == [(tuple(range((p - 1) % 2, p, 2)), p) for p in range(1, n + 1)]


def window_delta_bar(m, H, p, r, parity):
    """Reference: the connecting map on the source complex K_a/K_p built alone."""
    op = H.operator(m)
    rows = m.dim(p) if (parity + 1) % 2 == p % 2 else 0
    a = max(0, p - r + 1)
    if a == p:
        return Mat.zeros(rows, 0)
    src = RelativeComplex(op, a, p)
    cocycles = src.cocycles(parity)
    if not rows:
        return Mat.zeros(0, cocycles.dim)
    return op.matrix(src.space(parity), BlockSpace(m, [p])) @ Mat.from_cols(cocycles.sparse, cocycles.ambient_dim)


@pytest.mark.parametrize("name,arg", list(oracle_pairs()))
def test_shared_sources_and_tower_give_the_uncached_results(monkeypatch, name, arg):
    # each per-cell connecting map is the one of K_a/K_p built alone, and the
    # sweeps, which share a column's complex, images and delta across its
    # pages, agree with the per-cell functions at every cell: with the
    # engine's B_r and Z_r replaced by the per-cell results, both pass
    if name == "modelgen":
        m = random_model(arg)
        H = random_twist(m, arg)
    else:
        m, H = make_pair(name, arg)
    n = m.top_degree
    for p in range(n + 1):
        for r in range(2, n + 3):
            for parity in (0, 1):
                assert connecting_delta_bar(m, H, p, r, parity) == window_delta_bar(m, H, p, r, parity), (p, r, parity)
    ss = SpectralSequence(m, H)
    monkeypatch.setattr(ss, "boundaries", lambda r, p: image(connecting_delta_bar(m, H, p, r, (p - 1) % 2)))
    monkeypatch.setattr(ss, "cycles", lambda r, p: z_cell(m, H, r, p))
    assert boundary_agreement(ss) == ((ss.max_page - 2) * (n + 1), None)
    assert page_agreement(ss) == ((ss.max_page - 1) * (n + 1), None)


def test_connecting_oracle_reads_no_engine_boundary(monkeypatch):
    m, H = make_pair("cascade5", "a")
    ss = SpectralSequence(m, H)

    def engine(*args):
        raise AssertionError("the oracle read the engine's boundaries")

    monkeypatch.setattr(SpectralSequence, "_compute_boundaries", engine)
    images = {}
    for r in range(3, ss.max_page + 1):
        for p in range(ss.n + 1):
            images[r, p] = image(connecting_delta_bar(m, H, p, r, (p - 1) % 2))
    monkeypatch.undo()
    assert all(b == ss.boundaries(r, p) for (r, p), b in images.items())


# -- indeterminacy subgroups ------------------------------------------------------------


def test_torus_r3_trivial_r4_not():
    m, H = make_pair("torus3", "e1^e2^e3")
    assert indeterminacy_subgroup(m, H, 3, 0, 3).dim == 0
    sub = indeterminacy_subgroup(m, H, 3, 0, 4)
    assert sub.dim == 1
    assert sub.contains_class(m.parse_form("e1^e2^e3"))


def test_untwisted_subgroups_trivial():
    for name in ("torus3", "heisenberg", "su3"):
        m, H = make_pair(name, "")
        for r in range(3, m.top_degree + 3):
            for p in range(m.top_degree + 1):
                assert indeterminacy_subgroup(m, H, p, 0, r).dim == 0


def test_cascade5_subgroup_and_membership():
    m, H = make_pair("cascade5", "a")
    sub = indeterminacy_subgroup(m, H, 5, 0, 9)
    assert sub.dim == 1
    assert sub.contains_class(m.basis_form("a"))
    assert not sub.contains_class(m.basis_form("x"))


def delta_bar_subgroup(m, H, p, r):
    """The subgroup built straight from the connecting map: im(delta_bar)/im(d).

    This is how indeterminacy subgroups were computed before they were read
    off the page's B_r; it is kept here as the oracle for the page route.
    """
    h = m.de_rham(p)
    im_delta = image(connecting_delta_bar(m, H, p, r, (p - 1) % 2))
    return QuotientSpace(im_delta, h.sub), span_in_quotient(h, list(im_delta.sparse))


@pytest.mark.parametrize("name,expr", standard_pairs(), ids=lambda v: str(v))
def test_page_subgroup_matches_delta_bar_subgroup(name, expr):
    # at every (r >= 3, p), and on two pages past the last one, where only
    # a = max(0, p - r + 1) = 0 matters
    # the analysis table lists the nonzero dims of the analysed pages
    m, H = make_pair(name, expr)
    ss = SpectralSequence(m, H)
    table = {(e["r"], e["p"]): e["dim"] for e in run_analysis(m, H).indeterminacy}
    for r in range(3, ss.max_page + 3):
        for p in range(ss.n + 1):
            sub = indeterminacy_subgroup(m, H, p, 0, r, ss)
            group, in_h = delta_bar_subgroup(m, H, p, r)
            assert sub.dim == group.dim, (r, p)
            assert sub.in_h == in_h, (r, p)
            assert sub.a == max(0, p - r + 1)
            if r <= ss.max_page:
                assert table.get((r, p), 0) == sub.dim, (r, p)


def test_subgroup_depends_on_column_and_start():
    m, H = make_pair("cascade5", "a")
    ss = SpectralSequence(m, H)
    # (p, r) = (3, 4), (3, 9) and (3, 40) all have a = 0
    first = indeterminacy_subgroup(m, H, 3, 0, 4, ss)
    assert indeterminacy_subgroup(m, H, 3, 2, 9, ss) == first
    assert indeterminacy_subgroup(m, H, 3, 0, 40, ss) == first
    assert indeterminacy_subgroup(m, H, 5, 0, 4, ss) != indeterminacy_subgroup(m, H, 5, 0, 5, ss)


def test_subgroup_rejects_a_sequence_of_another_pair():
    m, H = make_pair("cascade5", "a")
    other = SpectralSequence(m, parse_twist(m, "a"))
    with pytest.raises(ValueError):
        indeterminacy_subgroup(m, H, 5, 0, 9, other)


@pytest.mark.parametrize("p", [0, 1, 3, 5, 11])
def test_subgroup_builds_no_relative_complex(monkeypatch, p):
    # the subgroup is read off the page's B_r: no relative complex, whatever the cell
    m, H = make_pair("cascade5", "a")
    ss = SpectralSequence(m, H)
    complexes = []
    init = RelativeComplex.__init__

    def counting_init(self, *args, **kwargs):
        complexes.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RelativeComplex, "__init__", counting_init)
    for q in (0, 2, -4, 1):
        for r in (3, 5, 9, 30):
            indeterminacy_subgroup(m, H, p, q, r, ss)
            indeterminacy_subgroup(m, H, p, q, r)
    assert complexes == []


def test_differential_indeterminacy_matches_shifted_subgroup():
    m, H = make_pair("cascade5", "a")
    d = differential_indeterminacy(m, H, 5, 0, 3)
    s = indeterminacy_subgroup(m, H, 5 + 9, -8, 9)
    assert d.p == s.p == 14
    assert d.dim == s.dim


def test_differential_indeterminacy_rejects_a_negative_column():
    # -5 + 2t + 3 is column 0, but column -5 has no classes
    m, H = make_pair("cascade5", "a")
    with pytest.raises(ValueError, match=rf"column -5 outside 0\.\.{m.top_degree}"):
        differential_indeterminacy(m, H, -5, 0, 1)


def test_differential_indeterminacy_beyond_top_degree_trivial():
    # on the 3-torus any d_{2t+3} lands above the top degree
    m, H = make_pair("torus3", "e1^e2^e3")
    for t in (1, 2):
        assert differential_indeterminacy(m, H, 0, 0, t).dim == 0


def test_representative_pairs_differ_inside_subgroup():
    for name, expr in [("cascade5", "a"), ("mixed5", "a + b"), ("torus3", "e1^e2^e3")]:
        m, H = make_pair(name, expr)
        ss = SpectralSequence(m, H)
        for r in range(3, ss.max_page + 1):
            for p in range(ss.n + 1):
                cell = ss.cell(r, p)
                if cell.dim == 0:
                    continue
                h = m.de_rham(p)
                sub = indeterminacy_subgroup(m, H, p, 0, r)
                for b in ss.boundaries(r, p).sparse:
                    if h.sub.contains(b):
                        continue
                    rep = cell.sparse_reps[0]
                    x2 = Form(m, {p: rep}) + Form(m, {p: b})
                    assert cell.project(x2.part(p)) == cell.project(rep)
                    assert sub.contains_class(x2 - Form(m, {p: rep}))


def test_d9_values_differ_within_differential_indeterminacy():
    m, H = make_pair("cascade5", "a")
    ss = SpectralSequence(m, H)
    x = m.basis_form("x")
    a = m.basis_form("a")
    y1 = ss.op.apply(ss.lift_zigzag(x, 9).form).homogeneous_part(14)
    y2 = ss.op.apply(ss.lift_zigzag(x + a, 9).form).homogeneous_part(14)
    dsub = differential_indeterminacy(m, H, 5, 0, 3)
    delta = y1 - y2
    assert dsub.contains_class(delta)


# -- the cohomological page construction ---------------------------------------------------


def test_zb_tower_containments():
    m, H = make_pair("mixed5", "a + b")
    ss = SpectralSequence(m, H)
    for p in range(m.top_degree + 1):
        prev_z, prev_b = None, None
        for r in range(2, ss.max_page + 1):
            z = z_cell(m, H, r, p)
            b = image(connecting_delta_bar(m, H, p, r, (p - 1) % 2))
            assert z.contains_space(b)
            if prev_z is not None:
                assert prev_z.contains_space(z)  # Z_{r-1} contains Z_r
                assert b.contains_space(prev_b)  # B_r contains B_{r-1}
            prev_z, prev_b = z, b


def test_zb_r2_is_de_rham():
    m, H = make_pair("heisenberg", "a^b^c")
    ss = SpectralSequence(m, H)
    for p in range(m.top_degree + 1):
        h = m.de_rham(p)
        assert z_cell(m, H, 2, p) == h.ambient
        assert ss.boundaries(2, p) == h.sub


def test_z_cell_rejects_a_negative_column():
    m, H = make_pair("cascade5", "a")
    with pytest.raises(ValueError, match=rf"column -1 outside 0\.\.{m.top_degree}"):
        z_cell(m, H, 3, -1)


@pytest.mark.parametrize("max_r", [0, 22, 99])
def test_page_agreement_rejects_pages_that_do_not_exist(max_r):
    # cascade5 has the pages 1..21; a cut past them is no cut
    m, H = make_pair("cascade5", "a")
    ss = SpectralSequence(m, H)
    with pytest.raises(PageError, match=rf"page index {max_r} outside 1\.\.21"):
        page_agreement(ss, max_r)


@pytest.mark.parametrize("name,expr", standard_pairs(), ids=lambda v: str(v))
def test_page_agreement_everywhere(name, expr):
    m, H = make_pair(name, expr)
    ss = SpectralSequence(m, H)
    checked, failure = page_agreement(ss)
    assert failure is None, failure
    assert checked == (ss.max_page - 1) * (ss.n + 1)


def test_page_agreement_checks_each_cycle_space_once(monkeypatch):
    # one Z per raw key (p, min(p + r, n + 1)), and every raw key is built
    import twistss.indet as indet

    calls = []

    def counting(whole, delta, p, end):
        calls.append((p, end))
        return cycles(whole, delta, p, end)

    cycles = indet._cycles
    monkeypatch.setattr(indet, "_cycles", counting)
    m, H = make_pair("cascade7", "a")
    ss = SpectralSequence(m, H)
    checked, failure = page_agreement(ss)
    assert failure is None
    assert checked == (ss.max_page - 1) * (ss.n + 1)
    keys = {(p, min(p + r, ss.n + 1)) for r in range(2, ss.max_page + 1) for p in range(ss.n + 1)}
    assert sorted(calls) == sorted(keys)
    assert len(calls) == len(set(calls)) < checked


def test_page_agreement_builds_delta_once_per_column(monkeypatch):
    # delta is built once per column p < n (None at the top column), off the
    # sequence's own K_0/K_{n+1}, and read by every page of the column; the
    # cohomological route applies D to no form
    from twistss import indet
    from twistss.twist import DOperator

    applied, deltas, reads = [], {}, []

    def counting(op, x):
        applied.append(x)
        return apply(op, x)

    def recording_delta(whole, p):
        assert whole is ss.twisted_cohomology().complex
        assert p not in deltas
        deltas[p] = delta(whole, p)
        return deltas[p]

    def recording_cycles(whole, d, p, end):
        reads.append((p, d))
        return cycles(whole, d, p, end)

    apply, delta, cycles = DOperator.apply, indet._delta, indet._cycles
    m, H = make_pair("cascade7", "a")
    ss = SpectralSequence(m, H)
    ss.precompute()
    monkeypatch.setattr(DOperator, "apply", counting)
    monkeypatch.setattr(indet, "_delta", recording_delta)
    monkeypatch.setattr(indet, "_cycles", recording_cycles)
    checked, failure = page_agreement(ss)
    assert failure is None
    assert applied == []
    n = m.top_degree
    assert list(deltas) == list(range(n + 1))
    assert deltas[n] is None
    for p in range(n):  # delta's class columns, the classes of K_{p+1}'s cocycle rows, dim H
        columns, classes, dim_h = deltas[p]
        assert type(columns) is tuple and len(columns) == m.dim(p)
        assert len(classes) == ss.twisted_cohomology().complex.cocycles((p + 1) % 2, p + 1).dim
        assert all(not v or v[-1][0] < dim_h for v in columns + tuple(classes))
    assert {p for p, _ in reads} == set(range(n + 1))
    assert all(d is deltas[p] for p, d in reads)


def test_page_agreement_names_every_cell_of_a_bad_cycle_space(monkeypatch):
    # a wrong Z at one key shows at every (r, p) that shares it
    m, H = make_pair("cascade5", "a")
    ss = SpectralSequence(m, H)
    true_cycles = ss.cycles
    p, end = 0, ss.n + 1

    def broken(r, q):
        z = true_cycles(r, q)
        if (q, min(q + r, ss.n + 1)) == (p, end):
            return SubspaceBasis.full(z.ambient_dim)
        return z

    monkeypatch.setattr(ss, "cycles", broken)
    checked, failure = page_agreement(ss)
    assert checked == (ss.max_page - 1) * (ss.n + 1)
    bad = [(r, p) for r in range(2, ss.max_page + 1) if p + r >= end]
    assert failure == f"disagreement on {m.name} at {bad[:3]}"
