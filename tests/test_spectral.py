import pytest

from twistss import PageError, SpectralSequence, parse_twist, twisted_cohomology
from twistss.cdga import Form, model_from_dict
from twistss.models import bundled_model, standard_pairs
from twistss.modelgen import random_model, random_twist
from twistss.linalg import Mat, SubspaceBasis, dense, image, kernel, sparse
from twistss.report import check_even_vanishing
from twistss.twist import BlockSpace

from lift_oracle import boundaries_by_kernel, lifted_differential_matrix, resolve_tail


def dense_rows(s):
    """The dense basis rows of a SubspaceBasis."""
    return [dense(v, s.ambient_dim) for v in s.sparse]


def dense_reps(q):
    """The dense coset representatives of a QuotientSpace."""
    return [dense(v, q.ambient_dim) for v in q.sparse_reps]


def make_ss(name, expr):
    m = bundled_model(name)
    return SpectralSequence(m, parse_twist(m, expr))


@pytest.fixture(scope="module")
def t3():
    return make_ss("torus3", "e1^e2^e3")


def all_sequences():
    for name, expr in standard_pairs():
        yield make_ss(name, expr)
    for seed in range(8):
        m = random_model(seed)
        yield SpectralSequence(m, random_twist(m, seed))


# -- the filtration ----------------------------------------------------------------


def test_filtration_shifted_by_D(t3):
    # D(K_p) lies in K_{p+1}: D of a degree-p form has no component below p+1
    for p in range(t3.model.top_degree + 1):
        for i in range(t3.model.dim(p)):
            e = t3.model.basis_form(t3.model.label_of(p, i))
            assert min(t3.op.apply(e).degrees, default=p + 1) >= p + 1


# -- page structure --------------------------------------------------------------


def test_page_index_range(t3):
    with pytest.raises(PageError):
        t3.page(0)
    with pytest.raises(PageError):
        t3.page(t3.max_page + 1)


def test_first_page_is_graded_piece(t3):
    for p in range(4):
        assert t3.cell(1, p).dim == t3.model.dim(p)


def test_second_page_is_de_rham(t3):
    for p in range(4):
        cell = t3.cell(2, p)
        h = t3.model.de_rham(p)
        assert cell.dim == h.dim
        assert dense_reps(cell) == dense_reps(h)


def test_odd_q_cells_zero(t3):
    for r in (1, 2, 3, 4):
        for p in range(4):
            assert t3.cell(r, p, q=1).dim == 0
            assert t3.cell(r, p, q=0) == t3.cell(r, p, q=2)


def test_torus3_page_table(t3):
    assert t3.page(2).dims() == {0: 1, 1: 3, 2: 3, 3: 1}
    assert t3.page(4).dims() == {0: 0, 1: 3, 2: 3, 3: 0}
    assert t3.page(4).dims() == t3.e_infinity().dims()


# -- zig-zag lifting ---------------------------------------------------------------


def test_lift_reach_two_has_zero_tail(t3):
    e1 = t3.model.basis_form("e1")
    zz = t3.lift_zigzag(e1, 2)
    assert zz is not None and zz.form == e1


def test_lift_e1_reach_four(t3):
    e1 = t3.model.basis_form("e1")
    zz = t3.lift_zigzag(e1, 4)
    assert zz is not None and zz.form == e1  # H wedge e1 = 0, tail stays zero


def test_lift_unit_dies_at_d3(t3):
    assert t3.lift_zigzag(t3.model.unit_form(), 4) is None


def test_lift_requires_homogeneous(t3):
    f = t3.model.parse_form("e1 + e1^e2^e3")
    with pytest.raises(PageError):
        t3.lift_zigzag(f, 2)


def test_global_solve_handles_tail_corrections():
    # on the mixed model, lifting x^b to reach 5 needs a nonzero degree-10
    # component; a greedy stepwise solve would get stuck
    ss = make_ss("mixed5", "a + b")
    m = ss.model
    xb = m.parse_form("x^b")
    zz = ss.lift_zigzag(xb, 5)
    assert zz is not None
    assert not zz.form.homogeneous_part(10).is_zero
    assert ss.op.apply(zz.form).part(9) is not None  # reach holds below 13
    for deg in (9, 11):
        assert all(c == 0 for c in dense(ss.op.apply(zz.form).part(deg), m.dim(deg)))


# -- differentials ------------------------------------------------------------------


def test_d1_is_d():
    ss = make_ss("heisenberg", "a^b^c")
    m = ss.model
    for p in range(m.top_degree + 1):
        cell = ss.cell(1, p)
        mat = ss.differential_matrix(1, p)
        for j, rep in enumerate(cell.sparse_reps):
            x = Form(m, {p: rep})
            expected = dense(x.d().part(p + 1), m.dim(p + 1)) if p + 1 <= m.top_degree else ()
            got = dense(ss.cell(1, p + 1).lift(mat.columns()[j]), m.dim(p + 1)) if mat.rows else ()
            assert got == expected


def test_d3_is_cup_on_torus(t3):
    d3 = t3.differential(3, t3.model.unit_form())
    assert t3.representative(d3) == t3.model.parse_form("e1^e2^e3")
    assert not d3.is_zero


def test_d2_zero_everywhere(t3):
    for p in range(4):
        assert t3.differential_matrix(2, p).is_zero()


def test_differential_rejects_dead_class(t3):
    with pytest.raises(PageError):
        t3.differential(5, t3.model.unit_form())


def test_differential_representative_independence():
    ss = make_ss("cascade5", "a")
    m = ss.model
    x = m.basis_form("x")
    a = m.basis_form("a")
    c1 = ss.differential(9, x)
    # a is a boundary direction on page 9: x and x + a name the same class
    assert ss.cell(9, 5).project(x.part(5)) == ss.cell(9, 5).project((x + a).part(5))
    c2 = ss.differential(9, x + a)
    assert c1 == c2


@pytest.mark.parametrize("ss", list(all_sequences()), ids=lambda s: f"{s.model.name}/{s.H.describe()}")
def test_matrix_columns_are_the_differentials_of_the_coset_reps(ss):
    # the verdicts read d_r of sparse_reps[j] off column j of the page matrix
    for r in range(1, ss.max_page + 1):
        for p in range(ss.n + 1):
            d_r = ss.differential_matrix(r, p).columns()
            for j, rep in enumerate(ss.cell(r, p).sparse_reps):
                assert ss.differential(r, Form(ss.model, {p: rep})).coords == d_r[j]


def test_differential_tail_choice_independence():
    # any two valid zig-zag tails for the same leading form give the same
    # d_r page class: perturb the canonical tail by kernel elements of the
    # stacked condition system and re-read the differential
    ss = make_ss("mixed5", "a + b")
    m = ss.model
    from twistss.linalg import kernel as lin_kernel
    from twistss.twist import BlockSpace

    for label, r in (("x", 5), ("x^b", 5)):
        x = m.parse_form(label)
        p = x.degree
        zz = ss.lift_zigzag(x, r)
        base_y = ss.op.apply(zz.form).part(p + r)
        tgt = ss.cell(r, p + r)
        base_cls = tgt.project(base_y)
        tails = [q for q in range(p + 2, ss.n + 1, 2)]
        conds = [q for q in range(p + 1, min(p + r, ss.n + 1), 2)]
        dom, cod = BlockSpace(m, tails), BlockSpace(m, conds)
        for krow in lin_kernel(ss.op.matrix(dom, cod)).sparse:
            alt = zz.form + dom.unpack(krow)
            # still a valid zig-zag of reach r
            dalt = alt.d() + ss.H.form().wedge(alt)
            assert all(
                all(c == 0 for c in dense(dalt.part(q), m.dim(q))) for q in conds
            )
            assert tgt.project(dalt.part(p + r)) == base_cls


def test_differential_rejects_inhomogeneous():
    ss = make_ss("torus3", "e1^e2^e3")
    with pytest.raises(PageError):
        ss.differential(3, ss.model.parse_form("e1 + e1^e2"))
    with pytest.raises(PageError):
        ss.differential(3, ss.model.zero_form())


def test_cascade5_d9_nonzero():
    ss = make_ss("cascade5", "a")
    m = ss.model
    d9 = ss.differential(9, m.basis_form("x"))
    assert not d9.is_zero
    assert ss.representative(d9) == -1 * m.parse_form("a^v")
    assert ss.page(10).dims() == {p: 0 for p in range(m.top_degree + 1)}
    zz = ss.lift_zigzag(m.basis_form("x"), 9)
    assert min(ss.op.apply(zz.form).degrees) == 14  # the component d_9 evaluates
    top = ss.lift_zigzag(m.parse_form("a^x^v"), ss.max_page)
    assert ss.op.apply(top.form).is_zero  # K_{p+r} is zero beyond the top degree


def test_su3_collapse_at_e4():
    ss = make_ss("su3", "x3")
    for p in range(ss.n + 1):
        assert ss.cell(4, p).dim == 0
        assert ss.cell(4, p) == ss.cell(ss.max_page, p)


# -- global structure over all models ------------------------------------------------


@pytest.mark.parametrize("ss", list(all_sequences()), ids=lambda s: f"{s.model.name}/{s.H.describe()}")
def test_d_squared_zero_and_page_homology(ss):
    for r in range(1, ss.max_page + 1):
        for p in range(ss.n + 1):
            out = ss.differential_matrix(r, p)
            if p - r >= 0:
                inc = ss.differential_matrix(r, p - r)
                if inc.rows and inc.cols and out.rows:
                    assert (out @ inc).is_zero()
            # dim E_{r+1} = dim ker(d_r) - dim im(d_r into)
            if r + 1 <= ss.max_page:
                ker_dim = ss.cell(r, p).dim - out.rank()
                im_in = ss.differential_matrix(r, p - r).rank() if p - r >= 0 else 0
                assert ss.cell(r + 1, p).dim == ker_dim - im_in


@pytest.mark.parametrize("ss", list(all_sequences()), ids=lambda s: f"{s.model.name}/{s.H.describe()}")
def test_convergence(ss):
    tc = twisted_cohomology(ss.model, ss.H)
    einf = ss.e_infinity()
    even = sum(c.dim for p, c in einf.cells.items() if p % 2 == 0)
    odd = sum(c.dim for p, c in einf.cells.items() if p % 2 == 1)
    assert (even, odd) == tc.dims


def test_even_vanishing_everywhere():
    for ss in all_sequences():
        checked, failure = check_even_vanishing(ss)
        assert failure is None
        assert checked == len(range(2, ss.max_page + 1, 2))



# -- lifts read off the cycle kernel --------------------------------------------------


def oracle_sequences():
    # every sequence with the tail in every even degree (step 2), and one whose
    # twist is a single component H_{2s+1} also with the diagonal systems'
    # tail in the degrees p + 2is (step 2s)
    named = [(make_ss(name, expr), f"{name}/{expr}") for name, expr in standard_pairs()]
    for seed in range(10):
        m = random_model(seed)
        named.append((SpectralSequence(m, random_twist(m, seed)), f"modelgen{seed}"))
    for ss, name in named:
        yield pytest.param(ss, 2, id=name)
        single = ss.H.single_degree()
        if single and single != 3:
            yield pytest.param(ss, single - 1, id=f"{name}/step{single - 1}")


@pytest.mark.parametrize("ss,step", list(oracle_sequences()))
def test_lift_matches_the_stacked_solve(ss, step):
    # the stored tails are the zero-free-variable solutions resolve_tail finds,
    # for every Z_r basis vector and one combination, on every page and past it.
    # With H = H_{2s+1} alone the zig-zag equations split by degree mod 2s, so
    # the tail solved in the degrees p + 2is only is the same form: the
    # diagonal defining systems read it off the lift
    m = ss.model
    for r in range(1, ss.max_page + 3):
        for p in range(ss.n + 1):
            rows = dense_rows(ss.cycles(min(r, ss.max_page), p))
            if len(rows) > 1:
                rows.append(tuple(a - 3 * b for a, b in zip(rows[0], rows[-1])))
            for row in rows:
                x = Form(m, {p: sparse(row)})
                want = resolve_tail(ss, x, r, range(p + step, ss.n + 1, step))
                assert want is not None
                assert ss.lift_zigzag(x, r).form == want


def test_pages_and_lifts_make_no_particular_solve(monkeypatch):
    import twistss
    import twistss.spectral as spectral
    from twistss.linalg import solve_particular

    calls = []

    def counting(*args):
        calls.append(args)
        return solve_particular(*args)

    assert not hasattr(spectral, "solve_particular")
    # a model load solves for its unit, so the models load first
    pairs = (("cascade5", "a"), ("mixed5", "a + b"), ("torus3", "e1^e2^e3"))
    sequences = [make_ss(name, expr) for name, expr in pairs]
    for module in vars(twistss).values():  # every module binding of it
        if getattr(module, "solve_particular", None) is solve_particular:
            monkeypatch.setattr(module, "solve_particular", counting)
    for ss in sequences:
        ss.precompute()
        for r in range(1, ss.max_page + 1):
            ss.page(r)
            for p in range(ss.n + 1):
                for row in ss.cycles(r, p).sparse:
                    assert ss.lift_zigzag(Form(ss.model, {p: row}), r) is not None
    assert calls == []


def _record_eliminations(monkeypatch, inside):
    """Record, under the `_compute_cycles` arguments on top of `inside` (None
    outside it), every `Echelon` the engine builds, every batch it adds with
    whether it made a pivot, and every kernel it reads."""
    import twistss.spectral as spectral

    built, added, reads = [], [], []

    class Recording(spectral.Echelon):
        __slots__ = ()

        def __init__(self, cols):
            built.append(inside[-1] if inside else None)
            super().__init__(cols)

        def add(self, rows):
            grew = super().add(rows)
            added.append((inside[-1] if inside else None, grew))
            return grew

        def kernel(self, below=None):
            reads.append(inside[-1] if inside else None)
            return super().kernel(below)

    monkeypatch.setattr(spectral, "Echelon", Recording)
    return built, added, reads


def test_one_kernel_per_cycle_key_with_conditions(monkeypatch):
    # one growing elimination per column, and one kernel read per cycle key
    # whose new condition degrees made a pivot
    inside = _record_inside(monkeypatch, "_compute_cycles")
    built, added, reads = _record_eliminations(monkeypatch, inside)
    ss = make_ss("mixed5", "a + b")
    condition_lists = set()
    for r in range(1, ss.max_page + 1):
        for p in range(ss.n + 1):
            ss.cycles(r, p)
            conds = tuple(range(p + 1, min(p + r, ss.n + 1), 2))
            if ss.model.dim(p) and conds:
                condition_lists.add(ss._cycle_key(p, r))
    for r in range(1, ss.max_page + 3):
        for p in range(ss.n + 1):
            for row in ss.cycles(min(r, ss.max_page), p).sparse:
                ss.lift_zigzag(Form(ss.model, {p: row}), r)
    columns = [key[0] for key in built]
    assert len(columns) == len(set(columns)) > 0
    assert set(columns) == {p for p, _ in condition_lists}
    grew = sorted({key for key, made_pivot in added if made_pivot})
    assert sorted(reads) == grew and len(reads) == len(set(reads)) > 0
    assert set(reads) <= condition_lists
    assert None not in reads and not ss._columns


def per_start_boundaries(ss, p, a):
    """B_r at (p, a) from its own lift kernel, one per (p, a): the reference
    for reading every a off one kernel per column."""
    m = ss.model
    dim_p = m.dim(p)
    start = a if (p + 1 - a) % 2 == 0 else a + 1
    dom_degs = list(range(start, ss.n + 1, 2))
    if dim_p == 0 or not dom_degs:
        return SubspaceBasis.zero(dim_p)
    dom = BlockSpace(m, dom_degs)
    conds = list(range(start + 1, p, 2))
    if conds:
        lifts = kernel(ss.op.matrix(dom, BlockSpace(m, conds)))
    else:
        lifts = SubspaceBasis.full(dom.total_dim)
    proj = ss.op.matrix(dom, BlockSpace(m, [p]))
    if not lifts.dim:
        return SubspaceBasis.zero(dim_p)
    return image(proj @ Mat.from_cols(lifts.sparse, lifts.ambient_dim))


@pytest.mark.parametrize("ss,step", [s for s in oracle_sequences() if s.values[1] == 2])
def test_boundaries_match_per_start_kernels(ss, step):
    for r in range(1, ss.max_page + 1):
        for p in range(ss.n + 1):
            b, b0 = ss.boundaries(r, p), per_start_boundaries(ss, p, max(0, p - r + 1))
            assert dense_rows(b) == dense_rows(b0) and b.pivots == b0.pivots


def odd_model(k):
    """The exterior algebra on g1..gk, deg g_i = 2i - 1, with d = 0: top degree
    k^2 and k^2 + 2 pages."""
    gens = [{"name": f"g{i}", "degree": 2 * i - 1} for i in range(1, k + 1)]
    return model_from_dict({"name": f"odd{k}", "top_degree": k * k, "generators": gens})


def boundary_oracle_sequences():
    for name, expr in standard_pairs():
        yield pytest.param(make_ss(name, expr), id=f"{name}/{expr}")
    for seed in range(20):
        m = random_model(seed)
        yield pytest.param(SpectralSequence(m, random_twist(m, seed)), id=f"modelgen{seed}")
    m = odd_model(7)
    yield pytest.param(SpectralSequence(m, parse_twist(m, "g2 + g3")), id="odd7/g2 + g3")


@pytest.mark.parametrize("ss", list(boundary_oracle_sequences()))
def test_boundaries_match_one_kernel_per_column(ss):
    # B_r spans D of the stored lifts of Z, start by start; the oracle reads
    # every start off one boundary kernel of the column
    oracle = {}
    for r in range(1, ss.max_page + 1):
        for p in range(ss.n + 1):
            start = ss._boundary_start(p, r)
            if (p, start) not in oracle:
                oracle[p, start] = boundaries_by_kernel(ss, p, start)
            b, b0 = ss.boundaries(r, p), oracle[p, start]
            assert dense_rows(b) == dense_rows(b0) and b.pivots == b0.pivots, (r, p)


def _record_inside(monkeypatch, method):
    """Patch SpectralSequence.method to keep its arguments on a stack while it
    runs; return the stack."""
    stack = []
    run = getattr(SpectralSequence, method)

    def recording(self, *args):
        stack.append(args)
        try:
            return run(self, *args)
        finally:
            stack.pop()

    monkeypatch.setattr(SpectralSequence, method, recording)
    return stack


def test_boundaries_eliminate_only_in_the_cycle_kernels(monkeypatch):
    # every kernel behind B_r is read off a column's growing Z elimination,
    # built, fed and read inside _compute_cycles, each cycle key at most once;
    # B_r itself only spans D of the stored lifts
    inside = _record_inside(monkeypatch, "_compute_cycles")
    built, added, reads = _record_eliminations(monkeypatch, inside)
    for name, expr in (("cascade7", "a"), ("mixed5", "a + b")):
        for found in (built, added, reads):
            found.clear()
        ss = make_ss(name, expr)
        for r in range(1, ss.max_page + 1):
            for p in range(ss.n + 1):
                ss.boundaries(r, p)
        assert None not in built and all(key is not None for key, _ in added)
        assert None not in reads, "a kernel outside _compute_cycles"
        assert len(reads) == len(set(reads)) > 0


def test_differential_is_constant_on_boundary_cosets():
    # d_r is read off the coset representatives, so rep + b with b in B_r
    # must give the same class
    checked = 0
    for name, expr in standard_pairs():
        ss = make_ss(name, expr)
        for r in range(1, ss.max_page + 1):
            for p in range(ss.n + 1):
                reps, bounds = dense_reps(ss.cell(r, p)), dense_rows(ss.boundaries(r, p))
                if not (reps and bounds):
                    continue
                for i, rep in enumerate(reps):
                    b = bounds[i % len(bounds)]
                    shifted = Form(ss.model, {p: sparse(tuple(x + y for x, y in zip(rep, b)))})
                    assert ss.differential(r, shifted) == ss.differential(r, Form(ss.model, {p: sparse(rep)}))
                    checked += 1
    assert checked > 50



def cell_keys(ss):
    """The (p, where Z's conditions end, where B's lifts start) of every cell:
    what a cell depends on, from the definitions of Z_r and B_r."""
    keys = set()
    for r in range(1, ss.max_page + 1):
        for p in range(ss.n + 1):
            conds = tuple(range(p + 1, min(p + r, ss.n + 1), 2))
            a = max(0, p - r + 1)
            keys.add((p, conds, a + (p + 1 - a) % 2))
    return keys


def test_one_boundary_span_per_start(monkeypatch):
    # B_r depends on r only through where its lifts start: a or a + 1 by parity
    inside, keys = _record_inside(monkeypatch, "_compute_boundaries"), []
    span = SubspaceBasis.span

    def counting(*args):
        assert inside, "a span outside _compute_boundaries"
        keys.append(inside[-1])
        return span(*args)

    monkeypatch.setattr(SubspaceBasis, "span", staticmethod(counting))
    for name, expr in (("cascade7", "a"), ("mixed5", "a + b")):
        ss = make_ss(name, expr)
        keys.clear()
        for r in range(1, ss.max_page + 1):
            for p in range(ss.n + 1):
                ss.boundaries(r, p)
        starts = {(p, start) for p, _, start in cell_keys(ss) if ss.model.dim(p) and start <= ss.n}
        assert len(keys) == len(set(keys)) > 0 and set(keys) <= starts


def test_one_quotient_space_per_distinct_cell(monkeypatch):
    import twistss.spectral as spectral

    built = []

    class Counting(spectral.QuotientSpace):
        __slots__ = ()

        def __init__(self, ambient, sub):
            built.append((ambient, sub))
            super().__init__(ambient, sub)

    monkeypatch.setattr(spectral, "QuotientSpace", Counting)
    for name, expr in (("cascade5", "a"), ("mixed5", "a + b"), ("torus3", "e1^e2^e3")):
        built.clear()
        ss = make_ss(name, expr)
        ss.precompute()
        for r in range(1, ss.max_page + 1):
            ss.page(r)
            for p in range(-1, ss.n + 2):
                assert ss.cell(r, p, q=1).dim == 0
                assert ss.cell(r, p, q=2) is ss.cell(r, p)
        # one zero cell per dimension for odd q and for columns out of range
        zero_dims = {ss.model.dim(p) for p in range(ss.n + 1)} | {0}
        assert len(built) == len(cell_keys(ss)) + len(zero_dims)


def test_differential_matrix_makes_no_lift(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("differential_matrix lifted a form")

    sequences = [make_ss(name, expr) for name, expr in standard_pairs()]
    monkeypatch.setattr(SpectralSequence, "lift_zigzag", refuse)
    for ss in sequences:
        for r in range(1, ss.max_page + 1):
            for p in range(ss.n + 1):
                ss.differential_matrix(r, p)


def d_oracle_sequences():
    for name, expr in standard_pairs():
        yield pytest.param(make_ss(name, expr), id=f"{name}/{expr}")
    for seed in range(20):
        m = random_model(seed)
        yield pytest.param(SpectralSequence(m, random_twist(m, seed)), id=f"modelgen{seed}")


@pytest.mark.parametrize("ss", list(d_oracle_sequences()))
def test_differential_matrix_matches_lifted_representatives(ss):
    for r in range(1, ss.max_page + 1):
        for p in range(ss.n + 1):
            assert ss.differential_matrix(r, p) == lifted_differential_matrix(ss, r, p)
