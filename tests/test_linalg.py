import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistss.linalg import (
    Mat,
    QuotientSpace,
    SubspaceBasis,
    dense,
    image,
    kernel,
    rref,
    solve_particular,
    span_in_quotient,
    sparse,
)

F = Fraction


# -- dense views for the oracles, through the `sparse`/`dense` bridge ----------


def exact(entries):
    """A dense vector of Fractions."""
    return tuple(F(x) for x in entries)


def dense_mat(rows, cols=None):
    """The Mat of dense rows of numbers."""
    rows = [tuple(r) for r in rows]
    return Mat([sparse(r) for r in rows], cols=len(rows[0]) if cols is None else cols)


def dense_rows(m):
    """The dense rows of a Mat."""
    return tuple(dense(r, m.cols) for r in m.sparse)


def basis_rows(s):
    """The dense basis rows of a SubspaceBasis."""
    return tuple(dense(r, s.ambient_dim) for r in s.sparse)


def coset_reps(q):
    """The dense coset representatives of a QuotientSpace."""
    return tuple(dense(r, q.ambient_dim) for r in q.sparse_reps)


def identity(n):
    return dense_mat([[F(int(i == j)) for j in range(n)] for i in range(n)], cols=n)


def small_rationals():
    return st.builds(F, st.integers(-4, 4), st.integers(1, 3))


def small_matrices(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_rationals(), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(lambda rows: dense_mat(rows, cols=c))
        )
    )


def mostly_zero_rationals():
    """About seven in ten entries zero, like the engine's wedge and D blocks."""
    return st.tuples(st.integers(0, 9), small_rationals()).map(
        lambda t: F(0) if t[0] < 7 else t[1]
    )


def sparse_matrices(rows=st.integers(0, 7), cols=st.integers(0, 7)):
    return st.tuples(rows, cols).flatmap(
        lambda shape: st.lists(
            st.lists(mostly_zero_rationals(), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        ).map(lambda data: dense_mat(data, cols=shape[1]))
    )


# Shapes up to 40 x 40, with 0 x n and n x 0 drawn on purpose, at the
# densities of the engine's matrices (0.1-1% on tori), of analyze-deep's
# (about 10%) and full.  Entries come from a drawn seed, so a 40 x 40 draw
# costs one integer.
DENSITIES = (0.0, 0.01, 0.1, 1.0)
SIZES = st.integers(0, 40)
SHAPES = st.one_of(
    st.tuples(st.just(0), SIZES), st.tuples(SIZES, st.just(0)), st.tuples(SIZES, SIZES)
)


def _rational(rng):
    return F(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 3))


def _dense_rows(rng, rows, cols, density):
    return [[_rational(rng) if rng.random() < density else F(0) for _ in range(cols)] for _ in range(rows)]


@st.composite
def layout_matrices(draw, shapes=SHAPES):
    rows, cols = draw(shapes)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return dense_mat(_dense_rows(rng, rows, cols, draw(st.sampled_from(DENSITIES))), cols=cols)


@st.composite
def layout_vectors(draw, n):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return tuple(_dense_rows(rng, 1, n, draw(st.sampled_from(DENSITIES)))[0])


# -- the dense kernels, kept as the oracle for the sparse ones ----------------


def dense_rref(m):
    a = [list(r) for r in dense_rows(m)]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pv = a[r][c]
        if pv != 1:
            a[r] = [x / pv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return dense_mat(a, cols=ncols), tuple(pivots)


def dense_span(n, vectors):
    """(basis rows, pivots) of the span of dense vectors, by the dense rref."""
    vectors = list(vectors)
    if not vectors:
        return (), ()
    r, piv = dense_rref(dense_mat(vectors, cols=n))
    return dense_rows(r)[: len(piv)], piv


def dense_apply(m, v):
    return tuple(sum((a * b for a, b in zip(r, v)), F(0)) for r in dense_rows(m))


def dense_matmul(a, b):
    cols = list(zip(*dense_rows(b))) if b.rows else [()] * b.cols
    return dense_mat([[sum((x * y for x, y in zip(r, c)), F(0)) for c in cols] for r in dense_rows(a)], cols=b.cols)


def dense_solve_particular(m, b):
    r, pivots = dense_rref(dense_mat([row + (x,) for row, x in zip(dense_rows(m), b)], cols=m.cols + 1))
    if pivots and pivots[-1] == m.cols:
        return None
    x = [F(0)] * m.cols
    rows = dense_rows(r)
    for i, p in enumerate(pivots):
        x[p] = rows[i][m.cols]
    return tuple(x)


def dense_reduce(rows, pivots, v):
    v = list(v)
    for row, p in zip(rows, pivots):
        c = v[p]
        if c:
            v = [x - c * y for x, y in zip(v, row)]
    return tuple(v)


def dense_project(q, v):
    cols = list(coset_reps(q)) + list(basis_rows(q.sub))
    if not cols:
        if any(v):
            raise ValueError("vector not in the subspace being quotiented")
        return ()
    m = dense_mat([list(r) for r in zip(*cols)], cols=len(cols)) if q.ambient_dim else dense_mat([], cols=len(cols))
    sol = dense_solve_particular(m, v)
    if sol is None:
        raise ValueError("vector not in the subspace being quotiented")
    return sol[: len(coset_reps(q))]


def dense_lift(q, coords):
    out = [F(0)] * q.ambient_dim
    for c, rep in zip(coords, coset_reps(q)):
        out = [x + c * y for x, y in zip(out, rep)]
    return tuple(out)


def two_pass_kernel(m):
    """Eliminate m, build the null vectors, then canonicalize them by a second rref."""
    r, pivots = dense_rref(m)
    free = [c for c in range(m.cols) if c not in set(pivots)]
    rows = dense_rows(r)
    basis = []
    for f in free:
        v = [F(0)] * m.cols
        v[f] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        basis.append(tuple(v))
    return dense_span(m.cols, basis)


def two_pass_preimage(m, w):
    """The domain projection of the kernel of [m | -W], canonicalized by a last rref."""
    if w.dim == 0:
        return two_pass_kernel(m)
    minus_w = [tuple(-x for x in r) for r in basis_rows(w)]
    aug = dense_mat([row + tuple(c[i] for c in minus_w) for i, row in enumerate(dense_rows(m))], cols=m.cols + w.dim)
    rows, _ = two_pass_kernel(aug)
    return dense_span(m.cols, [r[: m.cols] for r in rows])


def reduced_kernel(m, w):
    """{v : m v in w} as the Z_r oracle takes it: one kernel of m's columns
    reduced by w (`reduce` is linear and vanishes exactly on w)."""
    return kernel(Mat.from_cols([w.reduce(c) for c in m.columns()], m.rows))


def all_fractions(rows):
    return all(type(x) is F for row in rows for x in row)


def is_layout(v, n):
    """Sorted strictly by index, in range, with exact nonzero values."""
    ks = [j for j, _ in v]
    return ks == sorted(set(ks)) and all(0 <= j < n for j in ks) and all(type(x) is F and x for _, x in v)


def test_vec_keeps_fractions_and_coerces_the_rest():
    x, y = F(1, 3), F(-2)
    v = tuple(c for _, c in sparse([x, y, 4, "1/2"]))
    assert v[0] is x and v[1] is y
    assert v[2:] == (F(4), F(1, 2)) and all_fractions([v])


def test_sparse_and_dense_views_invert_each_other():
    v = sparse([0, F(1, 2), 0, -3, "0", 0])
    assert v == ((1, F(1, 2)), (3, F(-3)))
    assert dense(v, 6) == (0, F(1, 2), 0, -3, 0, 0) and all_fractions([dense(v, 6)])
    assert sparse([0, 0]) == () and dense((), 0) == ()


@given(sparse_matrices())
@settings(max_examples=150, deadline=None)
def test_rref_matches_dense_oracle(m):
    r, piv = rref(m)
    r0, piv0 = dense_rref(m)
    assert r == r0 and piv == piv0
    assert all_fractions(dense_rows(r))


@given(sparse_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_apply_matches_dense_oracle(m, data):
    v = exact(data.draw(st.lists(mostly_zero_rationals(), min_size=m.cols, max_size=m.cols)))
    w = m.apply(sparse(v))
    assert dense(w, m.rows) == dense_apply(m, v) and is_layout(w, m.rows)


@given(st.integers(0, 6).flatmap(lambda k: st.tuples(
    sparse_matrices(cols=st.just(k)), sparse_matrices(rows=st.just(k)))))
@settings(max_examples=150, deadline=None)
def test_matmul_matches_dense_oracle(pair):
    a, b = pair
    ab = a @ b
    assert ab == dense_matmul(a, b) and (ab.rows, ab.cols) == (a.rows, b.cols)
    assert all_fractions(dense_rows(ab))


@given(sparse_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_solve_particular_matches_dense_oracle(m, data):
    b = exact(data.draw(st.lists(mostly_zero_rationals(), min_size=m.rows, max_size=m.rows)))
    sol, want = solve_particular(m, sparse(b)), dense_solve_particular(m, b)
    assert (sol is None) == (want is None)
    if sol is not None:
        assert dense(sol, m.cols) == want and is_layout(sol, m.cols)


@given(sparse_matrices(cols=st.integers(1, 7)), st.data())
@settings(max_examples=150, deadline=None)
def test_project_matches_dense_oracle(m, data):
    rows = [sparse(r) for r in dense_rows(m)]
    z = SubspaceBasis.span(m.cols, rows)
    keep = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    q = QuotientSpace(z, SubspaceBasis.span(m.cols, [r for r, k in zip(rows, keep) if k]))
    coeffs = data.draw(st.lists(mostly_zero_rationals(), min_size=z.dim, max_size=z.dim))
    member = Mat.from_cols(z.sparse, z.ambient_dim).apply(sparse(coeffs))
    assert dense(q.project(member), q.dim) == dense_project(q, dense(member, m.cols))
    other = exact(data.draw(st.lists(mostly_zero_rationals(), min_size=m.cols, max_size=m.cols)))
    if z.contains(sparse(other)):
        assert dense(q.project(sparse(other)), q.dim) == dense_project(q, other)
    else:
        for project in (lambda v: q.project(sparse(v)), lambda v: dense_project(q, v)):
            with pytest.raises(ValueError):
                project(other)


# -- the sparse layout against the dense oracles, up to 40 x 40 -----------------


@given(layout_matrices())
@settings(max_examples=60, deadline=None)
def test_layout_rref_kernel_and_image_match_the_dense_oracles(m):
    r, piv = rref(m)
    r0, piv0 = dense_rref(m)
    assert dense_rows(r) == dense_rows(r0) and piv == piv0 and r == r0
    assert all(is_layout(row, m.cols) for row in r.sparse)
    k, (k_rows, k_piv) = kernel(m), two_pass_kernel(m)
    assert basis_rows(k) == k_rows and k.pivots == k_piv
    assert all(is_layout(row, m.cols) for row in k.sparse)
    columns = list(zip(*dense_rows(m))) if m.rows else [()] * m.cols
    im, (im_rows, im_piv) = image(m), dense_span(m.rows, columns)
    assert basis_rows(im) == im_rows and im.pivots == im_piv and im.ambient_dim == m.rows


@given(layout_matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_layout_apply_matmul_and_solve_match_the_dense_oracles(m, data):
    v = data.draw(layout_vectors(m.cols))
    w = m.apply(sparse(v))
    assert dense(w, m.rows) == dense_apply(m, v) and is_layout(w, m.rows)
    other = data.draw(layout_matrices(st.tuples(st.just(m.cols), st.integers(0, 40))))
    ab = m @ other
    assert dense_rows(ab) == dense_rows(dense_matmul(m, other)) and (ab.rows, ab.cols) == (m.rows, other.cols)
    assert all(is_layout(row, other.cols) for row in ab.sparse)
    b = data.draw(st.one_of(st.just(dense_apply(m, v)), layout_vectors(m.rows)))
    sol, want = solve_particular(m, sparse(b)), dense_solve_particular(m, b)
    assert (sol is None) == (want is None)
    if sol is not None:
        assert dense(sol, m.cols) == want and is_layout(sol, m.cols)


@given(layout_matrices(st.tuples(st.integers(1, 40), st.integers(0, 40))), st.data())
@settings(max_examples=60, deadline=None)
def test_layout_reduced_kernel_matches_the_two_pass_preimage(m, data):
    gens = [data.draw(layout_vectors(m.rows)) for _ in range(data.draw(st.integers(0, 4)))]
    w = SubspaceBasis.span(m.rows, [sparse(g) for g in gens])
    pre, (rows, piv) = reduced_kernel(m, w), two_pass_preimage(m, w)
    assert basis_rows(pre) == rows and pre.pivots == piv
    assert all(is_layout(row, m.cols) for row in pre.sparse)


@given(layout_matrices(st.tuples(st.integers(0, 40), st.integers(1, 40))), st.data())
@settings(max_examples=60, deadline=None)
def test_layout_reduce_coords_project_and_lift_match_the_dense_oracles(m, data):
    n = m.cols
    rows = [sparse(r) for r in dense_rows(m)]
    z = SubspaceBasis.span(n, rows)
    keep = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    b = SubspaceBasis.span(n, [r for r, k in zip(rows, keep) if k])
    q = QuotientSpace(z, b)
    for v in (data.draw(layout_vectors(n)), dense(Mat.from_cols(z.sparse, n).apply(sparse(data.draw(layout_vectors(z.dim)))), n)):
        res = z.reduce(sparse(v))
        want = dense_reduce(basis_rows(z), z.pivots, v)
        assert dense(res, n) == want and is_layout(res, n)
        c = z.coords(sparse(v))
        if any(want):
            assert c is None and not z.contains(sparse(v))
        else:
            assert dense(c, z.dim) == tuple(v[p] for p in z.pivots) and z.contains(sparse(v))
            assert dense(q.project(sparse(v)), q.dim) == dense_project(q, v)
    coords = data.draw(layout_vectors(q.dim))
    lifted = q.lift(sparse(coords))
    assert dense(lifted, n) == dense_lift(q, coords) and is_layout(lifted, n)
    assert q.project(lifted) == sparse(coords)


# -- rref -------------------------------------------------------------------


def test_rref_identity():
    r, piv = rref(identity(3))
    assert r == identity(3)
    assert piv == (0, 1, 2)


def test_rref_rank_one():
    r, piv = rref(dense_mat([[2, 4], [1, 2]]))
    assert r == dense_mat([[1, 2], [0, 0]])
    assert piv == (0,)


def test_rref_zero():
    r, piv = rref(Mat.zeros(2, 3))
    assert r == Mat.zeros(2, 3)
    assert piv == ()


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(m):
    r, piv = rref(m)
    r2, piv2 = rref(r)
    assert r2 == r and piv2 == piv


# -- degenerate shapes --------------------------------------------------------


def test_empty_matrices():
    zero_rows = Mat.zeros(0, 3)
    assert kernel(zero_rows) == SubspaceBasis.full(3)
    assert image(zero_rows).ambient_dim == 0
    assert solve_particular(zero_rows, ()) == () and dense((), 3) == (0, 0, 0)

    zero_cols = Mat.zeros(3, 0)
    assert kernel(zero_cols).ambient_dim == 0
    assert image(zero_cols) == SubspaceBasis.zero(3)
    assert solve_particular(zero_cols, ()) == ()
    assert solve_particular(zero_cols, sparse([1, 0, 0])) is None


def test_empty_matrix_needs_column_count():
    with pytest.raises(TypeError):
        Mat([])
    assert Mat([], cols=4).cols == 4


@pytest.mark.parametrize(
    "row,message",
    [
        (((2, 1), (0, 1)), "row 1 has indices that do not strictly increase"),
        (((1, 1), (1, 2)), "row 1 has indices that do not strictly increase"),
        (((3, 1),), "row 1 has an index outside range\\(3\\)"),
        (((-1, 1),), "row 1 has an index outside range\\(3\\)"),
        ((("0", 1),), "row 1 has a non-integer index '0'"),
        (((0, float("inf")),), "^row 1 has a value inf that is not a rational number$"),
        (((0, None),), "^row 1 has a value None that is not a rational number$"),
        (((0, 1, 2),), "^row 1 has an entry \\(0, 1, 2\\) that is not an \\(index, value\\) pair$"),
        (5, "^row 1 is not an iterable of \\(index, value\\) pairs$"),
    ],
)
def test_constructor_rejects_unsorted_repeated_and_outside_indices(row, message):
    with pytest.raises(ValueError, match=message):
        Mat([((0, 1),), row], cols=3)


def test_constructor_coerces_values_and_drops_zeros():
    m = Mat([((0, 2), (1, 0), (2, "1/2")), ((1, F(0)),)], cols=3)
    assert m.sparse == (((0, F(2)), (2, F(1, 2))), ())
    assert all(type(x) is F for row in m.sparse for _, x in row)
    assert (m.rows, m.cols) == (2, 3) and m == dense_mat([[2, 0, F(1, 2)], [0, 0, 0]])


def test_from_cols_transposes_exactly():
    m = Mat.from_cols([sparse((1, 2, 3)), sparse((Fraction(1, 2), 0, -1))], 3)
    assert (m.rows, m.cols) == (3, 2)
    assert dense_rows(m) == ((1, Fraction(1, 2)), (2, 0), (3, -1))
    assert m.sparse == (((0, 1), (1, Fraction(1, 2))), ((0, 2),), ((0, 3), (1, -1)))
    assert all_fractions(dense_rows(m))
    assert m == dense_mat([[1, Fraction(1, 2)], [2, 0], [3, -1]])
    assert m.columns() == (sparse((1, 2, 3)), sparse((Fraction(1, 2), 0, -1)))
    assert Mat.from_cols([], 2) == Mat.zeros(2, 0)


@pytest.mark.parametrize(
    "columns,rows",
    [
        ([sparse((1, 2)), sparse((3, 4, 5))], 2),  # a column longer than the row count
        ([sparse((1, 2, 3)), sparse((4, 5))], 2),  # a row count shorter than a column
        ([sparse((1, 2))], 0),  # a row count the columns disagree with
    ],
    ids=["longer", "shorter", "row-count"],
)
def test_from_cols_rejects_bad_shapes(columns, rows):
    with pytest.raises(ValueError):
        Mat.from_cols(columns, rows)


# -- kernel / image -----------------------------------------------------------


def test_kernel_identity_trivial():
    assert kernel(identity(4)).dim == 0


def test_kernel_sum_functional():
    k = kernel(dense_mat([[1, 1]]))
    assert basis_rows(k) == (exact([1, -1]),)
    assert k.sparse == (((0, F(1)), (1, F(-1))),)


def test_image_zero():
    assert image(Mat.zeros(3, 2)).dim == 0


@given(small_matrices())
@settings(max_examples=80, deadline=None)
def test_rank_nullity(m):
    assert kernel(m).dim + image(m).dim == m.cols


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_map_to_zero(m):
    for row in kernel(m).sparse:
        assert m.apply(row) == ()


KERNEL_EDGE_CASES = [
    dense_mat([], cols=0),
    dense_mat([], cols=3),
    Mat.zeros(3, 0),
    Mat.zeros(2, 4),
    identity(4),
    dense_mat([[1, 2, 0, 3], [0, 1, 1, 1], [2, 0, 1, 0]]),  # full row rank
    dense_mat([[1, 2], [3, 4], [5, 6]]),  # full column rank
]


@given(st.one_of(sparse_matrices(), small_matrices(), st.sampled_from(KERNEL_EDGE_CASES)))
@settings(max_examples=300, deadline=None)
def test_kernel_matches_two_pass_oracle(m):
    k, (rows, pivots) = kernel(m), two_pass_kernel(m)
    assert basis_rows(k) == rows and k.pivots == pivots
    assert all_fractions(basis_rows(k))


@given(st.one_of(sparse_matrices(rows=st.integers(1, 6)), small_matrices()), st.data())
@settings(max_examples=300, deadline=None)
def test_reduced_kernel_matches_two_pass_preimage(m, data):
    gens = data.draw(st.lists(
        st.lists(mostly_zero_rationals(), min_size=m.rows, max_size=m.rows), max_size=4))
    w = SubspaceBasis.span(m.rows, [sparse(g) for g in gens])
    pre, (rows, pivots) = reduced_kernel(m, w), two_pass_preimage(m, w)
    assert basis_rows(pre) == rows and pre.pivots == pivots


@pytest.fixture
def eliminations(monkeypatch):
    """The column count of every `Echelon` built from now on: every rref,
    kernel and growing elimination goes through one."""
    from twistss.linalg import Echelon

    calls = []

    def counting(self, cols):
        calls.append(cols)
        start(self, cols)

    start = Echelon.__init__
    monkeypatch.setattr(Echelon, "__init__", counting)
    return calls


def test_kernel_eliminates_once(eliminations):
    assert kernel(dense_mat([[1, 2, 0, 3], [2, 4, 1, 1]])).dim == 2
    assert eliminations == [4]


def test_torus6_analysis_eliminates_96_times(eliminations):
    # one elimination per subspace: every kernel, image, span and rank of one
    # analysis of torus6 twisted by e1^e2^e3, and one growing elimination per
    # column for its cycle kernels; B_r spans D of the stored zig-zag lifts,
    # so the pages run no kernel besides the column eliminations, the
    # twisted cohomology and the Z_r oracle share the sequence's K_0/K_7,
    # and the indeterminacy table reads dims off B_r without projecting it
    from twistss.cdga import model_from_dict
    from twistss.report import run_analysis
    from twistss.twist import parse_twist

    gens = [{"name": f"e{i}", "degree": 1} for i in range(1, 7)]
    model = model_from_dict({"name": "torus6", "top_degree": 6, "generators": gens})
    H = parse_twist(model, "e1^e2^e3")
    assert eliminations == []
    assert run_analysis(model, H).all_pass
    assert len(eliminations) == 96


# -- canonicality --------------------------------------------------------------


@given(small_matrices(), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_canonical_basis_independent_of_generators(m, rng):
    rows = list(dense_rows(m))
    shuffled = list(rows)
    rng.shuffle(shuffled)
    # also mix in a random row combination
    if len(shuffled) >= 2:
        combo = tuple(a + 2 * b for a, b in zip(shuffled[0], shuffled[1]))
        shuffled.append(combo)
    s1 = SubspaceBasis.span(m.cols, map(sparse, rows))
    s2 = SubspaceBasis.span(m.cols, map(sparse, shuffled))
    assert s1 == s2


# -- solve_particular -----------------------------------------------------------


def test_solve_identity():
    b = sparse([3, -1, F(1, 2)])
    assert solve_particular(identity(3), b) == b


def test_solve_frees_zeroed():
    assert solve_particular(dense_mat([[1, 1]]), sparse([3])) == sparse([3, 0])


def test_solve_inconsistent():
    assert solve_particular(dense_mat([[1], [0]]), sparse([0, 1])) is None


@given(small_matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_reproduces_target(m, data):
    x = sparse(data.draw(st.lists(small_rationals(), min_size=m.cols, max_size=m.cols)))
    b = m.apply(x)
    sol = solve_particular(m, b)
    assert sol is not None
    assert m.apply(sol) == b


# -- quotient spaces ---------------------------------------------------------------


def test_quotient_reps_and_projection():
    z = SubspaceBasis.full(2)
    b = SubspaceBasis.span(2, [sparse([1, 1])])
    q = QuotientSpace(z, b)
    assert q.dim == 1
    # project respects the denominator: (1,1) is the zero class
    assert q.project(sparse([1, 1])) == ()
    v = sparse([2, 5])
    c = q.project(v)
    assert q.project(q.lift(c)) == c
    # v - lift(c) must be in the denominator
    residual = tuple(a - b_ for a, b_ in zip(dense(v, 2), dense(q.lift(c), 2)))
    assert b.contains(sparse(residual))


def test_coords_in_echelon_basis():
    s = SubspaceBasis.span(3, [sparse([1, 0, 2]), sparse([0, 1, 1])])
    v = sparse([3, -2, 4])
    c = s.coords(v)
    assert c == ((0, F(3)), (1, F(-2)))
    assert s.coords(sparse([0, 0, 1])) is None


def test_quotient_requires_containment():
    with pytest.raises(ValueError):
        QuotientSpace(
            SubspaceBasis.span(2, [sparse([1, 0])]), SubspaceBasis.span(2, [sparse([0, 1])])
        )


def test_span_in_quotient():
    q = QuotientSpace(SubspaceBasis.full(3), SubspaceBasis.span(3, [sparse([0, 0, 1])]))
    s = span_in_quotient(q, [sparse([1, 0, 0]), sparse([2, 0, 5])])
    assert s.dim == 1


@given(small_matrices())
@settings(max_examples=40, deadline=None)
def test_quotient_project_lift_roundtrip(m):
    z = SubspaceBasis.full(m.cols)
    b = kernel(m)
    q = QuotientSpace(z, b)
    for rep in q.sparse_reps:
        c = q.project(rep)
        assert q.lift(c) == rep
    for row in b.sparse:
        assert q.is_zero_class(row)
        assert q.project(row) == ()
