from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistss.linalg import (
    Mat,
    QuotientSpace,
    SubspaceBasis,
    image,
    kernel,
    preimage,
    rref,
    solve_particular,
    span_in_quotient,
    vec,
)

F = Fraction


def small_rationals():
    return st.builds(F, st.integers(-4, 4), st.integers(1, 3))


def small_matrices(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_rationals(), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(lambda rows: Mat(rows, cols=c))
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
        ).map(lambda data: Mat(data, cols=shape[1]))
    )


# -- the dense kernels, kept as the oracle for the zero-skipping ones --------


def dense_rref(m):
    a = [list(r) for r in m.data]
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
    return Mat(a, cols=ncols), tuple(pivots)


def dense_apply(m, v):
    return tuple(sum((a * b for a, b in zip(r, v)), F(0)) for r in m.data)


def dense_matmul(a, b):
    cols = [b.col(j) for j in range(b.cols)]
    return Mat([[sum((x * y for x, y in zip(r, c)), F(0)) for c in cols] for r in a.data], cols=b.cols)


def dense_solve_particular(m, b):
    r, pivots = dense_rref(Mat([row + (x,) for row, x in zip(m.data, b)], cols=m.cols + 1))
    if pivots and pivots[-1] == m.cols:
        return None
    x = [F(0)] * m.cols
    for i, p in enumerate(pivots):
        x[p] = r.data[i][m.cols]
    return tuple(x)


def dense_project(q, v):
    cols = list(q.coset_reps) + list(q.sub.rows)
    if not cols:
        if any(v):
            raise ValueError("vector not in the subspace being quotiented")
        return ()
    sol = dense_solve_particular(Mat.from_cols(cols, rows=q.ambient_dim), v)
    if sol is None:
        raise ValueError("vector not in the subspace being quotiented")
    return sol[: len(q.coset_reps)]


def two_pass_kernel(m):
    """Eliminate m, build the null vectors, then canonicalize them by a second rref."""
    r, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in set(pivots)]
    basis = []
    for f in free:
        v = [F(0)] * m.cols
        v[f] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -r.data[i][f]
        basis.append(tuple(v))
    return SubspaceBasis.span(m.cols, basis)


def two_pass_preimage(m, w):
    """The domain projection of the kernel of [m | -W], canonicalized by a last rref."""
    if w.dim == 0:
        return two_pass_kernel(m)
    minus_w = Mat.from_cols([tuple(-x for x in r) for r in w.rows], rows=w.ambient_dim)
    k = two_pass_kernel(m.augment(minus_w))
    return SubspaceBasis.span(m.cols, [r[: m.cols] for r in k.rows])


def all_fractions(rows):
    return all(type(x) is F for row in rows for x in row)


def test_vec_keeps_fractions_and_coerces_the_rest():
    x, y = F(1, 3), F(-2)
    v = vec([x, y, 4, "1/2"])
    assert v[0] is x and v[1] is y
    assert v[2:] == (F(4), F(1, 2)) and all_fractions([v])


@given(sparse_matrices())
@settings(max_examples=150, deadline=None)
def test_rref_matches_dense_oracle(m):
    r, piv = rref(m)
    r0, piv0 = dense_rref(m)
    assert r == r0 and piv == piv0
    assert all_fractions(r.data)


@given(sparse_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_apply_matches_dense_oracle(m, data):
    v = data.draw(st.lists(mostly_zero_rationals(), min_size=m.cols, max_size=m.cols))
    w = m.apply(v)
    assert w == dense_apply(m, v) and all_fractions([w])


@given(st.integers(0, 6).flatmap(lambda k: st.tuples(
    sparse_matrices(cols=st.just(k)), sparse_matrices(rows=st.just(k)))))
@settings(max_examples=150, deadline=None)
def test_matmul_matches_dense_oracle(pair):
    a, b = pair
    ab = a @ b
    assert ab == dense_matmul(a, b) and (ab.rows, ab.cols) == (a.rows, b.cols)
    assert all_fractions(ab.data)


@given(sparse_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_solve_particular_matches_dense_oracle(m, data):
    b = vec(data.draw(st.lists(mostly_zero_rationals(), min_size=m.rows, max_size=m.rows)))
    assert solve_particular(m, b) == dense_solve_particular(m, b)


@given(sparse_matrices(cols=st.integers(1, 7)), st.data())
@settings(max_examples=150, deadline=None)
def test_project_matches_dense_oracle(m, data):
    rows = [m.row(i) for i in range(m.rows)]
    z = SubspaceBasis.span(m.cols, rows)
    keep = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    q = QuotientSpace(z, SubspaceBasis.span(m.cols, [r for r, k in zip(rows, keep) if k]))
    coeffs = data.draw(st.lists(mostly_zero_rationals(), min_size=z.dim, max_size=z.dim))
    member = q.lift(()) if not z.dim else Mat.from_cols(list(z.rows)).apply(coeffs)
    assert q.project(member) == dense_project(q, member)
    other = vec(data.draw(st.lists(mostly_zero_rationals(), min_size=m.cols, max_size=m.cols)))
    if z.contains(other):
        assert q.project(other) == dense_project(q, other)
    else:
        for project in (q.project, lambda v: dense_project(q, v)):
            with pytest.raises(ValueError):
                project(other)


# -- rref -------------------------------------------------------------------


def test_rref_identity():
    r, piv = rref(Mat.identity(3))
    assert r == Mat.identity(3)
    assert piv == (0, 1, 2)


def test_rref_rank_one():
    r, piv = rref(Mat([[2, 4], [1, 2]]))
    assert r == Mat([[1, 2], [0, 0]])
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
    assert solve_particular(zero_rows, ()) == (0, 0, 0)

    zero_cols = Mat.zeros(3, 0)
    assert kernel(zero_cols).ambient_dim == 0
    assert image(zero_cols) == SubspaceBasis.zero(3)
    assert solve_particular(zero_cols, vec([0, 0, 0])) == ()
    assert solve_particular(zero_cols, vec([1, 0, 0])) is None

    assert preimage(zero_rows, SubspaceBasis.zero(0)) == SubspaceBasis.full(3)


def test_empty_matrix_needs_column_count():
    with pytest.raises(ValueError):
        Mat([])
    assert Mat([], cols=4).cols == 4


def test_from_cols_transposes_exactly():
    m = Mat.from_cols([(1, 2, 3), (Fraction(1, 2), 0, -1)])
    assert (m.rows, m.cols) == (3, 2)
    assert m.data == ((1, Fraction(1, 2)), (2, 0), (3, -1))
    assert all_fractions(m.data)
    assert m == Mat.from_cols([(1, 2, 3), (Fraction(1, 2), 0, -1)], rows=3)
    assert Mat.from_cols([], rows=2) == Mat.zeros(2, 0)
    with pytest.raises(ValueError):
        Mat.from_cols([])


@pytest.mark.parametrize(
    "columns,rows",
    [
        ([(1, 2), (3, 4, 5)], None),  # a longer column
        ([(1, 2, 3), (4, 5)], None),  # a shorter column
        ([(1, 2)], 5),  # a row count the columns disagree with
    ],
    ids=["longer", "shorter", "row-count"],
)
def test_from_cols_rejects_bad_shapes(columns, rows):
    with pytest.raises(ValueError):
        Mat.from_cols(columns, rows=rows)


# -- kernel / image -----------------------------------------------------------


def test_kernel_identity_trivial():
    assert kernel(Mat.identity(4)).dim == 0


def test_kernel_sum_functional():
    k = kernel(Mat([[1, 1]]))
    assert k.rows == (vec([1, -1]),)


def test_image_zero():
    assert image(Mat.zeros(3, 2)).dim == 0


@given(small_matrices())
@settings(max_examples=80, deadline=None)
def test_rank_nullity(m):
    assert kernel(m).dim + image(m).dim == m.cols


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_map_to_zero(m):
    for row in kernel(m).rows:
        assert all(x == 0 for x in m.apply(row))


KERNEL_EDGE_CASES = [
    Mat([], cols=0),
    Mat([], cols=3),
    Mat.zeros(3, 0),
    Mat.zeros(2, 4),
    Mat.identity(4),
    Mat([[1, 2, 0, 3], [0, 1, 1, 1], [2, 0, 1, 0]]),  # full row rank
    Mat([[1, 2], [3, 4], [5, 6]]),  # full column rank
]


@given(st.one_of(sparse_matrices(), small_matrices(), st.sampled_from(KERNEL_EDGE_CASES)))
@settings(max_examples=300, deadline=None)
def test_kernel_matches_two_pass_oracle(m):
    k, k0 = kernel(m), two_pass_kernel(m)
    assert k.rows == k0.rows and k.pivots == k0.pivots
    assert all_fractions(k.rows)


@given(st.one_of(sparse_matrices(rows=st.integers(1, 6)), small_matrices()), st.data())
@settings(max_examples=300, deadline=None)
def test_preimage_matches_two_pass_oracle(m, data):
    gens = data.draw(st.lists(
        st.lists(mostly_zero_rationals(), min_size=m.rows, max_size=m.rows), max_size=4))
    w = SubspaceBasis.span(m.rows, gens)
    pre, pre0 = preimage(m, w), two_pass_preimage(m, w)
    assert pre.rows == pre0.rows and pre.pivots == pre0.pivots


@pytest.fixture
def rref_calls(monkeypatch):
    import twistss.linalg as linalg

    calls = []

    def counting(m):
        calls.append(m.cols)
        return eliminate(m)

    eliminate = linalg.rref
    monkeypatch.setattr(linalg, "rref", counting)
    return calls


def test_kernel_eliminates_once(rref_calls):
    assert kernel(Mat([[1, 2, 0, 3], [2, 4, 1, 1]])).dim == 2
    assert rref_calls == [4]


def test_preimage_eliminates_once(rref_calls):
    w = SubspaceBasis(2, (vec([1, 1]),), (0,))
    assert preimage(Mat([[1, 2, 0, 3], [2, 4, 1, 1]]), w).dim == 3
    assert rref_calls == [5]


# -- canonicality --------------------------------------------------------------


@given(small_matrices(), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_canonical_basis_independent_of_generators(m, rng):
    rows = [m.row(i) for i in range(m.rows)]
    shuffled = list(rows)
    rng.shuffle(shuffled)
    # also mix in a random row combination
    if len(shuffled) >= 2:
        combo = tuple(a + 2 * b for a, b in zip(shuffled[0], shuffled[1]))
        shuffled.append(combo)
    s1 = SubspaceBasis.span(m.cols, rows)
    s2 = SubspaceBasis.span(m.cols, shuffled)
    assert s1 == s2


# -- solve_particular -----------------------------------------------------------


def test_solve_identity():
    b = vec([3, -1, F(1, 2)])
    assert solve_particular(Mat.identity(3), b) == b


def test_solve_frees_zeroed():
    assert solve_particular(Mat([[1, 1]]), vec([3])) == vec([3, 0])


def test_solve_inconsistent():
    assert solve_particular(Mat([[1], [0]]), vec([0, 1])) is None


@given(small_matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_reproduces_target(m, data):
    x = vec(data.draw(st.lists(small_rationals(), min_size=m.cols, max_size=m.cols)))
    b = m.apply(x)
    sol = solve_particular(m, b)
    assert sol is not None
    assert m.apply(sol) == b


# -- preimage ---------------------------------------------------------------------


def test_preimage_full_codomain():
    m = Mat([[1, 2], [3, 4]])
    assert preimage(m, SubspaceBasis.full(2)) == SubspaceBasis.full(2)


def test_preimage_identity():
    w = SubspaceBasis.span(2, [vec([1, 1])])
    assert preimage(Mat.identity(2), w) == w


def test_preimage_of_zero_is_kernel():
    m = Mat([[1, 0], [0, 0]])
    assert preimage(m, SubspaceBasis.zero(2)).rows == (vec([0, 1]),)


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_preimage_of_image_is_everything(m):
    assert preimage(m, image(m)) == SubspaceBasis.full(m.cols)


# -- quotient spaces ---------------------------------------------------------------


def test_quotient_reps_and_projection():
    z = SubspaceBasis.full(2)
    b = SubspaceBasis.span(2, [vec([1, 1])])
    q = QuotientSpace(z, b)
    assert q.dim == 1
    # project respects the denominator: (1,1) is the zero class
    assert q.project(vec([1, 1])) == (F(0),)
    v = vec([2, 5])
    c = q.project(v)
    assert q.project(q.lift(c)) == c
    # v - lift(c) must be in the denominator
    residual = tuple(a - b_ for a, b_ in zip(v, q.lift(c)))
    assert b.contains(residual)


def test_coords_in_echelon_basis():
    s = SubspaceBasis.span(3, [vec([1, 0, 2]), vec([0, 1, 1])])
    v = vec([3, -2, 4])
    c = s.coords(v)
    assert c == (F(3), F(-2))
    assert s.coords(vec([0, 0, 1])) is None


def test_quotient_requires_containment():
    with pytest.raises(ValueError):
        QuotientSpace(
            SubspaceBasis.span(2, [vec([1, 0])]), SubspaceBasis.span(2, [vec([0, 1])])
        )


def test_span_in_quotient():
    q = QuotientSpace(SubspaceBasis.full(3), SubspaceBasis.span(3, [vec([0, 0, 1])]))
    s = span_in_quotient(q, [vec([1, 0, 0]), vec([2, 0, 5])])
    assert s.dim == 1


@given(small_matrices())
@settings(max_examples=40, deadline=None)
def test_quotient_project_lift_roundtrip(m):
    z = SubspaceBasis.full(m.cols)
    b = kernel(m)
    q = QuotientSpace(z, b)
    for rep in q.coset_reps:
        c = q.project(rep)
        assert q.lift(c) == rep
    for row in b.rows:
        assert q.is_zero_class(row)
        assert all(x == 0 for x in q.project(row))
