import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistss import (
    SpectralSequence,
    TwistError,
    TwistForm,
    indeterminacy_subgroup,
    make_twist,
    parse_twist,
    twisted_cohomology,
)
from twistss.cdga import Form
from twistss.linalg import Mat, dense, sparse
from twistss.modelgen import random_model, random_twist
from twistss.models import bundled_model, model_names, standard_pairs
from twistss.report import run_analysis
from twistss.twist import BlockSpace, DOperator


@pytest.fixture(scope="module")
def torus3():
    return bundled_model("torus3")


def test_make_twist_top_form(torus3):
    H = parse_twist(torus3, "e1^e2^e3")
    assert H.degrees == (3,)
    assert not H.is_zero


def test_empty_twist(torus3):
    H = make_twist(torus3, [])
    assert H.is_zero
    assert parse_twist(torus3, "").is_zero


def test_non_closed_part_rejected():
    m = bundled_model("cascade3")
    with pytest.raises(TwistError, match="not closed"):
        make_twist(m, [m.basis_form("v")])


def test_degree_one_part_rejected(torus3):
    with pytest.raises(TwistError, match="degree >= 3"):
        make_twist(torus3, [torus3.basis_form("e1")])


def test_even_degree_part_rejected():
    m = bundled_model("mixed5")
    with pytest.raises(TwistError, match="even"):
        make_twist(m, [m.basis_form("a").wedge(m.basis_form("x"))])


@pytest.mark.parametrize(
    "name,components,message",
    [
        ("torus3", {2: ((0, 1),)}, "even degree 2"),
        ("torus3", {1: ((0, 1),)}, "degree >= 3"),
        ("torus3", {3: ((0, 1),), 5: ((0, 1),)}, "degree 5 is above the top degree 3"),
        ("torus3", {3: ((1, 1),)}, "index outside range\\(1\\)"),
        ("torus3", {3: ((-1, 1),)}, "index outside range\\(1\\)"),
        ("cascade3", {5: ((0, 1),)}, "degree 5 is not closed"),
        ("torus5", {3: ((1, 1), (0, 1))}, "^twist component of degree 3 has indices that do not strictly increase$"),
        ("torus5", {3: ((0, 1), (0, 1))}, "^twist component of degree 3 has indices that do not strictly increase$"),
        ("torus5", {3: ((0, 1), (0, -1))}, "^twist component of degree 3 has indices that do not strictly increase$"),
        ("torus5", {3: ((0.0, 1),)}, "^twist component of degree 3 has a non-integer index 0.0$"),
        # malformed keys and values are named, not left to a TypeError
        ("torus3", {"3": ((0, 1),)}, "^twist component degree '3' is not an int$"),
        ("torus3", {3.0: ((0, 1),)}, "^twist component degree 3.0 is not an int$"),
        ("torus3", {True: ((0, 1),)}, "^twist component degree True is not an int$"),
        ("torus3", {3: 5}, "^twist component of degree 3 is not an iterable of \\(index, value\\) pairs$"),
        ("torus3", {3: (5,)}, "^twist component of degree 3 has an entry 5 that is not an \\(index, value\\) pair$"),
        ("torus3", {3: ((0, "x"),)}, "^twist component of degree 3 has a value 'x' that is not a rational number$"),
        ("torus3", {3: ((0, None),)}, "^twist component of degree 3 has a value None that is not a rational number$"),
        ("torus3", {3: ((0, float("inf")),)}, "^twist component of degree 3 has a value inf that is not a rational number$"),
        ("torus3", {3: ((0, float("nan")),)}, "^twist component of degree 3 has a value nan that is not a rational number$"),
    ],
)
def test_constructor_rejects_invalid_components(name, components, message):
    # each condition is checked once, in the constructor, before any analysis;
    # the values go in as given, which the constructor coerces to Fractions
    m = bundled_model(name)
    with pytest.raises(TwistError, match=message):
        TwistForm(m, components)


def test_zero_coefficients_make_the_zero_twist(torus3):
    H = TwistForm(torus3, {3: ((0, Fraction(0)),)})
    assert H.is_zero and H.degrees == () and H.describe() == "0"
    assert H.single_degree() is None and H.components == {}
    untwisted = make_twist(torus3, [])
    assert H == untwisted
    assert run_analysis(torus3, H).to_json() == run_analysis(torus3, untwisted).to_json()


def test_int_coefficients_are_stored_as_fractions(torus3):
    H = TwistForm(torus3, {3: ((0, 2),)})
    assert H.components == {3: ((0, Fraction(2)),)}
    assert type(H.components[3][0][1]) is Fraction
    assert H.describe() == "2*e1^e2^e3"
    assert H == parse_twist(torus3, "2*e1^e2^e3")


def test_apply_D_unit(torus3):
    H = parse_twist(torus3, "e1^e2^e3")
    assert H.operator(torus3).apply(torus3.unit_form()) == torus3.parse_form("e1^e2^e3")


def test_apply_D_untwisted_is_d():
    m = bundled_model("heisenberg")
    H = make_twist(m, [])
    c = m.basis_form("c")
    assert H.operator(m).apply(c) == c.d()


def test_apply_D_su3():
    m = bundled_model("su3")
    H = parse_twist(m, "x3")
    x5 = m.basis_form("x5")
    assert H.operator(m).apply(x5) == m.parse_form("x3^x5")


def test_parity_complex_d_squared(torus3):
    H = parse_twist(torus3, "e1^e2^e3")
    whole = twisted_cohomology(torus3, H).complex
    assert (whole.a, whole.b) == (0, torus3.top_degree + 1)
    d_even, d_odd = whole.d(0), whole.d(1)
    assert (d_odd @ d_even).is_zero()
    assert (d_even @ d_odd).is_zero()


def test_twist_of_another_model_rejected(torus3):
    other = bundled_model("torus3")
    H = parse_twist(other, "e1^e2^e3")
    with pytest.raises(ValueError, match="different model"):
        SpectralSequence(torus3, H)
    with pytest.raises(ValueError, match="different model"):
        twisted_cohomology(torus3, H)
    for p, q in ((3, 0), (3, 1), (9, 0)):  # a computed cell, odd q, beyond the top degree
        with pytest.raises(ValueError, match="different model"):
            indeterminacy_subgroup(torus3, H, p, q, 4)


def test_untwisted_recovers_de_rham():
    for name in ("torus3", "heisenberg", "su3", "mixed5"):
        m = bundled_model(name)
        tc = twisted_cohomology(m, make_twist(m, []))
        even = sum(m.betti(p) for p in range(0, m.top_degree + 1, 2))
        odd = sum(m.betti(p) for p in range(1, m.top_degree + 1, 2))
        assert tc.dims == (even, odd)


def test_torus3_twisted_dims(torus3):
    tc = twisted_cohomology(torus3, parse_twist(torus3, "e1^e2^e3"))
    assert tc.dims == (3, 3)


def test_su3_twisted_dims():
    m = bundled_model("su3")
    tc = twisted_cohomology(m, parse_twist(m, "x3"))
    assert tc.dims == (0, 0)


def test_twisted_representatives_are_cocycles():
    m = bundled_model("mixed5")
    H = parse_twist(m, "a + b")
    tc = twisted_cohomology(m, H)
    for parity in (0, 1):
        for rep in tc.representatives(parity):
            assert H.operator(m).apply(rep).is_zero


def test_euler_characteristic_invariant_under_twisting():
    for name, expr in standard_pairs():
        m = bundled_model(name)
        tc = twisted_cohomology(m, parse_twist(m, expr))
        chi = sum((-1) ** p * m.betti(p) for p in range(m.top_degree + 1))
        assert tc.dims[0] - tc.dims[1] == chi


def test_cohomologous_twists_same_dims():
    # shift the twist by an exact form d(beta), beta of even degree >= 2
    m = bundled_model("mixed5")
    H = parse_twist(m, "a + b")
    tc = twisted_cohomology(m, H)
    for p in range(2, m.top_degree, 2):
        for i in range(m.dim(p)):
            beta = m.basis_form(m.label_of(p, i))
            dbeta = beta.d()
            if dbeta.is_zero:
                continue
            parts = [H.component_form(k) for k in H.degrees]
            shifted = [dbeta.homogeneous_part(q) for q in dbeta.degrees if q >= 3]
            H2 = make_twist(m, parts + shifted)
            assert twisted_cohomology(m, H2).dims == tc.dims


# -- block assembly of D ----------------------------------------------------------------


def dense_matrix(op, domain, codomain):
    """D between two degree lists by the `Form` route: column j is `op.apply`
    on the j-th basis form of `domain`, packed into `codomain`."""
    m = op.model
    cols = [
        dense(codomain.pack(op.apply(m.part_form(p, ((i, Fraction(1)),)))), codomain.total_dim)
        for p in domain.degrees
        for i in range(m.dim(p))
    ]
    return Mat([sparse(tuple(c[k] for c in cols)) for k in range(codomain.total_dim)], cols=domain.total_dim)


@pytest.mark.parametrize(
    "name,expr",
    [
        ("cascade7", "a"),
        ("cascade5", "a"),
        ("mixed5", "a + b"),
        ("torus5", "e1^e2^e3"),
        ("torus5", "e1^e2^e3 + e1^e2^e3^e4^e5"),
    ],
)
def test_matrix_matches_dense_assembly(monkeypatch, name, expr):
    # every degree list an analysis assembles: the relative complexes and the
    # cycle kernels as matrices, one condition degree at a time, and D of the
    # stored lifts into one degree (for d_r and B_r) as columns; cascade7 has
    # many empty degrees
    m = bundled_model(name)
    H = parse_twist(m, expr)
    shapes = set()

    def recording(op, domain, codomain):
        shapes.add((domain.degrees, codomain.degrees))
        return assemble(op, domain, codomain)

    def recording_columns(op, domain, q):
        shapes.add((domain.degrees, (q,)))
        return columns(op, domain, q)

    assemble, columns = DOperator.matrix, DOperator.columns
    monkeypatch.setattr(DOperator, "matrix", recording)
    monkeypatch.setattr(DOperator, "columns", recording_columns)
    run_analysis(m, H)
    monkeypatch.undo()
    # and the stacked condition lists that the cycle kernels of the pages
    # were once assembled for, one per cycle key, now fed one degree at a time
    ss = SpectralSequence(m, H)
    for p in range(ss.n + 1):
        for reach in range(2, ss.max_page + 1):
            conds = list(range(p + 1, min(p + reach, ss.n + 1), 2))
            if m.dim(p) and conds:
                shapes.add((ss._lift_space(p).degrees, tuple(conds)))
    op = H.operator(m)
    assert len(shapes) > 20
    for dom_degs, cod_degs in shapes:
        dom, cod = BlockSpace(m, dom_degs), BlockSpace(m, cod_degs)
        got = op.matrix(dom, cod)
        assert got == dense_matrix(op, dom, cod)
        if len(cod_degs) == 1:
            assert op.columns(dom, cod_degs[0]) == got.columns()
        assert (got.rows, got.cols) == (cod.total_dim, dom.total_dim)
        assert all(type(x) is Fraction for row in got.sparse for x in dense(row, got.cols))
        for row in got.sparse:  # the stored rows: sorted, in range, exact and nonzero
            assert [j for j, _ in row] == sorted({j for j, _ in row})
            assert all(0 <= j < got.cols and type(x) is Fraction and x for j, x in row)


def _operators():
    for name, expr in standard_pairs():
        m = bundled_model(name)
        yield parse_twist(m, expr).operator(m)
    for seed in range(8):
        m = random_model(seed)
        yield random_twist(m, seed).operator(m)


OPERATORS = list(_operators())
DENSITIES = (0.0, 0.01, 0.1, 1.0)


def random_form(m, density, rng):
    """A form with random components in about half the degrees, each
    coordinate nonzero with probability `density`."""
    parts = {
        p: [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < density else 0 for _ in range(m.dim(p))]
        for p in range(m.top_degree + 1)
        if rng.random() < 0.5
    }
    return Form(m, {p: sparse(v) for p, v in parts.items()})


@given(st.sampled_from(OPERATORS), st.sampled_from(DENSITIES), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_apply_agrees_with_the_matrix_on_sparse_forms(op, density, rng):
    # the two faces of the one D: on a form, and as the block matrix of the
    # whole complex on its packed coordinates
    m = op.model
    x = random_form(m, density, rng)
    whole = BlockSpace(m, range(m.top_degree + 1))
    assert whole.pack(op.apply(x)) == op.matrix(whole, whole).apply(whole.pack(x))


# -- block packing of sparse forms --------------------------------------------------------

PACK_MODELS = [bundled_model(name) for name in model_names()] + [random_model(seed) for seed in range(4)]


@given(st.sampled_from(PACK_MODELS), st.sampled_from(DENSITIES), st.randoms(use_true_random=False), st.data())
@settings(max_examples=150, deadline=None)
def test_unpack_inverts_pack_on_sparse_forms(m, density, rng, data):
    # a random sparse form, packed into a block of degrees that holds all of
    # its own (in a drawn order) and unpacked again, is the same form
    f = random_form(m, density, rng)
    extra = data.draw(st.lists(st.integers(0, m.top_degree), unique=True))
    degrees = sorted(set(f.degrees) | set(extra))
    random.Random(rng.random()).shuffle(degrees)
    space = BlockSpace(m, degrees)
    packed = space.pack(f)
    assert [j for j, _ in packed] == sorted({j for j, _ in packed})
    assert all(0 <= j < space.total_dim and type(c) is Fraction and c for j, c in packed)
    back = space.unpack(packed)
    assert back == f and list(back.parts) == sorted(back.parts)
    assert hash(back) == hash(f)
