"""Sparse `Form`s against the dense form oracle, and the forms built once.

Forms come from dense vectors with scattered zeros (ints and Fractions
mixed), handed to the `Form` constructor as the pairs of every coordinate,
zeros included, so the entry coercion and the dropping of zeros are
exercised, on the bundled models and on `modelgen` seeds.  Every operation
must agree with `form_oracle` entry for entry, and its result must be in the
stored layout.
"""

import re
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import form_oracle as oracle
from twistss import Form, SpectralSequence, parse_twist, verify_main_theorems
from twistss.models import bundled_model, model_names
from twistss.modelgen import random_model
from twistss.linalg import Mat, dense
from twistss.twist import BlockSpace, TwistForm

MODELS = [bundled_model(name) for name in model_names()] + [random_model(seed) for seed in range(8)]

COEFFS = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(-2, 2),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)


@st.composite
def dense_parts(draw, model):
    parts = {}
    for p in range(model.top_degree + 1):
        n = model.dim(p)
        if n and draw(st.booleans()):
            parts[p] = draw(st.lists(COEFFS, min_size=n, max_size=n))
    return parts


def _pairs(parts):
    """Every coordinate of each dense part as an (index, value) pair, zeros included."""
    return {p: tuple(enumerate(v)) for p, v in parts.items()}


def _draw_pair(data):
    m = data.draw(st.sampled_from(MODELS), label="model")
    a, b = data.draw(dense_parts(m)), data.draw(dense_parts(m))
    return m, Form(m, _pairs(a)), Form(m, _pairs(b)), oracle.dense(m, a), oracle.dense(m, b)


def _assert_layout(f):
    assert list(f.parts) == sorted(f.parts)
    for p, nz in f.parts.items():
        assert nz, "a stored degree has no nonzero coordinate"
        assert [i for i, _ in nz] == sorted({i for i, _ in nz})
        assert all(type(c) is Fraction and c for _, c in nz)
        assert all(0 <= i < f.model.dim(p) for i, _ in nz)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_entry_and_component_match_the_oracle(data):
    m, u, _, du, _ = _draw_pair(data)
    _assert_layout(u)
    assert oracle.of_form(u) == du
    for p in range(-1, m.top_degree + 2):
        assert dense(u.part(p), m.dim(p)) == oracle.component(m, du, p)
        assert all(type(c) is Fraction for _, c in u.part(p))


@settings(max_examples=200, deadline=None)
@given(st.data(), COEFFS)
def test_sums_and_scalings_match_the_oracle(data, c):
    m, u, v, du, dv = _draw_pair(data)
    for result, want in [
        (u + v, oracle.add(m, du, dv)),
        (u - v, oracle.add(m, du, oracle.neg(m, dv))),
        (-u, oracle.neg(m, du)),
        (0 * u, {}),
        (1 * u, du),
        (-1 * u, oracle.neg(m, du)),
        (c * u, oracle.scale(m, c, du)),
        (Fraction(c) * u, oracle.scale(m, c, du)),
        (u - u, {}),
    ]:
        _assert_layout(result)
        assert oracle.of_form(result) == want
    assert 1 * u is u and Fraction(1) * u is u
    assert u + m.zero_form() is u
    if not u.is_zero:  # a zero result not equal to an operand is the model's one zero form
        assert m.zero_form() + u is u
        assert 0 * u is m.zero_form() and u - u is m.zero_form()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_wedge_d_and_homogeneous_parts_match_the_oracle(data):
    m, u, v, du, dv = _draw_pair(data)
    for result, want in [
        (u.wedge(v), oracle.wedge(m, du, dv)),
        (v.wedge(u), oracle.wedge(m, dv, du)),
        (u.d(), oracle.d(m, du)),
        (u.d().d(), {}),
    ]:
        _assert_layout(result)
        assert oracle.of_form(result) == want
    for p in range(m.top_degree + 1):
        part = u.homogeneous_part(p)
        _assert_layout(part)
        assert oracle.of_form(part) == oracle.homogeneous_part(m, du, p)
    with pytest.raises(ValueError):
        u.homogeneous_part(m.top_degree + 1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_equality_hash_and_str_match_the_oracle(data):
    m, u, v, du, dv = _draw_pair(data)
    again = Form(m, {p: [(i, c) for i, c in enumerate(x) if c] for p, x in du.items()})
    assert u == again and hash(u) == hash(again)
    assert (u == v) == (du == dv)
    if u == v:
        assert hash(u) == hash(v)
    assert str(u) == oracle.to_str(m, du)
    assert str(u + v) == oracle.to_str(m, oracle.add(m, du, dv))
    assert str(u.wedge(v)) == oracle.to_str(m, oracle.wedge(m, du, dv))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_block_pack_and_unpack_match_the_dense_components(data):
    m, u, _, du, _ = _draw_pair(data)
    degrees = data.draw(st.lists(st.integers(0, m.top_degree), unique=True))
    space = BlockSpace(m, degrees)
    packed = space.pack(u)
    assert dense(packed, space.total_dim) == tuple(c for p in degrees for c in oracle.component(m, du, p))
    back = space.unpack(packed)
    _assert_layout(back)
    assert oracle.of_form(back) == {p: x for p, x in du.items() if p in degrees}


MALFORMED_PARTS = [
    ({"3": ((0, 1),)}, "^degree '3' is not an int$"),
    ({3.0: ((0, 1),)}, "^degree 3.0 is not an int$"),
    ({True: ((0, 1),)}, "^degree True is not an int$"),
    ({3: 5}, "^component of degree 3 is not an iterable of \\(index, value\\) pairs$"),
    ({3: ((0,),)}, "^component of degree 3 has an entry \\(0,\\) that is not an \\(index, value\\) pair$"),
    ({3: ((0, "x"),)}, "^component of degree 3 has a value 'x' that is not a rational number$"),
    ({3: ((0, None),)}, "^component of degree 3 has a value None that is not a rational number$"),
    ({3: ((0, float("inf")),)}, "^component of degree 3 has a value inf that is not a rational number$"),
    ({3: ((0, "1/0"),)}, "^component of degree 3 has a value '1/0' that is not a rational number$"),
]


def test_entry_still_rejects_bad_components():
    m = bundled_model("torus3")
    with pytest.raises(ValueError, match="outside the model range"):
        Form(m, {4: ()})
    with pytest.raises(ValueError, match="component of degree 1 has an index outside range\\(3\\)"):
        Form(m, {1: ((3, 1),)})
    # malformed keys and values are named, not left to a TypeError
    for parts, message in MALFORMED_PARTS:
        with pytest.raises(ValueError, match=message):
            Form(m, parts)


@pytest.mark.parametrize(
    "part,message",
    [
        (((1, 1), (0, 1)), "do not strictly increase"),
        (((0, 1), (0, 1)), "do not strictly increase"),
        (((0, 1), (0, 0)), "do not strictly increase"),
        (((-1, 1),), "outside range\\(3\\)"),
        (((3, 1),), "outside range\\(3\\)"),
        (((0.0, 1),), "non-integer index"),
    ],
)
def test_entry_rejects_unsorted_repeated_and_outside_indices(part, message):
    m = bundled_model("torus3")
    with pytest.raises(ValueError, match=message):
        Form(m, {1: part})


@pytest.mark.parametrize("value", ["1e10000000", "1E10000000", "2.5e10000000", "1_000"])
def test_entry_rejects_exponent_strings_fast(value):
    # Fraction("1e10000000") would build a ten-million-digit integer first
    m = bundled_model("torus3")
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=f"^component of degree 3 has a value '{value}' that is not a rational number$"):
        Form(m, {3: ((0, value),)})
    with pytest.raises(ValueError, match=f"^row 0 has a value '{value}' that is not a rational number$"):
        Mat([((0, value),)], 1)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("value", ["1e10000000", "-1e-10000000"])
def test_entry_rejects_decimals_with_huge_exponents_fast(value):
    # Fraction(Decimal("1e10000000")) would build 10**10000000 first
    m = bundled_model("torus3")
    x = Decimal(value)
    shown = re.escape(repr(x))
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=f"^component of degree 3 has a value {shown} that is not a rational number$"):
        Form(m, {3: ((0, x),)})
    with pytest.raises(ValueError, match=f"^row 0 has a value {shown} that is not a rational number$"):
        Mat([((0, x),)], 1)
    assert time.perf_counter() - t0 < 0.1


def test_entry_takes_decimals_up_to_the_digit_limit():
    # 4300 is the digit limit Fraction already applies to a string
    m = bundled_model("torus3")
    for value, want in (("0.5", Fraction(1, 2)), ("1E+2", Fraction(100)), ("-1e-4300", Fraction(-1, 10**4300))):
        assert Form(m, {3: ((0, Decimal(value)),)}).part(3) == ((0, want),)
        assert Mat([((0, Decimal(value)),)], 1).sparse == (((0, want),),)


def test_entry_takes_integer_fraction_and_decimal_strings():
    m = bundled_model("torus3")
    for value, want in (("1/2", Fraction(1, 2)), ("0.5", Fraction(1, 2)), ("-3", Fraction(-3))):
        assert Form(m, {3: ((0, value),)}).part(3) == ((0, want),)
        assert Mat([((0, value),)], 1).sparse == (((0, want),),)


def test_entry_coerces_values_and_drops_zeros():
    m = bundled_model("torus3")
    f = Form(m, {1: ((0, 2), (1, 0), (2, Fraction(1, 2))), 2: ((0, 0),)})
    assert f.parts == {1: ((0, Fraction(2)), (2, Fraction(1, 2)))}
    assert all(type(c) is Fraction for _, c in f.part(1))
    assert Form(m, {3: ((0, Fraction(0)),)}).is_zero


# ---------------------------------------------------------------------------
# forms built once


PAIRS = [("cascade5", "a"), ("mixed5", "a + b"), ("torus5", "e1^e2^e3 + e3^e4^e5")]


def _verify_all(ss):
    for t in range(1, (ss.max_page - 3) // 2 + 1):
        verify_main_theorems(ss, t)


@pytest.mark.parametrize("name,expr", PAIRS)
def test_one_zero_form_per_model(monkeypatch, name, expr):
    m = bundled_model(name)
    ss = SpectralSequence(m, parse_twist(m, expr))
    zeros = []
    init, exact = Form.__init__, Form._exact

    def counting_init(self, model, parts):
        init(self, model, parts)
        if self.is_zero:
            zeros.append(self)

    def counting_exact(model, parts):
        f = exact(model, parts)
        if f.is_zero:
            zeros.append(f)
        return f

    monkeypatch.setattr(Form, "__init__", counting_init)
    monkeypatch.setattr(Form, "_exact", staticmethod(counting_exact))
    _verify_all(ss)
    assert zeros, "the run made no zero form, so nothing was counted"
    assert {id(z) for z in zeros} == {id(m.zero_form())}


@pytest.mark.parametrize("name,expr", PAIRS)
def test_one_component_form_per_twist_degree(monkeypatch, name, expr):
    m = bundled_model(name)
    H = parse_twist(m, expr)
    ss = SpectralSequence(m, H)
    seen: dict = {}
    component_form = TwistForm.component_form

    def recording(self, p):
        f = component_form(self, p)
        seen.setdefault(p, []).append(f)  # kept alive, so no id is reused
        return f

    monkeypatch.setattr(TwistForm, "component_form", recording)
    _verify_all(ss)
    assert set(H.degrees) <= set(seen)
    for p, forms in seen.items():
        ids = {id(f) for f in forms}
        assert len(ids) == 1, f"degree {p} built {len(ids)} forms"
        if p not in H.degrees:
            assert ids == {id(m.zero_form())}
