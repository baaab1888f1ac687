import json
import math
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistss import cdga, modelgen
from twistss.cdga import (
    MAX_DIM,
    MAX_TOP_DEGREE,
    AlgebraError,
    CdgaModel,
    ModelError,
    ModelSchemaError,
    loads_model,
    model_from_dict,
    parse_linear_combination,
)
from twistss.linalg import Mat, dense, sparse
from twistss.models import bundled_model, model_names, model_path


@pytest.fixture(scope="module")
def torus3():
    return bundled_model("torus3")


@pytest.fixture(scope="module")
def heisenberg():
    return bundled_model("heisenberg")


def test_torus3_dims(torus3):
    assert torus3.dims == (1, 3, 3, 1)
    assert torus3.total_dim == 8


def test_heisenberg_valid_and_d_squared(heisenberg):
    c = heisenberg.basis_form("c")
    assert str(c.d()) == "a^b"
    assert c.d().d().is_zero


def test_d_squared_violation_rejected():
    doc = {
        "name": "bad",
        "top_degree": 2,
        "basis": {"0": ["1"], "1": ["t"], "2": ["w"]},
        "mult": [
            {"left": "1", "right": "1", "result": "1"},
            {"left": "1", "right": "t", "result": "t"},
            {"left": "t", "right": "1", "result": "t"},
            {"left": "1", "right": "w", "result": "w"},
            {"left": "w", "right": "1", "result": "w"},
        ],
        "diff": [{"from": "1", "result": "t"}, {"from": "t", "result": "w"}],
    }
    with pytest.raises(AlgebraError) as err:
        model_from_dict(doc)
    assert str(err.value) == "d o d != 0 on basis element '1' of degree 0"


def test_commutativity_violation_rejected():
    doc = {
        "name": "bad2",
        "top_degree": 2,
        "basis": {"0": ["1"], "1": ["s", "t"], "2": ["w"]},
        "mult": [
            {"left": "1", "right": "1", "result": "1"},
            {"left": "1", "right": "s", "result": "s"},
            {"left": "s", "right": "1", "result": "s"},
            {"left": "1", "right": "t", "result": "t"},
            {"left": "t", "right": "1", "result": "t"},
            {"left": "1", "right": "w", "result": "w"},
            {"left": "w", "right": "1", "result": "w"},
            {"left": "s", "right": "t", "result": "w"},
            {"left": "t", "right": "s", "result": "w"},
        ],
        "diff": [],
    }
    with pytest.raises(AlgebraError) as err:
        model_from_dict(doc)
    assert str(err.value) == "graded commutativity fails on 's' ^ 't'"


def test_leibniz_violation_rejected():
    # s, t closed degree-1 generators with s^t = u but d u != 0
    doc = {
        "name": "badleibniz",
        "top_degree": 3,
        "basis": {"0": ["1"], "1": ["s", "t"], "2": ["u"], "3": ["z"]},
        "mult": [
            {"left": "1", "right": "1", "result": "1"},
            {"left": "1", "right": "s", "result": "s"},
            {"left": "s", "right": "1", "result": "s"},
            {"left": "1", "right": "t", "result": "t"},
            {"left": "t", "right": "1", "result": "t"},
            {"left": "1", "right": "u", "result": "u"},
            {"left": "u", "right": "1", "result": "u"},
            {"left": "1", "right": "z", "result": "z"},
            {"left": "z", "right": "1", "result": "z"},
            {"left": "s", "right": "t", "result": "u"},
            {"left": "t", "right": "s", "result": "-1*u"},
        ],
        "diff": [{"from": "u", "result": "z"}],
    }
    with pytest.raises(AlgebraError) as err:
        model_from_dict(doc)
    assert str(err.value) == "Leibniz rule fails on 's' ^ 't'"


def test_associativity_violation_rejected():
    # (s^t)^r lands on z1 while s^(t^r) lands on z2
    unit_rows = [
        {"left": "1", "right": lab, "result": lab}
        for lab in ("1", "s", "t", "r", "u", "v", "z1", "z2")
    ] + [
        {"left": lab, "right": "1", "result": lab}
        for lab in ("s", "t", "r", "u", "v", "z1", "z2")
    ]
    doc = {
        "name": "badassoc",
        "top_degree": 3,
        "basis": {"0": ["1"], "1": ["s", "t", "r"], "2": ["u", "v"], "3": ["z1", "z2"]},
        "mult": unit_rows
        + [
            {"left": "s", "right": "t", "result": "u"},
            {"left": "t", "right": "s", "result": "-1*u"},
            {"left": "t", "right": "r", "result": "v"},
            {"left": "r", "right": "t", "result": "-1*v"},
            {"left": "u", "right": "r", "result": "z1"},
            {"left": "r", "right": "u", "result": "z1"},
            {"left": "s", "right": "v", "result": "z2"},
            {"left": "v", "right": "s", "result": "z2"},
        ],
        "diff": [],
    }
    with pytest.raises(AlgebraError) as err:
        model_from_dict(doc)
    assert str(err.value) == "associativity fails on 's', 't', 'r'"


def test_missing_unit_rejected():
    doc = {
        "name": "nounit",
        "top_degree": 1,
        "basis": {"0": ["z"], "1": ["t"]},
        "mult": [],
        "diff": [],
    }
    with pytest.raises(AlgebraError, match="unit"):
        model_from_dict(doc)


@pytest.mark.parametrize("text", ["[" * 100_000, '{"a": ' * 100_000])
def test_deeply_nested_json_raises_schema_error(text):
    with pytest.raises(ModelSchemaError, match="nested too deeply"):
        loads_model(text)


def test_schema_error_on_garbage():
    with pytest.raises(ModelSchemaError):
        loads_model("not json at all {")
    with pytest.raises(ModelSchemaError):
        model_from_dict({"name": "x"})
    with pytest.raises(ModelSchemaError):
        model_from_dict({"name": "x", "top_degree": 2})


def test_even_generator_rejected():
    doc = {
        "name": "evens",
        "top_degree": 4,
        "generators": [{"name": "w", "degree": 2}],
        "differentials": {},
    }
    with pytest.raises(ModelSchemaError, match="odd"):
        model_from_dict(doc)


def test_wedge_unit_and_alternation(torus3):
    e1 = torus3.basis_form("e1")
    assert torus3.unit_form().wedge(e1) == e1
    assert e1.wedge(e1).is_zero
    e2 = torus3.basis_form("e2")
    assert e1.wedge(e2) == -1 * e2.wedge(e1)


def test_sums_copy_the_degrees_only_one_operand_has(torus3):
    # only shared degrees are combined; a degree of one operand keeps its
    # stored part, or its negation for a difference
    f = torus3.parse_form("1 + 2*e1 + e1^e2")
    g = torus3.parse_form("e1 - 1/3*e2^e3 + 5*e1^e2^e3")
    for h, sign in ((f + g, 1), (f - g, -1)):
        assert list(h.parts) == [0, 1, 2, 3]
        assert h.parts[0] is f.parts[0]
        assert h.parts[1] == ((0, Fraction(2 + sign)),)
        assert dict(h.parts[2]) == {**dict(f.parts[2]), **{j: sign * x for j, x in g.parts[2]}}
        assert h.parts[3] is g.parts[3] if sign == 1 else h.parts[3] == ((0, Fraction(-5)),)
    assert (f - f).is_zero and list((g + f).parts) == [0, 1, 2, 3]


def test_form_parsing(torus3):
    f = torus3.parse_form("1/2*e1^e2 + e3^e1")
    comp = dict(f.parts)
    assert list(comp) == [2]
    assert str(torus3.parse_form("e1^e2^e3")) == "e1^e2^e3"
    assert torus3.parse_form("").is_zero
    assert torus3.parse_form("e1 - e1").is_zero
    with pytest.raises(KeyError):
        torus3.parse_form("bogus")


def test_coefficients_integer_fraction_decimal():
    assert parse_linear_combination("3*x + 2/3*y - 0.25*z") == [
        (3, "x"), (Fraction(2, 3), "y"), (Fraction(-1, 4), "z")
    ]


@pytest.mark.parametrize("coeff", ["1e1000000", "1E1000000", "2.5e1000000", "1_000"])
def test_exponent_notation_coefficient_rejected_fast(torus3, coeff):
    # Fraction("1e1000000") would build a million-digit integer first
    doc = _basis_doc(diff=[{"from": "1", "result": f"{coeff}*t"}])
    for call in (
        lambda: parse_linear_combination(f"{coeff}*x"),
        lambda: torus3.parse_form(f"{coeff}*e1^e2^e3"),
        lambda: model_from_dict(doc),
    ):
        t0 = time.perf_counter()
        with pytest.raises(ModelSchemaError, match="bad rational coefficient"):
            call()
        assert time.perf_counter() - t0 < 0.1


def test_de_rham_torus(torus3):
    assert [torus3.betti(p) for p in range(4)] == [1, 3, 3, 1]


def test_de_rham_heisenberg(heisenberg):
    assert [heisenberg.betti(p) for p in range(4)] == [1, 2, 2, 1]
    # c is not closed
    h1 = heisenberg.de_rham(1)
    assert not h1.ambient.contains(heisenberg.basis_form("c").part(1))


def test_unit_class_everywhere():
    for name in model_names():
        m = bundled_model(name)
        assert m.betti(0) >= 1
        assert m.unit_form().d().is_zero


def test_euler_characteristic_preserved():
    for name in model_names():
        m = bundled_model(name)
        chi_forms = sum((-1) ** p * m.dim(p) for p in range(m.top_degree + 1))
        chi_h = sum((-1) ** p * m.betti(p) for p in range(m.top_degree + 1))
        assert chi_forms == chi_h


def test_representatives_closed_and_distinct():
    for name in model_names():
        m = bundled_model(name)
        for p in range(m.top_degree + 1):
            h = m.de_rham(p)
            for rep in h.sparse_reps:
                f = m.part_form(p, rep)
                assert f.d().is_zero
                assert not h.is_zero_class(rep)


def test_wedge_descends_to_cohomology():
    for name in ("heisenberg", "mixed5", "cascade3"):
        m = bundled_model(name)
        closed = []
        for p in range(m.top_degree + 1):
            closed.extend(m.part_form(p, r) for r in m.de_rham(p).sparse_reps)
        for u in closed:
            for v in closed:
                w = u.wedge(v)
                assert w.d().is_zero
                # closed wedge exact is exact
                for p in range(m.top_degree):
                    for col in range(m.dim(p)):
                        e = m.basis_form(m.label_of(p, col))
                        exact = e.d()
                        if exact.is_zero:
                            continue
                        prod = u.wedge(exact)
                        if prod.is_zero:
                            continue
                        deg = prod.degree
                        h = m.de_rham(deg)
                        assert h.is_zero_class(prod.part(deg))


def test_basis_model_round_trip():
    sphere = bundled_model("sphere3")
    assert sphere.dims == (1, 0, 0, 1)
    u = sphere.basis_form("u")
    assert u.wedge(u).is_zero
    assert sphere.unit_form().wedge(u) == u


@pytest.mark.parametrize("expr", ["-", "+", "e1^e2^e3 -", "e1 +", "e1 - -"])
def test_dangling_operator_rejected(torus3, expr):
    for call in (lambda: parse_linear_combination(expr), lambda: torus3.parse_form(expr)):
        with pytest.raises(ModelSchemaError, match="operator without a term") as info:
            call()
        assert repr(expr) in str(info.value)


def test_unary_signs_before_a_term_accepted(torus3):
    assert parse_linear_combination("-e1") == [(-1, "e1")]
    assert parse_linear_combination("e1 + -e2") == [(1, "e1"), (-1, "e2")]
    assert torus3.parse_form("e1 + -e2") == torus3.parse_form("e1 - e2")


def test_model_file_is_json(tmp_path):
    # loading from an explicit path works the same as the bundle
    doc = {
        "name": "tiny",
        "top_degree": 3,
        "generators": [{"name": "g", "degree": 3}],
        "differentials": {},
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    from twistss.cdga import load_model

    m = load_model(path)
    assert m.dims == (1, 0, 0, 1)


# -- malformed and oversized documents ------------------------------------------


def _gen_doc(**fields):
    doc = {"name": "g", "top_degree": 2, "generators": [{"name": "x", "degree": 1}]}
    doc.update(fields)
    return doc


def _basis_doc(**fields):
    doc = {
        "name": "b",
        "top_degree": 1,
        "basis": {"0": ["1"], "1": ["t"]},
        "mult": [
            {"left": "1", "right": "1", "result": "1"},
            {"left": "1", "right": "t", "result": "t"},
            {"left": "t", "right": "1", "result": "t"},
        ],
    }
    doc.update(fields)
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        _gen_doc(generators=5),
        _gen_doc(differentials=[1]),
        _gen_doc(differentials={"x": 1}),
        _gen_doc(generators=[{"name": "x", "degree": "q"}]),
        _gen_doc(top_degree="a"),
        _gen_doc(top_degree=float("inf")),
        _basis_doc(basis=[1]),
        _basis_doc(basis={"0": 1}),
        _basis_doc(basis={"zero": ["1"]}),
        _basis_doc(top_degree="a"),
        _basis_doc(mult=[{"left": "1"}]),
        _basis_doc(mult=[1]),
        _basis_doc(mult={"left": "1"}),
        _basis_doc(diff=[{"result": "t"}]),
    ],
)
def test_malformed_document_raises_schema_error(doc):
    with pytest.raises(ModelSchemaError):
        model_from_dict(doc)


def test_generator_differential_with_dangling_operator_rejected():
    gens = [{"name": g, "degree": 1} for g in "abc"]
    assert model_from_dict(_gen_doc(top_degree=3, generators=gens, differentials={"c": "a^b"}))
    doc = _gen_doc(top_degree=3, generators=gens, differentials={"c": "a^b -"})
    with pytest.raises(ModelSchemaError, match=r"operator without a term in expression 'a\^b -'"):
        model_from_dict(doc)


def test_generator_count_limit_checked_before_expansion():
    # 40 generators would expand to 2^40 monomials
    gens = [{"name": f"g{i}", "degree": 1} for i in range(40)]
    with pytest.raises(ModelSchemaError, match="MAX_DIM = 1024"):
        model_from_dict(_gen_doc(generators=gens, top_degree=40))
    assert MAX_DIM == 1024
    # 10 generators (torus10) pass the limit and reach the next check
    gens10 = [{"name": f"g{i}", "degree": 1} for i in range(10)]
    with pytest.raises(ModelSchemaError, match="truncate"):
        model_from_dict(_gen_doc(generators=gens10, top_degree=9))
    with pytest.raises(ModelSchemaError) as err:
        model_from_dict(_gen_doc(generators=gens10 + [{"name": "g10", "degree": 1}], top_degree=11))
    assert str(err.value) == "11 generators span 2^11 basis elements; the limit is MAX_DIM = 1024 (10 generators)"


def test_torus10_loads_at_the_dimension_limit():
    # loaded, not analysed: an analysis of torus10 takes about a second
    model = model_from_dict(_torus_doc(10))
    assert model.total_dim == MAX_DIM
    assert model.dims == tuple(math.comb(10, p) for p in range(11))
    assert model.unit == ((0, 1),) and model.unit_form() == model.basis_form("1")


def test_top_degree_limit_checked_before_allocation():
    with pytest.raises(ModelSchemaError, match="MAX_TOP_DEGREE"):
        model_from_dict(_basis_doc(top_degree=10**12))
    with pytest.raises(ModelSchemaError, match="MAX_TOP_DEGREE"):
        model_from_dict(_gen_doc(top_degree=10**12))
    top = MAX_TOP_DEGREE
    sphere = _basis_doc(
        top_degree=top,
        basis={"0": ["1"], str(top): ["u"]},
        mult=[
            {"left": "1", "right": "1", "result": "1"},
            {"left": "1", "right": "u", "result": "u"},
            {"left": "u", "right": "1", "result": "u"},
        ],
    )
    assert model_from_dict(sphere).dims[top] == 1


def test_basis_dimension_limit_checked_before_allocation():
    labels = [f"t{i}" for i in range(MAX_DIM)]
    with pytest.raises(ModelSchemaError) as err:
        model_from_dict(_basis_doc(basis={"0": ["1"], "1": labels}))
    assert str(err.value) == "1025 basis elements exceed the limit MAX_DIM = 1024"


# -- fuzzing: a value or a ModelError, nothing else ------------------------------

_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
)
_json = st.recursive(
    _json_scalars,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)
_labels = st.sampled_from(["1", "x", "y", "z", "u"])
_exprs = st.one_of(
    st.text(alphabet="xyzu1^*+-/ 0123", max_size=12),
    st.lists(_labels, min_size=1, max_size=3).map("^".join),
)
_degrees = st.one_of(st.integers(-1, 5), _json)


def _maybe(strategy):
    return st.one_of(strategy, _json)


_generator_docs = st.fixed_dictionaries(
    {
        "name": _json,
        "top_degree": _degrees,
        "generators": _maybe(
            st.lists(
                _maybe(st.fixed_dictionaries({"name": _labels, "degree": _degrees})), max_size=4
            )
        ),
    },
    optional={"differentials": _maybe(st.dictionaries(_labels, _maybe(_exprs), max_size=3))},
)
_basis_docs = st.fixed_dictionaries(
    {
        "name": _json,
        "top_degree": _degrees,
        "basis": _maybe(
            st.dictionaries(
                st.sampled_from(["0", "1", "2", "3", "x"]), _maybe(st.lists(_labels, max_size=3)), max_size=4
            )
        ),
    },
    optional={
        "mult": _maybe(
            st.lists(
                st.fixed_dictionaries(
                    {}, optional={"left": _labels, "right": _labels, "result": _maybe(_exprs)}
                ),
                max_size=6,
            )
        ),
        "diff": _maybe(
            st.lists(
                st.fixed_dictionaries({}, optional={"from": _labels, "result": _maybe(_exprs)}),
                max_size=3,
            )
        ),
    },
)


@given(st.one_of(_generator_docs, _basis_docs, _json))
@settings(max_examples=300, deadline=None)
def test_model_from_dict_fuzz(doc):
    try:
        model = model_from_dict(doc)
    except ModelError:
        return
    assert isinstance(model, CdgaModel)


@given(st.one_of(st.text(max_size=20), _exprs))
@settings(max_examples=300, deadline=None)
def test_parse_linear_combination_fuzz(text):
    try:
        terms = parse_linear_combination(text)
    except ModelError:
        return
    assert all(isinstance(tok, str) and tok for _, tok in terms)


_form_models = {name: bundled_model(name) for name in ("torus3", "heisenberg", "sphere3")}
_form_labels = st.sampled_from(
    sorted({lab for m in _form_models.values() for labs in m.labels for lab in labs}) + ["q", "1"]
)
_form_exprs = st.one_of(
    st.text(alphabet="eabcuv123^*+-/. ", max_size=16),
    st.lists(
        st.tuples(st.sampled_from(["", "-", "2*", "1/3*", "0*"]), st.lists(_form_labels, min_size=1, max_size=3)),
        min_size=1, max_size=3,
    ).map(lambda terms: " + ".join(c + "^".join(w) for c, w in terms)),
)


@given(st.sampled_from(sorted(_form_models)), st.one_of(st.text(max_size=20), _form_exprs))
@settings(max_examples=300, deadline=None)
def test_parse_form_fuzz(name, text):
    model = _form_models[name]
    try:
        form = model.parse_form(text)
    except (ModelError, KeyError):
        return
    assert form.model is model and set(form.degrees) <= set(range(model.top_degree + 1))


# -- the generator-form expansion against insertion sort ------------------------


def _sort_with_sign(gens):
    """Sort generator indices, tracking the sign; 0 on a repeated generator."""
    lst = list(gens)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(lst, lst[1:]):
        if a == b:
            return 0, ()
    return sign, tuple(lst)


def sorted_expansion(gens, diffs, top_degree=None):
    """Oracle: the generator-form expansion on generator tuples, re-sorting
    every product and every Leibniz term.  Returns the `CdgaModel` tables."""
    if 1 << len(gens) > MAX_DIM:
        raise ModelSchemaError(
            f"{len(gens)} generators span 2^{len(gens)} basis elements; "
            f"the limit is MAX_DIM = {MAX_DIM} ({MAX_DIM.bit_length() - 1} generators)"
        )
    names = [g for g, _ in gens]
    degs = [d for _, d in gens]
    gen_index = {g: i for i, g in enumerate(names)}
    if len(gen_index) != len(names):
        raise ModelSchemaError("duplicate generator name")
    for g, d in gens:
        if d % 2 == 0 or d < 1:
            raise ModelSchemaError(
                f"generator {g!r} has degree {d}; the generator form only supports odd degrees"
            )
    full_degree = sum(degs)
    n = full_degree if top_degree is None else top_degree
    cdga._check_top_degree(n)
    if n < full_degree:
        raise ModelSchemaError(f"top_degree {n} would truncate the exterior algebra (needs {full_degree})")
    k = len(names)
    all_monos = sorted(tuple(i for i in range(k) if mask & (1 << i)) for mask in range(1 << k))
    monos_by_degree = [[] for _ in range(n + 1)]
    for mono in all_monos:
        monos_by_degree[sum(degs[i] for i in mono)].append(mono)
    mono_pos = {m: (d, i) for d, ms in enumerate(monos_by_degree) for i, m in enumerate(ms)}
    labels = [["^".join(names[g] for g in m) if m else "1" for m in ms] for ms in monos_by_degree]

    signs = {1: Fraction(1), -1: Fraction(-1)}
    mult = {}
    for p in range(n + 1):
        for q in range(n + 1 - p):
            table = []
            for m1 in monos_by_degree[p]:
                row = []
                for m2 in monos_by_degree[q]:
                    sign, prod = _sort_with_sign(m1 + m2)
                    row.append(((mono_pos[prod][1], signs[sign]),) if sign else ())
                table.append(row)
            mult[(p, q)] = table

    dgen = {}
    for gname, poly in diffs.items():
        if gname not in gen_index:
            raise ModelSchemaError(f"differential given for unknown generator {gname!r}")
        gi = gen_index[gname]
        terms = []
        for coeff, mono_names in poly:
            try:
                mono = tuple(gen_index[m] for m in mono_names)
            except KeyError as e:
                raise ModelSchemaError(f"unknown generator in differential of {gname!r}: {e}")
            sign, mono = _sort_with_sign(mono)
            if sign == 0:
                continue
            deg = sum(degs[i] for i in mono)
            if deg != degs[gi] + 1:
                raise ModelSchemaError(
                    f"differential of {gname!r} has a term of degree {deg}, expected {degs[gi] + 1}"
                )
            terms.append((sign * coeff, mono))
        dgen[gi] = terms

    diff_mats = []
    for p in range(n + 1):
        rows = len(monos_by_degree[p + 1]) if p + 1 <= n else 0
        cols = []
        for mono in monos_by_degree[p]:
            col = [Fraction(0)] * rows
            for t, g in enumerate(mono):
                for c, m in dgen.get(g, ()):
                    sign, sorted_mono = _sort_with_sign(mono[:t] + m + mono[t + 1 :])
                    if sign:
                        col[mono_pos[sorted_mono][1]] += Fraction(-1 if t % 2 else 1) * c * sign
            cols.append(sparse(col))
        diff_mats.append(Mat.from_cols(cols, rows))
    return n, labels, mult, diff_mats


def oracle_expansion(gens, diffs, top_degree=None):
    """The insertion-sort oracle on the `CdgaModel` layout: its blocks for the
    pairs of nonempty degrees, as tuples.  Every block it drops holds only
    zero products."""
    n, labels, mult, diff = sorted_expansion(gens, diffs, top_degree)
    kept = {}
    for (p, q), t in mult.items():
        if labels[p] and labels[q]:
            kept[(p, q)] = tuple(map(tuple, t))
        else:
            assert not any(prod for row in t for prod in row)
    return n, labels, kept, diff


def _expansion(build, args, kwargs):
    """(top degree, labels, products, differential matrices) of one expansion,
    or the message of its ModelSchemaError."""
    try:
        n, labels, mult, diff = build(*args, **kwargs)
    except ModelSchemaError as e:
        return str(e)
    coeffs = [c for t in mult.values() for row in t for prod in row for _, c in prod]
    data = [tuple(dense(row, m.cols) for row in m.sparse) for m in diff]
    coeffs += [c for rows in data for row in rows for c in row]
    assert all(type(c) is Fraction for c in coeffs)
    return n, labels, mult, [(m.rows, m.cols, rows) for m, rows in zip(diff, data)]


def _builds(make):
    """The generator-form expansion's (args, kwargs) while make() runs, from
    the loader and from modelgen's partial algebras alike."""
    calls = []
    real = cdga.expand_generators

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    with mock.patch.object(cdga, "expand_generators", record), mock.patch.object(
        modelgen, "expand_generators", record
    ):
        try:
            make()
        except ModelError:
            pass
    return calls


def _assert_expansions_agree(make):
    calls = _builds(make)
    for args, kwargs in calls:
        assert _expansion(cdga.expand_generators, args, kwargs) == _expansion(
            oracle_expansion, args, kwargs
        ), args
    return len(calls)


def _torus_doc(k):
    gens = [{"name": f"e{i}", "degree": 1} for i in range(1, k + 1)]
    return {"name": f"torus{k}", "top_degree": k, "generators": gens}


@pytest.mark.parametrize("name", model_names())
def test_bundled_expansion_matches_insertion_sort(name):
    with open(model_path(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert _assert_expansions_agree(lambda: model_from_dict(doc)) == ("generators" in doc)


@pytest.mark.parametrize("k", [6, 7, 8])
def test_torus_expansion_matches_insertion_sort(k):
    assert _assert_expansions_agree(lambda: model_from_dict(_torus_doc(k))) == 1


def test_modelgen_expansions_match_insertion_sort():
    # every model and partial model of the first 200 seeds
    builds = sum(_assert_expansions_agree(lambda: modelgen.random_model(seed)) for seed in range(200))
    assert builds > 200


@given(_generator_docs)
@settings(max_examples=300, deadline=None)
def test_generator_doc_expansion_matches_insertion_sort(doc):
    _assert_expansions_agree(lambda: model_from_dict(doc))


def test_unsorted_and_repeated_terms_expand_like_insertion_sort():
    gens = [("a", 1), ("b", 1), ("c", 1), ("e", 1), ("d", 3)]
    diffs = {
        "e": [(Fraction(2), ("c", "a")), (Fraction(5), ("b", "b"))],
        "d": [(Fraction(3), ("c", "e", "a", "b")), (Fraction(-1), ("b", "a", "b", "c"))],
    }
    args = (gens, diffs)
    want = _expansion(oracle_expansion, args, {})
    assert not isinstance(want, str) and any(any(row) for _, _, data in want[3] for row in data)
    assert _expansion(cdga.expand_generators, args, {}) == want


def _three_gens(**fields):
    return _gen_doc(top_degree=3, generators=[{"name": g, "degree": 1} for g in "abc"], **fields)


@pytest.mark.parametrize(
    "doc,message",
    [
        (_gen_doc(generators=[{"name": "x", "degree": 1}] * 2), "duplicate generator name"),
        (_three_gens(differentials={"q": "a"}), "differential given for unknown generator 'q'"),
        # every name of a term is resolved before a repeated generator drops it
        (_three_gens(differentials={"c": "a^a^zz"}), "unknown generator in differential of 'c': 'zz'"),
        (_three_gens(differentials={"c": "a^b^c"}), "differential of 'c' has a term of degree 3, expected 2"),
        # a dropped term (a repeated generator) skips the degree check
        (_three_gens(differentials={"c": "a^b^a"}), None),
        # no expression could name these generators
        *[
            (_gen_doc(generators=[{"name": name, "degree": 1}]), f"generator name {name!r} contains {ch!r}")
            for name, ch in [("a+b", "+"), ("a-b", "-"), ("2*a", "*"), ("a^b", "^"), ("a b", " "), ("a\tb", "\t"), ("a\nb", "\n")]
        ],
        (_gen_doc(generators=[{"name": "", "degree": 1}]), "generator name '' is empty"),
    ],
)
def test_generator_form_rejection_messages(doc, message):
    if message is None:
        assert model_from_dict(doc).dims == (1, 3, 3, 1)
        return
    with pytest.raises(ModelSchemaError) as err:
        model_from_dict(doc)
    assert str(err.value) == message


NON_INTEGER_DOCS = [
    (
        {
            "name": "g",
            "top_degree": 3.9,
            "generators": [{"name": "a", "degree": 1.5}, {"name": "b", "degree": True}],
        },
        "degree of generator 'a' must be an integer, got 1.5",
    ),
    (_gen_doc(generators=[{"name": "b", "degree": True}]), "degree of generator 'b' must be an integer, got True"),
    (_gen_doc(top_degree=3.9), "top_degree must be an integer, got 3.9"),
    (_gen_doc(top_degree=True), "top_degree must be an integer, got True"),
    (_gen_doc(top_degree=float("nan")), "top_degree must be an integer, got nan"),
    (_basis_doc(top_degree=1.5), "top_degree must be an integer, got 1.5"),
    (_basis_doc(top_degree=False), "top_degree must be an integer, got False"),
]


@pytest.mark.parametrize("doc,message", NON_INTEGER_DOCS)
def test_booleans_and_non_integral_numbers_rejected(doc, message):
    # int() alone would read true as 1 and cut 3.9 down to 3
    with pytest.raises(ModelSchemaError) as err:
        model_from_dict(doc)
    assert str(err.value) == message


def test_integers_and_integer_strings_accepted():
    gens = [{"name": "x", "degree": "1"}, {"name": "y", "degree": 1.0}]
    assert model_from_dict(_gen_doc(top_degree="2", generators=gens)).dims == (1, 2, 1)
    assert model_from_dict(_basis_doc(top_degree=1.0)).dims == (1, 1)


def test_every_basis_label_of_the_bundled_and_modelgen_models_parses():
    models = [bundled_model(name) for name in model_names()]
    models += [modelgen.random_model(seed) for seed in range(20)]
    for m in models:
        for p, labels in enumerate(m.labels):
            for label in labels:
                assert m.parse_form(label) == m.basis_form(label), (m.name, label)


# -- the layout the loaders hand the constructor ---------------------------------


def _layout_failure(n, labels, mult, diff):
    """The first part of the `CdgaModel` table layout that (n, labels, mult,
    diff) breaks, or None.  The constructor takes this layout as given."""
    if n < 0 or len(labels) != n + 1 or len(diff) != n + 1:
        return "degree count"
    dims = [len(ls) for ls in labels] + [0]
    if set(mult) != {(p, q) for p in range(n + 1) for q in range(n + 1 - p) if dims[p] and dims[q]}:
        return "product table keys"
    for (p, q), t in mult.items():
        if type(t) is not tuple or any(type(row) is not tuple for row in t):
            return f"product table ({p},{q}) not a tuple of tuples"
        if len(t) != dims[p] or any(len(row) != dims[q] for row in t):
            return f"product table ({p},{q}) shape"
        for row in t:
            for prod in row:
                ks = [k for k, _ in prod]
                if ks != sorted(set(ks)) or not all(0 <= k < dims[p + q] for k in ks):
                    return f"product in ({p},{q}) unsorted or out of range"
                if not all(type(c) is Fraction and c for _, c in prod):
                    return f"product in ({p},{q}) with a zero or inexact coefficient"
    for p, m in enumerate(diff):
        data = tuple(dense(row, m.cols) for row in m.sparse)
        if (m.rows, m.cols) != (dims[p + 1], dims[p]) or len(data) != m.rows:
            return f"d at degree {p} shape"
        if any(len(row) != m.cols for row in data):
            return f"d at degree {p} ragged"
    return None


def _handed_tables(make):
    """Every table set handed to the `CdgaModel` constructor, on the
    basis-form and the generator-form route alike, and every partial
    expansion modelgen reads, while make() runs."""
    tables = []
    real_init, real_expand = cdga.CdgaModel.__init__, cdga.expand_generators

    def init(self, name, *t):
        tables.append(t)
        real_init(self, name, *t)

    def expand(*args, **kwargs):
        tables.append(real_expand(*args, **kwargs))
        return tables[-1]

    with mock.patch.object(cdga.CdgaModel, "__init__", init), mock.patch.object(
        modelgen, "expand_generators", expand
    ):
        try:
            make()
        except ModelError:
            pass
    return tables


def _assert_layouts(make):
    tables = _handed_tables(make)
    for t in tables:
        assert _layout_failure(*t) is None
    return len(tables)


@pytest.mark.parametrize("name", model_names())
def test_bundled_loaders_hand_the_constructor_its_layout(name):
    assert _assert_layouts(lambda: bundled_model(name)) == 1


@pytest.mark.parametrize("k", [6, 7, 8])
def test_torus_loader_hands_the_constructor_its_layout(k):
    assert _assert_layouts(lambda: model_from_dict(_torus_doc(k))) == 1


def test_modelgen_models_and_partial_expansions_have_the_layout():
    handed = sum(_assert_layouts(lambda: modelgen.random_model(seed)) for seed in range(200))
    assert handed > 200


@given(st.one_of(_generator_docs, _basis_docs))
@settings(max_examples=300, deadline=None)
def test_fuzzed_documents_reach_the_constructor_with_its_layout(doc):
    _assert_layouts(lambda: model_from_dict(doc))


def test_sparse_basis_document_reaches_the_constructor_with_its_layout():
    # empty degrees, a zero result, a result that cancels and an unlisted product
    doc = _basis_doc(
        top_degree=4,
        basis={"0": ["1"], "2": ["x", "y"], "4": ["z"]},
        mult=[
            {"left": "1", "right": "1", "result": "1"},
            {"left": "1", "right": "x", "result": "x"},
            {"left": "x", "right": "1", "result": "x"},
            {"left": "1", "right": "y", "result": "y"},
            {"left": "y", "right": "1", "result": "y + x - x"},
            {"left": "1", "right": "z", "result": "z"},
            {"left": "z", "right": "1", "result": "z"},
            {"left": "x", "right": "y", "result": "0"},
        ],
    )
    (tables,) = _handed_tables(lambda: model_from_dict(doc))
    assert _layout_failure(*tables) is None
    assert tables[2][(2, 0)][1][0] == ((1, Fraction(1)),) and tables[2][(2, 2)][0][1] == ()
    # degrees 1 and 3 are empty: no block names them
    assert set(tables[2]) == {(0, 0), (0, 2), (0, 4), (2, 0), (2, 2), (4, 0)}


def _oracle_products(make):
    """(model, {(p, q): the products of every basis pair}) for a model built by
    make(): the insertion-sort oracle's table for a generator-form model, the
    document's listed products for a basis-form one."""
    calls = _builds(make)
    model = make()
    if calls:
        _, _, mult, _ = sorted_expansion(*calls[-1][0], **calls[-1][1])
        return model, mult
    with open(model_path(model.name), encoding="utf-8") as fh:
        doc = json.load(fh)
    mult = {
        (p, q): [[() for _ in model.labels[q]] for _ in model.labels[p]]
        for p in range(model.top_degree + 1)
        for q in range(model.top_degree + 1 - p)
    }
    for entry in doc["mult"]:
        (p, i), (q, j) = model.index_of(entry["left"]), model.index_of(entry["right"])
        mult[(p, q)][i][j] = model.parse_form(entry["result"]).part(p + q)
    return model, mult


_WEDGE_BUILDS = (
    [(name, lambda name=name: bundled_model(name)) for name in model_names()]
    + [("torus6", lambda: model_from_dict(_torus_doc(6)))]
    + [(f"random{seed}", lambda seed=seed: modelgen.random_model(seed)) for seed in range(20)]
)


@pytest.mark.parametrize("make", [b for _, b in _WEDGE_BUILDS], ids=[i for i, _ in _WEDGE_BUILDS])
def test_wedge_basis_matches_the_oracle_on_every_basis_pair(make):
    model, mult = _oracle_products(make)
    n, pairs = model.top_degree, 0
    for p in range(n + 1):
        for q in range(n + 1 - p):
            for i in range(model.dim(p)):
                for j in range(model.dim(q)):
                    assert model.wedge_basis(p, i, q, j) == mult[(p, q)][i][j], (p, i, q, j)
                    pairs += 1
    assert pairs > 0 and model.wedge_basis(n, 0, 1, 0) == ()


_ONE = {"left": "1", "right": "1", "result": "1"}


@pytest.mark.parametrize(
    "doc,message",
    [
        (_basis_doc(top_degree=3, basis={"0": ["1"], "3": ["a"], "03": ["b"]}), "basis degree 3 is listed twice"),
        (_basis_doc(basis={0: ["1"], "0": []}), "basis degree 0 is listed twice"),
        (_basis_doc(mult=[_ONE, _ONE]), "product '1'^'1' is listed twice"),
        (
            _basis_doc(
                top_degree=3,
                basis={"0": ["1"], "3": ["a"]},
                mult=[_ONE, {"left": "1", "right": "a", "result": "a"}, {"left": "1", "right": "a", "result": "2*a"}],
            ),
            "product '1'^'a' is listed twice",
        ),
        (
            _basis_doc(diff=[{"from": "1", "result": "0"}, {"from": "1", "result": "0"}]),
            "differential of '1' is listed twice",
        ),
    ],
)
def test_basis_document_repeated_entries_rejected(doc, message):
    with pytest.raises(ModelSchemaError) as err:
        model_from_dict(doc)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "doc",
    [
        _basis_doc(top_degree=-1, basis={}, mult=[]),
        _basis_doc(top_degree=-2),
        _gen_doc(top_degree=-1, generators=[]),
        _gen_doc(top_degree=-1),
    ],
)
def test_negative_top_degree_rejected(doc):
    with pytest.raises(ModelSchemaError) as err:
        model_from_dict(doc)
    assert str(err.value) == "top_degree must be >= 0"


def test_random_model_constructs_one_model_per_seed():
    real = cdga.CdgaModel.__init__
    for seed in range(50):
        names = []

        def counting(self, name, *tables):
            names.append(name)
            real(self, name, *tables)

        with mock.patch.object(cdga.CdgaModel, "__init__", counting):
            modelgen.random_model(seed)
        assert names == [f"random{seed}"]
