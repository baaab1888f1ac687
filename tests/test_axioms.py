"""The axiom checks of each loading route, against the fuller route as oracle.

A model expanded from generator form is a CDGA by construction except for
d o d = 0, so its load checks only that and takes the empty monomial as the
unit.  The basis-form route (the unit solve `_find_unit` and the full
`_validate`) is the oracle for it: on every generator model loaded here it
finds the same unit and accepts.

`CdgaModel._validate` checks Leibniz and associativity only with the first
factor in {e_0} u G for a connected model, G a basis of a complement of
A+ . A+ in A+.  The full scan over every basis element as a first factor
stays reachable as `_product_axiom_failure(_basis_elems())` and is the
oracle here: on valid models, on seeded random models and on single mutated
structure constants of small basis-form documents, both accept or both
reject, and the rejection message is the full scan's.  The mutated
documents come from modelgen models and from quotients A/zA by the
d-stable ideal of a closed form z, which need not be free.
"""

import copy
import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistss import cdga
from twistss.cdga import AlgebraError, CdgaModel, Form, model_from_dict
from twistss.linalg import SubspaceBasis, dense, kernel, sparse
from twistss.models import bundled_model, model_names
from twistss.modelgen import random_model


def _torus_doc(k):
    return {
        "name": f"torus{k}",
        "top_degree": k,
        "generators": [{"name": f"e{i}", "degree": 1} for i in range(1, k + 1)],
    }


def _verdicts(model):
    """(reduced, full): the first Leibniz/associativity failure of each scan, or None."""
    return (
        model._product_axiom_failure(model._first_factors()),
        model._product_axiom_failure(model._basis_elems()),
    )


def _labels(model, elems):
    return [model.label_of(p, i) for p, i in elems]


def _builds(tori):
    """(id, build) for the bundled models, modelgen seeds 0-19 and the given tori."""
    return (
        [(name, lambda name=name: bundled_model(name)) for name in model_names()]
        + [(f"random{s}", lambda s=s: random_model(s)) for s in range(20)]
        + [(f"torus{k}", lambda k=k: model_from_dict(_torus_doc(k))) for k in tori]
    )


def _over_builds(tori):
    builds = _builds(tori)
    return pytest.mark.parametrize("build", [b for _, b in builds], ids=[i for i, _ in builds])


@_over_builds((6, 7, 8, 9))
def test_basis_form_route_accepts_every_generator_model(build):
    model = build()
    assert model._find_unit() == model.unit == ((0, 1),)
    model._validate()


def _counting(monkeypatch, names):
    """Count the calls of the named `CdgaModel` methods."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(CdgaModel, name)

        def counted(self, *args, name=name, real=real):
            calls[name] += 1
            return real(self, *args)

        monkeypatch.setattr(CdgaModel, name, counted)
    return calls


BASIS_ROUTE = ("_find_unit", "_indecomposables", "_product_axiom_failure")


@_over_builds((6, 9))
def test_generator_load_skips_the_basis_form_checks(monkeypatch, build):
    calls = _counting(monkeypatch, BASIS_ROUTE + ("_check_d_squared",))
    model = build()
    if model.name == "sphere3":
        assert calls == dict.fromkeys(calls, 1)
    else:
        assert calls == {**dict.fromkeys(BASIS_ROUTE, 0), "_check_d_squared": 1}


def test_generator_document_with_nonzero_d_squared_rejected():
    # d e = a^b and d a = c^f, so d d e = c^f^b
    doc = {
        "name": "dd",
        "top_degree": 5,
        "generators": [{"name": g, "degree": 1} for g in ("a", "b", "c", "f", "e")],
        "differentials": {"a": "c^f", "e": "a^b"},
    }
    with pytest.raises(AlgebraError) as err:
        model_from_dict(doc)
    assert str(err.value) == "d o d != 0 on basis element 'e' of degree 1"


@st.composite
def _generator_documents(draw):
    """Generator documents whose differentials have the right degrees; many
    break d o d = 0."""
    degrees = draw(st.lists(st.sampled_from([1, 1, 3]), min_size=2, max_size=5))
    names = [f"g{i}" for i in range(len(degrees))]
    diffs = {}
    for g, deg in zip(names, degrees):
        monos = [
            "^".join(names[i] for i in s)
            for r in range(2, len(names) + 1)
            for s in itertools.combinations(range(len(names)), r)
            if sum(degrees[i] for i in s) == deg + 1
        ]
        if monos:
            terms = draw(st.lists(st.tuples(st.integers(-2, 2), st.sampled_from(monos)), max_size=3))
            if terms:
                diffs[g] = " + ".join(f"{c}*{m}" for c, m in terms)
    return {
        "name": "fuzz",
        "top_degree": sum(degrees),
        "generators": [{"name": g, "degree": d} for g, d in zip(names, degrees)],
        "differentials": diffs,
    }


def _outcome(doc):
    try:
        model = model_from_dict(doc)
    except AlgebraError as err:
        return str(err)
    return model.unit, model.dims, model.diff


@given(_generator_documents())
@settings(max_examples=200, deadline=None)
def test_generator_documents_load_as_through_the_basis_form_route(doc):
    new = _outcome(doc)
    with mock.patch.object(cdga, "_GeneratorModel", CdgaModel):
        assert _outcome(doc) == new


@_over_builds((6, 7, 8))
def test_reduced_check_agrees_with_full_scan_on_valid_models(build):
    model = build()
    assert _verdicts(model) == (None, None)
    if model.dim(0) == 1:
        firsts = model._first_factors()
        assert firsts[0] == (0, 0)


def test_indecomposables_of_torus8_and_heisenberg():
    torus8 = model_from_dict(_torus_doc(8))
    assert _labels(torus8, torus8._indecomposables()) == [f"e{i}" for i in range(1, 9)]
    heis = bundled_model("heisenberg")
    assert _labels(heis, heis._indecomposables()) == ["a", "b", "c"]
    assert _labels(heis, heis._first_factors()) == ["1", "a", "b", "c"]


def test_indecomposables_of_basis_and_higher_degree_models():
    sphere = bundled_model("sphere3")
    assert _labels(sphere, sphere._indecomposables()) == ["u"]
    su3xsu3 = bundled_model("su3xsu3")
    assert _labels(su3xsu3, su3xsu3._indecomposables()) == ["x3", "y3", "x5", "y5"]
    # CP^2 = Q[x]/(x^3) with |x| = 2: the square x^2 = y is decomposable
    cp2 = model_from_dict({
        "name": "cp2",
        "top_degree": 4,
        "basis": {"0": ["1"], "2": ["x"], "4": ["y"]},
        "mult": [
            {"left": "1", "right": "1", "result": "1"},
            {"left": "1", "right": "x", "result": "x"},
            {"left": "x", "right": "1", "result": "x"},
            {"left": "1", "right": "y", "result": "y"},
            {"left": "y", "right": "1", "result": "y"},
            {"left": "x", "right": "x", "result": "y"},
        ],
    })
    assert _labels(cp2, cp2._indecomposables()) == ["x"]


def test_nonzero_differential_of_the_unit_rejected():
    # d(1) = t with d t = 0 passes d o d and commutativity; only Leibniz on
    # (e_0, e_0) sees it: d(1 1) = t but d1 1 + 1 d1 = 2t
    doc = {
        "name": "dunit",
        "top_degree": 1,
        "basis": {"0": ["1"], "1": ["t"]},
        "mult": [
            {"left": "1", "right": "1", "result": "1"},
            {"left": "1", "right": "t", "result": "t"},
            {"left": "t", "right": "1", "result": "t"},
        ],
        "diff": [{"from": "1", "result": "t"}],
    }
    with pytest.raises(AlgebraError) as err:
        model_from_dict(doc)
    assert str(err.value) == "Leibniz rule fails on '1' ^ '1'"


# -- random basis-form documents with one mutated structure constant -----------


def _sheared_tables(model, rng):
    """Products and differentials of `model` in a randomly sheared basis.

    In some degrees one basis element e_i is replaced by f_i = e_i + lam e_k,
    so that products of basis elements are no longer single basis elements
    and a basis element outside G need not be a product.  Returns two dicts,
    keyed by label pairs and by labels, of sparse {index: coefficient}
    coordinates in the sheared basis.
    """
    shears = {}
    for r in range(1, model.top_degree + 1):
        if model.dim(r) >= 2 and rng.random() < 0.7:
            i, k = rng.sample(range(model.dim(r)), 2)
            shears[r] = (i, k, Fraction(rng.choice([-1, 1, 2])))

    def element(p, i):
        v = [Fraction(0)] * model.dim(p)
        v[i] = Fraction(1)
        if shears.get(p, (None,))[0] == i:
            v[shears[p][1]] += shears[p][2]
        return Form(model, {p: sparse(v)})

    def coords(form, r):
        v = list(dense(form.part(r), model.dim(r)))
        if r in shears:
            i, k, lam = shears[r]
            v[k] -= lam * v[i]
        return {j: c for j, c in enumerate(v) if c}

    elems = model._basis_elems()
    products = {
        (model.label_of(p, i), model.label_of(q, j)): coords(element(p, i).wedge(element(q, j)), p + q)
        for p, i in elems
        for q, j in elems
        if p + q <= model.top_degree
    }
    diffs = {
        model.label_of(p, i): coords(element(p, i).d(), p + 1)
        for p, i in elems
        if p < model.top_degree
    }
    return products, diffs


def _basis_document(model, top, products, diffs, name):
    """A basis-form document on the labels of `model`, truncated to degree `top`."""

    def combo(r, terms):
        return " + ".join(f"{c}*{model.label_of(r, k)}" for k, c in sorted(terms.items()) if c)

    mult = [
        {"left": left, "right": right, "result": combo(model.index_of(left)[0] + model.index_of(right)[0], t)}
        for (left, right), t in products.items()
        if model.index_of(left)[0] + model.index_of(right)[0] <= top and any(t.values())
    ]
    diff = [
        {"from": lab, "result": combo(model.index_of(lab)[0] + 1, t)}
        for lab, t in diffs.items()
        if model.index_of(lab)[0] < top and any(t.values())
    ]
    basis = {str(p): list(model.labels[p]) for p in range(top + 1)}
    return {"name": name, "top_degree": top, "basis": basis, "mult": mult, "diff": diff}


def _mutated_document(seed, model=None):
    """A small truncated model with one structure constant changed symmetrically.

    The model is `model`, or a modelgen model of the seed.  The product b c
    gains delta at one coordinate and c b gains (-1)^(pq) delta, so graded
    commutativity still holds; d and the unit rows are untouched, so the
    document reaches the Leibniz and associativity checks.
    """
    rng = random.Random(seed)
    if model is None:
        model = random_model(seed, max_gens=4)
    products, diffs = _sheared_tables(model, rng)
    top = rng.randint(max(2, model.top_degree - 2), model.top_degree)

    def pairs(top):
        return [
            ((p, i), (q, j))
            for p, i in model._basis_elems()
            for q, j in model._basis_elems()
            if p >= 1 and q >= 1 and p + q <= top and model.dim(p + q)
            and (p, i) <= (q, j) and not ((p, i) == (q, j) and p % 2)
        ]

    if not pairs(top):
        top = model.top_degree
    (p, i), (q, j) = rng.choice(pairs(top))
    k = rng.randrange(model.dim(p + q))
    delta = Fraction(rng.choice([-2, -1, 1, 2]))
    b, c = model.label_of(p, i), model.label_of(q, j)
    sign = -1 if p % 2 and q % 2 else 1
    for key, d in (((b, c), delta), ((c, b), sign * delta)):
        terms = products[key] = dict(products[key])
        terms[k] = terms.get(k, 0) + d
        if b == c:
            break
    return _basis_document(model, top, products, diffs, f"mutated{seed}")


def _unchecked_model(monkeypatch, doc):
    with monkeypatch.context() as mp:
        mp.setattr(CdgaModel, "_validate", lambda self: None)
        return model_from_dict(doc)


def test_sheared_truncated_basis_documents_are_valid():
    for seed in range(10):
        model = random_model(seed, max_gens=4)
        products, diffs = _sheared_tables(model, random.Random(seed))
        for top in range(model.top_degree + 1):
            truncated = model_from_dict(_basis_document(model, top, products, diffs, f"trunc{seed}"))
            assert truncated.dims == model.dims[: top + 1]
            assert _verdicts(truncated) == (None, None)


SWEEP = 200


def _sweep(monkeypatch, docs):
    """Load each document with and without validation; the reduced and full
    scans must agree, and a rejection must carry the full scan's message.
    Returns (rejections, rejections whose first factor lies outside {e_0} u G)."""
    rejected = outside = 0
    for doc in docs:
        raw = _unchecked_model(monkeypatch, doc)
        reduced, full = _verdicts(raw)
        try:
            model_from_dict(doc)
            message = None
        except AlgebraError as err:
            message = str(err)
        assert (reduced is None) == (full is None), (doc["name"], reduced, full)
        assert message == full, (doc["name"], message, full)
        if full is not None:
            rejected += 1
            # the witness's first factor is the first quoted label
            if full.split("'")[1] not in _labels(raw, raw._first_factors()):
                outside += 1
    return rejected, outside


def test_mutated_structure_constant_rejected_alike(monkeypatch):
    rejected, outside = _sweep(monkeypatch, (_mutated_document(seed) for seed in range(SWEEP)))
    # a rejection whose first full-scan witness has its first factor
    # outside {e_0} u G is one the reduced check finds only through the
    # induction, at another witness
    print(f"{rejected} of {SWEEP} mutations rejected; {outside} with a first factor outside {{e_0}} u G")
    assert rejected >= SWEEP // 4 and outside >= 1


def _padded(model):
    """A copy of model whose product table has a block for every pair (p, q)
    with p + q <= top degree, the pairs with an empty degree included."""
    n = model.top_degree
    full = copy.copy(model)
    full._mult = {
        (p, q): model._mult.get((p, q), tuple(((),) * model.dim(q) for _ in range(model.dim(p))))
        for p in range(n + 1)
        for q in range(n + 1 - p)
    }
    return full


def test_missing_product_blocks_read_as_zero_products(monkeypatch):
    # the table holds blocks only for pairs of nonempty degrees; every check
    # that can meet an empty degree names the same first witness on the full table
    docs = [_mutated_document(seed) for seed in range(SWEEP)]
    docs += [doc for _, doc in _quotients()]
    missing = 0
    for doc in docs:
        raw = _unchecked_model(monkeypatch, doc)
        full = _padded(raw)
        missing += len(full._mult) - len(raw._mult)
        assert raw._find_unit() == full._find_unit(), doc["name"]
        assert raw._indecomposables() == full._indecomposables(), doc["name"]
        assert _verdicts(raw) == _verdicts(full), doc["name"]
    assert missing > 0


# -- quotients by a d-stable ideal ---------------------------------------------------


def _quotient_document(model, z, name):
    """A/zA for a nonzero closed form z of degree k >= 1, as a basis-form document.

    zA is spanned in degree r by the products z e, e a basis element of
    degree r - k.  It is an ideal (graded commutativity makes it two-sided)
    and d-stable, since d(z a) = (-1)^k z da for closed z.  The quotient's
    basis in degree r is the basis elements that are not pivots of zA's RREF
    in degree r; a product or a differential is reduced modulo zA, which
    leaves it a combination of those basis elements.
    """
    n, k = model.top_degree, z.degree
    ideal = [
        SubspaceBasis.span(model.dim(r), [z.wedge(model.basis_form(lab)).part(r) for lab in model.labels[r - k]])
        if r >= k
        else SubspaceBasis.zero(model.dim(r))
        for r in range(n + 1)
    ]
    kept = [lab for r in range(n + 1) for i, lab in enumerate(model.labels[r]) if i not in ideal[r].pivots]

    def combo(form, r):
        w = ideal[r].reduce(form.part(r))
        return " + ".join(f"{c}*{model.label_of(r, i)}" for i, c in w)

    def degree(lab):
        return model.index_of(lab)[0]

    mult, diff = [], []
    for left in kept:
        x = model.basis_form(left)
        if degree(left) < n and (result := combo(x.d(), degree(left) + 1)):
            diff.append({"from": left, "result": result})
        for right in kept:
            r = degree(left) + degree(right)
            if r <= n and (result := combo(x.wedge(model.basis_form(right)), r)):
                mult.append({"left": left, "right": right, "result": result})
    basis = {str(r): [lab for lab in model.labels[r] if lab in kept] for r in range(n + 1)}
    return {"name": name, "top_degree": n, "basis": basis, "mult": mult, "diff": diff}


def _closed_form(model, rng):
    """A random nonzero closed form of a random degree >= 1."""
    choices = [(p, kernel(model.d_mat(p))) for p in range(1, model.top_degree + 1)]
    p, closed = rng.choice([(p, k) for p, k in choices if k.dim])
    while True:
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(closed.dim)]
        if any(coeffs):
            break
    v = [Fraction(0)] * model.dim(p)
    for c, row in zip(coeffs, closed.sparse):
        v = [x + c * y for x, y in zip(v, dense(row, closed.ambient_dim))]
    return Form(model, {p: sparse(v)})


QUOTIENTS = 60


def _quotients():
    """(source, quotient document) for modelgen models and torus4 and torus5."""
    sources = [random_model(seed, max_gens=4) for seed in range(QUOTIENTS - 10)]
    sources += [model_from_dict(_torus_doc(k)) for k in (4, 5) for _ in range(5)]
    for seed, model in enumerate(sources):
        z = _closed_form(model, random.Random(seed))
        yield model, _quotient_document(model, z, f"{model.name}/({z})")


def test_quotients_by_a_d_stable_ideal_load():
    for source, doc in _quotients():
        model = model_from_dict(doc)
        assert model.dims == tuple(len(doc["basis"][str(p)]) for p in range(doc["top_degree"] + 1))
        assert model.dim(0) == 1 and model.total_dim < source.total_dim
        assert _verdicts(model) == (None, None)


def _has_mutable_product(model):
    """Whether `_mutated_document` finds a product b c to change: b, c of
    degrees p, q >= 1 with A^{p+q} != 0, and not b = c of odd degree."""
    n = model.top_degree
    return any(
        model.dim(p) and model.dim(q) and model.dim(p + q) and (p != q or p % 2 == 0 or model.dim(p) >= 2)
        for p in range(1, n + 1)
        for q in range(p, n + 1 - p)
    )


def test_mutated_quotient_structure_constant_rejected_alike(monkeypatch):
    models = [model_from_dict(doc) for _, doc in _quotients()]
    mutated = [_mutated_document(seed, m) for seed, m in enumerate(models) if _has_mutable_product(m)]
    rejected, outside = _sweep(monkeypatch, mutated)
    print(f"{rejected} of {len(mutated)} quotient mutations rejected; {outside} outside {{e_0}} u G")
    assert len(mutated) >= len(models) // 2 and rejected >= len(mutated) // 4


# -- a model that is not connected ---------------------------------------------------


def _product_doc(mutate=False):
    """Q x Lambda(e1, e2, e3): orthogonal idempotents e and f in degree 0, unit e + f.

    The Lambda factor is torus3 with its unit renamed f.  With `mutate`, the
    product of e1^e2 and e3 (both ways round) is doubled.
    """
    t3 = bundled_model("torus3")

    def label(p, i):
        return "f" if p == 0 else t3.label_of(p, i)

    mult = [{"left": "e", "right": "e", "result": "e"}]
    for p, i in t3._basis_elems():
        for q, j in t3._basis_elems():
            prod = t3.wedge_basis(p, i, q, j)
            if prod:
                scale = 2 if mutate and {label(p, i), label(q, j)} == {"e1^e2", "e3"} else 1
                result = " + ".join(f"{scale * c}*{label(p + q, k)}" for k, c in prod)
                mult.append({"left": label(p, i), "right": label(q, j), "result": result})
    basis = {"0": ["e", "f"], **{str(p): list(t3.labels[p]) for p in range(1, 4)}}
    return {"name": "q_x_torus3", "top_degree": 3, "basis": basis, "mult": mult, "diff": []}


def test_non_connected_model_validates_through_the_full_scan():
    model = model_from_dict(_product_doc())
    assert model.dims == (2, 3, 3, 1)
    assert model._first_factors() == model._basis_elems()
    assert model.unit == ((0, 1), (1, 1))


def test_non_connected_mutated_product_rejected_with_the_full_scan_message(monkeypatch):
    # (e1 e2) e3 = 2 e1^e2^e3 but e1 (e2 e3) = e1^e2^e3
    doc = _product_doc(mutate=True)
    raw = _unchecked_model(monkeypatch, doc)
    assert raw._first_factors() == raw._basis_elems()
    with pytest.raises(AlgebraError) as err:
        model_from_dict(doc)
    assert str(err.value) == "associativity fails on 'e1', 'e2', 'e3'"
    assert str(err.value) == raw._product_axiom_failure(raw._basis_elems())
