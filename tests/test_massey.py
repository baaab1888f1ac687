import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

import twistss.cdga
import twistss.indet
import twistss.linalg
import twistss.massey
import twistss.spectral
import twistss.twist

from twistss import (
    DefiningSystem,
    DefiningSystemError,
    MasseyError,
    SpectralSequence,
    banded_defining_system,
    bar,
    diagonal_defining_system,
    parse_twist,
    perturbed_banded_system,
    related_cocycle,
    specific_element,
    triple_product,
    validate_defining_system,
    verify_main_theorems,
)
from twistss.cdga import Form
from twistss.linalg import solve_particular
from twistss.modelgen import random_model, random_twist
from twistss.models import bundled_model, standard_pairs
from twistss.report import check_massey, run_analysis
from twistss.twist import BlockSpace

from lift_oracle import resolve_tail


def make_ss(name, expr):
    m = bundled_model(name)
    return SpectralSequence(m, parse_twist(m, expr))


# -- bar -----------------------------------------------------------------------


def test_bar_signs():
    m = bundled_model("heisenberg")
    a = m.basis_form("a")  # degree 1
    ab = m.parse_form("a^b")  # degree 2
    assert bar(a) == a
    assert bar(ab) == -1 * ab
    assert bar(bar(ab)) == ab
    assert bar(m.zero_form()).is_zero


def test_bar_rejects_inhomogeneous():
    m = bundled_model("heisenberg")
    with pytest.raises(MasseyError):
        bar(m.parse_form("a + a^b"))


# -- triple products --------------------------------------------------------------


def test_heisenberg_triple_product():
    m = bundled_model("heisenberg")
    a, b = m.basis_form("a"), m.basis_form("b")
    tp = triple_product(a, b, b)
    assert tp.v1 == m.basis_form("c")
    assert tp.v2.is_zero
    assert tp.omega == m.basis_form("c").wedge(b)
    assert not tp.is_zero_class
    assert tp.degree == 2


def test_triple_product_zero_when_products_vanish():
    m = bundled_model("torus3")
    e1 = m.basis_form("e1")
    tp = triple_product(e1, e1, e1)
    assert tp.v1.is_zero and tp.v2.is_zero and tp.omega.is_zero
    assert tp.is_zero_class


def test_triple_product_requires_vanishing_products():
    m = bundled_model("torus3")
    with pytest.raises(MasseyError, match="nonzero"):
        triple_product(m.basis_form("e1"), m.basis_form("e2"), m.basis_form("e3"))


def test_triple_product_requires_closed():
    m = bundled_model("heisenberg")
    with pytest.raises(MasseyError, match="closed"):
        triple_product(m.basis_form("c"), m.basis_form("a"), m.basis_form("b"))


def test_triple_indeterminacy_containment():
    m = bundled_model("cascade3")
    a, x = m.basis_form("a"), m.basis_form("x")
    tp = triple_product(a, x, x)  # d v1 = a^x has v1 = v; x^x = 0
    assert tp.v1 == m.basis_form("v")
    from twistss.linalg import kernel

    for row in kernel(m.d_mat(5)).sparse:
        z = Form(m, {5: row})
        omega2 = bar(tp.v1 + z).wedge(x) + bar(a).wedge(tp.v2)
        delta = omega2 - tp.omega
        if delta.is_zero:
            continue
        coords = tp.cohomology.project(delta.part(tp.degree))
        assert tp.indeterminacy.contains(coords)


# pinned from the direct formula that built triple products before they were
# 3-fold defining systems: the number of defined triples of closed basis forms
# and the sha256 of repr([(i, j, k, degree, coords, indeterminacy rows)])
TRIPLE_DIGESTS = {
    "heisenberg": (186, "03428b69ff1dec71e4a639a509c55200c0c91ec25d66b455519007947684c8d3"),
    "torus3": (205, "2cdc9db8753a64e11eb9df54335dbf37be5c6c4b7778ed4ccc030c59f6d29af4"),
    "cascade3": (186, "0841f585310304f3b0e9c907072f365120314c97379bfa477a25add1500001df"),
}


@pytest.mark.parametrize("name", sorted(TRIPLE_DIGESTS))
def test_triple_product_matches_the_direct_formula(name):
    # the 3-fold defining system gives the representative of the direct
    # formula, its class, and the class and indeterminacy pinned above
    m = bundled_model(name)
    basis = [m.part_form(p, row) for p in range(m.top_degree + 1) for row in m.de_rham(p).ambient.sparse]
    seen = []
    for i, x1 in enumerate(basis):
        for j, x2 in enumerate(basis):
            for k, x3 in enumerate(basis):
                try:
                    tp = triple_product(x1, x2, x3)
                except MasseyError:
                    continue
                omega = bar(tp.v1).wedge(x3) + bar(x1).wedge(tp.v2)
                assert tp.omega == omega, (i, j, k)
                if tp.degree <= m.top_degree:
                    assert tp.coords == m.de_rham(tp.degree).project(omega.part(tp.degree))
                seen.append((i, j, k, tp.degree, tp.coords, tp.indeterminacy.sparse))
    count, digest = TRIPLE_DIGESTS[name]
    assert len(seen) == count
    assert hashlib.sha256(repr(seen).encode()).hexdigest() == digest


# -- defining systems ---------------------------------------------------------------


def test_triple_product_defining_system():
    m = bundled_model("heisenberg")
    a, b = m.basis_form("a"), m.basis_form("b")
    tp = triple_product(a, b, b)
    system = DefiningSystem(
        m,
        [1, 1, 1],
        {
            (1, 1): a,
            (2, 2): b,
            (3, 3): b,
            (1, 2): tp.v1,
            (2, 3): tp.v2,
        },
    )
    c = validate_defining_system(system)
    assert c == tp.omega


def test_all_zero_off_diagonal_system():
    m = bundled_model("torus3")
    e1 = m.basis_form("e1")
    system = DefiningSystem(
        m,
        [1, 1, 1],
        {
            (1, 1): e1,
            (2, 2): e1,
            (3, 3): e1,
            (1, 2): m.zero_form(),
            (2, 3): m.zero_form(),
        },
    )
    assert validate_defining_system(system).is_zero


def test_wrong_degree_entry_rejected():
    m = bundled_model("heisenberg")
    a, b = m.basis_form("a"), m.basis_form("b")
    system = DefiningSystem(
        m,
        [1, 1, 1],
        {
            (1, 1): a,
            (2, 2): b,
            (3, 3): b,
            (1, 2): m.parse_form("a^b"),  # degree 2, slot wants 1
            (2, 3): m.zero_form(),
        },
    )
    with pytest.raises(DefiningSystemError, match="degree"):
        validate_defining_system(system)


def test_differential_condition_violation_named():
    m = bundled_model("heisenberg")
    a, b, c = m.basis_form("a"), m.basis_form("b"), m.basis_form("c")
    system = DefiningSystem(
        m,
        [1, 1, 1],
        {
            (1, 1): a,
            (2, 2): b,
            (3, 3): b,
            (1, 2): m.zero_form(),  # should be c (d c = a^b != 0)
            (2, 3): m.zero_form(),
        },
    )
    with pytest.raises(DefiningSystemError, match=r"\(1,2\)"):
        validate_defining_system(system)


def test_corner_entry_rejected():
    m = bundled_model("heisenberg")
    with pytest.raises(DefiningSystemError):
        DefiningSystem(m, [1, 1, 1], {(1, 3): m.basis_form("a")})


# -- the banded family -----------------------------------------------------------------


def test_banded_system_torus3():
    ss = make_ss("torus3", "e1^e2^e3")
    e1 = ss.model.basis_form("e1")
    system = banded_defining_system(ss, e1, 1)
    c = validate_defining_system(system)
    assert c.is_zero  # H wedge e1 = 0 and there is no degree-5 component
    deg, cls = specific_element(system, c)
    assert deg == 1 + 5 and cls == ()


def test_banded_system_untwisted():
    ss = make_ss("heisenberg", "")
    a = ss.model.basis_form("a")
    system = banded_defining_system(ss, a, 1)
    assert validate_defining_system(system).is_zero


def test_banded_system_cascade3():
    ss = make_ss("cascade3", "a")
    m = ss.model
    x = m.basis_form("x")
    system = banded_defining_system(ss, x, 1)
    c = validate_defining_system(system)
    # c(A) = -H3 ^ x^{(1)} with x^{(1)} = -v, so c(A) = a^v
    assert c == m.parse_form("a^v")
    # d_5[x] = (-1)^1 [c(A)] = -[a^v]
    d5 = ss.differential(5, x)
    assert ss.representative(d5) == -1 * m.parse_form("a^v")


def test_banded_entries_carry_twist_components():
    ss = make_ss("mixed5", "a + b")
    m = ss.model
    system = banded_defining_system(ss, m.basis_form("x"), 1)
    assert system.entry(1, 1) == m.basis_form("a")
    assert system.entry(1, 2) == -1 * m.basis_form("b")
    assert system.entry(2, 3) == m.basis_form("v")  # -x^{(1)} with x^{(1)} = -v
    assert system.entry(3, 3) == m.basis_form("x")


def test_banded_system_requires_survival():
    ss = make_ss("torus3", "e1^e2^e3")
    from twistss.spectral import PageError

    with pytest.raises(PageError, match="survive"):
        banded_defining_system(ss, ss.model.unit_form(), 1)


# -- the diagonal family ----------------------------------------------------------------


def test_diagonal_system_cascade5():
    ss = make_ss("cascade5", "a")
    m = ss.model
    x = m.basis_form("x")
    system = diagonal_defining_system(ss, x, 3, 2)
    assert system.size == 3
    assert system.entry(1, 1) == m.basis_form("a")
    assert system.entry(1, 2).is_zero
    assert system.entry(2, 3) == m.basis_form("v")  # -x^{(1)}_{p+4} = v
    c = validate_defining_system(system)
    assert c == m.parse_form("a^v")
    # d_9[x] = (-1)^{l-1} [c(B)] = -[a^v]
    assert ss.representative(ss.differential(9, x)) == -1 * m.parse_form("a^v")


def dedicated_sparse_tail(ss, x_p, t, s):
    """Reference: the tail at degree steps 2s from a stacked solve of only
    the equations d x_{p+2is} = -H ^ x_{p+2(i-1)s}, free variables zeroed."""
    p = x_p.degree
    var_degs = [p + 2 * i * s for i in range(1, t // s + 1) if p + 2 * i * s <= ss.n]
    cond_degs = [d + 1 for d in var_degs if d + 1 <= ss.n]
    assert x_p.d().is_zero
    if not var_degs or not cond_degs:
        return {}
    dom = BlockSpace(ss.model, var_degs)
    cod = BlockSpace(ss.model, cond_degs)
    rhs = tuple((j, -c) for j, c in cod.pack(ss.op.apply(x_p)))
    sol = solve_particular(ss.op.matrix(dom, cod), rhs)
    assert sol is not None
    solved = dom.unpack(sol)
    return {i + 1: solved.homogeneous_part(d) for i, d in enumerate(var_degs)}


@pytest.mark.parametrize(
    "name,expr,s",
    [("cascade3", "a", 1), ("cascade5", "a", 2), ("cascade7", "a", 3), ("su3xsu3", "x5", 2)],
)
def test_diagonal_tail_matches_dedicated_sparse_solve(name, expr, s):
    ss = make_ss(name, expr)
    m = ss.model
    checked = 0
    for t in range(2 * s - 1, (ss.max_page - 3) // 2 + 1, s):  # t = l s - 1, l >= 2
        r = 2 * t + 3
        for p in range(ss.n + 1):
            # the page classes, and a basis of Z_r so a page with no classes left
            # still checks its boundaries
            for rep in ss.cell(r, p).sparse_reps + ss.cycles(r, p).sparse:
                x = Form(m, {p: rep})
                system = diagonal_defining_system(ss, x, t, s)
                tail = dedicated_sparse_tail(ss, x, t, s)
                size = system.size
                for i in range(2, size):
                    want = Fraction(-1) ** (size - i) * tail.get(size - i, m.zero_form())
                    assert system.entry(i, size) == want, (t, p, i)
                checked += 1
    assert checked > 0


def test_diagonal_system_rejects_bad_t():
    ss = make_ss("cascade5", "a")
    x = ss.model.basis_form("x")
    with pytest.raises(MasseyError, match="l\\*s - 1"):
        diagonal_defining_system(ss, x, 2, 2)
    with pytest.raises(MasseyError, match="l >= 2"):
        diagonal_defining_system(ss, x, 1, 2)


def test_diagonal_system_rejects_multi_component_twist():
    ss = make_ss("mixed5", "a + b")
    x = ss.model.basis_form("x")
    with pytest.raises(MasseyError, match="single"):
        diagonal_defining_system(ss, x, 3, 2)


# -- verification and independence ----------------------------------------------------------


@pytest.mark.parametrize(
    "name,expr,t",
    [
        ("cascade3", "a", 1),
        ("cascade5", "a", 1),
        ("cascade5", "a", 3),
        ("cascade7", "a", 5),
        ("mixed5", "a + b", 1),
        ("torus5", "e1^e2^e3^e4^e5", 1),
        ("su3xsu3", "x5", 1),
        ("su3xsu3", "x3 + y5", 1),
    ],
)
def test_verify_main_theorems(name, expr, t):
    ss = make_ss(name, expr)
    # a class passes when no verdict of the report names a broken rule, and
    # the banded verdict checks every class of pages 5..2t+3
    banded, case, routes = check_massey(ss, 2 * t + 3)
    assert banded == (sum(len(verify_main_theorems(ss, u).checks) for u in range(1, t + 1)), None)
    assert case[1] is None and routes[1] is None


def test_perturbed_system_same_page_class_different_cocycle():
    ss = make_ss("mixed5", "a + b")
    m = ss.model
    x = m.basis_form("x")
    base = banded_defining_system(ss, x, 1)
    c1 = validate_defining_system(base)
    other = perturbed_banded_system(ss, x, 1)
    assert other is not None
    c2 = validate_defining_system(other)
    assert c1 != c2
    # different in cohomology...
    h = m.de_rham(8)
    assert h.project(c1.part(8)) != h.project(c2.part(8))
    # ...but the same class on the page
    cell = ss.cell(5, 8)
    assert cell.project(c1.part(8)) == cell.project(c2.part(8))


def fixed_head_perturbed_tail(ss, x_p, t):
    """Reference: the perturbed tail by one stacked solve per shift.

    The base zig-zag's head up to degree p + 2i plus a closed form z of that
    degree is fixed and the components past it are re-solved with free
    variables zeroed, for the first i and z that solve.
    """
    model, p, reach = ss.model, x_p.degree, 2 * t + 3
    base = ss.lift_zigzag(x_p, reach)
    for i in range(1, t + 1):
        deg = p + 2 * i
        if deg > ss.n:
            break
        for z_row in model.de_rham(deg).ambient.sparse:
            fixed = Form(model, {deg: z_row})
            for j in range(0, i + 1):
                fixed = fixed + base.form.homogeneous_part(p + 2 * j)
            free = [p + 2 * j for j in range(i + 1, (ss.n - p) // 2 + 1)]
            resolved = resolve_tail(ss, fixed, reach, free)
            if resolved is not None:
                return resolved
    return None


def perturbed_oracle_pairs():
    for name, expr in standard_pairs():
        yield pytest.param(make_ss(name, expr), id=f"{name}/{expr}")
    # the first ten generated models with a page 5 (top degree at least 3)
    seeds = [seed for seed in range(11) if random_model(seed).top_degree >= 3]
    for seed in seeds:
        m = random_model(seed)
        yield pytest.param(SpectralSequence(m, random_twist(m, seed)), id=f"modelgen{seed}")


@pytest.mark.parametrize("ss", list(perturbed_oracle_pairs()))
def test_perturbed_system_matches_fixed_head_solve(ss):
    # every class and Z_r basis vector of every page 2t+3: the same system
    # exists, with the same last column, and its bands are the banded system's
    m = ss.model
    checked = 0
    for t in range(1, (ss.max_page - 3) // 2 + 1):
        r = 2 * t + 3
        for p in range(ss.n + 1):
            for rep in ss.cell(r, p).sparse_reps + ss.cycles(r, p).sparse:
                x = Form(m, {p: rep})
                system = perturbed_banded_system(ss, x, t)
                want = fixed_head_perturbed_tail(ss, x, t)
                assert (system is None) == (want is None), (t, p)
                checked += 1
                if system is None:
                    continue
                tail = {k: want.homogeneous_part(p + 2 * k) for k in range(1, (ss.n - p) // 2 + 1)}
                size = system.size
                banded = banded_defining_system(ss, x, t)
                for i in range(1, size + 1):
                    for j in range(i, size + 1):
                        if j < size or i in (1, size):
                            assert system.entry(i, j) == banded.entry(i, j), (t, p, i, j)
                        else:
                            part = tail.get(size - i, m.zero_form())
                            assert system.entry(i, j) == Fraction(-1) ** (size - i) * part, (t, p, i)
    assert checked > 0


def test_run_analysis_makes_no_particular_solve(monkeypatch):
    # every zig-zag, the Massey defining systems' included, is read off a
    # cycle kernel; only a model load solves (for its unit)
    calls = []

    def counting(*args):
        calls.append(args)
        return solve_particular(*args)

    pairs = []
    for name, expr in standard_pairs():
        m = bundled_model(name)
        pairs.append((m, parse_twist(m, expr)))
    for module in vars(twistss).values():  # every module binding of it
        if getattr(module, "solve_particular", None) is solve_particular:
            monkeypatch.setattr(module, "solve_particular", counting)
    for m, twist in pairs:
        run_analysis(m, twist)
    assert calls == []


def test_specific_element_lives_in_cohomology():
    ss = make_ss("cascade5", "a")
    x = ss.model.basis_form("x")
    system = diagonal_defining_system(ss, x, 3, 2)
    deg, cls = specific_element(system, validate_defining_system(system))
    assert deg == 14
    assert cls != () and any(c != 0 for c in cls)


def test_related_cocycle_closed_for_valid_systems():
    ss = make_ss("mixed5", "a + b")
    for p in range(ss.n + 1):
        for rep in ss.cell(5, p).sparse_reps:
            x = Form(ss.model, {p: rep})
            system = banded_defining_system(ss, x, 1)
            assert related_cocycle(system).d().is_zero


def _count_closed_form_kernels(monkeypatch, model):
    """Patch every module's `kernel` and count the calls on each d_mat(deg) of `model`."""
    calls = {}
    for module in (twistss.cdga, twistss.indet, twistss.massey, twistss.spectral, twistss.twist):
        original = getattr(module, "kernel", None)
        if original is None:
            continue

        def counting(m, _original=original):
            for deg in range(model.top_degree + 1):
                if m is model.d_mat(deg):
                    calls[deg] = calls.get(deg, 0) + 1
            return _original(m)

        monkeypatch.setattr(module, "kernel", counting)
    return calls


@pytest.mark.parametrize("name,expr", [("torus3", "e1^e2^e3"), ("heisenberg", "a^b^c")])
def test_closed_forms_come_from_the_cached_de_rham_space(monkeypatch, name, expr):
    m = bundled_model(name)
    twist = parse_twist(m, expr)
    calls = _count_closed_form_kernels(monkeypatch, m)
    rep = run_analysis(m, twist)
    # the massey defining systems read ker d from model.de_rham, which
    # computes it once per degree
    assert calls and max(calls.values()) == 1
    golden = json.loads(Path(__file__).with_name("golden_reports.json").read_text())
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == golden[f"{name}/{expr}"]["json"]


def piece_cases():
    for name, expr in standard_pairs():
        yield pytest.param(name, expr, id=f"{name}-{expr}")
    for seed in range(10):
        yield pytest.param("modelgen", seed, id=f"modelgen{seed}")


@pytest.mark.parametrize("name,arg", list(piece_cases()))
def test_piece_rows_are_the_columns_of_the_engines_blocks(name, arg):
    # entry i of piece (h, q) is e_i.d() for h = 1 and H_h ^ e_i through
    # CdgaModel.wedge otherwise, and D from degree q into q + h has exactly
    # those columns, read as columns and as the matrix's columns
    if name == "modelgen":
        m = random_model(arg)
        twist = random_twist(m, arg)
    else:
        m = bundled_model(name)
        twist = parse_twist(m, arg)
    op = twist.operator(m)
    for q in range(m.top_degree + 1):
        unit = [m.part_form(q, ((i, Fraction(1)),)) for i in range(m.dim(q))]
        for h in (1, *twist.degrees):
            if q + h > m.top_degree:
                assert h == 1 or op.piece(h, q) == (), (q, h)
                continue
            H_h = twist.component_form(h)
            want = tuple((e.d() if h == 1 else H_h.wedge(e)).part(q + h) for e in unit)
            assert op.piece(h, q) == want, (q, h)
            space = BlockSpace(m, [q])
            assert op.columns(space, q + h) == want, (q, h)
            assert op.matrix(space, BlockSpace(m, [q + h])).columns() == want, (q, h)


# -- the hoisted verification against the per-class oracle ------------------------------


def per_class_verification(ss, t):
    """Reference: every class builds and fully validates its own three systems.

    This is how `verify_main_theorems` ran before it shared one lift per
    class, one shift search per column and one band check per kind of
    system, and before it checked last columns as identities on the stored
    zig-zags; it is kept as the oracle for those shortcuts.
    """
    r = 2 * t + 3
    out = twistss.massey.MasseyVerification(t=t, r=r)
    single = ss.H.single_degree()
    s = (single - 1) // 2 if single is not None else None
    for p in range(ss.n + 1):
        for rep in ss.cell(r, p).sparse_reps:
            x = Form(ss.model, {p: rep})
            lhs = ss.differential(r, x)
            c_a = validate_defining_system(banded_defining_system(ss, x, t))
            coords_a = ss.page_coords(r, p + r, Fraction(-1) ** t * c_a)
            case_ok = routes_agree = independence_ok = None
            if s is not None:
                if t == s - 1:
                    cup = ss.H.component_form(2 * s + 1).wedge(x)
                    case_ok = lhs.coords == ss.page_coords(r, p + r, cup)
                elif (t + 1) % s == 0 and (t + 1) // s >= 2:
                    l = (t + 1) // s
                    c_b = validate_defining_system(diagonal_defining_system(ss, x, t, s))
                    coords_b = ss.page_coords(r, p + r, Fraction(-1) ** (l - 1) * c_b)
                    case_ok = lhs.coords == coords_b
                    routes_agree = coords_b == coords_a
                else:
                    case_ok = lhs.is_zero
            perturbed = perturbed_banded_system(ss, x, t)
            if perturbed is not None:
                c_a2 = validate_defining_system(perturbed)
                independence_ok = ss.page_coords(r, p + r, Fraction(-1) ** t * c_a2) == coords_a
            out.checks.append(twistss.massey.ClassCheck(
                p, lhs, lhs.coords == coords_a, case_ok, routes_agree, independence_ok
            ))
    return out


def torus_model(k):
    """The exterior algebra on k degree-1 generators e1..ek with d = 0."""
    doc = {
        "name": f"torus{k}",
        "top_degree": k,
        "generators": [{"name": f"e{i}", "degree": 1} for i in range(1, k + 1)],
    }
    return twistss.cdga.model_from_dict(doc)


def oracle_sequences():
    for name, expr in standard_pairs():
        yield pytest.param(name, expr, id=f"{name}/{expr}")
    for seed in range(20):
        yield pytest.param("modelgen", seed, id=f"modelgen{seed}")
    # wide models: many classes per column, and a perturbing shift in most
    for k in (6, 7):
        yield pytest.param(f"torus{k}", "e1^e2^e3", id=f"torus{k}/e1^e2^e3")


def oracle_ss(name, arg):
    if name == "modelgen":
        m = random_model(arg)
        return SpectralSequence(m, random_twist(m, arg))
    if name in ("torus6", "torus7"):
        m = torus_model(int(name[5:]))
        return SpectralSequence(m, parse_twist(m, arg))
    return make_ss(name, arg)


@pytest.mark.parametrize("name,arg", list(oracle_sequences()))
def test_verification_matches_per_class_oracle(name, arg):
    ss = oracle_ss(name, arg)
    for t in range(1, (ss.max_page - 3) // 2 + 1):
        assert verify_main_theorems(ss, t).checks == per_class_verification(ss, t).checks, t


def _record_lifts(monkeypatch):
    lifts = []
    lift = SpectralSequence.lift_zigzag

    def counting(ss, x_p, reach):
        lifts.append((x_p.degree, x_p.part(x_p.degree), reach))
        return lift(ss, x_p, reach)

    monkeypatch.setattr(SpectralSequence, "lift_zigzag", counting)
    return lifts


@pytest.mark.parametrize(
    "name,expr,t,shifted",
    [
        ("torus5", "e1^e2^e3^e4^e5", 1, True),
        ("torus5", "e1^e2^e3", 2, True),
        ("su3xsu3", "x5", 1, True),  # the cup-product case
        ("cascade5", "a", 3, False),  # the diagonal case; no shift lifts
    ],
)
def test_one_lift_per_class_and_one_shift_search_per_column(monkeypatch, name, expr, t, shifted):
    ss = make_ss(name, expr)
    r = 2 * t + 3
    ss.page(r)  # the d_r matrices read the same stored lifts
    lifts = _record_lifts(monkeypatch)
    read = []
    class_lifts = SpectralSequence.class_lifts

    def recording(ss, r, p):
        read.append((r, p))
        return class_lifts(ss, r, p)

    monkeypatch.setattr(SpectralSequence, "class_lifts", recording)
    checks = verify_main_theorems(ss, t).checks
    assert checks
    # each class's lift is read from storage, once per column, for all three
    # systems; no class is lifted again
    assert read == [(r, p) for p in range(ss.n + 1) if ss.cell(r, p).dim]
    assert [l for l in lifts if l[2] == r] == []
    # the shift candidates, lifted short of r, are searched once per column
    shifts = [l for l in lifts if l[2] < r]
    assert bool(shifts) == shifted
    assert len(shifts) == len(set(shifts))


@pytest.mark.parametrize("name,expr,t,kinds", [("cascade5", "a", 1, 1), ("cascade5", "a", 3, 2)])
def test_one_full_validation_per_kind(monkeypatch, name, expr, t, kinds):
    # the first system of each kind goes through the full scan; the others
    # have only their last column and c(A) checked
    full_scans = []
    validate = twistss.massey.validate_defining_system

    def counting_validate(system):
        full_scans.append(system.input_degrees[:-1])
        return validate(system)

    monkeypatch.setattr(twistss.massey, "validate_defining_system", counting_validate)
    ss = make_ss(name, expr)
    assert len(verify_main_theorems(ss, t).checks) >= 2
    assert len(full_scans) == len(set(full_scans)) == kinds


def test_verification_kept_per_sequence_and_t(monkeypatch):
    ss = make_ss("cascade5", "a")
    first = verify_main_theorems(ss, 3)
    lifts = _record_lifts(monkeypatch)
    assert verify_main_theorems(ss, 3) is first
    assert lifts == []
    assert ss.massey_verifications == {3: first}


def test_verification_needs_t_at_least_one():
    with pytest.raises(MasseyError, match="t >= 1"):
        verify_main_theorems(make_ss("cascade5", "a"), 0)


def _corrupt_band_degree(ss, system):
    system.entries[(1, 1)] = ss.model.unit_form()


def _corrupt_band_differential(ss, system):
    system.entries[(1, 2)] = system.entry(1, 2) + ss.model.basis_form("v")  # d v = a^x


def _corrupt_column_degree(ss, system):
    system.entries[(2, system.size)] = system.entry(system.size, system.size)


def _corrupt_band_and_column(ss, system):
    _corrupt_band_differential(ss, system)
    _corrupt_column_degree(ss, system)


@pytest.mark.parametrize(
    "corrupt,entry",
    [
        (_corrupt_band_degree, "entry (1,1) has degree"),
        (_corrupt_band_differential, "differential condition fails at entry (1,2)"),
        (_corrupt_column_degree, "entry (2,3) has degree"),
        # the band fails first, but the full scan names the column's degree
        (_corrupt_band_and_column, "entry (2,3) has degree"),
    ],
)
def test_hoisted_checks_name_the_full_scans_first_entry(monkeypatch, corrupt, entry):
    assemble = twistss.massey._assemble_banded

    def corrupted(ss, x_p, t, zz_form):
        system = assemble(ss, x_p, t, zz_form)
        corrupt(ss, system)
        return system

    monkeypatch.setattr(twistss.massey, "_assemble_banded", corrupted)
    with pytest.raises(DefiningSystemError) as full:
        per_class_verification(make_ss("mixed5", "a + b"), 1)
    with pytest.raises(DefiningSystemError) as hoisted:
        verify_main_theorems(make_ss("mixed5", "a + b"), 1)
    assert str(hoisted.value) == str(full.value)
    assert str(full.value).startswith(entry)


def _corrupt_stored_lift(ss, r, p, j, degree, i):
    """Add the basis vector e_i of `degree` to the stored lift of class j of E_r^p."""
    key = ss._cycle_key(p, r)
    z, lifts = ss._cycles[key]
    row = lifts.index(ss._rep_lifts(r, p, ss.cell(r, p))[j])
    e = ((ss._lift_space(p).offsets[degree] + i, Fraction(1)),)
    lifts = list(lifts)
    lifts[row] = twistss.linalg.combine(((0, Fraction(1)), (1, Fraction(1))), (lifts[row], e))
    ss._cycles[key] = (z, tuple(lifts))


def _same_error_as_the_oracle(make, t):
    """Run the oracle and `verify_main_theorems` on fresh corrupted sequences;
    both must raise the same `DefiningSystemError`, whose text is returned."""
    with pytest.raises(DefiningSystemError) as full:
        per_class_verification(make(), t)
    with pytest.raises(DefiningSystemError) as batched:
        verify_main_theorems(make(), t)
    assert str(batched.value) == str(full.value)
    return str(full.value)


@pytest.mark.parametrize(
    "name,arg,t,p,j,degree,i,entry",
    [
        # d T_1 + H_3 ^ x_p = 0 at (2,3) fails for the second class of column 8
        ("mixed5", "a + b", 1, 8, 1, 10, 0, "(2,3)"),
        # a non-closed T_1 breaks the conditions at (4,5) and (2,5); the full
        # scan names (2,5), the first in its order
        ("modelgen", 0, 3, 4, 1, 6, 1, "(2,5)"),
    ],
)
def test_corrupted_lift_of_a_later_class_names_the_oracles_entry(name, arg, t, p, j, degree, i, entry):
    # a non-closed basis vector is added to the tail of a class after the
    # first, whose system was validated in full and passes
    def make():
        ss = oracle_ss(name, arg)
        ss.page(2 * t + 3)
        assert ss.model.d_columns(degree)[i]
        _corrupt_stored_lift(ss, 2 * t + 3, p, j, degree, i)
        return ss

    assert _same_error_as_the_oracle(make, t) == f"differential condition fails at entry {entry}"


def test_corrupted_shift_names_the_oracles_entry(monkeypatch):
    # the perturbed systems are checked once per column, on the shift: a
    # non-closed vector in each shift's degree p + 2 breaks d T_1 + ... = 0
    # at (2,3) for every class with a shift, first for a class after the first
    shift = twistss.massey._perturbing_shift

    def corrupted(ss, p, t):
        zz = shift(ss, p, t)
        m = ss.model
        bad = [i for i, col in enumerate(m.d_columns(p + 2)) if col] if zz is not None else []
        if not bad:
            return zz
        e = m.part_form(p + 2, ((bad[0], Fraction(1)),))
        return twistss.spectral.ZigZag(zz.p, zz.form + e, zz.reach)

    monkeypatch.setattr(twistss.massey, "_perturbing_shift", corrupted)
    error = _same_error_as_the_oracle(lambda: make_ss("mixed5", "a + b"), 1)
    assert error == "differential condition fails at entry (2,3)"


def test_a_standard_shift_moves_the_cocycle_within_its_class():
    # independence is one fact per column, that the shift's c(A) projects
    # to 0; on mixed5 a + b that c(A) is a nonzero cocycle, so the fact is
    # not vacuous at chain level
    ss = make_ss("mixed5", "a + b")
    shift = twistss.massey._perturbing_shift(ss, 3, 1)
    failure, c = twistss.massey._last_column(ss.op, shift.form.parts, 3, 5, 2, 3)
    target = ss.cell(5, 8)
    assert failure is None and c and target.dim
    assert target.project(c) == ()
    assert all(check.independence_ok for check in verify_main_theorems(ss, 1).checks if check.p == 3)


def test_a_shift_with_a_nonzero_class_fails_the_massey_verdict(monkeypatch):
    # make each shift's c(A) a nonzero class of the target cell: every class
    # of that column must fail defining-system independence
    shift, last_column = twistss.massey._perturbing_shift, twistss.massey._last_column
    shifts, moved = [], []

    def recording(ss, p, t):
        zz = shift(ss, p, t)
        shifts.append((ss, zz))
        return zz

    def nonzero(op, parts, p, r, step, size):
        failure, c = last_column(op, parts, p, r, step, size)
        for ss, zz in shifts:
            if zz is not None and parts is zz.form.parts and ss.cell(r, p + r).dim:
                moved.append((p, r))
                return failure, ss.cell(r, p + r).sparse_reps[0]
        return failure, c

    monkeypatch.setattr(twistss.massey, "_perturbing_shift", recording)
    monkeypatch.setattr(twistss.massey, "_last_column", nonzero)
    m = bundled_model("mixed5")
    report = run_analysis(m, parse_twist(m, "a + b"))
    assert moved == [(3, 5)]
    assert report.verdicts["massey_differentials"].status == "fail"


def test_unclosed_cocycle_of_a_later_class_names_the_oracles_error():
    # In a CDGA the last-column conditions imply d c(A) = 0, so a corrupted
    # lift that keeps them keeps c(A) closed.  d itself is corrupted instead,
    # on degree 10, where only the c(A) of the second class of column 5 has
    # a component: every condition holds and only that cocycle is not
    # closed.  Both routes read d from the model's sparse columns.
    def make():
        ss = make_ss("su3xsu3", "x5")
        ss.page(5)
        m = ss.model
        cols = list(m._dcols)
        assert not any(cols[10]) and m.dim(11)
        cols[10] = (((0, Fraction(1)),),) + cols[10][1:]
        m._dcols = tuple(cols)
        return ss

    assert _same_error_as_the_oracle(make, 1) == "related cocycle is not closed"


# -- the defining-system sums walk only the stored nonzero entries ----------------


def _dense_bar_products(system, i, j):
    """The sum over every m, zero and absent entries included, as the oracle."""
    out = system.model.zero_form()
    for m in range(i, j):
        out = out + bar(system.entry(i, m)).wedge(system.entry(m + 1, j))
    return out


def _torus6_checks_and_wedges(monkeypatch, bar_products):
    """Every t's Massey checks of torus6 twisted by e1^e2^e3, and the number
    of `wedge` calls they make, with the given defining-system sums."""
    model = torus_model(6)
    ss = SpectralSequence(model, parse_twist(model, "e1^e2^e3"))
    ss.page(ss.max_page)
    wedges = []
    wedge = twistss.cdga.CdgaModel.wedge

    def counting(model, u, v):
        wedges.append(1)
        return wedge(model, u, v)

    with monkeypatch.context() as mp:
        mp.setattr(twistss.cdga.CdgaModel, "wedge", counting)
        mp.setattr(twistss.massey, "_bar_products", bar_products)
        checks = [verify_main_theorems(ss, t).checks for t in range(1, (ss.max_page - 3) // 2 + 1)]
    return checks, len(wedges)


def test_defining_system_sums_skip_zero_entries(monkeypatch):
    checks, wedges = _torus6_checks_and_wedges(monkeypatch, twistss.massey._bar_products)
    dense_checks, dense_wedges = _torus6_checks_and_wedges(monkeypatch, _dense_bar_products)
    assert checks == dense_checks and any(checks)
    assert wedges < dense_wedges


def test_massey_wedges_only_in_the_first_system_of_each_kind(monkeypatch):
    # the per-class `Form` route must not come back: on torus6 every wedge
    # the Massey checks make is made inside the full validation of the first
    # banded and the first diagonal system of each t (s = 1, so every t is
    # l s - 1 with l = t + 1)
    model = torus_model(6)
    ss = SpectralSequence(model, parse_twist(model, "e1^e2^e3"))
    ss.page(ss.max_page)
    validating, inside, outside, validated = [], [], [], []
    wedge = twistss.cdga.CdgaModel.wedge
    validate = twistss.massey.validate_defining_system

    def counting_wedge(model, u, v):
        (inside if validating else outside).append(1)
        return wedge(model, u, v)

    def counting_validate(system):
        validated.append(system)
        validating.append(system)
        try:
            return validate(system)
        finally:
            validating.pop()

    monkeypatch.setattr(twistss.cdga.CdgaModel, "wedge", counting_wedge)
    monkeypatch.setattr(twistss.massey, "validate_defining_system", counting_validate)
    ts = range(1, (ss.max_page - 3) // 2 + 1)
    checks = [verify_main_theorems(ss, t).checks for t in ts]
    assert all(len(c) > 2 for c in checks)
    assert outside == [] and inside
    assert len(validated) == 2 * len(ts)
