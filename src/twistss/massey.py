"""Massey products: defining systems, their related cocycles and classes.

Sign convention: for homogeneous x, ``bar(x) = (-1)^(1 + deg x) * x``.  A
defining system for an n-fold product <x_1, ..., x_n> is an upper-triangular
array a_{i,j} (1 <= i <= j <= n, (i,j) != (1,n)) with

* a_{i,i} = x_i,
* a_{i,j} of degree r_i + ... + r_j - (j - i),
* d(a_{i,j}) = sum over m of bar(a_{i,m}) wedge a_{m+1,j},

and its related cocycle is c(A) = sum over m of bar(a_{1,m}) wedge a_{m+1,n},
a closed form whose class is the Massey product element chosen by A
(`specific_element`).  A triple product <x1, x2, x3> is the 3-fold system
with v1 at (1, 2) and v2 at (2, 3), solved with zeroed free variables.

Two constructive families are provided, matching the two shapes of page
differentials of the twisted spectral sequence:

* `banded_defining_system` -- constant antidiagonal bands (-1)^k H_{2k+3}
  with a last column of zig-zag tail components; works for any twist and
  realizes d_{2t+3} as (-1)^t [c(A)] on the page.
* `diagonal_defining_system` -- for a single twist component H_{2s+1} and
  t = l s - 1 (l >= 2): constant diagonal, zero strict upper triangle away
  from the last column, tail components supported at degree steps of 2s;
  realizes d_{2t+3} as (-1)^(l-1) [c(B)].

`verify_main_theorems` checks these systems on every class of a cell as
matrix identities over the classes' stored zig-zags.  Write T_k for a
zig-zag's component of degree p + 2k, T_0 = x_p.  Every entry off the last
column is a fixed +-H_k (or 0), and bar(+-H_k) = +-H_k since H_k has odd
degree; the last column holds (-1)^k T_k at row n - k.  Substituting into
d a_{i,n} = sum_m bar(a_{i,m}) a_{m+1,n} and c(A), the signs collect: at
(n - k, n) of the banded system the term m = n - k + j is
(-1)^j H_{2j+3} ^ (-1)^(k-1-j) T_{k-1-j}, so every term carries (-1)^(k-1)
against (-1)^k on the left, and every term of c(A) carries (-1)^(n-2).
That gives

* banded (n = t + 2): the condition at (n - k, n), k = 1..t, is
  d T_k + sum_{j<k} H_{2j+3} ^ T_{k-1-j} = 0, and
  (-1)^t c(A) = sum_{j=0..t} H_{2j+3} ^ T_{t-j};
* diagonal (h = H_{2s+1}, n = l + 1, T'_k = T_{ks}): the condition at
  (n - k, n), k = 1..l-1, is d T'_k + h ^ T'_{k-1} = 0, and
  (-1)^(l-1) c(B) = h ^ T'_{l-1}.

So no system has to be assembled per class: each term is one product of
a zig-zag's part with a piece of D = d + H (`DOperator.piece`), and
the entries off the last column, which do not depend on the class, are
checked once per kind on a system assembled in full.  Every last-column
entry is read from one degree of the zig-zag, so the degree conditions
hold by construction.  Both sides are linear in the zig-zag: on zz + w,
with zz passing, a condition fails exactly where it fails on w, and c(A)
is the sum of the two; the perturbed system (w the column's shift) is
checked that way.  Projection to the page is linear too, so the perturbed
class equals the banded one exactly when the shift's c(A) projects to 0:
one fact per column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .cdga import CdgaModel, Form
from .linalg import (
    QuotientSpace,
    SubspaceBasis,
    SVec,
    solve_particular,
    span_in_quotient,
)
from .spectral import PageClass, PageError, SpectralSequence, ZigZag
from .twist import DOperator


class MasseyError(Exception):
    """A Massey product that is not defined for the given inputs."""


class DefiningSystemError(MasseyError):
    """A triangular array violating one of the defining-system conditions."""


def bar(x: Form) -> Form:
    """The sign twist (-1)^(1 + deg x) x for homogeneous x."""
    if x.is_zero:
        return x
    if not x.is_homogeneous:
        raise MasseyError("bar is only defined on homogeneous forms")
    return x if x.degree % 2 == 1 else -x


# ---------------------------------------------------------------------------
# triple products


@dataclass(frozen=True)
class TripleProduct:
    """A Massey triple product representative with its witnesses.

    ``omega = bar(v1) ^ x3 + bar(x1) ^ v2`` is the related cocycle of the
    3-fold defining system with d v1 = bar(x1) ^ x2 and d v2 = bar(x2) ^ x3,
    both solved with zeroed free variables.  ``coords`` is the class of
    omega in cohomology at ``degree``; ``indeterminacy`` spans the subgroup
    [x1] H + H [x3] inside that cohomology, so the product as a set is
    coords + indeterminacy.  Class coordinates are sparse vectors.
    """

    omega: Form
    v1: Form
    v2: Form
    degree: int
    cohomology: QuotientSpace
    coords: SVec
    indeterminacy: SubspaceBasis

    @property
    def is_zero_class(self) -> bool:
        return not self.coords


def _solve_primitive(model: CdgaModel, w: Form, degree: int) -> Form:
    """A form v of the given degree with d v = w, free variables zeroed."""
    if w.is_zero:
        return model.zero_form()
    sol = solve_particular(model.d_mat(degree), w.part(degree + 1))
    if sol is None:
        raise MasseyError("product class is nonzero; Massey product undefined")
    return model.part_form(degree, sol)


def triple_product(x1: Form, x2: Form, x3: Form) -> TripleProduct:
    """The Massey triple product <x1, x2, x3> with canonical witnesses.

    Requires closed homogeneous inputs with [x1][x2] = 0 and [x2][x3] = 0.
    """
    model = x1.model
    for x in (x1, x2, x3):
        if x.is_zero or not x.is_homogeneous:
            raise MasseyError("triple product inputs must be nonzero homogeneous forms")
        if not x.d().is_zero:
            raise MasseyError("triple product inputs must be closed")
    r1, r2, r3 = x1.degree, x2.degree, x3.degree
    v1 = _solve_primitive(model, bar(x1).wedge(x2), r1 + r2 - 1)
    v2 = _solve_primitive(model, bar(x2).wedge(x3), r2 + r3 - 1)
    entries = {(1, 1): x1, (2, 2): x2, (3, 3): x3, (1, 2): v1, (2, 3): v2}
    system = DefiningSystem(model, (r1, r2, r3), entries)
    omega = validate_defining_system(system)
    degree, coords = specific_element(system, omega)
    if degree > model.top_degree:
        trivial = QuotientSpace(SubspaceBasis.zero(0), SubspaceBasis.zero(0))
        return TripleProduct(omega, v1, v2, degree, trivial, coords, SubspaceBasis.zero(0))
    h = model.de_rham(degree)
    shifts = []
    for z in _closed_basis(model, r2 + r3 - 1):
        w = x1.wedge(z)
        if not w.is_zero:
            shifts.append(w.part(degree))
    for z in _closed_basis(model, r1 + r2 - 1):
        w = z.wedge(x3)
        if not w.is_zero:
            shifts.append(w.part(degree))
    indet = span_in_quotient(h, shifts) if shifts else SubspaceBasis.zero(h.dim)
    return TripleProduct(omega, v1, v2, degree, h, coords, indet)


def _closed_basis(model: CdgaModel, degree: int) -> list[Form]:
    if not (0 <= degree <= model.top_degree):
        return []
    return [model.part_form(degree, row) for row in model.de_rham(degree).ambient.sparse]


# ---------------------------------------------------------------------------
# defining systems


class DefiningSystem:
    """An upper-triangular defining system with nominal input degrees.

    Entries are keyed 1-based by (i, j); the corner (1, size) is absent.
    ``input_degrees`` keeps the nominal degree of each diagonal slot so the
    degree conditions stay meaningful when an input form happens to be zero.
    """

    def __init__(
        self,
        model: CdgaModel,
        input_degrees: Sequence[int],
        entries: dict[tuple[int, int], Form],
    ):
        self.model = model
        self.input_degrees = tuple(input_degrees)
        self.size = len(self.input_degrees)
        self.entries = dict(entries)
        for (i, j) in self.entries:
            if not (1 <= i <= j <= self.size) or (i, j) == (1, self.size):
                raise DefiningSystemError(f"entry ({i},{j}) outside the triangular range")

    def entry(self, i: int, j: int) -> Form:
        return self.entries.get((i, j), self.model.zero_form())

    def slot_degree(self, i: int, j: int) -> int:
        return sum(self.input_degrees[i - 1 : j]) - (j - i)

    def layout(self) -> str:
        """The triangular matrix layout as aligned text."""
        strs = {}
        for i in range(1, self.size + 1):
            for j in range(1, self.size + 1):
                if i > j or (i, j) == (1, self.size):
                    strs[(i, j)] = ""
                else:
                    strs[(i, j)] = str(self.entry(i, j))
        widths = [
            max(len(strs[(i, j)]) for i in range(1, self.size + 1))
            for j in range(1, self.size + 1)
        ]
        lines = []
        for i in range(1, self.size + 1):
            cells = [strs[(i, j)].rjust(widths[j - 1]) for j in range(1, self.size + 1)]
            lines.append("[ " + "  ".join(cells) + " ]")
        return "\n".join(lines)

    def __repr__(self):
        return f"DefiningSystem(size={self.size}, degrees={self.input_degrees})"


def _bar_products(system: DefiningSystem, i: int, j: int) -> Form:
    """sum over i <= m < j of bar(a_{i,m}) wedge a_{m+1,j}.

    Only the m with both entries stored and nonzero add a term; an absent
    or zero entry is the zero form.  bar still sees every nonzero a_{i,m},
    so an inhomogeneous one raises as it would in the full sum.
    """
    entries = system.entries
    out = system.model.zero_form()
    for m in range(i, j):
        a = entries.get((i, m))
        if a is None or a.is_zero:
            continue
        a = bar(a)
        b = entries.get((m + 1, j))
        if b is not None and not b.is_zero:
            out = out + a.wedge(b)
    return out


def related_cocycle(system: DefiningSystem) -> Form:
    """c(A) = sum over m of bar(a_{1,m}) wedge a_{m+1,n}."""
    return _bar_products(system, 1, system.size)


def validate_defining_system(system: DefiningSystem) -> Form:
    """Check the degree, diagonal and differential conditions; return c(A).

    Raises `DefiningSystemError` naming the first violated entry: every
    degree condition comes first, row by row, then every differential
    condition (off the diagonal) in the same order, then c(A)'s closedness.
    """
    n = system.size
    cells = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1) if (i, j) != (1, n)]
    for (i, j) in cells:
        a = system.entry(i, j)
        want = system.slot_degree(i, j)
        if not a.is_zero and (not a.is_homogeneous or a.degree != want):
            raise DefiningSystemError(f"entry ({i},{j}) has degree {a.degrees}, expected {want}")
    for (i, j) in cells:
        if i != j and system.entry(i, j).d() != _bar_products(system, i, j):
            raise DefiningSystemError(f"differential condition fails at entry ({i},{j})")
    c = related_cocycle(system)
    if not c.d().is_zero:
        raise DefiningSystemError("related cocycle is not closed")
    return c


def specific_element(system: DefiningSystem, c: Form) -> tuple[int, SVec]:
    """The cohomology class of c = c(A), which `validate_defining_system`
    returned for the system: (degree, class coordinates).

    The degree is the nominal one, sum of input degrees minus size plus 2;
    beyond the model's top degree the class is trivially zero.
    """
    deg = sum(system.input_degrees) - system.size + 2
    model = system.model
    if deg > model.top_degree:
        assert c.is_zero
        return deg, ()
    return deg, model.de_rham(deg).project(c.part(deg))


# ---------------------------------------------------------------------------
# the two constructive families


def _split_tail(solved: Form, p: int, step: int, n: int) -> dict[int, Form]:
    """The components of a solved zig-zag at degrees p + step*i, by i >= 1."""
    return {i: solved.homogeneous_part(p + step * i) for i in range(1, (n - p) // step + 1)}


def _fill_last_column(
    entries: dict[tuple[int, int], Form], size: int, x_p: Form, tail: dict[int, Form]
) -> None:
    """Put x_p at (size, size) and (-1)^(size-i) tail[size-i] at (i, size) above it."""
    zero = x_p.model.zero_form()
    entries[(size, size)] = x_p
    for i in range(2, size):
        part = tail.get(size - i, zero)
        entries[(i, size)] = part if (size - i) % 2 == 0 else -part


def _lift(ss: SpectralSequence, x_p: Form, reach: int) -> ZigZag:
    """The canonical zig-zag of x_p through page `reach`; raises unless x_p survives."""
    if x_p.degree is None:
        raise MasseyError("x_p must be a nonzero homogeneous form")
    zz = ss.lift_zigzag(x_p, reach)
    if zz is None:
        raise PageError(f"class does not survive to page {reach}")
    return zz


def _assemble_banded(ss: SpectralSequence, x_p: Form, t: int, zz_form: Form) -> DefiningSystem:
    """Lay out the (t+2)-fold banded system from a zig-zag form of x_p."""
    size = t + 2
    bands = [ss.H.component_form(2 * k + 3) for k in range(size - 1)]
    bands = [h if k % 2 == 0 else -h for k, h in enumerate(bands)]
    entries: dict[tuple[int, int], Form] = {}
    for i in range(1, size):
        for k in range(0, size - i):
            if (i, i + k) != (1, size):
                entries[(i, i + k)] = bands[k]
    # tail index m at degree p + 2m
    _fill_last_column(entries, size, x_p, _split_tail(zz_form, x_p.degree, 2, ss.n))
    return DefiningSystem(ss.model, [3] * (t + 1) + [x_p.degree], entries)


def banded_defining_system(ss: SpectralSequence, x_p: Form, t: int) -> DefiningSystem:
    """The (t+2)-fold system for <H_3, ..., H_3, x_p> from a zig-zag lift.

    Bands a_{i,i+k} = (-1)^k H_{2k+3}; the last column carries the signed
    tail components of the canonical zig-zag of x_p through page 2t+3.
    """
    if t < 1:
        raise MasseyError("the banded system needs t >= 1")
    zz = _lift(ss, x_p, 2 * t + 3)
    return _assemble_banded(ss, x_p, t, zz.form)


def diagonal_defining_system(
    ss: SpectralSequence, x_p: Form, t: int, s: int
) -> DefiningSystem:
    """The (l+1)-fold system for <H_{2s+1}, ..., H_{2s+1}, x_p>, t = l s - 1.

    Constant diagonal H_{2s+1}, zero strict upper triangle except the last
    column, which carries signed sparse tail components at degree steps 2s.
    The tail is the banded system's zig-zag lift, whose components off the
    degrees p + 2is vanish: with D = d + H_{2s+1} the zig-zag equations split
    into blocks by degree mod 2s, only the block of degree p has a nonzero
    right-hand side, and a free variable of one block is free in the whole.
    """
    if s < 1 or t < 1 or (t + 1) % s != 0:
        raise MasseyError(f"t = {t} is not of the form l*s - 1 for s = {s}")
    l = (t + 1) // s
    if l < 2:
        raise MasseyError("the diagonal system needs l >= 2; t = s - 1 is plain cup product")
    if ss.H.single_degree() != 2 * s + 1:
        raise MasseyError(f"the twist is not a single component of degree {2 * s + 1}")
    return _assemble_diagonal(ss, x_p, s, l, _lift(ss, x_p, 2 * t + 3).form)


def _assemble_diagonal(
    ss: SpectralSequence, x_p: Form, s: int, l: int, zz_form: Form
) -> DefiningSystem:
    """Lay out the (l+1)-fold diagonal system from a zig-zag form of x_p."""
    model = ss.model
    p = x_p.degree
    h = ss.H.component_form(2 * s + 1)
    size = l + 1
    entries: dict[tuple[int, int], Form] = {}
    for i in range(1, l + 1):
        entries[(i, i)] = h
        for j in range(i + 1, l + 1):
            entries[(i, j)] = model.zero_form()
    # tail step m at degree p + 2ms
    _fill_last_column(entries, size, x_p, _split_tail(zz_form, p, 2 * s, ss.n))
    return DefiningSystem(model, [2 * s + 1] * l + [p], entries)


# ---------------------------------------------------------------------------
# verification of the differential formulas


def _last_column(op: DOperator, parts: dict, p: int, r: int, step: int, size: int) -> tuple[Optional[str], SVec]:
    """A banded (step 2) or diagonal (step 2s) system's last column on the
    zig-zag with these `parts`, by the identities of the module docstring:
    (the first failure as `validate_defining_system` names it, or None;
    the signed related cocycle, of degree p + r).

    T_k is the part of degree e = p + step k, and the condition at
    (size - k, size) is the degree-(e + 1) part of D on the zig-zag, d T_k
    + sum over the twist's degrees h of H_h ^ (the part of degree e + 1 - h)
    = 0; only the parts T_{k-1-j} (banded) or T_{k-1} (diagonal) lie in
    those degrees.  The entries are scanned from (2, size) down, as the full
    scan does; a condition past the top degree reads 0 = 0.  c(A) reads the
    parts of degree p + r - h only, not the d of the part below p + r.
    """
    top = op.model.top_degree
    for k in range(size - 2, 0, -1):
        e = p + step * k
        if e < top and op.image(e + 1, parts):
            return f"differential condition fails at entry ({size - k},{size})", ()
    if p + r > top:
        return None, ()
    c = op.image(p + r, {p + r - h: parts.get(p + r - h) for h in op.H.degrees})
    if op.image(p + r + 1, {p + r: c}):
        return "related cocycle is not closed", c
    return None, c


@dataclass
class ClassCheck:
    p: int
    zigzag: PageClass
    banded_ok: bool
    case_ok: Optional[bool]
    routes_agree: Optional[bool]
    independence_ok: Optional[bool]


@dataclass
class MasseyVerification:
    t: int
    r: int
    checks: list[ClassCheck] = field(default_factory=list)


def _perturbing_shift(ss: SpectralSequence, p: int, t: int) -> Optional[ZigZag]:
    """The lift (reach 2t + 3 - 2i) of the first closed basis form z of
    degree p + 2i that lifts, for the least such i; None if none does."""
    reach = 2 * t + 3
    model = ss.model
    for i in range(1, t + 1):
        deg = p + 2 * i
        if deg > ss.n:
            break
        for z_row in model.de_rham(deg).ambient.sparse:
            shifted = ss.lift_zigzag(model.part_form(deg, z_row), reach - 2 * i)
            if shifted is not None:
                return shifted
    return None


def perturbed_banded_system(
    ss: SpectralSequence, x_p: Form, t: int
) -> Optional[DefiningSystem]:
    """A second valid banded system with a shifted tail, when one exists.

    Its zig-zag is the base one of x_p plus the lift (reach 2t + 3 - 2i) of
    the first closed basis form z of degree p + 2i that lifts; None if none
    does.  It equals re-solving past p + 2i with the head and z fixed, since
    D is linear, the zero-free-variable solution is linear in the right-hand
    side, and a free column of the tail past p + 2i is free in the whole tail.
    This is a heuristic search, not an exhaustive one.  It reads only the
    degree p of x_p, so `verify_main_theorems` runs it once per column.
    """
    base = _lift(ss, x_p, 2 * t + 3)
    shifted = _perturbing_shift(ss, x_p.degree, t)
    if shifted is None:
        return None
    return _assemble_banded(ss, x_p, t, base.form + shifted.form)


def verify_main_theorems(ss: SpectralSequence, t: int) -> MasseyVerification:
    """Check every page-(2t+3) basis class against the Massey formulas.

    For each class: the zig-zag differential must equal (-1)^t [c(A)] for the
    banded system; when the twist is a single H_{2s+1} the case table must
    hold (cup product at t = s-1, (-1)^(l-1) [c(B)] at t = l s - 1, zero
    otherwise), with both defining-system routes agreeing on the page; and a
    perturbed defining system, when one is found, must give the same page
    class.  Requires t >= 1.

    The first system of each kind (banded, diagonal) is the one
    `banded_defining_system` or `diagonal_defining_system` gives, validated
    in full by `validate_defining_system`.  Every other system is checked
    on its last column and c(A) only, by the identities of the module
    docstring on the class's stored zig-zag (`SpectralSequence.class_lifts`),
    and the perturbed one by linearity from the column's perturbing shift,
    which is searched and checked once per column.  A failure raises the
    `DefiningSystemError` the full scan would: the first in class order,
    then kind (banded, diagonal, perturbed), then entry.  The result is
    kept in `ss.massey_verifications`.
    """
    if t < 1:
        raise MasseyError("the banded system needs t >= 1")
    if t in ss.massey_verifications:
        return ss.massey_verifications[t]
    r = 2 * t + 3
    out = MasseyVerification(t=t, r=r)
    model = ss.model
    single = ss.H.single_degree()
    s = (single - 1) // 2 if single is not None else None
    l = (t + 1) // s if s is not None and (t + 1) % s == 0 else 0
    op = ss.op
    checked: set = set()

    def cocycle(kind: str, assemble, parts: dict, p: int, step: int, size: int) -> SVec:
        if kind not in checked:
            validate_defining_system(assemble())
            checked.add(kind)
        failure, c = _last_column(op, parts, p, r, step, size)
        if failure:
            raise DefiningSystemError(failure)
        return c

    for p in range(ss.n + 1):
        reps = ss.cell(r, p).sparse_reps
        if not reps:
            continue
        target = ss.cell(r, p + r)  # as `ss.page_coords` projects
        project = target.project if target.dim else None

        def page_class(c: SVec) -> SVec:
            return project(c) if project else ()

        shift = _perturbing_shift(ss, p, t)
        if shift is not None:
            shift_failure, shift_c = _last_column(op, shift.form.parts, p, r, 2, t + 2)
        shift_ok: Optional[bool] = None  # one fact per column, read at its first class
        d_r = ss.differential_matrix(r, p).columns()  # column j is d_r of reps[j]
        for rep, zz, d_rep in zip(reps, ss.class_lifts(r, p), d_r):
            x = model.part_form(p, rep)
            lhs = PageClass(r, p + r, d_rep)

            c_a = cocycle("banded", lambda: _assemble_banded(ss, x, t, zz), zz.parts, p, 2, t + 2)
            coords_a = page_class(c_a)
            banded_ok = lhs.coords == coords_a

            case_ok: Optional[bool] = None
            routes_agree: Optional[bool] = None
            if s is not None:
                if t == s - 1:
                    case_ok = lhs.coords == page_class(op.image(p + single, {p: rep}))
                elif l >= 2:
                    coords_b = page_class(cocycle(
                        "diagonal", lambda: _assemble_diagonal(ss, x, s, l, zz), zz.parts, p, 2 * s, l + 1
                    ))
                    case_ok = lhs.coords == coords_b
                    routes_agree = coords_b == coords_a
                else:
                    case_ok = lhs.is_zero

            independence_ok: Optional[bool] = None
            if shift is not None:
                # zz passed, so zz + shift fails where the shift does
                if shift_failure:
                    raise DefiningSystemError(shift_failure)
                if shift_ok is None:  # c(A) + shift_c keeps c(A)'s class iff shift_c's is 0
                    shift_ok = page_class(shift_c) == ()
                independence_ok = shift_ok

            out.checks.append(
                ClassCheck(p, lhs, banded_ok, case_ok, routes_agree, independence_ok)
            )
    ss.massey_verifications[t] = out
    return out
