"""The twisted differential d + H, the complexes K_a/K_b and twisted cohomology.

The twist H is a sum of closed odd-degree forms H_3 + H_5 + ..., acting by
left exterior multiplication.  The operator D = d + H is not homogeneous for
the integer grading but is homogeneous for the mod-2 grading, where it
squares to zero; its kernel-mod-image on each parity is the twisted
cohomology.

Everything is built from the filtration K_p = forms of degree >= p:
`BlockSpace` packs a range of degrees into one coordinate space, `DOperator`
is the one D, held once as the columns of its pieces d and H_h ^ .
(`piece`): applied to a form (`apply`), read into one degree (`columns`) or
laid out as rows between degree ranges (`matrix`); each twist builds it
once, in `TwistForm.operator`.
`RelativeComplex` is the quotient K_a/K_b with the induced D, and the one
owner of the cocycles and cohomology of every window K_w/K_b of it.
Twisted cohomology is that of the whole complex K_0/K_{n+1}.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional, Sequence

from .cdga import CdgaModel, Form
from .linalg import (
    Mat,
    QuotientSpace,
    SubspaceBasis,
    SVec,
    collect,
    combine,
    kernel,
)


class TwistError(Exception):
    """An invalid twisting form."""


class TwistForm:
    """A twist H: one `Form`, built by its constructor from the parts given.

    ``components`` is that form's ``parts``.  Every component must be closed,
    of odd degree between 3 and the model's top degree, with indices strictly
    increasing inside its degree's basis; the constructor raises `TwistError`
    otherwise.  Degree-1 components are rejected: the twisted theory starts
    at H_3 and the first-page structure relies on that.
    """

    __slots__ = ("model", "components", "_h", "_parts", "_op")

    def __init__(self, model: CdgaModel, components: dict[int, SVec]):
        top = model.top_degree
        for p in components:
            if type(p) is not int:
                raise TwistError(f"twist component degree {p!r} is not an int")
        components = {p: v for p, v in components.items() if v}
        for p in sorted(components):
            if p % 2 == 0:
                raise TwistError(f"twist component of even degree {p}")
            if p < 3:
                raise TwistError("twist components must have degree >= 3")
            if p > top:
                raise TwistError(f"twist component of degree {p} is above the top degree {top}")
        try:
            h = Form(model, components)
        except ValueError as e:
            raise TwistError(f"twist {e}") from None
        self.model, self.components, self._h = model, h.parts, h
        self._parts = {p: h.homogeneous_part(p) for p in h.parts}  # H_p, one form per degree
        self._op: Optional[DOperator] = None
        for p, hp in self._parts.items():
            if not hp.d().is_zero:
                raise TwistError(f"twist component of degree {p} is not closed")

    @property
    def is_zero(self) -> bool:
        return not self.components

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(self.components)

    def component_form(self, p: int) -> Form:
        """H_p as a form (the zero form outside H's degrees)."""
        return self._parts.get(p, self.model.zero_form())

    def form(self) -> Form:
        """H as one inhomogeneous form."""
        return self._h

    def operator(self, model: CdgaModel) -> DOperator:
        """D = d + H, built once (the twist is immutable); every (model, H)
        entry point takes it from here, so a twist of another model raises."""
        if model is not self.model:
            raise ValueError("twist belongs to a different model")
        if self._op is None:
            self._op = DOperator(self)
        return self._op

    def single_degree(self) -> Optional[int]:
        """The degree 2s+1 when H has exactly one component, else None."""
        return self._h.degree if len(self.components) == 1 else None

    def describe(self) -> str:
        return str(self._h)

    def __eq__(self, other):
        return isinstance(other, TwistForm) and self._h == other._h

    def __repr__(self):
        return f"TwistForm({self.describe()})"


def make_twist(model: CdgaModel, parts: Sequence[Form]) -> TwistForm:
    """Sum homogeneous forms into a twist, which `TwistForm` then checks."""
    total = model.zero_form()
    for part in parts:
        if not part.is_zero and not part.is_homogeneous:
            raise TwistError("twist parts must be homogeneous; split them by degree")
        total = total + part
    return TwistForm(model, dict(total.parts))


def parse_twist(model: CdgaModel, expr: str) -> TwistForm:
    """Build a twist from a wedge expression, whose parts `TwistForm` checks."""
    return TwistForm(model, model.parse_form(expr).parts)


# ---------------------------------------------------------------------------
# graded blocks


class BlockSpace:
    """A list of degrees of a model packed into one coordinate space."""

    __slots__ = ("model", "degrees", "offsets", "total_dim")

    def __init__(self, model: CdgaModel, degrees: Iterable[int]):
        self.model = model
        self.degrees = tuple(degrees)
        assert len(set(self.degrees)) == len(self.degrees)
        offs, t = {}, 0
        for p in self.degrees:
            offs[p] = t
            t += model.dim(p)
        self.offsets = offs
        self.total_dim = t

    def pack(self, f: Form) -> SVec:
        """The block's coordinates of f; components in other degrees are dropped."""
        out: list = []
        for p in self.degrees:  # offsets ascend in this order
            nz = f.parts.get(p)
            if nz:
                o = self.offsets[p]
                out.extend(((o + i, c) for i, c in nz) if o else nz)
        return tuple(out)

    def unpack(self, v: SVec) -> Form:
        """The form with the block's coordinates v, an exact sparse vector."""
        parts = {}
        k, n = 0, len(v)
        for p in self.degrees:
            o = self.offsets[p]
            end, start = o + self.model.dim(p), k
            while k < n and v[k][0] < end:
                k += 1
            if k > start:
                parts[p] = tuple((i - o, c) for i, c in v[start:k]) if o else v[start:k]
        return Form._exact(self.model, dict(sorted(parts.items())))

    def __repr__(self):
        return f"BlockSpace(degrees={self.degrees}, dim={self.total_dim})"


class DOperator:
    """The twisted differential D = d + H, held once as its pieces' columns.

    ``piece(h, q)`` is the degree-h piece of D on the degree-q basis, one
    sparse column per basis element: d for h = 1, read from the model, and
    wedging by the twist component H_h otherwise, combined from the product
    table (`wedge_basis`) on first use and kept; it is the one assembly of
    D's pieces and `_pieces` its one cache.  ``columns(domain, q)`` is D
    from a degree list into degree q, column by column; ``matrix`` lays the
    columns between two degree lists out as rows, which silently truncates
    whatever falls outside the codomain; that is exactly the induced
    operator on a quotient complex of the degree filtration.  ``image`` is
    one degree of D on a form given by its parts.  Build it through
    `TwistForm.operator`.
    """

    def __init__(self, H: TwistForm):
        self.model = H.model
        self.H = H
        self._pieces: dict[tuple[int, int], tuple[SVec, ...]] = {}

    def piece(self, h: int, q: int) -> tuple[SVec, ...]:
        """Column i is the degree-h piece of D on the i-th basis element of
        degree q, in degree q + h; () when the piece is structurally zero."""
        if h == 1:
            return self.model.d_columns(q)
        cols = self._pieces.get((h, q))
        if cols is None:
            model, terms = self.model, self.H.components.get(h, ())
            cols = self._pieces[h, q] = tuple(
                combine(terms, {m: model.wedge_basis(h, m, q, i) for m, _ in terms})
                for i in range(model.dim(q) if terms and q + h <= model.top_degree else 0)
            )
        return cols

    def columns(self, domain: BlockSpace, q: int) -> tuple[SVec, ...]:
        """Column j is the degree-q part of D on the j-th coordinate of
        `domain`: each degree's piece into q, zero columns where it has none."""
        shifts = (1, *self.H.degrees)
        out: list = []
        for src in domain.degrees:  # offsets ascend in this order
            cols = self.piece(q - src, src) if q - src in shifts else ()
            out.extend(cols or ((),) * self.model.dim(src))
        return tuple(out)

    def matrix(self, domain: BlockSpace, codomain: BlockSpace) -> Mat:
        """D from `domain` to `codomain`, its pieces' columns laid out as
        rows in one pass over their nonzeros."""
        rows = {q: [[] for _ in range(self.model.dim(q))] for q in codomain.degrees}
        for src in domain.degrees:  # offsets ascend, so every row stays sorted
            o = domain.offsets[src]
            for h in (1, *self.H.degrees):
                into = rows.get(src + h)
                if into is not None:
                    for i, col in enumerate(self.piece(h, src), o):
                        for k, x in col:
                            into[k].append((i, x))
        return Mat._exact(
            tuple(tuple(row) for q in codomain.degrees for row in rows[q]), domain.total_dim
        )

    def apply(self, x: Form) -> Form:
        """D x = d x + H wedge x, the one route for D on a `Form`."""
        return x.d() + self.H.form().wedge(x)

    def image(self, q: int, parts: dict) -> SVec:
        """The degree-q part of D on the form with these parts (degree ->
        sparse vector): one sparse product of each part with its piece."""
        acc: dict = {}
        for h in (1, *self.H.degrees):
            v = parts.get(q - h)
            cols = self.piece(h, q - h) if v else ()
            if cols:
                for i, c in v:
                    for k, x in cols[i]:
                        y = c * x
                        acc[k] = acc[k] + y if k in acc else y
        return collect(acc)


# ---------------------------------------------------------------------------
# the quotient complexes K_a/K_b and twisted cohomology


class RelativeComplex:
    """The quotient complex K_a/K_b (degrees a..b-1) with the induced D.

    D is induced by dropping output components of degree >= b; it is
    well-defined since D raises degree.  K_0/K_{n+1} is the whole twisted
    complex; for b = a+1 the induced D is zero.  Cohomology is parity-graded
    (the parity of the total degree).  Each parity's D, its columns and its
    cocycle kernel are built on first use and kept; cohomology is not.

    Every window K_w/K_b (a <= w < b, `start` = w) is read off that kernel,
    in these coordinates.  D raises degree, so the window's cocycles are the
    cocycles that vanish below degree w, and its coboundaries are D of the
    columns from degree w on.  `kernel` returns canonical RREF with the
    degrees in ascending column order, where the vectors vanishing on the
    first c columns are spanned by the rows pivoting at or past c: a suffix
    of the rows, so a window costs no elimination.
    """

    def __init__(self, op: DOperator, a: int, b: int):
        n = op.model.top_degree
        if not (0 <= a < b <= n + 1):
            raise ValueError(f"need 0 <= a < b <= {n + 1}, got a={a}, b={b}")
        self.op = op
        self.a = a
        self.b = b
        degs = range(a, b)
        self.spaces = (
            BlockSpace(op.model, [p for p in degs if p % 2 == 0]),
            BlockSpace(op.model, [p for p in degs if p % 2 == 1]),
        )
        self._d: dict[int, Mat] = {}
        self._cols: dict[int, tuple[SVec, ...]] = {}
        self._cocycles: dict[int, SubspaceBasis] = {}

    def space(self, parity: int) -> BlockSpace:
        return self.spaces[parity % 2]

    def d(self, parity: int) -> Mat:
        """D from the parity's space to the other parity's."""
        parity %= 2
        if parity not in self._d:
            self._d[parity] = self.op.matrix(self.spaces[parity], self.spaces[1 - parity])
        return self._d[parity]

    def columns(self, parity: int) -> tuple[SVec, ...]:
        """D of each coordinate of the parity's space, in the other parity's."""
        parity %= 2
        if parity not in self._cols:
            self._cols[parity] = self.d(parity).columns()
        return self._cols[parity]

    def _offset(self, parity: int, start: int) -> int:
        """The first coordinate of degree >= start in the parity's space."""
        if not (self.a <= start < self.b):
            raise ValueError(f"window start {start} outside {self.a}..{self.b - 1}")
        space = self.spaces[parity]
        return space.offsets.get(start + (start - parity) % 2, space.total_dim)

    def cocycles(self, parity: int, start: Optional[int] = None) -> SubspaceBasis:
        """The kernel of D on the parity's space of the window K_start/K_b."""
        parity %= 2
        if parity not in self._cocycles:
            self._cocycles[parity] = kernel(self.d(parity))
        z = self._cocycles[parity]
        k = bisect_left(z.pivots, self._offset(parity, self.a if start is None else start))
        return SubspaceBasis(z.ambient_dim, z.sparse[k:], z.pivots[k:]) if k else z

    def cohomology(self, parity: int, start: Optional[int] = None) -> QuotientSpace:
        """H^parity(K_start/K_b): the window's cocycles modulo D of its columns."""
        parity, start = parity % 2, self.a if start is None else start
        z = self.cocycles(parity, start)
        cols = self.columns(1 - parity)[self._offset(1 - parity, start) :]
        return QuotientSpace(z, SubspaceBasis.span(z.ambient_dim, cols))

    def __repr__(self):
        return f"RelativeComplex(K_{self.a}/K_{self.b})"


class TwistedCohomology:
    """Kernel-mod-image of D on both parities, with canonical representatives.

    `complex` is the whole complex K_0/K_{n+1}; D o D = 0 is asserted on
    construction for both parities.
    """

    def __init__(self, complex_: RelativeComplex):
        d_even, d_odd = complex_.d(0), complex_.d(1)
        if not (d_odd @ d_even).is_zero():
            raise TwistError("D o D != 0 on the even part")
        if not (d_even @ d_odd).is_zero():
            raise TwistError("D o D != 0 on the odd part")
        self.complex = complex_
        self.h_even = complex_.cohomology(0)
        self.h_odd = complex_.cohomology(1)

    @property
    def dims(self) -> tuple[int, int]:
        return (self.h_even.dim, self.h_odd.dim)

    def representatives(self, parity: int) -> list[Form]:
        q = self.h_even if parity % 2 == 0 else self.h_odd
        space = self.complex.space(parity)
        return [space.unpack(r) for r in q.sparse_reps]

    def __repr__(self):
        return f"TwistedCohomology(even={self.h_even.dim}, odd={self.h_odd.dim})"


def twisted_cohomology(model: CdgaModel, H: TwistForm) -> TwistedCohomology:
    """Compute the twisted cohomology of (model, H) on both parities."""
    return TwistedCohomology(RelativeComplex(H.operator(model), 0, model.top_degree + 1))
