"""The spectral sequence of the degree filtration, computed by zig-zags.

The filtration K_p (forms of degree >= p) of the twisted complex induces a
spectral sequence that is 2-periodic in q and concentrated in even q.  Cells
are realized directly at chain level:

* cycles  Z_r at (p, even q) are the degree-p forms x_p that extend to a
  zig-zag x = x_p + x_{p+2} + ... with D x in K_{p+r};
* boundaries B_r are the degree-p components of D w for w in K_{p-r+1} with
  D w in K_p.  With a the start of the lifts (max(0, p - r + 1) or one
  above, by parity), such a w is a combination of the stored lifts of Z at
  column a with conditions below p, up to an element of K_{a+2}; so B_r
  spans D of those lifts for a, a + 2, ... below p, and the engine
  eliminates only for its Z kernels;
* the cell E_r^{p,q} is Z_r / B_r with canonical echelon representatives.

D = d + H^ has only odd-degree pieces, so the pages pair up: Z_r's
conditions sit in the degrees p+1, p+3, ... below p+r, and B_r's lifts start
at a = max(0, p-r+1) or a+1, whichever parity lands in degree p.  Pages 2k
and 2k+1 therefore have the same Z, the same B and the same cell (d_{2k} = 0,
E_{2k+1} = E_{2k}), and so does every page past a column's stable point.
Each object is cached by what it depends on (the condition list, the start
of the lifts) and built once, and a cell is read through its page's list.  The
Z kernels of a column share one growing elimination: each key adds one
condition degree's rows to the column's `Echelon`.

Lifts are read off the Z_r kernel, which stores each basis vector with its
zero-free-variable tail as one sparse lift, so lifting succeeds exactly when
the class survives and the result is deterministic.  A coset representative
of a cell is a row of Z_r's basis, so its lift is stored, and d_r maps it
by combining the columns of D into degree p+r (`DOperator.columns`) by that
lift, as B_r does with the lifts that span it; no matrix is transposed.
The Massey checks read their zig-zags off the same lifts (`class_lifts`);
the tests' `lift_oracle` solves the same systems, recomputes d_r from
per-representative lifts and B_r from one boundary kernel per column.

Everything is a pure function of (model, twist); results are cached in the
`SpectralSequence` object.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from .cdga import CdgaModel, Form
from .linalg import Echelon, Mat, QuotientSpace, SubspaceBasis, SVec, combine
from .twist import BlockSpace, TwistedCohomology, TwistForm, twisted_cohomology


def _flip_tail(row: SVec, h: int, n: int) -> SVec:
    """The row with its columns from h on reversed: c -> n - 1 - c + h."""
    i = bisect_left(row, (h,))  # (h,) sorts before every pair (h, x)
    return row[:i] + tuple((n - 1 - c + h, x) for c, x in reversed(row[i:]))


def _elimination_order(row: SVec, h: int, n: int) -> SVec:
    """`_flip_tail`, then every column reversed: columns from h on, then h-1 down to 0."""
    i = bisect_left(row, (h,))
    return tuple((c - h, x) for c, x in row[i:]) + tuple((n - 1 - c, x) for c, x in reversed(row[:i]))


class PageError(Exception):
    """Bad page index or a class that does not live on the requested page."""


@dataclass(frozen=True)
class ZigZag:
    """An inhomogeneous form x = x_p + x_{p+2} + ... with D x in K_{p+reach}."""

    p: int
    form: Form
    reach: int


@dataclass(frozen=True)
class PageClass:
    """A class on page r at column p, in the cell's canonical coordinates
    (a sparse vector)."""

    r: int
    p: int
    coords: SVec

    @property
    def is_zero(self) -> bool:
        return not self.coords


class SpectralPage:
    """A full page: per-column cells (even q) and the d_r matrices."""

    def __init__(self, r: int, cells: dict[int, QuotientSpace], d: dict[int, Mat], stable: bool):
        self.r = r
        self.cells = cells
        self.d = d
        self.stable = stable

    def dim(self, p: int, q: int = 0) -> int:
        if q % 2 == 1:
            return 0
        cell = self.cells.get(p)
        return cell.dim if cell is not None else 0

    def dims(self) -> dict[int, int]:
        return {p: c.dim for p, c in self.cells.items()}

    def __repr__(self):
        nz = {p: c.dim for p, c in self.cells.items() if c.dim}
        return f"SpectralPage(r={self.r}, dims={nz}, stable={self.stable})"


class SpectralSequence:
    """All pages, cycles/boundaries, lifts and differentials for (model, H).

    ``massey_verifications`` holds the result of
    `twistss.massey.verify_main_theorems` by t, computed once per t.
    """

    def __init__(self, model: CdgaModel, H: TwistForm):
        self.model = model
        self.H = H
        self.op = H.operator(model)
        self.n = model.top_degree
        self.max_page = self.n + 2
        self._cycles: dict[tuple[int, int], tuple[SubspaceBasis, tuple[SVec, ...]]] = {}
        self._columns: dict[int, list] = {}  # p -> [Echelon, lift space, end reached, result]
        self._bounds: dict[tuple[int, int], SubspaceBasis] = {}
        self._cells: dict[tuple[int, int, int], QuotientSpace] = {}
        self._page_cells = [[None] * (self.n + 1) for _ in range(self.max_page + 1)]
        self._zero_cells: dict[int, QuotientSpace] = {}
        self._dmats: dict[tuple[int, int], Mat] = {}
        self.massey_verifications: dict[int, object] = {}
        self._twisted: Optional[TwistedCohomology] = None

    def twisted_cohomology(self) -> TwistedCohomology:
        """H(M, H) of K_0/K_{n+1}, which the pages converge to; built once
        (`TwistError` when D o D != 0)."""
        if self._twisted is None:
            self._twisted = twisted_cohomology(self.model, self.H)
        return self._twisted

    # -- chain-level cell pieces ----------------------------------------------

    def check_page(self, r: int):
        """Raise `PageError` unless r is one of the pages 1..max_page."""
        if not (1 <= r <= self.max_page):
            raise PageError(f"page index {r} outside 1..{self.max_page}")

    def _lift_space(self, p: int) -> BlockSpace:
        """The degrees of a zig-zag from column p: p, then its tail."""
        return BlockSpace(self.model, range(p, self.n + 1, 2))

    def _compute_cycles(self, p: int, end: int) -> tuple[SubspaceBasis, tuple[SVec, ...]]:
        """Z_r at column p (conditions below `end`) and the lift of each of its rows.

        The kernel of [A | T] (D on x_p, D on the tail) with T's columns
        reversed gives both.  The null vector of a free column f of T is
        nonzero only at f and at pivots left of f, so reversed, T's echelon
        kernel has its pivots on T's free columns.  The kernel rows pivoting
        in degree p vanish there: their tails solve T t = -A x_p with free
        variables zeroed (the tests' `lift_oracle.resolve_tail`), and their
        p-parts are Z_r's RREF.  With T's columns put back, each such row is
        the lift of its Z_r row, in the coordinates of `_lift_space(p)`.

        Every key of a column has that domain, and the next key only adds the
        rows into one more condition degree.  So `_columns[p]` keeps one
        `Echelon` in that kernel's column order (`_elimination_order`), fed
        the rows of each degree once, those of the degrees a key adds in one
        matrix; the canonical kernel is unique, so its read is the one-shot
        kernel of the stacked matrix, and degrees that make no pivot leave
        the result as it was.  A lower key starts the column over;
        `_zigzags` drops it once its last key is read.
        """
        dim_p = self.model.dim(p)
        if dim_p == 0 or end == p:
            z = SubspaceBasis.full(dim_p)
            return z, z.sparse
        column = self._columns.get(p)
        if column is None or column[2] > end:
            space = self._lift_space(p)
            column = self._columns[p] = [Echelon(space.total_dim), space, p, self._compute_cycles(p, p)]
        echelon, space, reached, result = column
        n = space.total_dim
        phi = self.op.matrix(space, BlockSpace(self.model, range(reached + 1, end, 2)))
        if echelon.add(_elimination_order(row, dim_p, n) for row in phi.sparse):
            k = echelon.kernel(below=dim_p)
            lifts = tuple(_flip_tail(row, dim_p, n) for row in k.sparse)
            heads = tuple(row[: bisect_left(row, (dim_p,))] for row in lifts)
            result = SubspaceBasis(dim_p, heads, k.pivots), lifts
        column[2:] = end, result
        return result

    def _cycle_key(self, p: int, reach: int) -> tuple[int, int]:
        """(p, e) for zig-zags of reach `reach`: e fixes the conditions range(p+1, e, 2).

        e is where the conditions end, min(p + reach, n + 1), rounded down to
        p's parity (and to p when there are none), so the reaches 2k and 2k+1,
        and every reach past the top degree, share a key.
        """
        e = min(p + reach, self.n + 1)
        return p, max(p, e - (e - p) % 2)

    def _zigzags(self, key: tuple[int, int]) -> tuple[SubspaceBasis, tuple[SVec, ...]]:
        if key not in self._cycles:
            self._cycles[key] = self._compute_cycles(*key)
            if self._cycle_key(key[0], self.max_page) in self._cycles:
                self._columns.pop(key[0], None)
        return self._cycles[key]

    @staticmethod
    def _boundary_start(p: int, r: int) -> int:
        """The lowest degree of B_r's lifts at column p: a = max(0, p - r + 1),
        or a + 1 when D of degree a cannot land in degree p by parity."""
        a = max(0, p - r + 1)
        return a if (p + 1 - a) % 2 == 0 else a + 1

    def _compute_boundaries(self, p: int, start: int) -> SubspaceBasis:
        """B at column p of the lifts from K_start (start of p + 1's parity): the
        span of B from K_{start+2} and of (D lam)_p for the stored lift lam of
        each row z_i of Z at column start with conditions below p, a cycle key
        the pages already use.

        This is all of B.  Each lam lies in K_start with D lam in K_p, so
        (D lam)_p lies in B.  Conversely, if w in K_start has D w in K_p, its
        degree-start part x lies in that Z, so x = sum c_i z_i, and
        w - sum c_i lam_i lies in K_{start+2} with D of it in K_p.  A column
        whose Z is zero, an empty column among them, adds nothing.
        """
        dim_p = self.model.dim(p)
        if dim_p == 0 or start >= p:
            return SubspaceBasis.zero(dim_p)
        rest = self._boundaries(p, start + 2)
        lifts = self._zigzags(self._cycle_key(start, p - start))[1]
        if not lifts:
            return rest
        to_p = self.op.columns(self._lift_space(start), p)
        return SubspaceBasis.span(dim_p, [*rest.sparse, *(combine(lam, to_p) for lam in lifts)])

    def cycles(self, r: int, p: int) -> SubspaceBasis:
        """Z_r at column p: leading terms of zig-zags of reach r."""
        self.check_page(r)
        return self._zigzags(self._cycle_key(p, r))[0]

    def _boundaries(self, p: int, start: int) -> SubspaceBasis:
        key = (p, start)
        if key not in self._bounds:
            self._bounds[key] = self._compute_boundaries(p, start)
        return self._bounds[key]

    def boundaries(self, r: int, p: int) -> SubspaceBasis:
        """B_r at column p: degree-p components of D w, w in K_{p-r+1}, Dw in K_p."""
        self.check_page(r)
        return self._boundaries(p, self._boundary_start(p, r))

    def precompute(self, max_r: Optional[int] = None) -> int:
        """Fill the cell caches for pages 1..max_r (all pages for None); return the last page."""
        if max_r is not None and max_r < 1:
            raise ValueError(f"max_page must be >= 1, got {max_r}")
        top = self.max_page if max_r is None else min(max_r, self.max_page)
        for r in range(1, top + 1):
            for p in range(self.n + 1):
                self.cell(r, p)
        return top

    def cell(self, r: int, p: int, q: int = 0) -> QuotientSpace:
        """The cell E_r^{p,q}; cells with odd q are zero, the others kept by page and column."""
        if 1 <= r <= self.max_page and 0 <= p <= self.n and not q % 2:
            cell = self._page_cells[r][p]
            if cell is None:
                zkey, start = self._cycle_key(p, r), self._boundary_start(p, r)
                key = (*zkey, start)
                if key not in self._cells:
                    self._cells[key] = QuotientSpace(self._zigzags(zkey)[0], self._boundaries(p, start))
                cell = self._page_cells[r][p] = self._cells[key]
            return cell
        self.check_page(r)
        dim_p = self.model.dim(p) if 0 <= p <= self.n else 0
        if dim_p not in self._zero_cells:
            zero = SubspaceBasis.zero(dim_p)
            self._zero_cells[dim_p] = QuotientSpace(zero, zero)
        return self._zero_cells[dim_p]

    # -- zig-zag lifting -------------------------------------------------------

    def lift_zigzag(self, x_p: Form, reach: int) -> Optional[ZigZag]:
        """Extend x_p to a zig-zag with D x in K_{p+reach}, or None if it dies.

        The zig-zag combines the stored lifts of Z's basis rows by x_p's
        coordinates in Z, so its tail is the one with free variables zeroed,
        and it exists if and only if the class of x_p survives to page `reach`.
        """
        if x_p.is_zero:
            return ZigZag(0, x_p, reach)
        if not x_p.is_homogeneous:
            raise PageError("zig-zag base must be homogeneous")
        p = x_p.degree
        z, lifts = self._zigzags(self._cycle_key(p, reach))
        coords = z.coords(x_p.part(p))
        if coords is None:
            return None
        return ZigZag(p, self._lift_space(p).unpack(combine(coords, lifts)), reach)

    def _rep_lifts(self, r: int, p: int, cell: QuotientSpace) -> list[SVec]:
        """The stored lift of each coset representative of `cell` = E_r^p, in
        the order of its representatives and the coordinates of
        `_lift_space(p)`: the rows of Z_r whose pivots are not B_r's."""
        z, lifts = self._zigzags(self._cycle_key(p, r))
        bpiv = set(cell.sub.pivots)
        return [lift for lift, piv in zip(lifts, z.pivots) if piv not in bpiv]

    def class_lifts(self, r: int, p: int) -> list[Form]:
        """The stored zig-zag of each coset representative of E_r^p, in the
        cell's order: the form whose degree-p part is the representative and
        whose tail has free variables zeroed, as `lift_zigzag` gives it."""
        space = self._lift_space(p)
        return [space.unpack(lift) for lift in self._rep_lifts(r, p, self.cell(r, p))]

    # -- differentials ---------------------------------------------------------

    def differential_matrix(self, r: int, p: int) -> Mat:
        """d_r as a matrix from the cell at p to the cell at p+r (even q).

        Each coset representative is a row of Z_r's basis, whose lift is
        stored with it; the columns of D into degree p + r, combined by each
        lift, map it, and the target cell projects the images.
        """
        self.check_page(r)
        key = (r, p)
        if key not in self._dmats:
            src = self.cell(r, p)
            tgt = self.cell(r, p + r, q=(1 - r) % 2)
            if tgt.dim == 0 or src.dim == 0:
                self._dmats[key] = Mat.zeros(tgt.dim, src.dim)
            else:
                to_target = self.op.columns(self._lift_space(p), p + r)
                images = [tgt.project(combine(lam, to_target)) for lam in self._rep_lifts(r, p, src)]
                self._dmats[key] = Mat.from_cols(images, tgt.dim)
        return self._dmats[key]

    def differential(self, r: int, x_p: Form) -> PageClass:
        """d_r of the page class represented by x_p (homogeneous, on page r)."""
        self.check_page(r)
        if x_p.is_zero:
            raise PageError("the zero form does not name a page class")
        if not x_p.is_homogeneous:
            raise PageError("page classes are represented by homogeneous forms")
        p = x_p.degree
        if not self.cycles(r, p).contains(x_p.part(p)):
            raise PageError(f"form of degree {p} is not a class on page {r}")
        coords = self.cell(r, p).project(x_p.part(p))
        return PageClass(r, p + r, self.differential_matrix(r, p).apply(coords))

    def page_coords(self, r: int, p: int, f: Form) -> SVec:
        """The class of f's degree-p component in E_r^p; () when the cell is zero."""
        cell = self.cell(r, p)
        return cell.project(f.part(p)) if cell.dim else ()

    def representative(self, cls: PageClass) -> Form:
        return self.model.part_form(cls.p, self.cell(cls.r, cls.p).lift(cls.coords))

    # -- pages ------------------------------------------------------------------

    def page(self, r: int) -> SpectralPage:
        """The full page E_r with its differentials; r must be in 1..n+2."""
        self.check_page(r)
        cells = {p: self.cell(r, p) for p in range(self.n + 1)}
        d = {p: self.differential_matrix(r, p) for p in range(self.n + 1)}
        return SpectralPage(r, cells, d, stable=(r >= self.max_page))

    def e_infinity(self) -> SpectralPage:
        """The stable page: the filtration is exhausted at r = n + 2."""
        return self.page(self.max_page)
