"""Exact rational linear algebra on sparse rows: echelon forms, kernels, images, quotients.

Everything is computed over Q with `fractions.Fraction`, so equality tests
are exact and every routine is deterministic.  Reduced row-echelon form is
the canonical representative of a row space: two generating sets of the same
subspace always produce identical bases.  Particular solutions zero their
free variables.

Vectors are sparse: a vector is the tuple of (index, Fraction) pairs of its
nonzero coordinates, sorted by index, the layout of a `Form`'s parts and the
one vector layout in and out of the API (`sparse` and `dense` convert from
and to dense tuples).  A `Mat` holds its rows and a `SubspaceBasis` its
basis in that layout, and every routine here walks only the stored pairs:
`Echelon` finds pivots by each row's leading column (its first pair) and
eliminates by adding sparse rows, and `Mat.apply`, `@` and the subspace
reductions touch only nonzeros.  Matrices act on column vectors: a `Mat`
with shape (rows, cols) is a linear map Q^cols -> Q^rows.  All values are
immutable once built.  Values are checked and coerced to `Fraction` once,
where they enter (`checked`, run by `Mat(...)` and the `Form` constructor);
the routines take exact sparse vectors and do not check them again.

There is one elimination, `Echelon`, which grows by rows and reads its RREF
and kernel at any point; `rref` and `kernel` are its one-shot uses.
Eliminating m with its columns reversed puts every null vector's leading 1
on its own free column with zeros at the other free columns, so the null
vectors come out as the canonical RREF of the kernel (the proof is in
`Echelon.kernel`).
"""

from __future__ import annotations

from bisect import bisect_left
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Optional, Sequence

SVec = tuple  # sparse: tuple[tuple[int, Fraction], ...], sorted by index, no zero value

ZERO = Fraction(0)
ONE = Fraction(1)


def sparse(entries: Iterable) -> SVec:
    """The sparse vector of a dense iterable of numbers, coerced to Fractions."""
    v = tuple(entries)
    return checked(enumerate(v), len(v), "a dense vector")


def dense(v: SVec, n: int) -> tuple:
    """The dense view of a sparse vector of length n."""
    out = [ZERO] * n
    for j, x in v:
        out[j] = x
    return tuple(out)


def rational(s: str) -> Fraction:
    """The Fraction of an integer, p/q or decimal string; ValueError otherwise.

    `Fraction` would expand exponent notation: "1e999999999" is a billion
    digits.  So a string with e, E or _ is refused before it gets there.
    """
    if any(c in "eE_" for c in s):
        raise ValueError("write an integer, p/q or a decimal")
    return Fraction(s)


def checked(pairs: Iterable, n: int, what: str) -> SVec:
    """The sparse vector of (index, number) pairs, values coerced to Fractions
    and zeros dropped; ValueError, naming `what`, unless `pairs` is an
    iterable of (index, value) pairs, the indices ints strictly increasing in
    range(n) and every value a number that `Fraction` takes without expanding
    an exponent (a string through `rational`; a Decimal's exponent at most
    4300 in magnitude, the digit limit `Fraction` puts on a string)."""
    try:
        pairs = iter(pairs)
    except TypeError:
        raise ValueError(f"{what} is not an iterable of (index, value) pairs") from None
    out, last = [], -1
    for pair in pairs:
        try:
            j, x = pair
        except (TypeError, ValueError):
            raise ValueError(f"{what} has an entry {pair!r} that is not an (index, value) pair") from None
        if type(j) is not int:
            raise ValueError(f"{what} has a non-integer index {j!r}")
        if not 0 <= j < n:
            raise ValueError(f"{what} has an index outside range({n})")
        if j <= last:
            raise ValueError(f"{what} has indices that do not strictly increase")
        last = j
        if type(x) is not Fraction:
            try:
                if isinstance(x, Decimal) and x.is_finite() and abs(x.as_tuple().exponent) > 4300:
                    raise ValueError  # Fraction(x) would build 10**exponent
                x = rational(x) if isinstance(x, str) else Fraction(x)
            except (TypeError, ValueError, OverflowError, ZeroDivisionError):
                raise ValueError(f"{what} has a value {x!r} that is not a rational number") from None
        if x:
            out.append((j, x))
    return tuple(out)


def collect(acc: dict) -> SVec:
    """A sparse vector from an index -> value accumulator, dropping zeros."""
    return tuple(sorted((j, x) for j, x in acc.items() if x))


def _subtract(acc: dict, c: Fraction, v: SVec) -> None:
    """acc -= c * v, on an index -> value accumulator."""
    for j, x in v:
        acc[j] = acc[j] - c * x if j in acc else -c * x


def combine(coeffs: SVec, vectors: Sequence[SVec]) -> SVec:
    """The sum of c * vectors[k] over the pairs (k, c) of coeffs."""
    if len(coeffs) == 1:
        k, c = coeffs[0]
        return vectors[k] if c == 1 else tuple((j, c * x) for j, x in vectors[k])
    acc: dict = {}
    for k, c in coeffs:
        for j, x in vectors[k]:
            y = c * x
            acc[j] = acc[j] + y if j in acc else y
    return collect(acc)


def _transpose(rows: Sequence[SVec], ncols: int) -> tuple[SVec, ...]:
    """The sparse columns of the matrix with the given sparse rows."""
    cols: list[list] = [[] for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row:
            cols[j].append((i, x))
    return tuple(map(tuple, cols))


class Mat:
    """Matrix over Q on sparse rows.  Immutable after construction.

    ``sparse`` holds one sparse vector per row; ``rows`` and ``cols`` are the
    shape, as integers.
    """

    __slots__ = ("rows", "cols", "sparse")

    def __init__(self, rows: Iterable[Iterable], cols: int):
        """The cols-column matrix of rows of (index, number) pairs, `checked`."""
        self.sparse = tuple(checked(row, cols, f"row {i}") for i, row in enumerate(rows))
        self.rows, self.cols = len(self.sparse), cols

    @staticmethod
    def _exact(rows: tuple, cols: int) -> "Mat":
        """A matrix on a tuple of sparse rows that are already exact, indices below cols."""
        m = Mat.__new__(Mat)
        m.rows, m.cols, m.sparse = len(rows), cols, rows
        return m

    @staticmethod
    def zeros(rows: int, cols: int) -> "Mat":
        return Mat._exact(((),) * rows, cols)

    @staticmethod
    def from_cols(columns: Sequence[SVec], rows: int) -> "Mat":
        """The rows x len(columns) matrix with the given sparse columns."""
        if any(c and c[-1][0] >= rows for c in columns):
            raise ValueError("a column has an index past the row count")
        return Mat._exact(_transpose(columns, rows), len(columns))

    def columns(self) -> tuple[SVec, ...]:
        """The sparse columns, in one pass over the nonzeros."""
        return _transpose(self.sparse, self.cols)

    def apply(self, v: SVec) -> SVec:
        """Matrix-vector product of a sparse vector."""
        if v and v[-1][0] >= self.cols:
            raise ValueError(f"dimension mismatch: {self.rows}x{self.cols} on index {v[-1][0]}")
        if not v:
            return ()
        vd = dict(v)
        out = []
        for i, row in enumerate(self.sparse):
            s = None
            for j, a in row:
                b = vd.get(j)
                if b is not None:
                    s = a * b if s is None else s + a * b
            if s:
                out.append((i, s))
        return tuple(out)

    def __matmul__(self, other: "Mat") -> "Mat":
        """Row i of the product is the combination of other's rows by self's row i."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        b = other.sparse
        return Mat._exact(tuple(combine(r, b) if r else () for r in self.sparse), other.cols)

    def is_zero(self) -> bool:
        return not any(self.sparse)

    def rank(self) -> int:
        return 0 if self.is_zero() else len(rref(self)[1])

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.cols == other.cols and self.sparse == other.sparse

    def __hash__(self):
        return hash((self.cols, self.sparse))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols})"


class Echelon:
    """A row space grown by forward elimination and read in canonical form.

    `add` reduces each row's leading entry (its first pair) against the pivot
    row of that column until it is zero or leads in a new column, where it
    becomes the pivot row, scaled to a leading 1.  `rref` back-substitutes
    from the last pivot: each pivot row subtracts the reduced pivot rows at
    its other pivots, adding entries only at non-pivot columns.  The reduced
    rows stay as the pivot rows, so rows can be added after a read; the RREF
    is unique, so a read does not depend on how the rows arrived.
    """

    __slots__ = ("cols", "_pivot_rows")

    def __init__(self, cols: int):
        self.cols = cols
        self._pivot_rows: dict[int, SVec] = {}

    def add(self, rows: Iterable[SVec]) -> bool:
        """Eliminate exact sparse rows forward; True if one of them made a new pivot."""
        pivot_rows = self._pivot_rows
        before = len(pivot_rows)
        for row in rows:
            while row:
                c, f = row[0]
                prow = pivot_rows.get(c)
                if prow is None:
                    if f != 1:
                        row = tuple((j, x / f) for j, x in row)
                    pivot_rows[c] = row
                    break
                acc = dict(row[1:])  # the leading entries cancel
                _subtract(acc, f, prow[1:])
                row = collect(acc)
        return len(pivot_rows) > before

    def rref(self) -> tuple[tuple[SVec, ...], tuple[int, ...]]:
        """The nonzero rows of the RREF and their pivot columns, ascending."""
        pivot_rows = self._pivot_rows
        pivots = tuple(sorted(pivot_rows))
        for c in reversed(pivots):
            row = pivot_rows[c]
            hits = [(pivot_rows[j], x) for j, x in row[1:] if j in pivot_rows]
            if hits:
                acc = dict(row)
                for prow, x in hits:
                    del acc[prow[0][0]]  # x times prow's leading 1 cancels it
                    _subtract(acc, x, prow[1:])
                pivot_rows[c] = collect(acc)
        return tuple(map(pivot_rows.__getitem__, pivots)), pivots

    def kernel(self, below: Optional[int] = None) -> "SubspaceBasis":
        """Null space of the rows with column c put back at n-1-c, canonicalized;
        with `below`, only the prefix of its basis rows that pivot below it.

        The null vector of a free column c is 1 at c, minus the RREF's
        column c at the pivots left of c, and 0 elsewhere.  Mapped back, its
        first nonzero entry is that 1, at its own free column f = n-1-c, and
        it is 0 at every other free column, since its other nonzero entries
        sit at pivots right of f.  Sorted by f, the null vectors are
        therefore already the RREF of the null space, which is unique, so no
        second elimination is needed.
        """
        n = self.cols
        low = n - (n if below is None else below)  # f < below is c >= low
        rows, pivots = self.rref()
        at: dict[int, list] = {}  # the RREF's column c >= low at the pivots, by c
        for row, p in zip(rows, pivots):
            for c, x in row[max(1, bisect_left(row, (low,))) if low else 1 :]:
                at.setdefault(c, []).append((n - 1 - p, -x))
        out, free = [], []
        for c in range(n - 1, low - 1, -1):  # ascending f = n-1-c
            if c not in self._pivot_rows:
                out.append(((n - 1 - c, ONE),) + tuple(reversed(at.get(c, ()))))
                free.append(n - 1 - c)
        return SubspaceBasis(n, tuple(out), tuple(free))


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row-echelon form and the pivot columns, fully canonical: one
    `Echelon` fed every row of m."""
    e = Echelon(m.cols)
    e.add(m.sparse)
    rows, pivots = e.rref()
    return Mat._exact(rows + ((),) * (m.rows - len(rows)), m.cols), pivots


class SubspaceBasis:
    """A subspace of Q^n held by its reduced-echelon basis, as sparse rows.

    The basis rows are the nonzero rows of the RREF of any generating set,
    so equal subspaces compare equal structurally; each row's first pair is
    the 1 at its pivot.
    """

    __slots__ = ("ambient_dim", "sparse", "pivots", "_index")

    def __init__(self, ambient_dim: int, rows: tuple[SVec, ...], pivots: tuple[int, ...]):
        self.ambient_dim = ambient_dim
        self.sparse = rows
        self.pivots = pivots
        self._index = {p: k for k, p in enumerate(pivots)}  # pivot column -> basis row

    @staticmethod
    def span(ambient_dim: int, vectors: Iterable[SVec]) -> "SubspaceBasis":
        vs = tuple(vectors)
        if any(v and v[-1][0] >= ambient_dim for v in vs):
            raise ValueError("vector index outside the ambient dimension")
        if not vs:
            return SubspaceBasis(ambient_dim, (), ())
        r, piv = rref(Mat._exact(vs, ambient_dim))
        return SubspaceBasis(ambient_dim, r.sparse[: len(piv)], piv)

    @staticmethod
    def zero(ambient_dim: int) -> "SubspaceBasis":
        return SubspaceBasis(ambient_dim, (), ())

    @staticmethod
    def full(ambient_dim: int) -> "SubspaceBasis":
        return SubspaceBasis(
            ambient_dim, tuple(((i, ONE),) for i in range(ambient_dim)), tuple(range(ambient_dim))
        )

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, v: SVec) -> SVec:
        """Residual of v after eliminating every pivot; empty iff v is a member.

        The basis is reduced, so subtracting one row leaves v unchanged at
        the other pivots: each row's coefficient is v's own entry at its pivot.
        """
        if v and v[-1][0] >= self.ambient_dim:
            raise ValueError("vector index outside the ambient dimension")
        index, rows = self._index, self.sparse
        hits = [(rows[k], c) for j, c in v if (k := index.get(j)) is not None]
        if not hits:
            return v
        acc = dict(v)
        for row, c in hits:
            del acc[row[0][0]]  # c times the row's leading 1 at its pivot cancels it
            _subtract(acc, c, row[1:])
        return collect(acc)

    def contains(self, v: SVec) -> bool:
        return not self.reduce(v)

    def contains_space(self, other: "SubspaceBasis") -> bool:
        return all(self.contains(r) for r in other.sparse)

    def coords(self, v: SVec) -> Optional[SVec]:
        """Coefficients of v in the echelon basis, or None if not a member."""
        if self.reduce(v):
            return None
        index = self._index
        return tuple((k, c) for j, c in v if (k := index.get(j)) is not None)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubspaceBasis)
            and self.ambient_dim == other.ambient_dim
            and self.sparse == other.sparse
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.sparse))

    def __repr__(self):
        return f"SubspaceBasis(dim {self.dim} in Q^{self.ambient_dim})"


def kernel(m: Mat) -> SubspaceBasis:
    """Null space of m, canonicalized, from one elimination: an `Echelon`
    fed m's rows with their columns reversed."""
    e, n = Echelon(m.cols), m.cols
    e.add(tuple((n - 1 - j, x) for j, x in reversed(row)) for row in m.sparse)
    return e.kernel()


def image(m: Mat) -> SubspaceBasis:
    """Column span of m, canonicalized."""
    return SubspaceBasis.span(m.rows, m.columns())


def solve_particular(m: Mat, b: SVec) -> Optional[SVec]:
    """The solution of m x = b whose free variables are all zero.

    Returns None when b is outside the image.  The zero-free-variable
    convention makes the result unique and deterministic.
    """
    if b and b[-1][0] >= m.rows:
        raise ValueError("right-hand side index past the row count")
    n = m.cols
    aug = list(m.sparse)
    for i, x in b:
        aug[i] = aug[i] + ((n, x),)
    r, pivots = rref(Mat._exact(tuple(aug), n + 1))
    if pivots and pivots[-1] == n:
        return None
    return tuple(
        (p, row[-1][1]) for row, p in zip(r.sparse, pivots) if row[-1][0] == n
    )


class QuotientSpace:
    """A quotient Z/B of nested subspaces with canonical coset representatives.

    The representatives are the echelon basis vectors of Z whose pivot
    columns are not pivots of B; they form a complement of B inside Z, so
    project(lift(c)) == c for every class c and project(v) == 0 exactly when
    v lies in B.  ``sparse_reps`` holds them as sparse vectors.
    """

    __slots__ = ("ambient", "sub", "sparse_reps", "_rep_index", "dim")

    def __init__(self, ambient: SubspaceBasis, sub: SubspaceBasis):
        if ambient.ambient_dim != sub.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if not ambient.contains_space(sub):
            raise ValueError("denominator is not contained in numerator")
        self.ambient = ambient
        self.sub = sub
        subpiv = sub._index
        reps = [(row, p) for row, p in zip(ambient.sparse, ambient.pivots) if p not in subpiv]
        self.sparse_reps = tuple(row for row, _ in reps)
        self._rep_index = {p: k for k, (_, p) in enumerate(reps)}  # rep pivot -> class coordinate
        self.dim = ambient.dim - sub.dim

    @property
    def ambient_dim(self) -> int:
        return self.ambient.ambient_dim

    def is_zero_class(self, v: SVec) -> bool:
        return self.sub.contains(v)

    def project(self, v: SVec) -> SVec:
        """Class coordinates of a member of the numerator space.

        These are the x of the unique solution of v = reps x + sub y.  The
        echelon bases already factor that system: reducing v by the
        denominator leaves zeros at its pivots, so the residual is a
        combination of the representatives alone and its entries at their
        pivots are x.  The residual lies in the numerator exactly when v does.
        """
        w = self.sub.reduce(v)
        if not self.ambient.contains(w):
            raise ValueError("vector not in the subspace being quotiented")
        index = self._rep_index
        return tuple((k, c) for j, c in w if (k := index.get(j)) is not None)

    def lift(self, coords: SVec) -> SVec:
        if coords and coords[-1][0] >= self.dim:
            raise ValueError("class coordinate index past the quotient dimension")
        return combine(coords, self.sparse_reps) if coords else ()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuotientSpace)
            and self.ambient == other.ambient
            and self.sub == other.sub
        )

    def __hash__(self):
        return hash((self.ambient, self.sub))

    def __repr__(self):
        return f"QuotientSpace(dim {self.dim} = {self.ambient.dim}-{self.sub.dim} in Q^{self.ambient_dim})"


def span_in_quotient(q: QuotientSpace, vectors: Iterable[SVec]) -> SubspaceBasis:
    """Span of the classes of the given numerator vectors, in class coordinates."""
    return SubspaceBasis.span(q.dim, [q.project(v) for v in vectors])
