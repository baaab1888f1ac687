"""Exact rational linear algebra: echelon forms, kernels, images, quotients.

Everything is computed over Q with `fractions.Fraction`, so equality tests
are exact and every routine is deterministic.  Reduced row-echelon form is
the canonical representative of a row space: two generating sets of the same
subspace always produce identical bases.  Particular solutions zero their
free variables.

Matrices act on column vectors: a `Mat` with shape (rows, cols) is a linear
map Q^cols -> Q^rows.  Vectors are plain tuples of Fractions.  All values
are immutable once built.

Values are coerced to `Fraction` once, where they enter: `vec` passes
Fractions through unchanged, and matrices built here from rows that are
already exact are not coerced again.  Most entries of the matrices the
engine builds are zero, so the kernels (`Mat.apply`, `@`, `rref` and the
subspace reductions) skip zero entries.

Each kernel costs one elimination.  Eliminating m with its columns reversed
puts every null vector's leading 1 on its own free column with zeros at the
other free columns, so the null vectors come out as the canonical RREF of
the kernel (the proof is in `kernel`); `preimage` keeps a prefix of them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

Vec = tuple  # tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)
_EXACT = {Fraction}


def vec(entries: Iterable) -> Vec:
    """Coerce an iterable of numbers into an exact coordinate vector.

    Fractions are immutable, so one that is already exact is kept as is.
    """
    v = tuple(entries)
    if set(map(type, v)) <= _EXACT:
        return v
    return tuple(x if type(x) is Fraction else Fraction(x) for x in v)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_is_zero(u: Vec) -> bool:
    return not any(u)


class Mat:
    """Dense matrix over Q.  Immutable after construction."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows_of_entries: Iterable[Iterable], cols: Optional[int] = None):
        data = tuple(vec(r) for r in rows_of_entries)
        self.rows = len(data)
        if data:
            self.cols = len(data[0])
            if any(len(r) != self.cols for r in data):
                raise ValueError("ragged rows")
            if cols is not None and cols != self.cols:
                raise ValueError("explicit column count disagrees with rows")
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            self.cols = cols
        self.data = data

    @staticmethod
    def _exact(data: tuple, cols: int) -> "Mat":
        """A matrix on a tuple of rows that are already exact tuples of length cols."""
        m = Mat.__new__(Mat)
        m.rows, m.cols, m.data = len(data), cols, data
        return m

    @staticmethod
    def zeros(rows: int, cols: int) -> "Mat":
        return Mat._exact((zero_vec(cols),) * rows, cols)

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat._exact(tuple(unit_vec(n, i) for i in range(n)), n)

    @staticmethod
    def from_cols(columns: Sequence[Vec], rows: Optional[int] = None) -> "Mat":
        """The matrix with the given columns; `rows` must agree with their length."""
        cols = [vec(c) for c in columns]
        if rows is None:
            if not cols:
                raise ValueError("empty column list needs an explicit row count")
            rows = len(cols[0])
        lengths = {len(c) for c in cols}
        if len(lengths) > 1:
            raise ValueError("ragged columns")
        if lengths - {rows}:
            raise ValueError("explicit row count disagrees with columns")
        return Mat._exact(tuple(zip(*cols)) if cols else ((),) * rows, len(cols))

    def row(self, i: int) -> Vec:
        return self.data[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.data)

    def apply(self, v: Vec) -> Vec:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError(f"dimension mismatch: {self.rows}x{self.cols} on vector of length {len(v)}")
        nz = [(j, b) for j, b in enumerate(v) if b]
        out = []
        for r in self.data:
            s = ZERO
            for j, b in nz:
                a = r[j]
                if a:
                    s += a * b
            out.append(s)
        return tuple(out)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        n = other.cols
        other_nz = [[(j, x) for j, x in enumerate(row) if x] for row in other.data]
        out = []
        for r in self.data:
            acc = [ZERO] * n
            for k, a in enumerate(r):
                if a:
                    for j, x in other_nz[k]:
                        acc[j] += a * x
            out.append(tuple(acc))
        return Mat._exact(tuple(out), n)

    def transpose(self) -> "Mat":
        if not self.data:
            return Mat._exact(((),) * self.cols, 0)
        return Mat._exact(tuple(zip(*self.data)), self.rows)

    def augment(self, other: "Mat") -> "Mat":
        """Stack side by side: [self | other]."""
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return Mat._exact(
            tuple(a + b for a, b in zip(self.data, other.data)), self.cols + other.cols
        )

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.data)

    def rank(self) -> int:
        return len(rref(self)[1])

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.cols == other.cols and self.data == other.data

    def __hash__(self):
        return hash((self.cols, self.data))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols})"


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row-echelon form and the pivot columns, fully canonical.

    Only the nonzero entries of the pivot row are scaled and subtracted;
    its entries left of the pivot column are zero already.
    """
    a = [list(r) for r in m.data]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        prow = a[r]
        nz = [j for j in range(c, ncols) if prow[j]]
        pv = prow[c]
        if pv != 1:
            for j in nz:
                prow[j] /= pv
        for i in range(nrows):
            row = a[i]
            f = row[c]
            if f and i != r:
                for j in nz:
                    row[j] -= f * prow[j]
        pivots.append(c)
        r += 1
    return Mat._exact(tuple(map(tuple, a)), ncols), tuple(pivots)


class SubspaceBasis:
    """A subspace of Q^n held by its reduced-echelon basis.

    The basis rows are the nonzero rows of the RREF of any generating set,
    so equal subspaces compare equal structurally.
    """

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, ambient_dim: int, rows: tuple[Vec, ...], pivots: tuple[int, ...]):
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = pivots

    @staticmethod
    def span(ambient_dim: int, vectors: Iterable[Vec]) -> "SubspaceBasis":
        vs = [vec(v) for v in vectors]
        for v in vs:
            if len(v) != ambient_dim:
                raise ValueError("vector length disagrees with ambient dimension")
        if not vs:
            return SubspaceBasis(ambient_dim, (), ())
        r, piv = rref(Mat._exact(tuple(vs), ambient_dim))
        return SubspaceBasis(ambient_dim, r.data[: len(piv)], piv)

    @staticmethod
    def zero(ambient_dim: int) -> "SubspaceBasis":
        return SubspaceBasis(ambient_dim, (), ())

    @staticmethod
    def full(ambient_dim: int) -> "SubspaceBasis":
        return SubspaceBasis(
            ambient_dim,
            tuple(unit_vec(ambient_dim, i) for i in range(ambient_dim)),
            tuple(range(ambient_dim)),
        )

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: Vec) -> Vec:
        """Residual of v after eliminating every pivot; zero iff v is a member."""
        if len(v) != self.ambient_dim:
            raise ValueError("vector length disagrees with ambient dimension")
        v = list(vec(v))
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                for j, x in enumerate(row):
                    if x:
                        v[j] -= c * x
        return tuple(v)

    def contains(self, v: Vec) -> bool:
        return vec_is_zero(self.reduce(v))

    def contains_space(self, other: "SubspaceBasis") -> bool:
        return all(self.contains(r) for r in other.rows)

    def coords(self, v: Vec) -> Optional[Vec]:
        """Coefficients of v in the echelon basis, or None if not a member."""
        c = tuple(v[p] for p in self.pivots)
        if vec_is_zero(self.reduce(v)):
            return c
        return None

    def basis_matrix(self) -> Mat:
        """Basis vectors as columns (ambient_dim x dim)."""
        return Mat.from_cols(list(self.rows), rows=self.ambient_dim)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubspaceBasis)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def __repr__(self):
        return f"SubspaceBasis(dim {self.dim} in Q^{self.ambient_dim})"


def kernel(m: Mat) -> SubspaceBasis:
    """Null space of m, canonicalized, from one elimination.

    m is eliminated with its columns reversed, so column f of m becomes
    column c = n-1-f.  The null vector of a free column c is 1 at c, minus
    the RREF's column c at the pivots left of c, and 0 elsewhere.  Mapped
    back, its first nonzero entry is that 1, at its own free column f, and
    it is 0 at every other free column, since its other nonzero entries sit
    at pivots right of f.  Sorted by f, the null vectors are therefore
    already the RREF of ker m (each leads with a 1 where every other row is
    0), which is unique, so no second elimination is needed.
    """
    n = m.cols
    r, pivots = rref(Mat._exact(tuple(row[::-1] for row in m.data), n))
    pivset = set(pivots)
    free = [c for c in range(n - 1, -1, -1) if c not in pivset]  # ascending f
    rows = []
    for c in free:
        v = [ZERO] * n
        v[n - 1 - c] = ONE
        for i, p in enumerate(pivots):
            if p > c:
                break
            x = r.data[i][c]
            if x:
                v[n - 1 - p] = -x
        rows.append(tuple(v))
    return SubspaceBasis(n, tuple(rows), tuple(n - 1 - c for c in free))


def image(m: Mat) -> SubspaceBasis:
    """Column span of m, canonicalized."""
    return SubspaceBasis.span(m.rows, [m.col(j) for j in range(m.cols)])


def solve_particular(m: Mat, b: Vec) -> Optional[Vec]:
    """The solution of m x = b whose free variables are all zero.

    Returns None when b is outside the image.  The zero-free-variable
    convention makes the result unique and deterministic.
    """
    b = vec(b)
    if len(b) != m.rows:
        raise ValueError("right-hand side length disagrees with row count")
    aug = Mat._exact(tuple(row + (x,) for row, x in zip(m.data, b)), m.cols + 1)
    r, pivots = rref(aug)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [ZERO] * m.cols
    for i, p in enumerate(pivots):
        x[p] = r.data[i][m.cols]
    return tuple(x)


def preimage(m: Mat, w: SubspaceBasis) -> SubspaceBasis:
    """The subspace {v : m v lies in w}, canonicalized.

    Computed as the domain projection of the kernel of [m | W] where the
    columns of W span w: m v = -W u lies in w, and the projection is the
    same as that of [m | -W].  The kernel rows pivoting in the first m.cols
    columns, truncated there, are already that projection's RREF (they keep
    their leading 1s and the zeros at each other's pivots), and every other
    row projects to zero.
    """
    if w.ambient_dim != m.rows:
        raise ValueError("subspace does not live in the codomain")
    if w.dim == 0:
        return kernel(m)
    k = kernel(m.augment(w.basis_matrix()))
    rank = sum(1 for c in k.pivots if c < m.cols)  # pivots ascend: a prefix of the rows
    return SubspaceBasis(m.cols, tuple(r[: m.cols] for r in k.rows[:rank]), k.pivots[:rank])


class QuotientSpace:
    """A quotient Z/B of nested subspaces with canonical coset representatives.

    The representatives are the echelon basis vectors of Z whose pivot
    columns are not pivots of B; they form a complement of B inside Z, so
    project(lift(c)) == c for every class c and project(v) == 0 exactly when
    v lies in B.
    """

    __slots__ = ("ambient", "sub", "coset_reps", "_rep_pivots")

    def __init__(self, ambient: SubspaceBasis, sub: SubspaceBasis):
        if ambient.ambient_dim != sub.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if not ambient.contains_space(sub):
            raise ValueError("denominator is not contained in numerator")
        self.ambient = ambient
        self.sub = sub
        subpiv = set(sub.pivots)
        reps = [(row, p) for row, p in zip(ambient.rows, ambient.pivots) if p not in subpiv]
        self.coset_reps = tuple(row for row, _ in reps)
        self._rep_pivots = tuple(p for _, p in reps)

    @property
    def dim(self) -> int:
        return self.ambient.dim - self.sub.dim

    @property
    def ambient_dim(self) -> int:
        return self.ambient.ambient_dim

    def is_zero_class(self, v: Vec) -> bool:
        return self.sub.contains(v)

    def project(self, v: Vec) -> Vec:
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
        return tuple(w[p] for p in self._rep_pivots)

    def lift(self, coords: Vec) -> Vec:
        if len(coords) != self.dim:
            raise ValueError("class coordinate length mismatch")
        out = list(zero_vec(self.ambient_dim))
        for c, rep in zip(coords, self.coset_reps):
            if c:
                for j, x in enumerate(rep):
                    if x:
                        out[j] += c * x
        return tuple(out)

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


def span_in_quotient(q: QuotientSpace, vectors: Iterable[Vec]) -> SubspaceBasis:
    """Span of the classes of the given numerator vectors, in class coordinates."""
    return SubspaceBasis.span(q.dim, [q.project(v) for v in vectors])
