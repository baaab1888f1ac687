"""Finite CDGA models: graded bases, wedge tables, differentials, cohomology.

A model is a finite-dimensional graded-commutative differential graded
algebra given at basis level: ordered basis labels per degree, structure
constants for the wedge product, and matrices for the degree +1
differential.  Loading a model makes sure of the axioms (d o d = 0, graded
commutativity, Leibniz, associativity, existence of a unit) so that
everything downstream can rely on them.  A model expanded from generator
form satisfies all of them by construction except d o d = 0, which is the
one it checks (`_GeneratorModel`).  A basis-form model is checked on every
axiom.  For a connected one (dim A^0 = 1) Leibniz and associativity are
checked only with the first factor in {e_0} u G, G a set of basis elements
spanning a complement of the decomposables A+ . A+ in A+ (the
indecomposables Q(A)); by induction on degree that implies them for every
first factor, and costs order |G| N^2 instead of N^3.  Other models are
checked on every first factor.

The structure constants are held once, sparsely: the product of two basis
elements is a tuple of (index, coefficient) pairs, sorted by index, with no
zero coefficient (in generator form it is at most one signed monomial).
This table is the one representation of the product; `wedge`, the axiom
checks and the pieces of D, the twisted differential, all read it.
The differential is held the same way once more, as the sparse columns of
its matrices, which `d`, the d o d check and the Leibniz check read; the
matrices themselves are `linalg.Mat`s on sparse rows.

A `Form` is sparse too, in and out of the API: per degree, the sorted
(index, coefficient) pairs of its nonzero coordinates, the vector layout of
`linalg` (`Form.part`).  Values are coerced to `Fraction` and checked once,
where they enter (the public `Form` constructor); the results of sums,
scalings, `wedge` and `d` are built in the stored layout and not checked
again; sums, `wedge` and `d` go through `linalg.combine`, per degree.

Two input layouts are accepted:

* generator form -- an exterior algebra on named odd-degree generators with
  the differential given on generators; the parser expands it to basis
  level (square-free monomials, ordered by degree then lexicographically on
  the generator sequence; while expanding, a monomial is the bitmask of its
  generators, bit i for the i-th generator listed), and
* basis form -- explicit per-degree labels plus multiplication/differential
  tables; unspecified products and differentials are zero.

Each loader checks its document and builds the tables in this layout, with a
product block only for each pair of nonempty degrees; the constructor takes
the layout as given and checks the axioms that can fail.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .linalg import (
    Mat,
    ONE,
    QuotientSpace,
    SubspaceBasis,
    SVec,
    ZERO,
    checked,
    collect,
    combine,
    image,
    kernel,
    rational,
    solve_particular,
    sparse,
)


class ModelError(Exception):
    """Base class for model loading problems."""


class ModelSchemaError(ModelError):
    """The document does not match the model-file schema."""


class AlgebraError(ModelError):
    """A CDGA axiom fails; the message names the axiom and the witnesses."""


# Size limits, checked before anything is allocated from a document's
# numbers: a model has at most MAX_DIM basis elements (so the generator form,
# which has 2^k of them, at most 10 generators) and top degree at most
# MAX_TOP_DEGREE (the product table has at most (n+1)(n+2)/2 degree pairs).
MAX_DIM = 1024
MAX_TOP_DEGREE = 256

# The product of two basis elements: (index, coefficient) pairs in the
# degree of the product, sorted by index, with no zero coefficient.
Product = tuple  # tuple[tuple[int, Fraction], ...]


_SIGNS = (ONE, -ONE)


def _combine(terms: Sequence[tuple[Fraction, Product]]) -> SVec:
    """The sum of c * product over (c, product) pairs, a sparse vector."""
    return combine(tuple((k, c) for k, (c, _) in enumerate(terms)), [prod for _, prod in terms])


# ---------------------------------------------------------------------------
# linear-combination / wedge-expression parsing


def _parse_rational(tok: str) -> Fraction:
    try:
        return rational(tok)
    except (ValueError, ZeroDivisionError) as e:
        raise ModelSchemaError(f"bad rational coefficient {tok!r}: {e}") from None


def _split_terms(s: str) -> list[tuple[int, str]]:
    """Split a sum into (sign, term) pairs; raises on an operator with no term after it."""
    terms = []
    sign, buf, dangling = 1, [], False
    for ch in s:
        if ch in "+-":
            if buf:
                terms.append((sign, "".join(buf).strip()))
                sign, buf = 1, []
            if ch == "-":
                sign = -sign
            dangling = True
        elif buf or not ch.isspace():
            buf.append(ch)
            dangling = False
    if dangling:
        raise ModelSchemaError(f"operator without a term in expression {s!r}")
    if buf:
        terms.append((sign, "".join(buf).strip()))
    return terms


def parse_linear_combination(s: str) -> list[tuple[Fraction, str]]:
    """Parse ``"c1*label1 + c2*label2"`` into (coefficient, token) pairs.

    A missing coefficient means 1; the string "0" (or an empty string) is the
    zero combination.  Tokens are opaque here; callers resolve them.
    """
    s = s.strip()
    if s in ("", "0"):
        return []
    out = []
    for sign, term in _split_terms(s):
        if "*" in term:
            coeff_s, _, tok = term.partition("*")
            coeff = _parse_rational(coeff_s.strip())
        else:
            coeff, tok = Fraction(1), term
        tok = tok.strip()
        if not tok:
            raise ModelSchemaError(f"term without a label in {s!r}")
        out.append((sign * coeff, tok))
    return out


# ---------------------------------------------------------------------------
# forms


class Form:
    """A (possibly inhomogeneous) element of a model, stored sparsely per degree.

    ``parts`` maps each degree with a nonzero component, in increasing
    order, to its nonzero coordinates as (index, Fraction) pairs sorted by
    index.  The public constructor takes that layout with any numbers as
    values and checks each degree once (`linalg.checked`); sums, scalings,
    wedges and differentials are built by `_exact` from stored parts.  Forms
    are immutable; arithmetic returns new values, or an operand itself when
    that is the result.
    """

    __slots__ = ("model", "parts")

    def __init__(self, model: "CdgaModel", parts: Mapping[int, Iterable]):
        for p in parts:
            if type(p) is not int:
                raise ValueError(f"degree {p!r} is not an int")
            if not (0 <= p <= model.top_degree):
                raise ValueError(f"degree {p} outside the model range")
        exact = ((p, checked(v, model.dim(p), f"component of degree {p}")) for p, v in sorted(parts.items()))
        self.model = model
        self.parts = {p: nz for p, nz in exact if nz}

    @staticmethod
    def _exact(model: "CdgaModel", parts: dict) -> "Form":
        """A form on parts already in the stored layout: degree-sorted, each a
        nonempty index-sorted tuple of (index, Fraction) pairs.  Every zero
        form is the model's one zero form."""
        if not parts:
            return model.zero_form()
        f = Form.__new__(Form)
        f.model, f.parts = model, parts
        return f

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.parts

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(self.parts)

    @property
    def is_homogeneous(self) -> bool:
        return len(self.parts) <= 1

    @property
    def degree(self) -> Optional[int]:
        """Degree of a homogeneous form; None for zero; error otherwise."""
        if not self.parts:
            return None
        if len(self.parts) > 1:
            raise ValueError("inhomogeneous form has no single degree")
        return next(iter(self.parts))

    def part(self, p: int) -> SVec:
        """The degree-p component as a sparse vector, the layout of `linalg`."""
        return self.parts.get(p, ())

    def homogeneous_part(self, p: int) -> "Form":
        if not (0 <= p <= self.model.top_degree):
            raise ValueError(f"degree {p} outside the model range")
        return Form._exact(self.model, {p: self.parts[p]} if p in self.parts else {})

    # -- arithmetic ----------------------------------------------------------

    def _check_same_model(self, other: "Form"):
        if self.model is not other.model:
            raise ValueError("forms belong to different models")

    def _plus(self, other: "Form", sign: int) -> "Form":
        """self + sign * other, for sign = 1 or -1.  Only shared degrees are
        combined; the others keep their part (negated for -other)."""
        self._check_same_model(other)
        if not other.parts:
            return self
        if not self.parts:
            return other if sign == 1 else -other
        coeffs, mine, theirs = ((0, ONE), (1, _SIGNS[sign < 0])), self.parts, other.parts
        parts = {p: combine(coeffs, (v, theirs[p])) if p in theirs else v for p, v in mine.items()}
        for p in theirs.keys() - mine.keys():
            parts[p] = theirs[p] if sign == 1 else tuple((k, -c) for k, c in theirs[p])
        return Form._exact(self.model, {p: parts[p] for p in sorted(parts) if parts[p]})

    def __add__(self, other: "Form") -> "Form":
        return self._plus(other, 1)

    def __sub__(self, other: "Form") -> "Form":
        return self._plus(other, -1)

    def __neg__(self) -> "Form":
        return Form._exact(self.model, {p: tuple((k, -c) for k, c in v) for p, v in self.parts.items()})

    def __rmul__(self, c) -> "Form":
        if c == 1:
            return self
        if c == -1:
            return -self
        c = c if type(c) is Fraction else Fraction(c)
        if not c:
            return self.model.zero_form()
        return Form._exact(
            self.model, {p: tuple((k, c * a) for k, a in v) for p, v in self.parts.items()}
        )

    def wedge(self, other: "Form") -> "Form":
        self._check_same_model(other)
        return self.model.wedge(self, other)

    def d(self) -> "Form":
        return self.model.d(self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Form)
            and self.model is other.model
            and self.parts == other.parts
        )

    def __hash__(self):
        return hash(tuple(self.parts.items()))

    def __repr__(self):
        return f"Form({self})"

    def __str__(self):
        terms = []
        for p, v in self.parts.items():
            for i, c in v:
                label = self.model.label_of(p, i)
                if c == 1:
                    terms.append(label)
                elif c == -1:
                    terms.append(f"-{label}")
                else:
                    terms.append(f"{c}*{label}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out


# ---------------------------------------------------------------------------
# the model


class CdgaModel:
    """A finite CDGA with explicit structure constants.  Immutable.

    The constructor takes its tables as the two loaders build them: labels
    for every degree 0..top_degree (top_degree >= 0), a dim(p) x dim(q)
    tuple of products for exactly the pairs (p, q) with p + q <= top_degree
    and dim(p), dim(q) both > 0, each product sorted, nonzero and in range,
    and a dim(p+1) x dim(p) matrix of d for every p.  It stores the tables
    as handed in, finds the unit and checks every axiom, not that layout.
    A pair without a block has only zero products.
    """

    def __init__(
        self,
        name: str,
        top_degree: int,
        labels: Sequence[Sequence[str]],
        mult: Mapping[tuple[int, int], Sequence[Sequence[Product]]],
        diff: Sequence[Mat],
    ):
        self.name = name
        self.top_degree = top_degree
        self.labels = tuple(tuple(ls) for ls in labels)
        self._mult = mult
        self.diff = tuple(diff)
        self._label_index: dict[str, tuple[int, int]] = {}
        for p, ls in enumerate(self.labels):
            for i, lab in enumerate(ls):
                if lab in self._label_index:
                    raise ModelSchemaError(f"duplicate basis label {lab!r}")
                self._label_index[lab] = (p, i)
        # d as sparse columns: _dcols[p][i] is d of the i-th basis element of degree p
        self._dcols = tuple(m.columns() for m in self.diff)
        self._zero = Form(self, {})
        self._de_rham_cache: dict[int, QuotientSpace] = {}
        self._check_axioms()

    def _check_axioms(self):
        """Find the unit and check every axiom: tables handed in at basis
        level can break any of them."""
        self.unit = self._find_unit()
        self._validate()

    # -- basic geometry -----------------------------------------------------

    def dim(self, p: int) -> int:
        if 0 <= p <= self.top_degree:
            return len(self.labels[p])
        return 0

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(ls) for ls in self.labels)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def label_of(self, p: int, i: int) -> str:
        return self.labels[p][i]

    def index_of(self, label: str) -> tuple[int, int]:
        try:
            return self._label_index[label]
        except KeyError:
            raise KeyError(f"unknown basis label {label!r}") from None

    # -- form construction ----------------------------------------------------

    def zero_form(self) -> Form:
        """The zero form, one per model (forms are immutable)."""
        return self._zero

    def basis_form(self, label: str) -> Form:
        p, i = self.index_of(label)
        return Form._exact(self, {p: ((i, ONE),)})

    def part_form(self, p: int, v: SVec) -> Form:
        """The form whose degree-p component is the sparse vector v, an exact one."""
        return Form._exact(self, {p: v} if v else {})

    def unit_form(self) -> Form:
        return self.part_form(0, self.unit)

    # -- algebra operations ---------------------------------------------------

    def wedge_basis(self, p: int, i: int, q: int, j: int) -> Product:
        """e_i^p wedge e_j^q as sparse (index, coefficient) pairs in degree p+q."""
        tab = self._mult.get((p, q))
        return tab[i][j] if tab else ()

    def wedge(self, u: Form, v: Form) -> Form:
        """u ^ v: per degree, the terms (a * b, e_i ^ e_j) of the nonzero
        coordinates of u and v, read from the product table and combined."""
        terms: dict[int, list] = {}
        for p, up in u.parts.items():
            for q, vq in v.parts.items():
                if p + q > self.top_degree:
                    break  # v's degrees increase
                tab = self._mult[(p, q)]
                terms.setdefault(p + q, []).extend(
                    (a * b, prod) for i, a in up for j, b in vq if (prod := tab[i][j])
                )
        sums = ((r, _combine(t)) for r, t in sorted(terms.items()))
        return Form._exact(self, {r: w for r, w in sums if w})

    def d_mat(self, p: int) -> Mat:
        """The differential on the degree-p piece, as a dim(p+1) x dim(p) matrix."""
        if 0 <= p <= self.top_degree:
            return self.diff[p]
        return Mat.zeros(self.dim(p + 1), 0)

    def d_columns(self, p: int) -> tuple[SVec, ...]:
        """d of each basis element of degree p (0 <= p <= top_degree), as
        sparse vectors in degree p + 1: the sparse columns of d_mat(p)."""
        return self._dcols[p]

    def d(self, u: Form) -> Form:
        """d u: per degree, the nonzero coordinates of u combined with the
        sparse columns of d."""
        sums = ((p + 1, combine(up, self._dcols[p])) for p, up in u.parts.items())
        return Form._exact(self, {p: w for p, w in sums if w})

    def de_rham(self, p: int) -> QuotientSpace:
        """Ordinary cohomology ker(d_p)/im(d_{p-1}) with canonical representatives."""
        if not (0 <= p <= self.top_degree):
            raise ValueError(f"degree {p} outside 0..{self.top_degree}")
        if p not in self._de_rham_cache:
            z = kernel(self.d_mat(p))
            b = image(self.diff[p - 1]) if p >= 1 else image(Mat.zeros(self.dim(p), 0))
            self._de_rham_cache[p] = QuotientSpace(z, b)
        return self._de_rham_cache[p]

    def betti(self, p: int) -> int:
        return self.de_rham(p).dim

    # -- expression parsing ---------------------------------------------------

    def parse_form(self, expr: str) -> Form:
        """Parse a wedge expression over basis labels.

        Terms are separated by + and -, each term is an optional rational
        coefficient (``p/q*``) times a wedge of basis labels joined by ``^``.
        The empty string parses to zero.
        """
        out = self.zero_form()
        for coeff, tok in parse_linear_combination(expr):
            out = out + coeff * self._resolve_wedge_token(tok)
        return out

    def _resolve_wedge_token(self, tok: str) -> Form:
        if tok in self._label_index:
            return self.basis_form(tok)
        factors = [f.strip() for f in tok.split("^")]
        if any(f not in self._label_index for f in factors):
            raise KeyError(f"cannot resolve {tok!r} against the basis of model {self.name!r}")
        acc = self.basis_form(factors[0])
        for f in factors[1:]:
            acc = acc.wedge(self.basis_form(f))
        return acc

    # -- validation -----------------------------------------------------------

    def _find_unit(self) -> SVec:
        """Solve for a degree-0 unit acting as identity on every basis element."""
        if self.dim(0) == 0:
            raise AlgebraError("degree 0 is empty; no unit element")
        rows: list[SVec] = []
        rhs: list[tuple[int, Fraction]] = []
        n0 = self.dim(0)
        for q in range(self.top_degree + 1):
            tab = self._mult.get((0, q))
            for j in range(self.dim(q)):
                # row k of this block: the coefficients of e_k in e_i^0 ^ e_j, by i
                block: list[list] = [[] for _ in range(self.dim(q))]
                for i in range(n0):
                    for k, c in tab[i][j]:
                        block[k].append((i, c))
                rhs.append((len(rows) + j, ONE))
                rows.extend(map(tuple, block))
        sol = solve_particular(Mat._exact(tuple(rows), n0), tuple(rhs))
        if sol is None:
            raise AlgebraError("degree 0 contains no unit element with 1^x = x")
        return sol

    def _basis_elems(self) -> list[tuple[int, int]]:
        """Every basis element as (degree, index), in degree order."""
        return [(p, i) for p in range(self.top_degree + 1) for i in range(self.dim(p))]

    def _indecomposables(self) -> list[tuple[int, int]]:
        """Basis elements spanning a complement of A+ . A+ in A+, in degree order.

        In each degree r the decomposables are spanned by the products of
        basis elements of degrees p, q >= 1 with p + q = r (p <= q, and
        i <= j when p = q, suffice once commutativity holds), deduplicated
        after scaling each to a leading 1.  The basis elements that are not
        pivot columns of the RREF of those products span a complement: a
        vector of the span with zero pivot coordinates is zero, and the
        counts add up.
        """
        out = []
        for r in range(1, self.top_degree + 1):
            rows = set()
            for p in range(1, r // 2 + 1):
                tab = self._mult.get((p, r - p), ())
                for i, row in enumerate(tab):
                    for prod in row[i if 2 * p == r else 0 :]:
                        if prod:
                            c0 = prod[0][1]
                            rows.add(prod if c0 == 1 else tuple((k, c / c0) for k, c in prod))
            pivots = set(SubspaceBasis.span(self.dim(r), rows).pivots)
            out += [(r, i) for i in range(self.dim(r)) if i not in pivots]
        return out

    def _first_factors(self) -> list[tuple[int, int]]:
        """The first factors on which Leibniz and associativity are checked.

        For a connected model (dim A^0 = 1) these are the degree-0 basis
        element e_0 and the indecomposables G; otherwise every basis element.
        """
        if self.dim(0) == 1:
            return [(0, 0)] + self._indecomposables()
        return self._basis_elems()

    def _check_d_squared(self):
        """d o d = 0, composed on the sparse columns of d."""
        dcols = self._dcols
        for p in range(self.top_degree - 1):
            d_next = dcols[p + 1]
            for i, col in enumerate(dcols[p]):
                if col and combine(col, d_next):
                    raise AlgebraError(
                        f"d o d != 0 on basis element {self.label_of(p, i)!r} of degree {p}"
                    )

    def _validate(self):
        n = self.top_degree
        self._check_d_squared()

        # graded commutativity, on every basis pair
        mult = self._mult
        basis_elems = self._basis_elems()
        for p, i in basis_elems:
            for q, j in basis_elems:
                if p + q > n or (q, j) < (p, i):
                    continue
                ab = mult[(p, q)][i][j]
                ba = mult[(q, p)][j][i]
                if p % 2 and q % 2:
                    ba = tuple((k, -c) for k, c in ba)
                if ab != ba:
                    raise AlgebraError(
                        "graded commutativity fails on "
                        f"{self.label_of(p, i)!r} ^ {self.label_of(q, j)!r}"
                    )

        # Leibniz and associativity, with the first factor in {e_0} u G for
        # a connected model.  That suffices: A+ = span(G) + A+ . A+, so by
        # linearity in the first factor a it is enough to treat a = e_0
        # (checked; e_0 is a multiple of the unit), a in G (checked), and
        # a = xy with x, y of lower degree, by induction on deg a.  For
        # associativity each step below has a first factor of lower degree:
        #   ((xy)b)c = (x(yb))c = x((yb)c) = x(y(bc)) = (xy)(bc).
        # Once associativity holds on all triples, Leibniz follows the same
        # way, with s = deg x and t = deg y:
        #   d((xy)b) = d(x(yb)) = dx (yb) + (-1)^s x d(yb)
        #            = (dx y) b + (-1)^s (x dy) b + (-1)^(s+t) (xy) db
        #            = d(xy) b + (-1)^(s+t) (xy) db.
        # Leibniz on (e_0, e_0) is what checks d(1) = 0.  Every first factor
        # is a basis element, so a reduced failure is a failure of the full
        # scan too; the full scan is rerun to name its first witness.
        firsts = self._first_factors()
        failure = self._product_axiom_failure(firsts)
        if failure and len(firsts) < len(basis_elems):
            failure = self._product_axiom_failure(basis_elems)
        if failure:
            raise AlgebraError(failure)

    def _product_axiom_failure(self, firsts: Sequence[tuple[int, int]]) -> Optional[str]:
        """The first Leibniz, then associativity, failure with its first factor in `firsts`.

        Both axioms are checked on the structure constants: products of basis
        elements are sparse (index, coefficient) pairs, the differential of a
        basis element is a sparse column of its matrix.  Each side is a list
        of (coefficient, product) terms without zero products, summed only
        when the two lists differ: most pairs and triples have no term left.
        With every basis element as a first factor this is the full scan.
        A block that is missing (an empty degree) is read only under a
        nonzero product or differential landing in that degree, so never.
        """
        n = self.top_degree
        mult = self._mult
        basis_elems = self._basis_elems()
        dcols = self._dcols

        # graded Leibniz: d(ab) = da b + (-1)^p a db; both sides vanish once
        # p + q + 1 exceeds the top degree
        for p, i in firsts:
            da = dcols[p][i]
            sign = -1 if p % 2 else 1
            for q, j in basis_elems:
                if p + q + 1 > n:
                    break
                tab_d, tab_da, tab_a = dcols[p + q], mult.get((p + 1, q)), mult.get((p, q + 1))
                lhs = [(c, t) for k, c in mult[(p, q)][i][j] if (t := tab_d[k])]
                rhs = [(c, t) for k, c in da if (t := tab_da[k][j])] + [
                    (sign * c, t) for k, c in dcols[q][j] if (t := tab_a[i][k])
                ]
                if lhs != rhs and _combine(lhs) != _combine(rhs):
                    return f"Leibniz rule fails on {self.label_of(p, i)!r} ^ {self.label_of(q, j)!r}"

        # associativity: (ab)c = a(bc)
        for p, i in firsts:
            for q, j in basis_elems:
                if p + q > n:
                    break
                ab = mult[(p, q)][i][j]
                for r, k in basis_elems:
                    if p + q + r > n:
                        break
                    bc = mult[(q, r)][j][k]
                    if not ab and not bc:
                        continue
                    tab_ab, tab_a = mult.get((p + q, r)), mult.get((p, q + r))
                    lhs = [(c, t) for m, c in ab if (t := tab_ab[m][k])]
                    rhs = [(c, t) for m, c in bc if (t := tab_a[i][m])]
                    if lhs != rhs and _combine(lhs) != _combine(rhs):
                        return (
                            "associativity fails on "
                            f"{self.label_of(p, i)!r}, {self.label_of(q, j)!r}, {self.label_of(r, k)!r}"
                        )
        return None

    def __repr__(self):
        return f"CdgaModel({self.name!r}, top_degree={self.top_degree}, dims={self.dims})"


# ---------------------------------------------------------------------------
# generator-form construction (exterior algebras on odd generators)


def _sign(a: int, b: int) -> Fraction:
    """(-1)^#{(i in a, j in b) : i > j}: the sign that sorts monomial a times b.

    Monomials are bitmasks of odd generators, so each inversion is one
    transposition of odd factors.
    """
    n = 0
    while b:
        low = b & -b
        n += (a & -(low << 1)).bit_count()  # the generators of a above b's lowest
        b ^= low
    return _SIGNS[n & 1]


class _GeneratorModel(CdgaModel):
    """A model on the tables of `expand_generators`: a CDGA by construction
    except for d o d = 0, which is the one axiom checked.

    The algebra is the exterior algebra on odd generators g_1, ..., g_k,
    untruncated (`expand_generators` rejects a top degree below the sum of
    the generator degrees).  A product of monomials is the signed monomial
    of their union, or zero when they overlap, so the product is associative
    and graded commutative.  Every generator has degree >= 1, so the empty
    monomial `1` is the only degree-0 basis element; its row and column of
    the table are the identity, so it is the unit.  d is the derivation
    that extends the given d(g), each of degree |g| + 1 (checked while
    expanding): d(x_1...x_m) = sum_t (-1)^t d(x_t) (x without x_t), so the
    Leibniz rule holds and d(1) = 0.  Since d is odd, d o d = 1/2 [d, d] is
    a derivation, so it vanishes iff it vanishes on the generators
    (Felix-Halperin-Thomas, Rational Homotopy Theory, GTM 205, section 12;
    Sullivan, Infinitesimal computations in topology, 1977).  The matrix
    check below covers every basis element, with the basis-form message.
    """

    def _check_axioms(self):
        self.unit = ((0, ONE),)
        self._check_d_squared()


def build_generator_model(
    name: str,
    gens: Sequence[tuple[str, int]],
    diffs: Mapping[str, Sequence[tuple[Fraction, tuple[str, ...]]]],
    top_degree: Optional[int] = None,
) -> CdgaModel:
    """Expand an exterior algebra on odd generators to a basis-level model,
    checked for d o d = 0 (every other axiom holds by construction)."""
    return _GeneratorModel(name, *expand_generators(gens, diffs, top_degree))


def expand_generators(
    gens: Sequence[tuple[str, int]],
    diffs: Mapping[str, Sequence[tuple[Fraction, tuple[str, ...]]]],
    top_degree: Optional[int] = None,
) -> tuple[int, list, dict, list]:
    """The `CdgaModel` tables (top degree, labels, products, d matrices) of an
    exterior algebra on odd generators, unvalidated.  The products are a
    tuple block for each pair (p, q) of nonempty degrees with p + q <= top
    degree, the layout `CdgaModel` takes.

    ``diffs`` maps a generator name to a polynomial, given as a list of
    (coefficient, monomial-of-generator-names) terms.  Disjoint monomials a, b
    multiply to (-1)^#{(i in a, j in b) : i > j} (a | b), overlapping ones to 0.
    Each d(g) has even degree, so it commutes past every factor and
    d(x_1...x_m) = sum_t (-1)^t d(x_t) (x without x_t), x_t the t-th from 0.
    """
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
    _check_top_degree(n)
    if n < full_degree:
        raise ModelSchemaError(
            f"top_degree {n} would truncate the exterior algebra (needs {full_degree})"
        )

    # monomials bucketed by degree (one empty bucket past n), each ordered
    # lexicographically on its generator sequence; pos[mask] is the index in its bucket
    k = len(names)
    seqs = [tuple(i for i in range(k) if mask >> i & 1) for mask in range(1 << k)]
    monos: list[list[int]] = [[] for _ in range(n + 2)]
    for mask in sorted(range(1 << k), key=seqs.__getitem__):
        monos[sum(degs[i] for i in seqs[mask])].append(mask)
    pos = [0] * (1 << k)
    for ms in monos:
        for i, mask in enumerate(ms):
            pos[mask] = i
    labels = [["^".join(names[i] for i in seqs[mask]) or "1" for mask in ms] for ms in monos[: n + 1]]

    # every product of two monomials is zero or one signed monomial; a block
    # for each pair of nonempty degrees
    mult = {
        (p, q): tuple(tuple(() if a & b else ((pos[a | b], _sign(a, b)),) for b in monos[q]) for a in monos[p])
        for p in range(n + 1)
        if monos[p]
        for q in range(n + 1 - p)
        if monos[q]
    }

    # differentials of generators, as (coefficient, monomial) lists
    dgen: dict[int, list[tuple[Fraction, int]]] = {}
    for gname, poly in diffs.items():
        if gname not in gen_index:
            raise ModelSchemaError(f"differential given for unknown generator {gname!r}")
        gi = gen_index[gname]
        terms = []
        for coeff, mono_names in poly:
            try:
                seq = [gen_index[m] for m in mono_names]
            except KeyError as e:
                raise ModelSchemaError(f"unknown generator in differential of {gname!r}: {e}")
            mask = 0
            for g in seq:
                coeff *= _sign(mask, 1 << g)
                mask |= 1 << g
            if mask.bit_count() < len(seq):
                continue  # a repeated generator: the term is zero
            deg = sum(degs[i] for i in seq)
            if deg != degs[gi] + 1:
                raise ModelSchemaError(
                    f"differential of {gname!r} has a term of degree {deg}, expected {degs[gi] + 1}"
                )
            terms.append((coeff, mask))
        dgen[gi] = terms

    diff_mats = []
    for p in range(n + 1):
        cols = []
        for a in monos[p]:
            col: dict[int, Fraction] = {}
            for g, terms in dgen.items():
                bit = 1 << g
                if a & bit:
                    rest = a ^ bit  # _sign(bit, rest) is (-1)^t, t the generators below g
                    for c, m in terms:
                        if not m & rest:
                            k = pos[m | rest]
                            col[k] = col.get(k, ZERO) + _sign(bit, rest) * _sign(m, rest) * c
            cols.append(collect(col))
        diff_mats.append(Mat.from_cols(cols, len(monos[p + 1])))

    return n, labels, mult, diff_mats


# ---------------------------------------------------------------------------
# document loading


def _check_top_degree(n: int):
    if n < 0:
        raise ModelSchemaError("top_degree must be >= 0")
    if n > MAX_TOP_DEGREE:
        raise ModelSchemaError(f"top_degree {n} exceeds the limit MAX_TOP_DEGREE = {MAX_TOP_DEGREE}")


def _int_field(value, what: str) -> int:
    # int() alone reads true as 1 and cuts 3.9 to 3; integer strings pass (basis degrees are JSON keys)
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ModelSchemaError(f"{what} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ModelSchemaError(f"{what} must be an integer, got {value!r}") from None


def _typed_field(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise ModelSchemaError(f"{what} must be a JSON {'object' if kind is dict else kind.__name__}")
    return value


def _model_from_generator_doc(doc: dict) -> CdgaModel:
    gens = []
    for g in _typed_field(doc["generators"], list, "'generators'"):
        if not isinstance(g, dict) or "name" not in g or "degree" not in g:
            raise ModelSchemaError("each generator needs 'name' and 'degree'")
        name = str(g["name"])  # an expression must be able to name it
        bad = [ch for ch in name if ch in "+-*^" or ch.isspace()]
        if bad or not name:
            raise ModelSchemaError(f"generator name {name!r} " + (f"contains {bad[0]!r}" if bad else "is empty"))
        gens.append((name, _int_field(g["degree"], f"degree of generator {g['name']!r}")))
    diffs = {}
    for gname, poly_s in _typed_field(doc.get("differentials", {}), dict, "'differentials'").items():
        terms = []
        for coeff, tok in parse_linear_combination(_typed_field(poly_s, str, f"differential of {gname!r}")):
            terms.append((coeff, tuple(f.strip() for f in tok.split("^"))))
        diffs[str(gname)] = terms
    return build_generator_model(
        str(doc["name"]), gens, diffs, top_degree=_int_field(doc["top_degree"], "top_degree")
    )


def _model_from_basis_doc(doc: dict) -> CdgaModel:
    n = _int_field(doc["top_degree"], "top_degree")
    _check_top_degree(n)
    labels: list[list[str]] = [[] for _ in range(n + 1)]
    listed = set()
    for deg_s, ls in _typed_field(doc["basis"], dict, "'basis'").items():
        deg = _int_field(deg_s, "basis degree")
        if not (0 <= deg <= n):
            raise ModelSchemaError(f"basis degree {deg} outside 0..{n}")
        if deg in listed:
            raise ModelSchemaError(f"basis degree {deg} is listed twice")
        listed.add(deg)
        labels[deg] = [str(x) for x in _typed_field(ls, list, f"basis of degree {deg}")]
    total_dim = sum(map(len, labels))
    if total_dim > MAX_DIM:
        raise ModelSchemaError(f"{total_dim} basis elements exceed the limit MAX_DIM = {MAX_DIM}")
    index = {}
    for p, ls in enumerate(labels):
        for i, lab in enumerate(ls):
            if lab in index:
                raise ModelSchemaError(f"duplicate basis label {lab!r}")
            for ch in "+-* \t":
                if ch in lab:
                    raise ModelSchemaError(f"basis label {lab!r} contains {ch!r}")
            index[lab] = (p, i)

    def combo_vec(s: str, degree: int) -> SVec:
        out = [ZERO] * len(labels[degree])
        for coeff, tok in parse_linear_combination(s):
            if tok not in index:
                raise ModelSchemaError(f"unknown label {tok!r} in {s!r}")
            p, i = index[tok]
            if p != degree:
                raise ModelSchemaError(
                    f"label {tok!r} has degree {p}, expected {degree} in {s!r}"
                )
            out[i] += coeff
        return sparse(out)

    def entries(field: str, keys: tuple[str, ...]) -> list[dict]:
        out = _typed_field(doc.get(field, []), list, repr(field))
        for entry in out:
            if not isinstance(entry, dict) or any(k not in entry for k in keys):
                raise ModelSchemaError(f"each {field!r} entry needs {' and '.join(map(repr, keys))}")
        return out

    products: dict[tuple[str, str], Product] = {}
    for entry in entries("mult", ("left", "right")):
        left, right = str(entry["left"]), str(entry["right"])
        if left not in index or right not in index:
            raise ModelSchemaError(f"mult entry references unknown labels: {entry}")
        p, q = index[left][0], index[right][0]
        if p + q > n:
            raise ModelSchemaError(
                f"product {left!r}^{right!r} exceeds top degree {n}"
            )
        if (left, right) in products:
            raise ModelSchemaError(f"product {left!r}^{right!r} is listed twice")
        products[(left, right)] = combo_vec(str(entry.get("result", "0")), p + q)
    mult = {
        (p, q): tuple(tuple(products.get((a, b), ()) for b in labels[q]) for a in labels[p])
        for p in range(n + 1)
        if labels[p]
        for q in range(n + 1 - p)
        if labels[q]
    }

    diff_mats = []
    dcols: dict[str, SVec] = {}
    for entry in entries("diff", ("from",)):
        src = str(entry["from"])
        if src not in index:
            raise ModelSchemaError(f"diff entry references unknown label {src!r}")
        p, _ = index[src]
        if p + 1 > n:
            raise ModelSchemaError(f"differential of {src!r} exceeds top degree {n}")
        if src in dcols:
            raise ModelSchemaError(f"differential of {src!r} is listed twice")
        dcols[src] = combo_vec(str(entry.get("result", "0")), p + 1)
    for p in range(n + 1):
        target_dim = len(labels[p + 1]) if p + 1 <= n else 0
        cols = [dcols.get(lab, ()) for lab in labels[p]]
        diff_mats.append(Mat.from_cols(cols, target_dim))

    return CdgaModel(str(doc["name"]), n, labels, mult, diff_mats)


def model_from_dict(doc: dict) -> CdgaModel:
    """Build and validate a model from a parsed document.

    Every malformed or oversized document raises `ModelSchemaError`, and a
    document whose tables break an axiom raises `AlgebraError`.
    """
    if not isinstance(doc, dict):
        raise ModelSchemaError("model document must be a JSON object")
    for field in ("name", "top_degree"):
        if field not in doc:
            raise ModelSchemaError(f"model document is missing {field!r}")
    if "generators" in doc:
        return _model_from_generator_doc(doc)
    if "basis" in doc:
        return _model_from_basis_doc(doc)
    raise ModelSchemaError("model document needs either 'generators' or 'basis'")


def loads_model(text: str) -> CdgaModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelSchemaError(f"not valid JSON: {e}") from None
    except RecursionError:
        raise ModelSchemaError("not valid JSON: nested too deeply") from None
    return model_from_dict(doc)


def load_model(path) -> CdgaModel:
    """Load and validate a model file (JSON, generator or basis layout)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return loads_model(text)
