"""Indeterminacy of page classes, and the cohomological cycle construction.

A class on page r at column p is only defined up to a subgroup of the
ordinary cohomology H^p: the image of the connecting homomorphism of

    0 -> K_p/K_{p+1} -> K_{p-r+1}/K_{p+1} -> K_{p-r+1}/K_p -> 0

modulo exact forms.  D induces zero on K_p/K_{p+1}, so the connecting map
delta_bar lands in H(K_p/K_{p+1}) = Omega^p itself, and its image is the
page's boundary space B_r.  `indeterminacy_subgroup` therefore reads the
subgroup off the spectral sequence as B_r modulo exact forms;
`connecting_delta_bar` is the independent oracle for B_r
(`twistss.report.check_indeterminacy`).  It maps the cocycles of one parity
of the source K_{p-r+1}/K_p: coboundaries map to zero, so the quotient is
never formed.

The cycles get their own independent route through the cohomological
description

    Z_r = delta^{-1}( image of H(K_{p+r}) -> H(K_{p+1}) )

inside E_1^{p,q} = Omega^p, which `page_agreement` compares with the
zig-zag engine.

Both oracles read every window K_w/K_b off the whole complex K_0/K_b,
through `twistss.twist.RelativeComplex.cocycles` and `.cohomology` with
start = w: a suffix of one canonical kernel per (b, parity).  The Z_r
oracle's K_0/K_{n+1} is the sequence's twisted complex
(`SpectralSequence.twisted_cohomology`), whose kernels check the page totals.
Each oracle maps vectors by combining columns of D, never by a matrix
product: the connecting map combines D into degree p (`DOperator.columns`)
by each cocycle row, once per column, and delta reads its columns off the
whole complex (`RelativeComplex.columns`).
No kernel is the engine's: the oracles eliminate their own D of K_0/K_b,
on the twist's operator, and read neither the engine's zig-zag kernels nor
the stored lifts whose images span its B_r.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cdga import CdgaModel, Form
from .linalg import (
    Mat,
    QuotientSpace,
    SubspaceBasis,
    combine,
    kernel,
    preimage,
    span_in_quotient,
)
from .spectral import SpectralSequence
from .twist import DOperator, RelativeComplex, TwistForm


def _whole(op: DOperator, b: int, cache: dict) -> RelativeComplex:
    """K_0/K_b, kept in `cache` by ("K", b); it keeps each parity's D and kernel."""
    if ("K", b) not in cache:
        cache[("K", b)] = RelativeComplex(op, 0, b)
    return cache[("K", b)]


def connecting_delta_bar(
    model: CdgaModel, H: TwistForm, p: int, r: int, parity: int,
    sources: Optional[dict] = None,
) -> Mat:
    """The connecting map H^par(K_{p-r+1}/K_p) -> H^(par+1)(K_p/K_{p+1}).

    The target of the short exact sequence used for indeterminacy; its
    image, modulo exact forms, is the indeterminacy subgroup at (p, r).
    For r = 2 it coincides with the first-page differential d.  D is zero
    on K_p/K_{p+1}, so its cohomology is Omega^p in parity p with identity
    coordinates, and zero in the other parity: a relative cocycle's class
    is read off as the degree-p component of D applied to it.

    The columns are the images of a kernel basis of the relative cocycles,
    not of cohomology classes, which has the same image: a relative
    coboundary is D b + k with k in K_p, and (D(D b + k))_p = 0, since
    D D = 0 and D k lies in K_{p+1}.  That basis is the window
    `whole.cocycles(parity, a)` of whole = K_0/K_p, a suffix of the rows of
    its kernel, so its images are the last `cocycles.dim` of the images of
    all those rows: each row combines the columns of D into degree p.
    `sources` keeps whole by ("K", p) and those images by ("images", p,
    parity) for reuse across calls on the same (model, H), so every start
    a = max(0, p - r + 1) of a column shares one kernel and one image list;
    the result is the same `Mat` with or without it.
    """
    rows, columns = _delta_bar_columns(model, H, p, r, parity, sources)
    return Mat.from_cols(columns, rows)


def _delta_bar_columns(model: CdgaModel, H: TwistForm, p: int, r: int, parity: int, sources: Optional[dict]) -> tuple:
    """The row count of `connecting_delta_bar` and its sparse columns."""
    if r < 2:
        raise ValueError("connecting_delta_bar needs r >= 2")
    if not (0 <= p <= model.top_degree):
        raise ValueError(f"column {p} outside 0..{model.top_degree}")
    op = H.operator(model)
    rows = model.dim(p) if (parity + 1) % 2 == p % 2 else 0
    a = max(0, p - r + 1)
    if a == p:  # the source complex K_p/K_p is zero
        return rows, []
    sources = {} if sources is None else sources
    whole = _whole(op, p, sources)
    cocycles = whole.cocycles(parity, a)
    if not rows:
        return 0, [()] * cocycles.dim
    if ("images", p, parity) not in sources:
        to_p = op.columns(whole.space(parity), p)
        sources[("images", p, parity)] = [combine(z, to_p) for z in whole.cocycles(parity).sparse]
    images = sources[("images", p, parity)]
    return rows, images[len(images) - cocycles.dim :]


@dataclass(frozen=True)
class IndeterminacySubgroup:
    """The subgroup of H^p in which representatives of a page class move.

    ``group`` is B_r/(im d); ``in_h`` spans it in the class coordinates of H^p,
    for membership tests.  It depends on r only through a = max(0, p - r + 1).
    """

    p: int
    a: int
    group: QuotientSpace
    in_h: SubspaceBasis
    h: QuotientSpace

    @property
    def dim(self) -> int:
        return self.group.dim

    def contains_class(self, f: Form) -> bool:
        """Whether a closed degree-p form's cohomology class is in the subgroup."""
        if f.is_zero:
            return True
        return self.in_h.contains(self.h.project(f.part(self.p)))


def indeterminacy_subgroup(
    model: CdgaModel, H: TwistForm, p: int, q: int, r: int,
    ss: Optional[SpectralSequence] = None,
) -> IndeterminacySubgroup:
    """Indeterminacy of a class in E_r^{p,q} as a subgroup of H^p.

    This is im(delta_bar)/im(d), and im(delta_bar) is B_r, so the subgroup is
    read off the page of `ss`, the spectral sequence of (model, H) (a fresh
    one when None), and kept in `ss.indet_subgroups` by (p, a).  Requires
    r >= 3 (delta_bar = d at r = 2); r past the last page gives its subgroup.
    """
    if r < 3:
        raise ValueError("indeterminacy_subgroup needs r >= 3")
    if ss is None:
        ss = SpectralSequence(model, H)  # ValueError for a twist of another model
    elif ss.model is not model or ss.H is not H:
        raise ValueError("spectral sequence belongs to a different model or twist")
    a = max(0, p - r + 1)
    if p > model.top_degree:
        trivial = QuotientSpace(SubspaceBasis.zero(0), SubspaceBasis.zero(0))
        return IndeterminacySubgroup(p, a, trivial, SubspaceBasis.zero(0), trivial)
    h = model.de_rham(p)
    if q % 2 == 1:
        return IndeterminacySubgroup(
            p, a, QuotientSpace(h.sub, h.sub), SubspaceBasis.zero(h.dim), h
        )
    key = (p, a)
    if key not in ss.indet_subgroups:
        b = ss.boundaries(min(r, ss.max_page), p)  # every page from n + 2 on has a = 0
        ss.indet_subgroups[key] = IndeterminacySubgroup(
            p, a, QuotientSpace(b, h.sub), span_in_quotient(h, b.sparse), h
        )
    return ss.indet_subgroups[key]


def differential_indeterminacy(
    model: CdgaModel, H: TwistForm, p: int, q: int, t: int,
    ss: Optional[SpectralSequence] = None,
) -> IndeterminacySubgroup:
    """Indeterminacy of d_{2t+3} values, a subgroup of H^{p+2t+3} (t >= 1)."""
    if t < 1:
        raise ValueError("differential_indeterminacy needs t >= 1")
    if not (0 <= p <= model.top_degree):
        raise ValueError(f"column {p} outside 0..{model.top_degree}")
    return indeterminacy_subgroup(model, H, p + 2 * t + 3, q - 2 * t - 2, 2 * t + 3, ss)


# ---------------------------------------------------------------------------
# the cohomological cycle construction, for cross-checking the zig-zag route


def z_cell(
    model: CdgaModel, H: TwistForm, r: int, p: int,
    tower: Optional[dict] = None,
) -> SubspaceBasis:
    """Z_r at column p (even q) through the cohomological description.

    Z_r is the delta-preimage of the classes coming from H(K_{p+r}), inside
    E_1^{p, even} = Omega^p.  Every K_w/K_{n+1} is a window of the whole
    complex whole = K_0/K_{n+1} (`whole.cohomology(parity, w)`), written in
    its coordinates, so a class of K_{p+r} is already a vector of K_{p+1}.
    `tower` keeps, for reuse across calls on the same (model, H), whole by
    ("K", n + 1), which keeps its kernels, its columns of D and each
    window's cohomology, and, since delta does not depend on r, the matrix
    of delta by ("delta", p): once per column, projected from the degree-p
    columns of whole's D.
    """
    if r < 2:
        raise ValueError("the cohomological description starts at r = 2")
    n = model.top_degree
    if not (0 <= p <= n):
        raise ValueError(f"column {p} outside 0..{n}")
    op = H.operator(model)
    tower = {} if tower is None else tower
    dim_p = model.dim(p)
    if p + 1 > n:
        return SubspaceBasis.full(dim_p)
    whole, parity = _whole(op, n + 1, tower), (p + 1) % 2

    # delta: Omega^p -> H^(p parity + 1)(K_{p+1}) by x |-> class of D x
    h_next = whole.cohomology(parity, p + 1)
    if ("delta", p) not in tower:
        # column i is D of the i-th basis form, in the coordinates of K_0/K_{n+1}
        o = whole.space(p).offsets[p]
        cols = [h_next.project(c) for c in whole.columns(p)[o : o + dim_p]]
        tower[("delta", p)] = Mat.from_cols(cols, h_next.dim)
    delta = tower[("delta", p)]
    if p + r > n:
        return kernel(delta)
    # the classes of K_{p+r}, restricted to K_{p+1}
    incl = [h_next.project(rep) for rep in whole.cohomology(parity, p + r).sparse_reps]
    return preimage(delta, SubspaceBasis.span(h_next.dim, incl))


def page_agreement(
    ss: SpectralSequence, max_r: Optional[int] = None
) -> tuple[int, Optional[str]]:
    """Check that the cohomological Z_r route reproduces the zig-zag cycles.

    Compares canonical subspace bases, not just dimensions, for every page
    from 2 on and every column, reading each K_{p+r} off the sequence's own
    K_0/K_{n+1} (ss.twisted_cohomology().complex).  Returns (cells compared,
    None) or, on a mismatch, the first three mismatched (r, p) in its
    description.  B_r has its own oracle (`report.check_indeterminacy`).
    Each Z_r is compared once per raw key (p, min(p + r, n + 1)), its K_{p+r}.
    The engine shares one Z between pages 2k and 2k+1, since their conditions
    agree; keying this check the same way would build only one of them and
    leave that sharing unchecked, so both members of each pair come from
    their own complex and are compared with the shared engine object.  A
    `max_r` outside the pages 1..ss.max_page raises `PageError`.
    """
    top_r = max_r if max_r is not None else ss.max_page
    ss.check_page(top_r)  # past the last page, the keys below still match real cells
    tower: dict = {("K", ss.n + 1): ss.twisted_cohomology().complex}  # and each column's delta
    cells = [(r, p) for r in range(2, top_r + 1) for p in range(ss.n + 1)]
    agree: dict[tuple[int, int], bool] = {}
    mismatches = []
    for r, p in cells:
        key = (p, min(p + r, ss.n + 1))
        if key not in agree:
            agree[key] = z_cell(ss.model, ss.H, r, p, tower) == ss.cycles(r, p)
        if not agree[key]:
            mismatches.append((r, p))
    if mismatches:
        return len(cells), f"disagreement on {ss.model.name} at {mismatches[:3]}"
    return len(cells), None
