"""Indeterminacy of page classes, and the two independent page oracles.

A class on page r at column p is only defined up to a subgroup of the
ordinary cohomology H^p: the image of the connecting homomorphism of

    0 -> K_p/K_{p+1} -> K_{p-r+1}/K_{p+1} -> K_{p-r+1}/K_p -> 0

modulo exact forms.  D induces zero on K_p/K_{p+1}, so the connecting map
delta_bar lands in H(K_p/K_{p+1}) = Omega^p itself, and its image is the
page's boundary space B_r.  `indeterminacy_subgroup` therefore reads the
subgroup off the spectral sequence as B_r modulo exact forms;
`connecting_delta_bar` is the independent oracle for B_r.  It maps the
cocycles of one parity of the source K_{p-r+1}/K_p: coboundaries map to
zero, so the quotient is never formed.

The cycles get their own independent route through the cohomological
description

    Z_r = delta^{-1}( image of H(K_{p+r}) -> H(K_{p+1}) )

inside E_1^{p,q} = Omega^p (`z_cell`).  Both are facts about one column p,
so each oracle is a sweep over the columns that keeps only its column's
objects (`boundary_agreement`, `page_agreement`); the per-cell forms build
their own complex and run the same per-column helpers.

Both oracles read every window K_w/K_b off the whole complex K_0/K_b,
through `twistss.twist.RelativeComplex.cocycles` with start = w: a suffix
of one canonical kernel per (b, parity).  So each maps one list per column
once and spans a suffix of it per key: D into degree p of K_0/K_p's cocycle
rows for the connecting map, and the classes of K_{p+1}'s cocycle rows in
H(K_{p+1}) for Z_r, whose K_0/K_{n+1} is the sequence's twisted complex
(`SpectralSequence.twisted_cohomology`).  Neither multiplies a matrix: D
into degree p combines `DOperator.columns`, and delta reads its columns
off the whole complex (`RelativeComplex.columns`).
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
    SVec,
    combine,
    kernel,
    span_in_quotient,
)
from .spectral import SpectralSequence
from .twist import DOperator, RelativeComplex, TwistForm


@dataclass(frozen=True)
class IndeterminacySubgroup:
    """The subgroup of H^p in which representatives of a page class move.

    ``in_h`` spans B_r/(im d) in the class coordinates of H^p, for membership
    tests.  It depends on r only through a = max(0, p - r + 1).
    """

    p: int
    a: int
    in_h: SubspaceBasis
    h: QuotientSpace

    @property
    def dim(self) -> int:
        return self.in_h.dim

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
    one when None).  Requires r >= 3 (delta_bar = d at r = 2); r past the
    last page gives its subgroup.
    """
    if r < 3:
        raise ValueError("indeterminacy_subgroup needs r >= 3")
    if ss is None:
        ss = SpectralSequence(model, H)  # ValueError for a twist of another model
    elif ss.model is not model or ss.H is not H:
        raise ValueError("spectral sequence belongs to a different model or twist")
    a = max(0, p - r + 1)
    if p > model.top_degree:
        zero = SubspaceBasis.zero(0)
        return IndeterminacySubgroup(p, a, zero, QuotientSpace(zero, zero))
    h = model.de_rham(p)
    if q % 2 == 1:
        return IndeterminacySubgroup(p, a, SubspaceBasis.zero(h.dim), h)
    b = ss.boundaries(min(r, ss.max_page), p)  # every page from n + 2 on has a = 0
    return IndeterminacySubgroup(p, a, span_in_quotient(h, b.sparse), h)


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
# the two independent page oracles, for cross-checking the zig-zag engine


def connecting_delta_bar(model: CdgaModel, H: TwistForm, p: int, r: int, parity: int) -> Mat:
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
    """
    if r < 2:
        raise ValueError("connecting_delta_bar needs r >= 2")
    if not (0 <= p <= model.top_degree):
        raise ValueError(f"column {p} outside 0..{model.top_degree}")
    whole, images = _connecting_column(H.operator(model), p, parity)
    rows = model.dim(p) if (parity + 1) % 2 == p % 2 else 0
    return Mat.from_cols(_connecting_images(whole, images, parity, max(0, p - r + 1)), rows)


def _connecting_column(op: DOperator, p: int, parity: int) -> tuple[Optional[RelativeComplex], list[SVec]]:
    """whole = K_0/K_p (None at p = 0, where every source is zero) and D
    into degree p of each row of its cocycle kernel in `parity`; from p's
    own parity, D has no degree-p part and every image is zero."""
    if p == 0:
        return None, []
    whole = RelativeComplex(op, 0, p)
    to_p = op.columns(whole.space(parity), p)
    return whole, [combine(z, to_p) for z in whole.cocycles(parity).sparse]


def _connecting_images(whole: Optional[RelativeComplex], images: list[SVec], parity: int, a: int) -> list[SVec]:
    """The connecting map's columns from K_a/K_p: the images of the window's
    cocycles, which are the last rows of whole's kernel."""
    return images[len(images) - whole.cocycles(parity, a).dim :] if images else []


def boundary_agreement(ss: SpectralSequence) -> tuple[int, Optional[str]]:
    """Check that the connecting map's image is B_r at every cell with r >= 3.

    Each column maps its cocycle rows of parity p - 1 into degree p once;
    each page's start a = max(0, p - r + 1) spans a suffix of those images,
    spanned again only when a moves.  Returns ((ss.max_page - 2)(n + 1)
    cells, None) or, on a mismatch, a description naming the least (r, p).
    """
    mismatches = []
    for p in range(ss.n + 1):
        parity, a = (p - 1) % 2, None
        whole, images = _connecting_column(ss.op, p, parity)
        for r in range(3, ss.max_page + 1):
            if a != max(0, p - r + 1):
                a = max(0, p - r + 1)
                span = SubspaceBasis.span(ss.model.dim(p), _connecting_images(whole, images, parity, a))
            if span != ss.boundaries(r, p):
                mismatches.append((r, p))
                break
    cells = (ss.max_page - 2) * (ss.n + 1)
    if mismatches:
        r, p = min(mismatches)
        return cells, f"connecting image differs from B_{r} on {ss.model.name} at p={p}"
    return cells, None


def z_cell(model: CdgaModel, H: TwistForm, r: int, p: int) -> SubspaceBasis:
    """Z_r at column p (even q) through the cohomological description.

    Z_r is the delta-preimage of the classes coming from H(K_{p+r}), inside
    E_1^{p, even} = Omega^p.  Every K_w/K_{n+1} is a window of the whole
    complex whole = K_0/K_{n+1} (`whole.cocycles(parity, w)`), written in
    its coordinates, so a cocycle of K_{p+r} is already a vector of K_{p+1}.
    """
    if r < 2:
        raise ValueError("the cohomological description starts at r = 2")
    n = model.top_degree
    if not (0 <= p <= n):
        raise ValueError(f"column {p} outside 0..{n}")
    whole = RelativeComplex(H.operator(model), 0, n + 1)
    return _cycles(whole, _delta(whole, p), p, min(p + r, n + 1))


def _delta(whole: RelativeComplex, p: int) -> Optional[tuple]:
    """Column p's share of the Z_r oracle, with whole = K_0/K_{n+1} and
    H = H^(p+1)(K_{p+1}); None at the top column, whose K_{p+1} is zero.
    Else delta: Omega^p -> H, x |-> the class of D x, as its columns; the
    class in H of each cocycle row of K_{p+1}; and dim H."""
    if p + 1 == whole.b:
        return None
    parity, dim_p = (p + 1) % 2, whole.op.model.dim(p)
    h = whole.cohomology(parity, p + 1)
    o = whole.space(p).offsets[p]
    delta = tuple(h.project(c) for c in whole.columns(p)[o : o + dim_p])
    return delta, [h.project(z) for z in whole.cocycles(parity, p + 1).sparse], h.dim


def _cycles(whole: RelativeComplex, delta: Optional[tuple], p: int, end: int) -> SubspaceBasis:
    """Z at column p from the classes of K_end, end = min(p + r, n + 1): the
    delta-preimage of W, their image in H = H(K_{p+1}), spanned by the last k
    classes of the column, k = dim of K_end's cocycles (0 at end = n + 1).
    K_end's cocycle rows are the last rows of K_{p+1}'s (`RelativeComplex`'s
    window rule); besides H(K_end)'s representatives they span D of forms of
    degree >= end > p, exact in K_{p+1}, so their classes span W.  `reduce`
    is linear and vanishes exactly on W, so the kernel of delta's reduced
    columns is delta^{-1}(W); `kernel` is canonical, so the basis is that of
    any other route.  Zero classes are dropped first: a suffix of
    coboundaries costs no elimination."""
    if delta is None:
        return SubspaceBasis.full(whole.op.model.dim(p))
    columns, classes, dim_h = delta
    k = whole.cocycles((p + 1) % 2, end).dim if end < whole.b else 0
    w = SubspaceBasis.span(dim_h, [c for c in classes[len(classes) - k :] if c])
    return kernel(Mat.from_cols([w.reduce(c) for c in columns], dim_h))


def page_agreement(ss: SpectralSequence, max_r: Optional[int] = None) -> tuple[int, Optional[str]]:
    """Check that the cohomological Z_r route reproduces the zig-zag cycles.

    Compares canonical bases, not just dimensions, at every page from 2 on
    and every column, reading each K_{p+r} off the sequence's own K_0/K_{n+1}
    (ss.twisted_cohomology().complex).  Each column builds one delta, and
    one Z per raw key (p, min(p + r, n + 1)): the engine shares one Z
    between pages 2k and 2k+1, since their conditions agree, and keying this
    check the same way would leave that sharing unchecked.  Returns (cells
    compared, None) or, on a mismatch, the first three mismatched (r, p) in
    its description.  A `max_r` outside the pages 1..ss.max_page raises
    `PageError`.
    """
    top_r = max_r if max_r is not None else ss.max_page
    ss.check_page(top_r)  # past the last page, the keys below still match real cells
    if top_r < 2:
        return 0, None
    whole, mismatches = ss.twisted_cohomology().complex, []
    for p in range(ss.n + 1):
        delta, end = _delta(whole, p), None
        for r in range(2, top_r + 1):
            if end != min(p + r, ss.n + 1):
                end = min(p + r, ss.n + 1)
                agree = _cycles(whole, delta, p, end) == ss.cycles(r, p)
            if not agree:
                mismatches.append((r, p))
    cells = (top_r - 1) * (ss.n + 1)
    if mismatches:
        return cells, f"disagreement on {ss.model.name} at {sorted(mismatches)[:3]}"
    return cells, None
