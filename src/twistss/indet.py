"""Indeterminacy of page classes via relative complexes and connecting maps.

A class on page r at column p is only defined up to a subgroup of the
ordinary cohomology H^p: the image of the connecting homomorphism of

    0 -> K_p/K_{p+1} -> K_{p-r+1}/K_{p+1} -> K_{p-r+1}/K_p -> 0

modulo exact forms.  D induces zero on K_p/K_{p+1}, so the connecting map
delta_bar lands in H(K_p/K_{p+1}) = Omega^p itself: only the source complex
K_{p-r+1}/K_p is built.  This module computes that subgroup constructively
on canonical representatives, and also rebuilds every page cell through the
cohomological description

    Z_r = delta^{-1}( image of H(K_{p+r}) -> H(K_{p+1}) )
    B_r = j^*( kernel of H(K_p) -> H(K_{p-r+1}) )

inside E_1^{p,q} = Omega^p, which gives an independent route to the page
dimensions computed by the zig-zag engine.  The complexes K_a/K_b are
`twistss.twist.RelativeComplex`, on the operator the twist shares with the
spectral sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cdga import CdgaModel, Form
from .linalg import (
    Mat,
    QuotientSpace,
    SubspaceBasis,
    image,
    kernel,
    preimage,
    span_in_quotient,
)
from .spectral import SpectralSequence
from .twist import RelativeComplex, TwistForm


def induced_map(src: RelativeComplex, dst: RelativeComplex, parity: int) -> Mat:
    """The map on cohomology induced by include-then-project on chains.

    Valid whenever dst.a <= src.a and restricting a src-cocycle to the dst
    degree range yields a dst-cocycle, which holds for the inclusion maps
    (same b) and the quotient projections (same a) used here.
    """
    hs = src.cohomology(parity)
    hd = dst.cohomology(parity)
    cols = []
    for rep in hs.coset_reps:
        f = src.unpack(rep, parity)
        cols.append(hd.project(dst.pack(f, parity)))
    return Mat.from_cols(cols, rows=hd.dim)


def connecting_delta_bar(
    model: CdgaModel, H: TwistForm, p: int, r: int, parity: int
) -> Mat:
    """The connecting map H^par(K_{p-r+1}/K_p) -> H^(par+1)(K_p/K_{p+1}).

    The target of the short exact sequence used for indeterminacy; its
    image, modulo exact forms, is the indeterminacy subgroup at (p, r).
    For r = 2 it coincides with the first-page differential d.  D is zero
    on K_p/K_{p+1}, so its cohomology is Omega^p in parity p with identity
    coordinates, and zero in the other parity: a relative cocycle's class
    is read off as the degree-p component of D applied to it.
    """
    if r < 2:
        raise ValueError("connecting_delta_bar needs r >= 2")
    if not (0 <= p <= model.top_degree):
        raise ValueError(f"column {p} outside 0..{model.top_degree}")
    op = H.operator(model)
    rows = model.dim(p) if (parity + 1) % 2 == p % 2 else 0
    a = max(0, p - r + 1)
    if a == p:  # the source complex K_p/K_p is zero
        return Mat.zeros(rows, 0)
    src = RelativeComplex(op, a, p)
    cols = [
        op.apply(src.unpack(rep, parity)).component(p) if rows else ()
        for rep in src.cohomology(parity).coset_reps
    ]
    return Mat.from_cols(cols, rows=rows)


@dataclass(frozen=True)
class IndeterminacySubgroup:
    """The subgroup of H^p in which representatives of a page class move.

    ``group`` is the quotient (im delta_bar)/(im d); ``in_h`` spans the same
    subgroup in the class coordinates of H^p, for membership tests.
    """

    p: int
    r: int
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
        return self.in_h.contains(self.h.project(f.component(self.p)))


def indeterminacy_subgroup(
    model: CdgaModel, H: TwistForm, p: int, q: int, r: int
) -> IndeterminacySubgroup:
    """Indeterminacy of a class in E_r^{p,q} as a subgroup of H^p.

    Computed as im(delta_bar)/im(d); requires r >= 3 (for r = 2 the subgroup
    is trivial since delta_bar = d).
    """
    if r < 3:
        raise ValueError("indeterminacy_subgroup needs r >= 3")
    H.operator(model)  # ValueError for a twist of another model, whatever the cell
    parity = (p + q - 1) % 2
    if p > model.top_degree:
        trivial = QuotientSpace(SubspaceBasis.zero(0), SubspaceBasis.zero(0))
        return IndeterminacySubgroup(p, r, trivial, SubspaceBasis.zero(0), trivial)
    h = model.de_rham(p)
    if q % 2 == 1:
        return IndeterminacySubgroup(
            p, r, QuotientSpace(h.sub, h.sub), SubspaceBasis.zero(h.dim), h
        )
    delta = connecting_delta_bar(model, H, p, r, parity)
    im_delta = image(delta)
    if not h.ambient.contains_space(im_delta):
        raise AssertionError("connecting image contains non-closed forms; engine bug")
    if not im_delta.contains_space(h.sub):
        raise AssertionError("exact forms escaped the connecting image; engine bug")
    group = QuotientSpace(im_delta, h.sub)
    in_h = span_in_quotient(h, list(im_delta.rows))
    return IndeterminacySubgroup(p, r, group, in_h, h)


def cell_indeterminacy(ss: SpectralSequence, p: int, r: int) -> IndeterminacySubgroup:
    """`indeterminacy_subgroup` of the cell E_r^{p,0} of ss, computed once per sequence.

    Every even q gives the same subgroup, so this also serves d_r values
    (see `differential_indeterminacy`).
    """
    key = (p, r)
    if key not in ss.indet_subgroups:
        ss.indet_subgroups[key] = indeterminacy_subgroup(ss.model, ss.H, p, 0, r)
    return ss.indet_subgroups[key]


def differential_indeterminacy(
    model: CdgaModel, H: TwistForm, p: int, q: int, t: int
) -> IndeterminacySubgroup:
    """Indeterminacy of d_{2t+3} values, a subgroup of H^{p+2t+3} (t >= 1)."""
    if t < 1:
        raise ValueError("differential_indeterminacy needs t >= 1")
    return indeterminacy_subgroup(model, H, p + 2 * t + 3, q - 2 * t - 2, 2 * t + 3)


# ---------------------------------------------------------------------------
# the cohomological page construction, for cross-checking the zig-zag route


def zb_cell(
    model: CdgaModel, H: TwistForm, r: int, p: int,
    tower: Optional[dict[int, RelativeComplex]] = None,
) -> tuple[SubspaceBasis, SubspaceBasis]:
    """(Z_r, B_r) at column p (even q) through the cohomological description.

    Z_r is the delta-preimage of the classes coming from H(K_{p+r}); B_r is
    the j^*-image of the kernel of H(K_p) -> H(K_{p-r+1}).  Both live inside
    E_1^{p, even} = Omega^p.  `tower` caches the complexes K_a/K_{n+1} by a,
    for reuse across calls on the same (model, H).
    """
    if r < 2:
        raise ValueError("the cohomological description starts at r = 2")
    op = H.operator(model)
    tower = {} if tower is None else tower
    n = model.top_degree

    def k(a: int) -> RelativeComplex:  # K_a/K_{n+1}
        if a not in tower:
            tower[a] = RelativeComplex(op, a, n + 1)
        return tower[a]

    dim_p = model.dim(p)
    parity = p % 2  # total parity of E_1^{p, even q}

    # delta: Omega^p -> H^(p+1 parity)(K_{p+1}) by x |-> class of D x
    if p + 1 <= n:
        k_next = k(p + 1)
        h_next = k_next.cohomology((parity + 1) % 2)
        cols = []
        for i in range(dim_p):
            de = op.apply(model.basis_form(model.label_of(p, i)))
            cols.append(h_next.project(k_next.pack(de, (parity + 1) % 2)))
        delta = Mat.from_cols(cols, rows=h_next.dim)
        if p + r <= n:
            k_far = k(p + r)
            incl = induced_map(k_far, k_next, (parity + 1) % 2)
            z = preimage(delta, image(incl))
        else:
            z = kernel(delta)
    else:
        z = SubspaceBasis.full(dim_p)

    # B_r = j^*(ker[H(K_p) -> H(K_{p-r+1})])
    a = max(0, p - r + 1)
    k_p = k(p)
    h_p = k_p.cohomology(parity)
    if a == p:
        ker_basis = SubspaceBasis.zero(h_p.dim)
    else:
        k_a = k(a)
        ker_basis = kernel(induced_map(k_p, k_a, parity))
    b_vecs = []
    for coords in ker_basis.rows:
        z_form = k_p.unpack(h_p.lift(coords), parity)
        b_vecs.append(z_form.component(p))
    b = SubspaceBasis.span(dim_p, b_vecs)
    return z, b


def page_agreement(
    ss: SpectralSequence, max_r: Optional[int] = None
) -> tuple[int, Optional[str]]:
    """Check that the cohomological Z_r/B_r route reproduces the zig-zag cells.

    Compares canonical subspace bases, not just dimensions, for every page
    and column.  Returns (cells compared, None) or, on a mismatch, the
    first three mismatched (r, p) in its description.
    """
    tower: dict[int, RelativeComplex] = {}  # K_a/K_{n+1}, reused across r
    top_r = max_r if max_r is not None else ss.max_page
    cells = [(r, p) for r in range(2, top_r + 1) for p in range(ss.n + 1)]
    mismatches = []
    for r, p in cells:
        z, b = zb_cell(ss.model, ss.H, r, p, tower)
        if z != ss.cycles(r, p) or b != ss.boundaries(r, p):
            mismatches.append((r, p))
    if mismatches:
        return len(cells), f"disagreement on {ss.model.name} at {mismatches[:3]}"
    return len(cells), None
