"""The lift oracles: zig-zag tails by one stacked particular solve, d_r by
lifting each coset representative, and B_r by one boundary kernel per column.

`SpectralSequence.lift_zigzag` reads its tails off the stored cycle kernels;
`resolve_tail` solves the same systems directly, so the tests compare the two.
`SpectralSequence.differential_matrix` maps the stored zig-zags of Z_r's basis
rows through one matrix of D; `lifted_differential_matrix` lifts each coset
representative as a form, applies D to it and projects the degree-(p+r)
component, one representative at a time.  `SpectralSequence.boundaries`
spans D of the stored lifts of Z, start by start; `boundaries_by_kernel`
eliminates the boundary condition itself, once per column.  The engine grows
one elimination per column, a condition degree at a time; `stacked_cycles`
eliminates each cycle key's stacked conditions at once, as one kernel.
"""

from bisect import bisect_left

from twistss.linalg import Mat, SubspaceBasis, kernel, solve_particular
from twistss.twist import BlockSpace


def stacked_cycles(ss, p, end):
    """Z at column p with conditions below `end`, and the lift of each of its
    rows, from one kernel of D from the lift space into every condition
    degree at once, with the tail's columns reversed: the rows pivoting in
    degree p, their tails put back, are the lifts, and their heads Z's RREF."""
    dim_p = ss.model.dim(p)
    conds = list(range(p + 1, min(end, ss.n + 1), 2))
    if dim_p == 0 or not conds:
        z = SubspaceBasis.full(dim_p)
        return z, z.sparse
    phi = ss.op.matrix(ss._lift_space(p), BlockSpace(ss.model, conds))
    n = phi.cols

    def flip(row):  # columns from dim_p on reversed: c -> n - 1 - c + dim_p
        return tuple(e for e in row if e[0] < dim_p) + tuple(
            (n - 1 - c + dim_p, x) for c, x in reversed(row) if c >= dim_p
        )

    k = kernel(Mat([flip(row) for row in phi.sparse], n))
    rank = sum(1 for c in k.pivots if c < dim_p)
    lifts = tuple(flip(row) for row in k.sparse[:rank])
    heads = tuple(tuple(e for e in row if e[0] < dim_p) for row in lifts)
    return SubspaceBasis(dim_p, heads, k.pivots[:rank]), lifts


def resolve_tail(ss, fixed, reach, free_degrees):
    """Complete `fixed` so that D of the result vanishes below p + reach.

    Only the listed free degrees are solved for (one stacked solve, free
    variables zeroed); the fixed components are kept verbatim.  Returns
    None when no completion exists.
    """
    p = min(fixed.degrees)
    conds = list(range(p + 1, min(p + reach, ss.n + 1), 2))
    if not conds:
        return fixed
    cod = BlockSpace(ss.model, conds)
    rhs = tuple((j, -c) for j, c in cod.pack(ss.op.apply(fixed)))
    free = [q for q in free_degrees if q <= ss.n]
    if not free:
        return fixed if not rhs else None
    dom = BlockSpace(ss.model, free)
    sol = solve_particular(ss.op.matrix(dom, cod), rhs)
    if sol is None:
        return None
    return fixed + dom.unpack(sol)


def lifted_differential_matrix(ss, r, p):
    """d_r from the cell at p to the cell at p+r, one lifted representative per column."""
    src = ss.cell(r, p)
    tgt = ss.cell(r, p + r, q=(1 - r) % 2)
    if tgt.dim == 0:
        return Mat.zeros(0, src.dim)
    cols = []
    for rep in src.sparse_reps:
        zz = ss.lift_zigzag(ss.model.part_form(p, rep), r)
        cols.append(tgt.project(ss.op.apply(zz.form).part(p + r)))
    return Mat.from_cols(cols, tgt.dim)


def boundaries_by_kernel(ss, p, start):
    """B at column p of the lifts from K_start, read off one kernel of the column.

    D is odd, so the lifts w with D w reaching degree p live in the degrees
    of p + 1's parity; the kernel of D into the degrees of p's parity below p
    holds those with D w in K_p.  D raises degree, so in RREF the lifts from
    K_start are the suffix of rows pivoting at or after start's offset; one
    product maps it into degree p.
    """
    dim_p = ss.model.dim(p)
    if dim_p == 0 or start > ss.n:
        return SubspaceBasis.zero(dim_p)
    low = (p + 1) % 2
    dom = BlockSpace(ss.model, range(low, ss.n + 1, 2))
    conds = list(range(low + 1, p, 2))
    if conds:
        lifts = kernel(ss.op.matrix(dom, BlockSpace(ss.model, conds)))
    else:
        lifts = SubspaceBasis.full(dom.total_dim)
    suffix = lifts.sparse[bisect_left(lifts.pivots, dom.offsets[start]) :]
    to_p = ss.op.matrix(dom, BlockSpace(ss.model, [p]))
    return SubspaceBasis.span(dim_p, (to_p @ Mat.from_cols(suffix, to_p.cols)).columns())
