"""The lift oracles: zig-zag tails by one stacked particular solve, and d_r
by lifting each coset representative.

`SpectralSequence.lift_zigzag` reads its tails off the stored cycle kernels;
`resolve_tail` solves the same systems directly, so the tests compare the two.
`SpectralSequence.differential_matrix` maps the stored zig-zags of Z_r's basis
rows through one matrix of D; `lifted_differential_matrix` lifts each coset
representative as a form, applies D to it and projects the degree-(p+r)
component, one representative at a time.
"""

from twistss.linalg import Mat, solve_particular
from twistss.twist import BlockSpace


def resolve_tail(ss, fixed, reach, free_degrees):
    """Complete `fixed` so that D of the result vanishes below p + reach.

    Only the listed free degrees are solved for (one stacked solve, free
    variables zeroed); the fixed components are kept verbatim.  Returns
    None when no completion exists.
    """
    p = min(fixed.degrees)
    conds = ss._condition_degrees(p, reach)
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
