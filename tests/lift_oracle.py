"""The lift oracle: zig-zag tails by one stacked particular solve.

`SpectralSequence.lift_zigzag` reads its tails off the stored cycle kernels;
`resolve_tail` solves the same systems directly, so the tests compare the two.
"""

from twistss.linalg import solve_particular
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
    rhs = tuple(-c for c in cod.pack(ss.op.apply(fixed)))
    free = [q for q in free_degrees if q <= ss.n]
    if not free:
        return fixed if all(c == 0 for c in rhs) else None
    dom = BlockSpace(ss.model, free)
    sol = solve_particular(ss.op.matrix(dom, cod), rhs)
    if sol is None:
        return None
    return fixed + dom.unpack(sol)
