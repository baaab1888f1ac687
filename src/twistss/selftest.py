"""The acceptance battery: twelve criteria over the bundled model library.

Each criterion is a function returning (passed, detail).  They are exact
checks (rational arithmetic, tolerance zero) against independent oracles:
the parity-complex kernel/image computation cross-checks page totals, the
cohomological Z_r construction and the connecting map delta_bar cross-check
the zig-zag cycles and boundaries, and the hand-checkable small models pin
concrete values; criteria that `analyze` shares fold the `report` checks.
D o D = 0 is checked once per sequence, on `RelativeComplex.d` (the rows
`DOperator.matrix` lays out), when `ss.twisted_cohomology()` first builds it
(criterion 1; criteria 4, 9 and 12 read the same one).  `run_selftest` prints
one pass/fail line per criterion and is what `twistss selftest` invokes.
"""

from __future__ import annotations

from typing import Callable

from .indet import page_agreement
from .massey import bar, triple_product, verify_main_theorems
from .models import bundled_model, standard_pairs
from .modelgen import random_model, random_twist
from .report import (
    Check,
    check_convergence,
    check_d3_cup,
    check_even_vanishing,
    check_indeterminacy,
    check_massey,
    check_page_identifications,
)
from .spectral import SpectralSequence
from .twist import TwistError, parse_twist

RANDOM_MODELS = 50
RANDOM_DIM_CAP = 64


class Workspace:
    """Lazily built, shared spectral sequences for the acceptance run."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._models = {}
        self._ss = {}
        self._random = {}

    def model(self, name):
        if name not in self._models:
            self._models[name] = bundled_model(name)
        return self._models[name]

    def ss(self, name, twist_expr) -> SpectralSequence:
        key = (name, twist_expr)
        if key not in self._ss:
            m = self.model(name)
            self._ss[key] = SpectralSequence(m, parse_twist(m, twist_expr))
        return self._ss[key]

    def pairs(self):
        return [self.ss(name, tw) for name, tw in standard_pairs()]

    def random_pair(self, i: int) -> SpectralSequence:
        if i not in self._random:
            m = random_model(self.seed + i)
            self._random[i] = SpectralSequence(m, random_twist(m, self.seed + i))
        return self._random[i]

    def random_pairs(self, count=RANDOM_MODELS):
        return [self.random_pair(i) for i in range(count)]


def _all_sequences(ws: Workspace, random_count=RANDOM_MODELS):
    return ws.pairs() + ws.random_pairs(random_count)


def _fold(seqs, check) -> Check:
    """Sum a shared check over sequences, stopping at the first failure."""
    total = 0
    for ss in seqs:
        checked, failure = check(ss)
        total += checked
        if failure:
            return total, failure
    return total, None


def _d_squared_zero(ss: SpectralSequence) -> bool:
    for r in range(1, ss.max_page + 1):
        for p in range(ss.n + 1):
            out = ss.differential_matrix(r, p)
            if p - r >= 0:
                inc = ss.differential_matrix(r, p - r)
                if inc.rows and inc.cols and out.rows and not (out @ inc).is_zero():
                    return False
    return True


def crit_structural(ws: Workspace):
    """D^2 = 0 and d_r o d_r = 0 on all bundled and 50 random models."""
    for ss in _all_sequences(ws):
        if ss.model.total_dim > RANDOM_DIM_CAP:
            return False, f"{ss.model.name} exceeds the ambient cap"
        try:
            ss.twisted_cohomology()
        except TwistError:
            return False, f"D^2 != 0 on {ss.model.name}"
        if not _d_squared_zero(ss):
            return False, f"d_r o d_r != 0 on {ss.model.name}"
    return True, f"{len(ws.pairs())} bundled pairs + {RANDOM_MODELS} random models"


def crit_page_identifications(ws: Workspace):
    """E_1 is the graded piece, E_2 is de Rham cohomology, odd q vanishes."""
    seqs = _all_sequences(ws, random_count=10)
    _, failure = _fold(seqs, check_page_identifications)
    if failure:
        return False, failure
    for ss in seqs:
        for p in range(ss.n + 1):
            for r in (2, 3):
                if ss.cell(r, p, q=1).dim != 0:
                    return False, f"odd-q cell nonzero on {ss.model.name}"
                if ss.cell(r, p, q=0) != ss.cell(r, p, q=2):
                    return False, f"q-periodicity broken on {ss.model.name}"
    return True, "E_1/E_2 identifications and q-parity structure"


def crit_even_vanishing(ws: Workspace):
    """d_{2k} = 0 and E_{2k+1} = E_{2k} on every model."""
    _, failure = _fold(_all_sequences(ws), check_even_vanishing)
    if failure:
        return False, failure
    return True, "all even differentials vanish, consecutive pages equal"


def crit_convergence(ws: Workspace):
    """Stable page totals equal the twisted cohomology, in exact arithmetic."""
    _, failure = _fold(_all_sequences(ws), check_convergence)
    if failure:
        return False, failure
    tc3 = ws.ss("torus3", "e1^e2^e3").twisted_cohomology()
    if tc3.dims != (3, 3):
        return False, f"torus3 twisted dims {tc3.dims} != (3, 3)"
    return True, "page totals match kernel/image twisted cohomology everywhere"


def crit_d3_cup(ws: Workspace):
    """Zig-zag d_3 equals cup product with the degree-3 twist component."""
    _, failure = _fold(_all_sequences(ws, random_count=10), check_d3_cup)
    if failure:
        return False, failure
    return True, "d_3 = cup with the degree-3 component on every class"


def crit_massey_banded(ws: Workspace):
    """d_{2t+3} = (-1)^t [c(A)] for the banded systems, with independence."""
    total, failure = _fold(
        _all_sequences(ws, random_count=10),
        lambda ss: check_massey(ss, ss.max_page)[0],
    )
    return (False, failure) if failure else (True, f"{total} page classes checked")


def crit_case_table(ws: Workspace):
    """Single-twist case table for s = 1, 2, 3."""
    cases = [("cascade3", "a", 1), ("heisenberg", "a^b^c", 1), ("cascade5", "a", 2),
             ("torus5", "e1^e2^e3^e4^e5", 2), ("su3xsu3", "x5", 2), ("cascade7", "a", 3)]
    total = 0
    for name, tw, s in cases:
        ss = ws.ss(name, tw)
        if ss.H.single_degree() != 2 * s + 1:
            return False, f"{name} twist is not a single degree-{2*s+1} component"
        checked, failure = check_massey(ss, ss.max_page)[1]
        if failure:
            return False, failure
        total += checked
    return True, f"s in {{1,2,3}}, {total} class checks"


def crit_route_compatibility(ws: Workspace):
    """Banded and diagonal routes agree on d_9 of the degree-5-only model."""
    ss = ws.ss("cascade5", "a")
    if sum(ss.cell(9, p).dim for p in range(ss.n + 1)) == 0:
        return False, "cascade5 has trivial E_9; nothing to compare"
    routes, disagree = check_massey(ss, 9)[2]
    if not routes:
        return False, "no classes hit the l >= 2 case"
    if disagree:
        return False, "routes disagree"
    # a class at p = 5 where both routes exist must have a nonzero d_9
    checks = (c for t in (1, 2, 3) for c in verify_main_theorems(ss, t).checks)
    if any(c.p == 5 and c.routes_agree is not None and c.zigzag.is_zero for c in checks):
        return False, "expected a nonzero d_9 witness"
    return True, f"{routes} classes, nonzero d_9 witnessed"


def crit_formality(ws: Workspace):
    """The free model on degrees 3 and 5 with its degree-3 twist collapses."""
    ss = ws.ss("su3", "x3")
    tc = ss.twisted_cohomology()
    if tc.dims != (0, 0):
        return False, f"twisted dims {tc.dims} != (0, 0)"
    for p in range(ss.n + 1):
        if ss.cell(4, p) != ss.cell(ss.max_page, p):
            return False, f"E_4 != stable page at p={p}"
        if ss.cell(4, p).dim != 0:
            return False, "stable page is not zero"
    return True, "twisted dims (0,0) and E_4 = stable page = 0"


def crit_triple_product(ws: Workspace):
    """The Heisenberg triple product <a,b,b> is [c^b] != 0, with containment."""
    m = ws.model("heisenberg")
    a, b, c = m.basis_form("a"), m.basis_form("b"), m.basis_form("c")
    tp = triple_product(a, b, b)
    expected = c.wedge(b)
    if tp.omega != expected:
        return False, f"omega = {tp.omega}, expected {expected}"
    if tp.is_zero_class:
        return False, "triple product class vanished"
    if tp.v1 != c or not tp.v2.is_zero:
        return False, "witnesses differ from the canonical solution"
    # shift the witnesses by closed forms; the class must move inside
    # [a] H^1 + H^1 [b]
    from .linalg import kernel

    for z_row in kernel(m.d_mat(1)).sparse:
        z = m.part_form(1, z_row)
        omega2 = bar(tp.v1 + z).wedge(b) + bar(a).wedge(tp.v2)
        omega3 = bar(tp.v1).wedge(b) + bar(a).wedge(tp.v2 + z)
        for om in (omega2, omega3):
            if not om.d().is_zero:
                return False, "shifted representative is not closed"
            delta = om - tp.omega
            coords = tp.cohomology.project(delta.part(tp.degree)) if not delta.is_zero else None
            if coords is not None and not tp.indeterminacy.contains(coords):
                return False, "shifted class escapes the indeterminacy subgroup"
    return True, "<a,b,b> = [c^b] != 0; shifts stay in the indeterminacy subgroup"


def _pairs_behind_oracle(ss: SpectralSequence) -> Check:
    """The sampled pairs of `check_indeterminacy`, failing on an oracle mismatch."""
    (_, mismatch), (samples, escape) = check_indeterminacy(ss)
    return samples, mismatch or escape


def crit_indeterminacy_coherence(ws: Workspace):
    """delta_bar gives B_r, and representative pairs differ inside the subgroups."""
    samples, failure = _fold(_all_sequences(ws, random_count=10), _pairs_behind_oracle)
    if failure:
        return False, failure
    if samples == 0:
        return False, "no representative pairs sampled"
    return True, f"{samples} representative pairs checked"


def crit_page_agreement(ws: Workspace):
    """The cohomological Z_r equals the zig-zag Z_r everywhere.

    B_r is checked against delta_bar by criterion 11; the printed "Z_r/B_r" stays.
    """
    _, failure = _fold(ws.pairs(), page_agreement)
    if failure:
        return False, failure
    return True, "identical canonical bases on every page of every bundled model"


CRITERIA: list[tuple[str, Callable]] = [
    ("structural axioms (D^2 = 0, d_r o d_r = 0, exact)", crit_structural),
    ("page identifications (E_1, E_2, odd q, 2-periodicity)", crit_page_identifications),
    ("even differentials vanish", crit_even_vanishing),
    ("convergence to twisted cohomology", crit_convergence),
    ("d_3 is cup product with the degree-3 component", crit_d3_cup),
    ("higher differentials via banded defining systems", crit_massey_banded),
    ("single-twist case table (s = 1, 2, 3)", crit_case_table),
    ("banded/diagonal route compatibility at d_9", crit_route_compatibility),
    ("formality showcase: collapse at E_4", crit_formality),
    ("Massey triple product on the Heisenberg model", crit_triple_product),
    ("indeterminacy coherence of representatives", crit_indeterminacy_coherence),
    ("page-construction agreement (Z_r/B_r vs zig-zag)", crit_page_agreement),
]


def run_selftest(seed: int = 0, emit=print) -> bool:
    ws = Workspace(seed=seed)
    ok = True
    for i, (description, fn) in enumerate(CRITERIA, start=1):
        passed, detail = fn(ws)
        ok = ok and passed
        status = "PASS" if passed else "FAIL"
        emit(f"{status}  criterion {i:2d}: {description} -- {detail}")
    emit(f"{'PASS' if ok else 'FAIL'}  overall")
    return ok
