"""The full analysis pipeline and its report.

`run_analysis` validates a model/twist pair, computes every page with
differentials and the sequence's twisted cohomology, then runs the
verification battery: even differentials vanish, d_3 is cup product with
the degree-3 twist component, the Massey defining-system formulas for every
higher differential, the case table and route compatibility for
single-component twists, convergence of the page totals to the twisted
cohomology, agreement of the two page constructions, and coherence of the
indeterminacy subgroups, B_r mod exact forms, whose dims it reads off B_r.

Reports render as human-readable text or as deterministic JSON (sorted keys,
fixed separators), so re-emitting a parsed report is byte-identical.  The
`check_*` functions behind the verdicts are shared with `selftest`, and each
takes only the `SpectralSequence` (the Massey check also its last page).
The two independent page oracles are column sweeps in `twistss.indet`:
`page_agreement` for Z_r and `boundary_agreement` for B_r, which
`check_indeterminacy` runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .cdga import CdgaModel
from .indet import boundary_agreement, page_agreement
from .massey import verify_main_theorems
from .spectral import SpectralSequence
from .twist import TwistForm

SCHEMA_VERSION = 1

PASS, FAIL, NA = "pass", "fail", "n/a"

# What a verdict check returns: how many items it checked, and a description
# of its first failure or None when every item holds.
Check = tuple[int, Optional[str]]


@dataclass
class Verdict:
    status: str
    detail: str = ""


@dataclass
class AnalysisReport:
    model_name: str
    top_degree: int
    dims: list[int]
    twist: str
    twist_degrees: list[int]
    de_rham: list[int]
    twisted_even: int
    twisted_odd: int
    pages: list[dict]
    indeterminacy: list[dict]
    verdicts: dict[str, Verdict] = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(v.status != FAIL for v in self.verdicts.values())

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "model": {
                "name": self.model_name,
                "top_degree": self.top_degree,
                "dims": self.dims,
            },
            "twist": {"expression": self.twist, "degrees": self.twist_degrees},
            "de_rham": self.de_rham,
            "twisted": {"even": self.twisted_even, "odd": self.twisted_odd},
            "pages": self.pages,
            "indeterminacy": self.indeterminacy,
            "verdicts": {
                k: {"status": v.status, "detail": v.detail}
                for k, v in self.verdicts.items()
            },
            "overall": "pass" if self.all_pass else "fail",
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ": "), indent=2) + "\n"

    def to_text(self) -> str:
        lines = []
        lines.append(f"model {self.model_name}  (top degree {self.top_degree}, dims {self.dims})")
        lines.append(f"twist: {self.twist or '0'}  components in degrees {self.twist_degrees or '[]'}")
        lines.append(f"de Rham dims: {self.de_rham}")
        lines.append(f"twisted cohomology: even {self.twisted_even}, odd {self.twisted_odd}")
        lines.append("pages (nonzero cells, even q):")
        for page in self.pages:
            cells = {int(p): d for p, d in page["dims"].items() if d}
            ranks = {int(p): r for p, r in page["d_ranks"].items() if r}
            lines.append(f"  E_{page['r']}: dims {cells or {}}, d_{page['r']} ranks {ranks or {}}")
        if self.indeterminacy:
            lines.append("indeterminacy subgroups (nonzero):")
            for e in self.indeterminacy:
                lines.append(f"  page {e['r']}, column {e['p']}: dim {e['dim']}")
        lines.append("verdicts:")
        for k in sorted(self.verdicts):
            v = self.verdicts[k]
            detail = f"  ({v.detail})" if v.detail else ""
            lines.append(f"  {v.status.upper():4}  {k}{detail}")
        lines.append(f"overall: {'PASS' if self.all_pass else 'FAIL'}")
        return "\n".join(lines) + "\n"


def run_analysis(
    model: CdgaModel,
    H: TwistForm,
    max_page: Optional[int] = None,
) -> AnalysisReport:
    ss = SpectralSequence(model, H)
    top_r = ss.precompute(max_page)
    tc = ss.twisted_cohomology()

    pages = []
    for r in range(1, top_r + 1):
        page = ss.page(r)
        pages.append(
            {
                "r": r,
                "dims": {str(p): c.dim for p, c in page.cells.items()},
                "d_ranks": {str(p): page.d[p].rank() for p in page.d},
            }
        )

    indet_entries = []
    for r in range(3, top_r + 1):
        for p in range(model.top_degree + 1):
            # the subgroup is B_r/(im d), and B_r contains im d from r = 2 on
            dim = ss.boundaries(r, p).dim - model.de_rham(p).sub.dim
            if dim:
                indet_entries.append({"r": r, "p": p, "dim": dim})

    report = AnalysisReport(
        model_name=model.name,
        top_degree=model.top_degree,
        dims=list(model.dims),
        twist=H.describe() if not H.is_zero else "",
        twist_degrees=list(H.degrees),
        de_rham=[model.betti(p) for p in range(model.top_degree + 1)],
        twisted_even=tc.dims[0],
        twisted_odd=tc.dims[1],
        pages=pages,
        indeterminacy=indet_entries,
    )
    _run_verdicts(report, ss, top_r)
    return report


def _status(check: Check) -> str:
    checked, failure = check
    if failure:
        return FAIL
    return PASS if checked else NA


def _unchecked(ss: SpectralSequence, top_r: int, full: str, cut: str) -> str:
    """Why a Massey verdict checked nothing: `full` when every page was
    built, else `cut` on the pages that --max-page (top_r) kept."""
    if top_r == ss.max_page:
        return full
    if top_r < 5:
        return f"pages 5 and up are past --max-page {top_r}"
    return f"{cut} on pages 5 to {top_r}; --max-page {top_r} cuts the rest"


def _run_verdicts(report: AnalysisReport, ss: SpectralSequence, top_r: int):
    v = report.verdicts
    v["page_identifications"] = Verdict(
        _status(check_page_identifications(ss)),
        "E_1 = graded piece, E_2 = de Rham cohomology",
    )
    v["even_vanishing"] = Verdict(_status(check_even_vanishing(ss)))
    v["d3_cup_rule"] = Verdict(_status(check_d3_cup(ss)))

    # higher differentials through defining systems
    massey, case, compat = check_massey(ss, top_r)
    no_classes = _unchecked(ss, top_r, "no classes on pages 5 and up", "no classes")
    v["massey_differentials"] = Verdict(
        _status(massey), f"{massey[0]} classes checked" if massey[0] else no_classes
    )
    if case[0]:
        case_detail = f"{case[0]} classes checked"
    elif ss.H.single_degree() is None:
        case_detail = "twist is not a single component"
    else:
        case_detail = no_classes
    v["single_twist_case_table"] = Verdict(_status(case), case_detail)
    no_hit = "no classes hit the iterated case"
    v["route_compatibility"] = Verdict(
        _status(compat),
        f"{compat[0]} classes checked" if compat[0] else _unchecked(ss, top_r, no_hit, no_hit),
    )

    v["convergence"] = Verdict(
        _status(check_convergence(ss)),
        f"stable totals {stable_totals(ss)} vs twisted {ss.twisted_cohomology().dims}",
    )
    v["page_construction_agreement"] = Verdict(_status(page_agreement(ss, max_r=top_r)))
    (cells, mismatch), (samples, escape) = check_indeterminacy(ss)
    v["indeterminacy_coherence"] = Verdict(_status((cells + samples, mismatch or escape)))


# ---------------------------------------------------------------------------
# the verdict checks, shared with the acceptance battery


def check_page_identifications(ss: SpectralSequence) -> Check:
    """E_1 is the graded piece and E_2 is de Rham cohomology, basis for basis."""
    m = ss.model
    for p in range(ss.n + 1):
        if ss.cell(1, p).dim != m.dim(p):
            return p, f"E_1 dim mismatch on {m.name} at p={p}"
        c2 = ss.cell(2, p)
        if c2.dim != m.betti(p) or c2.sparse_reps != m.de_rham(p).sparse_reps:
            return p, f"E_2 mismatch on {m.name} at p={p}"
    return ss.n + 1, None


def check_even_vanishing(ss: SpectralSequence) -> Check:
    """d_{2k} = 0 and E_{2k+1} = E_{2k} on every even page.

    The engine builds pages 2k and 2k+1 from one Z, one B and one cell, so
    here E_{2k+1} = E_{2k} compares an object with itself.  Two oracles
    check it independently: `indet.page_agreement` builds Z_{2k} and
    Z_{2k+1} from K_{p+2k} and K_{p+2k+1}, and `check_indeterminacy` builds
    B_{2k} and B_{2k+1} from the connecting maps of K_a/K_p at a and a + 1.
    """
    checked, cols = 0, range(ss.n + 1)
    for r in range(2, ss.max_page + 1, 2):
        d_zero = all(ss.differential_matrix(r, p).is_zero() for p in cols)
        same = r == ss.max_page or all(ss.cell(r + 1, p) == ss.cell(r, p) for p in cols)
        if not (d_zero and same):
            return checked, f"even page structure fails on {ss.model.name} at r={r}"
        checked += 1
    return checked, None


def check_d3_cup(ss: SpectralSequence) -> Check:
    """The zig-zag d_3 of every E_3 class is cup product with H_3 (none without page 3).

    Each cup is one product of the representative with the piece H_3 ^ . of
    D on its degree (`DOperator.image` over `DOperator.piece`).
    """
    if ss.max_page < 3:
        return 0, None
    model, checked = ss.model, 0
    for p in range(ss.n + 1):
        reps = ss.cell(3, p).sparse_reps
        if not reps:
            continue
        d_3 = ss.differential_matrix(3, p).columns()  # column j is d_3 of reps[j]
        for rep, d_rep in zip(reps, d_3):
            cup = model.part_form(p + 3, ss.op.image(p + 3, {p: rep}))  # H_3 ^ rep
            if d_rep != ss.page_coords(3, p + 3, cup):
                return checked, f"d_3 != cup on {model.name} at p={p}"
            checked += 1
    return checked, None


def stable_totals(ss: SpectralSequence) -> tuple[int, int]:
    """The even and odd total dimensions of the stable page, from its cells."""
    dims = [ss.cell(ss.max_page, p).dim for p in range(ss.n + 1)]
    return sum(dims[0::2]), sum(dims[1::2])


def check_convergence(ss: SpectralSequence) -> Check:
    """The stable page totals equal the sequence's twisted cohomology."""
    totals, tc = stable_totals(ss), ss.twisted_cohomology()
    if totals != tc.dims:
        return 0, f"convergence fails on {ss.model.name}: {totals} vs {tc.dims}"
    return 1, None


def check_massey(ss: SpectralSequence, top_r: int) -> tuple[Check, Check, Check]:
    """(banded with independence, case table, route compatibility) over the
    classes of pages 5..top_r (t = 1..(top_r-3)//2).  The case table applies
    only to single-component twists, route compatibility only where both
    the banded and the diagonal system exist."""
    checked, failures = [0, 0, 0], [None, None, None]
    for t in range(1, (top_r - 3) // 2 + 1):
        for c in verify_main_theorems(ss, t).checks:
            banded = "banded rule" if not c.banded_ok else "defining-system independence"
            verdicts = [
                (c.banded_ok and c.independence_ok is not False, banded),
                (c.case_ok, "case table"),
                (c.routes_agree, "route compatibility"),
            ]
            for i, (ok, name) in enumerate(verdicts):
                if ok is not None:
                    checked[i] += 1
                    if not ok and failures[i] is None:
                        failures[i] = f"{name} fails on {ss.model.name} t={t} p={c.p}"
    return tuple(zip(checked, failures))


def check_indeterminacy(ss: SpectralSequence) -> list[Check]:
    """[oracle, samples] for the indeterminacy subgroups, B_r mod exact forms:
    `indet.boundary_agreement`, the connecting map's image against B_r at
    every cell with r >= 3, and d_r mapping B_r into B_r."""
    return [boundary_agreement(ss), _check_boundaries_map_into_boundaries(ss)]


def _check_boundaries_map_into_boundaries(ss: SpectralSequence) -> Check:
    """For every odd r >= 3 with p + r <= n and row b of B_r(p), (D lift_r(b))_{p+r}
    lies in B_r(p + r).  b = (D w)_p with w in K_{p-r+1} and D w in K_p, so
    y = lift_r(b) - D w has no degree-p part, which puts it in K_{p+1}, and
    D y = D lift_r(b) lies in K_{p+r}: (D y)_{p+r} is in B_r(p + r) by
    definition.  One sample per nonzero cell whose B_r has a non-exact row.
    """
    model, samples = ss.model, 0
    for r in range(3, ss.max_page + 1):
        for p in range(ss.n + 1):
            rows, exact = ss.boundaries(r, p).sparse, model.de_rham(p).sub
            if ss.cell(r, p).dim and not all(exact.contains(b) for b in rows):
                samples += 1
            if r % 2 == 0 or p + r > ss.n:
                continue
            target = ss.boundaries(r, p + r)
            for b in rows:
                lift = ss.lift_zigzag(model.part_form(p, b), r)
                if lift is None or not target.contains(ss.op.image(p + r, lift.form.parts)):
                    return samples, f"d_{r} values escape on {model.name} (p={p})"
    return samples, None
