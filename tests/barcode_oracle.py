"""The barcode oracle: every number of a report from one reduction per parity.

The degree filtration K_p of the twisted complex is a filtered complex over a
field, so it has a barcode, and its spectral sequence can be read off it
(Zomorodian and Carlsson, *Computing persistent homology*, 2005; Basu and
Parida, *Spectral sequences, exact couples and persistent homology of
filtrations*, 2017).  Order the basis elements by descending (degree, index):
K_p is then a prefix for every p, and D, which raises degree, maps each
element into the elements before it.  The persistence reduction takes the
columns of D in that order; a column's pivot is its last entry in the same
order, the entry with the smallest (degree, index); a column is reduced by
the earlier column that owns its pivot until its pivot is new or it is zero.
A nonzero column pairs its source (degree s) with its pivot (degree t > s),
of length L = t - s, and no element lies in two pairs.  Then

* dim E_r^p = dim Omega^p - #{pairs with an end at p and L < r};
* rank d_r at p = #{pairs from p with L = r};
* the indeterminacy subgroup at (r, p), B_r modulo exact forms, has
  dimension #{pairs into p with 2 <= L < r};
* each twisted parity counts the unpaired basis elements of that parity.

D is assembled from the model's tables (`d_columns`, `wedge_basis`) and the
twist's components, not from `DOperator` or `RelativeComplex`, so the oracle
shares only those tables with the engine.
"""


def twisted_columns(model, H, parity):
    """D of each basis element of the parity, as {(degree, index): coefficient}."""
    columns = {}
    for s in range(parity, model.top_degree + 1, 2):
        for i, dcol in enumerate(model.d_columns(s)):
            col = {(s + 1, k): c for k, c in dcol}
            for h, terms in H.components.items():
                if s + h > model.top_degree:
                    continue
                for m, c in terms:
                    for k, x in model.wedge_basis(h, m, s, i):
                        col[s + h, k] = col.get((s + h, k), 0) + c * x
            columns[s, i] = {key: x for key, x in col.items() if x}
    return columns


def barcode(model, H):
    """The persistence pairs of D: a list of (source, pivot) basis keys (degree, index)."""
    pairs, owner = [], {}
    for parity in (0, 1):
        columns = twisted_columns(model, H, parity)
        for src in sorted(columns, reverse=True):
            col = dict(columns[src])
            while col:
                pivot = min(col)
                if pivot not in owner:
                    owner[pivot] = col
                    pairs.append((src, pivot))
                    break
                other = owner[pivot]
                f = col[pivot] / other[pivot]
                for key, x in other.items():
                    y = col.get(key, 0) - f * x
                    if y:
                        col[key] = y
                    else:
                        col.pop(key, None)
    ends = [e for pair in pairs for e in pair]
    assert len(set(ends)) == len(ends), "a basis element lies in two pairs"
    return pairs


def report_numbers(model, H, top_r):
    """What `run_analysis(model, H)` publishes, read off the barcode: the
    pages as {"r", "dims", "d_ranks"}, the nonzero indeterminacy entries and
    the twisted (even, odd) dimensions."""
    n, pairs = model.top_degree, barcode(model, H)
    lengths = [(s[0], t[0], t[0] - s[0]) for s, t in pairs]
    pages = []
    for r in range(1, top_r + 1):
        dims = {
            str(p): model.dim(p) - sum(1 for s, t, L in lengths if p in (s, t) and L < r)
            for p in range(n + 1)
        }
        ranks = {str(p): sum(1 for s, _, L in lengths if s == p and L == r) for p in range(n + 1)}
        pages.append({"r": r, "dims": dims, "d_ranks": ranks})
    indet = []
    for r in range(3, top_r + 1):
        for p in range(n + 1):
            dim = sum(1 for _, t, L in lengths if t == p and 2 <= L < r)
            if dim:
                indet.append({"r": r, "p": p, "dim": dim})
    paired = {e for pair in pairs for e in pair}
    twisted = [0, 0]
    for p in range(n + 1):
        twisted[p % 2] += sum(1 for i in range(model.dim(p)) if (p, i) not in paired)
    return pages, indet, tuple(twisted)


def mismatches(report, model, H):
    """The kinds of numbers on which `report` disagrees with the barcode."""
    pages, indet, twisted = report_numbers(model, H, len(report.pages))
    found = []
    if [pg["dims"] for pg in report.pages] != [pg["dims"] for pg in pages]:
        found.append("page dimensions")
    if [pg["d_ranks"] for pg in report.pages] != [pg["d_ranks"] for pg in pages]:
        found.append("d_r ranks")
    if report.indeterminacy != indet:
        found.append("indeterminacy dimensions")
    if (report.twisted_even, report.twisted_odd) != twisted:
        found.append("twisted dimensions")
    return found
