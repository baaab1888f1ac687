"""The dense form oracle: `Form` arithmetic on dense coordinate vectors.

`twistss.cdga.Form` stores each degree as the sorted (index, coefficient)
pairs of its nonzero coordinates and walks only those.  This module keeps
the dense arithmetic it replaced, on plain dicts {degree: dense vector}
that omit zero components, so the tests can compare the two entry for entry.
"""

from fractions import Fraction

from twistss.linalg import ZERO
from twistss.linalg import dense as dense_vector


def dense(model, parts):
    """A dense form: coerced, degree-sorted, without zero components."""
    out = {}
    for p, v in sorted(parts.items()):
        v = tuple(Fraction(x) for x in v)
        assert len(v) == model.dim(p)
        if any(v):
            out[p] = v
    return out


def of_form(f):
    """The dense form of a `Form`, through the dense view of each part."""
    return {p: dense_vector(f.part(p), f.model.dim(p)) for p in f.degrees}


def add(model, u, v):
    parts = dict(u)
    for p, w in v.items():
        parts[p] = tuple(a + b for a, b in zip(parts[p], w)) if p in parts else w
    return dense(model, parts)


def neg(model, u):
    return dense(model, {p: tuple(-a for a in v) for p, v in u.items()})


def scale(model, c, u):
    c = Fraction(c)
    return dense(model, {p: tuple(c * a for a in v) for p, v in u.items()})


def wedge(model, u, v):
    out = {}
    for p, up in u.items():
        for q, vq in v.items():
            if p + q > model.top_degree:
                continue
            acc = out.setdefault(p + q, [ZERO] * model.dim(p + q))
            for i, a in enumerate(up):
                for j, b in enumerate(vq):
                    for k, s in model.wedge_basis(p, i, q, j):
                        acc[k] += a * b * s
    return dense(model, out)


def d(model, u):
    out = {}
    for p, v in u.items():
        if p < model.top_degree:
            m = model.d_mat(p)
            rows = [dense_vector(r, m.cols) for r in m.sparse]
            out[p + 1] = [sum((a * b for a, b in zip(row, v)), ZERO) for row in rows]
    return dense(model, out)


def homogeneous_part(model, u, p):
    return dense(model, {p: u[p]} if p in u else {})


def component(model, u, p):
    return u.get(p, (ZERO,) * model.dim(p))


def to_str(model, u):
    terms = []
    for p, v in u.items():
        for i, c in enumerate(v):
            if c == 0:
                continue
            label = model.label_of(p, i)
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
