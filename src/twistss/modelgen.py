"""Seeded random CDGA models and twists for property sweeps.

Models are exterior algebras on a few odd-degree generators, built one
generator at a time: the differential of each new generator is a random
closed element of the subalgebra on the earlier generators, so d o d = 0 and
the Leibniz rule hold by construction and the d o d check of the generator
form in `cdga` must succeed.  The earlier generators' subalgebras are read as
unchecked expansions: each is a sub-CDGA of the final model, so checking the
final model alone covers them.  For a fixed seed both the model and the twist
are reproducible bit for bit.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .cdga import CdgaModel, build_generator_model, expand_generators
from .linalg import combine, kernel, sparse
from .twist import TwistForm, make_twist

_NAME_POOL = "gabcdefhkmnpqrstuw"


def random_model(seed: int, max_gens: int = 5) -> CdgaModel:
    """A random valid model; total dimension is 2^(number of generators)."""
    rng = random.Random(seed)
    num = rng.randint(2, max(2, max_gens))
    degrees = sorted(rng.choice([1, 1, 1, 3, 3, 5]) for _ in range(num))
    names = [f"{_NAME_POOL[i]}{d}" for i, d in enumerate(degrees)]
    gens = list(zip(names, degrees))

    diffs: dict[str, list[tuple[Fraction, tuple[str, ...]]]] = {}
    for i in range(1, num):
        # candidates: closed elements of degree deg+1 in the earlier generators
        top, labels, _, diff_mats = expand_generators(gens[:i], dict(diffs))
        target = degrees[i] + 1
        if target > top:
            continue
        closed = kernel(diff_mats[target])
        if closed.dim == 0 or rng.random() < 0.35:
            continue
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(closed.dim)]
        if all(c == 0 for c in coeffs):
            continue
        terms = []
        for k, c in combine(sparse(coeffs), closed.sparse):
            label = labels[target][k]
            mono = tuple(label.split("^")) if label != "1" else ()
            terms.append((c, mono))
        if terms:
            diffs[names[i]] = terms

    return build_generator_model(f"random{seed}", gens, diffs)


def random_twist(model: CdgaModel, seed: int) -> TwistForm:
    """A random twist: closed odd components of degree >= 3, possibly zero."""
    rng = random.Random(seed ^ 0x5EED)
    parts = []
    for deg in range(3, model.top_degree + 1, 2):
        if model.dim(deg) == 0 or rng.random() < 0.4:
            continue
        closed = kernel(model.d_mat(deg))
        if closed.dim == 0:
            continue
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(closed.dim)]
        parts.append(model.part_form(deg, combine(sparse(coeffs), closed.sparse)))
    return make_twist(model, parts)
