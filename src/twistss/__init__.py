"""Twisted de Rham cohomology on finite CDGA models, in exact arithmetic.

The package computes the cohomology of the twisted differential d + H on a
finite commutative differential graded algebra, the spectral sequence of the
degree filtration by zig-zag lifting, differentials expressed through cup
products and Massey defining systems, and the indeterminacy subgroups of
page classes.  All coefficients are exact rationals.
"""

from .linalg import (
    Mat,
    QuotientSpace,
    SubspaceBasis,
    image,
    kernel,
    rref,
    solve_particular,
)
from .cdga import (
    AlgebraError,
    CdgaModel,
    Form,
    ModelError,
    ModelSchemaError,
    load_model,
    loads_model,
)
from .twist import (
    RelativeComplex,
    TwistError,
    TwistForm,
    TwistedCohomology,
    make_twist,
    parse_twist,
    twisted_cohomology,
)
from .spectral import (
    PageClass,
    PageError,
    SpectralPage,
    SpectralSequence,
    ZigZag,
)
from .massey import (
    DefiningSystem,
    DefiningSystemError,
    MasseyError,
    MasseyVerification,
    TripleProduct,
    banded_defining_system,
    bar,
    diagonal_defining_system,
    perturbed_banded_system,
    related_cocycle,
    specific_element,
    triple_product,
    validate_defining_system,
    verify_main_theorems,
)
from .indet import (
    IndeterminacySubgroup,
    connecting_delta_bar,
    differential_indeterminacy,
    indeterminacy_subgroup,
    page_agreement,
    z_cell,
)

__version__ = "0.1.0"

__all__ = [
    "Mat",
    "QuotientSpace",
    "SubspaceBasis",
    "image",
    "kernel",
    "rref",
    "solve_particular",
    "AlgebraError",
    "CdgaModel",
    "Form",
    "ModelError",
    "ModelSchemaError",
    "load_model",
    "loads_model",
    "RelativeComplex",
    "TwistError",
    "TwistForm",
    "TwistedCohomology",
    "make_twist",
    "parse_twist",
    "twisted_cohomology",
    "PageClass",
    "PageError",
    "SpectralPage",
    "SpectralSequence",
    "ZigZag",
    "DefiningSystem",
    "DefiningSystemError",
    "MasseyError",
    "MasseyVerification",
    "TripleProduct",
    "banded_defining_system",
    "bar",
    "diagonal_defining_system",
    "perturbed_banded_system",
    "related_cocycle",
    "specific_element",
    "triple_product",
    "validate_defining_system",
    "verify_main_theorems",
    "IndeterminacySubgroup",
    "connecting_delta_bar",
    "differential_indeterminacy",
    "indeterminacy_subgroup",
    "page_agreement",
    "z_cell",
]
