"""Exact analysis of the random non-symplectic transvection walk on the
space of symplectic forms on F_q^(2n): eigenvalues, total-variation bounds,
exact finite chains, and Monte Carlo cross-checks."""

from .combinat import (
    PartitionFn,
    class_size,
    class_size_qsq,
    coset_space_size,
    dim_irrep,
    enumerate_partition_fns,
    gl_order,
    sp_order,
)
from .field import FieldSpec, PolyFq, build_field, field_from_order
from .linalg import (
    MatFq,
    Transvection,
    class_invariant,
    is_form_preserving,
    sample_symplectic,
    sample_transvection,
    standard_J,
)
from .spectral import (
    SpectralLine,
    char_ratio_transvection,
    eigenvalue_phi,
    eigenvalue_phi_global,
    eigenvalue_via_lift,
    proportions_a_b,
    spectrum,
)
from .bounds import (
    lower_bound_tv,
    support_fraction,
    upper_bound_tv,
)
from .walk import (
    ChainModel,
    classify_double_coset,
    exact_form_chain,
    monte_carlo_tv,
)

__version__ = "0.1.0"

__all__ = [
    "ChainModel",
    "FieldSpec",
    "MatFq",
    "PartitionFn",
    "PolyFq",
    "SpectralLine",
    "Transvection",
    "build_field",
    "char_ratio_transvection",
    "class_invariant",
    "class_size",
    "class_size_qsq",
    "classify_double_coset",
    "coset_space_size",
    "dim_irrep",
    "eigenvalue_phi",
    "eigenvalue_phi_global",
    "eigenvalue_via_lift",
    "enumerate_partition_fns",
    "exact_form_chain",
    "field_from_order",
    "gl_order",
    "is_form_preserving",
    "lower_bound_tv",
    "monte_carlo_tv",
    "proportions_a_b",
    "sample_symplectic",
    "sample_transvection",
    "sp_order",
    "spectrum",
    "standard_J",
    "support_fraction",
    "upper_bound_tv",
]
