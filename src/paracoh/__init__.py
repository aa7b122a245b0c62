"""Truncated-coefficient models of PSL(2,R)^d coboundary equations.

Irreducibles are parameterized by series kind and nu; elements live in the
K-weight basis as finite coefficient windows.  The package evaluates the
invariant functionals and their dual phi elements, solves the degree-1
through degree-d coboundary equations by splitting and recursion, runs the
leafwise-form complex in lower degrees, and measures the Sobolev-norm
behavior the estimates predict.
"""

from .params import IndexWindow, Kind, MultiParam, SeriesParam, default_window
from .repn import basis_norm_sq
from .distributions import (
    Sign,
    dist_basis_value,
    dist_order_sum,
    phi,
    phi_pairing_matrix,
    phi_sobolev_sum,
)
from .tensor import (
    TensorCoeffs,
    apply_U_factor,
    basis_vector,
    inner_product,
    kernel_project,
    product_dist_evaluate,
    restrict,
    tensor_sobolev_norm,
    valid_tags,
)
from .solver import (
    SolveOptions,
    SolveReport,
    obstruction_certificate,
    regularity_check,
    sigma_schedule,
    solve_top,
    split,
    verify_solution,
)
from .forms import (
    LeafwiseForm,
    exterior_derivative,
    is_closed,
    restrict_form,
    solve_primitive,
    varsigma_schedule,
)
from .errors import (
    AssumptionGateError,
    ConfigError,
    InvalidIndex,
    NoConvergence,
    NotClosed,
    NotInKernel,
    ParacohError,
    ParamMismatch,
    SchemaError,
    SpectralGapError,
    TailNotConverged,
    ThetaNotVanishing,
)

__version__ = "0.1.0"

__all__ = [
    "IndexWindow",
    "Kind",
    "MultiParam",
    "SeriesParam",
    "default_window",
    "basis_norm_sq",
    "Sign",
    "dist_basis_value",
    "dist_order_sum",
    "phi",
    "phi_pairing_matrix",
    "phi_sobolev_sum",
    "TensorCoeffs",
    "apply_U_factor",
    "basis_vector",
    "inner_product",
    "kernel_project",
    "product_dist_evaluate",
    "restrict",
    "tensor_sobolev_norm",
    "valid_tags",
    "SolveOptions",
    "SolveReport",
    "obstruction_certificate",
    "regularity_check",
    "sigma_schedule",
    "solve_top",
    "split",
    "verify_solution",
    "LeafwiseForm",
    "exterior_derivative",
    "is_closed",
    "restrict_form",
    "solve_primitive",
    "varsigma_schedule",
    "AssumptionGateError",
    "ConfigError",
    "InvalidIndex",
    "NoConvergence",
    "NotClosed",
    "NotInKernel",
    "ParacohError",
    "ParamMismatch",
    "SchemaError",
    "SpectralGapError",
    "TailNotConverged",
    "ThetaNotVanishing",
]
