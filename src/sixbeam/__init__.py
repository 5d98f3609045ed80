"""Spectral solver built on the eigenfunctions of a sixth-order
Sturm-Liouville problem on [-1, 1] with free-edge boundary conditions.

Public surface:

- :mod:`sixbeam.eigenbasis` -- eigenvalues and eigenfunction evaluation.
- :mod:`sixbeam.coefficients` -- closed-form derivative-projection tables,
  forcing projections, and series synthesis.
- :mod:`sixbeam.oracle` -- adaptive-quadrature reference implementations used
  to cross-validate every closed form.
- :mod:`sixbeam.galerkin` -- steady BVP solves and semi-discrete time stepping.
- :mod:`sixbeam.cli` -- the ``sixbeam`` command-line tool.
"""

from .eigenbasis import (
    Basis,
    Eigenvalue,
    Parity,
    build_basis,
    characteristic_residual,
    eigenvalue_asymptotic,
    eval_psi,
    psi_block,
    solve_eigenvalue,
)
from .coefficients import (
    CHI_POWERS,
    CoefficientSet,
    OperatorMatrix,
    beta,
    chi,
    chi_vector,
    gamma,
    operator_matrix,
    project,
    superseded_variant_notes,
    synthesize,
)
from .oracle import (
    QuadratureRule,
    VerificationReport,
    adjointness_defect,
    gram_matrix,
    inner_product,
    integrate,
    make_rule,
    projection_l2_error,
    psi_reference,
    quadrature_tables,
    residual_scan,
    verify_formula,
)
from .galerkin import (
    MODEL_I,
    MODEL_II,
    BvpSpec,
    SemiDiscreteSystem,
    SteadySolution,
    Trajectory,
    assemble_semi_discrete,
    assemble_steady,
    evolve,
    forcing_projection,
    model_ii_semi_discrete,
    solve_steady,
)

__version__ = "0.1.0"

__all__ = [
    "Basis", "Eigenvalue", "Parity", "build_basis", "characteristic_residual",
    "eigenvalue_asymptotic", "eval_psi", "psi_block", "solve_eigenvalue",
    "CHI_POWERS", "CoefficientSet", "OperatorMatrix", "beta", "chi",
    "chi_vector", "gamma", "operator_matrix", "project",
    "superseded_variant_notes", "synthesize",
    "QuadratureRule", "VerificationReport", "adjointness_defect", "gram_matrix",
    "inner_product", "integrate", "make_rule", "projection_l2_error",
    "psi_reference", "quadrature_tables", "residual_scan", "verify_formula",
    "MODEL_I", "MODEL_II", "BvpSpec", "SemiDiscreteSystem", "SteadySolution",
    "Trajectory", "assemble_semi_discrete", "assemble_steady", "evolve",
    "forcing_projection", "model_ii_semi_discrete", "solve_steady",
    "__version__",
]
