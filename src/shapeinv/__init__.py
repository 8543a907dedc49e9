"""Numerical verification of rationally extended shape-invariant superpotentials.

The package evaluates superpotential families W = W0 + W1+ - W1- built from
Jacobi/Laguerre gauge denominators, checks the translation relation, the
compatibility condition (m-independence), the factorization constants and the
potential-algebra closure condition on grids, replays the reduction that
proves those conditions equivalent (the steps a family can fail), judges every
check against its tolerance from conditions.check_tolerances, and
cross-validates shape invariance with a finite-difference eigensolver.
"""

from .catalog import (
    FAMILY_TAGS,
    REAL_TAGS,
    ValidityReport,
    get_family,
    sample_valid_params,
    validity_witness,
)
from .conditions import (
    AlgebraConstants,
    ResidualReport,
    check_algebra_condition,
    check_compatibility,
    check_equivalence_chain,
    check_infeld_hull,
    check_translation,
    compatibility_lhs,
    run_condition_checks,
)
from .errors import (
    DomainError,
    InvalidParameterError,
    ParamSchemaError,
    SamplingError,
    ShapeInvError,
    UnsupportedError,
    UsageError,
)
from .polynomials import (
    DEGREE_CAP,
    JACOBI,
    LAGUERRE,
    PolySpec,
    poly_deriv,
    poly_eval,
    real_roots_in,
)
from .spectral import (
    IsospectralResult,
    PotentialGrid,
    SpectrumResult,
    check_isospectrality,
    dirichlet_grid,
    partner_potentials,
    remainder,
    solve_spectrum,
)
from .superpotential import (
    PERTURBATION_MODES,
    ParamPoint,
    SuperpotentialFamily,
    Verdict,
    make_grid,
    with_perturbation,
)

__version__ = "0.1.0"
