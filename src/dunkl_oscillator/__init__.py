"""Numerics for the two-dimensional reflection-deformed isotropic oscillator.

The package provides the deformed differential operators, the exact polar
eigenbasis, the raising/lowering algebra of the radial problem, disk-labelled
coherent states with harmonic time evolution, and a registry of numerical
self-checks exposed both as a library and through the ``dunkl-osc`` CLI.
"""

from .basis import (
    MAX_STATES,
    AngularQuantum,
    RadialQuantum,
    StateLabel,
    angular_norm,
    angular_wavefunction,
    as_quantum_m,
    energy,
    enumerate_states,
    k_of,
    radial_sturmian,
    sector_start,
    separation_constant,
    state_count,
    substitute_u,
)
from .coherent import (
    CoherentParams,
    DisplacementNormalForm,
    EvolutionParams,
    auto_nterms,
    coherent_closed,
    coherent_evolved,
    coherent_series,
    evolve_parameter,
    normal_form,
    series_evolution_crosscheck,
    suggested_norm_quadrature,
)
from .dunkl_ops import (
    apply_angular_operator,
    apply_hamiltonian,
    apply_radial_hamiltonian,
    dunkl_derivative,
    reflect,
)
from .errors import DerivativeUnavailable, DomainError, RepresentationError, SingularityError
from .profiles import (
    DeformationParams,
    GaussLaguerreSum,
    PlaneFunction,
    Profile,
    TrigJacobiSum,
    angular_grid,
    derivative_of,
    residual_grid,
)
from .specfun import (
    QuadratureRule,
    angular_gram,
    angular_inner_product,
    default_rmax,
    gauss_legendre,
    jacobi,
    jacobi_derivative,
    laguerre,
    laguerre_all,
    laguerre_derivative,
    log_gamma,
    radial_gram,
    radial_inner_product,
)
from .su11 import (
    AlgebraState,
    FactorizationConstants,
    apply_A,
    apply_B0,
    apply_J,
    bargmann_index,
    casimir_check,
    commutator_residual,
    factorization_product_eigenvalue,
    factorization_residual,
    ladder_coefficients,
    schrodinger_factorize,
)
from .verify import CheckResult, SUITES, VerifyContext, available_checks, run_checks

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "DomainError",
    "SingularityError",
    "RepresentationError",
    "DerivativeUnavailable",
    # special functions and quadrature
    "QuadratureRule",
    "gauss_legendre",
    "laguerre",
    "laguerre_all",
    "laguerre_derivative",
    "jacobi",
    "jacobi_derivative",
    "log_gamma",
    "radial_inner_product",
    "angular_inner_product",
    "radial_gram",
    "angular_gram",
    "default_rmax",
    # profiles
    "DeformationParams",
    "Profile",
    "GaussLaguerreSum",
    "TrigJacobiSum",
    "PlaneFunction",
    "derivative_of",
    "residual_grid",
    "angular_grid",
    # operators
    "reflect",
    "dunkl_derivative",
    "apply_hamiltonian",
    "apply_radial_hamiltonian",
    "apply_angular_operator",
    # eigenbasis
    "AngularQuantum",
    "RadialQuantum",
    "StateLabel",
    "as_quantum_m",
    "sector_start",
    "separation_constant",
    "angular_norm",
    "angular_wavefunction",
    "energy",
    "k_of",
    "radial_sturmian",
    "substitute_u",
    "MAX_STATES",
    "state_count",
    "enumerate_states",
    # raising/lowering structure
    "AlgebraState",
    "FactorizationConstants",
    "ladder_coefficients",
    "apply_A",
    "apply_B0",
    "apply_J",
    "schrodinger_factorize",
    "factorization_product_eigenvalue",
    "factorization_residual",
    "casimir_check",
    "commutator_residual",
    "bargmann_index",
    # coherent states
    "CoherentParams",
    "DisplacementNormalForm",
    "EvolutionParams",
    "auto_nterms",
    "coherent_series",
    "coherent_closed",
    "normal_form",
    "evolve_parameter",
    "coherent_evolved",
    "series_evolution_crosscheck",
    "suggested_norm_quadrature",
    # verification
    "CheckResult",
    "VerifyContext",
    "SUITES",
    "available_checks",
    "run_checks",
]
