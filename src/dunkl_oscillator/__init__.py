"""Numerics for the two-dimensional reflection-deformed isotropic oscillator.

The package provides the deformed differential operators, the exact polar
eigenbasis, the raising/lowering algebra of the radial problem, disk-labelled
coherent states with harmonic time evolution, and a registry of numerical
self-checks exposed both as a library and through the ``dunkl-osc`` CLI.

The namespace is the union of the layer modules' ``__all__`` lists, listed
here so that ``import dunkl_oscillator`` imports no layer: each name and
submodule is imported on first access (PEP 562) and is looked up in its layer
on every access, never copied into this module.  The CLI's ``main`` stays in
``dunkl_oscillator.entry``, and is re-exported by ``dunkl_oscillator.cli``.
"""

import importlib

__version__ = "0.1.0"

# Each layer's ``__all__``, in the layer's own order.
_EXPORTS = {
    "errors": ("DomainError", "SingularityError", "RepresentationError", "DerivativeUnavailable"),
    "specfun": ("DeformationParams", "laguerre", "laguerre_all", "jacobi", "log_gamma", "radial_inner_product",
                "radial_gram", "angular_gram"),
    "profiles": ("Profile", "GaussLaguerreSum", "TrigJacobiSum", "PlaneFunction", "derivative_of", "residual_grid",
                 "angular_grid"),
    "dunkl_ops": ("reflect", "dunkl_derivative", "apply_hamiltonian", "apply_radial_hamiltonian",
                  "apply_angular_operator"),
    "basis": ("AngularQuantum", "RadialQuantum", "StateLabel", "as_quantum_m", "sector_start", "separation_constant",
              "angular_norm", "angular_wavefunction", "energy", "k_of", "radial_sturmian", "substitute_u",
              "MAX_STATES", "enumerate_states"),
    "su11": ("ladder_coefficients", "apply_A", "apply_B0", "apply_J", "schrodinger_factorize",
             "factorization_product_eigenvalue", "factorization_residual", "casimir_check", "commutator_residual",
             "bargmann_index"),
    "coherent": ("CoherentParams", "EvolutionParams", "auto_nterms", "coherent_series", "coherent_closed",
                 "normal_form", "evolve_parameter", "coherent_evolved", "series_evolution_crosscheck",
                 "suggested_norm_quadrature"),
    "verify": ("CheckResult", "SUITES", "available_checks", "run_checks"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "domain", "entry", "cli")

__all__ = ["__version__", *_LAYER_OF]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAYER_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
