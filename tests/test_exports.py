"""The package namespace re-exports exactly the public names of its layer modules."""

import importlib

import dunkl_oscillator

LAYERS = ("errors", "specfun", "profiles", "dunkl_ops", "basis", "su11", "coherent", "verify")


def test_every_exported_name_resolves():
    for name in dunkl_oscillator.__all__:
        assert hasattr(dunkl_oscillator, name), name
    # __all__ joins the layers' lists, so a name in two of them would appear twice.
    assert len(dunkl_oscillator.__all__) == len(set(dunkl_oscillator.__all__))
    # The namespace looks each name up in its layer, so the two never differ.
    for layer in LAYERS:
        module = importlib.import_module(f"dunkl_oscillator.{layer}")
        for name in module.__all__:
            assert getattr(dunkl_oscillator, name) is getattr(module, name), name


def test_each_layer_exports_only_what_it_defines():
    # A name imported from another layer, as specfun imports DeformationParams
    # from basis, is used there but exported by its own layer alone.
    for layer in LAYERS:
        module = importlib.import_module(f"dunkl_oscillator.{layer}")
        for name in module.__all__:
            assert getattr(getattr(module, name), "__module__", module.__name__) == module.__name__, (layer, name)


def test_exports_are_the_union_of_layer_exports():
    # The cli module's entry point stays in dunkl_oscillator.cli; argparse holds its defaults.
    layer_names = set()
    for layer in LAYERS:
        layer_names |= set(importlib.import_module(f"dunkl_oscillator.{layer}").__all__)
    cli = importlib.import_module("dunkl_oscillator.cli")
    assert cli.__all__ == ["main"]
    assert not hasattr(cli, "RunConfig")
    assert set(dunkl_oscillator.__all__) == layer_names | {"__version__"}


# Names that left the public surface: (layer, name, whether the layer still defines it privately).
_REMOVED = [
    ("profiles", "RadialProfile", False),
    ("profiles", "AngularProfile", False),
    ("profiles", "angular_derivative_of", False),
    ("specfun", "laguerre_derivative", False),
    ("specfun", "jacobi_derivative", False),
    ("specfun", "default_rmax", False),
    ("specfun", "angular_inner_product", False),
    ("specfun", "QuadratureRule", False),
    ("specfun", "gauss_legendre", False),
    ("basis", "state_count", False),
    ("coherent", "DisplacementNormalForm", True),
    ("su11", "FactorizationConstants", True),
    ("su11", "AlgebraState", False),
    ("verify", "VerifyContext", True),
    ("basis", "as_quantum_m", False),
    ("basis", "separation_constant", False),
    ("verify", "available_checks", False),
    ("profiles", "residual_grid", False),
    ("profiles", "angular_grid", False),
    ("coherent", "suggested_norm_quadrature", False),
    ("coherent", "series_evolution_crosscheck", False),
    ("su11", "commutator_residual", False),
    ("su11", "casimir_check", False),
    ("su11", "factorization_residual", False),
]


def test_removed_profile_names_are_absent():
    for layer, name, kept in _REMOVED:
        module = importlib.import_module(f"dunkl_oscillator.{layer}")
        assert name not in dunkl_oscillator.__all__, name
        assert not hasattr(dunkl_oscillator, name), name
        assert name not in module.__all__, name
        assert hasattr(module, name) == kept, name


# The whole public surface, sorted: adding or removing a name is an edit here.
_PUBLIC = (
    "AngularQuantum", "CheckResult", "CoherentParams", "DeformationParams", "DerivativeUnavailable",
    "DomainError", "EvolutionParams", "GaussLaguerreSum", "MAX_STATES", "PlaneFunction", "Profile",
    "RadialQuantum", "RepresentationError", "SUITES", "SingularityError", "StateLabel", "TrigJacobiSum",
    "__version__", "angular_gram", "angular_norm", "angular_wavefunction", "apply_A", "apply_B0", "apply_J",
    "apply_angular_operator", "apply_hamiltonian", "apply_radial_hamiltonian", "auto_nterms",
    "bargmann_index", "coherent_closed", "coherent_evolved", "coherent_series", "derivative_of",
    "dunkl_derivative", "energy", "enumerate_states", "evolve_parameter", "factorization_product_eigenvalue",
    "jacobi", "k_of",
    "ladder_coefficients", "laguerre", "laguerre_all", "log_gamma", "normal_form", "radial_gram",
    "radial_inner_product", "radial_sturmian", "reflect", "run_checks", "schrodinger_factorize",
    "sector_start", "substitute_u",
)


def test_the_public_names_are_pinned():
    assert _PUBLIC == tuple(sorted(_PUBLIC)) and len(_PUBLIC) == 53
    assert tuple(sorted(dunkl_oscillator.__all__)) == _PUBLIC
