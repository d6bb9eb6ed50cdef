"""The package namespace re-exports exactly the public names of its layer modules."""

import importlib

import dunkl_oscillator

LAYERS = ("errors", "specfun", "profiles", "dunkl_ops", "basis", "su11", "coherent", "verify")


def test_every_exported_name_resolves():
    for name in dunkl_oscillator.__all__:
        assert hasattr(dunkl_oscillator, name), name
    assert len(dunkl_oscillator.__all__) == len(set(dunkl_oscillator.__all__))


def test_exports_are_the_union_of_layer_exports():
    # The cli module's entry point stays in dunkl_oscillator.cli; argparse holds its defaults.
    layer_names = set()
    for layer in LAYERS:
        layer_names |= set(importlib.import_module(f"dunkl_oscillator.{layer}").__all__)
    cli = importlib.import_module("dunkl_oscillator.cli")
    assert cli.__all__ == ["main"]
    assert not hasattr(cli, "RunConfig")
    assert set(dunkl_oscillator.__all__) == layer_names | {"__version__"}


def test_removed_profile_names_are_absent():
    profiles = importlib.import_module("dunkl_oscillator.profiles")
    for name in ("RadialProfile", "AngularProfile", "angular_derivative_of"):
        assert name not in dunkl_oscillator.__all__
        assert not hasattr(dunkl_oscillator, name)
        assert not hasattr(profiles, name)
