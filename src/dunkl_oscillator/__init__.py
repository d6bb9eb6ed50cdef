"""Numerics for the two-dimensional reflection-deformed isotropic oscillator.

The package provides the deformed differential operators, the exact polar
eigenbasis, the raising/lowering algebra of the radial problem, disk-labelled
coherent states with harmonic time evolution, and a registry of numerical
self-checks exposed both as a library and through the ``dunkl-osc`` CLI.

The namespace is ``__version__`` plus the layers' ``__all__`` lists, which
hold each public name once.  ``import dunkl_oscillator`` imports no layer: a
name is looked up on every access (PEP 562), never copied here, in the first
layer of ``_LAYERS`` whose ``__all__`` holds it, importing the layers in that
order, the numpy-free ``errors`` and ``basis`` first, so ``DeformationParams``,
``log_gamma``, ``SUITES`` and the labels resolve without numpy.  Building
``__all__`` or ``dir()`` imports every layer.  The CLI's ``main`` is
``entry.main``.
"""

import importlib

__version__ = "0.1.0"

_LAYERS = ("errors", "basis", "specfun", "profiles", "dunkl_ops", "su11", "coherent", "verify")
_SUBMODULES = (*_LAYERS, "entry", "cli")


def _layer_modules():
    return (importlib.import_module(f"{__name__}.{layer}") for layer in _LAYERS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        return ["__version__", *(public for module in _layer_modules() for public in module.__all__)]
    # Every public name but __version__ is a layer's and starts with a letter;
    # a probe such as __wrapped__ is refused without importing a layer.
    if not name.startswith("_"):
        for module in _layer_modules():
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__"), *_SUBMODULES})
