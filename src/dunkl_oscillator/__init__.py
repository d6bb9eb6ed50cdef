"""Numerics for the two-dimensional reflection-deformed isotropic oscillator.

The package provides the deformed differential operators, the exact polar
eigenbasis, the raising/lowering algebra of the radial problem, disk-labelled
coherent states with harmonic time evolution, and a registry of numerical
self-checks exposed both as a library and through the ``dunkl-osc`` CLI.

The namespace is the union of the layer modules' ``__all__`` lists; the CLI
entry point stays in ``dunkl_oscillator.cli``.
"""

from . import basis, coherent, dunkl_ops, errors, profiles, specfun, su11, verify
from .basis import *  # noqa: F401,F403
from .coherent import *  # noqa: F401,F403
from .dunkl_ops import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .profiles import *  # noqa: F401,F403
from .specfun import *  # noqa: F401,F403
from .su11 import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"]
for _layer in (errors, specfun, profiles, dunkl_ops, basis, su11, coherent, verify):
    __all__ += _layer.__all__
del _layer
