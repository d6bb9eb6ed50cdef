"""The input rules that need no numpy: deformation parameters, log-gamma and the suite names.

``basis`` builds every quantum label from these, and the command line parses
and checks its options with them, so ``spectrum`` and ``--help`` start
without numpy.  The names are exported by the layers that use them:
``DeformationParams`` and ``log_gamma`` by ``specfun``, ``SUITES`` by
``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

# The self-check suites of ``verify.run_checks``, in report order.
SUITES = ("angular", "radial", "algebra", "coherent")


@dataclass(frozen=True)
class DeformationParams:
    """Reflection coupling constants, each required to be finite and exceed -1/2."""

    mu1: float
    mu2: float

    def __post_init__(self):
        for name, value in (("mu1", self.mu1), ("mu2", self.mu2)):
            if not (value > -0.5 and math.isfinite(value)):
                raise DomainError(f"{name} must be finite and exceed -1/2, got {value}")

    @classmethod
    def of(cls, mu) -> "DeformationParams":
        """mu itself if it is a ``DeformationParams``, else the checked pair (mu1, mu2)."""
        return mu if isinstance(mu, cls) else cls(*mu)

    @property
    def total(self) -> float:
        return self.mu1 + self.mu2


def log_gamma(x: float) -> float:
    """ln Gamma(x) for finite x > 0 up to about 2.56e305, past which ln Gamma(x) overflows a float."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"log_gamma requires a finite x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise DomainError(f"log_gamma overflows a float at x = {x}") from None
