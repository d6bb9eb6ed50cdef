"""Function containers that carry exact derivatives through operator algebra.

Radial eigenfunctions, their images under the ladder operators, and the random
test profiles all live in the family

    sum_i  c_i * r^(p_i) * L_{n_i}^{a_i}(r^2) * exp(-r^2/2),

which is closed under d/dr and under multiplication by any real power of r, so
every differential operator in this package can act on such a sum exactly, to
arbitrary derivative order.  ``GaussLaguerreSum`` implements that term algebra.
The angular analogue ``TrigJacobiSum`` uses terms

    c * cos^a(phi) * sin^b(phi) * P_j^(al,be)(cos 2 phi),

also closed under d/dphi.  Plain callables can be wrapped too; compositions then
fall back to five-point central differences when no exact derivative is attached.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DerivativeUnavailable, DomainError, SingularityError
from .specfun import jacobi, laguerre

__all__ = [
    "DeformationParams",
    "RadialProfile",
    "GaussLaguerreSum",
    "AngularProfile",
    "TrigJacobiSum",
    "PlaneFunction",
    "derivative_of",
    "angular_derivative_of",
    "residual_grid",
    "angular_grid",
]


@dataclass(frozen=True)
class DeformationParams:
    """Reflection coupling constants, each required to be finite and exceed -1/2."""

    mu1: float
    mu2: float

    def __post_init__(self):
        for name, value in (("mu1", self.mu1), ("mu2", self.mu2)):
            if not (value > -0.5 and math.isfinite(value)):
                raise DomainError(f"{name} must be finite and exceed -1/2, got {value}")

    @property
    def total(self) -> float:
        return self.mu1 + self.mu2


def _rpow(r: np.ndarray, s: float) -> np.ndarray:
    if s < 0 and np.any(r == 0.0):
        raise SingularityError("evaluation at r = 0 hits a negative power of r")
    return r**s


class RadialProfile:
    """A function of r >= 0, optionally knowing its own exact derivative.

    ``derivative`` may be another profile, or a zero-argument factory producing
    one lazily (the factory result is cached).  Sums, scalar multiples, and
    r-power multiples propagate derivatives whenever both operands have them.
    """

    def __init__(self, fn: Callable, derivative=None):
        self._fn = fn
        self._derivative = derivative

    def __call__(self, r):
        return self._fn(r)

    @property
    def has_derivative(self) -> bool:
        return self._derivative is not None

    def derivative(self) -> "RadialProfile":
        if self._derivative is None:
            raise DerivativeUnavailable("no exact derivative attached to this profile")
        if not isinstance(self._derivative, RadialProfile):
            self._derivative = self._derivative()
        return self._derivative

    def __add__(self, other):
        if not isinstance(other, RadialProfile):
            return NotImplemented
        if isinstance(self, GaussLaguerreSum) and isinstance(other, GaussLaguerreSum):
            return GaussLaguerreSum(self.terms + other.terms)
        factory = None
        if self.has_derivative and other.has_derivative:
            factory = lambda a=self, b=other: a.derivative() + b.derivative()
        return RadialProfile(lambda r, a=self, b=other: a(r) + b(r), factory)

    def __sub__(self, other):
        if not isinstance(other, RadialProfile):
            return NotImplemented
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, c):
        if not isinstance(c, numbers.Number):
            return NotImplemented
        factory = None
        if self.has_derivative:
            factory = lambda a=self: c * a.derivative()
        return RadialProfile(lambda r, a=self: c * a(r), factory)

    __rmul__ = __mul__

    def times_rpower(self, s: float) -> "RadialProfile":
        """The profile r -> r^s * f(r)."""
        if s == 0:
            return self
        factory = None
        if self.has_derivative:

            def factory(a=self, s=s):
                d = a.derivative().times_rpower(s)
                return d + s * a.times_rpower(s - 1)

        return RadialProfile(lambda r, a=self: _rpow(np.asarray(r, dtype=float), s) * a(r), factory)


class _GLTerm(NamedTuple):
    coeff: complex
    power: float
    degree: int
    alpha: float


def _merge_gl(terms) -> tuple[_GLTerm, ...]:
    acc: dict[tuple, complex] = {}
    for t in terms:
        key = (t.power, t.degree, t.alpha)
        acc[key] = acc.get(key, 0.0) + t.coeff
    return tuple(
        _GLTerm(c, p, n, a) for (p, n, a), c in acc.items() if c != 0
    )


class GaussLaguerreSum(RadialProfile):
    """Exact-arithmetic radial profile: sum of c * r^p * L_n^a(r^2) * e^(-r^2/2)."""

    def __init__(self, terms):
        self.terms = _merge_gl(terms)
        self._dcache: GaussLaguerreSum | None = None
        super().__init__(self._evaluate, None)

    @classmethod
    def single(cls, coeff, power, degree, alpha) -> "GaussLaguerreSum":
        return cls((_GLTerm(coeff, float(power), int(degree), float(alpha)),))

    @classmethod
    def gaussian_polynomial(cls, coeffs) -> "GaussLaguerreSum":
        """e^(-r^2/2) * sum_j coeffs[j] * r^j, an exactly differentiable test profile."""
        return cls(tuple(_GLTerm(c, float(j), 0, 0.0) for j, c in enumerate(coeffs)))

    def _evaluate(self, r):
        arr = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(arr == 0.0) and any(t.power < 0 for t in self.terms):
            raise SingularityError("evaluation at r = 0 hits a negative power of r")
        x = arr * arr
        total = np.zeros_like(arr)
        for t in self.terms:
            total = total + t.coeff * arr**t.power * laguerre(t.degree, t.alpha, x)
        total = total * np.exp(-0.5 * x)
        return total[0] if np.ndim(r) == 0 else total

    @property
    def has_derivative(self) -> bool:
        return True

    def derivative(self) -> "GaussLaguerreSum":
        if self._dcache is None:
            out = []
            for t in self.terms:
                if t.power != 0:
                    out.append(_GLTerm(t.coeff * t.power, t.power - 1, t.degree, t.alpha))
                out.append(_GLTerm(-t.coeff, t.power + 1, t.degree, t.alpha))
                if t.degree >= 1:
                    out.append(_GLTerm(-2.0 * t.coeff, t.power + 1, t.degree - 1, t.alpha + 1))
            self._dcache = GaussLaguerreSum(out)
        return self._dcache

    def __mul__(self, c):
        if not isinstance(c, numbers.Number):
            return NotImplemented
        return GaussLaguerreSum(tuple(_GLTerm(c * t.coeff, t.power, t.degree, t.alpha) for t in self.terms))

    __rmul__ = __mul__

    def times_rpower(self, s: float) -> "GaussLaguerreSum":
        if s == 0:
            return self
        return GaussLaguerreSum(tuple(_GLTerm(t.coeff, t.power + s, t.degree, t.alpha) for t in self.terms))


class _StencilDerivative(RadialProfile):
    """Five-point central-difference derivative of a plain-callable profile."""

    _H1 = 1e-5
    _H2 = 2e-3

    def __init__(self, base: RadialProfile, order: int):
        self._base = base
        self._order = order
        super().__init__(self._evaluate, None)

    def _evaluate(self, r):
        arr = np.asarray(r, dtype=float)
        f = self._base
        if self._order == 1:
            h = self._H1 * np.maximum(1.0, np.abs(arr))
            return (f(arr - 2 * h) - 8 * f(arr - h) + 8 * f(arr + h) - f(arr + 2 * h)) / (12 * h)
        h = self._H2 * np.maximum(1.0, np.abs(arr))
        return (
            -f(arr - 2 * h) + 16 * f(arr - h) - 30 * f(arr) + 16 * f(arr + h) - f(arr + 2 * h)
        ) / (12 * h * h)

    @property
    def has_derivative(self) -> bool:
        return self._order < 2

    def derivative(self) -> RadialProfile:
        if self._order >= 2:
            raise DerivativeUnavailable("finite differences are limited to second derivatives")
        return _StencilDerivative(self._base, self._order + 1)


def derivative_of(profile: RadialProfile, order: int = 1) -> RadialProfile:
    """Exact derivative chain when available, finite differences otherwise."""
    current = profile
    for step in range(order):
        if current.has_derivative:
            current = current.derivative()
        else:
            remaining = order - step
            if remaining > 2:
                raise DerivativeUnavailable(
                    f"cannot reach derivative order {order} by finite differences"
                )
            return _StencilDerivative(current, remaining)
    return current


class AngularProfile:
    """A function of the polar angle with an optional exact derivative chain."""

    def __init__(self, fn: Callable, derivative=None):
        self._fn = fn
        self._derivative = derivative

    def __call__(self, phi):
        return self._fn(phi)

    @property
    def has_derivative(self) -> bool:
        return self._derivative is not None

    def derivative(self) -> "AngularProfile":
        if self._derivative is None:
            raise DerivativeUnavailable("no exact derivative attached to this profile")
        if not isinstance(self._derivative, AngularProfile):
            self._derivative = self._derivative()
        return self._derivative


class _TrigTerm(NamedTuple):
    coeff: float
    cos_power: int
    sin_power: int
    degree: int
    alpha: float
    beta: float


class TrigJacobiSum(AngularProfile):
    """Exact-arithmetic angular profile: sum of c * cos^a * sin^b * P_j^(al,be)(cos 2 phi)."""

    def __init__(self, terms):
        acc: dict[tuple, float] = {}
        for t in terms:
            key = (t.cos_power, t.sin_power, t.degree, t.alpha, t.beta)
            acc[key] = acc.get(key, 0.0) + t.coeff
        self.terms = tuple(
            _TrigTerm(c, a, b, j, al, be) for (a, b, j, al, be), c in acc.items() if c != 0
        )
        self._dcache: TrigJacobiSum | None = None
        super().__init__(self._evaluate, None)

    @classmethod
    def single(cls, coeff, cos_power, sin_power, degree, alpha, beta) -> "TrigJacobiSum":
        return cls((_TrigTerm(float(coeff), int(cos_power), int(sin_power), int(degree), float(alpha), float(beta)),))

    def _evaluate(self, phi):
        arr = np.atleast_1d(np.asarray(phi, dtype=float))
        c, s = np.cos(arr), np.sin(arr)
        x = c * c - s * s
        total = np.zeros_like(arr)
        for t in self.terms:
            total = total + t.coeff * c**t.cos_power * s**t.sin_power * jacobi(t.degree, t.alpha, t.beta, x)
        return total[0] if np.ndim(phi) == 0 else total

    @property
    def has_derivative(self) -> bool:
        return True

    def derivative(self) -> "TrigJacobiSum":
        if self._dcache is None:
            out = []
            for t in self.terms:
                if t.cos_power >= 1:
                    out.append(
                        _TrigTerm(-t.coeff * t.cos_power, t.cos_power - 1, t.sin_power + 1, t.degree, t.alpha, t.beta)
                    )
                if t.sin_power >= 1:
                    out.append(
                        _TrigTerm(t.coeff * t.sin_power, t.cos_power + 1, t.sin_power - 1, t.degree, t.alpha, t.beta)
                    )
                if t.degree >= 1:
                    out.append(
                        _TrigTerm(
                            -2.0 * t.coeff * (t.degree + t.alpha + t.beta + 1.0),
                            t.cos_power + 1,
                            t.sin_power + 1,
                            t.degree - 1,
                            t.alpha + 1.0,
                            t.beta + 1.0,
                        )
                    )
            self._dcache = TrigJacobiSum(out)
        return self._dcache


def angular_derivative_of(profile: AngularProfile, order: int = 1) -> Callable:
    """Callable for the order-th phi-derivative, exact when attached, stencils otherwise."""
    current = profile
    depth = 0
    while depth < order and current.has_derivative:
        current = current.derivative()
        depth += 1
    remaining = order - depth
    if remaining == 0:
        return current
    if remaining == 1:
        h = 1e-5
        return lambda p, f=current: (f(p - 2 * h) - 8 * f(p - h) + 8 * f(p + h) - f(p + 2 * h)) / (12 * h)
    if remaining == 2:
        h = 2e-3
        return lambda p, f=current: (
            -f(p - 2 * h) + 16 * f(p - h) - 30 * f(p) + 16 * f(p + h) - f(p + 2 * h)
        ) / (12 * h * h)
    raise DerivativeUnavailable(f"cannot reach derivative order {order} by finite differences")


@dataclass(frozen=True)
class PlaneFunction:
    """A function on the plane with optional exact partials and parity labels.

    ``parity`` is (s1, s2) with s1 the eigenvalue under x -> -x and s2 under
    y -> -y, when the function is a parity eigenstate; it licenses evaluation
    of reflection-difference quotients on the coordinate axes.
    """

    fn: Callable
    dx: Callable | None = None
    dy: Callable | None = None
    dxx: Callable | None = None
    dyy: Callable | None = None
    parity: tuple[int, int] | None = None

    def __call__(self, x, y):
        return self.fn(x, y)


def residual_grid(n: int = 50, lo: float = 0.05, hi: float = 10.0) -> np.ndarray:
    """Chebyshev-spaced evaluation points for pointwise operator residuals."""
    theta = np.pi * (2 * np.arange(n) + 1) / (2 * n)
    return np.sort(0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta))


def angular_grid(n: int = 64) -> np.ndarray:
    """Points covering [0, 2 pi) while avoiding the axes phi = k pi/2."""
    return (np.arange(n) + 0.37) * (2.0 * np.pi / n)
