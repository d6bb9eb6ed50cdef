"""Function containers that carry exact derivatives through operator algebra.

A ``Profile`` is a function of one variable, r or phi, with an optional exact
derivative.  Radial eigenfunctions, their images under the ladder operators,
and the random test profiles all live in the family

    sum_i  c_i * r^(p_i) * L_{n_i}^{a_i}(r^2) * exp(-r^2/2),

which is closed under d/dr and under multiplication by any real power of r, so
every differential operator in this package can act on such a sum exactly, to
arbitrary derivative order (H_r, A0 = H_r/2 and the flat-picture B0 are one
such operator, ``dunkl_ops._radial_operator``, with three coefficient sets).
``GaussLaguerreSum`` implements that term algebra; the angular analogue
``TrigJacobiSum`` uses terms

    c * cos^i(phi) * sin^j(phi) * P_d^(al,be)(cos 2 phi),

also closed under d/dphi.  Both keep ``terms`` as a dict {key: coeff}, keyed
(p, n, a) and (i, j, d, al, be).  Plain callables can be wrapped too;
``derivative_of`` then falls back to the five-point stencil ``_five_point``
when no exact derivative is attached.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DerivativeUnavailable, DomainError, SingularityError
from .specfun import jacobi, laguerre

__all__ = [
    "DeformationParams",
    "Profile",
    "GaussLaguerreSum",
    "TrigJacobiSum",
    "PlaneFunction",
    "derivative_of",
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


def _check_l2(l2: float, mu: DeformationParams) -> None:
    """Refuse an angular eigenvalue without a real Bargmann index: l2 + (mu1+mu2)^2 < 0 or nan.

    A genuine sector has l2 = 4m(m+mu1+mu2), so l2 + (mu1+mu2)^2 = (2m+mu1+mu2)^2;
    l2 itself is negative in the (+-,-+) m = 1/2 sectors once mu1+mu2 < -1/2.
    """
    if not (math.isfinite(l2) and l2 + mu.total * mu.total >= 0.0):
        raise DomainError(
            f"angular eigenvalue l2 = {l2} has no real Bargmann index at mu1+mu2 = {mu.total}: "
            "l2 + (mu1+mu2)^2 must be non-negative"
        )


def _rpow(r: np.ndarray, s: float) -> np.ndarray:
    if s < 0 and np.any(r == 0.0):
        raise SingularityError("evaluation at r = 0 hits a negative power of r")
    return r**s


class Profile:
    """A function of one variable (r or phi), optionally knowing its own exact derivative.

    ``derivative`` may be another profile, or a zero-argument factory producing
    one lazily (the factory result is cached).  Sums, scalar multiples, and
    power multiples propagate derivatives whenever both operands have them.
    """

    def __init__(self, fn: Callable, derivative=None):
        self._fn = fn
        self._derivative = derivative

    def __call__(self, t):
        return self._fn(t)

    @property
    def has_derivative(self) -> bool:
        return self._derivative is not None

    def derivative(self) -> "Profile":
        if self._derivative is None:
            raise DerivativeUnavailable("no exact derivative attached to this profile")
        if not isinstance(self._derivative, Profile):
            self._derivative = self._derivative()
        return self._derivative

    def __add__(self, other):
        if not isinstance(other, Profile):
            return NotImplemented
        factory = None
        if self.has_derivative and other.has_derivative:
            factory = lambda a=self, b=other: a.derivative() + b.derivative()
        return _kind(self, other)(lambda t, a=self, b=other: a(t) + b(t), factory)

    def __sub__(self, other):
        if not isinstance(other, Profile):
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
        return _kind(self)(lambda t, a=self: c * a(t), factory)

    __rmul__ = __mul__

    def times_rpower(self, s: float) -> "Profile":
        """The profile t -> t^s * f(t)."""
        if s == 0:
            return self
        factory = None
        if self.has_derivative:

            def factory(a=self, s=s):
                d = a.derivative().times_rpower(s)
                return d + s * a.times_rpower(s - 1)

        return _kind(self)(lambda t, a=self: _rpow(np.asarray(t, dtype=float), s) * a(t), factory)


class _TermSum(Profile):
    """Exact term sum with ``terms`` = {key: coeff}; a subclass supplies ``_evaluate`` and ``_derive``.

    Coefficients of equal keys add in the order they arrive and zero sums are dropped.
    """

    def __init__(self, pairs):
        acc: dict[tuple, complex] = {}
        for key, coeff in pairs:
            acc[key] = acc.get(key, 0.0) + coeff
        self.terms = {key: c for key, c in acc.items() if c != 0}
        super().__init__(self._evaluate, self._derive)

    def __add__(self, other):
        if type(other) is type(self):
            return type(self)((*self.terms.items(), *other.terms.items()))
        return super().__add__(other)

    def __mul__(self, c):
        if not isinstance(c, numbers.Number):
            return NotImplemented
        return type(self)((key, c * coeff) for key, coeff in self.terms.items())

    __rmul__ = __mul__


class GaussLaguerreSum(_TermSum):
    """Exact-arithmetic radial profile: sum of c * r^p * L_n^a(r^2) * e^(-r^2/2), keyed (p, n, a)."""

    @classmethod
    def single(cls, coeff, power, degree, alpha) -> "GaussLaguerreSum":
        return cls((((float(power), int(degree), float(alpha)), coeff),))

    @classmethod
    def gaussian_polynomial(cls, coeffs) -> "GaussLaguerreSum":
        """e^(-r^2/2) * sum_j coeffs[j] * r^j, an exactly differentiable test profile."""
        return cls(((float(j), 0, 0.0), c) for j, c in enumerate(coeffs))

    def _evaluate(self, r):
        arr = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(arr == 0.0) and any(p < 0 for p, _, _ in self.terms):
            raise SingularityError("evaluation at r = 0 hits a negative power of r")
        x = arr * arr
        total = np.zeros_like(arr)
        for (p, n, a), c in self.terms.items():
            total = total + c * arr**p * laguerre(n, a, x)
        total = total * np.exp(-0.5 * x)
        return total[0] if np.ndim(r) == 0 else total

    def _derive(self) -> "GaussLaguerreSum":
        out = []
        for (p, n, a), c in self.terms.items():
            if p != 0:
                out.append(((p - 1, n, a), c * p))
            out.append(((p + 1, n, a), -c))
            if n >= 1:
                out.append(((p + 1, n - 1, a + 1), -2.0 * c))
        return GaussLaguerreSum(out)

    def times_rpower(self, s: float) -> "GaussLaguerreSum":
        if s == 0:
            return self
        return GaussLaguerreSum(((p + s, n, a), c) for (p, n, a), c in self.terms.items())


class TrigJacobiSum(_TermSum):
    """Exact-arithmetic angular profile: sum of c * cos^i * sin^j * P_d^(al,be)(cos 2 phi), keyed (i, j, d, al, be)."""

    @classmethod
    def single(cls, coeff, cos_power, sin_power, degree, alpha, beta) -> "TrigJacobiSum":
        key = (int(cos_power), int(sin_power), int(degree), float(alpha), float(beta))
        return cls(((key, float(coeff)),))

    def _evaluate(self, phi):
        arr = np.atleast_1d(np.asarray(phi, dtype=float))
        cos, sin = np.cos(arr), np.sin(arr)
        x = cos * cos - sin * sin
        total = np.zeros_like(arr)
        for (i, j, d, al, be), c in self.terms.items():
            total = total + c * cos**i * sin**j * jacobi(d, al, be, x)
        return total[0] if np.ndim(phi) == 0 else total

    def _derive(self) -> "TrigJacobiSum":
        out = []
        for (i, j, d, al, be), c in self.terms.items():
            if i >= 1:
                out.append(((i - 1, j + 1, d, al, be), -c * i))
            if j >= 1:
                out.append(((i + 1, j - 1, d, al, be), c * j))
            if d >= 1:
                out.append(((i + 1, j + 1, d - 1, al + 1.0, be + 1.0), -2.0 * c * (d + al + be + 1.0)))
        return TrigJacobiSum(out)


def _five_point(f: Callable, t, order: int):
    """Five-point central difference of f at t, for order 1 or 2.

    The step is 1e-5 * max(1, |t|) for order 1 and 2e-3 * max(1, |t|) for
    order 2; f is sampled at t + s*h for s = -2, -1, (0,) 1, 2 in that order.
    """
    t = np.asarray(t, dtype=float)
    if order == 1:
        h = 1e-5 * np.maximum(1.0, np.abs(t))
        f2, f1, g1, g2 = (f(t + s * h) for s in (-2, -1, 1, 2))
        return (f2 - 8 * f1 + 8 * g1 - g2) / (12 * h)
    h = 2e-3 * np.maximum(1.0, np.abs(t))
    f2, f1, f0, g1, g2 = (f(t + s * h) for s in (-2, -1, 0, 1, 2))
    return (-f2 + 16 * f1 - 30 * f0 + 16 * g1 - g2) / (12 * h * h)


class _Stencil(Profile):
    """A ``_five_point`` derivative; ``derivative_of`` does not difference it again."""


def _kind(*operands: Profile) -> type:
    """``_Stencil`` for a result built from any stencil operand, so that the mark survives."""
    return _Stencil if any(isinstance(p, _Stencil) for p in operands) else Profile


def derivative_of(profile: Profile, order: int = 1) -> Profile:
    """The order-th derivative: the exact chain while it lasts, then ``_five_point``.

    Finite differences supply at most the last two orders, and never of a
    stencil profile itself.  The first-order stencil profile's own
    ``derivative()`` is the direct second-order stencil.
    """
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise DomainError(f"derivative order must be a non-negative integer, got {order!r}")
    current = profile
    for step in range(order):
        if not current.has_derivative:
            if isinstance(current, _Stencil):
                raise DerivativeUnavailable("a finite-difference derivative is not differenced again")
            remaining = order - step
            if remaining > 2:
                raise DerivativeUnavailable(f"cannot reach derivative order {order} by finite differences")
            second = _Stencil(lambda t, f=current: _five_point(f, t, 2))
            if remaining == 2:
                return second
            return _Stencil(lambda t, f=current: _five_point(f, t, 1), second)
        current = current.derivative()
    return current


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
