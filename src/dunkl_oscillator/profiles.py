"""Exact term sums: the package's functions of one variable, r or phi.

``Profile`` is the base of two sums.  ``GaussLaguerreSum`` holds the radial
eigenfunctions, their ladder images and the random test profiles,

    sum  c * r^p * L_n^a(r^2) * exp(-r^2/2),

closed under d/dr and under multiplication by any real power of r.
``TrigJacobiSum`` holds the angular eigenfunctions and their images,

    sum  c * cos^i(phi) * sin^j(phi) * P_d^(al,be)(cos 2 phi),   i, j any integers,

closed under d/dphi, under multiplication by cos^a sin^b and under the two
reflections, which flip the sign of the odd-i or odd-j terms; a sum with a
negative power refuses evaluation on the axes phi = k pi/2.  So each operator
of ``dunkl_ops`` acts exactly, to any derivative order, as one ``_fold`` of
coefficient rows.  ``terms`` is a dict {key: coeff}, keyed (p, n, a) or
(i, j, d, al, be); a sum adds to, or subtracts, a sum of its own type, scales
by a number, and a ``GaussLaguerreSum`` multiplies by r^s (``times_rpower``).
``derivative_of`` refuses anything but a ``Profile`` with ``TypeError``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import DeformationParams, _check_integer
from .errors import DomainError, SingularityError
from .specfun import _touches_origin, jacobi, laguerre

__all__ = [
    "Profile",
    "GaussLaguerreSum",
    "TrigJacobiSum",
    "PlaneFunction",
    "derivative_of",
    "residual_grid",
    "angular_grid",
]


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


class Profile:
    """A function of one variable (r or phi): an exact term sum, ``terms`` = {key: coeff}.

    A subclass supplies ``_evaluate`` and ``derivative``, the exact
    derivative, built afresh on each call.  Every sum, from the constructor
    to the operators of ``dunkl_ops``, is built by one ``_fold`` over scaled
    parts.
    """

    def __init__(self, pairs):
        self.terms = self._fold_terms(((None, pairs),))

    def __call__(self, t):
        return self._evaluate(t)

    @staticmethod
    def _fold_terms(parts) -> dict:
        """The terms of the sum over parts (scale, pairs) of scale * (the sum of pairs), no scale for None.

        Each key holds the left-to-right sum of its scaled coefficients, in
        the order the pairs arrive; keys keep the order of their first
        arrival, and the zero sums are dropped once, at the end.
        """
        acc: dict[tuple, complex] = {}
        for scale, pairs in parts:
            for key, coeff in pairs:
                acc[key] = acc.get(key, 0.0) + (coeff if scale is None else scale * coeff)
        return {key: c for key, c in acc.items() if c != 0}

    @classmethod
    def _fold(cls, parts) -> "Profile":
        """A sum of this type holding ``_fold_terms(parts)``, built with no intermediate sum."""
        out = cls.__new__(cls)
        out.terms = cls._fold_terms(parts)
        return out

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fold(((None, self.terms.items()), (None, other.terms.items())))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fold(((None, self.terms.items()), (-1.0, other.terms.items())))

    def __neg__(self):
        return self._fold(((-1.0, self.terms.items()),))

    def __mul__(self, c):
        if not isinstance(c, numbers.Number):
            return NotImplemented
        return self._fold(((c, self.terms.items()),))

    __rmul__ = __mul__


class GaussLaguerreSum(Profile):
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
        if _touches_origin(arr) and any(p < 0 for p, _, _ in self.terms):
            raise SingularityError("evaluation at r = 0 hits a negative power of r")
        x = arr * arr
        total = np.zeros_like(arr)
        for (p, n, a), c in self.terms.items():
            total = total + c * arr**p * laguerre(n, a, x)
        total = total * np.exp(-0.5 * x)
        return total[0] if np.ndim(r) == 0 else total

    def derivative(self) -> "GaussLaguerreSum":
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
        return GaussLaguerreSum._fold(((None, self._shifted(s)),))

    def _shifted(self, s: float) -> list:
        """The (key, coeff) pairs of r^s times this sum, for a ``_fold`` part."""
        return [((p + s, n, a), c) for (p, n, a), c in self.terms.items()]


class TrigJacobiSum(Profile):
    """Exact-arithmetic angular profile: sum of c * cos^i * sin^j * P_d^(al,be)(cos 2 phi), keyed (i, j, d, al, be)."""

    @classmethod
    def single(cls, coeff, cos_power, sin_power, degree, alpha, beta) -> "TrigJacobiSum":
        key = (int(cos_power), int(sin_power), int(degree), float(alpha), float(beta))
        return cls(((key, float(coeff)),))

    def _evaluate(self, phi):
        arr = np.atleast_1d(np.asarray(phi, dtype=float))
        finite = np.isfinite(arr)
        if not finite.all():
            raise DomainError(f"phi must be finite, got {arr[~finite][0]}")
        cos, sin = np.cos(arr), np.sin(arr)
        # Floating-point multiples of pi/2 give |cos| or |sin| of order 1e-16,
        # where a negative power of that factor (a reflection quotient) has no
        # digits left; a negative power of the other factor is finite there.
        for factor, power in ((cos, 0), (sin, 1)):
            if any(key[power] < 0 for key in self.terms) and np.any(abs(factor) < 1e-12):
                raise SingularityError("angular operator evaluated on a reflection axis")
        x = cos * cos - sin * sin
        total = np.zeros_like(arr)
        for (i, j, d, al, be), c in self.terms.items():
            total = total + c * cos**i * sin**j * jacobi(d, al, be, x)
        return total[0] if np.ndim(phi) == 0 else total

    def derivative(self) -> "TrigJacobiSum":
        out = []
        for (i, j, d, al, be), c in self.terms.items():
            if i != 0:
                out.append(((i - 1, j + 1, d, al, be), -c * i))
            if j != 0:
                out.append(((i + 1, j - 1, d, al, be), c * j))
            if d >= 1:
                out.append(((i + 1, j + 1, d - 1, al + 1.0, be + 1.0), -2.0 * c * (d + al + be + 1.0)))
        return TrigJacobiSum(out)

    def _shifted(self, di: int, dj: int, odd: int | None = None) -> list:
        """The pairs of cos^di sin^dj times this sum (odd = 0 or 1: its odd-cos or odd-sin terms only)."""
        pairs = self.terms.items()
        return [((i + di, j + dj, *key), c) for (i, j, *key), c in pairs if odd is None or (i, j)[odd] % 2]


def derivative_of(profile: Profile, order: int = 1) -> Profile:
    """The order-th exact derivative of a term sum; ``TypeError`` for anything else."""
    if not isinstance(profile, Profile):
        raise TypeError(f"exact derivatives need a term-sum Profile, got {type(profile).__name__}")
    _check_integer(order, "derivative order")
    for _ in range(order):
        profile = profile.derivative()
    return profile


@dataclass(frozen=True)
class PlaneFunction:
    """A function on the plane with its exact partials and parity labels.

    An operator reads the partials it needs (``dunkl_derivative`` dx or dy,
    ``apply_hamiltonian`` all four) and raises ``DerivativeUnavailable`` for
    a missing one.  ``parity`` is (s1, s2) with s1 the eigenvalue under
    x -> -x and s2 under y -> -y, when the function is a parity eigenstate;
    it licenses evaluation of reflection-difference quotients on the
    coordinate axes.
    """

    fn: Callable
    dx: Callable | None = None
    dy: Callable | None = None
    dxx: Callable | None = None
    dyy: Callable | None = None
    parity: tuple[int, int] | None = None

    def __call__(self, x, y):
        return self.fn(x, y)


def _polar_plane(R: Profile, Phi: Profile, parity: tuple[int, int] | None) -> PlaneFunction:
    """R(r) * Phi(phi) with its partials from the polar chain rule.

    Along the unit vector (a, b) = (c, s) for x and (s, -c) for y, with
    c = x/r and s = y/r, a first partial is a d_r - (b/r) d_phi and a second

        a^2 d_rr + (b^2/r) (d_r + d_phiphi / r) + (2ab/r) (d_phi / r - d_rphi).
    """
    R1, R2 = derivative_of(R, 1), derivative_of(R, 2)
    Phi1, Phi2 = derivative_of(Phi, 1), derivative_of(Phi, 2)

    def polar(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.hypot(x, y)
        return r, np.arctan2(y, x), x / r, y / r

    def partial(axis: str, order: int):
        def out(x, y):
            r, phi, c, s = polar(x, y)
            a, b = (c, s) if axis == "x" else (s, -c)
            rad, rad1, ang, ang1 = R(r), R1(r), Phi(phi), Phi1(phi)
            if order == 1:
                return a * rad1 * ang - (b / r) * rad * ang1
            return (
                a * a * R2(r) * ang
                + (b * b / r) * (rad1 * ang + rad * Phi2(phi) / r)
                + (2.0 * a * b / r) * (rad * ang1 / r - rad1 * ang1)
            )

        return out

    def fn(x, y):
        r, phi, _, _ = polar(x, y)
        return R(r) * Phi(phi)

    return PlaneFunction(fn, partial("x", 1), partial("y", 1), partial("x", 2), partial("y", 2), parity)


def residual_grid(n: int = 50, lo: float = 0.05, hi: float = 10.0) -> np.ndarray:
    """Chebyshev-spaced evaluation points for pointwise operator residuals."""
    theta = np.pi * (2 * np.arange(n) + 1) / (2 * n)
    return np.sort(0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta))


def angular_grid(n: int = 64) -> np.ndarray:
    """Points covering [0, 2 pi) while avoiding the axes phi = k pi/2."""
    return (np.arange(n) + 0.37) * (2.0 * np.pi / n)
