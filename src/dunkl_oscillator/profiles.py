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
(i, j, d, al, be); a sum has ``+`` with a sum of its own type and ``*`` by a
number, no more (a difference is ``a + (-1.0) * b``), and a ``GaussLaguerreSum``
multiplies by r^s (``times_rpower``).
``derivative_of`` refuses anything but a ``Profile`` with ``TypeError``.

``radial_sturmian`` and ``angular_wavefunction`` build the eigenfunctions of
``basis``' labels as one-term sums, orthonormal against r^(1 + 2 mu1 + 2 mu2) dr
and |cos(phi)|^(2 mu1) |sin(phi)|^(2 mu2) d(phi); ``substitute_u`` turns a
radial sum R into the flat-measure U = r^(1/2 + mu1 + mu2) R and back.

A sum evaluates term by term on each call and keeps nothing between calls.
``GaussLaguerreSum._monomials`` expands a radial sum of Laguerre degree at
most 30 into sum b * r^q * exp(-r^2/2), the form on which ``verify``'s
``_defect`` compares two sums coefficient by coefficient.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import AngularQuantum, DeformationParams, RadialQuantum, _check_integer, _r_power, angular_norm, log_gamma
from .errors import DomainError, SingularityError
from .specfun import _check_radius, jacobi, laguerre

__all__ = [
    "Profile",
    "GaussLaguerreSum",
    "TrigJacobiSum",
    "radial_sturmian",
    "substitute_u",
    "angular_wavefunction",
    "PlaneFunction",
    "derivative_of",
]


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
        get = acc.get
        for scale, pairs in parts:
            if scale is None:
                for key, coeff in pairs:
                    acc[key] = get(key, 0.0) + coeff
            else:
                for key, coeff in pairs:
                    acc[key] = get(key, 0.0) + scale * coeff
        if all(acc.values()):  # no zero sum, the usual case
            return acc
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
        arr = np.asarray(r, dtype=float)
        _check_radius(arr, any(p < 0 for p, _, _ in self.terms))
        x = arr * arr
        total = np.zeros(arr.shape)
        for (p, n, a), c in self.terms.items():
            total = total + c * arr**p * laguerre(n, a, x)
        return total * np.exp(-0.5 * x)

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

    def _monomials(self) -> list[tuple[float, complex]]:
        """The (q, b) pairs of this sum written term by term as sum b * r^q * e^(-r^2/2).

        c r^p L_n^a(r^2) = sum_j c (-1)^j C(n+a, n-j)/j! r^(p+2j), the binomial a
        running product for any real a; past degree 30 the alternating sum cancels badly.
        """
        out = []
        for (p, n, a), c in self.terms.items():
            if n > 30:
                raise DomainError(f"the monomial expansion refuses Laguerre degree {n} > 30")
            binom = 1.0  # C(n + a, n - j), from j = n down
            for j in range(n, -1, -1):
                out.append((p + 2 * j, c * (-1) ** j * binom / math.factorial(j)))
                binom *= (a + j) / (n - j + 1)
        return out


def radial_sturmian(q: RadialQuantum, mu: DeformationParams) -> GaussLaguerreSum:
    """Orthonormal radial eigenfunction for label q under r^(1 + 2 mu1 + 2 mu2) dr; refused if its norm underflows."""
    two_k = 2.0 * q.k
    ln_norm = 0.5 * (math.log(2.0) + log_gamma(q.nr + 1.0) - log_gamma(q.nr + two_k))
    coeff = math.exp(ln_norm)
    if coeff < sys.float_info.min:  # subnormal or 0: the sum would lose its digits, or be 0, at every r
        raise DomainError(f"the Sturmian norm underflows at k = {q.k}, n = {q.nr}: ln N = {ln_norm}")
    return GaussLaguerreSum.single(
        coeff=coeff,
        power=_r_power(two_k, mu),
        degree=q.nr,
        alpha=two_k - 1.0,
    )


def substitute_u(profile: GaussLaguerreSum, mu: DeformationParams, direction: str) -> GaussLaguerreSum:
    """Convert between the weighted profile R and the flat-measure profile U.

    U(r) = r^((1 + 2 mu1 + 2 mu2) / 2) R(r) turns the weight r^(1 + 2 mu1 + 2 mu2) dr
    into the plain dr measure; ``direction`` is "r_to_u" or "u_to_r".
    """
    exponent = 0.5 + mu.total
    if direction == "r_to_u":
        return profile.times_rpower(exponent)
    if direction == "u_to_r":
        return profile.times_rpower(-exponent)
    raise DomainError(f"direction must be 'r_to_u' or 'u_to_r', got {direction!r}")


class TrigJacobiSum(Profile):
    """Exact-arithmetic angular profile: sum of c * cos^i * sin^j * P_d^(al,be)(cos 2 phi), keyed (i, j, d, al, be)."""

    @classmethod
    def single(cls, coeff, cos_power, sin_power, degree, alpha, beta) -> "TrigJacobiSum":
        key = (int(cos_power), int(sin_power), int(degree), float(alpha), float(beta))
        return cls(((key, float(coeff)),))

    def _evaluate(self, phi):
        arr = np.asarray(phi, dtype=float)
        finite = np.isfinite(arr)
        if not finite.all():
            raise DomainError(f"phi must be finite, got {arr[~finite][0]}")
        # A 0-d cos stays an array: numpy rounds a float64 scalar's ** apart from an array's.
        cos, sin = np.asarray(np.cos(arr)), np.asarray(np.sin(arr))
        x = cos * cos - sin * sin
        # Floating-point multiples of pi/2 give |cos| or |sin| of order 1e-16,
        # where a negative power of that factor (a reflection quotient) has no
        # digits left; a negative power of the other factor is finite there.
        for factor, power in ((cos, 0), (sin, 1)):
            if any(key[power] < 0 for key in self.terms) and np.any(abs(factor) < 1e-12):
                raise SingularityError("angular operator evaluated on a reflection axis")
        total = np.zeros(arr.shape)
        for (i, j, d, al, be), c in self.terms.items():
            total = total + c * cos**i * sin**j * jacobi(d, al, be, x)
        return total[()]  # a float64 for a 0-d phi, also with no terms

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


def angular_wavefunction(q: AngularQuantum, mu: DeformationParams) -> TrigJacobiSum:
    """Orthonormal angular eigenfunction of the sector described by q."""
    eta = angular_norm(q, mu)
    return TrigJacobiSum.single(
        coeff=eta,
        cos_power=q.e1,
        sin_power=q.e2,
        degree=q.degree,
        alpha=mu.mu2 + q.e2 - 0.5,
        beta=mu.mu1 + q.e1 - 0.5,
    )


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
    and dxx or dyy when its own partial is evaluated; ``apply_hamiltonian``
    all four) and raises ``DerivativeUnavailable`` for a missing one.
    ``parity`` is (s1, s2) with s1 the eigenvalue under x -> -x and s2 under
    y -> -y, when the function is a parity eigenstate; it licenses
    evaluation of reflection-difference quotients on the coordinate axes.
    """

    fn: Callable
    dx: Callable | None = None
    dy: Callable | None = None
    dxx: Callable | None = None
    dyy: Callable | None = None
    parity: tuple[int, int] | None = None

    def __call__(self, x, y):
        return self.fn(x, y)
