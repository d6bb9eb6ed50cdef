"""Exact eigenbasis of the reflection-deformed isotropic oscillator.

States separate in polar coordinates and are labelled by a parity sector
(s1, s2), an angular quantum number m (a non-negative integer when s1*s2 = +1,
a positive half-odd-integer when s1*s2 = -1), and a radial excitation nr.  The
energy is E = 2(nr + m) + mu1 + mu2 + 1; m is kept as an exact ``Fraction`` so
energies of half-integer sectors come out exactly.  A sector holds
m = (e1 + e2) / 2 + j, j = 0, 1, ..., with e = (1 - s) / 2: one walk,
``_sector_labels``, builds these labels for the enumeration and for verify,
from the integer 2m and unchecked, since each is valid by construction.

Angular eigenfunctions are trigonometric-weighted Jacobi polynomials,
orthonormal against |cos(phi)|^(2 mu1) |sin(phi)|^(2 mu2) d(phi) on [0, 2 pi).
Radial eigenfunctions are Laguerre-type profiles, orthonormal against
r^(1 + 2 mu1 + 2 mu2) dr on (0, inf) and indexed by the positive parameter
k = m + (mu1 + mu2 + 1) / 2.

This root layer needs no numpy.  Besides the labels, energies and the
enumeration it holds the rules every layer applies (``DeformationParams``,
``log_gamma``, the one integer rule ``_check_integer``) and ``verify``'s
``SUITES``, so ``--help`` and ``spectrum`` run without numpy; the
eigenfunctions import ``profiles`` when they are first called.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .errors import DomainError, RepresentationError

if TYPE_CHECKING:
    from .profiles import GaussLaguerreSum, TrigJacobiSum

__all__ = [
    "DeformationParams",
    "log_gamma",
    "SUITES",
    "AngularQuantum",
    "RadialQuantum",
    "StateLabel",
    "as_quantum_m",
    "sector_start",
    "separation_constant",
    "angular_norm",
    "angular_wavefunction",
    "energy",
    "k_of",
    "radial_sturmian",
    "substitute_u",
    "MAX_STATES",
    "enumerate_states",
]

# The self-check suites of ``verify.run_checks``, in report order.
SUITES = ("angular", "radial", "algebra", "coherent")

# Parity sectors in ascending (s1, s2) order, each with the lowest 2m it holds.
_SECTOR_STARTS = {(-1, -1): 2, (-1, 1): 1, (1, -1): 1, (1, 1): 0}

# Largest number of states ``enumerate_states`` builds; past it the list would
# take gigabytes, so the request is refused before any state exists.
MAX_STATES = 1_000_000

# Largest m or nr a label may carry: the Jacobi and Laguerre recurrences loop
# about that many times per point, so a larger one would hang an evaluation.
_MAX_QUANTUM = 1_000_000


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


def _check_integer(n, what: str, least: int = 0, most: float = math.inf) -> None:
    """Refuse an n that is not an int or numpy integer from ``least`` to ``most``: NaN, inf and 2.0 included."""
    # numpy integers are Integral, a test several times dearer than isinstance(n, int).
    if not (isinstance(n, int) or isinstance(n, numbers.Integral)) or not least <= n <= most:
        if most < math.inf:
            bound = f"an integer from {least} to {most}"
        else:
            bound = f"an integer of at least {least}" if least else "a non-negative integer"
        raise DomainError(f"{what} must be {bound}, got {n!r}")


def as_quantum_m(m) -> Fraction:
    """Coerce m to an exact integer or half-odd-integer Fraction from 0 to _MAX_QUANTUM."""
    try:
        frac = Fraction(m)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"cannot interpret m = {m!r} as a rational number") from exc
    if frac < 0:
        raise DomainError(f"m must be non-negative, got {frac}")
    if frac.denominator not in (1, 2):
        raise DomainError(f"m must be an integer or half-odd-integer, got {frac}")
    if frac > _MAX_QUANTUM:
        raise DomainError(f"m must not exceed {_MAX_QUANTUM}, got {frac}")
    return frac


def sector_start(s1: int, s2: int) -> Fraction:
    """Lowest quantum number m of the (s1, s2) sector: 0, 1/2, 1/2 or 1."""
    if (s1, s2) not in _SECTOR_STARTS:
        raise DomainError(f"parities must be +1 or -1, got ({s1}, {s2})")
    return Fraction(_SECTOR_STARTS[(s1, s2)], 2)


def separation_constant(m, mu: DeformationParams) -> float:
    """Angular eigenvalue l^2 = 4 m (m + mu1 + mu2)."""
    return _l2(float(as_quantum_m(m)), mu)


def _l2(m: float, mu: DeformationParams) -> float:
    """l^2 = 4 m (m + mu1 + mu2) of an m already checked."""
    return 4.0 * m * (m + mu.total)


@dataclass(frozen=True)
class AngularQuantum:
    """Angular sector label: parities, quantum number m, and derived data."""

    s1: int
    s2: int
    m: Fraction
    e1: int
    e2: int
    l2: float

    @classmethod
    def build(cls, s1: int, s2: int, m, mu: DeformationParams) -> "AngularQuantum":
        start = sector_start(s1, s2)
        frac = as_quantum_m(m)
        if frac < start or (frac - start).denominator != 1:
            raise RepresentationError(
                f"m = {frac} is not in the ({s1:+d}, {s2:+d}) sector, "
                f"whose m are {start}, {start + 1}, {start + 2}, ..."
            )
        return cls._of(s1, s2, int(2 * frac), mu)

    @classmethod
    def _of(cls, s1: int, s2: int, two_m: int, mu: DeformationParams) -> "AngularQuantum":
        """Label of a (sector, 2m) known to be valid, built without checking it again."""
        return cls(s1, s2, Fraction(two_m, 2), (1 - s1) // 2, (1 - s2) // 2, _l2(0.5 * two_m, mu))

    @property
    def degree(self) -> int:
        """Polynomial degree m - (e1 + e2) / 2 of the Jacobi factor."""
        return int(self.m - Fraction(self.e1 + self.e2, 2))


def angular_norm(q: AngularQuantum, mu: DeformationParams) -> float:
    """Normalization constant of the angular eigenfunction of the sector described by q."""
    frac, e1, e2, j = q.m, q.e1, q.e2, q.degree
    if frac == 0:
        # (2m + mu1 + mu2) Gamma(m + mu1 + mu2) collapses to Gamma(mu1 + mu2 + 1),
        # which stays finite as mu1 + mu2 -> 0.
        ln_head = log_gamma(mu.total + 1.0)
    else:
        ln_head = math.log(2.0 * float(frac) + mu.total) + log_gamma(
            float(frac + Fraction(e1 + e2, 2)) + mu.total
        )
    ln_sq = (
        ln_head
        + log_gamma(j + 1.0)
        - math.log(2.0)
        - log_gamma(float(frac + Fraction(e1 - e2, 2)) + mu.mu1 + 0.5)
        - log_gamma(float(frac + Fraction(e2 - e1, 2)) + mu.mu2 + 0.5)
    )
    return math.exp(0.5 * ln_sq)


def angular_wavefunction(q: AngularQuantum, mu: DeformationParams) -> TrigJacobiSum:
    """Orthonormal angular eigenfunction of the sector described by q."""
    from .profiles import TrigJacobiSum

    eta = angular_norm(q, mu)
    return TrigJacobiSum.single(
        coeff=eta,
        cos_power=q.e1,
        sin_power=q.e2,
        degree=q.degree,
        alpha=mu.mu2 + q.e2 - 0.5,
        beta=mu.mu1 + q.e1 - 0.5,
    )


def _check_nr(nr) -> None:
    """Refuse an nr that is not a non-negative integer up to _MAX_QUANTUM."""
    _check_integer(nr, "nr")
    if nr > _MAX_QUANTUM:
        raise DomainError(f"nr must not exceed {_MAX_QUANTUM}, got {nr}")


def _check_k(k) -> None:
    """Refuse a representation parameter k that is not positive and finite, NaN included."""
    if not 0.0 < k < math.inf:
        raise RepresentationError(f"k must be positive and finite, got {k}")


@dataclass(frozen=True)
class RadialQuantum:
    """Radial label: excitation nr and representation parameter k > 0."""

    nr: int
    k: float

    def __post_init__(self):
        _check_nr(self.nr)
        _check_k(self.k)

    @classmethod
    def from_m(cls, nr: int, m, mu: DeformationParams) -> "RadialQuantum":
        return cls(nr=nr, k=k_of(m, mu))


@dataclass(frozen=True)
class StateLabel:
    """Full eigenstate label with its exact energy."""

    angular: AngularQuantum
    radial: RadialQuantum
    energy: float

    @property
    def s1(self) -> int:
        return self.angular.s1

    @property
    def s2(self) -> int:
        return self.angular.s2

    @property
    def m(self) -> Fraction:
        return self.angular.m

    @property
    def nr(self) -> int:
        return self.radial.nr

    @property
    def k(self) -> float:
        return self.radial.k

    @property
    def l2(self) -> float:
        return self.angular.l2


def k_of(m, mu: DeformationParams) -> float:
    """Representation parameter k = m + (mu1 + mu2 + 1) / 2 of the sector with quantum number m."""
    return _k(float(as_quantum_m(m)), mu)


def _k(m: float, mu: DeformationParams) -> float:
    """k = m + (mu1 + mu2 + 1) / 2 of an m already checked."""
    return m + 0.5 * (mu.total + 1.0)


def _level_energy(level: int, mu: DeformationParams) -> float:
    """Energy of the level 2 (nr + m) = level; the integer part is exact."""
    return float(level + 1) + mu.mu1 + mu.mu2


def energy(nr: int, m, mu: DeformationParams) -> float:
    """Eigenvalue E = 2 (nr + m) + mu1 + mu2 + 1, with 2 (nr + m) held exact."""
    _check_nr(nr)
    return _level_energy(2 * int(nr) + int(2 * as_quantum_m(m)), mu)


def radial_sturmian(q: RadialQuantum, mu: DeformationParams) -> GaussLaguerreSum:
    """Orthonormal radial eigenfunction for label q under r^(1 + 2 mu1 + 2 mu2) dr."""
    from .profiles import GaussLaguerreSum

    two_k = 2.0 * q.k
    ln_norm = 0.5 * (math.log(2.0) + log_gamma(q.nr + 1.0) - log_gamma(q.nr + two_k))
    return GaussLaguerreSum.single(
        coeff=math.exp(ln_norm),
        power=two_k - (mu.total + 1.0),
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


def _states_through(level: int) -> int:
    """Number of states with 2 (nr + m) <= level: the level N holds N + 1 of them."""
    return (level + 1) * (level + 2) // 2


# ``_states_through`` this level already exceeds MAX_STATES.
_LEVEL_CAP = math.isqrt(2 * MAX_STATES)


def _top_level(emax: float, mu: DeformationParams) -> int:
    """Largest level 2 (nr + m) with energy <= emax (-1 if none), checked against MAX_STATES."""
    if not math.isfinite(emax):
        raise DomainError(f"emax must be finite, got {emax}")
    # Rounding in the energy moves the edge off emax - mu1 - mu2 - 1 by at most
    # a level, but the search is bounded by _LEVEL_CAP whatever the magnitudes.
    guess = emax - mu.mu1 - mu.mu2 - 1.0
    top = min(int(guess), _LEVEL_CAP) if guess >= 0.0 else -1
    while top < _LEVEL_CAP and _level_energy(top + 1, mu) <= emax:
        top += 1
    while top >= 0 and _level_energy(top, mu) > emax:
        top -= 1
    if _states_through(top) > MAX_STATES:
        raise DomainError(
            f"emax = {emax} at mu = ({mu.mu1}, {mu.mu2}) gives more than "
            f"{MAX_STATES} states; lower emax"
        )
    return top


def _sector_labels(top: int, mu: DeformationParams) -> Iterator[tuple[int, AngularQuantum]]:
    """(2m, label) of every sector and m with 2m <= top: sectors in ascending (s1, s2) order, then 2m ascending.

    Each 2m starts at its sector's lowest and steps by 2, so every label is
    valid and is built unchecked by ``AngularQuantum._of``.
    """
    for (s1, s2), start in _SECTOR_STARTS.items():
        for two_m in range(start, top + 1, 2):
            yield two_m, AngularQuantum._of(s1, s2, two_m, mu)


class _Levels(NamedTuple):
    """The states with energy <= emax, level by level, with no state built.

    The level 2 (nr + m) = L, for L = 0 .. top, has the energy ``energies[L]``
    and holds, for each (2m, nr) of ``pairs(L)``, one state per label in
    ``sectors[2m]``: the AngularQuantum of every sector with that m, in
    (s1, s2) order, which share the one k ``ks[2m]`` from the formula of
    ``k_of``.  Walked in that order, levels ascending, the states come sorted
    by (energy, m, nr, s1, s2).
    """

    energies: list[float]
    ks: list[float]
    sectors: list[list[AngularQuantum]]

    @property
    def count(self) -> int:
        """Number of states, from the closed form (top + 1)(top + 2)/2."""
        return _states_through(len(self.energies) - 1)

    @staticmethod
    def pairs(level: int) -> Iterator[tuple[int, int]]:
        """(2m, nr) of every m on the level 2 (nr + m) = level, 2m ascending."""
        return ((two_m, (level - two_m) // 2) for two_m in range(level % 2, level + 1, 2))


def _levels(emax: float, mu: DeformationParams) -> _Levels:
    """The levels of every state with energy <= emax, and the labels and k of every m they hold.

    Raises DomainError, before any label is built, when the states would
    number more than MAX_STATES.
    """
    top = _top_level(emax, mu)
    sectors: list[list[AngularQuantum]] = [[] for _ in range(top + 1)]
    for two_m, q in _sector_labels(top, mu):
        sectors[two_m].append(q)
    return _Levels(
        energies=[_level_energy(level, mu) for level in range(top + 1)],
        ks=[_k(0.5 * two_m, mu) for two_m in range(top + 1)],
        sectors=sectors,
    )


def enumerate_states(emax: float, mu: DeformationParams) -> list[StateLabel]:
    """All states with energy <= emax, sorted by (energy, m, nr, s1, s2).

    The energy depends on the level 2 (nr + m) alone, so the states come out
    of ``_levels`` level by level, in ascending 2m and then (s1, s2) within a
    level; no sort is needed.  One AngularQuantum and one k serve every nr of
    a (sector, m), and one RadialQuantum serves both sectors that share an
    (m, nr).  Raises DomainError when the count exceeds MAX_STATES.
    """
    walk = _levels(emax, mu)
    out: list[StateLabel] = []
    for level, e in enumerate(walk.energies):
        for two_m, nr in walk.pairs(level):
            radial = RadialQuantum(nr=nr, k=walk.ks[two_m])
            for ang in walk.sectors[two_m]:
                out.append(StateLabel(angular=ang, radial=radial, energy=e))
    return out
