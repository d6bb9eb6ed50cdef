"""Exact eigenbasis of the reflection-deformed isotropic oscillator.

States separate in polar coordinates and are labelled by a parity sector
(s1, s2), an angular quantum number m (a non-negative integer when s1*s2 = +1,
a positive half-odd-integer when s1*s2 = -1), and a radial excitation nr.  The
energy is E = 2(nr + m) + mu1 + mu2 + 1; m is kept as an exact ``Fraction`` so
energies of half-integer sectors come out exactly.

Angular eigenfunctions are trigonometric-weighted Jacobi polynomials,
orthonormal against |cos(phi)|^(2 mu1) |sin(phi)|^(2 mu2) d(phi) on [0, 2 pi).
Radial eigenfunctions are Laguerre-type profiles, orthonormal against
r^(1 + 2 mu1 + 2 mu2) dr on (0, inf) and indexed by the positive parameter
k = m + (mu1 + mu2 + 1) / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, RepresentationError
from .profiles import DeformationParams, GaussLaguerreSum, Profile, TrigJacobiSum
from .specfun import log_gamma

__all__ = [
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

# Parity sectors in ascending (s1, s2) order, each with the lowest 2m it holds.
_SECTOR_STARTS = {(-1, -1): 2, (-1, 1): 1, (1, -1): 1, (1, 1): 0}

# Largest number of states ``enumerate_states`` builds; past it the list would
# take gigabytes, so the request is refused before any state exists.
MAX_STATES = 1_000_000


def as_quantum_m(m) -> Fraction:
    """Coerce m to an exact non-negative integer or half-odd-integer Fraction."""
    try:
        frac = Fraction(m)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"cannot interpret m = {m!r} as a rational number") from exc
    if frac < 0:
        raise DomainError(f"m must be non-negative, got {frac}")
    if frac.denominator not in (1, 2):
        raise DomainError(f"m must be an integer or half-odd-integer, got {frac}")
    return frac


def sector_start(s1: int, s2: int) -> Fraction:
    """Lowest quantum number m of the (s1, s2) sector: 0, 1/2, 1/2 or 1."""
    if (s1, s2) not in _SECTOR_STARTS:
        raise DomainError(f"parities must be +1 or -1, got ({s1}, {s2})")
    return Fraction(_SECTOR_STARTS[(s1, s2)], 2)


def separation_constant(m, mu: DeformationParams) -> float:
    """Angular eigenvalue l^2 = 4 m (m + mu1 + mu2)."""
    frac = as_quantum_m(m)
    return 4.0 * float(frac) * (float(frac) + mu.total)


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
        e1, e2 = (1 - s1) // 2, (1 - s2) // 2
        return cls(s1=s1, s2=s2, m=frac, e1=e1, e2=e2, l2=separation_constant(frac, mu))

    @property
    def degree(self) -> int:
        """Polynomial degree m - (e1 + e2) / 2 of the Jacobi factor."""
        return int(self.m - Fraction(self.e1 + self.e2, 2))


def angular_norm(m, e1: int, e2: int, mu: DeformationParams) -> float:
    """Normalization constant of the angular eigenfunction with the given labels."""
    if e1 not in (0, 1) or e2 not in (0, 1):
        raise DomainError(f"parity exponents must be 0 or 1, got ({e1}, {e2})")
    frac = as_quantum_m(m)
    degree = frac - Fraction(e1 + e2, 2)
    if degree < 0 or degree.denominator != 1:
        raise DomainError(
            f"labels (m={frac}, e1={e1}, e2={e2}) do not give a polynomial degree"
        )
    j = int(degree)
    half = 0.5
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
        - log_gamma(float(frac + Fraction(e1 - e2, 2)) + mu.mu1 + half)
        - log_gamma(float(frac + Fraction(e2 - e1, 2)) + mu.mu2 + half)
    )
    return math.exp(0.5 * ln_sq)


def angular_wavefunction(q: AngularQuantum, mu: DeformationParams) -> TrigJacobiSum:
    """Orthonormal angular eigenfunction of the sector described by q."""
    eta = angular_norm(q.m, q.e1, q.e2, mu)
    return TrigJacobiSum.single(
        coeff=eta,
        cos_power=q.e1,
        sin_power=q.e2,
        degree=q.degree,
        alpha=mu.mu2 + q.e2 - 0.5,
        beta=mu.mu1 + q.e1 - 0.5,
    )


@dataclass(frozen=True)
class RadialQuantum:
    """Radial label: excitation nr and representation parameter k > 0."""

    nr: int
    k: float

    def __post_init__(self):
        if self.nr < 0 or int(self.nr) != self.nr:
            raise DomainError(f"nr must be a non-negative integer, got {self.nr}")
        if not self.k > 0.0:
            raise RepresentationError(f"k must be positive, got {self.k}")

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
    return float(as_quantum_m(m)) + 0.5 * (mu.total + 1.0)


def _level_energy(level: int, mu: DeformationParams) -> float:
    """Energy of the level 2 (nr + m) = level; the integer part is exact."""
    return float(level + 1) + mu.mu1 + mu.mu2


def energy(nr: int, m, mu: DeformationParams) -> float:
    """Eigenvalue E = 2 (nr + m) + mu1 + mu2 + 1, with 2 (nr + m) held exact."""
    if nr < 0 or int(nr) != nr:
        raise DomainError(f"nr must be a non-negative integer, got {nr}")
    return _level_energy(2 * int(nr) + int(2 * as_quantum_m(m)), mu)


def radial_sturmian(q: RadialQuantum, mu: DeformationParams) -> GaussLaguerreSum:
    """Orthonormal radial eigenfunction for label q under r^(1 + 2 mu1 + 2 mu2) dr."""
    two_k = 2.0 * q.k
    ln_norm = 0.5 * (math.log(2.0) + log_gamma(q.nr + 1.0) - log_gamma(q.nr + two_k))
    return GaussLaguerreSum.single(
        coeff=math.exp(ln_norm),
        power=two_k - (mu.total + 1.0),
        degree=q.nr,
        alpha=two_k - 1.0,
    )


def substitute_u(profile: Profile, mu: DeformationParams, direction: str) -> Profile:
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
    """Number of states with 2 (nr + m) <= level, summed over sectors in closed form.

    A sector whose lowest 2m is s holds, for each allowed m, every nr with
    2 nr <= level - 2m; summed over m that is (q + 1)(q + 2)/2, q = (level - s) // 2.
    """
    total = 0
    for start in _SECTOR_STARTS.values():
        q = (level - start) // 2
        if q >= 0:
            total += (q + 1) * (q + 2) // 2
    return total


# The states through level n number (n + 1)(n + 2)/2, so through this level
# they already exceed MAX_STATES.
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


def enumerate_states(emax: float, mu: DeformationParams) -> list[StateLabel]:
    """All states with energy <= emax, sorted by (energy, m, nr, s1, s2).

    The energy depends on the level 2 (nr + m) alone, so the states come out
    level by level, in ascending 2m and then (s1, s2) within a level; no sort
    is needed.  One AngularQuantum and one k serve every nr of a (sector, m),
    and one RadialQuantum serves both sectors that share an (m, nr).  Raises
    DomainError when the count exceeds MAX_STATES.
    """
    top = _top_level(emax, mu)
    # angular[2m]: the labels of every sector holding that m, in (s1, s2) order.
    angular: list[list[AngularQuantum]] = [[] for _ in range(top + 1)]
    for (s1, s2), start in _SECTOR_STARTS.items():
        for two_m in range(start, top + 1, 2):
            angular[two_m].append(AngularQuantum.build(s1, s2, Fraction(two_m, 2), mu))
    ks = [k_of(Fraction(two_m, 2), mu) for two_m in range(top + 1)]
    out: list[StateLabel] = []
    for level in range(top + 1):
        e = _level_energy(level, mu)
        for two_m in range(level % 2, level + 1, 2):
            radial = RadialQuantum(nr=(level - two_m) // 2, k=ks[two_m])
            for ang in angular[two_m]:
                out.append(StateLabel(angular=ang, radial=radial, energy=e))
    return out
