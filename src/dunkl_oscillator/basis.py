"""Exact eigenbasis of the reflection-deformed isotropic oscillator.

States separate in polar coordinates and are labelled by a parity sector
(s1, s2), an angular quantum number m (a non-negative integer when s1*s2 = +1,
a positive half-odd-integer when s1*s2 = -1), and a radial excitation nr.  The
energy is E = 2(nr + m) + mu1 + mu2 + 1.  m is held as the integer 2m, so the
level 2(nr + m) is exact; it is a ``Fraction`` only where the public API takes
it in (the one coercion ``_two_m``) or gives it out (``.m``).  A sector holds
m = (e1 + e2) / 2 + j, j = 0, 1, ..., with e = (1 - s) / 2 (the rule ``_holds``).
One walk, ``_sector_walk``, gives for 2m = 0, 1, ... the (s1, s2) of every
sector that holds it, as integers; ``spectrum`` formats them as they are, and
labels are built from them unchecked only where a caller needs one: once per
(sector, m) in ``enumerate_states``, and in verify through ``_sector_labels``.

A label holds what its eigenfunction needs: a sector its Jacobi degree
(its norm is ``angular_norm``), a radial label the positive parameter
k = m + (mu1 + mu2 + 1) / 2.  ``profiles`` builds the eigenfunctions from them.

This root layer needs no numpy and imports nothing from the package but
``errors``.  Besides the labels, energies and the enumeration it holds the
rules every layer applies (``DeformationParams``, ``log_gamma``, the one
integer rule ``_check_integer``) and ``verify``'s ``SUITES``, so ``--help``
and ``spectrum`` run without numpy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import DomainError, RepresentationError

__all__ = [
    "DeformationParams",
    "log_gamma",
    "SUITES",
    "AngularQuantum",
    "RadialQuantum",
    "StateLabel",
    "sector_start",
    "angular_norm",
    "energy",
    "k_of",
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
    """Reflection coupling constants, each required to be finite and exceed -1/2, with a finite sum."""

    mu1: float
    mu2: float

    def __post_init__(self):
        for name, value in (("mu1", self.mu1), ("mu2", self.mu2)):
            if not (value > -0.5 and math.isfinite(value)):
                raise DomainError(f"{name} must be finite and exceed -1/2, got {value}")
        if self.total == math.inf:
            raise DomainError(f"mu1 + mu2 must be finite, got mu = ({self.mu1}, {self.mu2})")

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


def _is_integer(n) -> bool:
    """Whether n is an int or numpy integer, not a bool: True == 1, but it is no count and no parity."""
    return type(n) is int or (isinstance(n, numbers.Integral) and not isinstance(n, bool))


def _check_integer(n, what: str, least: int = 0, most: float = math.inf) -> None:
    """Refuse an n that is not an int or numpy integer from ``least`` to ``most``: NaN, inf, 2.0 and True included."""
    if not (type(n) is int or _is_integer(n)) or not least <= n <= most:  # a plain int needs no call
        if most < math.inf:
            bound = f"an integer from {least} to {most}"
        else:
            bound = f"an integer of at least {least}" if least else "a non-negative integer"
        raise DomainError(f"{what} must be {bound}, got {n!r}")


def _two_m(m) -> int:
    """2m of an m coerced to an exact integer or half-odd-integer from 0 to _MAX_QUANTUM; a bool is no m."""
    if isinstance(m, bool):
        raise DomainError(f"m must be an integer or half-odd-integer, not a bool, got {m!r}")
    try:
        frac = Fraction(m)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:  # "1/0" and inf among them
        raise DomainError(f"cannot interpret m = {m!r} as a rational number") from exc
    if frac < 0:
        raise DomainError(f"m must be non-negative, got {frac}")
    if frac.denominator not in (1, 2):
        raise DomainError(f"m must be an integer or half-odd-integer, got {frac}")
    if frac > _MAX_QUANTUM:
        raise DomainError(f"m must not exceed {_MAX_QUANTUM}, got {frac}")
    return int(2 * frac.numerator // frac.denominator)  # int() also for a numpy integer m


def sector_start(s1: int, s2: int) -> Fraction:
    """Lowest quantum number m of the (s1, s2) sector: 0, 1/2, 1/2 or 1; each parity is an integer, +1 or -1, not a bool."""
    if (s1, s2) not in _SECTOR_STARTS or not (_is_integer(s1) and _is_integer(s2)):
        raise DomainError(f"parities must be +1 or -1, got ({s1}, {s2})")
    return Fraction(_SECTOR_STARTS[(s1, s2)], 2)


def _holds(s1: int, s2: int, two_m: int) -> bool:
    """Whether the (s1, s2) sector, of valid parities, holds 2m: 2m >= e1 + e2, its lowest, and 2m - e1 - e2 is even."""
    low = _SECTOR_STARTS[(s1, s2)]
    return two_m >= low and (two_m - low) % 2 == 0


def _l2(two_m: int, mu: DeformationParams) -> float:
    """l^2 = 4 m (m + mu1 + mu2) of a 2m already checked; 4m = 2 (2m) and m = 2m / 2 are exact."""
    return 2.0 * two_m * (0.5 * two_m + mu.total)


@dataclass(frozen=True)
class AngularQuantum:
    """Angular sector label: parities, the integer 2m, and derived data; ``m`` gives m as a Fraction."""

    s1: int
    s2: int
    two_m: int
    e1: int
    e2: int
    l2: float

    @classmethod
    def build(cls, s1: int, s2: int, m, mu: DeformationParams) -> "AngularQuantum":
        start, two_m = sector_start(s1, s2), _two_m(m)  # sector_start refuses a parity other than the integer +1 or -1
        if not _holds(s1, s2, two_m):
            raise RepresentationError(
                f"m = {Fraction(two_m, 2)} is not in the ({s1:+d}, {s2:+d}) sector, "
                f"whose m are {start}, {start + 1}, {start + 2}, ..."
            )
        return cls._of(s1, s2, two_m, mu)

    @classmethod
    def _of(cls, s1: int, s2: int, two_m: int, mu: DeformationParams) -> "AngularQuantum":
        """Label of a (sector, 2m) known to be valid, built without checking it again."""
        return cls(s1, s2, two_m, (1 - s1) // 2, (1 - s2) // 2, _l2(two_m, mu))

    @property
    def m(self) -> Fraction:
        """The quantum number m = 2m / 2, exact."""
        return Fraction(self.two_m, 2)

    @property
    def degree(self) -> int:
        """Polynomial degree m - (e1 + e2) / 2 of the Jacobi factor."""
        return (self.two_m - self.e1 - self.e2) // 2


def angular_norm(q: AngularQuantum, mu: DeformationParams) -> float:
    """Normalization constant of the angular eigenfunction of the sector described by q.

    Its half-integers m +- (e1 +- e2)/2 are formed from the integer 2m, so
    each is exact in float.
    """
    two_m, e1, e2, j = q.two_m, q.e1, q.e2, q.degree
    if two_m == 0:
        # (2m + mu1 + mu2) Gamma(m + mu1 + mu2) collapses to Gamma(mu1 + mu2 + 1),
        # which stays finite as mu1 + mu2 -> 0.
        ln_head = log_gamma(mu.total + 1.0)
    else:
        ln_head = math.log(two_m + mu.total) + log_gamma(0.5 * (two_m + e1 + e2) + mu.total)
    ln_sq = (
        ln_head
        + log_gamma(j + 1.0)
        - math.log(2.0)
        - log_gamma(0.5 * (two_m + e1 - e2) + mu.mu1 + 0.5)
        - log_gamma(0.5 * (two_m + e2 - e1) + mu.mu2 + 0.5)
    )
    try:
        return math.exp(0.5 * ln_sq)
    except OverflowError:
        raise DomainError(f"the angular norm overflows at m = {two_m / 2}, mu = ({mu.mu1}, {mu.mu2})") from None


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
        _check_integer(self.nr, "nr", most=_MAX_QUANTUM)
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
    return _k(_two_m(m), mu)


def _k(two_m: int, mu: DeformationParams) -> float:
    """k = m + (mu1 + mu2 + 1) / 2 of a 2m already checked; m = 2m / 2 is exact."""
    return 0.5 * two_m + 0.5 * (mu.total + 1.0)


def _level_energy(level: int, mu: DeformationParams) -> float:
    """Energy of the level 2 (nr + m) = level; the integer part is exact."""
    return float(level + 1) + mu.mu1 + mu.mu2


def energy(nr: int, m, mu: DeformationParams) -> float:
    """Eigenvalue E = 2 (nr + m) + mu1 + mu2 + 1, with 2 (nr + m) held exact."""
    _check_integer(nr, "nr", most=_MAX_QUANTUM)
    return _level_energy(2 * int(nr) + _two_m(m), mu)


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


def _sector_walk(top: int) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """(2m, sectors) for 2m = 0 .. top, with the (s1, s2) of every sector that holds 2m in ascending order.

    No sector starts past 2m = 2, so the four shared lists of 2m = 0 .. 3 serve every 2m by its parity.
    """
    held = [[pair for pair in _SECTOR_STARTS if _holds(*pair, two_m)] for two_m in range(4)]
    for two_m in range(top + 1):
        yield two_m, held[min(two_m, 2 + two_m % 2)]


def _sector_labels(top: int, mu: DeformationParams) -> Iterator[tuple[int, AngularQuantum]]:
    """(2m, label) of every (sector, m) of ``_sector_walk(top)``, in its (2m, s1, s2) order, each built unchecked."""
    return ((two_m, AngularQuantum._of(s1, s2, two_m, mu)) for two_m, pairs in _sector_walk(top) for s1, s2 in pairs)


def enumerate_states(emax: float, mu: DeformationParams) -> list[StateLabel]:
    """All states with energy <= emax, sorted by (energy, m, nr, s1, s2).

    The energy depends on the level 2 (nr + m) = L alone, and L holds one
    state per sector that holds 2m, in (s1, s2) order, for 2m = L mod 2, ...,
    L and nr = (L - 2m) / 2: walked level by level, they need no sort.  One
    AngularQuantum, built unchecked by ``AngularQuantum._of``, and one k serve
    every nr of a (sector, m), and one RadialQuantum serves both sectors that
    share an (m, nr).  Raises DomainError, before any state is built, when
    the count exceeds MAX_STATES.
    """
    top = _top_level(emax, mu)
    labels = [[AngularQuantum._of(s1, s2, two_m, mu) for s1, s2 in pairs] for two_m, pairs in _sector_walk(top)]
    ks = [_k(two_m, mu) for two_m in range(top + 1)]
    out: list[StateLabel] = []
    for level in range(top + 1):
        e = _level_energy(level, mu)
        for two_m in range(level % 2, level + 1, 2):
            radial = RadialQuantum(nr=(level - two_m) // 2, k=ks[two_m])
            for ang in labels[two_m]:
                out.append(StateLabel(angular=ang, radial=radial, energy=e))
    return out
