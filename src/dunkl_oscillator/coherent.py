"""Radial coherent states built on the raising/lowering structure.

A coherent state of the representation with parameter k > 0 is the disk-labelled
superposition

    |xi> = (1 - |xi|^2)^k  sum_n  sqrt(Gamma(n + 2k) / (n! Gamma(2k))) xi^n |k, n>,

with |xi| < 1.  The radial profile of this state sums to the closed form

    Psi(r) = N(xi, k) r^(2k - mu1 - mu2 - 1) exp[(r^2 / 2) (xi + 1) / (xi - 1)],

whose prefactor is evaluated fully inside one exponential (including the
principal logarithm of 1 - xi) so that no square-root branch is chosen after
the fact; this keeps the closed form equal to the series on the whole disk.

Harmonic time evolution acts by rotating the disk label, xi -> xi e^(-2 i tau /
hbar), times the global phase e^(-2 i k tau / hbar), so |Psi|^2 is periodic in
tau with period pi * hbar.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .basis import as_quantum_m, k_of
from .errors import DomainError, RepresentationError
from .profiles import DeformationParams, _rpow
from .specfun import laguerre_all, log_gamma

__all__ = [
    "CoherentParams",
    "EvolutionParams",
    "auto_nterms",
    "coherent_series",
    "coherent_closed",
    "normal_form",
    "evolve_parameter",
    "coherent_evolved",
    "series_evolution_crosscheck",
    "suggested_norm_quadrature",
]


@dataclass(frozen=True)
class CoherentParams:
    """Disk label xi (|xi| < 1) and representation parameter k > 0."""

    xi: complex
    k: float

    def __post_init__(self):
        object.__setattr__(self, "xi", complex(self.xi))
        object.__setattr__(self, "k", float(self.k))
        if not abs(self.xi) < 1.0:
            raise DomainError(f"|xi| must be < 1, got |{self.xi}| = {abs(self.xi)}")
        if not self.k > 0.0:
            raise RepresentationError(f"k must be positive, got {self.k}")


@dataclass(frozen=True)
class DisplacementNormalForm:
    """Disk coordinate zeta and weight log-factor eta of the displacement."""

    zeta: complex
    eta: float


@dataclass(frozen=True)
class EvolutionParams:
    """Evolution time tau in units with oscillator frequency 1."""

    tau: float
    hbar: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.tau):
            raise DomainError(f"tau must be finite, got {self.tau}")
        if not (self.hbar > 0.0 and math.isfinite(self.hbar)):
            raise DomainError(f"hbar must be positive and finite, got {self.hbar}")


def auto_nterms(p: CoherentParams, tol: float = 1e-14) -> int:
    """Number of series terms so the first omitted coefficient is below tol."""
    axi = abs(p.xi)
    if axi == 0.0:
        return 1
    two_k = 2.0 * p.k
    ln_axi = math.log(axi)
    lg_2k = log_gamma(two_k)
    n = 1
    while n < 20000:
        bound = 0.5 * (log_gamma(n + two_k) - log_gamma(n + 1.0) - lg_2k) + n * ln_axi
        if n >= 5 and bound < math.log(tol):
            return n + 1
        n += 1
    return 20000


def _series_values(
    arr: np.ndarray,
    p: CoherentParams,
    mu: DeformationParams,
    nterms: int,
    term_phase: np.ndarray | None = None,
) -> np.ndarray:
    """Partial-sum values of the coherent superposition on a radius array."""
    if nterms < 1:
        raise DomainError(f"nterms must be at least 1, got {nterms}")
    two_k = 2.0 * p.k
    xi = complex(p.xi)
    x = arr * arr
    polys = laguerre_all(nterms - 1, two_k - 1.0, x)
    polys = np.atleast_2d(polys)
    degrees = np.arange(nterms)
    lg_n2k = np.array([log_gamma(n + two_k) for n in degrees])
    lg_nf = np.array([log_gamma(n + 1.0) for n in degrees])
    # Disk-series weight sqrt(Gamma(n+2k)/(n! Gamma(2k))) xi^n combined with the
    # orthonormal radial profile's own norm sqrt(2 n! / Gamma(n+2k)): the Gamma
    # ratios cancel exactly in the log domain before exponentiation.
    weight = np.exp(0.5 * (lg_n2k - lg_nf - log_gamma(two_k))) * xi**degrees
    sturm_norm = np.exp(0.5 * (math.log(2.0) + lg_nf - lg_n2k))
    coeffs = weight * sturm_norm
    if term_phase is not None:
        coeffs = coeffs * term_phase
    axi = abs(xi)
    pref = (1.0 - axi * axi) ** p.k
    radial_power = _rpow(arr, two_k - mu.total - 1.0)
    return pref * radial_power * np.exp(-0.5 * x) * (coeffs[:, None] * polys).sum(axis=0)


def coherent_series(r, p: CoherentParams, mu: DeformationParams, nterms: int | None = None):
    """Coherent-state radial values by explicit basis summation."""
    if nterms is None:
        nterms = auto_nterms(p)
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    vals = _series_values(arr, p, mu, nterms)
    if np.ndim(r) == 0:
        return complex(vals[0])
    return vals


def _closed_values(r, p: CoherentParams, power: float):
    """Closed-form coherent values with the radial factor r^power."""
    xi = complex(p.xi)
    k = p.k
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    ln_real = 0.5 * (math.log(2.0) + 2.0 * k * math.log1p(-abs(xi) ** 2) - log_gamma(2.0 * k))
    pref = np.exp(ln_real - 2.0 * k * np.log(1.0 - xi))
    gauss = np.exp((0.5 * (xi + 1.0) / (xi - 1.0)) * arr * arr)
    vals = pref * _rpow(arr, power) * gauss
    if np.ndim(r) == 0:
        return complex(vals[0])
    return vals


def coherent_closed(r, p: CoherentParams, mu: DeformationParams):
    """Coherent-state radial values from the resummed closed form."""
    return _closed_values(r, p, 2.0 * p.k - mu.total - 1.0)


def normal_form(amplitude: complex) -> DisplacementNormalForm:
    """Disk coordinate and weight factor of the displacement with any finite amplitude.

    zeta = amplitude tanh|amplitude| / |amplitude|, eta = ln(1 - |zeta|^2) = -2 ln cosh|amplitude|.
    """
    amplitude = complex(amplitude)
    axi = abs(amplitude)
    if not math.isfinite(axi):
        raise DomainError(f"displacement amplitude must be finite, got {amplitude}")
    zeta = amplitude * (math.tanh(axi) / axi) if axi != 0.0 else 0.0j
    # ln(1 - tanh^2 a) cancels as tanh a -> 1; ln cosh a = a - ln 2 + log1p(e^(-2a)) cancels near a = 0.
    if axi < 1.0:
        eta = math.log1p(-abs(zeta) ** 2)
    else:
        eta = -2.0 * (axi - math.log(2.0) + math.log1p(math.exp(-2.0 * axi)))
    return DisplacementNormalForm(zeta=zeta, eta=eta)


def evolve_parameter(p: CoherentParams, t: EvolutionParams) -> tuple[complex, complex]:
    """Rotated disk label and global phase after evolving for time tau."""
    angle = 2.0 * t.tau / t.hbar
    return (complex(p.xi) * cmath.exp(-1j * angle), cmath.exp(-1j * p.k * angle))


def coherent_evolved(r, p: CoherentParams, t: EvolutionParams, m, mu: DeformationParams):
    """Time-evolved coherent profile for the sector with quantum number m."""
    frac = as_quantum_m(m)
    k_expected = k_of(frac, mu)
    if abs(p.k - k_expected) > 1e-12:
        raise DomainError(
            f"k = {p.k} does not match m = {frac} with mu = ({mu.mu1}, {mu.mu2}); "
            f"expected k = {k_expected}"
        )
    xi_t, phase = evolve_parameter(p, t)
    # 2k - mu1 - mu2 - 1 is the label 2m, taken exactly: in floats it can round
    # below zero for m = 0 and make r = 0 a negative power.
    return phase * _closed_values(r, CoherentParams(xi=xi_t, k=p.k), float(2 * frac))


def series_evolution_crosscheck(
    p: CoherentParams,
    t: EvolutionParams,
    m,
    mu: DeformationParams,
    nterms: int = 300,
    grid: np.ndarray | None = None,
) -> float:
    """Sup-norm gap between term-by-term evolution and the rotated closed form."""
    if grid is None:
        grid = np.linspace(0.05, 3.0, 60)
    grid = np.asarray(grid, dtype=float)
    degrees = np.arange(nterms)
    term_phase = np.exp(-2j * (p.k + degrees) * t.tau / t.hbar)
    series = _series_values(grid, p, mu, nterms, term_phase=term_phase)
    closed = coherent_evolved(grid, p, t, m, mu)
    return float(np.max(np.abs(series - closed)))


def suggested_norm_quadrature(p: CoherentParams) -> tuple[float, int]:
    """Radial cutoff and point count adequate for norm integrals of this state.

    The density decays like exp(-beta r^2) with beta = (1 - |xi|^2)/|1 - xi|^2,
    which becomes slow as xi approaches -1; the cutoff grows like 1/sqrt(beta).
    """
    xi = complex(p.xi)
    beta = (1.0 - abs(xi) ** 2) / abs(1.0 - xi) ** 2
    rmax = max(12.0, math.sqrt((80.0 + 8.0 * p.k) / beta) + 2.0)
    npoints = int(max(400, 16 * math.ceil(2.5 * rmax)))
    return (rmax, npoints)
