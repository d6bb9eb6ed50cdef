"""Radial coherent states built on the raising/lowering structure.

A coherent state of the representation with parameter k > 0 is the disk-labelled
superposition

    |xi> = (1 - |xi|^2)^k  sum_n  sqrt(Gamma(n + 2k) / (n! Gamma(2k))) xi^n |k, n>,

with |xi| < 1.  The Sturmian |k, n> carries the norm sqrt(2 n! / Gamma(n + 2k)),
so the Gamma ratios cancel: the radial profile is the Laguerre generating
function sum_n xi^n L_n^(2k-1)(r^2) times N r^s exp(-r^2 / 2), with
N = sqrt(2 (1 - |xi|^2)^(2k) / Gamma(2k)) and s = 2k - mu1 - mu2 - 1, and it
sums to the closed form

    Psi(r) = N (1 - xi)^(-2k) r^s exp[(r^2 / 2) (xi + 1) / (xi - 1)].

Each form adds the logarithms of its factors, including the principal logarithm
of 1 - xi, before one exponential: no factor under- or overflows alone, and no
square-root branch is chosen after the fact, which keeps the closed form equal
to the series on the whole disk.

Harmonic time evolution acts by rotating the disk label, xi -> xi e^(-2 i tau /
hbar), times the global phase e^(-2 i k tau / hbar), so |Psi|^2 is periodic in
tau with period pi * hbar.

The xi-independent Laguerre rows L_n^(2k-1)(r^2) are shared between calls from
one bounded ``functools`` cache of read-only tables, keyed by (2k, term count,
grid); a series over more than 2**16 values builds its table for itself alone.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .basis import DeformationParams, _check_integer, _check_k, as_quantum_m, k_of, log_gamma
from .errors import DomainError, SingularityError
from .specfun import _MAX_RADIAL_POINTS, _touches_origin, laguerre_all

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
        _check_k(self.k)


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
    """Number of series terms so the first omitted coefficient is below tol; ``DomainError`` past 20,000."""
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    return _nterms_for(abs(p.xi), 2.0 * p.k, tol)


@functools.lru_cache(maxsize=64)
def _nterms_for(axi: float, two_k: float, tol: float) -> int:
    """``auto_nterms`` at |xi| = axi and 2k = two_k; a verify run asks for the same few dozens of times."""
    if axi == 0.0:
        return 1
    ln_axi = math.log(axi)
    lg_2k = log_gamma(two_k)
    ln_tol = math.log(tol)
    for n in range(5, 20000):
        bound = 0.5 * (math.lgamma(n + two_k) - math.lgamma(n + 1.0) - lg_2k) + n * ln_axi
        if bound < ln_tol:
            return n + 1
    raise DomainError(f"no coherent series of at most 20000 terms meets tol = {tol} at |xi| = {axi}, k = {two_k / 2}")


def _ln_norm(p: CoherentParams) -> float:
    """ln N = (ln 2 + 2k ln(1 - |xi|^2) - ln Gamma(2k)) / 2, the log-norm both forms share."""
    return 0.5 * (math.log(2.0) + 2.0 * p.k * math.log1p(-abs(p.xi) ** 2) - log_gamma(2.0 * p.k))


def _envelope(r: np.ndarray, ln_pref: complex, power: float, c: complex) -> np.ndarray:
    """exp(ln_pref + power ln r + c r^2) in one exponential; r^0 is 1 at r = 0 too."""
    if _touches_origin(r) and power < 0:
        raise SingularityError("evaluation at r = 0 hits a negative power of r")
    with np.errstate(divide="ignore"):  # ln 0 = -inf: a positive power gives exp(-inf) = 0
        ln_r = 0.0 if power == 0.0 else np.log(r)
    return np.exp(ln_pref + power * ln_r + c * (r * r))


def _radial_exponent(p: CoherentParams, mu: DeformationParams) -> float:
    """The power 2k - mu1 - mu2 - 1 of r, exactly 0 where 2k == mu1 + mu2 + 1 (the m = 0 sector)."""
    # There the difference can round to -4e-16, a negative power at r = 0.
    two_k = 2.0 * p.k
    return 0.0 if two_k == mu.total + 1.0 else two_k - mu.total - 1.0


# Tables of more than this many Laguerre values are built for their call
# alone, so the cache holds at most 20 * 2**16 values (10 MB) of rows.
_CACHED_TABLE_VALUES = 1 << 16


def _sturmian_table(two_k: float, nterms: int, x: np.ndarray) -> np.ndarray:
    """The xi-independent rows L_n^(2k-1)(x) of the series for n < nterms at x = r^2."""
    if nterms * x.size > _CACHED_TABLE_VALUES:
        return laguerre_all(nterms - 1, two_k - 1.0, x)
    return _cached_table(two_k, nterms, x.tobytes())


# A warm verify run looks up 17 fixed (2k, nterms, grid) keys and one that
# changes with mu: fewer than 18 tables would miss on every run.
@functools.lru_cache(maxsize=20)
def _cached_table(two_k: float, nterms: int, x_bytes: bytes) -> np.ndarray:
    """``_sturmian_table`` at x given as its float64 bytes, read-only."""
    polys = laguerre_all(nterms - 1, two_k - 1.0, np.frombuffer(x_bytes))
    polys.flags.writeable = False  # the cache shares it with every caller
    return polys


def _series_values(
    arr: np.ndarray,
    p: CoherentParams,
    mu: DeformationParams,
    nterms: int,
    term_phase: np.ndarray | None = None,
) -> np.ndarray:
    """Partial-sum values of the coherent superposition on a radius array of any shape."""
    # Checked before the cache, where 10.0 would find the table of 10.
    _check_integer(nterms, "nterms (top polynomial degree + 1)", 1)
    flat = arr.ravel()
    # The envelope refuses a negative or non-finite r before the table would take it.
    envelope = _envelope(flat, _ln_norm(p), _radial_exponent(p, mu), -0.5)
    polys = _sturmian_table(2.0 * p.k, nterms, flat * flat)
    coeffs = complex(p.xi) ** np.arange(nterms)
    if term_phase is not None:
        coeffs = coeffs * term_phase
    # One sequential order for every grid size: numpy sums a single column
    # pairwise but a block row by row, so a point alone would differ from itself in a grid.
    terms = coeffs[:, None] * polys
    series = np.cumsum(terms, axis=0, out=terms)[-1]
    return (envelope * series).reshape(arr.shape)


def coherent_series(r, p: CoherentParams, mu: DeformationParams, nterms: int | None = None):
    """Coherent-state radial values by explicit basis summation.

    An explicit ``nterms`` is a partial sum taken as given, unchecked against
    any tol; only ``nterms=None`` goes through ``auto_nterms`` and its refusal.
    """
    if nterms is None:
        nterms = auto_nterms(p)
    vals = _series_values(np.asarray(r, dtype=float), p, mu, nterms)
    if vals.ndim == 0:
        return complex(vals)
    return vals


def _closed_values(r, p: CoherentParams, power: float):
    """Closed-form coherent values with the radial factor r^power."""
    xi = complex(p.xi)
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    ln_pref = _ln_norm(p) - 2.0 * p.k * np.log(1.0 - xi)
    vals = _envelope(arr, ln_pref, power, 0.5 * (xi + 1.0) / (xi - 1.0))
    if np.ndim(r) == 0:
        return complex(vals[0])
    return vals


def coherent_closed(r, p: CoherentParams, mu: DeformationParams):
    """Coherent-state radial values from the resummed closed form."""
    return _closed_values(r, p, _radial_exponent(p, mu))


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
    Raises DomainError when the rule would pass the radial quadratures' bound
    of 1,000,000 points, as it does from about xi = -0.9999997 at k = 1.
    """
    xi = complex(p.xi)
    beta = (1.0 - abs(xi) ** 2) / abs(1.0 - xi) ** 2
    rmax = max(12.0, math.sqrt((80.0 + 8.0 * p.k) / beta) + 2.0)
    # 16 ceil(2.5 rmax) passes the bound exactly when 2.5 rmax passes a
    # sixteenth of it; an rmax that overflowed to infinity does too.
    if not 2.5 * rmax <= _MAX_RADIAL_POINTS / 16:
        raise DomainError(
            f"the norm quadrature of xi = {xi}, k = {p.k} needs more than "
            f"{_MAX_RADIAL_POINTS} radial points (rmax = {rmax:.6g})"
        )
    npoints = int(max(400, 16 * math.ceil(2.5 * rmax)))
    return (rmax, npoints)
