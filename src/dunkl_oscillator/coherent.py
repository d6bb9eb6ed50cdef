"""Radial coherent states built on the raising/lowering structure.

A coherent state of the representation with parameter k > 0 is the disk-labelled
superposition

    |xi> = (1 - |xi|^2)^k  sum_n  sqrt(Gamma(n + 2k) / (n! Gamma(2k))) xi^n |k, n>,

with |xi| < 1.  The Sturmian |k, n> carries the norm sqrt(2 n! / Gamma(n + 2k)),
so the Gamma ratios cancel: the radial profile is the Laguerre generating
function sum_n xi^n L_n^(2k-1)(r^2) times N r^s exp(-r^2 / 2), with
N = sqrt(2 (1 - |xi|^2)^(2k) / Gamma(2k)) and s = 2k - (mu1 + mu2 + 1), the
Sturmians' own power from ``basis._r_power`` (exactly 0 at m = 0), and it
sums to the closed form

    Psi(r) = N (1 - xi)^(-2k) r^s exp[(r^2 / 2) (xi + 1) / (xi - 1)].

Each form adds the logarithms of its factors, including the principal logarithm
of 1 - xi, before one exponential: no factor under- or overflows alone, and no
square-root branch is chosen after the fact, which keeps the closed form equal
to the series on the whole disk.  Where the real part of that exponent is below
ln of the smallest subnormal, the exponential is exactly 0, with no numpy
warning, also where c r^2 overflowed near r = sqrt(float max); the series
there is exactly 0 too, with no table column built for such a point.

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
from fractions import Fraction

import numpy as np

from .basis import DeformationParams, _check_integer, _check_k, _k, _r_power, _two_m, log_gamma
from .errors import DomainError
from .specfun import _check_radius, laguerre_all

__all__ = [
    "CoherentParams",
    "EvolutionParams",
    "auto_nterms",
    "coherent_series",
    "coherent_closed",
    "normal_form",
    "evolve_parameter",
    "coherent_evolved",
]

_LN_MAX = math.log(np.finfo(float).max)  # the envelope's exp overflows past this exponent
_LN_TINY = math.log(np.finfo(float).smallest_subnormal)  # and is 0 below this one


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


# The largest first omitted coefficient ``auto_nterms`` leaves in a series.
_SERIES_TOL = 1e-14


def auto_nterms(p: CoherentParams) -> int:
    """Number of series terms so the first omitted coefficient is below 1e-14; ``DomainError`` past 20,000."""
    return _nterms_for(abs(p.xi), 2.0 * p.k)


@functools.lru_cache(maxsize=64)
def _nterms_for(axi: float, two_k: float) -> int:
    """``auto_nterms`` at |xi| = axi and 2k = two_k; a verify run asks for the same few dozens of times."""
    if axi == 0.0:
        return 1
    ln_axi = math.log(axi)
    lg_2k = log_gamma(two_k)
    ln_tol = math.log(_SERIES_TOL)
    for n in range(5, 20000):
        bound = 0.5 * (math.lgamma(n + two_k) - math.lgamma(n + 1.0) - lg_2k) + n * ln_axi
        if bound < ln_tol:
            return n + 1
    raise DomainError(
        f"no coherent series of at most 20000 terms meets tol = {_SERIES_TOL} at |xi| = {axi}, k = {two_k / 2}"
    )


def _ln_norm(p: CoherentParams) -> float:
    """ln N = (ln 2 + 2k ln(1 - |xi|^2) - ln Gamma(2k)) / 2, the log-norm both forms share."""
    return 0.5 * (math.log(2.0) + 2.0 * p.k * math.log1p(-abs(p.xi) ** 2) - log_gamma(2.0 * p.k))


def _envelope(r: np.ndarray, ln_pref: complex, power: float, c: complex) -> np.ndarray:
    """exp(ln_pref + power ln r + c r^2) in one exponential; r^0 is 1 at r = 0 too, and an underflow exactly 0."""
    _check_radius(r, power < 0)
    # ln 0 = -inf: a positive power gives exp(-inf) = 0.  c r^2 overflows only
    # where its real part puts |Psi| below the smallest subnormal.
    with np.errstate(divide="ignore", over="ignore"):
        ln_r = 0.0 if power == 0.0 else np.log(r)
        exponent = ln_pref + power * ln_r + c * (r * r)
    over = exponent.real > _LN_MAX
    if over.any():
        raise DomainError(f"the coherent state overflows at r = {r[over][0]} with the power r^{power}")
    under = exponent.real < _LN_TINY
    if under.any():
        return np.exp(exponent, out=np.zeros_like(exponent), where=~under)
    return np.exp(exponent)


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
    envelope = _envelope(flat, _ln_norm(p), _r_power(2.0 * p.k, mu), -0.5)
    # Where the envelope underflowed the value is exactly 0 and no table column
    # is built: there the Laguerre values can overflow first, and 0 * inf is NaN.
    live = envelope != 0.0
    live_r = flat[live]
    polys = _sturmian_table(2.0 * p.k, nterms, live_r * live_r)
    coeffs = p.xi ** np.arange(nterms)
    if term_phase is not None:
        coeffs = coeffs * term_phase
    # One sequential order for every grid size: numpy sums a single column
    # pairwise but a block row by row, so a point alone would differ from itself in a grid.
    terms = coeffs[:, None] * polys
    series = np.cumsum(terms, axis=0, out=terms)[-1]
    values = np.zeros(flat.shape, dtype=complex)
    values[live] = envelope[live] * series
    return values.reshape(arr.shape)


def coherent_series(r, p: CoherentParams, mu: DeformationParams):
    """Coherent-state radial values by explicit basis summation over ``auto_nterms(p)`` terms, or its refusal."""
    vals = _series_values(np.asarray(r, dtype=float), p, mu, auto_nterms(p))
    if vals.ndim == 0:
        return complex(vals)
    return vals


def _closed_values(r, p: CoherentParams, power: float):
    """Closed-form coherent values with the radial factor r^power."""
    ln_pref = _ln_norm(p) - 2.0 * p.k * np.log(1.0 - p.xi)
    vals = _envelope(np.asarray(r, dtype=float), ln_pref, power, 0.5 * (p.xi + 1.0) / (p.xi - 1.0))
    if vals.ndim == 0:
        return complex(vals)
    return vals


def coherent_closed(r, p: CoherentParams, mu: DeformationParams):
    """Coherent-state radial values from the resummed closed form."""
    return _closed_values(r, p, _r_power(2.0 * p.k, mu))


def normal_form(amplitude: complex) -> DisplacementNormalForm:
    """Disk coordinate and weight factor of the displacement; ``DomainError`` if eta overflows.

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
        if not math.isfinite(eta):
            raise DomainError(f"eta = -2 ln cosh|amplitude| overflows at displacement amplitude {amplitude}")
    return DisplacementNormalForm(zeta=zeta, eta=eta)


def evolve_parameter(p: CoherentParams, t: EvolutionParams) -> tuple[complex, complex]:
    """Rotated disk label and global phase after evolving for time tau; ``DomainError`` if the phase overflows."""
    angle = 2.0 * t.tau / t.hbar
    if not math.isfinite(p.k * angle):
        raise DomainError(f"the phase k 2 tau / hbar overflows at tau = {t.tau}, k = {p.k}, hbar = {t.hbar}")
    return (p.xi * cmath.exp(-1j * angle), cmath.exp(-1j * p.k * angle))


def coherent_evolved(r, p: CoherentParams, t: EvolutionParams, m, mu: DeformationParams):
    """Time-evolved coherent profile for the sector with quantum number m."""
    two_m = _two_m(m)
    k_expected = _k(two_m, mu)
    # Relative to k as well: past k of about 4,500 one ulp of k exceeds 1e-12.
    if not math.isclose(p.k, k_expected, rel_tol=1e-12, abs_tol=1e-12):
        raise DomainError(
            f"k = {p.k} does not match m = {Fraction(two_m, 2)} with mu = ({mu.mu1}, {mu.mu2}); "
            f"expected k = {k_expected}"
        )
    xi_t, phase = evolve_parameter(p, t)
    # The power of r is the label 2m, taken exactly rather than from k, so the
    # CLI's coherent documents keep their bytes.
    return phase * _closed_values(r, CoherentParams(xi=xi_t, k=p.k), float(two_m))
