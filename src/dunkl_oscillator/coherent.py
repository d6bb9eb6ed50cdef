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

The closed form is the one public evaluator.  The series is ``verify``'s
private oracle for it: ``_auto_nterms`` ends it at the first n >= 5 whose
log-weight ln sqrt(Gamma(n + 2k) / (n! Gamma(2k))) + n ln|xi| is below
ln 1e-14, by one bisection on each call, and ``_series_values`` sums that many
terms.  The Laguerre rows L_n^(2k-1)(r^2) are the module's one cache, a bounded
``functools`` cache of read-only tables keyed by (2k, term count, grid).
"""

from __future__ import annotations

import bisect
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


_SERIES_TOL = 1e-14  # the largest first omitted coefficient ``_auto_nterms`` leaves in a series


def _auto_nterms(p: CoherentParams) -> int:
    """Number of series terms so the first omitted coefficient is below 1e-14; ``DomainError`` past 20,000.

    The step of the log-weight f(n), ln(|xi|) + ln((n + 2k)/(n + 1))/2, is negative for 2k < 1 and falls
    with n for 2k >= 1, so once f(5) >= ln 1e-14 the test f(n) < ln 1e-14 reads False .. False, True .. True.
    """
    axi, two_k = abs(p.xi), 2.0 * p.k
    if axi == 0.0:
        return 1
    ln_axi, lg_2k, ln_tol = math.log(axi), log_gamma(two_k), math.log(_SERIES_TOL)

    def below(n: int) -> bool:
        return 0.5 * (math.lgamma(n + two_k) - math.lgamma(n + 1.0) - lg_2k) + n * ln_axi < ln_tol

    n = 5 if below(5) else 5 + bisect.bisect_left(range(5, 20000), True, key=below)
    if n == 20000:
        raise DomainError(
            f"no coherent series of at most 20000 terms meets tol = {_SERIES_TOL} at |xi| = {axi}, k = {two_k / 2}"
        )
    return n + 1


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


# A warm verify run looks up 17 fixed (2k, nterms, grid) keys and one that
# changes with mu: fewer than 18 tables would miss on every run.  Its largest
# is 300 x 60 values, so 20 tables hold at most 2.9 MB.
@functools.lru_cache(maxsize=20)
def _cached_table(two_k: float, nterms: int, x_bytes: bytes) -> np.ndarray:
    """The xi-independent rows L_n^(2k-1)(x), n < nterms, at x = r^2 given as its float64 bytes; read-only."""
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
    # The envelope refuses a negative or non-finite r before the table would take it.
    envelope = _envelope(arr, _ln_norm(p), _r_power(2.0 * p.k, mu), -0.5)
    # Where the envelope underflowed the value is exactly 0 and no table column
    # is built: there the Laguerre values can overflow first, and 0 * inf is NaN.
    live = envelope != 0.0
    polys = _cached_table(2.0 * p.k, nterms, np.square(arr[live]).tobytes())
    coeffs = p.xi ** np.arange(nterms)
    if term_phase is not None:
        coeffs = coeffs * term_phase
    # One sequential order for every grid size: numpy sums a single column
    # pairwise but a block row by row, so a point alone would differ from itself in a grid.
    terms = coeffs[:, None] * polys
    series = np.cumsum(terms, axis=0, out=terms)[-1]
    values = np.zeros(arr.shape, dtype=complex)
    values[live] = envelope[live] * series
    return values


def _closed_values(r, p: CoherentParams, power: float):
    """Closed-form coherent values with the radial factor r^power."""
    ln_pref = _ln_norm(p) - 2.0 * p.k * np.log(1.0 - p.xi)
    vals = _envelope(np.asarray(r, dtype=float), ln_pref, power, 0.5 * (p.xi + 1.0) / (p.xi - 1.0))
    return vals if vals.ndim else complex(vals)


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
