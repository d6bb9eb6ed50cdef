"""Orthogonal polynomials, the radial inner product and Gram matrices.

Polynomial evaluation uses forward three-term recurrences in the degree, which
are stable for the parameter ranges that occur here (alpha, beta > -1).  The
Laguerre recurrence is written once, as one row sweep that ``laguerre`` reads
to its last row and ``laguerre_all`` stores row by row.  The
integrals are against the deformed plane measure split into its radial part
r^(1+2*mu1+2*mu2) dr and angular part |cos|^(2*mu1)|sin|^(2*mu2) dphi.  Both
use one Gauss-Jacobi rule built for the weight (Golub-Welsch): the angular
rule is that rule in x = cos(2*phi), exact for the weight at every mu1, mu2 > -1/2;
the radial rule is composite Gauss-Legendre panels graded geometrically toward
r = 0, so that callables with arbitrary real powers of r cost no accuracy, with
the Gauss-Jacobi rule carrying the singular power on the innermost panel; the
panels' one Gauss-Legendre rule is built once, on first use, not at import.
``radial_inner_product`` integrates one product f*g; the Gram matrices of a
basis evaluate each function once as a row of V and form V diag(w) V^T.
Each takes mu as a ``DeformationParams`` or a plain pair (mu1, mu2), refused
by the one rule of ``DeformationParams`` that every layer above applies; it,
``log_gamma`` and the integer rule for degrees and node counts live in the
numpy-free ``basis``.  The radial term sums and the coherent states apply the
one radius rule here, which also refuses r = 0 under a negative power of r.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .basis import DeformationParams, _check_integer
from .errors import DomainError, SingularityError

__all__ = [
    "laguerre",
    "laguerre_all",
    "jacobi",
    "radial_inner_product",
    "radial_gram",
    "angular_gram",
]

_PANEL_POINTS = 16
_GRADING_RATIO = 0.2
# The most nodes of a radial rule, and per quadrant of an angular rule, whose
# dense Golub-Welsch matrix is 128 MB at 4096 nodes.
_MAX_RADIAL_POINTS = 1_000_000
_MAX_ANGULAR_POINTS = 4096


def _finite(x) -> np.ndarray:
    """x as a float array, once none of its values is NaN or infinite."""
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError(f"x must be finite, got {arr[~np.isfinite(arr)][0]}")
    return arr


_MAX_RADIUS = math.sqrt(np.finfo(float).max)  # about 1.34e154, the largest r whose r^2 is finite


def _check_radius(r: np.ndarray, negative_power: bool) -> None:
    """Refuse radii r that are negative, non-finite (NaN included) or past _MAX_RADIUS, or 0 under a negative power."""
    lo, hi = r.min(initial=math.inf), r.max(initial=0.0)
    if not (lo >= 0.0 and hi < math.inf):
        raise DomainError(f"r must be non-negative and finite, got {r[~((r >= 0.0) & (r < math.inf))][0]}")
    if hi > _MAX_RADIUS:
        raise DomainError(f"r must not exceed {_MAX_RADIUS}, past which r^2 overflows, got {r[r > _MAX_RADIUS][0]}")
    if lo == 0.0 and negative_power:
        raise SingularityError("evaluation at r = 0 hits a negative power of r")


def _check_laguerre(n: int, alpha: float) -> None:
    _check_integer(n, "polynomial degree")
    if not -1.0 < alpha < math.inf:
        raise DomainError(f"Laguerre parameter alpha must be finite and exceed -1, got {alpha}")


def _laguerre_rows(nmax: int, alpha: float, arr: np.ndarray):
    """L_0^alpha .. L_nmax^alpha at arr as the forward recurrence makes them, two rows alive at a time."""
    p_prev = np.ones_like(arr)
    yield p_prev
    if nmax == 0:
        return
    p = 1.0 + alpha - arr
    yield p
    for k in range(1, nmax):
        p, p_prev = ((2.0 * k + 1.0 + alpha - arr) * p - (k + alpha) * p_prev) / (k + 1.0), p
        yield p


def laguerre(n: int, alpha: float, x):
    """Generalized Laguerre polynomial L_n^alpha(x), scalar or elementwise."""
    _check_laguerre(n, alpha)
    arr = _finite(x)
    for p in _laguerre_rows(n, alpha, arr):
        pass
    return p.item() if arr.ndim == 0 else p


def laguerre_all(nmax: int, alpha: float, x) -> np.ndarray:
    """All of L_0^alpha .. L_nmax^alpha at x in one recurrence sweep, shape (nmax+1, ...)."""
    _check_laguerre(nmax, alpha)
    arr = np.atleast_1d(_finite(x))
    out = np.empty((nmax + 1,) + arr.shape)
    for k, p in enumerate(_laguerre_rows(nmax, alpha, arr)):
        out[k] = p
    return out


def jacobi(n: int, alpha: float, beta: float, x):
    """Jacobi polynomial P_n^(alpha,beta)(x), scalar or elementwise."""
    _check_integer(n, "polynomial degree")
    if not (-1.0 < alpha < math.inf and -1.0 < beta < math.inf):
        raise DomainError(f"Jacobi parameters must be finite and exceed -1, got alpha={alpha}, beta={beta}")
    arr = _finite(x)
    scalar = arr.ndim == 0
    p_prev = np.ones_like(arr)
    if n == 0:
        return p_prev.item() if scalar else p_prev
    p = 0.5 * ((alpha + beta + 2.0) * arr + (alpha - beta))
    for m in range(2, n + 1):
        s = 2.0 * m + alpha + beta
        c1 = 2.0 * m * (m + alpha + beta) * (s - 2.0)
        c2 = (s - 1.0) * (alpha * alpha - beta * beta)
        c3 = (s - 1.0) * s * (s - 2.0)
        c4 = 2.0 * (m + alpha - 1.0) * (m + beta - 1.0) * s
        p, p_prev = ((c2 + c3 * arr) * p - c4 * p_prev) / c1, p
    return p.item() if scalar else p


@functools.lru_cache(maxsize=64)
def _gauss_jacobi(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes and weights on [-1, 1] for (1-x)^a (1+x)^b, a, b > -1 (Golub-Welsch)."""
    k = np.arange(1.0, n)
    s = 2.0 * k + a + b
    # (k+a+b)/(s-1) and the k = 0 diagonal entry are written in their cancelled
    # forms at k = 1 and k = 0, where they are 0/0 for a+b = -1 and a+b = 0.
    ratio = np.concatenate([[1.0], (k[1:] + a + b) / (s[1:] - 1.0)])
    off = np.sqrt(4.0 * k * (k + a) * (k + b) * ratio / (s * s * (s + 1.0)))
    diag = np.concatenate([[(b - a) / (a + b + 2.0)], (b * b - a * a) / (s * (s + 2.0))])
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
    mass = 2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0) / math.gamma(a + b + 2.0)
    w = mass * v[0] ** 2
    x.flags.writeable = w.flags.writeable = False  # the cache shares them with every caller
    return x, w


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """The _PANEL_POINTS-point Gauss-Legendre rule on [-1, 1], built on first use, not at import."""
    x, w = np.polynomial.legendre.leggauss(_PANEL_POINTS)
    x.flags.writeable = w.flags.writeable = False  # the cache shares them with every caller
    return x, w


@functools.lru_cache(maxsize=64)
def _radial_panels(rmax: float, npoints: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Width r1 of the innermost panel [0, r1], and the Gauss-Legendre nodes and weights beyond it.

    The panels on [r1, rmax] are graded geometrically toward r1, so that
    callables with arbitrary real powers of r cost no accuracy.
    """
    n_panels = max(2, int(round(npoints / _PANEL_POINTS)))
    graded = min(6, n_panels // 3)
    bulk_edges = np.linspace(0.0, rmax, n_panels - graded + 1)
    edges = np.concatenate([bulk_edges[1] * _GRADING_RATIO ** np.arange(graded, 0, -1), bulk_edges[1:]])
    x, w = _legendre_rule()
    half = 0.5 * np.diff(edges)[:, None]
    r, w = (edges[:-1, None] + half * (x + 1.0)).ravel(), (half * w).ravel()
    r.flags.writeable = w.flags.writeable = False  # the cache shares them with every caller
    return float(edges[0]), r, w


def _radial_measure(mu, rmax: float, npoints: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of the radial rule on [0, rmax] and its weights times r^(1+2*mu1+2*mu2).

    On [0, r1] a Gauss-Jacobi rule carries the non-integer part q of the power
    p = 1+2*mu1+2*mu2 exactly; the integer part r^(p-q) is applied at its nodes.
    """
    mu = DeformationParams.of(mu)
    if not 0.0 < rmax < math.inf:
        raise DomainError(f"rmax must be finite and positive, got {rmax}")
    _check_integer(npoints, "npoints", _PANEL_POINTS, _MAX_RADIAL_POINTS)
    r1, r, w = _radial_panels(float(rmax), int(npoints))
    p = 1.0 + 2.0 * mu.total
    try:
        math.pow(r[-1], p)  # the largest r^p of the rule; r ** p overflows with it
    except OverflowError:
        raise DomainError(f"the radial weight r^p overflows at mu1 + mu2 = {mu.total}, rmax = {rmax}") from None
    q = p - max(0.0, math.floor(p))
    x, w_in = _gauss_jacobi(_PANEL_POINTS, 0.0, q)
    r_in = 0.5 * r1 * (x + 1.0)
    w_in = w_in * (0.5 * r1) ** (q + 1.0) * r_in ** (p - q)
    return np.concatenate([r_in, r]), np.concatenate([w_in, w * r**p])


def _angular_measure(mu, npoints: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of the angular rule on [0, 2*pi) and its weights times |cos|^(2*mu1)|sin|^(2*mu2).

    With x = cos(2*phi) the measure on each quadrant is
    2^(-mu1-mu2-1) (1-x)^(mu2-1/2) (1+x)^(mu1-1/2) dx: one Gauss-Jacobi rule in x,
    mirrored to phi, pi-phi, pi+phi and 2*pi-phi.
    """
    mu = DeformationParams.of(mu)
    _check_integer(npoints, "npoints", 32, _MAX_ANGULAR_POINTS)
    try:
        x, w = _gauss_jacobi(int(npoints), mu.mu2 - 0.5, mu.mu1 - 0.5)
    except OverflowError:  # the weight mass's Gamma functions, past mu1 + mu2 of about 170
        raise DomainError(f"the angular quadrature's weight mass overflows at mu = ({mu.mu1}, {mu.mu2})") from None
    # Eigenvalues may round just past +-1 when a weight exponent nears -1.
    phi = 0.5 * np.arccos(np.clip(x, -1.0, 1.0))
    nodes = np.concatenate([phi, np.pi - phi, np.pi + phi, 2.0 * np.pi - phi])
    return nodes, np.tile(w * 2.0 ** (-mu.mu1 - mu.mu2 - 1.0), 4)


def _gram(fns, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # Each function is evaluated once: row i of V holds fns[i] on the nodes.
    rows = [np.broadcast_to(f(nodes), nodes.shape) for f in fns]
    if not rows:
        raise DomainError("a Gram matrix needs at least one function")
    values = np.stack(rows)
    return (values * weights) @ values.T


def radial_inner_product(f, g, mu, rmax: float = 12.0, npoints: int = 400):
    """Integral of f*g against r^(1+2*mu1+2*mu2) dr over [0, rmax]."""
    nodes, weights = _radial_measure(mu, rmax, npoints)
    vals = np.asarray(f(nodes)) * np.asarray(g(nodes))
    total = np.sum(weights * vals)
    return complex(total) if np.iscomplexobj(vals) else float(total)


def radial_gram(fns, mu, rmax: float = 12.0, npoints: int = 400) -> np.ndarray:
    """Matrix of ``radial_inner_product(fns[i], fns[j], mu, rmax, npoints)`` over all i, j."""
    return _gram(fns, *_radial_measure(mu, rmax, npoints))


def angular_gram(fns, mu, npoints: int = 64) -> np.ndarray:
    """Matrix of the integrals of fns[i]*fns[j] against |cos|^(2*mu1) |sin|^(2*mu2) dphi over [0, 2*pi)."""
    return _gram(fns, *_angular_measure(mu, npoints))
