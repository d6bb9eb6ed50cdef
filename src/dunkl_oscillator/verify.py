"""Named self-verification checks over the whole library.

Each check yields the residuals of its cases (smaller is better); the check's
residual is the largest absolute value among them, NaN if any of them is NaN,
and is compared to a named tolerance.  Checks are grouped into suites
(angular, radial, algebra, coherent); ``run_checks`` executes a suite serially
and deterministically — randomized inputs derive from per-check seeds.

Every case is computed afresh on each run, and a check that reads mu runs its
cases at the run's mu only, so a report describes the mu it was asked for.

Three pointwise checks are scaled: ``angular_eigen_residual`` and
``angular_reflection_parity`` divide each case by max|Phi| on the angular
grid, and ``hamiltonian_cartesian_residual`` each product's residual by
max|f| and each polar state's span defect by max|R Phi| at its 34 points,
so a residual is relative to the state's own size (max|Phi| is below 1 at
mu = 0 and 9.4e20 at mu = (60, 60)), never to its energy E, which tends to
0 as mu1 + mu2 tends to -1.

The Cartesian check works on the separable eigenstates h_n1(x) h_n2(y) of
the 1-D Dunkl oscillators, whose partials are exact: it applies
``apply_hamiltonian`` to the 9 products of its five states' levels and
parities, and requires each polar state R(r) Phi(phi) to lie in the span of
its level's products (a least-squares fit).

Eleven checks compare two radial term sums (the ladder elements, the lowest
weight, the brackets, the Casimir, the radial and flat-picture eigen-equations,
the factorization products, the flat/weighted conjugation and A0 = H_r/2) on
no grid: their residual, ``_defect``, is the largest monomial coefficient
(``GaussLaguerreSum._monomials``) of the difference over the largest of the
check's input, so a Sturmian of order 1e-40 on every grid (as at
mu = (30, 30)) is held to full relative precision.  Each check builds both
sides here from the operators of ``su11`` and ``dunkl_ops``: this module is
the package's one judge of an identity.  An input whose coefficients all
underflow to 0 (as at mu = (300, 300)) has no scale, and ``_over_scale``
refuses it with a ``DomainError`` for ``_defect`` and for the pointwise
``_relative`` alike.

Two checks compute shared pieces once, for one case only:
``commutator_closure`` builds A+ R, A0 R and A- R once per profile for its
three brackets (90 radial images per run), and
``hamiltonian_cartesian_residual`` evaluates h, h' and h'' of each product's
factors once per |t|, kept in a dict of the factor (``_dunkl_hermite``), and
R and Phi once per state (64 term-sum evaluations per run).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from . import coherent as co
from . import su11
from .basis import (
    SUITES,
    AngularQuantum,
    DeformationParams,
    RadialQuantum,
    _check_integer,
    _k,
    _l2,
    _level_energy,
    _sector_labels,
    angular_norm,
    angular_wavefunction,
    energy,
    enumerate_states,
    radial_sturmian,
    substitute_u,
)
from .dunkl_ops import apply_angular_operator, apply_hamiltonian, apply_radial_hamiltonian
from .errors import DomainError
from .profiles import GaussLaguerreSum, PlaneFunction
from .specfun import _MAX_RADIAL_POINTS, angular_gram, laguerre_all, radial_gram, radial_inner_product

__all__ = ["CheckResult", "run_checks"]


@dataclass(frozen=True)
class VerifyContext:
    """Configuration shared by all checks in one run."""

    mu: DeformationParams
    seed: int = 0


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check."""

    name: str
    suite: str
    residual: float
    tolerance: float
    passed: bool
    error: str | None = None


@dataclass(frozen=True)
class _Check:
    name: str
    suite: str
    tolerance: float
    fn: Callable[[VerifyContext], Iterable]


_REGISTRY: list[_Check] = []


def _worst(residuals: Iterable) -> float:
    """Largest absolute value over all residuals (scalars or arrays), NaN if any is NaN.

    Python's ``max(0.0, nan)`` is 0.0, so a NaN case after a finite one would
    vanish; ``ndarray.max`` propagates it and the check fails.
    """
    return float(np.array([np.abs(r).max() for r in residuals]).max())


def _over_scale(residual, scale):
    """residual over scale, the size of the state it checks; a state of size 0 has no scale."""
    if scale == 0.0:
        raise DomainError("the state underflows to 0 everywhere, so its residual has no scale")
    return residual / scale


def _relative(diff: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """diff over max|ref|, the size of the state it checks."""
    return _over_scale(diff, np.abs(ref).max())


def _defect(lhs: GaussLaguerreSum, rhs: GaussLaguerreSum, ref: GaussLaguerreSum) -> float:
    """The largest |coefficient| of the ``_monomials`` of lhs - rhs over that of the check's input ref.

    Powers within 1e-9 are one monomial: a fold keys terms by float power, and (p - 1) - 1 need not be p - 2.
    """

    def largest(pairs: list) -> float:
        worst, first, total = 0.0, -math.inf, 0.0  # the monomial summed so far starts at power first
        for q, b in sorted(pairs, key=lambda pair: pair[0]) + [(math.inf, 0.0)]:
            if q - first > 1e-9:  # a new monomial; a NaN total is kept, as nothing compares above it
                if abs(total) > worst or total != total:
                    worst = abs(total)
                first, total = q, 0.0
            total += b
        return worst

    diff = lhs._monomials() + [(q, -b) for q, b in rhs._monomials()]
    return _over_scale(largest(diff), largest(ref._monomials()))


def _residual_grid(n: int = 50, lo: float = 0.05, hi: float = 10.0) -> np.ndarray:
    """Chebyshev-spaced evaluation points for pointwise operator residuals."""
    theta = np.pi * (2 * np.arange(n) + 1) / (2 * n)
    return np.sort(0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta))


def _angular_grid(n: int = 64) -> np.ndarray:
    """Points covering [0, 2 pi) while avoiding the axes phi = k pi/2."""
    return (np.arange(n) + 0.37) * (2.0 * np.pi / n)


def _register(name: str, suite: str, tolerance: float):
    def wrap(fn):
        _REGISTRY.append(_Check(name=name, suite=suite, tolerance=tolerance, fn=fn))
        return fn

    return wrap


@_register("angular_gram_identity", "angular", 1e-9)
def _check_angular_gram(ctx: VerifyContext) -> Iterator:
    fns = [angular_wavefunction(q, ctx.mu) for _, q in _sector_labels(8, ctx.mu)]
    yield angular_gram(fns, ctx.mu) - np.eye(len(fns))


@_register("angular_ground_norm_limit", "angular", 1e-10)
def _check_angular_ground_norm(ctx: VerifyContext) -> Iterator:
    # The m = 0 constant must hit 1/sqrt(2 pi) exactly at mu = 0 and stay
    # smooth arbitrarily close to it (no 0 * Gamma(0) indeterminacy).
    target = 1.0 / math.sqrt(2.0 * math.pi)
    for eps in (0.0, 1e-12, 1e-13):
        mu = DeformationParams(eps, eps)
        yield angular_norm(AngularQuantum._of(1, 1, 0, mu), mu) - target


@_register("angular_eigen_residual", "angular", 1e-8)
def _check_angular_eigen(ctx: VerifyContext) -> Iterator:
    grid = _angular_grid()
    for _, q in _sector_labels(6, ctx.mu):
        phi_fn = angular_wavefunction(q, ctx.mu)
        values = phi_fn(grid)
        image = apply_angular_operator(phi_fn, ctx.mu)
        yield _relative(image(grid) - 0.5 * q.l2 * values, values)


@_register("angular_reflection_parity", "angular", 1e-12)
def _check_angular_parity(ctx: VerifyContext) -> Iterator:
    grid = _angular_grid()
    for _, q in _sector_labels(6, ctx.mu):
        phi_fn = angular_wavefunction(q, ctx.mu)
        base = phi_fn(grid)
        yield _relative(phi_fn(np.pi - grid) - q.s1 * base, base)
        yield _relative(phi_fn(-grid) - q.s2 * base, base)


# The sector samples as 2m: m = 0, 1/2, 1 and 2.
_TWO_M_SAMPLES = (0, 1, 2, 4)


def _sturmians(mu: DeformationParams, ns: Iterable[int], two_ms=_TWO_M_SAMPLES) -> Iterator:
    """The Sturmian cases (E, l2, q, R) of |k, n>, sector 2m outer and excitation n inner."""
    for two_m in two_ms:
        l2, k = _l2(two_m, mu), _k(two_m, mu)
        for n in ns:
            q = RadialQuantum(nr=n, k=k)
            yield _level_energy(2 * n + two_m, mu), l2, q, radial_sturmian(q, mu)


@_register("radial_gram_identity", "radial", 1e-9)
def _check_radial_gram(ctx: VerifyContext) -> Iterator:
    for two_m in _TWO_M_SAMPLES:
        fns = [R for *_, R in _sturmians(ctx.mu, range(7), (two_m,))]
        yield radial_gram(fns, ctx.mu) - np.eye(len(fns))


@_register("radial_eigen_residual", "radial", 1e-8)
def _check_radial_eigen(ctx: VerifyContext) -> Iterator:
    for E, l2, _, R in _sturmians(ctx.mu, range(7), _TWO_M_SAMPLES + (6,)):
        yield _defect(apply_radial_hamiltonian(R, ctx.mu, l2), E * R, R)


@_register("radial_substitution_roundtrip", "radial", 1e-12)
def _check_substitution_roundtrip(ctx: VerifyContext) -> Iterator:
    grid = _residual_grid()
    for *_, R in _sturmians(ctx.mu, (1,)):
        back = substitute_u(substitute_u(R, ctx.mu, "r_to_u"), ctx.mu, "u_to_r")
        yield back(grid) - R(grid)


@_register("radial_flat_picture_eigen", "radial", 1e-9)
def _check_flat_picture(ctx: VerifyContext) -> Iterator:
    for E, l2, _, R in _sturmians(ctx.mu, range(4)):
        U = substitute_u(R, ctx.mu, "r_to_u")
        yield _defect(su11.apply_B0(U, l2, ctx.mu), 0.5 * E * U, U)


@_register("spectrum_energy_values", "radial", 1e-12)
def _check_energy_values(ctx: VerifyContext) -> Iterator:
    yield energy(0, 0, DeformationParams(0.0, 0.0)) - 1.0
    yield energy(2, 1, DeformationParams(0.25, 0.75)) - 8.0
    yield energy(0, 0.5, DeformationParams(0.0, 0.0)) - 2.0
    for nr in (1, 2, 3):
        for m in (0, 0.5, 3):
            yield energy(nr, m, ctx.mu) - energy(nr - 1, m + 1, ctx.mu)


@_register("spectrum_degeneracy", "radial", 0.5)
def _check_degeneracy(ctx: VerifyContext) -> Iterator:
    mu0 = DeformationParams(0.0, 0.0)
    states = enumerate_states(3.0, mu0)
    energies = sorted(st.energy for st in states)
    level3 = sum(1 for st in states if abs(st.energy - 3.0) < 1e-9)
    yield float(energies != [1.0, 2.0, 2.0, 3.0, 3.0, 3.0])
    yield float(level3 != 3)
    yield float(len(enumerate_states(0.5, mu0)) > 0)


def _plain_laguerre(n: int, alpha_int: int, x: np.ndarray) -> np.ndarray:
    """Integer-coefficient Laguerre polynomial by its explicit binomial series."""
    out = np.zeros_like(x)
    for i in range(n + 1):
        out = out + (-1) ** i * math.comb(n + alpha_int, n - i) * x**i / math.factorial(i)
    return out


@_register("mu_zero_reduction", "radial", 1e-12)
def _check_mu_zero_reduction(ctx: VerifyContext) -> Iterator:
    mu0 = DeformationParams(0.0, 0.0)
    grid = _residual_grid(hi=8.0)
    for ell in range(5):  # ell = 2m
        for _, _, q, R in _sturmians(mu0, range(5), (ell,)):
            n = q.nr
            norm = math.sqrt(2.0 * math.factorial(n) / math.factorial(n + ell))
            ref = norm * grid**ell * np.exp(-0.5 * grid * grid) * _plain_laguerre(n, ell, grid * grid)
            yield R(grid) - ref


def _dunkl_hermite(n: int, coupling: float) -> list[Callable]:
    """h_n, h_n' and h_n'' of the 1-D Dunkl oscillator, h_n(t) = t^e L^(coupling - 1/2 + e)_(n//2)(t^2) e^(-t^2/2).

    e = n mod 2.  h_n is a one-term ``GaussLaguerreSum`` in |t|; its j-th
    derivative is that sum's j-th ``derivative()`` at |t|, negated on t < 0
    when n + j is odd (there the sum is 0 at t = 0).  Values are kept per
    (j, |t|) in one dict, which needs no bound: a factor lives for one case.
    """
    sums = [GaussLaguerreSum.single(1.0, n % 2, n // 2, coupling - 0.5 + n % 2)]
    for _ in range(2):
        sums.append(sums[-1].derivative())
    values: dict[tuple, np.ndarray] = {}

    def order(j: int) -> Callable:
        def at(t: np.ndarray):
            size = np.abs(t)
            key = (j, size.shape, size.tobytes())
            v = values.get(key)
            if v is None:
                v = values[key] = sums[j](size)
            return np.where(t < 0.0, -v, v) if (n + j) % 2 else v

        return at

    return [order(j) for j in range(3)]


def _product(n1: int, n2: int, mu: DeformationParams) -> PlaneFunction:
    """h_n1(x) h_n2(y) with its exact partials: an eigenstate of H at the level n1 + n2."""
    hx, hy = _dunkl_hermite(n1, mu.mu1), _dunkl_hermite(n2, mu.mu2)

    def partial(i: int, j: int) -> Callable:
        return lambda x, y: hx[i](np.asarray(x, dtype=float)) * hy[j](np.asarray(y, dtype=float))

    parts = (partial(0, 0), partial(1, 0), partial(0, 1), partial(2, 0), partial(0, 2))
    return PlaneFunction(*parts, parity=((-1) ** n1, (-1) ** n2))


# (s1, s2, 2m, nr)
_CARTESIAN_STATES = ((1, 1, 0, 0), (1, 1, 2, 1), (-1, -1, 2, 0), (1, -1, 1, 1), (-1, 1, 3, 0))


@_register("hamiltonian_cartesian_residual", "radial", 1e-12)
def _check_cartesian_hamiltonian(ctx: VerifyContext) -> Iterator:
    pts = np.array([0.31, 0.77, 1.43, 2.1])
    xs, ys = np.meshgrid(pts, pts * 0.83 + 0.11)
    # The last two points lie on x = 0 and y = 0, where the parity limits of D_x and D_y apply.
    xs = np.concatenate([xs.ravel(), -xs.ravel(), [0.0, 0.9]])
    ys = np.concatenate([ys.ravel(), ys.ravel(), [0.9, 0.0]])
    r, phi = np.hypot(xs, ys), np.arctan2(ys, xs)
    for s1, s2, two_m, nr in _CARTESIAN_STATES:
        q = AngularQuantum._of(s1, s2, two_m, ctx.mu)
        level = 2 * nr + two_m
        columns = []
        for n1 in range(q.e1, level + 1, 2):
            f = _product(n1, level - n1, ctx.mu)
            values = f(xs, ys)
            yield _relative(apply_hamiltonian(f, ctx.mu)(xs, ys) - _level_energy(level, ctx.mu) * values, values)
            columns.append(values)
        R = radial_sturmian(RadialQuantum(nr=nr, k=_k(two_m, ctx.mu)), ctx.mu)
        state = R(r) * angular_wavefunction(q, ctx.mu)(phi)
        products = np.stack(columns, axis=1)
        coeffs = np.linalg.lstsq(products, state, rcond=None)[0]
        yield _relative(products @ coeffs - state, state)


def _ladder_check(which: str, ns: Iterable[int], step: int):
    """A_which |k, n> against its matrix element times |k, n + step>."""

    def check(ctx: VerifyContext) -> Iterator:
        for _, l2, q, R in _sturmians(ctx.mu, ns):
            coeff = su11.ladder_coefficients(q, which)
            image = su11.apply_A(R, which, ctx.mu, l2)
            target = radial_sturmian(RadialQuantum(nr=q.nr + step, k=q.k), ctx.mu) if step else R
            yield _defect(image, coeff * target, R)

    return check


_register("ladder_raise", "algebra", 1e-7)(_ladder_check("+", range(5), 1))
_register("ladder_lower", "algebra", 1e-7)(_ladder_check("-", range(1, 6), -1))
_register("ladder_diagonal", "algebra", 1e-7)(_ladder_check("0", range(5), 0))


@_register("lowest_weight_annihilation", "algebra", 1e-9)
def _check_lowest_weight(ctx: VerifyContext) -> Iterator:
    for _, l2, _, R in _sturmians(ctx.mu, (0,)):
        yield _defect(su11.apply_A(R, "-", ctx.mu, l2), GaussLaguerreSum(()), R)


def _random_profiles(seed: int, tag: int, count: int) -> list[GaussLaguerreSum]:
    """count Gaussian polynomials of 3 to 6 coefficients, each uniform on [-1, 1], drawn from (seed, tag)."""
    rng = random.Random(f"{seed}/{tag}")  # a str seed is hashed by SHA-512, not by PYTHONHASHSEED
    return [
        GaussLaguerreSum.gaussian_polynomial([rng.uniform(-1.0, 1.0) for _ in range(rng.randint(3, 6))])
        for _ in range(count)
    ]


# [X, Y] = c Z as (X, Y, c, Z): [A0, A+] = A+, [A0, A-] = -A-, [A-, A+] = 2 A0.
_BRACKETS = (("0", "+", 1.0, "+"), ("0", "-", -1.0, "-"), ("-", "+", 2.0, "0"))


@_register("commutator_closure", "algebra", 1e-6)
def _check_commutators(ctx: VerifyContext) -> Iterator:
    for idx, profile in enumerate(_random_profiles(ctx.seed, 101, 10)):
        l2 = float(idx % 3)
        images = {w: su11.apply_A(profile, w, ctx.mu, l2) for w in ("+", "0", "-")}
        for x, y, c, z in _BRACKETS:
            lhs = su11.apply_A(images[y], x, ctx.mu, l2) + (-1.0) * su11.apply_A(images[x], y, ctx.mu, l2)
            yield _defect(lhs, c * images[z], profile)


@_register("casimir_scalar", "algebra", 1e-7)
def _check_casimir(ctx: VerifyContext) -> Iterator:
    # -A+A- R + A0(A0 - 1) R = k(k-1) R, and k(k-1) = ((mu1+mu2)^2 + l2 - 1)/4.
    for _, l2, q, R in _sturmians(ctx.mu, (0, 2)):
        target = q.k * (q.k - 1.0)
        product = su11.apply_A(su11.apply_A(R, "-", ctx.mu, l2), "+", ctx.mu, l2)
        diag = su11.apply_A(R, "0", ctx.mu, l2)
        casimir = (-1.0) * product + su11.apply_A(diag, "0", ctx.mu, l2) + (-1.0) * diag
        yield _defect(casimir, target * R, R)
        yield 0.25 * (ctx.mu.total * ctx.mu.total + l2 - 1.0) - target


@_register("half_hamiltonian_identity", "algebra", 1e-12)
def _check_half_hamiltonian(ctx: VerifyContext) -> Iterator:
    # A0 and H_r share one operator body, so this compares two coefficient sets.
    for idx, profile in enumerate(_random_profiles(ctx.seed, 202, 6)):
        l2 = float((idx % 3) + idx * 0.25)
        halfh = 0.5 * apply_radial_hamiltonian(profile, ctx.mu, l2)
        yield _defect(su11.apply_A(profile, "0", ctx.mu, l2), halfh, profile)


@_register("factorization_identity", "algebra", 1e-8)
def _check_factorization(ctx: VerifyContext) -> Iterator:
    for E, l2, _, R in _sturmians(ctx.mu, range(4)):
        U = substitute_u(R, ctx.mu, "r_to_u")
        # (J- - 1/2)(J+ - 1/2) U for "upper" and (J+ + 1/2)(J- + 1/2) U for "lower".
        for branch, sign in (("upper", 1), ("lower", -1)):
            shift = -0.5 * sign
            V = su11.apply_J(U, E, sign) + shift * U
            Z = su11.apply_J(V, E, -sign) + shift * V
            yield _defect(Z, su11.factorization_product_eigenvalue(E, l2, ctx.mu, branch) * U, U)


@_register("factorization_constants", "algebra", 1e-12)
def _check_factorization_constants(ctx: VerifyContext) -> Iterator:
    mu0 = DeformationParams(0.0, 0.0)
    yield su11.schrodinger_factorize(1.0, 0.0, mu0, "upper").g - (-3.5)
    yield su11.factorization_product_eigenvalue(3.0, 0.0, mu0, "upper") - 4.0


@_register("flat_weighted_conjugation", "algebra", 1e-10)
def _check_conjugation(ctx: VerifyContext) -> Iterator:
    for _, l2, _, R in _sturmians(ctx.mu, (0, 3)):
        U = substitute_u(R, ctx.mu, "r_to_u")
        via_weighted = substitute_u(su11.apply_A(R, "0", ctx.mu, l2), ctx.mu, "r_to_u")
        yield _defect(su11.apply_B0(U, l2, ctx.mu), via_weighted, U)


@_register("bargmann_roots", "algebra", 1e-12)
def _check_bargmann(ctx: VerifyContext) -> Iterator:
    for two_m in _TWO_M_SAMPLES:
        l2 = _l2(two_m, ctx.mu)
        target = 0.25 * (ctx.mu.total**2 + l2 - 1.0)
        k_plus, k_minus = su11.bargmann_index(0.5 * two_m, ctx.mu)
        yield k_plus * (k_plus - 1.0) - target
        yield k_minus * (k_minus - 1.0) - target
        if not k_plus > 0.0:
            yield 1.0


_XI_SAMPLES = (0.5 + 0.0j, -0.8 + 0.0j, 0.3 + 0.4j, complex(0.7 * np.exp(2.2j)), -0.2 - 0.55j)
_K_SAMPLES = (0.5, 1.0, 1.5, 2.7)


def _series_gap(grid: np.ndarray, p: co.CoherentParams, mu: DeformationParams) -> np.ndarray:
    """The coherent series minus its closed form on grid, over max(1, max|closed|).

    Both forms are right to round-off, so where |Psi| is large (1e4 and more near
    r = 0 for a negative power of r) an absolute gap would count its ulps.
    """
    closed = co.coherent_closed(grid, p, mu)
    return (co.coherent_series(grid, p, mu) - closed) / max(1.0, float(np.max(np.abs(closed))))


def _norm_defect(psi: Callable, p: co.CoherentParams, mu: DeformationParams) -> float:
    """The radial norm of psi minus 1, on a cutoff and point count grown for p.

    The density decays like exp(-beta r^2) with beta = (1 - |xi|^2)/|1 - xi|^2,
    which becomes slow as xi approaches -1; the cutoff grows like 1/sqrt(beta).
    Raises DomainError when the rule would pass the radial quadratures' bound
    of 1,000,000 points, as it does from about xi = -0.9999997 at k = 1.
    """
    beta = (1.0 - abs(p.xi) ** 2) / abs(1.0 - p.xi) ** 2
    rmax = max(12.0, math.sqrt((80.0 + 8.0 * p.k) / beta) + 2.0)
    # 16 ceil(2.5 rmax) passes the bound exactly when 2.5 rmax passes a
    # sixteenth of it; an rmax that overflowed to infinity does too.
    if not 2.5 * rmax <= _MAX_RADIAL_POINTS / 16:
        raise DomainError(
            f"the norm quadrature of xi = {p.xi}, k = {p.k} needs more than "
            f"{_MAX_RADIAL_POINTS} radial points (rmax = {rmax:.6g})"
        )
    npoints = int(max(400, 16 * math.ceil(2.5 * rmax)))
    return radial_inner_product(lambda r: np.abs(psi(r)) ** 2, np.ones_like, mu, rmax, npoints) - 1.0


@_register("coherent_series_vs_closed", "coherent", 1e-10)
def _check_series_vs_closed(ctx: VerifyContext) -> Iterator:
    grid = np.linspace(0.05, 3.0, 40)
    for xi in _XI_SAMPLES:
        for k in _K_SAMPLES:
            yield _series_gap(grid, co.CoherentParams(xi=xi, k=k), ctx.mu)


@_register("coherent_branch_sampling", "coherent", 1e-10)
def _check_branch_sampling(ctx: VerifyContext) -> Iterator:
    grid = np.array([0.4, 1.3, 2.2])
    for angle in np.linspace(0.0, 2.0 * np.pi, 25, endpoint=False):
        p = co.CoherentParams(xi=0.8 * complex(np.exp(1j * angle)), k=2.7)
        yield _series_gap(grid, p, ctx.mu)


@_register("coherent_unit_norm", "coherent", 1e-9)
def _check_unit_norm(ctx: VerifyContext) -> Iterator:
    for xi in (0.0 + 0.0j, 0.5 + 0.0j, -0.8 + 0.0j, 0.48 + 0.6j):
        for k in (0.5, 1.0, 2.7):
            p = co.CoherentParams(xi=xi, k=k)
            yield _norm_defect(lambda r: co.coherent_closed(r, p, ctx.mu), p, ctx.mu)


@_register("coherent_normal_form", "coherent", 1e-14)
def _check_normal_form(ctx: VerifyContext) -> Iterator:
    for xi in _XI_SAMPLES:
        form = co.normal_form(xi)
        axi = abs(xi)
        yield abs(form.zeta) - math.tanh(axi)
        yield form.eta + 2.0 * math.log(math.cosh(axi))
        if not abs(form.zeta) < 1.0:
            yield 1.0


@_register("laguerre_generating_function", "coherent", 1e-10)
def _check_generating_function(ctx: VerifyContext) -> Iterator:
    x = np.linspace(0.0, 3.0, 30)
    for alpha in (-0.3, 0.0, 1.7):
        polys = laguerre_all(80, alpha, x)
        for t in (0.4, -0.6):
            powers = t ** np.arange(81)
            series = (powers[:, None] * polys).sum(axis=0)
            yield series - (1.0 - t) ** (-alpha - 1.0) * np.exp(-x * t / (1.0 - t))


def _evolution_sector(ctx: VerifyContext) -> tuple[float, float]:
    """The sector m = 1/2, as the float the public calls take, and its k, from 2m = 1."""
    return 0.5, _k(1, ctx.mu)


@_register("evolution_crosscheck", "coherent", 1e-9)
def _check_evolution_crosscheck(ctx: VerifyContext) -> Iterator:
    # The 300-term series, evolved term by term, against the rotated closed form on 60 radii.
    m, k = _evolution_sector(ctx)
    p = co.CoherentParams(xi=0.5, k=k)
    grid = np.linspace(0.05, 3.0, 60)
    for tau in (0.7, 2.0):
        term_phase = np.exp(-2j * (k + np.arange(300)) * tau)
        series = co._series_values(grid, p, ctx.mu, 300, term_phase=term_phase)
        yield series - co.coherent_evolved(grid, p, co.EvolutionParams(tau), m, ctx.mu)


@_register("evolution_norm_conservation", "coherent", 1e-9)
def _check_evolution_norm(ctx: VerifyContext) -> Iterator:
    m, k = _evolution_sector(ctx)
    p = co.CoherentParams(xi=0.48 + 0.6j, k=k)
    for tau in (0.3, 1.1, 2.9):
        t = co.EvolutionParams(tau)
        yield _norm_defect(lambda r: co.coherent_evolved(r, p, t, m, ctx.mu), p, ctx.mu)


@_register("evolution_periodicity", "coherent", 1e-12)
def _check_evolution_period(ctx: VerifyContext) -> Iterator:
    m, k = _evolution_sector(ctx)
    p = co.CoherentParams(xi=-0.35 + 0.2j, k=k)
    grid = np.linspace(0.1, 4.0, 25)
    for tau in (0.0, 0.9):
        base = co.coherent_evolved(grid, p, co.EvolutionParams(tau), m, ctx.mu)
        shifted = co.coherent_evolved(
            grid, p, co.EvolutionParams(tau + math.pi), m, ctx.mu
        )
        phase = complex(np.exp(-2j * math.pi * k))
        yield shifted - phase * base
        yield np.abs(shifted) - np.abs(base)


@_register("evolution_additivity", "coherent", 1e-12)
def _check_evolution_additivity(ctx: VerifyContext) -> Iterator:
    m, k = _evolution_sector(ctx)
    p = co.CoherentParams(xi=0.3 - 0.44j, k=k)
    tau1, tau2 = 0.37, 1.21
    xi_mid, phase_mid = co.evolve_parameter(p, co.EvolutionParams(tau1))
    p_mid = co.CoherentParams(xi=xi_mid, k=k)
    xi_two, phase_two = co.evolve_parameter(p_mid, co.EvolutionParams(tau2))
    xi_direct, phase_direct = co.evolve_parameter(p, co.EvolutionParams(tau1 + tau2))
    yield xi_two - xi_direct
    yield phase_mid * phase_two - phase_direct
    grid = np.linspace(0.1, 4.0, 25)
    stepped = phase_mid * co.coherent_evolved(grid, p_mid, co.EvolutionParams(tau2), m, ctx.mu)
    direct = co.coherent_evolved(grid, p, co.EvolutionParams(tau1 + tau2), m, ctx.mu)
    yield stepped - direct


def _selected(suite: str) -> list[_Check]:
    """The registered checks of a suite, in registry order."""
    if suite != "all" and suite not in SUITES:
        raise DomainError(f"suite must be one of {('all',) + SUITES}, got {suite!r}")
    return [c for c in _REGISTRY if suite == "all" or c.suite == suite]


def run_checks(suite: str = "all", mu: DeformationParams | None = None, seed: int = 0) -> list[CheckResult]:
    """Run a suite of checks serially, in registry order; results are sorted by check name.

    Each check is judged by its registered tolerance, which its result carries.
    """
    mu = DeformationParams.of((0.5, 0.5) if mu is None else mu)
    _check_integer(seed, "seed")
    ctx = VerifyContext(mu=mu, seed=seed)
    results = []
    for check in _selected(suite):
        try:
            residual = _worst(check.fn(ctx))
            error = None
        except Exception as exc:  # surface as a failed check, not a crash
            residual = float("inf")
            error = f"{type(exc).__name__}: {exc}"
        results.append(
            CheckResult(
                name=check.name,
                suite=check.suite,
                residual=residual,
                tolerance=check.tolerance,
                passed=(error is None and residual <= check.tolerance),
                error=error,
            )
        )
    return sorted(results, key=lambda res: res.name)
