"""Named self-verification checks over the whole library.

Each check yields the residuals of its cases (smaller is better); the check's
residual is the largest absolute value among them, NaN if any of them is NaN,
and is compared to a named tolerance.  Checks are grouped into suites
(angular, radial, algebra, coherent); ``run_checks`` executes a suite serially
and deterministically — randomized inputs derive from per-check seeds.

Cases at a constant mu (the reference pairs ``_MU_PAIRS``, mu = 0) and the
mu-free cases depend only on the code, so each is computed once per process
and its worst residual kept; the cases at a run's own mu and seed are always
computed afresh, even when that mu equals a constant pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
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
    _sector_labels,
    angular_norm,
    angular_wavefunction,
    energy,
    enumerate_states,
    k_of,
    radial_sturmian,
    separation_constant,
    substitute_u,
)
from .dunkl_ops import apply_angular_operator, apply_hamiltonian, apply_radial_hamiltonian
from .errors import DomainError
from .profiles import GaussLaguerreSum, _polar_plane, angular_grid, residual_grid
from .specfun import angular_gram, laguerre_all, radial_gram, radial_inner_product

__all__ = ["CheckResult", "available_checks", "run_checks"]


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
    vanish; ``np.max`` propagates it and the check fails.
    """
    return float(np.max([np.max(np.abs(r)) for r in residuals]))


@functools.cache
def _pinned(cases: Callable[..., Iterable], *args) -> float:
    """The worst residual of ``cases(*args)``, computed once per process.

    For cases that read nothing but their arguments (never a run's mu or
    seed): their residual depends only on the code.  The max of these maxima
    is the max over all cases, NaN included, so a check's residual is the same
    as when every case is yielded.  A case that raises is not cached.
    """
    return _worst(cases(*args))


def _pinned_then_run(cases: Callable[[DeformationParams], Iterable], pairs, mu: DeformationParams) -> Iterator:
    """The pinned worst of cases at each constant pair, then the cases at the run's mu, never looked up."""
    for pair in pairs:
        yield _pinned(cases, DeformationParams(*pair))
    yield from cases(mu)


def _register(name: str, suite: str, tolerance: float):
    def wrap(fn):
        _REGISTRY.append(_Check(name=name, suite=suite, tolerance=tolerance, fn=fn))
        return fn

    return wrap


_MU_PAIRS = ((0.0, 0.0), (0.5, 0.5), (0.3, 1.2))


def _angular_gram_cases(mu: DeformationParams) -> Iterator:
    fns = [angular_wavefunction(q, mu) for _, q in _sector_labels(8, mu)]
    yield angular_gram(fns, mu) - np.eye(len(fns))


@_register("angular_gram_identity", "angular", 1e-9)
def _check_angular_gram(ctx: VerifyContext) -> Iterator:
    return _pinned_then_run(_angular_gram_cases, _MU_PAIRS, ctx.mu)


@_register("angular_ground_norm_limit", "angular", 1e-10)
def _check_angular_ground_norm(ctx: VerifyContext) -> Iterator:
    # The m = 0 constant must hit 1/sqrt(2 pi) exactly at mu = 0 and stay
    # smooth arbitrarily close to it (no 0 * Gamma(0) indeterminacy).
    target = 1.0 / math.sqrt(2.0 * math.pi)
    for eps in (0.0, 1e-12, 1e-13):
        mu = DeformationParams(eps, eps)
        yield angular_norm(AngularQuantum.build(1, 1, 0, mu), mu) - target


def _angular_eigen_cases(mu: DeformationParams) -> Iterator:
    grid = angular_grid(64)
    for _, q in _sector_labels(6, mu):
        phi_fn = angular_wavefunction(q, mu)
        image = apply_angular_operator(phi_fn, mu)
        yield image(grid) - 0.5 * q.l2 * phi_fn(grid)


@_register("angular_eigen_residual", "angular", 1e-8)
def _check_angular_eigen(ctx: VerifyContext) -> Iterator:
    return _pinned_then_run(_angular_eigen_cases, _MU_PAIRS, ctx.mu)


@_register("angular_reflection_parity", "angular", 1e-12)
def _check_angular_parity(ctx: VerifyContext) -> Iterator:
    grid = angular_grid(64)
    for _, q in _sector_labels(6, ctx.mu):
        phi_fn = angular_wavefunction(q, ctx.mu)
        base = phi_fn(grid)
        yield phi_fn(np.pi - grid) - q.s1 * base
        yield phi_fn(-grid) - q.s2 * base


_M_SAMPLES = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))


def _sturmians(mu: DeformationParams, ns: Iterable[int], ms=_M_SAMPLES) -> Iterator:
    """The Sturmian cases (m, l2, q, R) of |k, n>, sector m outer and excitation n inner."""
    for m in ms:
        l2 = separation_constant(m, mu)
        for n in ns:
            q = RadialQuantum.from_m(n, m, mu)
            yield m, l2, q, radial_sturmian(q, mu)


def _radial_gram_cases(mu: DeformationParams) -> Iterator:
    for m in _M_SAMPLES:
        fns = [R for *_, R in _sturmians(mu, range(7), (m,))]
        yield radial_gram(fns, mu) - np.eye(len(fns))


@_register("radial_gram_identity", "radial", 1e-9)
def _check_radial_gram(ctx: VerifyContext) -> Iterator:
    return _pinned_then_run(_radial_gram_cases, ((0.0, 0.0), (0.5, 0.5)), ctx.mu)


def _radial_eigen_cases(mu: DeformationParams) -> Iterator:
    grid = residual_grid()
    for m, l2, q, R in _sturmians(mu, range(7), _M_SAMPLES + (Fraction(3),)):
        image = apply_radial_hamiltonian(R, mu, l2)
        yield image(grid) - energy(q.nr, m, mu) * R(grid)


@_register("radial_eigen_residual", "radial", 1e-8)
def _check_radial_eigen(ctx: VerifyContext) -> Iterator:
    return _pinned_then_run(_radial_eigen_cases, ((0.0, 0.0),), ctx.mu)


@_register("radial_substitution_roundtrip", "radial", 1e-12)
def _check_substitution_roundtrip(ctx: VerifyContext) -> Iterator:
    grid = residual_grid()
    for *_, R in _sturmians(ctx.mu, (1,)):
        back = substitute_u(substitute_u(R, ctx.mu, "r_to_u"), ctx.mu, "u_to_r")
        yield back(grid) - R(grid)


@_register("radial_flat_picture_eigen", "radial", 1e-9)
def _check_flat_picture(ctx: VerifyContext) -> Iterator:
    grid = residual_grid()
    for m, l2, q, R in _sturmians(ctx.mu, range(4)):
        U = substitute_u(R, ctx.mu, "r_to_u")
        image = su11.apply_B0(U, l2, ctx.mu)
        yield image(grid) - 0.5 * energy(q.nr, m, ctx.mu) * U(grid)


@_register("spectrum_energy_values", "radial", 1e-12)
def _check_energy_values(ctx: VerifyContext) -> Iterator:
    yield energy(0, 0, DeformationParams(0.0, 0.0)) - 1.0
    yield energy(2, 1, DeformationParams(0.25, 0.75)) - 8.0
    yield energy(0, Fraction(1, 2), DeformationParams(0.0, 0.0)) - 2.0
    for nr in (1, 2, 3):
        for m in (Fraction(0), Fraction(1, 2), Fraction(3)):
            yield energy(nr, m, ctx.mu) - energy(nr - 1, m + 1, ctx.mu)


def _degeneracy_cases() -> Iterator:
    mu0 = DeformationParams(0.0, 0.0)
    states = enumerate_states(3.0, mu0)
    energies = sorted(st.energy for st in states)
    level3 = sum(1 for st in states if abs(st.energy - 3.0) < 1e-9)
    yield float(energies != [1.0, 2.0, 2.0, 3.0, 3.0, 3.0])
    yield float(level3 != 3)
    yield float(len(enumerate_states(0.5, mu0)) > 0)


@_register("spectrum_degeneracy", "radial", 0.5)
def _check_degeneracy(ctx: VerifyContext) -> Iterator:
    yield _pinned(_degeneracy_cases)


def _plain_laguerre(n: int, alpha_int: int, x: np.ndarray) -> np.ndarray:
    """Integer-coefficient Laguerre polynomial by its explicit binomial series."""
    out = np.zeros_like(x)
    for i in range(n + 1):
        out = out + (-1) ** i * math.comb(n + alpha_int, n - i) * x**i / math.factorial(i)
    return out


def _mu_zero_cases() -> Iterator:
    mu0 = DeformationParams(0.0, 0.0)
    grid = residual_grid(50, 0.05, 8.0)
    ms = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))
    for m, _, q, R in _sturmians(mu0, range(5), ms):
        n, ell = q.nr, int(2 * m)
        norm = math.sqrt(2.0 * math.factorial(n) / math.factorial(n + ell))
        ref = norm * grid**ell * np.exp(-0.5 * grid * grid) * _plain_laguerre(n, ell, grid * grid)
        yield R(grid) - ref


@_register("mu_zero_reduction", "radial", 1e-12)
def _check_mu_zero_reduction(ctx: VerifyContext) -> Iterator:
    yield _pinned(_mu_zero_cases)


_CARTESIAN_STATES = (
    (1, 1, Fraction(0), 0),
    (1, 1, Fraction(1), 1),
    (-1, -1, Fraction(1), 0),
    (1, -1, Fraction(1, 2), 1),
    (-1, 1, Fraction(3, 2), 0),
)


@_register("hamiltonian_cartesian_residual", "radial", 1e-12)
def _check_cartesian_hamiltonian(ctx: VerifyContext) -> Iterator:
    pts = np.array([0.31, 0.77, 1.43, 2.1])
    xs, ys = np.meshgrid(pts, pts * 0.83 + 0.11)
    # The last two points lie on x = 0 and y = 0, where the parity limits of D_x^2 and D_y^2 apply.
    xs = np.concatenate([xs.ravel(), -xs.ravel(), [0.0, 0.9]])
    ys = np.concatenate([ys.ravel(), ys.ravel(), [0.9, 0.0]])
    for s1, s2, m, nr in _CARTESIAN_STATES:
        q = AngularQuantum.build(s1, s2, m, ctx.mu)
        R = radial_sturmian(RadialQuantum.from_m(nr, m, ctx.mu), ctx.mu)
        f = _polar_plane(R, angular_wavefunction(q, ctx.mu), (s1, s2))
        image = apply_hamiltonian(f, ctx.mu)
        yield image(xs, ys) - energy(nr, m, ctx.mu) * f(xs, ys)


def _ladder_check(which: str, ns: Iterable[int], step: int):
    """A_which |k, n> against its matrix element times |k, n + step>."""

    def check(ctx: VerifyContext) -> Iterator:
        grid = residual_grid()
        for m, l2, q, R in _sturmians(ctx.mu, ns):
            coeff = su11.ladder_coefficients(q, which)
            image = su11.apply_A(R, which, ctx.mu, l2)
            if step:
                R = radial_sturmian(RadialQuantum.from_m(q.nr + step, m, ctx.mu), ctx.mu)
            yield image(grid) - coeff * R(grid)

    return check


_register("ladder_raise", "algebra", 1e-7)(_ladder_check("+", range(5), 1))
_register("ladder_lower", "algebra", 1e-7)(_ladder_check("-", range(1, 6), -1))
_register("ladder_diagonal", "algebra", 1e-7)(_ladder_check("0", range(5), 0))


@_register("lowest_weight_annihilation", "algebra", 1e-9)
def _check_lowest_weight(ctx: VerifyContext) -> Iterator:
    grid = residual_grid()
    for _, l2, _, R in _sturmians(ctx.mu, (0,)):
        image = su11.apply_A(R, "-", ctx.mu, l2)
        yield image(grid) / np.max(np.abs(R(grid)))


def _random_profiles(seed_parts: tuple[int, ...], count: int) -> list[GaussLaguerreSum]:
    rng = np.random.default_rng(seed_parts)
    out = []
    for _ in range(count):
        coeffs = rng.uniform(-1.0, 1.0, size=rng.integers(3, 7))
        out.append(GaussLaguerreSum.gaussian_polynomial(coeffs))
    return out


@_register("commutator_closure", "algebra", 1e-6)
def _check_commutators(ctx: VerifyContext) -> Iterator:
    grid = residual_grid()
    for idx, profile in enumerate(_random_profiles((ctx.seed, 101), 10)):
        l2 = float(idx % 3)
        for pair in ("0+", "0-", "-+"):
            yield su11.commutator_residual(pair, profile, ctx.mu, l2, grid)


@_register("casimir_scalar", "algebra", 1e-7)
def _check_casimir(ctx: VerifyContext) -> Iterator:
    grid = residual_grid()
    for _, l2, q, R in _sturmians(ctx.mu, (0, 2)):
        yield su11.casimir_check(R, q.k, ctx.mu, l2, grid)


@_register("half_hamiltonian_identity", "algebra", 1e-12)
def _check_half_hamiltonian(ctx: VerifyContext) -> Iterator:
    # A0 and H_r share one operator body, so this compares two coefficient sets.
    grid = residual_grid()
    for idx, profile in enumerate(_random_profiles((ctx.seed, 202), 6)):
        l2 = float((idx % 3) + idx * 0.25)
        diag = su11.apply_A(profile, "0", ctx.mu, l2)
        halfh = apply_radial_hamiltonian(profile, ctx.mu, l2)
        yield diag(grid) - 0.5 * halfh(grid)


@_register("factorization_identity", "algebra", 1e-8)
def _check_factorization(ctx: VerifyContext) -> Iterator:
    grid = residual_grid()
    for m, l2, q, R in _sturmians(ctx.mu, range(4)):
        U = substitute_u(R, ctx.mu, "r_to_u")
        E = energy(q.nr, m, ctx.mu)
        for branch in ("upper", "lower"):
            yield su11.factorization_residual(U, E, l2, ctx.mu, branch, grid)


@_register("factorization_constants", "algebra", 1e-12)
def _check_factorization_constants(ctx: VerifyContext) -> Iterator:
    mu0 = DeformationParams(0.0, 0.0)
    yield su11.schrodinger_factorize(1.0, 0.0, mu0, "upper").g - (-3.5)
    yield su11.factorization_product_eigenvalue(3.0, 0.0, mu0, "upper") - 4.0


@_register("flat_weighted_conjugation", "algebra", 1e-10)
def _check_conjugation(ctx: VerifyContext) -> Iterator:
    grid = residual_grid()
    for _, l2, _, R in _sturmians(ctx.mu, (0, 3)):
        U = substitute_u(R, ctx.mu, "r_to_u")
        via_flat = su11.apply_B0(U, l2, ctx.mu)
        via_weighted = substitute_u(su11.apply_A(R, "0", ctx.mu, l2), ctx.mu, "r_to_u")
        yield via_flat(grid) - via_weighted(grid)


@_register("bargmann_roots", "algebra", 1e-12)
def _check_bargmann(ctx: VerifyContext) -> Iterator:
    for m in _M_SAMPLES:
        l2 = separation_constant(m, ctx.mu)
        target = 0.25 * (ctx.mu.total**2 + l2 - 1.0)
        k_plus, k_minus = su11.bargmann_index(m, ctx.mu)
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
    """The radial norm of psi minus 1, on the quadrature suggested for p."""
    rule = co.suggested_norm_quadrature(p)
    return radial_inner_product(lambda r: np.abs(psi(r)) ** 2, np.ones_like, mu, *rule) - 1.0


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


def _generating_function_cases() -> Iterator:
    x = np.linspace(0.0, 3.0, 30)
    for alpha in (-0.3, 0.0, 1.7):
        polys = laguerre_all(80, alpha, x)
        for t in (0.4, -0.6):
            powers = t ** np.arange(81)
            series = (powers[:, None] * polys).sum(axis=0)
            yield series - (1.0 - t) ** (-alpha - 1.0) * np.exp(-x * t / (1.0 - t))


@_register("laguerre_generating_function", "coherent", 1e-10)
def _check_generating_function(ctx: VerifyContext) -> Iterator:
    yield _pinned(_generating_function_cases)


def _evolution_sector(ctx: VerifyContext) -> tuple[Fraction, float]:
    m = Fraction(1, 2)
    k = k_of(m, ctx.mu)
    return m, k


@_register("evolution_crosscheck", "coherent", 1e-9)
def _check_evolution_crosscheck(ctx: VerifyContext) -> Iterator:
    m, k = _evolution_sector(ctx)
    p = co.CoherentParams(xi=0.5, k=k)
    for tau in (0.7, 2.0):
        yield co.series_evolution_crosscheck(p, co.EvolutionParams(tau), m, ctx.mu, nterms=300)


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


def available_checks(suite: str = "all") -> list[str]:
    """Names of the checks in a suite, in registry order."""
    return [c.name for c in _selected(suite)]


def run_checks(
    suite: str = "all",
    mu: DeformationParams | None = None,
    seed: int = 0,
    tol_overrides: dict[str, float] | None = None,
) -> list[CheckResult]:
    """Run a suite of checks serially, in registry order; results are sorted by check name."""
    mu = DeformationParams.of((0.5, 0.5) if mu is None else mu)
    _check_integer(seed, "seed")
    overrides = dict(tol_overrides or {})
    for name, value in overrides.items():
        if name not in available_checks():
            raise DomainError(f"unknown check name in tolerance override: {name!r}")
        if not (value > 0.0 and math.isfinite(value)):
            raise DomainError(f"tolerance override must be positive and finite, got {name}={value!r}")
    ctx = VerifyContext(mu=mu, seed=seed)
    results = []
    for check in _selected(suite):
        tolerance = overrides.get(check.name, check.tolerance)
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
                tolerance=tolerance,
                passed=(error is None and residual <= tolerance),
                error=error,
            )
        )
    return sorted(results, key=lambda res: res.name)
