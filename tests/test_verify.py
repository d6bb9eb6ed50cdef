"""Library-level behavior of the named self-check registry."""

import math
import os
import subprocess
import sys
import threading
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

import dunkl_oscillator
from dunkl_oscillator import coherent, dunkl_ops, profiles, su11, verify
from dunkl_oscillator.basis import RadialQuantum, _sector_labels, k_of
from dunkl_oscillator.dunkl_ops import apply_angular_operator
from dunkl_oscillator.errors import DomainError
from dunkl_oscillator.profiles import GaussLaguerreSum, PlaneFunction, TrigJacobiSum, angular_wavefunction, radial_sturmian
from dunkl_oscillator.specfun import DeformationParams
from dunkl_oscillator.verify import SUITES, _angular_grid, _residual_grid, run_checks


def _names(suite):
    return [c.name for c in verify._selected(suite)]


def test_available_checks_cover_all_suites():
    all_names = _names("all")
    assert len(all_names) == len(set(all_names))
    per_suite = [_names(s) for s in SUITES]
    assert all(names for names in per_suite)
    assert sorted(n for names in per_suite for n in names) == sorted(all_names)
    with pytest.raises(DomainError):
        run_checks("everything")


@pytest.mark.parametrize(
    "xi, k",
    [(-0.9999998, 1.0), (-(1.0 - 1e-12), 1.0), (-(1.0 - 1e-15), 1.0), (0.5, 1e308)],
)
def test_norm_defect_refuses_a_rule_past_the_radial_bound(xi, k):
    with pytest.raises(DomainError, match="needs more than 1000000 radial points"):
        verify._norm_defect(np.ones_like, coherent.CoherentParams(xi=xi, k=k), DeformationParams(0.5, 0.5))


def test_norm_defect_keeps_its_rules_within_the_radial_bound(monkeypatch):
    # The last xi before the bound at k = 1 still gets its rule, and every rule
    # it gives is one that radial_inner_product builds.
    rules = []
    monkeypatch.setattr(verify, "radial_inner_product", lambda f, g, mu, *rule: rules.append(rule) or 1.0)
    for xi in (-0.9999997, 0.0, 0.8j, -0.8):
        verify._norm_defect(np.ones_like, coherent.CoherentParams(xi=xi, k=1.0), DeformationParams(0.5, 0.5))
    assert all(400 <= npoints <= 1_000_000 and rmax >= 12.0 for rmax, npoints in rules)
    assert rules[0][1] > 900_000


def test_full_default_run_is_green():
    results = run_checks(suite="all")
    assert len(results) == len(verify._REGISTRY)
    assert [res.name for res in results] == sorted(res.name for res in results)
    bad = [(res.name, res.residual, res.error) for res in results if not res.passed]
    assert not bad, f"failing checks: {bad}"


def test_negative_l2_sectors_pass_below_mu_total_minus_half():
    # Every l2 check passes with l2 = 4m(m+mu1+mu2) < 0 at m = 1/2, and the
    # Gram checks pass too now that their rules are built for the weights.
    results = run_checks(suite="all", mu=(-0.45, -0.45))
    assert [res.name for res in results if not res.passed] == []
    assert all(res.error is None for res in results)


@pytest.mark.parametrize("mu", [(-0.3, -0.2), (2.36, -0.44)])
def test_full_run_is_green_with_a_negative_mu(mu):
    # Composite Gauss-Legendre panels missed the |sin|^(2*mu2) singularity here.
    results = run_checks(suite="all", mu=mu)
    assert [(res.name, res.residual) for res in results if not res.passed] == []


def test_mu_accepts_tuple_and_dataclass_equally():
    as_tuple = run_checks(suite="radial", mu=(0.3, 1.2))
    as_params = run_checks(suite="radial", mu=DeformationParams(0.3, 1.2))
    assert [(r.name, r.residual, r.passed) for r in as_tuple] == [
        (r.name, r.residual, r.passed) for r in as_params
    ]
    assert all(r.passed for r in as_tuple)


def test_repeated_runs_give_identical_residuals():
    first = run_checks(suite="angular")
    second = run_checks(suite="angular")
    assert [(r.name, r.residual) for r in first] == [(r.name, r.residual) for r in second]


def test_invalid_suite_raises():
    with pytest.raises(DomainError):
        run_checks(suite="everything")


def test_seed_changes_are_still_green():
    for seed in (0, 7):
        results = run_checks(suite="algebra", seed=seed)
        assert all(res.passed for res in results)


def test_worst_residual_propagates_nan():
    assert verify._worst([np.array([1e-3, -2.0]), 0.5, -0.25j]) == 2.0
    assert math.isnan(verify._worst([0.0, float("nan"), 1.0]))
    assert math.isnan(verify._worst([1e-16, np.array([0.0, np.nan])]))


# In both checks below the NaN case comes after finite ones: a Python
# max(worst, nan) reduction would drop it.
_NAN_MU = DeformationParams(0.3, 1.2)


def _nan_at_level_four(monkeypatch, nan_mu):
    # The level 2 (nr + m) = 4 is first reached at nr = 2, m = 0, after the
    # finite cases nr = 0 and 1 of that sector.
    real = verify._level_energy

    def level_energy(level, mu):
        return float("nan") if (mu == nan_mu and level == 4) else real(level, mu)

    monkeypatch.setattr(verify, "_level_energy", level_energy)


def _radial_eigen_with_nan_energy(monkeypatch):
    _nan_at_level_four(monkeypatch, _NAN_MU)
    return "radial_eigen_residual"


def _radial_gram_with_nan_function(monkeypatch):
    # Only in the last sector, m = 2, after the finite Grams of m = 0, 1/2 and 1.
    real = verify.radial_sturmian

    def radial_sturmian(q, mu):
        fn = real(q, mu)
        if mu == _NAN_MU and q.nr == 6 and q.k == k_of(2, mu):
            return lambda r: np.where(r == r[-1], np.nan, fn(r))
        return fn

    monkeypatch.setattr(verify, "radial_sturmian", radial_sturmian)
    return "radial_gram_identity"


@pytest.mark.parametrize("inject", [_radial_eigen_with_nan_energy, _radial_gram_with_nan_function])
def test_nan_case_after_finite_cases_fails_the_check(monkeypatch, inject):
    name = inject(monkeypatch)
    res = {r.name: r for r in run_checks(suite="radial", mu=_NAN_MU)}[name]
    assert res.error is None
    assert math.isnan(res.residual)
    assert not res.passed


def test_a_constant_case_that_raises_is_not_cached(monkeypatch):
    calls = []

    def laguerre_all(*args):
        calls.append(args)
        raise FloatingPointError("injected")

    monkeypatch.setattr(verify, "laguerre_all", laguerre_all)
    for run in (1, 2):
        res = {r.name: r for r in run_checks(suite="coherent")}["laguerre_generating_function"]
        assert res.error == "FloatingPointError: injected" and not res.passed
        assert len(calls) == run


_REFERENCE_CHECKS = ("angular_gram_identity", "angular_eigen_residual", "radial_gram_identity", "radial_eigen_residual")


@pytest.mark.parametrize("mu", [(0.0, 0.0), (0.5, 0.5), (0.3, 1.2)])
def test_gram_and_eigen_checks_pass_at_the_reference_pairs(mu):
    # A run checks its own mu only; mu = 0, the default and one unequal pair are held here.
    tolerances = {c.name: c.tolerance for c in verify._REGISTRY}
    results = {r.name: r for r in run_checks("all", mu=mu)}
    for name in _REFERENCE_CHECKS:
        assert results[name].passed and results[name].tolerance == tolerances[name], results[name]


def test_angular_eigen_residual_is_the_worst_case_at_the_runs_mu_alone():
    mu = DeformationParams(0.5, 0.5)
    grid = _angular_grid()
    worst = 0.0
    for _, q in _sector_labels(6, mu):
        phi = angular_wavefunction(q, mu)
        values = phi(grid)
        gap = apply_angular_operator(phi, mu)(grid) - 0.5 * q.l2 * values
        worst = max(worst, float(np.abs(gap).max() / np.abs(values).max()))
    (res,) = [r for r in run_checks("angular") if r.name == "angular_eigen_residual"]
    assert res.residual == worst


class _Abort(BaseException):
    pass


def test_a_raising_check_is_an_error_record_and_a_base_exception_escapes(monkeypatch):
    def fail(ctx):
        raise RuntimeError("injected")

    def after(ctx):
        yield 0.0

    def abort(ctx):
        raise _Abort

    checks = [verify._Check("fail", "radial", 1.0, fail), verify._Check("after", "radial", 1.0, after)]
    monkeypatch.setattr(verify, "_REGISTRY", checks)
    results = {res.name: res for res in run_checks("radial")}
    assert results["fail"].error == "RuntimeError: injected" and not results["fail"].passed
    assert results["after"].passed and results["after"].error is None
    monkeypatch.setattr(verify, "_REGISTRY", [verify._Check("abort", "radial", 1.0, abort)])
    with pytest.raises(_Abort):
        run_checks("radial")


def test_a_sturmian_outside_a_run_calls_laguerre_once_per_evaluation(monkeypatch):
    # The bench tracer counts one profiles.laguerre span per Sturmian
    # evaluation; no run, even one just finished at this mu and grid, may
    # leave rows behind for it to find.
    mu = DeformationParams(0.2, 0.1)
    grid = _residual_grid()
    calls = []
    real = profiles.laguerre

    def laguerre(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(profiles, "laguerre", laguerre)
    sturmian = radial_sturmian(RadialQuantum.from_m(3, Fraction(1, 2), mu), mu)
    for run_first in (False, True):
        if run_first:
            run_checks("all", mu=mu)
        for _ in range(2):
            calls.clear()
            sturmian(grid)
            assert len(calls) == 1


@pytest.mark.parametrize("seed", [-1, 1.5, "3"])
def test_seed_that_is_not_a_non_negative_integer_raises(seed):
    # A bad seed is an input error, not two failed random-profile checks.
    with pytest.raises(DomainError, match="seed must be a non-negative integer"):
        run_checks(suite="algebra", seed=seed)


_LADDERS = ("ladder_raise", "ladder_lower", "ladder_diagonal")


def test_ladder_checks_share_one_body_that_reads_the_matrix_elements(monkeypatch):
    mu = DeformationParams(0.3, 1.2)
    before = {res.name: res for res in run_checks(suite="all", mu=mu)}
    real = su11.ladder_coefficients
    monkeypatch.setattr(su11, "ladder_coefficients", lambda state, which: 1.001 * real(state, which))
    after = {res.name: res for res in run_checks(suite="all", mu=mu)}
    assert after.keys() == before.keys()
    for name in _LADDERS:
        assert before[name].passed and not after[name].passed
        assert after[name].error is None
        assert (after[name].suite, after[name].tolerance) == ("algebra", 1e-7)
    for name in after.keys() - set(_LADDERS):
        assert after[name] == before[name]


def test_residuals_do_not_depend_on_cache_history():
    # The quadrature rules, the coherent Laguerre tables and the term counts
    # are cached across calls; a fresh process and one that swept eight
    # other mu first give the same residuals.
    script = (
        "from dunkl_oscillator.verify import run_checks\n"
        "print([(r.name, repr(r.residual)) for r in run_checks('all', mu=(0.5, 0.5), seed=0)])"
    )
    src = str(Path(dunkl_oscillator.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    fresh = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert fresh.returncode == 0, fresh.stderr
    rng = np.random.default_rng(8)
    for mu1, mu2 in rng.uniform(-0.45, 3.0, size=(8, 2)):
        run_checks(suite="all", mu=(float(mu1), float(mu2)), seed=0)
    swept = [(r.name, repr(r.residual)) for r in run_checks(suite="all", mu=(0.5, 0.5), seed=0)]
    assert fresh.stdout.strip() == repr(swept)


def test_row_cache_keeps_a_run_at_a_new_mu_warm():
    # The coherent checks look up 17 Laguerre tables that no mu changes and
    # one (the evolution cross-check's k) that every mu does: a run at a
    # new mu builds that one table and finds all the others cached.
    coherent._cached_table.cache_clear()
    run_checks(suite="all", mu=(0.5, 0.5))
    before = coherent._cached_table.cache_info()
    run_checks(suite="all", mu=(1.0625, 0.8125))
    after = coherent._cached_table.cache_info()
    assert after.misses - before.misses == 1
    assert after.hits - before.hits >= 17


# --- work counts of the algebra and Cartesian checks --------------------------


def _only(monkeypatch, name):
    """Keep the one named check in the registry; return its suite."""
    (check,) = [c for c in verify._REGISTRY if c.name == name]
    monkeypatch.setattr(verify, "_REGISTRY", [check])
    return check.suite


def test_commutator_closure_builds_each_bracket_image_once(monkeypatch):
    # 10 profiles, each with A0 R, A+ R, A- R and the six A_x A_y R: 90 images.
    rows = []
    real = su11._radial_operator
    monkeypatch.setattr(su11, "_radial_operator", lambda R, row: rows.append(row) or real(R, row))
    (result,) = run_checks(_only(monkeypatch, "commutator_closure"), mu=(0.37, 1.9))
    assert result.passed
    assert len(rows) == 90


def test_cartesian_check_evaluates_each_factor_once_per_size(monkeypatch):
    # Nine products, each evaluating h, h' and h'' of its x factor once on |x|
    # and of its y factor once on |y| (a reflection keeps |t|, and the span
    # case reads the kept values): 54 radial evaluations, then R and Phi once
    # per state.  No term sum is evaluated twice on one argument.
    seen = []
    for cls in (profiles.GaussLaguerreSum, profiles.TrigJacobiSum):
        real = cls._evaluate
        monkeypatch.setattr(cls, "_evaluate", lambda self, t, real=real: seen.append((self, t.tobytes())) or real(self, t))
    (result,) = run_checks(_only(monkeypatch, "hamiltonian_cartesian_residual"), mu=(0.37, 1.9))
    assert result.passed
    kinds = [type(term_sum) for term_sum, _ in seen]
    assert kinds.count(profiles.GaussLaguerreSum) == 54 + 5 and kinds.count(profiles.TrigJacobiSum) == 5
    assert len({(id(term_sum), arg) for term_sum, arg in seen}) == len(seen)


# --- the scaled residuals of the pointwise eigen checks -------------------------


def test_angular_checks_pass_where_the_angular_functions_are_large():
    # max|Phi| reaches 2.6e6 at mu = (15, 15); absolute residuals of 1.8e-7 and 2.8e-9 failed there.
    results = run_checks("angular", mu=(15.0, 15.0))
    assert [(r.name, r.residual) for r in results if not r.passed] == []
    assert len(results) == 4


def test_cartesian_residual_sees_round_off_where_the_states_are_small(monkeypatch):
    # At mu = (80, 80) the polar states are 1e-119 to 1e-116 at the 34 points;
    # relative to them the span case reads round-off, not an absolute 1e-131.
    (result,) = run_checks(_only(monkeypatch, "hamiltonian_cartesian_residual"), mu=(80.0, 80.0))
    assert result.passed and result.residual >= 1e-16


@pytest.mark.parametrize("x", [-0.49999, -0.4999999])
def test_cartesian_residual_holds_where_the_energy_nears_zero(x, monkeypatch):
    # E = mu1 + mu2 + 1 + level tends to 0 at the ground state as mu1 + mu2 -> -1;
    # each product case is relative to max|f|, so its round-off is not divided by E.
    (result,) = run_checks(_only(monkeypatch, "hamiltonian_cartesian_residual"), mu=(x, x))
    assert result.passed and result.error is None and result.residual < 1e-13


def test_angular_eigen_residual_sees_a_1e_6_fault_in_the_mu1_coupling(monkeypatch):
    mu = (30.0, 30.0)
    clean = {r.name: r for r in run_checks("angular", mu=mu)}["angular_eigen_residual"]
    real = verify.apply_angular_operator

    def scaled(Phi, mu):
        # apply_angular_operator reads mu only as its two couplings.
        return real(Phi, DeformationParams(mu.mu1 * (1.0 + 1e-6), mu.mu2))

    monkeypatch.setattr(verify, "apply_angular_operator", scaled)
    faulty = {r.name: r for r in run_checks("angular", mu=mu)}["angular_eigen_residual"]
    assert clean.passed and not faulty.passed and faulty.error is None


@pytest.mark.parametrize("mu", [(0.5, 0.5), (-0.3, 1.2), (1.7, 0.2)])
def test_cartesian_residual_sees_a_1e_6_fault_in_the_dunkl_coupling(mu, monkeypatch):
    suite = _only(monkeypatch, "hamiltonian_cartesian_residual")
    (clean,) = run_checks(suite, mu=mu)
    real = dunkl_ops.dunkl_derivative

    def scaled(f, axis, mu):
        # apply_hamiltonian reaches the couplings only through dunkl_derivative.
        return real(f, axis, DeformationParams(mu.mu1 * (1.0 + 1e-6), mu.mu2 * (1.0 + 1e-6)))

    monkeypatch.setattr(dunkl_ops, "dunkl_derivative", scaled)
    (faulty,) = run_checks(suite, mu=mu)
    assert clean.passed and not faulty.passed and faulty.error is None and faulty.residual > 1e-8


@pytest.mark.parametrize("mu", [(0.5, 0.5), (-0.3, 1.2), (1.7, 0.2)])
def test_cartesian_residual_sees_a_1e_10_fault_in_the_level_energy(mu, monkeypatch):
    suite = _only(monkeypatch, "hamiltonian_cartesian_residual")
    (clean,) = run_checks(suite, mu=mu)
    real = verify._level_energy
    monkeypatch.setattr(verify, "_level_energy", lambda level, mu: real(level, mu) + 1e-10)
    (faulty,) = run_checks(suite, mu=mu)
    assert clean.passed and not faulty.passed and faulty.error is None and faulty.residual > 1e-11


@pytest.mark.parametrize("mu", [(0.5, 0.5), (-0.3, 1.2), (1.7, 0.2)])
def test_cartesian_span_case_sees_a_1e_6_fault_in_the_jacobi_alpha(mu, monkeypatch):
    # Only the span case reads the polar states, so it alone can see this fault.
    suite = _only(monkeypatch, "hamiltonian_cartesian_residual")
    real = verify.angular_wavefunction

    def shifted(q, mu):
        (((i, j, d, al, be), c),) = real(q, mu).terms.items()
        return TrigJacobiSum.single(c, i, j, d, al + 1e-6, be)

    monkeypatch.setattr(verify, "angular_wavefunction", shifted)
    (faulty,) = run_checks(suite, mu=mu)
    assert not faulty.passed and faulty.error is None and faulty.residual > 1e-8


# --- the Dunkl-Hermite products of the Cartesian check ---------------------------


def _mp_dunkl_hermite(n, coupling):
    """h_n(t) = t^e L^(coupling - 1/2 + e)_(n//2)(t^2) e^(-t^2/2), e = n mod 2, as an mpmath function."""
    e = n % 2
    return lambda t: t**e * mpmath.laguerre(n // 2, coupling - 0.5 + e, t * t) * mpmath.exp(-t * t / 2)


@pytest.mark.parametrize("coupling", [0.0, -0.3, 2.2])
def test_dunkl_hermite_factors_match_mpmath(coupling):
    t = np.array([-1.7, -0.4, 0.0, 0.3, 1.1, 2.6])
    for n in range(6):
        factor = verify._dunkl_hermite(n, coupling)
        reference = _mp_dunkl_hermite(n, coupling)
        for j, h in enumerate(factor):
            got = h(t)
            with mpmath.workdps(30):
                want = [float(mpmath.diff(reference, mpmath.mpf(float(v)), j)) for v in t]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14, err_msg=f"n = {n}, order {j}")
            # h_n^(j)(-t) = (-1)^(n + j) h_n^(j)(t), bit for bit; an odd one is exactly 0 at t = 0.
            assert np.array_equal(h(-t), (-1) ** (n + j) * got)
            if (n + j) % 2:
                assert got[2] == 0.0


def _mp_product(n1, n2, mu):
    hx, hy = _mp_dunkl_hermite(n1, mu.mu1), _mp_dunkl_hermite(n2, mu.mu2)
    return lambda x, y: hx(x) * hy(y)


@pytest.mark.parametrize("mu", [DeformationParams(0.3, 0.8), DeformationParams(-0.45, 2.2)], ids=["mu0", "mu1"])
@pytest.mark.parametrize("n1, n2", [(2, 2), (3, 0)], ids=["even", "odd-x"])
def test_product_partials_match_mpmath(mu, n1, n2):
    f = verify._product(n1, n2, mu)
    assert f.parity == ((-1) ** n1, (-1) ** n2)
    reference = _mp_product(n1, n2, mu)
    partials = {(0, 0): f.fn, (1, 0): f.dx, (0, 1): f.dy, (2, 0): f.dxx, (0, 2): f.dyy}
    # Off the axes in three quadrants, on the y axis, on the x axis and at the origin.
    for x, y in [(0.7, 1.2), (-1.4, 0.5), (0.9, -0.3), (0.0, 0.9), (0.0, -1.3), (1.1, 0.0), (0.0, 0.0)]:
        with mpmath.workdps(30):
            for orders, partial in partials.items():
                expected = float(mpmath.diff(reference, (x, y), orders))
                assert partial(x, y) == pytest.approx(expected, rel=1e-12, abs=1e-14), (orders, x, y)


def _bits(values):
    return [float(v).hex() for v in np.ravel(values)]


def _unkept_product(n1, n2, mu):
    """fn, dx, dy, dxx and dyy of h_n1(x) h_n2(y), each factor evaluated afresh on every call."""

    def factor(n, coupling, j):
        term_sum = profiles.derivative_of(GaussLaguerreSum.single(1.0, n % 2, n // 2, coupling - 0.5 + n % 2), j)
        return lambda t: np.where(t < 0.0, (-1) ** (n + j), 1) * term_sum(np.abs(t))

    def partial(i, j):
        hx, hy = factor(n1, mu.mu1, i), factor(n2, mu.mu2, j)
        return lambda x, y: hx(np.asarray(x, dtype=float)) * hy(np.asarray(y, dtype=float))

    return partial(0, 0), partial(1, 0), partial(0, 1), partial(2, 0), partial(0, 2)


@pytest.mark.parametrize("n1, n2", [(0, 0), (3, 2)], ids=["flat", "odd-x"])
def test_product_is_bit_identical_to_its_unkept_form(n1, n2):
    mu = DeformationParams(0.37, 1.9)
    f = verify._product(n1, n2, mu)
    reference = _unkept_product(n1, n2, mu)
    pts = np.array([0.31, -0.77, 1.43, 0.0, 0.9])
    point_sets = [(pts, pts[::-1]), (-pts, pts[::-1]), (pts, -pts[::-1]), (0.4, -1.1), (pts.reshape(5, 1), pts + 0.05)]
    # Each function read twice on each point set, in the order the Hamiltonian reads them.
    for x, y in point_sets + point_sets:
        got = [_bits(g(x, y)) for g in (f.fn, f.dx, f.dy, f.dxx, f.dyy)]
        assert got == [_bits(g(x, y)) for g in reference]
    image, plain = dunkl_ops.apply_hamiltonian(f, mu), dunkl_ops.apply_hamiltonian(PlaneFunction(*reference, parity=f.parity), mu)
    x, y = point_sets[0]
    assert _bits(image(x, y)) == _bits(plain(x, y))


def test_product_evaluates_each_factor_once_per_size(monkeypatch):
    f = verify._product(3, 2, DeformationParams(0.3, 0.8))
    fns = (f.fn, f.dx, f.dy, f.dxx, f.dyy)
    seen = []
    real = GaussLaguerreSum._evaluate
    monkeypatch.setattr(GaussLaguerreSum, "_evaluate", lambda self, t: seen.append(self) or real(self, t))
    rng = np.random.default_rng(8)
    point_sets = [(rng.uniform(-2.0, 2.0, 6), rng.uniform(-2.0, 2.0, 6)) for _ in range(2)]
    # h, h' and h'' of each factor are evaluated once per point set and kept.
    first = [[_bits(g(x, y)) for g in fns] for x, y in point_sets + point_sets]
    assert first[2:] == first[:2]
    assert len(seen) == 2 * 6
    # A reflected point set has the same |x| and |y|, so nothing is evaluated
    # anew; the (i, j) partial of h_3(x) h_2(y) picks up (-1)^(3 + i + 2 + j).
    x, y = point_sets[1]
    signs = [(-1) ** (5 + i + j) for i, j in ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2))]
    assert [_bits(g(-x, -y)) for g in fns] == [_bits(s * g(x, y)) for s, g in zip(signs, fns)]
    assert len(seen) == 2 * 6


def test_product_shared_by_threads_gives_the_bits_of_a_fresh_one():
    # The kept values are read and written without a lock; a race may repeat
    # work but never mixes up values.
    mu = DeformationParams(0.37, 1.9)
    shared = verify._product(2, 3, mu)
    rng = np.random.default_rng(21)
    point_sets = [(rng.uniform(-2.0, 2.0, 5), rng.uniform(-2.0, 2.0, 5)) for _ in range(7)]
    fresh = verify._product(2, 3, mu)
    want = [[_bits(g(x, y)) for g in (fresh.fn, fresh.dxx, fresh.dy)] for x, y in point_sets]
    got, errors = [], []

    def work(offset):
        try:
            for k in range(40):
                i = (offset + k) % len(point_sets)
                x, y = point_sets[i]
                got.append((i, [_bits(g(x, y)) for g in (shared.fn, shared.dxx, shared.dy)]))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(got) == 4 * 40
    assert all(bits == want[i] for i, bits in got)


def test_product_is_quiet_at_the_origin_and_its_hamiltonian_exact_there():
    # A product has exact partials at the origin and on both axes, so H f = E f holds there too.
    mu = DeformationParams(0.37, 1.9)
    x, y = np.array([0.0, 0.0, 0.8]), np.array([0.0, 0.6, 0.0])
    for n1, n2 in ((0, 2), (1, 2), (2, 1), (1, 1)):
        f = verify._product(n1, n2, mu)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dunkl_ops.apply_hamiltonian(f, mu)(x, y)
            want = verify._level_energy(n1 + n2, mu) * f(x, y)
        assert (f(0.0, 0.0) != 0.0) == (n1 % 2 == n2 % 2 == 0)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_a_state_that_underflows_everywhere_is_an_error_record():
    # At mu = (300, 300) the Sturmians' norms underflow a float, so every check
    # built on a Sturmian, the R-U round trip among them, is refused, naming its k, n and ln N.
    results = {res.name: res for res in run_checks("all", mu=(300.0, 300.0))}
    underflow = "DomainError: the Sturmian norm underflows at k = 300.5, n = "
    underflows = [name for name, res in results.items() if (res.error or "").startswith(underflow)]
    assert {"hamiltonian_cartesian_residual", "casimir_scalar", "radial_substitution_roundtrip"} <= set(underflows)
    assert len(underflows) == 12
    assert all(res.error.startswith("DomainError: ") and not res.passed for res in results.values() if res.error)


# --- the monomial residual of the operator identities --------------------------


def test_defect_merges_powers_within_1e_9_only():
    # A fold keys terms by float powers, so one monomial may arrive under two
    # powers an ulp apart, also on either side of 3 + 0.5e-9, where rounding
    # powers to a 1e-9 grid would split it; powers 1e-6 apart stay two.
    ref = GaussLaguerreSum.single(2.0, 0.0, 0, 0.0)
    for p in (1.37, 3.0 + 0.5e-9, -0.6):
        lhs = GaussLaguerreSum.single(0.5, p, 0, 0.0)
        assert verify._defect(lhs, GaussLaguerreSum.single(0.5, float(np.nextafter(p, np.inf)), 0, 0.0), ref) == 0.0
        assert verify._defect(lhs, GaussLaguerreSum.single(0.5, p + 1e-6, 0, 0.0), ref) == 0.25


def test_monomial_residual_sees_a_1e_10_fault_where_the_sturmians_are_small(monkeypatch):
    # At mu = (30, 30) the Sturmians are of order 1e-40 on a grid of r <= 10,
    # where a pointwise residual read at most 1.4e-46 with these faults or without them.
    names = ("ladder_raise", "ladder_lower", "casimir_scalar", "commutator_closure")
    mu = (30.0, 30.0)
    clean = {res.name: res.residual for res in run_checks("algebra", mu=mu)}
    assert all(clean[name] <= 1e-11 for name in names), clean
    real = su11._radial_operator
    # Only A+- have an r^2 R coefficient of -1/4; row[4] is their r R' coefficient
    # half and row[5] their constant term half * (1 + mu1 + mu2).
    for slot in (4, 5):

        def scaled(R, row):
            if row[:2] == (-0.25, -0.25):
                row = tuple(c * (1.0 + 1e-10) if i == slot else c for i, c in enumerate(row))
            return real(R, row)

        monkeypatch.setattr(su11, "_radial_operator", scaled)
        faulty = {res.name: res.residual for res in run_checks("algebra", mu=mu)}
        for name in names:
            assert faulty[name] >= 1e-10, (slot, name)



def test_random_profiles_are_short_gaussian_polynomials_fixed_by_seed_and_tag():
    first = verify._random_profiles(3, 101, 10)
    assert [p.terms for p in first] == [p.terms for p in verify._random_profiles(3, 101, 10)]
    assert [p.terms for p in first] != [p.terms for p in verify._random_profiles(3, 202, 10)]
    for profile in first:
        assert 3 <= len(profile.terms) <= 6
        assert list(profile.terms) == [(float(j), 0, 0.0) for j in range(len(profile.terms))]
        assert all(-1.0 <= c <= 1.0 for c in profile.terms.values())


def test_verify_imports_no_numpy_random_and_ignores_the_hash_seed():
    script = (
        "import sys\n"
        "from dunkl_oscillator.verify import run_checks\n"
        "results = run_checks('all', mu=(0.37, 1.9), seed=5)\n"
        "print('numpy.random' in sys.modules, [(r.name, repr(r.residual)) for r in results])"
    )
    src = str(Path(dunkl_oscillator.__file__).resolve().parent.parent)
    outs = []
    for hash_seed in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
            "PYTHONHASHSEED": hash_seed,
        }
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0].startswith("False [")
    assert outs[0] == outs[1]
