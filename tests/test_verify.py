"""Library-level behavior of the named self-check registry."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dunkl_oscillator
from dunkl_oscillator import coherent, dunkl_ops, profiles, su11, verify
from dunkl_oscillator.basis import RadialQuantum, _sector_labels, angular_wavefunction, k_of, radial_sturmian
from dunkl_oscillator.dunkl_ops import apply_angular_operator
from dunkl_oscillator.errors import DomainError
from dunkl_oscillator.profiles import GaussLaguerreSum
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


def test_cartesian_check_evaluates_each_polar_factor_once(monkeypatch):
    # Five states, each evaluating R, R', R'' once on the shared r and Phi,
    # Phi', Phi'' on (x, y) plus Phi and Phi' on the two reflections, which
    # D_t(D_t f) reads: 10, and 9 for the flat m = 0 state, whose Phi' and
    # Phi'' are the same zero sum.  A state's values all fit in its plane
    # function's value dict, so none is evaluated twice.
    per_state = []

    def counted(real):
        def evaluate(self, t):
            per_state[-1] += 1
            return real(self, t)

        return evaluate

    for cls in (profiles.GaussLaguerreSum, profiles.TrigJacobiSum):
        monkeypatch.setattr(cls, "_evaluate", counted(cls._evaluate))
    real_h = verify.apply_hamiltonian
    monkeypatch.setattr(verify, "apply_hamiltonian", lambda f, mu: per_state.append(0) or real_h(f, mu))
    (result,) = run_checks(_only(monkeypatch, "hamiltonian_cartesian_residual"), mu=(0.37, 1.9))
    assert result.passed
    assert per_state == [9, 10, 10, 10, 10] and sum(per_state) == 49
    assert max(per_state) <= profiles._KEEP_VALUES


# --- the scaled residuals of the pointwise eigen checks -------------------------


def test_angular_checks_pass_where_the_angular_functions_are_large():
    # max|Phi| reaches 2.6e6 at mu = (15, 15); absolute residuals of 1.8e-7 and 2.8e-9 failed there.
    results = run_checks("angular", mu=(15.0, 15.0))
    assert [(r.name, r.residual) for r in results if not r.passed] == []
    assert len(results) == 4


def test_cartesian_residual_sees_round_off_where_the_states_are_small(monkeypatch):
    # At mu = (80, 80) max|E f| over the 34 points is 1e-119 to 1e-116; relative to
    # it the residual reads round-off, not 1.4e-131.
    (result,) = run_checks(_only(monkeypatch, "hamiltonian_cartesian_residual"), mu=(80.0, 80.0))
    assert result.passed and result.residual >= 1e-16


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


def test_a_state_that_underflows_everywhere_is_an_error_record():
    # At mu = (300, 300) the first state, E f, is 0 at all 34 points, and the
    # Sturmians' monomial coefficients underflow to 0: one refusal names both.
    results = {res.name: res for res in run_checks("all", mu=(300.0, 300.0))}
    underflow = "DomainError: the state underflows to 0"
    underflows = [name for name, res in results.items() if (res.error or "").startswith(underflow)]
    assert "hamiltonian_cartesian_residual" in underflows and "casimir_scalar" in underflows and len(underflows) == 10
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
