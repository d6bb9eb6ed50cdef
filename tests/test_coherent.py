"""Coherent-state series, closed form, displacement normal form, and evolution."""

import cmath
import math
import re
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_oscillator import coherent, specfun, verify
from dunkl_oscillator.basis import RadialQuantum, k_of, log_gamma
from dunkl_oscillator.coherent import (
    CoherentParams,
    EvolutionParams,
    auto_nterms,
    coherent_closed,
    coherent_evolved,
    coherent_series,
    evolve_parameter,
    normal_form,
)
from dunkl_oscillator.errors import DomainError, RepresentationError
from dunkl_oscillator.profiles import radial_sturmian
from dunkl_oscillator.specfun import DeformationParams, laguerre_all, radial_inner_product
from reference_rules import NORM_RULE

GRID = np.linspace(0.05, 3.0, 60)


# --- parameter validation ----------------------------------------------------


def test_coherent_params_validation():
    CoherentParams(xi=0.5, k=1.0)
    with pytest.raises(DomainError):
        CoherentParams(xi=1.0, k=1.0)
    with pytest.raises(DomainError):
        CoherentParams(xi=0.3 + 1.0j, k=1.0)
    with pytest.raises(RepresentationError):
        CoherentParams(xi=0.5, k=0.0)


def test_coherent_params_refuse_infinite_k():
    # An infinite k would give the evolution phase exp(-i k angle) = nan + nanj.
    with pytest.raises(RepresentationError, match="positive and finite"):
        CoherentParams(xi=0.5, k=math.inf)


@pytest.mark.parametrize("r", [-1.0, math.nan, math.inf, [0.5, -0.1, 1.0]])
def test_every_coherent_form_refuses_a_negative_or_non_finite_radius(r):
    mu = DeformationParams(0.5, 0.5)
    p = CoherentParams(xi=0.3 + 0.2j, k=k_of(Fraction(1, 2), mu))
    forms = (
        lambda: coherent_closed(r, p, mu),
        lambda: coherent_series(r, p, mu),
        lambda: coherent_evolved(r, p, EvolutionParams(tau=0.4), Fraction(1, 2), mu),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way to the error
        for form in forms:
            with pytest.raises(DomainError, match="r must be non-negative and finite"):
                form()


@pytest.mark.parametrize("r", [1e155, [0.5, 1e160]])
def test_every_coherent_form_refuses_a_radius_whose_square_overflows(r):
    # Each form takes r^2 into its exponent and the series into its Laguerre
    # table; past sqrt(float max) that square would be inf.
    mu = DeformationParams(0.5, 0.5)
    p = CoherentParams(xi=0.3 + 0.2j, k=k_of(Fraction(1, 2), mu))
    forms = (
        lambda: coherent_closed(r, p, mu),
        lambda: coherent_series(r, p, mu),
        lambda: coherent_evolved(r, p, EvolutionParams(tau=0.4), Fraction(1, 2), mu),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way to the error
        for form in forms:
            with pytest.raises(DomainError, match=r"^r must not exceed .*, past which r\^2 overflows, got 1e\+1(55|60)$"):
                form()


def test_a_closed_form_that_underflows_is_exactly_0_with_no_warning():
    # Near r = sqrt(float max) only the imaginary part of c r^2 overflowed
    # (nan + nan j), or its real part (a warning); |Psi| is below 5e-324 there.
    mu = DeformationParams(0.5, 0.5)
    near = CoherentParams(xi=0.95 * cmath.exp(0.3j), k=1.5)
    p = CoherentParams(xi=0.3 + 0.2j, k=k_of(Fraction(1, 2), mu))
    grid = np.array([1.0, 36.0, 40.0, 1e153, 1.3e154])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert coherent_closed(1.3e154, near, mu) == 0.0
        assert coherent_evolved(math.sqrt(sys.float_info.max), p, EvolutionParams(0.4), Fraction(1, 2), mu) == 0.0
        values = coherent_closed(grid, near, mu)
        # 36 keeps a subnormal value, bit for bit the one of a grid where nothing underflows.
        assert np.array_equal(values[:2], coherent_closed(grid[:2], near, mu))
        assert 0.0 < abs(values[1]) < 1e-300
        assert np.array_equal(values[2:], np.zeros(3))


def test_a_series_whose_envelope_underflows_is_exactly_0_with_no_warning():
    # At r = 1e6 (x = r^2 = 1e12) the Laguerre table of the 31 terms overflowed
    # (nan + nan j) where the envelope, and the closed form, are already 0.
    mu = DeformationParams(0.5, 0.5)
    p = CoherentParams(xi=0.3, k=1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert coherent_closed(1e6, p, mu) == 0.0
        assert coherent_series(1e6, p, mu) == 0j
        values = coherent_series(np.array([1.0, 1e6]), p, mu)
        # 1.0 keeps its bits: each column of the table and its sum is its own.
        assert values[:1].tobytes() == np.array([coherent_series(1.0, p, mu)]).tobytes()
        assert values[1] == 0.0


def test_coherent_overflow_is_a_domain_error():
    # k = 1/2 at mu = (15, 15) puts r^(2k - mu1 - mu2 - 1) = r^(-30) in the
    # envelope: at r = 1e-12 its logarithm passes ln(float max).
    mu = DeformationParams(15.0, 15.0)
    p = CoherentParams(xi=0.3, k=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for form in (coherent_closed, coherent_series):
            with pytest.raises(DomainError, match=r"overflows at r = 1e-12 with the power r\^-30.0"):
                form([1e-12, 1.0], p, mu)
        assert np.all(np.isfinite(coherent_closed([1e-6, 1.0], p, mu)))


def test_evolution_params_validation():
    EvolutionParams(tau=0.3)
    EvolutionParams(tau=-1.0, hbar=2.0)
    with pytest.raises(DomainError):
        EvolutionParams(tau=0.3, hbar=0.0)
    with pytest.raises(DomainError):
        EvolutionParams(tau=0.3, hbar=-1.0)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"tau": math.nan}, "tau"),
        ({"tau": math.inf}, "tau"),
        ({"tau": 0.3, "hbar": math.inf}, "hbar"),
        ({"tau": 0.3, "hbar": math.nan}, "hbar"),
    ],
)
def test_evolution_params_refuse_non_finite_values(kwargs, name):
    with pytest.raises(DomainError, match=f"^{name} must be"):
        EvolutionParams(**kwargs)


def test_auto_nterms_grows_with_radius():
    small = auto_nterms(CoherentParams(xi=0.1, k=1.0))
    large = auto_nterms(CoherentParams(xi=0.9, k=1.0))
    assert 5 <= small < large


def _reference_auto_nterms(p):
    # The term-count loop as first written: every n from 1, log(tol) inside the loop, tol = 1e-14.
    axi = abs(p.xi)
    if axi == 0.0:
        return 1
    two_k = 2.0 * p.k
    ln_axi = math.log(axi)
    lg_2k = log_gamma(two_k)
    n = 1
    while n < 20000:
        bound = 0.5 * (log_gamma(n + two_k) - log_gamma(n + 1.0) - lg_2k) + n * ln_axi
        if n >= 5 and bound < math.log(1e-14):
            return n + 1
        n += 1
    return 20000


def _assert_matches_first_loop(p):
    # Where the first loop ran out at its 20,000 cap without meeting tol, auto_nterms refuses.
    expected = _reference_auto_nterms(p)
    if expected == 20000:
        with pytest.raises(DomainError, match="at most 20000 terms meets tol = 1e-14 at \\|xi\\| = "):
            auto_nterms(p)
    else:
        assert auto_nterms(p) == expected


@pytest.mark.parametrize("axi", [0.05, 0.3, 0.5, 0.8, 0.95, 0.99, 0.9999])
@pytest.mark.parametrize("k", [0.5, 1.0, 2.7, 10.0, 40.0])
def test_auto_nterms_equals_its_first_loop(axi, k):
    # The cap is reached at |xi| = 0.9999 for every k, and at |xi| = 0.99 for k = 40.
    capped = axi == 0.9999 or (axi, k) == (0.99, 40.0)
    assert (_reference_auto_nterms(CoherentParams(xi=axi, k=k)) == 20000) == capped
    for xi in (axi, -axi, axi * cmath.exp(2.2j)):
        _assert_matches_first_loop(CoherentParams(xi=xi, k=k))


def test_auto_nterms_cap_equals_its_first_loop():
    p = CoherentParams(xi=0.9999, k=40.0)
    assert _reference_auto_nterms(p) == 20000
    message = r"^no coherent series of at most 20000 terms meets tol = 1e-14 at \|xi\| = 0.9999, k = 40.0$"
    with pytest.raises(DomainError, match=message):
        auto_nterms(p)
    assert auto_nterms(CoherentParams(xi=0.0, k=1.0)) == 1


# --- series vs closed form ---------------------------------------------------


@pytest.mark.parametrize("xi", [0.999, 0.9999])
def test_series_refuses_a_disk_label_whose_term_count_reaches_the_cap(xi):
    # A 20,000-term series is off from the closed form by 1.5e-7 at 0.999 and
    # by 7.6 at 0.9999, where |Psi| is about 1e-39.
    mu = DeformationParams(0.5, 0.5)
    p = CoherentParams(xi=xi, k=k_of(0, mu))
    message = f"^no coherent series of at most 20000 terms meets tol = 1e-14 at \\|xi\\| = {xi}, k = 1.0$"
    with pytest.raises(DomainError, match=message):
        coherent_series(np.linspace(0.1, 3.0, 5), p, mu)


@pytest.mark.parametrize(
    "xi",
    [0.5, -0.8, 0.3 + 0.4j, 0.7 * cmath.exp(2.2j), -0.2 - 0.55j],
)
@pytest.mark.parametrize("k", [0.5, 1.0, 1.5, 2.7])
def test_series_matches_closed_form(xi, k):
    mu = DeformationParams(0.3, 1.2)
    p = CoherentParams(xi=xi, k=k)
    series = coherent_series(GRID, p, mu)
    closed = coherent_closed(GRID, p, mu)
    scale = np.max(np.abs(closed))
    assert np.max(np.abs(series - closed)) <= 1e-10 * max(scale, 1.0)


@pytest.mark.parametrize("mu", [DeformationParams(2.365, 0.814), DeformationParams(3.0, 3.0)])
def test_both_forms_match_mpmath_relative_to_their_largest_value(mu):
    # At k = 0.5 the power of r is negative, so |Psi| reaches 1e4 and more at
    # r = 0.05: the gap verify measures is round-off of that largest value.
    grid = np.linspace(0.05, 3.0, 40)
    p = CoherentParams(xi=0.5, k=0.5)
    with mpmath.workdps(40):
        xi, two_k = mpmath.mpf(p.xi.real), mpmath.mpf(2.0 * p.k)
        norm = mpmath.sqrt(2 * (1 - xi**2) ** two_k / mpmath.gamma(two_k)) * (1 - xi) ** (-two_k)
        power = two_k - mpmath.mpf(mu.mu1) - mpmath.mpf(mu.mu2) - 1
        exact = np.array(
            [float(norm * mpmath.mpf(r) ** power * mpmath.exp(mpmath.mpf(r) ** 2 / 2 * (xi + 1) / (xi - 1))) for r in grid]
        )
    scale = np.max(np.abs(exact))
    assert scale > 1e4
    for form in (coherent_closed, coherent_series):
        assert np.max(np.abs(form(grid, p, mu) - exact)) <= 1e-13 * scale


def test_closed_form_branch_continuity_on_circle():
    # sweep the argument through the negative-real axis; the resummed prefactor
    # must stay continuous (no branch jump from a naive power)
    mu = DeformationParams(0.5, 0.5)
    k = 2.7
    angles = np.linspace(0.0, 2.0 * np.pi, 25, endpoint=False)
    for theta in angles:
        p = CoherentParams(xi=0.8 * cmath.exp(1j * theta), k=k)
        vals = coherent_closed(GRID, p, mu)
        series = coherent_series(GRID, p, mu)
        assert np.max(np.abs(vals - series)) <= 1e-10 * max(np.max(np.abs(vals)), 1.0)
    # a naive complex power would jump by exp(2 pi i 2k) when xi crosses the
    # negative real axis; probe both sides of the crossing with a tiny step
    eps = 1e-7
    lo = coherent_closed(GRID, CoherentParams(xi=0.8 * cmath.exp(1j * (np.pi - eps)), k=k), mu)
    hi = coherent_closed(GRID, CoherentParams(xi=0.8 * cmath.exp(1j * (np.pi + eps)), k=k), mu)
    scale = max(float(np.max(np.abs(lo))), 1.0)
    assert np.max(np.abs(hi - lo)) <= 1e-5 * scale, "branch discontinuity"


def test_zero_displacement_reduces_to_lowest_state():
    mu = DeformationParams(0.3, 1.2)
    m = Fraction(1, 2)
    q = RadialQuantum.from_m(0, m, mu)
    p = CoherentParams(xi=0.0, k=q.k)
    R0 = radial_sturmian(q, mu)
    np.testing.assert_allclose(coherent_closed(GRID, p, mu), R0(GRID), rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(coherent_series(GRID, p, mu), R0(GRID), rtol=1e-12, atol=1e-13)


def test_scalar_input_gives_scalar_output():
    mu = DeformationParams(0.5, 0.5)
    p = CoherentParams(xi=0.4, k=1.0)
    out = coherent_series(1.3, p, mu)
    assert np.isscalar(out) or np.ndim(out) == 0
    assert coherent_closed(1.3, p, mu) == pytest.approx(out, rel=1e-10)


def test_unit_norm_under_weighted_measure():
    for xi, k, mu in [
        (0.5, 1.0, DeformationParams(0.0, 0.0)),
        (-0.8, 1.5, DeformationParams(0.5, 0.5)),
        (0.3 + 0.4j, 2.7, DeformationParams(0.3, 1.2)),
    ]:
        p = CoherentParams(xi=xi, k=k)
        nodes, weights = NORM_RULE
        vals = coherent_closed(nodes, p, mu)
        norm = float(
            np.sum(weights * np.abs(vals) ** 2 * nodes ** (1.0 + 2.0 * mu.total))
        )
        assert norm == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    radius=st.floats(min_value=0.0, max_value=0.85),
    angle=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    k=st.floats(min_value=0.3, max_value=3.0),
)
def test_series_closed_agreement_property(radius, angle, k):
    mu = DeformationParams(0.5, 0.5)
    p = CoherentParams(xi=radius * cmath.exp(1j * angle), k=k)
    series = coherent_series(GRID, p, mu)
    closed = coherent_closed(GRID, p, mu)
    scale = max(float(np.max(np.abs(closed))), 1.0)
    assert np.max(np.abs(series - closed)) <= 1e-9 * scale


# --- the shared Sturmian table ----------------------------------------------


def _ln_rpow(r, s):
    """ln r^s = s ln r, with r^0 = 1 at r = 0 too."""
    if s == 0.0:
        return 0.0
    with np.errstate(divide="ignore"):
        return s * np.log(r)


def _reference_series(arr, p, mu, nterms, term_phase=None):
    # The series as the Laguerre generating function, unshared: the rows
    # L_n^(2k-1)(r^2) rebuilt per call, coefficients xi^n over numpy integer
    # degrees, the terms added row by row, and the envelope N r^s exp(-r^2/2)
    # summed in logs before one exp.
    two_k = 2.0 * p.k
    x = arr * arr
    polys = np.atleast_2d(laguerre_all(nterms - 1, two_k - 1.0, x))
    coeffs = complex(p.xi) ** np.arange(nterms)
    if term_phase is not None:
        coeffs = coeffs * term_phase
    ln_norm = 0.5 * (math.log(2.0) + two_k * math.log1p(-abs(p.xi) ** 2) - log_gamma(two_k))
    envelope = np.exp(ln_norm + _ln_rpow(arr, two_k - (mu.total + 1.0)) - 0.5 * x)
    return envelope * sum(coeffs[:, None] * polys)


SERIES_CASES = [
    (0.5, 0.5, 12, np.linspace(0.05, 3.0, 40)),
    (0.8 * cmath.exp(2.0j), 2.7, None, np.array([0.4, 1.3, 2.2])),
    (-0.2 - 0.55j, 1.5, None, GRID),
    (0.95j, 1.75, 400, np.linspace(0.0, 4.0, 7)),
    (0.3, 40.0, 1, np.array([2.5])),
]


@pytest.mark.parametrize("xi, k, nterms, grid", SERIES_CASES)
def test_series_is_bit_identical_to_its_unshared_form(xi, k, nterms, grid):
    p = CoherentParams(xi=xi, k=k)
    count = auto_nterms(p) if nterms is None else nterms
    for mu in (DeformationParams(0.5, 0.5), DeformationParams(-0.45, 0.3)):
        # The second mu reuses the table of the first: same k, term count and grid.
        before = coherent._cached_table.cache_info()
        got = coherent_series(grid, p, mu) if nterms is None else coherent._series_values(grid, p, mu, nterms)
        assert np.array_equal(got, _reference_series(grid, p, mu, count))
    after = coherent._cached_table.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)


def test_public_series_takes_no_term_count():
    # The public series is always the one auto_nterms licenses, or its refusal;
    # an explicit partial sum is the private _series_values.
    p = CoherentParams(xi=0.3, k=1.0)
    mu = DeformationParams(0.5, 0.5)
    with pytest.raises(TypeError):
        coherent_series(GRID, p, mu, 10)
    with pytest.raises(TypeError):
        coherent_series(GRID, p, mu, nterms=10)
    assert np.array_equal(coherent_series(GRID, p, mu), coherent._series_values(GRID, p, mu, auto_nterms(p)))


def test_evolution_crosscheck_is_bit_identical_to_its_unshared_form():
    m = Fraction(1, 2)
    for mu in (DeformationParams(0.5, 0.5), DeformationParams(2.365, 0.814)):
        k = float(m) + 0.5 * (mu.total + 1.0)
        p = CoherentParams(xi=0.5, k=k)
        grid = np.linspace(0.05, 3.0, 60)
        expected = []
        for tau in (0.7, 2.0):
            t = EvolutionParams(tau=tau)
            term_phase = np.exp(-2j * (k + np.arange(300)) * tau)
            series = _reference_series(grid, p, mu, 300, term_phase=term_phase)
            expected.append(float(np.max(np.abs(series - coherent_evolved(grid, p, t, m, mu)))))
        cases = verify._check_evolution_crosscheck(verify.VerifyContext(mu=mu))
        assert [float(np.max(np.abs(case))) for case in cases] == expected


def test_series_tables_are_keyed_by_grid_values():
    # Two grids of one length share neither table nor values.
    mu = DeformationParams(0.3, 1.2)
    p = CoherentParams(xi=0.3 + 0.4j, k=1.0)
    a = np.linspace(0.1, 2.0, 9)
    b = np.linspace(0.2, 2.5, 9)
    coherent._cached_table.cache_clear()
    for grid in (a, b, a):
        assert np.array_equal(coherent_series(grid, p, mu), _reference_series(grid, p, mu, auto_nterms(p)))
    info = coherent._cached_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 2)
    # A float count must not find the cached table of its integer value, cached or not.
    coherent._series_values(a, p, mu, 10)
    with pytest.raises(DomainError, match="degree"):
        coherent._series_values(a, p, mu, 10.0)
    with pytest.raises(DomainError, match="degree"):
        coherent._series_values(np.linspace(0.3, 1.0, 4), p, mu, 10.0)


def test_term_counts_in_any_order_are_bit_identical_to_their_unshared_form():
    # Small, then large, then small again: each count has its own table, and
    # the values never change.
    mu = DeformationParams(0.5, 0.5)
    p = CoherentParams(xi=0.7 - 0.2j, k=1.3)
    grid = np.linspace(0.05, 3.0, 23)
    coherent._cached_table.cache_clear()
    for count in (12, 150, 12, 150, 40):
        got = coherent._series_values(grid, p, mu, count)
        assert np.array_equal(got, _reference_series(grid, p, mu, count))
    info = coherent._cached_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 2, 3)


def test_scalar_series_is_bit_identical_to_its_unshared_form():
    mu = DeformationParams(0.5, 0.5)
    p = CoherentParams(xi=0.4, k=1.0)
    expected = _reference_series(np.array([1.3]), p, mu, auto_nterms(p))
    assert coherent_series(1.3, p, mu) == complex(expected[0])


def test_series_on_radii_of_any_shape_matches_the_flat_values():
    mu = DeformationParams(0.5, 0.5)
    p = CoherentParams(xi=0.3 + 0.4j, k=1.0)
    radii = np.linspace(0.1, 2.6, 6).reshape(2, 3)
    got = coherent_series(radii, p, mu)
    assert got.shape == coherent_closed(radii, p, mu).shape == (2, 3)
    assert np.array_equal(got.ravel(), coherent_series(radii.ravel(), p, mu))
    assert np.array_equal(coherent_series(np.ones((2, 3)), p, mu), coherent_series(np.ones(6), p, mu).reshape(2, 3))


@pytest.mark.parametrize("xi", [-0.95, 0.5])
def test_series_value_of_a_point_is_its_value_inside_a_grid(xi):
    # Near xi = -1 the alternating series cancels enough for the order of
    # summation to show, so a point alone and in a grid share one order.
    mu = DeformationParams(0.5, 0.5)
    p = CoherentParams(xi=xi, k=2.7)
    grid = np.linspace(0.05, 3.0, 40)
    alone = np.array([coherent_series(r, p, mu) for r in grid])
    assert np.array_equal(alone, coherent_series(grid, p, mu))


def test_ground_sector_forms_are_finite_at_the_origin():
    # Here 2k == mu1 + mu2 + 1 exactly, while (2k - mu1 - mu2) - 1 rounds to
    # -4.4e-16: the power of r must still be 0, not negative at r = 0.
    mu = DeformationParams(2.5122357700091884, 0.7479349044948775)
    p = CoherentParams(xi=-0.6 + 0.1j, k=k_of(0, mu))
    r = np.linspace(0.0, 3.0, 13)
    series = coherent_series(r, p, mu)
    closed = coherent_closed(r, p, mu)
    assert np.all(np.isfinite(series)) and np.all(np.isfinite(closed))
    assert np.array_equal(closed, coherent_evolved(r, p, EvolutionParams(0.0), 0, mu))
    np.testing.assert_allclose(series, closed, rtol=1e-10)


def test_the_sturmians_and_both_coherent_forms_take_one_r_power(monkeypatch):
    # The coherent state is the Sturmians' generating function, so all three
    # carry r^(2k - mu1 - mu2 - 1) as the same float, in one association.
    powers = []
    envelope = coherent._envelope

    def recording(r, ln_pref, power, c):
        powers.append(power)
        return envelope(r, ln_pref, power, c)

    monkeypatch.setattr(coherent, "_envelope", recording)
    rng = np.random.default_rng(53)
    other_association = 0
    for two_m, mu1, mu2 in zip(rng.integers(0, 41, 200), *(-0.5 + 3.5 * (1.0 - rng.random((2, 200))))):
        mu = DeformationParams(float(mu1), float(mu2))
        q = RadialQuantum.from_m(0, Fraction(int(two_m), 2), mu)
        ((power, _, _),) = radial_sturmian(q, mu).terms
        powers.clear()
        p = CoherentParams(xi=0.3 - 0.2j, k=q.k)
        coherent_closed(1.3, p, mu)
        coherent_series(1.3, p, mu)
        assert [x.hex() for x in powers] == [power.hex()] * 2
        other_association += power != 2.0 * q.k - mu.total - 1.0
    assert other_association > 0


def test_sturmian_tables_are_read_only_and_bounded():
    mu = DeformationParams(0.5, 0.5)
    x = GRID * GRID
    polys = coherent._sturmian_table(2.0, 10, x)
    assert not polys.flags.writeable
    assert polys.shape == (10, GRID.size)
    # The key is the grid's values, not the array that holds them.
    assert coherent._sturmian_table(2.0, 10, x.copy()) is polys
    info = coherent._cached_table.cache_info()
    # At least the 18 tables of a warm verify run, and not many more.
    assert info.maxsize is not None and 18 <= info.maxsize <= 32
    # More grids than slots: the cache keeps the latest maxsize of them.
    coherent._cached_table.cache_clear()
    p = CoherentParams(xi=0.2, k=1.0)
    for i in range(info.maxsize + 4):
        coherent_series(np.linspace(0.1, 2.0 + 0.01 * i, 5), p, mu)
        assert coherent._cached_table.cache_info().currsize == min(i + 1, info.maxsize)
    # A table above the cached size is built for its call alone.
    coherent._cached_table.cache_clear()
    big = np.linspace(0.01, 3.0, coherent._CACHED_TABLE_VALUES // 100 + 1)
    assert np.array_equal(coherent._series_values(big, p, mu, 100), _reference_series(big, p, mu, 100))
    assert coherent._cached_table.cache_info().currsize == 0
    # Nor is it cached when a shorter table of its grid is.
    coherent._series_values(big, p, mu, 10)
    assert np.array_equal(coherent._series_values(big, p, mu, 100), _reference_series(big, p, mu, 100))
    assert coherent._cached_table.cache_info().currsize == 1


# --- displacement normal form ------------------------------------------------


def test_normal_form_frozen_values():
    nf = normal_form(-0.5)
    assert nf.zeta == pytest.approx(-0.46211715726000974, abs=1e-16)
    assert nf.eta == pytest.approx(math.log1p(-math.tanh(0.5) ** 2), abs=1e-15)


def test_normal_form_against_mpmath():
    mpmath.mp.dps = 30
    for xi in [0.5, -0.5, 0.3 + 0.4j, 0.7 * cmath.exp(2.2j)]:
        nf = normal_form(xi)
        x = mpmath.mpc(xi)
        mag = abs(x)
        expected_zeta = complex(x * mpmath.tanh(mag) / mag)
        expected_eta = float(mpmath.log(1 - mpmath.tanh(mag) ** 2))
        assert nf.zeta == pytest.approx(expected_zeta, rel=1e-14)
        assert nf.eta == pytest.approx(expected_eta, rel=1e-14)


def test_normal_form_at_origin():
    nf = normal_form(0.0)
    assert nf.zeta == 0.0
    assert nf.eta == 0.0


def test_normal_form_takes_amplitudes_beyond_the_unit_disk():
    nf = normal_form(2.0)
    assert nf.zeta == pytest.approx(math.tanh(2.0), rel=1e-15)
    assert nf.eta == pytest.approx(-2.0 * math.log(math.cosh(2.0)), rel=1e-14)
    mpmath.mp.dps = 30
    for amplitude in (5.0, -15.0j, 40.0):
        expected = float(-2 * mpmath.log(mpmath.cosh(abs(amplitude))))
        assert normal_form(amplitude).eta == pytest.approx(expected, rel=1e-14)
    for bad in (float("nan"), complex(float("inf"), 0.0)):
        with pytest.raises(DomainError):
            normal_form(bad)


@pytest.mark.parametrize("amplitude", [1e308, -1e308j, complex(1e308, 1e307)], ids=["real", "imaginary", "complex"])
def test_normal_form_refuses_an_amplitude_whose_eta_overflows(amplitude):
    # eta = -2 (|amplitude| - ln 2 + ...) passes -float max: it came out -inf.
    message = f"eta = -2 ln cosh|amplitude| overflows at displacement amplitude {complex(amplitude)}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        normal_form(amplitude)
    assert normal_form(5e307).eta == -1e308


# --- time evolution ----------------------------------------------------------


def test_evolve_parameter_quarter_period():
    p = CoherentParams(xi=0.5, k=1.0)
    rotated, phase = evolve_parameter(p, EvolutionParams(tau=math.pi / 2.0))
    assert rotated == pytest.approx(-0.5, abs=1e-15)
    assert phase == pytest.approx(cmath.exp(-1j * math.pi), abs=1e-15)


@pytest.mark.parametrize(
    "k, tau, hbar",
    [(1.0, 1e308, 1.0), (k_of(1_000_000, DeformationParams(0.5, 0.5)), 1e303, 1.0), (1.0, 1.0, 1e-308)],
    ids=["angle", "phase", "hbar"],
)
def test_evolve_parameter_refuses_a_phase_that_overflows(k, tau, hbar):
    # 2 tau / hbar or k 2 tau / hbar passes 1.8e308: the label came out NaN, or cmath.exp raised a bare ValueError.
    message = f"the phase k 2 tau / hbar overflows at tau = {tau}, k = {k}, hbar = {hbar}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        evolve_parameter(CoherentParams(xi=0.3, k=k), EvolutionParams(tau, hbar))


def test_evolved_state_matches_term_by_term_series():
    # verify's evolution_crosscheck: xi = 0.5 in the sector m = 1/2 at tau = 0.7 and 2.
    for case in verify._check_evolution_crosscheck(verify.VerifyContext(mu=DeformationParams(0.5, 0.5))):
        assert np.max(np.abs(case)) <= 1e-9


def test_evolution_preserves_norm():
    mu = DeformationParams(0.3, 1.2)
    m = Fraction(0)
    k = float(m) + 0.5 * (mu.total + 1.0)
    p = CoherentParams(xi=0.5, k=k)
    nodes, weights = NORM_RULE
    weight = nodes ** (1.0 + 2.0 * mu.total)
    for tau in (0.3, 1.1, 2.9):
        vals = coherent_evolved(nodes, p, EvolutionParams(tau=tau), m, mu)
        norm = float(np.sum(weights * np.abs(vals) ** 2 * weight))
        assert norm == pytest.approx(1.0, abs=1e-9)


def test_a_norm_quadrature_too_large_to_build_is_refused_unbuilt(monkeypatch):
    # The rule the norm formula gives at xi = -(1 - 1e-12), k = 1: it outgrows any array.
    rmax, npoints = 13266647.902740318, 530_665_920
    monkeypatch.setattr(specfun, "_radial_panels", None)  # calling it would raise TypeError
    with pytest.raises(DomainError, match="npoints must be an integer from 16 to 1000000"):
        radial_inner_product(np.ones_like, np.ones_like, DeformationParams(0.5, 0.5), rmax, npoints)


def test_density_period_is_pi_hbar():
    mu = DeformationParams(0.5, 0.5)
    m = Fraction(1, 2)
    k = float(m) + 0.5 * (mu.total + 1.0)
    p = CoherentParams(xi=0.3 + 0.2j, k=k)
    for hbar in (1.0, 0.7):
        t0 = EvolutionParams(tau=0.4, hbar=hbar)
        t1 = EvolutionParams(tau=0.4 + math.pi * hbar, hbar=hbar)
        a = coherent_evolved(GRID, p, t0, m, mu)
        b = coherent_evolved(GRID, p, t1, m, mu)
        np.testing.assert_allclose(np.abs(b), np.abs(a), rtol=1e-12, atol=1e-13)
        # profiles differ only by the global phase exp(-2 pi i k)
        np.testing.assert_allclose(b, cmath.exp(-2j * math.pi * k) * a, rtol=1e-12, atol=1e-12)


def test_evolution_additivity():
    p = CoherentParams(xi=0.4 - 0.1j, k=1.7)
    ta, tb = EvolutionParams(tau=0.6), EvolutionParams(tau=1.3)
    mid, phase_a = evolve_parameter(p, ta)
    end_two, phase_b = evolve_parameter(CoherentParams(xi=mid, k=p.k), tb)
    end_one, phase_ab = evolve_parameter(p, EvolutionParams(tau=1.9))
    assert end_two == pytest.approx(end_one, abs=1e-14)
    assert phase_a * phase_b == pytest.approx(phase_ab, abs=1e-14)
    mu = DeformationParams(0.5, 0.5)
    m = Fraction(1, 2)
    k = float(m) + 0.5 * (mu.total + 1.0)
    p2 = CoherentParams(xi=0.4 - 0.1j, k=k)
    one = coherent_evolved(GRID, p2, EvolutionParams(tau=1.9), m, mu)
    mid2, phase = evolve_parameter(p2, ta)
    two = phase * coherent_evolved(GRID, CoherentParams(xi=mid2, k=k), tb, m, mu)
    np.testing.assert_allclose(two, one, rtol=1e-12, atol=1e-13)


def test_evolved_state_rejects_mismatched_index():
    mu = DeformationParams(0.5, 0.5)
    p = CoherentParams(xi=0.5, k=2.0)  # wrong k for m = 0 at this mu (k should be 1)
    with pytest.raises(DomainError):
        coherent_evolved(GRID, p, EvolutionParams(tau=0.5), Fraction(0), mu)


def test_evolved_state_takes_a_k_off_by_round_off_at_large_m():
    # k written as m + mu1/2 + mu2/2 + 1/2 equals k_of's k in exact arithmetic,
    # but here the floats differ by two ulps, 2.3e-10, far past an absolute
    # 1e-12; a k off by 1e-9 relative or a neighbouring sector's is refused.
    m = 636962
    mu = DeformationParams(-0.43231855200543345, 2.3483131348089508)
    k = m + mu.mu1 / 2 + mu.mu2 / 2 + 0.5
    assert k == 636963.4579972915 and k_of(m, mu) == 636963.4579972913
    r = np.linspace(828.0, 828.5, 5)  # about the peak, where the values are near 9e-8
    t = EvolutionParams(tau=0.0)
    vals = coherent_evolved(r, CoherentParams(xi=0.3, k=k), t, m, mu)
    exact = coherent_evolved(r, CoherentParams(xi=0.3, k=k_of(m, mu)), t, m, mu)
    assert np.all(np.abs(exact) > 1e-8)
    np.testing.assert_allclose(vals, exact, rtol=1e-8, atol=0.0)
    for wrong in (k * (1.0 + 1e-9), k_of(Fraction(2 * m + 1, 2), mu), k_of(Fraction(2 * m - 1, 2), mu)):
        with pytest.raises(DomainError, match="does not match m = 636962"):
            coherent_evolved(r, CoherentParams(xi=0.3, k=wrong), t, m, mu)


@pytest.mark.parametrize("m", [Fraction(0), Fraction(1, 2), Fraction(2)])
def test_evolved_state_takes_exact_radial_power(m):
    # At this mu, 2k - mu1 - mu2 - 1 rounds to -2e-16 for m = 0, a negative
    # power at r = 0; the evolved profile uses the label 2m itself.
    mu = DeformationParams(-0.2691523058468741, 1.7477168115182542)
    p = CoherentParams(xi=0.3, k=float(m) + 0.5 * (mu.total + 1.0))
    r = np.linspace(0.0, 2.0, 5)
    t = EvolutionParams(tau=0.4)
    vals = coherent_evolved(r, p, t, m, mu)
    assert np.all(np.isfinite(vals))
    assert (vals[0] != 0.0) == (m == 0)
    xi_t, phase = evolve_parameter(p, t)
    closed = phase * coherent_closed(r[1:], CoherentParams(xi=xi_t, k=p.k), mu)
    np.testing.assert_allclose(vals[1:], closed, rtol=1e-14, atol=0.0)
