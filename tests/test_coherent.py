"""Coherent-state series, closed form, displacement normal form, and evolution."""

import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_oscillator.basis import RadialQuantum, radial_sturmian
from dunkl_oscillator.coherent import (
    CoherentParams,
    EvolutionParams,
    auto_nterms,
    coherent_closed,
    coherent_evolved,
    coherent_series,
    evolve_parameter,
    normal_form,
    series_evolution_crosscheck,
    suggested_norm_quadrature,
)
from dunkl_oscillator.errors import DomainError, RepresentationError
from dunkl_oscillator.profiles import DeformationParams
from reference_rules import gauss_legendre

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


# --- series vs closed form ---------------------------------------------------


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
        rmax, npoints = suggested_norm_quadrature(p)
        nodes, weights = gauss_legendre(npoints, 0.0, rmax)
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


# --- time evolution ----------------------------------------------------------


def test_evolve_parameter_quarter_period():
    p = CoherentParams(xi=0.5, k=1.0)
    rotated, phase = evolve_parameter(p, EvolutionParams(tau=math.pi / 2.0))
    assert rotated == pytest.approx(-0.5, abs=1e-15)
    assert phase == pytest.approx(cmath.exp(-1j * math.pi), abs=1e-15)


def test_evolved_state_matches_term_by_term_series():
    mu = DeformationParams(0.5, 0.5)
    m = Fraction(1, 2)
    k = float(m) + 0.5 * (mu.total + 1.0)
    p = CoherentParams(xi=0.5, k=k)
    for tau in (0.7, 2.0):
        res = series_evolution_crosscheck(p, EvolutionParams(tau=tau), m, mu, nterms=300)
        assert res <= 1e-9


def test_evolution_preserves_norm():
    mu = DeformationParams(0.3, 1.2)
    m = Fraction(0)
    k = float(m) + 0.5 * (mu.total + 1.0)
    p = CoherentParams(xi=0.5, k=k)
    rmax, npoints = suggested_norm_quadrature(p)
    nodes, weights = gauss_legendre(npoints, 0.0, rmax)
    weight = nodes ** (1.0 + 2.0 * mu.total)
    for tau in (0.3, 1.1, 2.9):
        vals = coherent_evolved(nodes, p, EvolutionParams(tau=tau), m, mu)
        norm = float(np.sum(weights * np.abs(vals) ** 2 * weight))
        assert norm == pytest.approx(1.0, abs=1e-9)


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
