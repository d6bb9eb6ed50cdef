"""Term-algebra profiles: evaluation, exact derivatives, and fallbacks."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_oscillator.errors import DerivativeUnavailable, DomainError, SingularityError
from dunkl_oscillator.profiles import (
    DeformationParams,
    GaussLaguerreSum,
    PlaneFunction,
    Profile,
    TrigJacobiSum,
    _five_point,
    angular_grid,
    derivative_of,
    residual_grid,
)


def test_deformation_params_validation():
    mu = DeformationParams(0.3, 1.2)
    assert mu.total == pytest.approx(1.5)
    with pytest.raises(DomainError):
        DeformationParams(-0.5, 0.0)
    with pytest.raises(DomainError):
        DeformationParams(0.0, -0.7)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="finite"):
            DeformationParams(bad, 0.0)
        with pytest.raises(DomainError, match="finite"):
            DeformationParams(0.0, bad)


def test_gauss_laguerre_sum_matches_direct_formula():
    profile = GaussLaguerreSum.single(2.5, 1.5, 3, 0.7)
    r = np.linspace(0.1, 4.0, 17)
    expected = 2.5 * r**1.5 * scipy.special.eval_genlaguerre(3, 0.7, r * r) * np.exp(-0.5 * r * r)
    np.testing.assert_allclose(profile(r), expected, rtol=1e-13)


def test_gauss_laguerre_sum_merges_and_cancels_terms():
    a = GaussLaguerreSum.single(1.0, 2.0, 1, 0.5)
    b = GaussLaguerreSum.single(3.0, 2.0, 1, 0.5)
    merged = a + b
    assert isinstance(merged, GaussLaguerreSum)
    assert merged.terms == {(2.0, 1, 0.5): 4.0}
    cancelled = a + (-1.0) * a
    assert cancelled.terms == {}
    assert cancelled(np.array([0.5, 2.0])) == pytest.approx([0.0, 0.0])


def test_gaussian_polynomial_matches_polyval():
    coeffs = [0.3, -1.2, 0.0, 2.5]
    profile = GaussLaguerreSum.gaussian_polynomial(coeffs)
    r = np.linspace(0.0, 3.0, 13)
    expected = np.polynomial.polynomial.polyval(r, coeffs) * np.exp(-0.5 * r * r)
    np.testing.assert_allclose(profile(r), expected, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_gauss_laguerre_derivative_matches_mpmath(order):
    mpmath.mp.dps = 30
    profile = GaussLaguerreSum.single(1.3, 2.0, 2, 0.4)

    def reference(r):
        r = mpmath.mpf(r)
        return 1.3 * r**2 * mpmath.laguerre(2, 0.4, r * r) * mpmath.exp(-r * r / 2)

    deriv = derivative_of(profile, order)
    for r in [0.3, 1.1, 2.6]:
        expected = float(mpmath.diff(reference, r, order))
        assert deriv(r) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_gaussian_polynomial_exact_derivative_identity():
    coeffs = np.array([0.5, -0.7, 1.1])
    profile = GaussLaguerreSum.gaussian_polynomial(coeffs)
    r = np.linspace(0.05, 4.0, 21)
    # d/dr [sum c_j r^j e^(-r^2/2)] = sum c_j (j r^(j-1) - r^(j+1)) e^(-r^2/2)
    expected = (
        (coeffs[1] + 2 * coeffs[2] * r)
        - r * (coeffs[0] + coeffs[1] * r + coeffs[2] * r * r)
    ) * np.exp(-0.5 * r * r)
    np.testing.assert_allclose(profile.derivative()(r), expected, rtol=1e-13, atol=1e-14)


def test_times_rpower_shifts_powers_exactly():
    profile = GaussLaguerreSum.single(1.0, 1.0, 1, 0.0)
    shifted = profile.times_rpower(2.5)
    r = np.linspace(0.2, 3.0, 9)
    np.testing.assert_allclose(shifted(r), r**2.5 * profile(r), rtol=1e-14)
    assert profile.times_rpower(0) is profile


def test_negative_power_at_origin_raises():
    profile = GaussLaguerreSum.single(1.0, 0.0, 0, 0.0).times_rpower(-2)
    with pytest.raises(SingularityError):
        profile(np.array([0.0, 1.0]))
    assert profile(1.0) == pytest.approx(math.exp(-0.5))


def test_plain_profile_stencil_derivatives():
    base = Profile(lambda r: np.sin(r) * np.exp(-0.3 * r))
    assert not base.has_derivative
    with pytest.raises(DerivativeUnavailable):
        base.derivative()
    d1 = derivative_of(base, 1)
    d2 = derivative_of(base, 2)
    r = np.linspace(0.4, 5.0, 11)
    exact1 = (np.cos(r) - 0.3 * np.sin(r)) * np.exp(-0.3 * r)
    exact2 = (-np.sin(r) - 0.3 * np.cos(r)) * np.exp(-0.3 * r) - 0.3 * exact1
    np.testing.assert_allclose(d1(r), exact1, atol=5e-11)
    np.testing.assert_allclose(d2(r), exact2, atol=5e-10)
    with pytest.raises(DerivativeUnavailable):
        derivative_of(base, 3)


def test_profile_algebra_propagates_exact_derivatives():
    a = GaussLaguerreSum.gaussian_polynomial([1.0, 0.5])
    b = GaussLaguerreSum.gaussian_polynomial([0.0, 0.0, 2.0])
    combo = 2.0 * a - b
    assert isinstance(combo, Profile)
    r = np.linspace(0.1, 3.0, 7)
    np.testing.assert_allclose(combo(r), 2.0 * a(r) - b(r), rtol=1e-14)
    np.testing.assert_allclose(
        derivative_of(combo, 1)(r),
        2.0 * a.derivative()(r) - b.derivative()(r),
        rtol=1e-13,
        atol=1e-14,
    )


def test_mixed_sum_with_plain_callable_falls_back_to_stencils():
    exact = GaussLaguerreSum.gaussian_polynomial([1.0])
    plain = Profile(lambda r: np.cos(r))
    combo = exact + plain
    assert not combo.has_derivative
    d1 = derivative_of(combo, 1)
    r = np.array([0.7, 1.9])
    expected = exact.derivative()(r) - np.sin(r)
    np.testing.assert_allclose(d1(r), expected, atol=5e-11)


def test_trig_jacobi_sum_matches_direct_formula():
    profile = TrigJacobiSum.single(1.7, 1, 2, 2, 0.4, -0.1)
    phi = angular_grid(32)
    x = np.cos(phi) ** 2 - np.sin(phi) ** 2
    expected = (
        1.7 * np.cos(phi) * np.sin(phi) ** 2 * scipy.special.eval_jacobi(2, 0.4, -0.1, x)
    )
    np.testing.assert_allclose(profile(phi), expected, rtol=1e-12, atol=1e-13)


def test_trig_jacobi_sum_merges_and_cancels_terms():
    a = TrigJacobiSum.single(1.0, 1, 2, 1, 0.5, -0.2)
    b = TrigJacobiSum.single(3.0, 1, 2, 1, 0.5, -0.2)
    merged = a + b
    assert isinstance(merged, TrigJacobiSum)
    assert merged.terms == {(1, 2, 1, 0.5, -0.2): 4.0}
    cancelled = a - a
    assert isinstance(cancelled, TrigJacobiSum)
    assert cancelled.terms == {}
    assert cancelled(np.array([0.5, 2.0])) == pytest.approx([0.0, 0.0])


@pytest.mark.parametrize("order", [1, 2])
def test_trig_jacobi_derivative_matches_mpmath(order):
    mpmath.mp.dps = 30
    profile = TrigJacobiSum.single(0.9, 1, 1, 2, 0.3, 0.8)

    def reference(phi):
        phi = mpmath.mpf(phi)
        return 0.9 * mpmath.cos(phi) * mpmath.sin(phi) * mpmath.jacobi(
            2, 0.3, 0.8, mpmath.cos(2 * phi)
        )

    deriv = derivative_of(profile, order)
    for phi in [0.3, 1.2, 2.8, 4.4]:
        expected = float(mpmath.diff(reference, phi, order))
        assert deriv(phi) == pytest.approx(expected, rel=1e-11, abs=1e-11)


def test_angular_stencils_on_plain_profile():
    base = Profile(np.sin)
    d1 = derivative_of(base, 1)
    d2 = derivative_of(base, 2)
    phi = angular_grid(16)
    np.testing.assert_allclose(d1(phi), np.cos(phi), atol=1e-10)
    np.testing.assert_allclose(d2(phi), -np.sin(phi), atol=5e-10)
    with pytest.raises(DerivativeUnavailable):
        derivative_of(base, 3)


def test_angular_exact_chain_used_when_attached():
    chained = Profile(np.cos, derivative=Profile(lambda p: -np.sin(p), derivative=Profile(lambda p: -np.cos(p))))
    phi = np.array([0.5, 2.2])
    np.testing.assert_allclose(derivative_of(chained, 2)(phi), -np.cos(phi), rtol=1e-15)


def _former_radial_stencil(f, r, order):
    # The radial five-point formula as written before the stencils were merged.
    arr = np.asarray(r, dtype=float)
    if order == 1:
        h = 1e-5 * np.maximum(1.0, np.abs(arr))
        return (f(arr - 2 * h) - 8 * f(arr - h) + 8 * f(arr + h) - f(arr + 2 * h)) / (12 * h)
    h = 2e-3 * np.maximum(1.0, np.abs(arr))
    return (-f(arr - 2 * h) + 16 * f(arr - h) - 30 * f(arr) + 16 * f(arr + h) - f(arr + 2 * h)) / (12 * h * h)


@pytest.mark.parametrize("order", [1, 2])
def test_five_point_is_bit_identical_to_former_radial_stencil(order):
    base = Profile(lambda r: np.sin(r) * np.exp(-0.3 * r))
    r = np.array([0.05, 0.4, 0.93, 1.0, 1.7, 6.2, 11.5])
    expected = _former_radial_stencil(base, r, order)
    assert np.array_equal(_five_point(base, r, order), expected)
    assert np.array_equal(derivative_of(base, order)(r), expected)
    assert derivative_of(base, order)(0.4) == _former_radial_stencil(base, 0.4, order)


@pytest.mark.parametrize(
    "base, points",
    [
        (Profile(lambda r: np.sin(r) * np.exp(-0.3 * r)), residual_grid(11)),
        (Profile(np.sin), angular_grid(16)),
    ],
    ids=["radial", "angular"],
)
def test_stencil_chain_on_plain_profiles(base, points):
    d1 = derivative_of(base, 1)
    assert d1.has_derivative
    chained = d1.derivative()
    assert np.array_equal(chained(points), derivative_of(base, 2)(points))
    assert not chained.has_derivative
    with pytest.raises(DerivativeUnavailable):
        chained.derivative()
    with pytest.raises(DerivativeUnavailable):
        derivative_of(base, 3)


def test_stencil_profiles_are_not_differenced_again():
    # A stencil of a stencil would be off by ~1e-6; it is refused instead.
    base = Profile(np.sin)
    second = derivative_of(base, 2)
    first = derivative_of(base, 1)
    cases = [(second, 1), (second, 2), (first, 2), (first.derivative(), 1)]
    # Sums, multiples and r-power multiples of a stencil are stencils too.
    cases += [((-1.0) * second, 1), (second + base, 1), (base - second, 1), (second.times_rpower(2.0), 1)]
    cases += [(2.0 * first, 2)]
    for stencil, order in cases:
        with pytest.raises(DerivativeUnavailable):
            derivative_of(stencil, order)
    assert derivative_of(first, 1) is first.derivative()
    assert derivative_of(second, 0) is second


@pytest.mark.parametrize("order", [-1, -3, 1.0, 1.5, "1"])
def test_derivative_of_rejects_bad_order(order):
    for profile in (Profile(np.sin), GaussLaguerreSum.single(1.0, 1.0, 1, 0.0), TrigJacobiSum.single(1.0, 0, 1, 0, 0.0, 0.0)):
        with pytest.raises(DomainError, match="non-negative integer"):
            derivative_of(profile, order)


def test_derivative_of_order_zero_is_the_profile():
    base = Profile(np.sin)
    assert derivative_of(base, 0) is base
    assert derivative_of(base, np.int64(0)) is base


def test_plane_function_call_and_parity():
    f = PlaneFunction(fn=lambda x, y: x * y**2, parity=(-1, 1))
    assert f(2.0, 3.0) == pytest.approx(18.0)
    assert f.parity == (-1, 1)
    assert f.dx is None


def test_residual_grid_properties():
    grid = residual_grid(40, 0.1, 9.0)
    assert grid.shape == (40,)
    assert np.all(np.diff(grid) > 0)
    assert grid[0] >= 0.1 and grid[-1] <= 9.0


def test_angular_grid_avoids_reflection_axes():
    grid = angular_grid(128)
    quarter = np.pi / 2.0
    distances = np.abs(grid / quarter - np.round(grid / quarter))
    assert np.min(distances) > 1e-3
    assert np.all((grid >= 0.0) & (grid < 2.0 * np.pi))


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=1, max_size=5
    ),
    r=st.floats(min_value=0.05, max_value=6.0),
)
def test_gaussian_polynomial_derivative_property(coeffs, r):
    profile = GaussLaguerreSum.gaussian_polynomial(coeffs)
    poly = np.polynomial.polynomial.polyval(r, coeffs)
    dpoly = np.polynomial.polynomial.polyval(
        r, [j * c for j, c in enumerate(coeffs)][1:] or [0.0]
    )
    expected = (dpoly - r * poly) * math.exp(-0.5 * r * r)
    assert profile.derivative()(r) == pytest.approx(expected, rel=1e-11, abs=1e-12)
