"""Term-algebra profiles: evaluation, exact derivatives, and their absence."""

import math
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_oscillator import su11
from dunkl_oscillator.basis import (
    AngularQuantum,
    RadialQuantum,
)
from dunkl_oscillator.dunkl_ops import (
    apply_angular_operator,
    apply_hamiltonian,
    apply_radial_hamiltonian,
    dunkl_derivative,
)
from dunkl_oscillator.errors import DerivativeUnavailable, DomainError, SingularityError
from dunkl_oscillator.profiles import (
    GaussLaguerreSum,
    PlaneFunction,
    Profile,
    TrigJacobiSum,
    angular_wavefunction,
    derivative_of,
    radial_sturmian,
    substitute_u,
)
from dunkl_oscillator.specfun import DeformationParams, jacobi, laguerre
from dunkl_oscillator.verify import _angular_grid, _residual_grid


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


def test_fold_adds_scaled_contributions_left_to_right_in_first_arrival_order():
    # Each key holds the left-to-right sum of its scaled contributions, a key
    # keeps the place of its first arrival even after a partial sum of zero,
    # and only sums that end at zero are dropped.
    a, b, c, d = [(float(p), 0, 0.0) for p in range(4)]
    folded = GaussLaguerreSum._fold(
        (
            (0.7, [(a, 0.1), (b, 1.0), (a, 0.2), (c, 2.0)]),
            (None, [(b, -0.7), (d, 1.5)]),
            (-1.0, [(b, 0.5), (c, -1.4), (d, 1.5)]),
        )
    )
    assert list(folded.terms.items()) == [
        (a, 0.7 * 0.1 + 0.7 * 0.2),
        (b, 0.7 * 1.0 + -0.7 + -1.0 * 0.5),
        (c, 0.7 * 2.0 + -1.0 * -1.4),
    ]


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


@pytest.mark.parametrize("r", [math.inf, math.nan, -1.0, [0.5, math.nan, 1.0], [0.0, -math.inf]])
def test_radial_sums_refuse_a_negative_or_non_finite_radius(r):
    mu = DeformationParams(0.3, 1.2)
    sturmian = radial_sturmian(RadialQuantum.from_m(2, Fraction(1, 2), mu), mu)
    singular = GaussLaguerreSum.single(1.0, 0.0, 0, 0.0).times_rpower(-2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way to the error
        for profile in (sturmian, singular):
            with pytest.raises(DomainError, match="r must be non-negative and finite"):
                profile(r)


@pytest.mark.parametrize("r", [1e155, [1.0, 1e160], math.nextafter(math.sqrt(sys.float_info.max), math.inf)])
def test_radial_sums_refuse_a_radius_whose_square_overflows(r):
    # r^2 is the Laguerre argument and the Gaussian's exponent: past
    # sqrt(float max) it would be inf, refused as x rather than r.
    mu = DeformationParams(0.3, 1.2)
    sturmian = radial_sturmian(RadialQuantum.from_m(2, Fraction(1, 2), mu), mu)
    gaussian = GaussLaguerreSum.single(1.0, 0.0, 0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way to the error
        for profile in (sturmian, gaussian):
            with pytest.raises(DomainError, match=r"^r must not exceed 1\.3407807929942596e\+154, past which r\^2 overflows, got "):
                profile(r)
        assert gaussian(math.sqrt(sys.float_info.max)) == 0.0


@pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan, [0.4, math.nan, 1.0]])
def test_angular_sums_refuse_a_non_finite_angle(phi):
    mu = DeformationParams(0.3, 1.2)
    wave = angular_wavefunction(AngularQuantum.build(1, -1, Fraction(3, 2), mu), mu)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="phi must be finite"):
            wave(phi)


def test_term_sums_on_no_points_are_empty():
    empty = np.array([])
    assert GaussLaguerreSum.single(1.0, -2.0, 1, 0.5)(empty).shape == (0,)
    assert TrigJacobiSum.single(1.0, -1, 0, 1, 0.5, 0.5)(empty).shape == (0,)


def test_profile_algebra_propagates_exact_derivatives():
    a = GaussLaguerreSum.gaussian_polynomial([1.0, 0.5])
    b = GaussLaguerreSum.gaussian_polynomial([0.0, 0.0, 2.0])
    combo = 2.0 * a + (-1.0) * b
    assert isinstance(combo, GaussLaguerreSum)
    r = np.linspace(0.1, 3.0, 7)
    np.testing.assert_allclose(combo(r), 2.0 * a(r) - b(r), rtol=1e-14)
    np.testing.assert_allclose(
        derivative_of(combo, 1)(r),
        2.0 * a.derivative()(r) - b.derivative()(r),
        rtol=1e-13,
        atol=1e-14,
    )


def test_trig_jacobi_sum_matches_direct_formula():
    profile = TrigJacobiSum.single(1.7, 1, 2, 2, 0.4, -0.1)
    phi = _angular_grid(32)
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
    cancelled = a + (-1.0) * a
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


def test_angular_exact_chain_used_when_attached():
    profile = TrigJacobiSum.single(1.0, 1, 0, 0, 0.0, 0.0)  # cos(phi)
    phi = np.array([0.5, 2.2])
    np.testing.assert_allclose(derivative_of(profile, 2)(phi), -np.cos(phi), rtol=1e-15)
    assert profile.derivative().terms == profile.derivative().terms
    assert derivative_of(profile, 2).terms == profile.derivative().derivative().terms


@pytest.mark.parametrize(
    "profile, order, reference",
    [
        # tan(phi) -> sec^2(phi) -> 2 sec^2(phi) tan(phi)
        pytest.param(TrigJacobiSum.single(1.0, -1, 1, 0, 0.0, 0.0), 1, lambda p: mpmath.tan(p), id="tan-1"),
        pytest.param(TrigJacobiSum.single(1.0, -1, 1, 0, 0.0, 0.0), 2, lambda p: mpmath.tan(p), id="tan-2"),
        pytest.param(TrigJacobiSum.single(1.0, 0, -2, 0, 0.0, 0.0), 1, lambda p: mpmath.sin(p) ** -2, id="csc2-1"),
        pytest.param(
            TrigJacobiSum.single(0.7, -3, 2, 2, 0.4, -0.3),
            2,
            lambda p: 0.7 * mpmath.cos(p) ** -3 * mpmath.sin(p) ** 2 * mpmath.jacobi(2, 0.4, -0.3, mpmath.cos(2 * p)),
            id="jacobi-term-2",
        ),
    ],
)
def test_trig_jacobi_negative_powers_differentiate_exactly(profile, order, reference):
    deriv = derivative_of(profile, order)
    for phi in [0.3, 1.2, 2.8, 4.4]:
        with mpmath.workdps(30):
            expected = float(mpmath.diff(reference, phi, order))
        assert deriv(phi) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "profile, phi",
    [
        pytest.param(TrigJacobiSum.single(1.0, -1, 0, 0, 0.0, 0.0), np.pi / 2.0, id="sec-at-half-pi"),
        pytest.param(TrigJacobiSum.single(1.0, 0, -2, 0, 0.0, 0.0), 0.0, id="csc2-at-0"),
        pytest.param(TrigJacobiSum.single(1.0, 0, -2, 0, 0.0, 0.0), np.array([0.4, np.pi]), id="csc2-at-pi"),
    ],
)
def test_trig_jacobi_negative_power_refuses_the_axes(profile, phi):
    with pytest.raises(SingularityError, match="reflection axis"):
        profile(phi)


def test_trig_jacobi_negative_power_is_finite_on_the_other_axis():
    # Only the factor carrying the negative power is refused near zero.
    assert TrigJacobiSum.single(1.0, -1, 0, 0, 0.0, 0.0)(0.0) == 1.0
    assert TrigJacobiSum.single(1.0, 0, -2, 0, 0.0, 0.0)(np.pi / 2.0) == 1.0


def test_trig_jacobi_negative_power_off_the_axes_matches_mpmath():
    profile = TrigJacobiSum.single(1.0, 0, -2, 0, 0.0, 0.0)
    phi = np.array([1e-6, 0.5, np.pi - 1e-6])
    expected = [float(mpmath.sin(mpmath.mpf(p)) ** -2) for p in phi]
    np.testing.assert_allclose(profile(phi), expected, rtol=1e-9)


_PLAIN = np.sin
_MU = DeformationParams(0.3, 0.8)
_FN_ONLY = PlaneFunction(fn=lambda x, y: x * y**2, parity=(-1, 1))


_NOT_A_SUM = "term-sum Profile"


@pytest.mark.parametrize(
    "build, error, message",
    [
        pytest.param(lambda: derivative_of(_PLAIN, 1), TypeError, _NOT_A_SUM, id="derivative_of-1"),
        pytest.param(lambda: derivative_of(_PLAIN, 2), TypeError, _NOT_A_SUM, id="derivative_of-2"),
        pytest.param(lambda: apply_radial_hamiltonian(_PLAIN, _MU, 4.75), TypeError, _NOT_A_SUM, id="apply_radial_hamiltonian"),
        pytest.param(lambda: apply_angular_operator(_PLAIN, _MU), TypeError, _NOT_A_SUM, id="apply_angular_operator"),
        pytest.param(lambda: su11.apply_A(_PLAIN, "0", _MU, 4.75), TypeError, _NOT_A_SUM, id="apply_A-0"),
        pytest.param(lambda: su11.apply_A(_PLAIN, "+", _MU, 4.75), TypeError, _NOT_A_SUM, id="apply_A-plus"),
        pytest.param(lambda: su11.apply_A(_PLAIN, "-", _MU, 4.75), TypeError, _NOT_A_SUM, id="apply_A-minus"),
        pytest.param(lambda: su11.apply_B0(_PLAIN, 4.75, _MU), TypeError, _NOT_A_SUM, id="apply_B0"),
        pytest.param(lambda: su11.apply_J(_PLAIN, 3.0, 1), TypeError, _NOT_A_SUM, id="apply_J"),
        pytest.param(
            lambda: dunkl_derivative(_FN_ONLY, "x", _MU), DerivativeUnavailable, "order-1 partial along x", id="dunkl_derivative-x"
        ),
        pytest.param(
            lambda: dunkl_derivative(_FN_ONLY, "y", _MU), DerivativeUnavailable, "order-1 partial along y", id="dunkl_derivative-y"
        ),
        pytest.param(
            lambda: apply_hamiltonian(_FN_ONLY, _MU), DerivativeUnavailable, "order-1 partial along x", id="apply_hamiltonian"
        ),
    ],
)
def test_operators_refuse_a_missing_exact_derivative(build, error, message):
    # No derivative is approximated: a one-variable operator refuses anything
    # but a term sum, and a plane operator a function without the partial it needs.
    with pytest.raises(error, match=message):
        build()


_SUM = GaussLaguerreSum.gaussian_polynomial([1.0, 0.5])
_ANGULAR_SUM = TrigJacobiSum.single(1.0, 0, 1, 0, 0.0, 0.0)


@pytest.mark.parametrize(
    "build, error",
    [
        pytest.param(lambda: _SUM + _PLAIN, TypeError, id="sum-plus-plain"),
        pytest.param(lambda: _PLAIN + _SUM, TypeError, id="plain-plus-sum"),
        pytest.param(lambda: _SUM - _PLAIN, TypeError, id="sum-minus-plain"),
        pytest.param(lambda: _SUM + _ANGULAR_SUM, TypeError, id="radial-plus-angular"),
        pytest.param(lambda: -2.0 * _PLAIN, TypeError, id="number-times-plain"),
        pytest.param(lambda: -_PLAIN, TypeError, id="negated-plain"),
        pytest.param(lambda: _PLAIN.times_rpower(2.0), AttributeError, id="plain-times-rpower"),
        pytest.param(lambda: _SUM - _SUM, TypeError, id="sum-minus-sum"),
        pytest.param(lambda: -_SUM, TypeError, id="negated-sum"),
        pytest.param(lambda: _ANGULAR_SUM - _ANGULAR_SUM, TypeError, id="angular-minus-angular"),
        pytest.param(lambda: -_ANGULAR_SUM, TypeError, id="negated-angular"),
    ],
)
def test_arithmetic_outside_one_term_sum_type_is_refused_when_built(build, error):
    # Only term sums of one type add, scale and shift powers; a plain callable
    # is refused at once, not deep inside a later derivative chain.  A sum has
    # no minus: a difference is written a + (-1.0) * b.
    with pytest.raises(error):
        build()


def test_radial_operators_return_term_sums():
    mu = DeformationParams(0.3, 0.8)
    R = radial_sturmian(RadialQuantum.from_m(2, Fraction(1, 2), mu), mu)
    images = [
        apply_radial_hamiltonian(R, mu, 4.75),
        *(su11.apply_A(R, which, mu, 4.75) for which in ("0", "+", "-")),
        su11.apply_B0(R, 4.75, mu),
        *(su11.apply_J(R, 3.0, sign) for sign in (1, -1)),
        *(substitute_u(R, mu, direction) for direction in ("r_to_u", "u_to_r")),
    ]
    for image in images:
        assert type(image) is GaussLaguerreSum


@pytest.mark.parametrize("order", [-1, -3, 1.0, 1.5, "1"])
def test_derivative_of_rejects_bad_order(order):
    for profile in (GaussLaguerreSum.single(1.0, 1.0, 1, 0.0), TrigJacobiSum.single(1.0, 0, 1, 0, 0.0, 0.0)):
        with pytest.raises(DomainError, match="non-negative integer"):
            derivative_of(profile, order)


def test_derivative_of_order_zero_is_the_profile():
    for base in (GaussLaguerreSum.single(1.0, 1.0, 1, 0.0), TrigJacobiSum.single(1.0, 0, 1, 0, 0.0, 0.0)):
        assert derivative_of(base, 0) is base
        assert derivative_of(base, np.int64(0)) is base
    # Order 0 still asks for a term sum.
    with pytest.raises(TypeError, match=_NOT_A_SUM):
        derivative_of(np.sin, 0)


def test_both_term_sums_share_the_one_profile_base():
    assert GaussLaguerreSum.__bases__ == (Profile,) and TrigJacobiSum.__bases__ == (Profile,)
    with pytest.raises(TypeError):
        Profile(np.sin, np.cos)


def test_plane_function_call_and_parity():
    f = PlaneFunction(fn=lambda x, y: x * y**2, parity=(-1, 1))
    assert f(2.0, 3.0) == pytest.approx(18.0)
    assert f.parity == (-1, 1)
    assert f.dx is None


# verify's private grids, the sample points of the profile tests here too.
def test_residual_grid_properties():
    grid = _residual_grid(40, 0.1, 9.0)
    assert grid.shape == (40,)
    assert np.all(np.diff(grid) > 0)
    assert grid[0] >= 0.1 and grid[-1] <= 9.0


def test_angular_grid_avoids_reflection_axes():
    grid = _angular_grid(128)
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


# --- the evaluation loops and the fold against the loops they replaced -------


def _ref_fold(parts):
    """The fold as it was first written: one scale test per pair, zero sums dropped at the end."""
    acc = {}
    for scale, pairs in parts:
        for key, coeff in pairs:
            acc[key] = acc.get(key, 0.0) + (coeff if scale is None else scale * coeff)
    return {key: c for key, c in acc.items() if c != 0}


def _ref_laguerre_values(profile, r):
    """The radial loop as it was first written: fresh rows and total = total + c * r^p * L."""
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    x = arr * arr
    total = np.zeros_like(arr)
    for (p, n, a), c in profile.terms.items():
        total = total + c * arr**p * laguerre(n, a, x)
    total = total * np.exp(-0.5 * x)
    return total[0] if np.ndim(r) == 0 else total


def _ref_jacobi_values(profile, phi):
    """The angular loop as it was first written: fresh rows and total = total + c * cos^i * sin^j * P."""
    arr = np.atleast_1d(np.asarray(phi, dtype=float))
    cos, sin = np.cos(arr), np.sin(arr)
    x = cos * cos - sin * sin
    total = np.zeros_like(arr)
    for (i, j, d, al, be), c in profile.terms.items():
        total = total + c * cos**i * sin**j * jacobi(d, al, be, x)
    return total[0] if np.ndim(phi) == 0 else total


def _bits(values):
    """Scalar-ness, shape and the float.hex of every real and imaginary part of values."""
    arr = np.asarray(values)
    parts = (arr.real, arr.imag) if np.iscomplexobj(arr) else (arr,)
    return np.ndim(values), arr.shape, [[float(v).hex() for v in part.ravel()] for part in parts]


def _with_terms(cls, terms):
    """A sum of type cls holding exactly terms, which no fold would leave as given (int coefficients)."""
    out = cls.__new__(cls)
    out.terms = dict(terms)
    return out


def _radial_cases():
    mu = DeformationParams(0.3, 0.8)
    sums = [
        GaussLaguerreSum.single(-1.0, 1.0, 0, 0.0),  # -1 * 0.0 = -0.0 at r = 0
        _with_terms(GaussLaguerreSum, {(1.0, 2, 0.5): 3, (0.0, 1, 1.5): -2}),
        GaussLaguerreSum.gaussian_polynomial([0.3, -1.2, 0.7])
        + (0.5 - 0.25j) * GaussLaguerreSum.single(1.0, 2.0, 1, 0.5),  # real terms, then complex ones
        radial_sturmian(RadialQuantum.from_m(3, Fraction(1, 2), mu), mu),
        GaussLaguerreSum.gaussian_polynomial([]),
    ]
    grid = _residual_grid()
    grids = [
        0.7,
        grid,
        grid.reshape(5, 10),
        np.asfortranarray(grid.reshape(5, 10)),
        np.linspace(0.0, 3.0, 7),
        [0.5, 1.0, 0.0],
        np.arange(4),
    ]
    return sums, grids, _ref_laguerre_values


def _angular_cases():
    mu = DeformationParams(0.3, 0.8)
    sums = [
        TrigJacobiSum.single(-1.0, 0, 1, 0, 0.0, 0.0),  # -1 * sin(0) = -0.0 at phi = 0
        _with_terms(TrigJacobiSum, {(1, 2, 1, 0.5, 1.5): 2, (0, 0, 2, 0.3, 0.8): -1}),
        TrigJacobiSum.single(0.4, 2, 0, 1, 0.3, 0.8) + (1j) * TrigJacobiSum.single(0.6, 1, 1, 2, 0.3, 0.8),
        angular_wavefunction(AngularQuantum.build(-1, 1, Fraction(5, 2), mu), mu),
    ]
    grid = _angular_grid(16)
    grids = [0.9, grid, grid.reshape(4, 4), np.linspace(0.0, 3.0, 7), [0.0, 1.0], np.arange(3)]
    return sums, grids, _ref_jacobi_values


@pytest.mark.parametrize("cases", [_radial_cases, _angular_cases], ids=["radial", "angular"])
def test_evaluation_is_bit_identical_to_the_plain_loop(cases):
    sums, grids, reference = cases()
    want = [[_bits(reference(s, t)) for t in grids] for s in sums]
    assert _bits(sums[0](0.0)) == (0, (), [["0x0.0p+0"]])  # its one term is -0.0 there; the sum is +0.0
    assert [[_bits(s(t)) for t in grids] for s in sums] == want


def test_a_0d_argument_gives_the_element_of_a_1_element_array():
    # numpy rounds a float64 scalar's ** apart from an array's (about 1 in 1,000 of
    # these angular values), so a 0-d angle must reach the powers as an array.
    mu = DeformationParams(0.3, 0.8)
    R = radial_sturmian(RadialQuantum.from_m(3, Fraction(1, 2), mu), mu)
    Phi = angular_wavefunction(AngularQuantum.build(-1, 1, Fraction(5, 2), mu), mu)
    sums = (R, derivative_of(R, 1), GaussLaguerreSum(()), Phi, derivative_of(Phi, 2), TrigJacobiSum(()))
    rng = np.random.default_rng(7)
    for s in sums:
        for t in rng.uniform(0.05, 3.0, 300):
            want = s(np.array([t]))[0]
            for arg in (float(t), np.float64(t), np.asarray(t)):
                got = s(arg)
                assert type(got) is np.float64 and got.tobytes() == want.tobytes(), (s.terms, t, type(arg))


def test_fold_is_bit_identical_to_the_plain_fold():
    rng = np.random.default_rng(33)
    keys = [(float(p), n, 0.5) for p in range(3) for n in range(2)]
    coeffs = [1, -2, 0.25, -0.0, 0.0, 1e-300, 0.5 + 0.5j, -0.5j, 3.0, -3.0]
    scales = [None, 2, -1.0, 0.5j, 1e300]
    for _ in range(300):
        parts = [
            (
                scales[rng.integers(len(scales))],
                [(keys[rng.integers(len(keys))], coeffs[rng.integers(len(coeffs))]) for _ in range(rng.integers(0, 6))],
            )
            for _ in range(rng.integers(0, 4))
        ]
        got, want = Profile._fold_terms(parts), _ref_fold(parts)
        assert list(got) == list(want)
        assert [_bits(c) for c in got.values()] == [_bits(c) for c in want.values()]


# --- the monomial expansion ---------------------------------------------------


def test_monomials_sum_to_the_evaluated_sum():
    # Every degree up to 7 with a real alpha, an integer alpha and a negative
    # power; the expansion is compared with the loop it must equal, term by term.
    mu = DeformationParams(0.3, 0.8)
    sums = [
        _with_terms(GaussLaguerreSum, {(p, n, a): 0.7 - 0.1 * n for n in range(8)})
        for p, a in ((-0.6, 1.7), (0.0, 0.0), (2.5, -0.9), (1.0, 60.3))
    ]
    sums.append(radial_sturmian(RadialQuantum.from_m(5, Fraction(3, 2), mu), mu))
    sums.append(su11.apply_A(sums[-1], "+", mu, 4.75))
    r = np.linspace(0.05, 6.0, 40)
    for s in sums:
        terms = np.array([b * r**q for q, b in s._monomials()]) * np.exp(-0.5 * r * r)
        assert np.all(np.abs(terms.sum(axis=0) - s(r)) <= 1e-12 * np.abs(terms).max(axis=0))


def test_monomials_refuse_a_degree_above_30():
    assert len(GaussLaguerreSum.single(1.0, 0.5, 30, 2.5)._monomials()) == 31
    with pytest.raises(DomainError, match="degree 31"):
        GaussLaguerreSum.single(1.0, 0.5, 31, 2.5)._monomials()
