"""Deformed derivative and Hamiltonian operators against hand-derived actions."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_oscillator.basis import AngularQuantum, RadialQuantum, energy
from dunkl_oscillator.dunkl_ops import (
    apply_angular_operator,
    apply_hamiltonian,
    apply_radial_hamiltonian,
    dunkl_derivative,
    reflect,
)
from dunkl_oscillator.errors import DerivativeUnavailable, DomainError, SingularityError
from dunkl_oscillator.profiles import (
    DeformationParams,
    GaussLaguerreSum,
    PlaneFunction,
    TrigJacobiSum,
    derivative_of,
    radial_sturmian,
)
from dunkl_oscillator.verify import _angular_grid, _product, _residual_grid

MU = DeformationParams(0.3, 0.8)

_X = np.array([0.4, -1.3, 2.2, 0.9])
_Y = np.array([1.1, 0.6, -0.8, -2.0])


def test_reflect_values_and_derivatives():
    f = PlaneFunction(
        fn=lambda x, y: x**2 * y + y**3,
        dx=lambda x, y: 2 * x * y,
        dy=lambda x, y: x**2 + 3 * y**2,
        parity=(1, -1),
    )
    rx = reflect(f, "x")
    np.testing.assert_allclose(rx(_X, _Y), f(-_X, _Y), rtol=1e-15)
    np.testing.assert_allclose(rx.dx(_X, _Y), -f.dx(-_X, _Y), rtol=1e-15)
    np.testing.assert_allclose(rx.dy(_X, _Y), f.dy(-_X, _Y), rtol=1e-15)
    ry = reflect(f, "y")
    np.testing.assert_allclose(ry(_X, _Y), f(_X, -_Y), rtol=1e-15)
    np.testing.assert_allclose(ry.dy(_X, _Y), -f.dy(_X, -_Y), rtol=1e-15)
    with pytest.raises(DomainError):
        reflect(f, "z")


def test_reflect_is_involutive():
    f = PlaneFunction(fn=lambda x, y: np.sin(x) + x * y)
    double = reflect(reflect(f, "x"), "x")
    np.testing.assert_allclose(double(_X, _Y), f(_X, _Y), rtol=1e-15)


def test_dunkl_derivative_on_even_function_reduces_to_partial():
    # f = x^2 y is even in x: the reflection-difference term vanishes.
    f = PlaneFunction(fn=lambda x, y: x**2 * y, dx=lambda x, y: 2 * x * y, parity=(1, 1))
    d = dunkl_derivative(f, "x", MU)
    np.testing.assert_allclose(d(_X, _Y), 2 * _X * _Y, rtol=1e-14)
    assert d.parity == (-1, 1)


def test_dunkl_derivative_on_odd_function_gains_coupling():
    # f = x y^2 is odd in x: D_x f = (1 + 2 mu1) y^2.
    f = PlaneFunction(fn=lambda x, y: x * y**2, dx=lambda x, y: y**2 + 0 * x, parity=(-1, 1))
    d = dunkl_derivative(f, "x", MU)
    np.testing.assert_allclose(d(_X, _Y), (1.0 + 2.0 * MU.mu1) * _Y**2, rtol=1e-14)
    assert d.parity == (1, 1)


def test_dunkl_derivative_y_axis_uses_second_coupling():
    f = PlaneFunction(fn=lambda x, y: x**2 * y, dy=lambda x, y: x**2 + 0 * y, parity=(1, -1))
    d = dunkl_derivative(f, "y", MU)
    np.testing.assert_allclose(d(_X, _Y), (1.0 + 2.0 * MU.mu2) * _X**2, rtol=1e-14)
    assert d.parity == (1, 1)


def test_dunkl_derivative_on_axis_limits():
    even = PlaneFunction(fn=lambda x, y: x**2 * y, dx=lambda x, y: 2 * x * y, parity=(1, 1))
    odd = PlaneFunction(fn=lambda x, y: x * y**2, dx=lambda x, y: y**2 + 0 * x, parity=(-1, 1))
    x0 = np.array([0.0, 0.5])
    y0 = np.array([1.0, 1.0])
    np.testing.assert_allclose(dunkl_derivative(even, "x", MU)(x0, y0), 2 * x0 * y0, atol=1e-14)
    np.testing.assert_allclose(
        dunkl_derivative(odd, "x", MU)(x0, y0), (1.0 + 2.0 * MU.mu1) * y0**2, rtol=1e-14
    )
    unlabeled = replace(odd, parity=None)
    with pytest.raises(SingularityError):
        dunkl_derivative(unlabeled, "x", MU)(x0, y0)
    with pytest.raises(DomainError):
        dunkl_derivative(even, "q", MU)


def test_dunkl_derivatives_commute():
    def fn(x, y):
        return x * y**2 * np.exp(-0.5 * (x * x + y * y))

    f = PlaneFunction(
        fn=fn,
        dx=lambda x, y: (1.0 - x * x) * y**2 * np.exp(-0.5 * (x * x + y * y)),
        dy=lambda x, y: x * (2.0 * y - y**3) * np.exp(-0.5 * (x * x + y * y)),
        parity=(-1, 1),
    )
    # D_x f = (1 - x^2 + 2 mu1) y^2 e^(-r^2/2) and D_y f = df/dy, with their partials written out.
    d_x = replace(
        dunkl_derivative(f, "x", MU),
        dy=lambda x, y: (1.0 - x * x + 2.0 * MU.mu1) * (2.0 * y - y**3) * np.exp(-0.5 * (x * x + y * y)),
    )
    d_y = replace(
        dunkl_derivative(f, "y", MU),
        dx=lambda x, y: (1.0 - x * x) * (2.0 * y - y**3) * np.exp(-0.5 * (x * x + y * y)),
    )
    dx_then_dy = dunkl_derivative(d_x, "y", MU)
    dy_then_dx = dunkl_derivative(d_y, "x", MU)
    np.testing.assert_allclose(dx_then_dy(_X, _Y), dy_then_dx(_X, _Y), atol=1e-13)


def _gaussian_ground(mu):
    """Exact ground state e^(-r^2/2) with attached partials."""

    def g(x, y):
        return np.exp(-0.5 * (x * x + y * y))

    return PlaneFunction(
        fn=g,
        dx=lambda x, y: -x * g(x, y),
        dy=lambda x, y: -y * g(x, y),
        dxx=lambda x, y: (x * x - 1.0) * g(x, y),
        dyy=lambda x, y: (y * y - 1.0) * g(x, y),
        parity=(1, 1),
    )


def test_hamiltonian_ground_state_eigenvalue():
    f = _gaussian_ground(MU)
    H = apply_hamiltonian(f, MU)
    expected = (1.0 + MU.total) * f(_X, _Y)
    np.testing.assert_allclose(H(_X, _Y), expected, rtol=1e-12)


def test_hamiltonian_ground_state_at_mu_zero():
    mu0 = DeformationParams(0.0, 0.0)
    f = _gaussian_ground(mu0)
    H = apply_hamiltonian(f, mu0)
    np.testing.assert_allclose(H(_X, _Y), f(_X, _Y), rtol=1e-12)


def test_hamiltonian_odd_odd_state_eigenvalue():
    # f = x y e^(-r^2/2) is the lowest (-1, -1) state with E = 3 + mu1 + mu2.
    def g(x, y):
        return x * y * np.exp(-0.5 * (x * x + y * y))

    def e(x, y):
        return np.exp(-0.5 * (x * x + y * y))

    f = PlaneFunction(
        fn=g,
        dx=lambda x, y: (1.0 - x * x) * y * e(x, y),
        dy=lambda x, y: x * (1.0 - y * y) * e(x, y),
        dxx=lambda x, y: (x**3 - 3.0 * x) * y * e(x, y),
        dyy=lambda x, y: x * (y**3 - 3.0 * y) * e(x, y),
        parity=(-1, -1),
    )
    H = apply_hamiltonian(f, MU)
    expected = (3.0 + MU.total) * g(_X, _Y)
    np.testing.assert_allclose(H(_X, _Y), expected, atol=1e-13)


def test_hamiltonian_on_axis_with_parity():
    f = _gaussian_ground(MU)
    H = apply_hamiltonian(f, MU)
    pts_x = np.array([0.0, 0.0, 1.2])
    pts_y = np.array([0.0, 0.7, 0.0])
    expected = (1.0 + MU.total) * f(pts_x, pts_y)
    np.testing.assert_allclose(H(pts_x, pts_y), expected, rtol=1e-12)
    bare = replace(f, parity=None)
    with pytest.raises(SingularityError):
        apply_hamiltonian(bare, MU)(pts_x, pts_y)


def _products(s1, s2, m, nr, mu):
    """The Dunkl-Hermite products h_n1(x) h_n2(y) of the level 2 (nr + m) and parity (s1, s2)."""
    level = int(2 * (nr + m))
    return [_product(n1, level - n1, mu) for n1 in range((1 - s1) // 2, level + 1, 2)]


@pytest.mark.parametrize(
    "s1, s2, m, nr", [(1, 1, Fraction(1), 1), (-1, 1, Fraction(3, 2), 0), (1, -1, Fraction(1, 2), 2)]
)
def test_hamiltonian_value_at_a_point_does_not_depend_on_the_other_points(s1, s2, m, nr):
    # Off-axis points get the same values alone as in an array that also
    # holds a point on each axis, where the parity limits apply.
    rng = np.random.default_rng(11)
    for _ in range(4):
        mu = DeformationParams(*rng.uniform(-0.45, 2.5, 2))
        xs, ys = rng.uniform(-2.0, 2.0, (2, 8))
        for f in _products(s1, s2, m, nr, mu):
            H = apply_hamiltonian(f, mu)
            alone = H(xs, ys)
            together = H(np.append(xs, [0.0, 0.9]), np.append(ys, [0.9, 0.0]))
            assert np.array_equal(together[:-2], alone)


def _expanded_second(f, axis, coupling):
    """D_axis^2 f written out as f_tt + 2 mu f_t/t - mu (f - Rf)/t^2, with its limits on the axis.

    On the axis an even f gives (1 + 2 mu) f_tt, since 2 f_t/t tends to 2 f_tt
    and the difference term vanishes; for an odd f the singular pieces cancel
    and D_t^2 f tends to f_tt.  It calls no ``dunkl_derivative``.
    """
    d1, d2 = (f.dx, f.dxx) if axis == "x" else (f.dy, f.dyy)
    refl = reflect(f, axis)
    s = f.parity[0 if axis == "x" else 1]

    def out(x, y):
        second = d2(x, y)
        if coupling == 0.0:
            return second
        t = x if axis == "x" else y
        on_axis = t == 0.0
        tsafe = np.where(on_axis, 1.0, t)
        expanded = 2.0 * coupling * d1(x, y) / tsafe - coupling * (f(x, y) - refl(x, y)) / (tsafe * tsafe)
        limit = 2.0 * coupling * second if s == 1 else np.zeros_like(second)
        return second + np.where(on_axis, limit, expanded)

    return out


@pytest.mark.parametrize("pair", [(0.3, 0.8), (0.0, 1.3), (2.2, 0.0), (-0.45, 2.9)])
def test_hamiltonian_matches_the_written_out_second_derivatives(pair):
    # Off the axes, on x = 0 and on y = 0, in each parity sector, with a zero coupling on one axis.
    mu = DeformationParams(*pair)
    xs = np.array([0.4, -1.3, 2.2, 0.0, 0.0, 0.9, -1.7])
    ys = np.array([1.1, 0.6, -0.8, 0.9, -1.4, 0.0, 0.0])
    for s1, s2, m, nr in ((1, 1, 0, 1), (1, 1, 2, 0), (-1, -1, 1, 2), (1, -1, Fraction(1, 2), 1), (-1, 1, Fraction(3, 2), 0)):
        for f in _products(s1, s2, m, nr, mu):
            ref = -0.5 * (_expanded_second(f, "x", mu.mu1)(xs, ys) + _expanded_second(f, "y", mu.mu2)(xs, ys))
            ref += 0.5 * (xs * xs + ys * ys) * f(xs, ys)
            got = apply_hamiltonian(f, mu)(xs, ys)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("pair", [(0.5, 0.5), (-0.3, 1.2), (0.0, 1.3), (2.2, 0.0)])
def test_dunkl_derivative_lowers_the_dunkl_hermite_functions(pair):
    # (D_t + t) h_n / sqrt(2) = c_n h_(n-1), with c_n = sqrt(2) (n//2 + mu + 1/2) for
    # odd n and -sqrt(2) for even n, along each axis, off the axes, on both and at the origin.
    mu = DeformationParams(*pair)
    xs = np.array([0.4, -1.3, 2.2, 0.0, 0.0, 0.9, -1.7, 0.0])
    ys = np.array([1.1, 0.6, -0.8, 0.9, -1.4, 0.0, 0.0, 0.0])
    for n in range(1, 6):
        for other in (0, 1, 2):
            for axis, coupling, t, (n1, n2) in (("x", mu.mu1, xs, (n, other)), ("y", mu.mu2, ys, (other, n))):
                c = np.sqrt(2.0) * (n // 2 + coupling + 0.5) if n % 2 else -np.sqrt(2.0)
                f = _product(n1, n2, mu)
                lowered = _product(n1 - (axis == "x"), n2 - (axis == "y"), mu)(xs, ys)
                got = (dunkl_derivative(f, axis, mu)(xs, ys) + t * f(xs, ys)) / np.sqrt(2.0)
                assert np.max(np.abs(got - c * lowered)) <= 2e-15 * np.max(np.abs(c * lowered)), (axis, n, other)


def test_dunkl_derivative_attaches_its_partial_along_its_axis():
    # f = x y^2 e^(-r^2/2) is odd in x: D_x f = (1 - x^2 + 2 mu1) y^2 e^(-r^2/2), whose x-partial
    # x (x^2 - 3 - 2 mu1) y^2 e^(-r^2/2) equals f_xx = x (x^2 - 3) y^2 e^(-r^2/2) at x = 0.
    def e(x, y):
        return np.exp(-0.5 * (x * x + y * y))

    f = PlaneFunction(
        fn=lambda x, y: x * y**2 * e(x, y),
        dx=lambda x, y: (1.0 - x * x) * y**2 * e(x, y),
        dxx=lambda x, y: x * (x * x - 3.0) * y**2 * e(x, y),
        parity=(-1, 1),
    )
    d = dunkl_derivative(f, "x", MU)
    assert d.dy is None and d.dxx is None
    xs, ys = np.append(_X, 0.0), np.append(_Y, 0.7)
    expected = xs * (xs * xs - 3.0 - 2.0 * MU.mu1) * ys**2 * e(xs, ys)
    np.testing.assert_allclose(d.dx(xs, ys), expected, rtol=1e-13, atol=1e-15)
    assert d.dx(0.0, 0.7) == f.dxx(0.0, 0.7)
    # f_xx is looked up only when the partial is evaluated.
    first_only = dunkl_derivative(replace(f, dxx=None), "x", MU)
    np.testing.assert_allclose(first_only(_X, _Y), (1.0 - _X**2 + 2.0 * MU.mu1) * _Y**2 * e(_X, _Y), rtol=1e-13)
    with pytest.raises(DerivativeUnavailable, match="order-2 partial along x"):
        first_only.dx(_X, _Y)


def test_radial_hamiltonian_exact_eigenprofile():
    # Lowest profile of the sector with l2 = 0 at mu = 0: 2^(1/2) e^(-r^2/2).
    mu0 = DeformationParams(0.0, 0.0)
    R = GaussLaguerreSum.single(np.sqrt(2.0), 0.0, 0, 0.0)
    H = apply_radial_hamiltonian(R, mu0, 0.0)
    grid = _residual_grid()
    np.testing.assert_allclose(H(grid), 1.0 * R(grid), atol=1e-13)


def test_radial_hamiltonian_rejects_negative_l2():
    R = GaussLaguerreSum.single(1.0, 0.0, 0, 0.0)
    with pytest.raises(DomainError):
        apply_radial_hamiltonian(R, MU, -2.0)
    with pytest.raises(DomainError):
        apply_radial_hamiltonian(R, MU, float("nan"))


def test_radial_hamiltonian_on_negative_l2_sector():
    # At mu1+mu2 < -1/2 the (+,-) m = 1/2 sector has l2 = 4m(m+mu1+mu2) < 0
    # and the real Bargmann index k = m + (mu1+mu2+1)/2 = 0.6.
    mu = DeformationParams(-0.4, -0.4)
    m = Fraction(1, 2)
    l2 = AngularQuantum.build(1, -1, m, mu).l2
    assert l2 == pytest.approx(-0.6)
    grid = _residual_grid()
    for nr in range(4):
        R = radial_sturmian(RadialQuantum.from_m(nr, m, mu), mu)
        image = apply_radial_hamiltonian(R, mu, l2)
        assert np.max(np.abs(image(grid) - energy(nr, m, mu) * R(grid))) <= 1e-12


def test_angular_operator_on_cos_2phi():
    # B cos(2 phi) = (2 + 4 mu) cos(2 phi) when mu1 = mu2 = mu.
    mu = DeformationParams(0.45, 0.45)
    profile = TrigJacobiSum.single(1.0, 0, 0, 1, 0.0, 0.0)  # P_1^(0,0)(cos 2 phi) = cos 2 phi
    grid = _angular_grid(48)
    np.testing.assert_allclose(profile(grid), np.cos(2.0 * grid), rtol=1e-13, atol=1e-14)
    image = apply_angular_operator(profile, mu)
    expected = (2.0 + 4.0 * 0.45) * np.cos(2.0 * grid)
    np.testing.assert_allclose(image(grid), expected, rtol=1e-12, atol=1e-12)


def test_angular_operator_on_sin_phi():
    # B sin(phi) = (1/2 + mu1 + mu2) sin(phi).
    profile = TrigJacobiSum.single(1.0, 0, 1, 0, 0.0, 0.0)
    grid = _angular_grid(48)
    image = apply_angular_operator(profile, MU)
    expected = (0.5 + MU.total) * np.sin(grid)
    np.testing.assert_allclose(image(grid), expected, rtol=1e-12, atol=1e-12)


def _ref_angular(Phi, mu):
    """The angular operator written out with the reflected profile itself, point by point."""
    d1 = derivative_of(Phi, 1)
    d2 = derivative_of(Phi, 2)

    def out(phi):
        c, s = np.cos(phi), np.sin(phi)
        value = Phi(phi)
        drift = (mu.mu1 * s / c - mu.mu2 * c / s) * d1(phi)
        refl_x = mu.mu1 * (value - Phi(np.pi - phi)) / (2.0 * c * c)
        refl_y = mu.mu2 * (value - Phi(-phi)) / (2.0 * s * s)
        return -0.5 * d2(phi) + drift + refl_x + refl_y

    return out


def _random_trig_jacobi_sums(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        pairs = [
            (
                (int(rng.integers(0, 4)), int(rng.integers(0, 4)), int(rng.integers(0, 4)), *rng.uniform(-0.45, 2.0, 2)),
                rng.uniform(-1.0, 1.0),
            )
            for _ in range(rng.integers(1, 5))
        ]
        out.append(TrigJacobiSum(pairs))
    return out


@pytest.mark.parametrize("pair", [(0.0, 0.0), (0.45, 0.45), (0.3, 1.2), (2.9, 0.1)])
def test_angular_operator_fold_matches_the_written_out_reflections(pair, monkeypatch):
    mu = DeformationParams(*pair)
    grid = _angular_grid(64)
    folds = []
    fold = TrigJacobiSum._fold.__func__

    def counted(cls, parts):
        folds.append(cls)
        return fold(cls, parts)

    monkeypatch.setattr(TrigJacobiSum, "_fold", classmethod(counted))
    for Phi in _random_trig_jacobi_sums(7, 8):
        folds.clear()
        image = apply_angular_operator(Phi, mu)
        assert type(image) is TrigJacobiSum and len(folds) == 1
        ref = _ref_angular(Phi, mu)(grid)
        assert np.max(np.abs(image(grid) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_angular_operator_rejects_axis_points():
    # The image of sin(phi) has terms in 1/sin(phi), so phi = 0 is refused.
    profile = TrigJacobiSum.single(1.0, 0, 1, 0, 0.0, 0.0)
    image = apply_angular_operator(profile, MU)
    with pytest.raises(SingularityError):
        image(np.array([0.3, 0.0]))


def test_angular_operator_is_finite_on_the_axis_its_negative_powers_avoid():
    # No term of the image of sin(phi) has a negative power of cos(phi).
    image = apply_angular_operator(TrigJacobiSum.single(1.0, 0, 1, 0, 0.0, 0.0), MU)
    assert all(i >= 0 for i, *_ in image.terms)
    on_axis = image(np.array([0.3, np.pi / 2.0]))
    assert on_axis[1] == pytest.approx(image(np.pi / 2.0 - 1e-9), rel=1e-12)
    assert on_axis[1] == pytest.approx(2.0 * MU.mu2, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(min_value=-3.0, max_value=3.0),
    y=st.floats(min_value=-3.0, max_value=3.0),
)
def test_reflection_squares_to_identity_property(x, y):
    f = PlaneFunction(fn=lambda a, b: np.sin(a) * np.cos(b) + a * b)
    for axis in ("x", "y"):
        double = reflect(reflect(f, axis), axis)
        assert float(double(x, y)) == pytest.approx(float(f(x, y)), rel=1e-14, abs=1e-14)
