"""Special-function evaluation and quadrature against independent oracles."""

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_oscillator.basis import (
    AngularQuantum,
    RadialQuantum,
    angular_wavefunction,
    log_gamma,
    radial_sturmian,
)
from dunkl_oscillator.coherent import CoherentParams, coherent_closed
from dunkl_oscillator.errors import DomainError, SingularityError
from dunkl_oscillator.profiles import GaussLaguerreSum
from dunkl_oscillator import specfun
from dunkl_oscillator.specfun import (
    DeformationParams,
    _gauss_jacobi,
    angular_gram,
    jacobi,
    laguerre,
    laguerre_all,
    radial_gram,
    radial_inner_product,
)


# --- polynomial evaluation ---------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.7, 2.0, 3.8])
def test_laguerre_matches_scipy(n, alpha):
    x = np.linspace(0.0, 25.0, 40)
    expected = scipy.special.eval_genlaguerre(n, alpha, x)
    np.testing.assert_allclose(laguerre(n, alpha, x), expected, rtol=1e-12, atol=1e-12)


def test_laguerre_matches_mpmath_high_precision():
    mpmath.mp.dps = 40
    for n, alpha, x in [(3, 0.4, 1.7), (7, -0.3, 9.2), (12, 2.5, 0.3)]:
        expected = float(mpmath.laguerre(n, alpha, x))
        assert laguerre(n, alpha, x) == pytest.approx(expected, rel=1e-13, abs=1e-13)


def test_laguerre_scalar_in_scalar_out():
    out = laguerre(4, 1.0, 2.0)
    assert np.ndim(out) == 0
    assert isinstance(float(out), float)


@pytest.mark.parametrize(
    "poly", [lambda n, x: laguerre(n, 0.5, x), lambda n, x: jacobi(n, 0.5, 0.5, x)], ids=["laguerre", "jacobi"]
)
def test_degree_zero_has_the_type_of_degree_one_for_integer_x(poly):
    # At degree 0 the polynomial is the constant 1, still a float as at every other degree.
    assert type(poly(0, 3)) is type(poly(1, 3)) is float
    assert poly(0, np.arange(3)).dtype == poly(1, np.arange(3)).dtype == np.float64
    np.testing.assert_array_equal(poly(0, np.arange(3)), [1.0, 1.0, 1.0])


def test_laguerre_all_consistent_with_single():
    x = np.linspace(0.0, 12.0, 15)
    table = laguerre_all(6, 0.8, x)
    assert table.shape == (7, 15)
    for n in range(7):
        np.testing.assert_allclose(table[n], laguerre(n, 0.8, x), rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("n", [0, 1, 3, 6, 10])
@pytest.mark.parametrize("ab", [(-0.5, -0.5), (0.0, 0.0), (1.2, -0.3), (2.0, 3.5)])
def test_jacobi_matches_scipy(n, ab):
    alpha, beta = ab
    x = np.linspace(-1.0, 1.0, 33)
    expected = scipy.special.eval_jacobi(n, alpha, beta, x)
    np.testing.assert_allclose(jacobi(n, alpha, beta, x), expected, rtol=1e-11, atol=1e-12)


def test_jacobi_matches_mpmath_high_precision():
    mpmath.mp.dps = 40
    for n, a, b, x in [(2, 0.3, 1.1, -0.4), (8, -0.45, 0.2, 0.9), (5, 2.0, 2.0, 0.1)]:
        expected = float(mpmath.jacobi(n, a, b, x))
        assert jacobi(n, a, b, x) == pytest.approx(expected, rel=1e-12, abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=12),
    alpha=st.floats(min_value=-0.9, max_value=3.0),
    x=st.floats(min_value=0.0, max_value=30.0),
)
def test_laguerre_random_inputs_match_scipy(n, alpha, x):
    expected = scipy.special.eval_genlaguerre(n, alpha, x)
    assert laguerre(n, alpha, x) == pytest.approx(expected, rel=1e-10, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=10),
    alpha=st.floats(min_value=-0.9, max_value=2.5),
    beta=st.floats(min_value=-0.9, max_value=2.5),
    x=st.floats(min_value=-1.0, max_value=1.0),
)
def test_jacobi_random_inputs_match_scipy(n, alpha, beta, x):
    expected = scipy.special.eval_jacobi(n, alpha, beta, x)
    assert jacobi(n, alpha, beta, x) == pytest.approx(expected, rel=1e-9, abs=1e-10)


def test_polynomial_domain_errors():
    with pytest.raises(DomainError):
        laguerre(-1, 0.0, 1.0)
    with pytest.raises(DomainError):
        laguerre(2, -1.0, 1.0)
    with pytest.raises(DomainError):
        jacobi(3, -1.2, 0.0, 0.5)
    with pytest.raises(DomainError):
        jacobi(-2, 0.0, 0.0, 0.5)


_POLYNOMIALS_AT = {
    "laguerre": lambda x: laguerre(3, 0.5, x),
    "jacobi": lambda x: jacobi(4, 0.5, 0.5, x),
    "laguerre_all": lambda x: laguerre_all(3, 0.5, x),
}


@pytest.mark.parametrize("name", list(_POLYNOMIALS_AT))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
def test_polynomials_refuse_a_non_finite_x_without_a_warning(name, bad):
    # A NaN x gave NaN silently, and an infinite x gave NaN with a RuntimeWarning.
    at = _POLYNOMIALS_AT[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (bad, [bad], np.array([0.2, bad, math.nan, 0.7])):
            with pytest.raises(DomainError, match=f"^x must be finite, got {bad}$"):
                at(x)
        # The first bad value is the one named, and a finite x keeps its values.
        with pytest.raises(DomainError, match="got nan$"):
            at(np.array([[0.2, 0.1], [math.nan, bad]]))
        assert np.all(np.isfinite(at(np.array([0.0, 0.3, -0.9, 1.0]))))


# --- log-gamma ---------------------------------------------------------------


def test_log_gamma_matches_mpmath():
    mpmath.mp.dps = 50
    for x in [1e-3, 0.1, 0.5, 1.0, 1.7, 4.2, 11.0, 87.5, 400.0]:
        expected = float(mpmath.loggamma(x))
        assert log_gamma(x) == pytest.approx(expected, rel=1e-13, abs=1e-13)


def test_log_gamma_functional_equation():
    for x in [0.3, 1.9, 7.7]:
        assert log_gamma(x + 1.0) == pytest.approx(log_gamma(x) + math.log(x), rel=1e-14)


def test_log_gamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-2.5)


def test_log_gamma_refuses_a_finite_x_whose_value_overflows():
    # ln Gamma(x) ~ x ln x passes the largest float near x = 2.56e305.
    assert log_gamma(2.5e305) == pytest.approx(2.5e305 * (math.log(2.5e305) - 1.0), rel=1e-12)
    for x in (2.6e305, 1e308, sys.float_info.max):
        with pytest.raises(DomainError, match="log_gamma overflows a float"):
            log_gamma(x)


# --- quadrature --------------------------------------------------------------


@pytest.mark.parametrize("ab", [(-0.5, -0.5), (0.0, 0.0), (0.3, 2.5), (-0.2, -0.8), (-0.999, -0.98), (-0.9999, 0.5)])
@pytest.mark.parametrize("n", [1, 4, 16])
def test_gauss_jacobi_moments_exact_through_degree_2n_minus_1(ab, n):
    mpmath.mp.dps = 40
    a, b = (mpmath.mpf(v) for v in ab)
    x, w = _gauss_jacobi(n, *ab)
    # With x = 2u - 1: int (1-x)^a (1+x)^b x^d dx = 2^(a+b+1) sum_j C(d,j) (-1)^(d-j) 2^j B(a+1, b+j+1).
    for d in range(2 * n):
        exact = 2 ** (a + b + 1) * mpmath.fsum(
            mpmath.binomial(d, j) * (-1) ** (d - j) * 2**j * mpmath.beta(a + 1, b + j + 1) for j in range(d + 1)
        )
        assert float(np.sum(w * x**d)) == pytest.approx(float(exact), abs=1e-12 * float(w.sum()))


@pytest.mark.parametrize("mu_pair", [(-0.3, -0.2), (2.36, -0.44), (-0.4999, 3.0), (-0.45, -0.45)])
def test_angular_inner_product_of_smooth_callable_against_beta_series(mu_pair):
    mpmath.mp.dps = 30
    mu1, mu2 = (mpmath.mpf(v) for v in mu_pair)
    # exp(cos)(1 + 0.3 sin)^2 = sum_j cos^j/j! (1 + 0.6 sin + 0.09 sin^2); odd powers of cos or sin
    # integrate to zero, and int |cos|^(2 mu1 + j) |sin|^(2 mu2 + l) = 2 B(mu1 + (j+1)/2, mu2 + (l+1)/2).
    exact = float(
        mpmath.fsum(
            2 * (mpmath.beta(mu1 + (j + 1) / 2, mu2 + 0.5) + 0.09 * mpmath.beta(mu1 + (j + 1) / 2, mu2 + 1.5))
            / mpmath.factorial(j)
            for j in range(0, 80, 2)
        )
    )
    f = lambda phi: np.exp(np.cos(phi)) * (1.0 + 0.3 * np.sin(phi))
    g = lambda phi: 1.0 + 0.3 * np.sin(phi)
    for npoints in (32, 64, 256):
        assert angular_gram([f, g], mu_pair, npoints=npoints)[0, 1] == pytest.approx(exact, rel=1e-13)


def test_radial_inner_product_against_gamma_integrals():
    mpmath.mp.dps = 30
    cases = [((0.0, 0.0), 0.0, 2.0), ((0.5, 0.5), 1.0, 3.0), ((0.3, 1.2), 0.5, 0.5)]
    # r^(1+2*mu1+2*mu2) with mu1+mu2 = -0.45, -0.9, -0.99 is singular at r = 0.
    cases += [((-0.2, -0.25), 0.0, 0.0), ((-0.45, -0.45), 0.0, 0.0), ((-0.495, -0.495), 0.0, 0.0)]
    for mu_pair, a, b in cases:
        mu = DeformationParams(*mu_pair)

        def f(r, a=a):
            return r**a * np.exp(-0.5 * r * r)

        def g(r, b=b):
            return r**b * np.exp(-0.5 * r * r)

        # integral of r^(a+b+1+2 mu_s) e^(-r^2) dr = Gamma((a+b+2+2 mu_s)/2) / 2
        exact = float(0.5 * mpmath.gamma(0.5 * (a + b + 2.0 + 2.0 * mu.total)))
        assert radial_inner_product(f, g, mu) == pytest.approx(exact, rel=1e-12)


def test_angular_inner_product_against_beta_integrals():
    mpmath.mp.dps = 30
    for mu_pair in [(0.0, 0.0), (0.5, 0.5), (0.3, 1.2), (1.1, 0.2)]:
        mu = DeformationParams(*mu_pair)
        one = lambda phi: np.ones_like(phi)
        # full-circle weight integral: 2 Gamma(mu1+1/2) Gamma(mu2+1/2) / Gamma(mu1+mu2+1)
        exact = float(
            2.0
            * mpmath.gamma(mu.mu1 + 0.5)
            * mpmath.gamma(mu.mu2 + 0.5)
            / mpmath.gamma(mu.total + 1.0)
        )
        assert angular_gram([one], mu)[0, 0] == pytest.approx(exact, rel=1e-11)


def test_angular_inner_product_cosine_moment():
    mpmath.mp.dps = 30
    mu = DeformationParams(0.7, 0.25)
    cos2 = lambda phi: np.cos(phi) ** 2
    one = lambda phi: np.ones_like(phi)
    exact = float(
        2.0
        * mpmath.gamma(mu.mu1 + 1.5)
        * mpmath.gamma(mu.mu2 + 0.5)
        / mpmath.gamma(mu.total + 2.0)
    )
    assert angular_gram([cos2, one], mu)[0, 1] == pytest.approx(exact, rel=1e-11)


def test_angular_weight_mass_overflow_is_a_domain_error():
    # The Gamma functions of the Gauss-Jacobi weight mass overflow a float
    # past mu1 + mu2 of about 170; below that the rule still integrates.
    one = lambda phi: np.ones_like(phi)
    with pytest.raises(DomainError, match=r"weight mass overflows at mu = \(100.0, 100.0\)"):
        angular_gram([one], (100.0, 100.0))
    assert math.isfinite(angular_gram([one], (80.0, 80.0))[0, 0])


def test_radial_weight_overflow_is_a_domain_error():
    # r^(1 + 2 mu1 + 2 mu2) passes the float range at the rule's last node
    # (just below rmax = 12) once mu1 + mu2 is past about 142.3.
    gauss = lambda r: np.exp(-0.5 * r * r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"overflows at mu1 \+ mu2 = 160.0, rmax = 12.0"):
            radial_gram([gauss], (80.0, 80.0))
        with pytest.raises(DomainError, match="overflows"):
            radial_inner_product(gauss, gauss, (80.0, 80.0))
        nodes, weights = specfun._radial_measure((70.0, 70.0), 12.0, 400)
        _, r, w = specfun._radial_panels(12.0, 400)
        assert np.all(np.isfinite(weights))
        assert np.array_equal(weights[-r.size :], w * r**281.0)
        assert math.isfinite(radial_gram([gauss], (70.0, 70.0))[0, 0])


def test_inner_product_complex_values_pass_through():
    mu = DeformationParams(0.5, 0.5)
    f = lambda r: (1.0 + 2.0j) * np.exp(-0.5 * r * r)
    g = lambda r: np.exp(-0.5 * r * r)
    val = radial_inner_product(f, g, mu)
    assert isinstance(val, complex)
    assert val.imag == pytest.approx(2.0 * val.real / 1.0, rel=1e-12)


def test_inner_product_domain_errors():
    with pytest.raises(DomainError):
        radial_inner_product(lambda r: r, lambda r: r, DeformationParams(0.5, 0.5), rmax=-1.0)
    with pytest.raises(DomainError):
        radial_inner_product(lambda r: r, lambda r: r, DeformationParams(0.5, 0.5), npoints=4)


@pytest.mark.parametrize("mu_pair", [(0.0, 0.0), (-0.3, 0.4)])
def test_gram_matrices_equal_pairwise_inner_products(mu_pair):
    mu = DeformationParams(*mu_pair)
    labels = [(1, 1, 0), (1, 1, 1), (1, -1, 0.5), (-1, -1, 1), (-1, 1, 1.5)]
    angular = [
        angular_wavefunction(AngularQuantum.build(s1, s2, m, mu), mu) for s1, s2, m in labels
    ]
    # A plain callable that is not orthogonal to the basis gives O(1) off-diagonal entries;
    # one that returns a scalar, as radial_inner_product takes, is broadcast to the nodes.
    angular += [lambda phi: np.cos(phi) ** 2 + 0.3 * np.sin(phi), lambda phi: 1.0]
    radial = [radial_sturmian(RadialQuantum.from_m(n, 0.5, mu), mu) for n in range(4)]
    radial += [lambda r: r * np.exp(-0.5 * r * r), lambda r: 1.0]
    angular_pair = lambda f, g, mu: angular_gram([f, g], mu)[0, 1]
    for gram, inner, fns in (
        (angular_gram, angular_pair, angular),
        (radial_gram, radial_inner_product, radial),
    ):
        pairwise = np.array([[inner(f, g, mu) for g in fns] for f in fns])
        assert np.max(np.abs(gram(fns, mu) - pairwise)) <= 1e-14


def test_radial_sums_and_coherent_states_share_the_one_origin_refusal():
    # One radius rule in specfun refuses r = 0 under a negative power, for a term sum and a coherent state.
    mu = DeformationParams(0.5, 0.5)
    term_sum = GaussLaguerreSum.single(1.0, -0.5, 0, 0.0)
    state = CoherentParams(xi=0.3, k=0.3)  # r^(2k - mu1 - mu2 - 1) = r^(-1.4)
    for evaluate in (term_sum, lambda r: coherent_closed(r, state, mu)):
        with pytest.raises(SingularityError, match="^evaluation at r = 0 hits a negative power of r$"):
            evaluate(np.array([0.0, 1.0]))
        assert np.isfinite(evaluate(np.array([0.5, 1.0]))).all()


def test_gram_domain_errors_match_inner_products():
    one = lambda x: np.ones_like(x)
    for mu, kwargs in [((-0.6, -0.45), {}), ((0.5, 0.5), {"npoints": 4}), ((0.5, 0.5), {"rmax": -1.0})]:
        with pytest.raises(DomainError) as from_inner:
            radial_inner_product(one, one, mu, **kwargs)
        with pytest.raises(DomainError) as from_gram:
            radial_gram([one], mu, **kwargs)
        assert str(from_gram.value) == str(from_inner.value)
    for mu, kwargs in [((-0.5, 0.2), {}), ((0.5, 0.5), {"npoints": 8})]:
        with pytest.raises(DomainError):
            angular_gram([one], mu, **kwargs)


_ONE = lambda x: np.ones_like(x)


@pytest.mark.parametrize("mu", [(-0.7, 0.5), (0.5, -0.6), (math.nan, 0.5)])
def test_quadratures_refuse_mu_by_the_deformation_params_rule(mu):
    # (-0.7, 0.5) has an integrable radial weight, but no plane weight.
    with pytest.raises(DomainError) as rule:
        DeformationParams(*mu)
    for quadrature in (
        lambda: radial_inner_product(_ONE, _ONE, mu),
        lambda: radial_gram([_ONE], mu),
        lambda: angular_gram([_ONE], mu),
    ):
        with pytest.raises(DomainError) as got:
            quadrature()
        assert str(got.value) == str(rule.value)


def test_a_plain_mu_pair_and_its_deformation_params_agree_bit_for_bit():
    pair = (-0.3, 1.7)
    mu = DeformationParams(*pair)
    assert DeformationParams.of(mu) is mu and DeformationParams.of(pair) == mu
    radial = [lambda r: np.exp(-0.5 * r * r), lambda r: r * np.exp(-0.5 * r * r)]
    angular = [np.cos, lambda phi: np.sin(phi) ** 2]
    assert radial_inner_product(*radial, pair) == radial_inner_product(*radial, mu)
    assert np.array_equal(radial_gram(radial, pair), radial_gram(radial, mu))
    assert np.array_equal(angular_gram(angular, pair), angular_gram(angular, mu))


def test_quadrature_sizes_past_their_bounds_are_refused_before_any_rule_is_built(monkeypatch):
    # Building a rule would raise TypeError, not DomainError.
    monkeypatch.setattr(specfun, "_radial_panels", None)
    monkeypatch.setattr(specfun, "_gauss_jacobi", None)
    with pytest.raises(DomainError, match="npoints must be an integer from 16 to 1000000"):
        radial_inner_product(_ONE, _ONE, (0.5, 0.5), npoints=1_000_001)
    with pytest.raises(DomainError, match="npoints must be an integer from 16 to 1000000"):
        radial_gram([_ONE], (0.5, 0.5), npoints=1_000_001)
    for npoints in (4097, 2**20):
        with pytest.raises(DomainError, match="npoints must be an integer from 32 to 4096"):
            angular_gram([_ONE], (0.5, 0.5), npoints=npoints)


@pytest.mark.parametrize(
    "fn, args, kwargs",
    [
        (laguerre, (2, math.nan, 1.0), {}),
        (laguerre, (2, math.inf, 1.0), {}),
        (laguerre_all, (2, math.nan, 1.0), {}),
        (jacobi, (2, math.nan, 0.0, 0.3), {}),
        (jacobi, (2, 0.0, math.inf, 0.3), {}),
        (log_gamma, (math.nan,), {}),
        (log_gamma, (math.inf,), {}),
        (radial_inner_product, (_ONE, _ONE, (0.0, 0.0)), {"rmax": math.nan}),
        (radial_inner_product, (_ONE, _ONE, (0.0, 0.0)), {"rmax": math.inf}),
        (radial_inner_product, (_ONE, _ONE, (math.nan, 0.0)), {}),
        (radial_gram, ([_ONE], (0.0, math.inf)), {}),
        (angular_gram, ([_ONE], (math.nan, 0.0)), {}),
        (angular_gram, ([_ONE], (math.inf, 0.0)), {}),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_non_finite_parameters_raise_domain_error(fn, args, kwargs):
    with pytest.raises(DomainError):
        fn(*args, **kwargs)



@pytest.mark.parametrize("npoints", [math.nan, math.inf, 400.7, 40.5, 64.0, "64"])
def test_quadrature_sizes_must_be_integers(npoints):
    # A float size is refused, not truncated: 400.7 would have become 400.
    with pytest.raises(DomainError, match="npoints must be an integer"):
        radial_inner_product(_ONE, _ONE, (0.0, 0.0), npoints=npoints)
    with pytest.raises(DomainError, match="npoints must be an integer"):
        radial_gram([_ONE], (0.0, 0.0), npoints=npoints)
    with pytest.raises(DomainError, match="npoints must be an integer"):
        angular_gram([_ONE], (0.0, 0.0), npoints=npoints)


def test_quadrature_sizes_take_numpy_integers():
    assert radial_inner_product(_ONE, _ONE, (0.0, 0.0), npoints=np.int64(400)) == radial_inner_product(
        _ONE, _ONE, (0.0, 0.0), npoints=400
    )
    assert angular_gram([_ONE], (0.0, 0.0), npoints=np.int32(64)) == angular_gram([_ONE], (0.0, 0.0))


@pytest.mark.parametrize("gram", [radial_gram, angular_gram])
def test_gram_of_no_functions_is_refused(gram):
    with pytest.raises(DomainError, match="at least one function"):
        gram([], (0.0, 0.0))
    with pytest.raises(DomainError, match="at least one function"):
        gram(iter(()), (0.0, 0.0))
