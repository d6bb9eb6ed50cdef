"""Raising/lowering structure, factorization, and Casimir identities."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_oscillator.basis import (
    AngularQuantum,
    RadialQuantum,
    energy,
    radial_sturmian,
    substitute_u,
)
from dunkl_oscillator import su11
from dunkl_oscillator.coherent import CoherentParams
from dunkl_oscillator.dunkl_ops import apply_radial_hamiltonian
from dunkl_oscillator.errors import DomainError, RepresentationError
from dunkl_oscillator.profiles import (
    DeformationParams,
    GaussLaguerreSum,
    derivative_of,
)
from dunkl_oscillator.su11 import (
    apply_A,
    apply_B0,
    apply_J,
    bargmann_index,
    factorization_product_eigenvalue,
    ladder_coefficients,
    schrodinger_factorize,
)
from dunkl_oscillator.verify import _defect, _residual_grid

MU = DeformationParams(0.3, 1.2)
GRID = _residual_grid(40, 0.1, 6.0)


def _l2_of(m, mu):
    """l^2 = 4 m (m + mu1 + mu2), as the angular label of the sector m holds it."""
    return AngularQuantum.build(1, 1 if Fraction(m).denominator == 1 else -1, m, mu).l2


# --- discrete-series bookkeeping --------------------------------------------


def test_ladder_coefficients_closed_form():
    state = RadialQuantum(nr=2, k=1.5)
    assert ladder_coefficients(state, "0") == pytest.approx(3.5)
    assert ladder_coefficients(state, "+") == pytest.approx(math.sqrt(3.0 * (3.0 + 2.0)))
    assert ladder_coefficients(state, "-") == pytest.approx(math.sqrt(2.0 * (3.0 + 1.0)))
    assert ladder_coefficients(RadialQuantum(nr=0, k=0.7), "-") == 0.0


def test_algebra_state_validation():
    with pytest.raises(RepresentationError):
        RadialQuantum(nr=0, k=0.0)
    with pytest.raises(DomainError):
        RadialQuantum(nr=-1, k=1.0)
    with pytest.raises(DomainError):
        ladder_coefficients(RadialQuantum(nr=0, k=1.0), "up")


def test_bargmann_index_roots():
    k_plus, k_minus = bargmann_index(Fraction(1, 2), MU)
    mus = MU.total
    assert k_plus == pytest.approx(0.5 + 0.5 * (mus + 1.0))
    assert k_minus == pytest.approx(-0.5 - 0.5 * (mus - 1.0))
    # both roots solve k(k-1) = (l^2 + mus^2 - 1)/4
    target = 0.25 * (_l2_of(Fraction(1, 2), MU) + mus**2 - 1.0)
    for k in (k_plus, k_minus):
        assert k * (k - 1.0) == pytest.approx(target, abs=1e-12)


# --- ladder action on eigenfunctions ----------------------------------------


def _sturmian(nr, m, mu):
    q = RadialQuantum.from_m(nr, m, mu)
    return radial_sturmian(q, mu), q.k


@pytest.mark.parametrize("m", [Fraction(0), Fraction(1, 2), Fraction(2)])
def test_raising_matches_coefficient(m):
    l2 = _l2_of(m, MU)
    for nr in (0, 1, 3):
        R, k = _sturmian(nr, m, MU)
        up, _ = _sturmian(nr + 1, m, MU)
        coeff = ladder_coefficients(RadialQuantum(nr=nr, k=k), "+")
        got = apply_A(R, "+", MU, l2)(GRID)
        np.testing.assert_allclose(got, coeff * up(GRID), rtol=1e-9, atol=1e-10)


@pytest.mark.parametrize("m", [Fraction(0), Fraction(1, 2), Fraction(2)])
def test_lowering_matches_coefficient(m):
    l2 = _l2_of(m, MU)
    for nr in (1, 2, 4):
        R, k = _sturmian(nr, m, MU)
        down, _ = _sturmian(nr - 1, m, MU)
        coeff = ladder_coefficients(RadialQuantum(nr=nr, k=k), "-")
        got = apply_A(R, "-", MU, l2)(GRID)
        np.testing.assert_allclose(got, coeff * down(GRID), rtol=1e-9, atol=1e-10)


def test_diagonal_matches_coefficient():
    m = Fraction(1, 2)
    l2 = _l2_of(m, MU)
    R, k = _sturmian(2, m, MU)
    got = apply_A(R, "0", MU, l2)(GRID)
    np.testing.assert_allclose(got, (k + 2.0) * R(GRID), rtol=1e-10, atol=1e-11)


def test_lowest_weight_is_annihilated():
    for m in (Fraction(0), Fraction(3, 2)):
        l2 = _l2_of(m, MU)
        R, _ = _sturmian(0, m, MU)
        got = apply_A(R, "-", MU, l2)(GRID)
        scale = np.max(np.abs(R(GRID)))
        assert np.max(np.abs(got)) <= 1e-9 * scale


def test_diagonal_generator_spec_example_coefficients():
    # m = 0 at mu1 = mu2 = 0.5 has k = 1, so A+ on the ground state scales by
    # sqrt(1 * 2k) = sqrt(2); the half-integer sector has k = 1.5 and sqrt(3).
    mu = DeformationParams(0.5, 0.5)
    grid = _residual_grid(30, 0.2, 4.0)
    for m, expected in [(Fraction(0), math.sqrt(2.0)), (Fraction(1, 2), math.sqrt(3.0))]:
        l2 = _l2_of(m, mu)
        q0 = RadialQuantum.from_m(0, m, mu)
        R0 = radial_sturmian(q0, mu)
        R1 = radial_sturmian(RadialQuantum.from_m(1, m, mu), mu)
        assert ladder_coefficients(q0, "+") == pytest.approx(expected)
        got = apply_A(R0, "+", mu, l2)(grid)
        np.testing.assert_allclose(got, expected * R1(grid), rtol=1e-9, atol=1e-11)


def test_apply_A_validates_arguments():
    R, _ = _sturmian(0, Fraction(0), MU)
    with pytest.raises(DomainError):
        apply_A(R, "up", MU, 0.0)
    with pytest.raises(DomainError):
        apply_A(R, "+", MU, -3.0)
    with pytest.raises(DomainError):
        apply_A(R, "0", MU, float("nan"))


def test_ladders_on_negative_l2_sector():
    # The (+,-) m = 1/2 sector at mu1+mu2 = -0.8: l2 = -0.6, k = 0.6.
    mu = DeformationParams(-0.4, -0.4)
    m = Fraction(1, 2)
    l2 = _l2_of(m, mu)
    assert l2 < 0.0
    grid = _residual_grid()
    profiles = [_sturmian(nr, m, mu)[0] for nr in range(5)]
    k = RadialQuantum.from_m(0, m, mu).k
    for nr in range(4):
        state = RadialQuantum(nr=nr, k=k)
        R, up = profiles[nr], profiles[nr + 1]
        np.testing.assert_allclose(
            apply_A(R, "+", mu, l2)(grid), ladder_coefficients(state, "+") * up(grid), atol=1e-11
        )
        np.testing.assert_allclose(
            apply_A(up, "-", mu, l2)(grid),
            ladder_coefficients(RadialQuantum(nr=nr + 1, k=k), "-") * R(grid),
            atol=1e-11,
        )
        np.testing.assert_allclose(
            apply_A(R, "0", mu, l2)(grid), ladder_coefficients(state, "0") * R(grid), atol=1e-11
        )


# --- operator identities on arbitrary smooth profiles ------------------------


def _random_gaussian_polynomials(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        coeffs = rng.uniform(-1.0, 1.0, size=rng.integers(2, 6))
        out.append(GaussLaguerreSum.gaussian_polynomial(coeffs))
    return out


def _bracket(pair, R, A):
    """Both sides of the bracket relation on R, as term sums built by A(P, which)."""
    if pair == "0+":
        raised = A(R, "+")
        return A(raised, "0") + (-1.0) * A(A(R, "0"), "+"), raised
    if pair == "0-":
        lowered = A(R, "-")
        return A(lowered, "0") + (-1.0) * A(A(R, "0"), "-"), (-1.0) * lowered
    return A(A(R, "+"), "-") + (-1.0) * A(A(R, "-"), "+"), 2.0 * A(R, "0")


def _casimir_defect(R, k, mu, l2):
    """verify's defect of -A+A- R + A0(A0 - 1) R = k(k-1) R."""
    diag = apply_A(R, "0", mu, l2)
    casimir = (-1.0) * apply_A(apply_A(R, "-", mu, l2), "+", mu, l2) + apply_A(diag, "0", mu, l2) + (-1.0) * diag
    return _defect(casimir, k * (k - 1.0) * R, R)


def _factorization_defect(U, E, l2, mu, branch):
    """verify's defect of (J- - 1/2)(J+ - 1/2) U ("upper") or (J+ + 1/2)(J- + 1/2) U ("lower") against its eigenvalue times U."""
    sign = 1 if branch == "upper" else -1
    V = apply_J(U, E, sign) + (-0.5 * sign) * U
    Z = apply_J(V, E, -sign) + (-0.5 * sign) * V
    return _defect(Z, factorization_product_eigenvalue(E, l2, mu, branch) * U, U)


def test_commutators_close_on_random_profiles():
    for idx, prof in enumerate(_random_gaussian_polynomials(42, 6)):
        l2 = float(idx % 3)
        for pair in ("0+", "0-", "-+"):
            res = _defect(*_bracket(pair, prof, lambda P, w: apply_A(P, w, MU, l2)), prof)
            assert res <= 1e-6, f"{pair} residual {res:.3e} on profile {idx}"


def test_casimir_is_exact_operator_identity():
    # -A+A- + A0(A0-1) acts as the scalar k(k-1) on any smooth profile.
    for m in (Fraction(0), Fraction(1, 2), Fraction(2)):
        l2 = _l2_of(m, MU)
        k_plus, _ = bargmann_index(m, MU)
        for prof in _random_gaussian_polynomials(7, 3):
            assert _casimir_defect(prof, k_plus, MU, l2) <= 1e-7


def test_casimir_scalar_matches_closed_form():
    m = Fraction(2)
    l2 = _l2_of(m, MU)
    expected = 0.25 * (MU.total**2 + l2 - 1.0)
    k_plus, _ = bargmann_index(m, MU)
    assert k_plus * (k_plus - 1.0) == pytest.approx(expected, abs=1e-12)


def test_diagonal_generator_is_half_radial_hamiltonian():
    m = Fraction(1, 2)
    l2 = _l2_of(m, MU)
    for prof in _random_gaussian_polynomials(11, 4):
        lhs = apply_A(prof, "0", MU, l2)(GRID)
        rhs = 0.5 * apply_radial_hamiltonian(prof, MU, l2)(GRID)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


# Reference copies of H_r, A0+-, B0 and the brackets, each written out on its
# own, term by term with + and *: the operator rows must reproduce them to
# rounding, at most 1e-14 of the largest reference value.


def _ref_radial_hamiltonian(R, mu, l2):
    d1 = derivative_of(R, 1)
    d2 = derivative_of(R, 2)
    out = (-0.5) * d2 + 0.5 * R.times_rpower(2)
    c1 = -0.5 - mu.total
    if c1 != 0.0:
        out = out + c1 * d1.times_rpower(-1)
    if l2 != 0.0:
        out = out + (0.5 * l2) * R.times_rpower(-2)
    return out


def _ref_A(R, which, mu, l2):
    d1 = derivative_of(R, 1)
    if which == "0":
        d2 = derivative_of(R, 2)
        out = (-0.25) * d2 + 0.25 * R.times_rpower(2)
        c1 = -0.25 * (1.0 + 2.0 * mu.total)
        if c1 != 0.0:
            out = out + c1 * d1.times_rpower(-1)
        if l2 != 0.0:
            out = out + (0.25 * l2) * R.times_rpower(-2)
        return out
    sign = 1.0 if which == "+" else -1.0
    return (
        (0.5 * sign) * d1.times_rpower(1)
        + (-0.5) * R.times_rpower(2)
        + _ref_A(R, "0", mu, l2)
        + (0.5 * sign * (1.0 + mu.total)) * R
    )


def _ref_B0(U, l2, mu):
    out = (-0.25) * derivative_of(U, 2) + 0.25 * U.times_rpower(2)
    coeff = l2 - 0.25 + mu.total * mu.total
    if coeff != 0.0:
        out = out + (0.25 * coeff) * U.times_rpower(-2)
    return out


def _ref_J(U, E, sign):
    return (-0.5 * sign) * derivative_of(U, 1).times_rpower(1) + 0.5 * U.times_rpower(2) + (0.5 * (0.5 * sign - E)) * U


_MU_NO_DRIFT = DeformationParams(-0.2, -0.3)


@pytest.mark.parametrize(
    "mu, l2",
    [
        (MU, 4.75),
        (MU, 0.0),
        (MU, 0.25 - MU.total**2),
        (_MU_NO_DRIFT, 1.3),
        (_MU_NO_DRIFT, 0.0),
    ],
)
def test_operators_are_bit_identical_to_their_written_out_forms(mu, l2):
    for prof in _random_gaussian_polynomials(5, 4):
        pairs = [
            (apply_radial_hamiltonian(prof, mu, l2), _ref_radial_hamiltonian(prof, mu, l2)),
            (apply_B0(prof, l2, mu), _ref_B0(prof, l2, mu)),
            *((apply_A(prof, w, mu, l2), _ref_A(prof, w, mu, l2)) for w in ("0", "+", "-")),
            *((apply_J(prof, 2.0 + l2, sign), _ref_J(prof, 2.0 + l2, sign)) for sign in (1, -1)),
        ]
        for got, ref in pairs:
            ref_values = ref(GRID)
            assert np.max(np.abs(got(GRID) - ref_values)) <= 1e-14 * np.max(np.abs(ref_values))
        for pair in ("0+", "0-", "-+"):
            # Both defects are relative to prof; scale is each side's size on the same footing.
            lhs, rhs = _bracket(pair, prof, lambda P, w: _ref_A(P, w, mu, l2))
            scale = max(_defect(side, GaussLaguerreSum(()), prof) for side in (lhs, rhs))
            got = _defect(*_bracket(pair, prof, lambda P, w: apply_A(P, w, mu, l2)), prof)
            assert abs(got - _defect(lhs, rhs, prof)) <= 1e-14 * scale
    # A plain callable, which has no exact derivative, is refused by every operator.
    def plain(r):
        return (1.0 + 0.3 * r**3 - 0.1 * r**4) * np.exp(-0.5 * r * r)

    builders = [
        lambda: apply_radial_hamiltonian(plain, mu, l2),
        lambda: apply_B0(plain, l2, mu),
        *(lambda w=w: apply_A(plain, w, mu, l2) for w in ("0", "+", "-")),
        *(lambda sign=sign: apply_J(plain, 2.0 + l2, sign) for sign in (1, -1)),
    ]
    for build in builders:
        with pytest.raises(TypeError, match="term-sum Profile"):
            build()


@pytest.mark.parametrize("two_m", [0, 1, 2])
def test_public_residuals_see_a_1e_10_fault_where_the_sturmians_are_small(two_m, monkeypatch):
    # At mu = (30, 30) |k, 2> is of order 1e-40 on a grid of r <= 10, where a
    # pointwise sup-norm reads about 1e-46 with these faults or without them.
    mu = DeformationParams(30.0, 30.0)
    m = Fraction(two_m, 2)
    l2 = _l2_of(m, mu)
    k = bargmann_index(m, mu)[0]
    R = radial_sturmian(RadialQuantum(nr=2, k=k), mu)
    real = su11._radial_operator

    def residuals():
        brackets = [_defect(*_bracket(pair, R, lambda P, w: apply_A(P, w, mu, l2)), R) for pair in ("0+", "0-", "-+")]
        return _casimir_defect(R, k, mu, l2), brackets

    def faulted(slot):
        # Only A+- have an r^2 R coefficient of -1/4; row[4] is their r R' coefficient, row[5] their constant term.
        def operator(P, row):
            if row[:2] == (-0.25, -0.25):
                row = tuple(c * (1.0 + 1e-10) if i == slot else c for i, c in enumerate(row))
            return real(P, row)

        return operator

    casimir, brackets = residuals()
    assert casimir <= 1e-11 and max(brackets) <= 1e-11
    monkeypatch.setattr(su11, "_radial_operator", faulted(5))
    assert residuals()[0] >= 1e-10
    monkeypatch.setattr(su11, "_radial_operator", faulted(4))
    assert min(residuals()[1]) >= 1e-10


def test_a_residual_of_a_profile_with_no_nonzero_coefficient_is_a_domain_error():
    # verify's _defect has no scale for it; at mu = (300, 300) a Sturmian's coefficients underflow to 0 the same way.
    empty = GaussLaguerreSum(())
    k = bargmann_index(0, MU)[0]
    for call in (
        lambda: _defect(GaussLaguerreSum.single(1.0, 0.0, 2, 0.5), empty, empty),
        lambda: _casimir_defect(empty, k, MU, 0.0),
        lambda: _defect(*_bracket("0+", empty, lambda P, w: apply_A(P, w, MU, 0.0)), empty),
        lambda: _factorization_defect(empty, 3.0, 0.0, MU, "upper"),
    ):
        with pytest.raises(DomainError, match="^the state underflows to 0 everywhere, so its residual has no scale$"):
            call()


@pytest.mark.parametrize("which", ["+", "-"])
def test_raising_and_lowering_images_are_built_in_one_fold(which, monkeypatch):
    # A+- R is one row of the radial operator, not a fold around a finished A0 R.
    folds = []
    fold = GaussLaguerreSum._fold.__func__

    def counted(cls, parts):
        folds.append(cls)
        return fold(cls, parts)

    monkeypatch.setattr(GaussLaguerreSum, "_fold", classmethod(counted))
    R = _random_gaussian_polynomials(3, 1)[0]
    apply_A(R, which, MU, 4.75)
    assert len(folds) == 1


# --- flat-picture generators -------------------------------------------------


def test_flat_picture_diagonal_eigenvalue():
    m = Fraction(1, 2)
    l2 = _l2_of(m, MU)
    for nr in (0, 2):
        R, _ = _sturmian(nr, m, MU)
        U = substitute_u(R, MU, "r_to_u")
        E = energy(nr, m, MU)
        got = apply_B0(U, l2, MU)(GRID)
        np.testing.assert_allclose(got, 0.5 * E * U(GRID), rtol=1e-9, atol=1e-10)


def test_flat_picture_conjugation_consistency():
    m = Fraction(2)
    l2 = _l2_of(m, MU)
    for prof in _random_gaussian_polynomials(3, 3):
        U = substitute_u(prof, MU, "r_to_u")
        lhs = apply_B0(U, l2, MU)(GRID)
        rhs = substitute_u(apply_A(prof, "0", MU, l2), MU, "r_to_u")(GRID)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-11)


# --- factorization ----------------------------------------------------------


def test_factorization_constants_pinned_values():
    c = schrodinger_factorize(1.0, 0.0, DeformationParams(0.0, 0.0), branch="upper")
    assert c.a == 1.0
    assert c.c == 1.0
    assert c.b == pytest.approx(-2.5)
    assert c.f == pytest.approx(-1.5)
    assert c.g == pytest.approx(-3.5)
    low = schrodinger_factorize(1.0, 0.0, DeformationParams(0.0, 0.0), branch="lower")
    assert low.a == -1.0
    assert low.b == pytest.approx(-0.5)


def test_factorization_product_eigenvalue_pinned():
    mu0 = DeformationParams(0.0, 0.0)
    assert factorization_product_eigenvalue(3.0, 0.0, mu0, "upper") == pytest.approx(4.0)
    assert factorization_product_eigenvalue(3.0, 0.0, mu0, "lower") == pytest.approx(1.0)


@pytest.mark.parametrize("branch", ["upper", "lower"])
@pytest.mark.parametrize("m", [Fraction(0), Fraction(1, 2), Fraction(2)])
def test_factorization_identity_on_eigenfunctions(branch, m):
    l2 = _l2_of(m, MU)
    for nr in (0, 1, 3):
        R, _ = _sturmian(nr, m, MU)
        U = substitute_u(R, MU, "r_to_u")
        E = energy(nr, m, MU)
        assert _factorization_defect(U, E, l2, MU, branch) <= 1e-8


def test_factorization_residual_detects_wrong_input():
    # a non-eigen profile must not satisfy the two-sided product identity
    m = Fraction(1, 2)
    l2 = _l2_of(m, MU)
    prof = GaussLaguerreSum.gaussian_polynomial([0.3, 0.0, 1.0])
    U = substitute_u(prof, MU, "r_to_u")
    res = _factorization_defect(U, 3.0, l2, MU, "upper")
    assert res > 1e-3


def test_factorization_branch_validation():
    with pytest.raises(DomainError):
        schrodinger_factorize(1.0, 0.0, MU, branch="middle")
    with pytest.raises(DomainError):
        factorization_product_eigenvalue(1.0, 0.0, MU, branch="sideways")
    U, _ = _sturmian(0, Fraction(0), MU)
    with pytest.raises(DomainError):
        apply_J(U, 1.0, 3)


@pytest.mark.parametrize("k", [0.0, -1.0, math.nan, math.inf])
def test_every_k_check_refuses_a_k_that_is_not_positive_and_finite(k):
    # RadialQuantum and CoherentParams share one rule.
    with pytest.raises(RepresentationError, match="positive and finite"):
        RadialQuantum(nr=0, k=k)
    with pytest.raises(RepresentationError, match="positive and finite"):
        CoherentParams(xi=0.5, k=k)


@pytest.mark.parametrize("E", [math.nan, math.inf, -math.inf])
def test_energy_taking_functions_refuse_a_non_finite_energy(E):
    U = substitute_u(_sturmian(0, Fraction(0), MU)[0], MU, "r_to_u")
    for call in (
        lambda: apply_J(U, E, 1),
        lambda: schrodinger_factorize(E, 0.0, MU),
        lambda: factorization_product_eigenvalue(E, 0.0, MU),
    ):
        with pytest.raises(DomainError, match="E must be finite"):
            call()


@settings(max_examples=30, deadline=None)
@given(
    E=st.floats(min_value=1.0, max_value=20.0),
    l2=st.floats(min_value=0.0, max_value=30.0),
    mu1=st.floats(min_value=-0.4, max_value=2.0),
    mu2=st.floats(min_value=-0.4, max_value=2.0),
)
def test_product_eigenvalue_closed_form_property(E, l2, mu1, mu2):
    mu = DeformationParams(mu1, mu2)
    mus = mu1 + mu2
    up = factorization_product_eigenvalue(E, l2, mu, "upper")
    assert up == pytest.approx(0.25 * ((E + 1.0) ** 2 - l2 - mus**2), rel=1e-12, abs=1e-12)
    low = factorization_product_eigenvalue(E, l2, mu, "lower")
    assert low == pytest.approx(0.25 * ((E - 1.0) ** 2 - l2 - mus**2), rel=1e-12, abs=1e-12)
