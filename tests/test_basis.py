"""Eigenbasis labels, normalization constants, energies, and enumeration."""

import math
import re
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dunkl_oscillator import basis
from dunkl_oscillator.basis import (
    MAX_STATES,
    AngularQuantum,
    RadialQuantum,
    StateLabel,
    angular_norm,
    energy,
    enumerate_states,
    k_of,
    sector_start,
)
from dunkl_oscillator.coherent import CoherentParams, EvolutionParams, coherent_evolved
from dunkl_oscillator.errors import DomainError, RepresentationError
from dunkl_oscillator.profiles import angular_wavefunction, radial_sturmian, substitute_u
from dunkl_oscillator.specfun import DeformationParams, laguerre, radial_inner_product
from dunkl_oscillator.su11 import bargmann_index
from dunkl_oscillator.verify import _angular_grid, run_checks


# --- quantum-number handling -------------------------------------------------


def test_two_m_accepts_exact_representations():
    assert basis._two_m(2) == 4
    assert basis._two_m(Fraction(3, 2)) == 3
    assert basis._two_m(0.5) == 1
    assert basis._two_m("3/2") == 3
    assert basis._two_m("1.5") == 3


def test_two_m_rejects_bad_values():
    with pytest.raises(DomainError):
        basis._two_m(-1)
    with pytest.raises(DomainError):
        basis._two_m(Fraction(1, 3))
    with pytest.raises(DomainError):
        basis._two_m(0.3)
    with pytest.raises(DomainError):
        basis._two_m("nonsense")


@pytest.mark.parametrize("m", ["1/0", math.inf, -math.inf], ids=["zero-denominator", "inf", "-inf"])
def test_every_m_entry_refuses_an_m_with_no_rational_value(m):
    # Fraction raises ZeroDivisionError for "1/0" and OverflowError for an
    # infinite float; the one coercion turns both into its DomainError.
    mu = DeformationParams(0.25, 0.75)
    p = CoherentParams(xi=0.3, k=k_of(0, mu))
    entries = (
        basis._two_m,
        lambda m: k_of(m, mu),
        lambda m: energy(0, m, mu),
        lambda m: AngularQuantum.build(1, 1, m, mu),
        lambda m: RadialQuantum.from_m(0, m, mu),
        lambda m: bargmann_index(m, mu),
        lambda m: coherent_evolved(1.0, p, EvolutionParams(tau=0.4), m, mu),
    )
    for fn in entries:
        with pytest.raises(DomainError, match=f"^cannot interpret m = {re.escape(repr(m))} as a rational number$"):
            fn(m)


def test_sector_rules():
    mu = DeformationParams(0.5, 0.5)
    q = AngularQuantum.build(1, 1, 0, mu)
    assert (q.e1, q.e2, q.degree) == (0, 0, 0)
    q = AngularQuantum.build(-1, -1, 1, mu)
    assert (q.e1, q.e2, q.degree) == (1, 1, 0)
    q = AngularQuantum.build(1, -1, Fraction(3, 2), mu)
    assert (q.e1, q.e2, q.degree) == (0, 1, 1)
    q = AngularQuantum.build(-1, 1, Fraction(1, 2), mu)
    assert (q.e1, q.e2, q.degree) == (1, 0, 0)


def test_sector_mismatches_raise():
    mu = DeformationParams(0.5, 0.5)
    with pytest.raises(RepresentationError):
        AngularQuantum.build(1, 1, Fraction(1, 2), mu)
    with pytest.raises(RepresentationError):
        AngularQuantum.build(1, -1, 1, mu)
    with pytest.raises(RepresentationError):
        AngularQuantum.build(-1, -1, 0, mu)
    with pytest.raises(DomainError):
        AngularQuantum.build(2, 1, 1, mu)


def test_separation_constant_closed_form():
    mu = DeformationParams(0.3, 1.2)
    assert AngularQuantum.build(1, 1, 0, mu).l2 == 0.0
    assert AngularQuantum.build(1, 1, 1, mu).l2 == pytest.approx(4.0 * (1.0 + 1.5))
    assert AngularQuantum.build(1, -1, Fraction(1, 2), mu).l2 == pytest.approx(2.0 * (0.5 + 1.5))


# --- normalization constants -------------------------------------------------


def _eta_oracle(m, e1, e2, mu1, mu2):
    """High-precision norm constant via mpmath gamma (independent of lgamma)."""
    mpmath.mp.dps = 40
    m = mpmath.mpf(float(m))
    mus = mpmath.mpf(mu1) + mpmath.mpf(mu2)
    j = m - mpmath.mpf(e1 + e2) / 2
    if m == 0:
        head = mpmath.gamma(mus + 1)
    else:
        head = (2 * m + mus) * mpmath.gamma(m + mus + mpmath.mpf(e1 + e2) / 2)
    num = head * mpmath.gamma(j + 1)
    den = (
        2
        * mpmath.gamma(m + mpmath.mpf(mu1) + mpmath.mpf(e1 - e2) / 2 + mpmath.mpf(1) / 2)
        * mpmath.gamma(m + mpmath.mpf(mu2) + mpmath.mpf(e2 - e1) / 2 + mpmath.mpf(1) / 2)
    )
    return float(mpmath.sqrt(num / den))


@pytest.mark.parametrize(
    "m, e1, e2",
    [
        (Fraction(0), 0, 0),
        (Fraction(2), 0, 0),
        (Fraction(3), 1, 1),
        (Fraction(1, 2), 0, 1),
        (Fraction(5, 2), 1, 0),
    ],
)
@pytest.mark.parametrize("mu_pair", [(0.0, 0.0), (0.5, 0.5), (0.3, 1.2)])
def test_angular_norm_matches_gamma_oracle(m, e1, e2, mu_pair):
    mu = DeformationParams(*mu_pair)
    expected = _eta_oracle(m, e1, e2, *mu_pair)
    q = AngularQuantum.build(1 - 2 * e1, 1 - 2 * e2, m, mu)
    assert angular_norm(q, mu) == pytest.approx(expected, rel=1e-13)


def test_ground_norm_is_fourier_constant_at_mu_zero():
    mu0 = DeformationParams(0.0, 0.0)
    q = AngularQuantum.build(1, 1, 0, mu0)
    assert angular_norm(q, mu0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-15)


def _fraction_norm(q: AngularQuantum, mu: DeformationParams) -> float:
    """The norm with its half-integers summed as Fractions: the reference for the float sums."""
    frac, e1, e2 = q.m, q.e1, q.e2
    j = int(frac - Fraction(e1 + e2, 2))
    if frac == 0:
        ln_head = basis.log_gamma(mu.total + 1.0)
    else:
        ln_head = math.log(2.0 * float(frac) + mu.total) + basis.log_gamma(float(frac + Fraction(e1 + e2, 2)) + mu.total)
    ln_sq = (
        ln_head
        + basis.log_gamma(j + 1.0)
        - math.log(2.0)
        - basis.log_gamma(float(frac + Fraction(e1 - e2, 2)) + mu.mu1 + 0.5)
        - basis.log_gamma(float(frac + Fraction(e2 - e1, 2)) + mu.mu2 + 0.5)
    )
    return math.exp(0.5 * ln_sq)


def test_angular_norm_from_integer_two_m_equals_the_fraction_sums_bit_for_bit():
    # The eps pairs are the angular_ground_norm_limit check's; every label
    # with 2m <= 60 is visited at 200 seeded mu in (-1/2, 3].
    rng = np.random.default_rng(60)
    pairs = [(eps, eps) for eps in (0.0, 1e-12, 1e-13)] + [tuple(map(float, p)) for p in rng.uniform(-0.4999, 3.0, (200, 2))]
    for pair in pairs:
        mu = DeformationParams(*pair)
        for two_m, q in basis._sector_labels(60, mu):
            assert q.degree == int(q.m - Fraction(q.e1 + q.e2, 2)) == (two_m - q.e1 - q.e2) // 2
            assert angular_norm(q, mu).hex() == _fraction_norm(q, mu).hex(), (pair, q)


def test_angular_norm_overflow_is_a_domain_error():
    mu = DeformationParams(1100.0, 1100.0)
    with pytest.raises(DomainError, match=r"angular norm overflows at m = 0.0, mu = \(1100.0, 1100.0\)"):
        angular_norm(AngularQuantum.build(1, 1, 0, mu), mu)
    mu = DeformationParams(500.0, 500.0)
    assert math.isfinite(angular_norm(AngularQuantum.build(1, 1, 0, mu), mu))


def test_an_l2_that_overflows_is_refused():
    # mu1 + mu2 is finite, but 4 m (m + mu1 + mu2) is not once m > 0.
    mu = DeformationParams(1e308, 0.5)
    with pytest.raises(DomainError, match=r"^l\^2 = 4 m \(m \+ mu1 \+ mu2\) overflows at m = 1.0, mu = \(1e\+308, 0.5\)$"):
        AngularQuantum.build(1, 1, 1, mu)
    assert AngularQuantum.build(1, 1, 0, mu).l2 == 0.0
    assert AngularQuantum.build(1, 1, 1, DeformationParams(4e307, 0.5)).l2 == 4.0 * (1.0 + 4e307)


def test_angular_norm_rejects_inconsistent_labels():
    # Labels with no polynomial degree, (m, e1, e2) = (0, 1, 1), (1/2, 0, 0) and
    # (1, 2, 0), never reach the norm: it reads a label that AngularQuantum.build made.
    mu = DeformationParams(0.5, 0.5)
    with pytest.raises(RepresentationError):
        AngularQuantum.build(-1, -1, 0, mu)
    with pytest.raises(RepresentationError):
        AngularQuantum.build(1, 1, Fraction(1, 2), mu)
    with pytest.raises(DomainError):
        AngularQuantum.build(-3, 1, 1, mu)


# --- angular eigenfunctions --------------------------------------------------


def test_angular_wavefunction_matches_direct_formula():
    mu = DeformationParams(0.3, 1.2)
    q = AngularQuantum.build(1, -1, Fraction(5, 2), mu)
    phi = _angular_grid(40)
    eta = _eta_oracle(q.m, q.e1, q.e2, mu.mu1, mu.mu2)
    expected = (
        eta
        * np.cos(phi) ** q.e1
        * np.sin(phi) ** q.e2
        * scipy.special.eval_jacobi(
            q.degree, mu.mu2 + q.e2 - 0.5, mu.mu1 + q.e1 - 0.5, np.cos(2.0 * phi)
        )
    )
    np.testing.assert_allclose(angular_wavefunction(q, mu)(phi), expected, rtol=1e-11, atol=1e-12)


def test_angular_wavefunction_has_sector_parity():
    mu = DeformationParams(0.5, 0.5)
    phi = _angular_grid(24)
    for s1, s2, m in [(1, 1, 2), (-1, -1, 2), (1, -1, Fraction(3, 2)), (-1, 1, Fraction(1, 2))]:
        q = AngularQuantum.build(s1, s2, m, mu)
        f = angular_wavefunction(q, mu)
        np.testing.assert_allclose(f(np.pi - phi), s1 * f(phi), rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(f(-phi), s2 * f(phi), rtol=1e-12, atol=1e-13)


# --- energies ----------------------------------------------------------------


def test_energy_pinned_values_are_exact():
    assert energy(0, 0, DeformationParams(0.0, 0.0)) == 1.0
    assert energy(2, 1, DeformationParams(0.25, 0.75)) == 8.0
    assert energy(0, Fraction(1, 2), DeformationParams(0.0, 0.0)) == 2.0


def test_energy_shift_identity_is_exact():
    mu = DeformationParams(0.3, 1.2)
    for nr in (1, 2, 5):
        for m in (Fraction(0), Fraction(1, 2), Fraction(4)):
            assert energy(nr, m, mu) == energy(nr - 1, m + 1, mu)


def test_energy_rejects_bad_nr():
    with pytest.raises(DomainError):
        energy(-1, 0, DeformationParams(0.0, 0.0))


def test_a_pair_whose_sum_overflows_is_refused():
    # Each of 1e308 is finite, but mu1 + mu2 is inf, and with it k and the energy.
    with pytest.raises(DomainError, match=r"^mu1 \+ mu2 must be finite, got mu = \(1e\+308, 1e\+308\)$"):
        DeformationParams(1e308, 1e308)
    with pytest.raises(DomainError, match=r"mu1 \+ mu2 must be finite"):
        k_of(0, DeformationParams.of((1e308, 8e307)))
    mu = DeformationParams(1e308, 7e307)  # the largest sums are finite and stay so
    assert energy(0, 0, mu) == k_of(0, mu) * 2.0 == mu.total == 1.7e308


@settings(max_examples=40, deadline=None)
@given(
    nr=st.integers(min_value=1, max_value=30),
    twice_m=st.integers(min_value=0, max_value=20),
    mu1=st.floats(min_value=-0.45, max_value=3.0),
    mu2=st.floats(min_value=-0.45, max_value=3.0),
)
def test_energy_shift_property(nr, twice_m, mu1, mu2):
    mu = DeformationParams(mu1, mu2)
    m = Fraction(twice_m, 2)
    assert energy(nr, m, mu) == energy(nr - 1, m + 1, mu)


# --- radial eigenfunctions ---------------------------------------------------


def test_radial_quantum_k_values():
    # m = 0 at mu1 = mu2 = 0.5 gives k = 1, the half-integer sector gives 1.5.
    mu = DeformationParams(0.5, 0.5)
    assert RadialQuantum.from_m(0, 0, mu).k == pytest.approx(1.0)
    assert RadialQuantum.from_m(0, Fraction(1, 2), mu).k == pytest.approx(1.5)
    with pytest.raises(DomainError):
        RadialQuantum(nr=-1, k=1.0)
    with pytest.raises(RepresentationError):
        RadialQuantum(nr=0, k=0.0)


@pytest.mark.parametrize("nr", [math.nan, math.inf, -math.inf, 1.5, 2.0, 1e300])
def test_nonfinite_or_fractional_nr_is_a_domain_error(nr):
    # nr must be an int or a numpy integer: a float is refused even when whole.
    with pytest.raises(DomainError, match="nr must be an integer from 0 to 1000000"):
        RadialQuantum(nr=nr, k=1.0)
    with pytest.raises(DomainError, match="nr must be an integer from 0 to 1000000"):
        energy(nr, 0, DeformationParams(0.0, 0.0))


def test_one_integer_rule_takes_numpy_integers_and_names_its_bound():
    # Every count of the package (degrees, node and term counts, nr, the
    # derivative order and the seed) goes through basis._check_integer.
    assert RadialQuantum(nr=np.int64(3), k=1.0).nr == 3
    assert energy(np.uint8(2), 0, DeformationParams(0.0, 0.0)) == 5.0
    for args, message in [
        ((np.float64(2.0), "nr"), "nr must be a non-negative integer"),
        ((-1, "seed"), "seed must be a non-negative integer"),
        ((15, "npoints", 16, 1000), "npoints must be an integer from 16 to 1000"),
        ((np.int32(0), "nterms", 1), "nterms must be an integer of at least 1"),
        (("3", "derivative order"), "derivative order must be a non-negative integer"),
        ((np.True_, "nr"), "nr must be a non-negative integer"),  # numpy's bool_ is no Integral
    ]:
        with pytest.raises(DomainError) as info:
            basis._check_integer(*args)
        assert str(info.value) == f"{message}, got {args[0]!r}"


def test_quantum_numbers_past_the_bound_are_refused():
    # The recurrences loop about nr or m times per point, so a label past
    # 1,000,000 is refused before any evaluation can start.
    mu = DeformationParams(0.25, 0.75)
    assert RadialQuantum(nr=basis._MAX_QUANTUM, k=1.0).nr == 1_000_000
    assert AngularQuantum.build(-1, -1, basis._MAX_QUANTUM, mu).m == 1_000_000
    # An int of any size is compared exactly, never converted to a float.
    for nr in (1_000_001, 10**12, 10**400):
        with pytest.raises(DomainError, match="nr must be an integer from 0 to 1000000"):
            RadialQuantum(nr=nr, k=1.0)
        with pytest.raises(DomainError, match="nr must be an integer from 0 to 1000000"):
            energy(nr, 0, mu)
    for s1, s2, m in ((1, 1, 1_000_001), (1, -1, Fraction(2_000_001, 2)), (-1, -1, 10**12)):
        with pytest.raises(DomainError, match="m must not exceed 1000000"):
            AngularQuantum.build(s1, s2, m, mu)


@pytest.mark.parametrize(
    "m",
    [1_000_001, Fraction(2_000_001, 2), 10**12, Fraction(10**400), "1e400"],
    ids=["int", "half-odd", "1e12", "fraction-1e400", "text-1e400"],
)
def test_every_m_entry_refuses_an_m_past_the_bound(m):
    # _two_m holds the one bound on m, so no entry point reaches float(m),
    # which overflows past about 1.8e308.
    mu = DeformationParams(0.25, 0.75)
    for fn in (basis._two_m, lambda m: k_of(m, mu), lambda m: energy(0, m, mu)):
        with pytest.raises(DomainError, match="m must not exceed 1000000"):
            fn(m)
    assert basis._two_m(basis._MAX_QUANTUM) == 2_000_000
    assert k_of(Fraction(1_999_999, 2), mu) == 999_999.5 + 0.5 * (mu.total + 1.0)


def test_a_numpy_integer_m_gives_python_numbers():
    # 2m is a Python int whatever integer type m arrives as, so no label or
    # formula carries a numpy scalar.
    mu = DeformationParams(0.3, 0.7)
    q = AngularQuantum.build(1, 1, np.int64(3), mu)
    assert type(q.two_m) is int and type(q.degree) is int and type(q.l2) is float
    assert type(k_of(np.int64(3), mu)) is float and type(AngularQuantum.build(1, 1, np.uint8(3), mu).l2) is float


def test_radial_quantum_refuses_infinite_k():
    with pytest.raises(RepresentationError, match="positive and finite"):
        RadialQuantum(nr=0, k=math.inf)


def test_k_of_is_the_bargmann_formula_bit_for_bit():
    for mu in (DeformationParams(0.0, 0.0), DeformationParams(-0.2691523058468741, 1.7477168115182542)):
        for m in (Fraction(0), Fraction(1, 2), Fraction(7), Fraction(41, 2)):
            assert k_of(m, mu) == float(m) + 0.5 * (mu.total + 1.0)
    with pytest.raises(DomainError):
        k_of(Fraction(1, 3), DeformationParams(0.0, 0.0))


def test_radial_sturmian_matches_mpmath_formula():
    mpmath.mp.dps = 30
    mu = DeformationParams(0.3, 1.2)
    for m, nr in [(Fraction(0), 0), (Fraction(1, 2), 2), (Fraction(2), 4)]:
        q = RadialQuantum.from_m(nr, m, mu)
        R = radial_sturmian(q, mu)
        two_k = mpmath.mpf(2.0 * q.k)
        norm = mpmath.sqrt(2 * mpmath.gamma(nr + 1) / mpmath.gamma(nr + two_k))
        for r in [0.3, 1.0, 2.7]:
            rm = mpmath.mpf(r)
            expected = float(
                norm
                * rm ** (two_k - mu.total - 1)
                * mpmath.exp(-rm * rm / 2)
                * mpmath.laguerre(nr, two_k - 1, rm * rm)
            )
            assert R(r) == pytest.approx(expected, rel=1e-12, abs=1e-13)


def test_radial_sturmian_unit_norm_against_mpmath_quadrature():
    mpmath.mp.dps = 25
    mu = DeformationParams(0.5, 0.5)
    for m, nr in [(Fraction(0), 0), (Fraction(1, 2), 1), (Fraction(1), 3)]:
        q = RadialQuantum.from_m(nr, m, mu)
        R = radial_sturmian(q, mu)
        integrand = lambda r: mpmath.mpf(float(R(float(r)))) ** 2 * r ** (1 + 2 * mu.total)
        norm = float(mpmath.quad(integrand, [0, 3, 8, 20]))
        assert norm == pytest.approx(1.0, abs=5e-11)


def test_a_sturmian_whose_norm_underflows_is_refused():
    # sqrt(2 n! / Gamma(n + 2k)) at mu = 0 and nr = 0 is normal to m = 150,
    # subnormal from m = 151 and 0 from m = 157; the state itself is not 0.
    mu = DeformationParams(0.0, 0.0)
    (coeff,) = radial_sturmian(RadialQuantum.from_m(0, 150, mu), mu).terms.values()
    assert coeff >= sys.float_info.min
    for m, ln_norm in ((151, "-712.81"), (157, "-747.20"), (200, "-999.90")):
        with pytest.raises(DomainError, match=rf"^the Sturmian norm underflows at k = {m}.5, n = 0: ln N = {ln_norm}"):
            radial_sturmian(RadialQuantum.from_m(0, m, mu), mu)
    mpmath.mp.dps = 30
    r = mpmath.mpf(20.5)
    value = mpmath.sqrt(2 / mpmath.gamma(401)) * r**400 * mpmath.exp(-r * r / 2)
    assert float(value) == pytest.approx(0.1559, rel=1e-3)


def test_radial_orthogonality_sample():
    mu = DeformationParams(0.3, 1.2)
    m = Fraction(1, 2)
    R0 = radial_sturmian(RadialQuantum.from_m(0, m, mu), mu)
    R3 = radial_sturmian(RadialQuantum.from_m(3, m, mu), mu)
    assert radial_inner_product(R0, R3, mu) == pytest.approx(0.0, abs=1e-12)
    assert radial_inner_product(R3, R3, mu) == pytest.approx(1.0, abs=1e-12)


def test_substitute_u_roundtrip_and_flat_norm():
    mu = DeformationParams(0.3, 1.2)
    R = radial_sturmian(RadialQuantum.from_m(2, Fraction(1, 2), mu), mu)
    U = substitute_u(R, mu, "r_to_u")
    back = substitute_u(U, mu, "u_to_r")
    grid = np.linspace(0.1, 8.0, 30)
    np.testing.assert_allclose(back(grid), R(grid), rtol=1e-13)
    # flat-measure norm: integrate U^2 dr by cancelling the r weight
    half = U.times_rpower(-0.5)
    flat_norm = radial_inner_product(half, half, DeformationParams(0.0, 0.0))
    assert flat_norm == pytest.approx(1.0, abs=1e-11)
    with pytest.raises(DomainError):
        substitute_u(R, mu, "sideways")


# --- enumeration -------------------------------------------------------------


def test_enumerate_states_frozen_table_at_mu_zero():
    mu0 = DeformationParams(0.0, 0.0)
    states = enumerate_states(3.0, mu0)
    assert [st.energy for st in states] == [1.0, 2.0, 2.0, 3.0, 3.0, 3.0]
    level3 = {(st.s1, st.s2, st.m, st.nr) for st in states if st.energy == 3.0}
    assert level3 == {(1, 1, Fraction(1), 0), (-1, -1, Fraction(1), 0), (1, 1, Fraction(0), 1)}


def test_enumerate_states_cartesian_degeneracy_crosscheck():
    # At mu = 0 the level E = N + 1 of the isotropic oscillator holds N + 1 states.
    mu0 = DeformationParams(0.0, 0.0)
    states = enumerate_states(6.0, mu0)
    counts: dict[float, int] = {}
    for st_ in states:
        counts[st_.energy] = counts.get(st_.energy, 0) + 1
    assert counts == {1.0: 1, 2.0: 2, 3.0: 3, 4.0: 4, 5.0: 5, 6.0: 6}


def test_enumerate_states_below_ground_is_empty():
    assert enumerate_states(0.5, DeformationParams(0.0, 0.0)) == []
    assert enumerate_states(-2.0, DeformationParams(0.5, 0.5)) == []


def test_enumerate_states_sorted_and_consistent():
    mu = DeformationParams(0.25, 0.75)
    states = enumerate_states(7.0, mu)
    assert states, "expected a nonempty enumeration"
    energies = [st.energy for st in states]
    assert energies == sorted(energies)
    for st_ in states:
        assert st_.energy == energy(st_.nr, st_.m, mu)
        assert st_.k == pytest.approx(float(st_.m) + 0.5 * (mu.total + 1.0))
        assert st_.l2 == pytest.approx(4.0 * float(st_.m) * (float(st_.m) + mu.total))


def test_enumerate_states_rejects_nonfinite_cutoff():
    with pytest.raises(DomainError):
        enumerate_states(float("inf"), DeformationParams(0.0, 0.0))


def _fraction_enumeration(emax, mu):
    """Reference: the exact-Fraction loop over (sector, m, nr), then one sort."""

    def level_energy(nr, m):
        return float(2 * (Fraction(nr) + m) + 1) + mu.mu1 + mu.mu2

    out = []
    for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        if (s1, s2) == (1, 1):
            m = Fraction(0)
        elif (s1, s2) == (-1, -1):
            m = Fraction(1)
        else:
            m = Fraction(1, 2)
        while level_energy(0, m) <= emax:
            nr = 0
            while level_energy(nr, m) <= emax:
                out.append(
                    StateLabel(
                        angular=AngularQuantum.build(s1, s2, m, mu),
                        radial=RadialQuantum(nr=nr, k=float(m) + 0.5 * (mu.total + 1.0)),
                        energy=level_energy(nr, m),
                    )
                )
                nr += 1
            m += 1
    out.sort(key=lambda st: (st.energy, float(st.m), st.nr, st.s1, st.s2))
    return out


_MU = st.floats(min_value=-0.5, max_value=3.0, exclude_min=True)


@settings(max_examples=80, deadline=None)
@given(
    emax=st.floats(min_value=-2.0, max_value=40.0),
    mu1=_MU,
    mu2=_MU,
    edge=st.sampled_from(("free", "on", "below")),
)
@example(emax=3.0, mu1=0.0, mu2=0.0, edge="free")
@example(emax=40.0, mu1=0.0, mu2=0.0, edge="on")
# one float below a level, where emax - mu1 - mu2 - 1 rounds up to the level
@example(emax=25.697828526856537, mu1=0.918376695246371, mu2=-0.2205481683898327, edge="free")
def test_enumerate_states_equals_fraction_loop(emax, mu1, mu2, edge):
    mu = DeformationParams(mu1, mu2)
    if edge != "free":
        # a cutoff on a level energy, or the float just below it
        emax = float(max(0, math.floor(emax)) + 1) + mu.mu1 + mu.mu2
        if edge == "below":
            emax = math.nextafter(emax, -math.inf)
    got, want = enumerate_states(emax, mu), _fraction_enumeration(emax, mu)
    assert got == want
    assert [st.energy.hex() for st in got] == [st.energy.hex() for st in want]
    assert [(st.k.hex(), st.l2.hex()) for st in got] == [(st.k.hex(), st.l2.hex()) for st in want]


@pytest.mark.parametrize("mu_pair", [(0.0, 0.0), (0.25, 0.75), (-0.4, 1.9)])
def test_enumerate_states_shares_one_label_per_sector_m_and_per_m_nr(mu_pair):
    states = enumerate_states(24.0, DeformationParams(*mu_pair))
    angular, radial = {}, {}
    for st in states:
        assert angular.setdefault((st.s1, st.s2, st.m), st.angular) is st.angular
        assert radial.setdefault((st.m, st.nr), st.radial) is st.radial
    # one object per key, never one object for two keys
    assert len({id(q) for q in angular.values()}) == len(angular)
    assert len({id(q) for q in radial.values()}) == len(radial)
    # every m past 0 has two sectors, which share each RadialQuantum
    assert len(radial) < len(states)


def _closed_count(emax, mu):
    """The closed-form count that ``enumerate_states`` checks against MAX_STATES."""
    return basis._states_through(basis._top_level(emax, mu))


@pytest.mark.parametrize("mu_pair", [(0.0, 0.0), (-0.49, -0.49), (-0.2, 1.7), (0.25, 0.75), (3.0, 3.0)])
def test_state_count_matches_enumeration(mu_pair):
    mu = DeformationParams(*mu_pair)
    for emax in np.linspace(-2.0, 45.0, 95):
        assert _closed_count(float(emax), mu) == len(enumerate_states(float(emax), mu))


def test_state_count_is_the_cartesian_shell_sum_at_mu_zero():
    # Levels E = N + 1 hold N + 1 states (Genest, Ismail, Vinet & Zhedanov 2013),
    # so up to E = N + 1 there are (N + 1)(N + 2)/2, at any size.
    mu0 = DeformationParams(0.0, 0.0)
    for n in (0, 1, 2, 7, 100, 1001, 1412):
        assert _closed_count(n + 1.0, mu0) == (n + 1) * (n + 2) // 2


def test_state_cap_refuses_before_building():
    mu0 = DeformationParams(0.0, 0.0)
    assert _closed_count(1413.0, mu0) == 998_991 <= MAX_STATES
    for emax in (1414.0, 1e9, 1e300):
        with pytest.raises(DomainError, match="more than 1000000 states"):
            basis._top_level(emax, mu0)
        with pytest.raises(DomainError, match="more than 1000000 states"):
            enumerate_states(emax, mu0)
    # a coupling so large that every level rounds to the same energy
    with pytest.raises(DomainError, match="more than 1000000 states"):
        enumerate_states(1e300, DeformationParams(1e300, 0.0))


def _walked_top_level(emax, mu):
    """Reference: the level edge from a guess at emax - mu1 - mu2 - 1 and two walks that correct its rounding."""
    guess = emax - mu.mu1 - mu.mu2 - 1.0
    top = min(int(guess), basis._LEVEL_CAP) if guess >= 0.0 else -1
    while top < basis._LEVEL_CAP and basis._level_energy(top + 1, mu) <= emax:
        top += 1
    while top >= 0 and basis._level_energy(top, mu) > emax:
        top -= 1
    return top


def _assert_top_level_is_the_walk(emax, mu):
    want = _walked_top_level(emax, mu)
    if basis._states_through(want) > MAX_STATES:
        with pytest.raises(DomainError, match="more than 1000000 states"):
            basis._top_level(emax, mu)
    else:
        assert basis._top_level(emax, mu) == want, (emax, mu)


@settings(max_examples=300, deadline=None)
@given(
    emax=st.one_of(st.floats(min_value=-3.0, max_value=1500.0), st.floats(allow_nan=False, allow_infinity=False)),
    mu1=st.one_of(_MU, st.floats(min_value=-0.5, max_value=8e307, exclude_min=True)),
    mu2=st.one_of(_MU, st.floats(min_value=-0.5, max_value=8e307, exclude_min=True)),
)
@example(emax=1e308, mu1=8e307, mu2=8e307)
@example(emax=2e16 + 2.0, mu1=1e16, mu2=1e16)
def test_top_level_bisection_equals_the_guess_and_walks(emax, mu1, mu2):
    _assert_top_level_is_the_walk(emax, DeformationParams(mu1, mu2))


@pytest.mark.parametrize(
    "mu_pair",
    [(0.0, 0.0), (-0.45, 0.3), (2.365, 0.814), (-0.4999999, -0.4999999), (3.0, 3.0), (8e307, 8e307), (1e16, 1e16)],
)
def test_top_level_bisection_equals_the_walks_on_and_next_to_each_edge(mu_pair):
    # The cap is 1414: level 1413 holds 998,991 states in all, level 1414 more than MAX_STATES.
    mu = DeformationParams(*mu_pair)
    for level in (0, 1, 2, 150, 1411, 1412, 1413, 1414):
        e = basis._level_energy(level, mu)
        for emax in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf)):
            _assert_top_level_is_the_walk(emax, mu)


def test_the_r_power_is_exactly_zero_at_m_zero():
    # 2 k_of(0, mu) is the float mu1 + mu2 + 1 itself; 2k - mu1 - mu2 - 1 is not always 0.
    rng = np.random.default_rng(53)
    leftovers = 0
    for pair in -0.5 + 3.5 * (1.0 - rng.random((10_000, 2))):
        mu = DeformationParams(*map(float, pair))
        two_k = 2.0 * k_of(0, mu)
        assert basis._r_power(two_k, mu) == 0.0
        leftovers += two_k - mu.total - 1.0 != 0.0
    assert leftovers > 0


@pytest.mark.parametrize("mu_pair", [(0.0, 0.0), (-0.45, 0.3), (2.365, 0.814)])
def test_sector_labels_walk_each_sector_and_m_once_in_order(mu_pair):
    mu = DeformationParams(*mu_pair)
    for top in range(-1, 13):
        # A sector (s1, s2) holds 2m = e1 + e2 + 2j, j = 0, 1, ..., with e = (1 - s)/2;
        # the walk gives them by 2m, then (s1, s2).
        expected = sorted(
            (
                (s1, s2, two_m)
                for s1 in (-1, 1)
                for s2 in (-1, 1)
                for two_m in range((1 - s1) // 2 + (1 - s2) // 2, top + 1, 2)
            ),
            key=lambda label: (label[2], label[0], label[1]),
        )
        walked = list(basis._sector_labels(top, mu))
        assert [(q.s1, q.s2, two_m) for two_m, q in walked] == expected
        for two_m, q in walked:
            assert q == AngularQuantum.build(q.s1, q.s2, Fraction(two_m, 2), mu)


@pytest.mark.parametrize("mu_pair", [(0.0, 0.0), (-0.49999, 3.0), (2.365, 0.814)])
def test_level_walk_labels_equal_the_validating_builders(mu_pair):
    # The walk gives, for each 2m, the (s1, s2) of the sectors that hold it,
    # without checking them: they must be those that build accepts, and the
    # labels and k that enumerate_states builds from them unchecked must equal
    # build's labels and k_of's k.
    mu = DeformationParams(*mu_pair)
    labels, ks = {}, {}  # build's label of each (2m, s1, s2) it accepts, and k_of's k of each 2m
    for two_m in range(301):
        m = Fraction(two_m, 2)
        for s1, s2 in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
            try:
                labels[two_m, s1, s2] = AngularQuantum.build(s1, s2, m, mu)
            except RepresentationError:
                pass
        ks[two_m] = k_of(m, mu)
    for top in (-1, 0, 1, 2, 3, 12, 299, 300):
        walk = list(basis._sector_walk(top))
        assert [two_m for two_m, _ in walk] == list(range(top + 1))
        for two_m, sectors in walk:
            assert sectors == [(s1, s2) for t, s1, s2 in labels if t == two_m]
    states = enumerate_states(301.0 + mu.mu1 + mu.mu2, mu)  # the level 2 (nr + m) = 300 is the top
    assert {(st.angular.two_m, st.s1, st.s2) for st in states} == set(labels)
    for st in states:
        label = labels[st.angular.two_m, st.s1, st.s2]
        assert st.angular == label and hash(st.angular) == hash(label)
        assert type(st.angular.two_m) is int and type(st.m) is Fraction and st.m == label.m
        assert st.k == ks[st.angular.two_m]


def test_the_walk_builds_no_fraction(monkeypatch):
    # m is held as the integer 2m from the walk to the label; a Fraction is
    # built only where the public API takes m in or gives it out.
    built = []
    real = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    mu = DeformationParams(0.3, 0.7)
    states = enumerate_states(100.0, mu)
    labels = list(basis._sector_labels(300, mu))
    assert built == []
    assert len(states) == 4950 and len(labels) == 601
    # The count is live: the public .m gives m out as a Fraction.
    assert states[-1].m == 49 and built == [(98, 2)]


def test_sector_start_gives_each_sector_lowest_m():
    assert [sector_start(s1, s2) for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1))] == [
        Fraction(0),
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1),
    ]
    with pytest.raises(DomainError):
        sector_start(1, 0)


@pytest.mark.parametrize("s1, s2, m", [(1.0, -1, 0), (1.0, 1, 0), (1, np.float64(-1.0), "1/2")])
def test_a_parity_that_is_not_an_integer_is_refused(s1, s2, m):
    # 1.0 == 1 finds the sector; a float parity once crashed formatting its own
    # error, or built a label with s1 = 1.0 and e1 = 0.0.
    message = f"parities must be +1 or -1, got ({s1}, {s2})"
    with pytest.raises(DomainError) as start:
        sector_start(s1, s2)
    with pytest.raises(DomainError) as label:
        AngularQuantum.build(s1, s2, m, DeformationParams(0.3, 0.7))
    assert str(start.value) == str(label.value) == message
    assert sector_start(np.int64(1), np.int32(-1)) == Fraction(1, 2)


_MU_BOOL = DeformationParams(0.3, 0.7)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RadialQuantum(nr=True, k=1.0), "nr must be an integer from 0 to 1000000, got True"),
        (lambda: energy(True, 0, _MU_BOOL), "nr must be an integer from 0 to 1000000, got True"),
        (lambda: laguerre(True, 0.5, 2.0), "polynomial degree must be a non-negative integer, got True"),
        (lambda: run_checks("radial", _MU_BOOL, seed=True), "seed must be a non-negative integer, got True"),
        (lambda: basis._check_integer(False, "npoints"), "npoints must be a non-negative integer, got False"),
        (lambda: sector_start(True, -1), "parities must be +1 or -1, got (True, -1)"),
        (lambda: AngularQuantum.build(True, 1, 0, _MU_BOOL), "parities must be +1 or -1, got (True, 1)"),
        (lambda: AngularQuantum.build(1, 1, False, _MU_BOOL), "m must be an integer or half-odd-integer, not a bool, got False"),
        (lambda: k_of(True, _MU_BOOL), "m must be an integer or half-odd-integer, not a bool, got True"),
        (lambda: energy(0, True, _MU_BOOL), "m must be an integer or half-odd-integer, not a bool, got True"),
    ],
    ids=["radial-nr", "energy-nr", "laguerre-degree", "seed", "check-integer-false", "sector-start",
         "build-parity", "build-m", "k-of-m", "energy-m"],
)
def test_no_label_rule_takes_a_bool(build, message):
    # True == 1 and False == 0, and a bool is an int; the integer, parity and m
    # rules refuse it all the same, as a count, a parity or an m it is a slip.
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value) == message
