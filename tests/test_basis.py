"""Eigenbasis labels, normalization constants, energies, and enumeration."""

import math
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
    angular_wavefunction,
    as_quantum_m,
    energy,
    enumerate_states,
    k_of,
    radial_sturmian,
    sector_start,
    separation_constant,
    substitute_u,
)
from dunkl_oscillator.errors import DomainError, RepresentationError
from dunkl_oscillator.profiles import angular_grid
from dunkl_oscillator.specfun import DeformationParams, radial_inner_product


# --- quantum-number handling -------------------------------------------------


def test_as_quantum_m_accepts_exact_representations():
    assert as_quantum_m(2) == Fraction(2)
    assert as_quantum_m(Fraction(3, 2)) == Fraction(3, 2)
    assert as_quantum_m(0.5) == Fraction(1, 2)
    assert as_quantum_m("3/2") == Fraction(3, 2)
    assert as_quantum_m("1.5") == Fraction(3, 2)


def test_as_quantum_m_rejects_bad_values():
    with pytest.raises(DomainError):
        as_quantum_m(-1)
    with pytest.raises(DomainError):
        as_quantum_m(Fraction(1, 3))
    with pytest.raises(DomainError):
        as_quantum_m(0.3)
    with pytest.raises(DomainError):
        as_quantum_m("nonsense")


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
    assert separation_constant(0, mu) == 0.0
    assert separation_constant(1, mu) == pytest.approx(4.0 * (1.0 + 1.5))
    assert separation_constant(Fraction(1, 2), mu) == pytest.approx(2.0 * (0.5 + 1.5))


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
    phi = angular_grid(40)
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
    phi = angular_grid(24)
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
    with pytest.raises(DomainError, match="nr must be a non-negative integer"):
        RadialQuantum(nr=nr, k=1.0)
    with pytest.raises(DomainError, match="nr must be a non-negative integer"):
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
        with pytest.raises(DomainError, match="nr must not exceed 1000000"):
            RadialQuantum(nr=nr, k=1.0)
        with pytest.raises(DomainError, match="nr must not exceed 1000000"):
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
    # as_quantum_m holds the one bound on m, so no entry point reaches float(m),
    # which overflows past about 1.8e308.
    mu = DeformationParams(0.25, 0.75)
    for fn in (as_quantum_m, lambda m: k_of(m, mu), lambda m: energy(0, m, mu), lambda m: separation_constant(m, mu)):
        with pytest.raises(DomainError, match="m must not exceed 1000000"):
            fn(m)
    assert as_quantum_m(basis._MAX_QUANTUM) == 1_000_000
    assert k_of(Fraction(1_999_999, 2), mu) == 999_999.5 + 0.5 * (mu.total + 1.0)


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
        assert st_.l2 == pytest.approx(separation_constant(st_.m, mu))


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


@pytest.mark.parametrize("mu_pair", [(0.0, 0.0), (-0.45, 0.3), (2.365, 0.814)])
def test_sector_labels_walk_each_sector_and_m_once_in_order(mu_pair):
    mu = DeformationParams(*mu_pair)
    for top in range(-1, 13):
        # A sector (s1, s2) holds 2m = e1 + e2 + 2j, j = 0, 1, ..., with e = (1 - s)/2.
        expected = [
            (s1, s2, two_m)
            for s1 in (-1, 1)
            for s2 in (-1, 1)
            for two_m in range((1 - s1) // 2 + (1 - s2) // 2, top + 1, 2)
        ]
        walked = list(basis._sector_labels(top, mu))
        assert [(q.s1, q.s2, two_m) for two_m, q in walked] == expected
        for two_m, q in walked:
            assert q == AngularQuantum.build(q.s1, q.s2, Fraction(two_m, 2), mu)


@pytest.mark.parametrize("mu_pair", [(0.0, 0.0), (-0.49999, 3.0), (2.365, 0.814)])
def test_level_walk_labels_equal_the_validating_builders(mu_pair):
    # The walk builds its labels and k from the integer 2m without checking
    # them; each must equal what AngularQuantum.build and k_of give for that m,
    # with the sectors that hold m found by build's own refusals.
    mu = DeformationParams(*mu_pair)
    expected = {}
    for two_m in range(301):
        m = Fraction(two_m, 2)
        labels = []
        for s1, s2 in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
            try:
                labels.append(AngularQuantum.build(s1, s2, m, mu))
            except RepresentationError:
                pass
        expected[two_m] = (labels, k_of(m, mu))
    for top in (-1, 0, 1, 2, 3, 12, 299, 300):
        walk = basis._levels(float(top + 1) + mu.mu1 + mu.mu2, mu)
        assert len(walk.energies) == len(walk.ks) == len(walk.sectors) == top + 1
        for two_m, (k, sectors) in enumerate(zip(walk.ks, walk.sectors)):
            labels, k_expected = expected[two_m]
            assert sectors == labels
            assert all(type(q.m) is Fraction and q.m == Fraction(two_m, 2) for q in sectors)
            assert k == k_expected


def test_sector_start_gives_each_sector_lowest_m():
    assert [sector_start(s1, s2) for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1))] == [
        Fraction(0),
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1),
    ]
    with pytest.raises(DomainError):
        sector_start(1, 0)
