"""Acceptance gate: every headline guarantee exercised at its stated tolerance.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with ``pytest -s``
or in captured output) and then asserts, so the suite doubles as a checklist.
"""

import cmath
import json
import math
from fractions import Fraction
from itertools import combinations_with_replacement

import mpmath
import numpy as np
import scipy.special

from dunkl_oscillator.basis import (
    AngularQuantum,
    RadialQuantum,
    angular_norm,
    angular_wavefunction,
    energy,
    enumerate_states,
    radial_sturmian,
    substitute_u,
)
from dunkl_oscillator.cli import main
from dunkl_oscillator.coherent import (
    CoherentParams,
    EvolutionParams,
    coherent_closed,
    coherent_evolved,
    coherent_series,
    evolve_parameter,
    normal_form,
)
from dunkl_oscillator.dunkl_ops import (
    apply_angular_operator,
    apply_hamiltonian,
    apply_radial_hamiltonian,
)
from dunkl_oscillator.profiles import (
    DeformationParams,
    GaussLaguerreSum,
)
from dunkl_oscillator.specfun import angular_gram, laguerre_all, radial_inner_product
from dunkl_oscillator.su11 import (
    apply_A,
    apply_J,
    bargmann_index,
    factorization_product_eigenvalue,
    ladder_coefficients,
)
from dunkl_oscillator.verify import (
    VerifyContext,
    _angular_grid,
    _check_evolution_crosscheck,
    _defect,
    _product,
    _residual_grid,
)
from reference_rules import NORM_RULE


def _l2_of(m, mu):
    """l^2 = 4 m (m + mu1 + mu2), as the angular label of the sector m holds it."""
    return AngularQuantum.build(1, 1 if Fraction(m).denominator == 1 else -1, m, mu).l2


def _report(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def _sector_labels(mmax: int, mu: DeformationParams):
    labels = []
    for s1, s2 in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
        if s1 == s2 == 1:
            start = Fraction(0)
        elif s1 == s2 == -1:
            start = Fraction(1)
        else:
            start = Fraction(1, 2)
        m = start
        while m <= mmax:
            labels.append(AngularQuantum.build(s1, s2, m, mu))
            m += 1
    return labels


# --- criterion 1: exact spectrum ---------------------------------------------


def test_criterion_1a_energy_values():
    e_ground = energy(0, 0, DeformationParams(0.0, 0.0))
    e_excited = energy(2, 1, DeformationParams(0.25, 0.75))
    ok = e_ground == 1.0 and e_excited == 8.0
    _report(
        "criterion-1a energy values",
        ok,
        f"E(0,0| mu=0) = {e_ground!r} (want 1.0), E(2,1 | mu=(0.25,0.75)) = {e_excited!r} (want 8.0)",
    )


def test_criterion_1b_degeneracy_count_at_e3():
    # At mu = (0, 0) the model is the ordinary isotropic 2D oscillator.  Its
    # Cartesian solution (Genest, Ismail, Vinet & Zhedanov, J. Phys. A 46
    # (2013) 145201) gives E = nx + ny + 1, and the (nx, ny) state has
    # reflection parities ((-1)^nx, (-1)^ny).  So the level E = N + 1 holds
    # the N + 1 pairs with nx + ny = N: at E = 3, (2, 0) and (0, 2) in the
    # (+, +) sector and (1, 1) in the (-, -) sector, none in a mixed sector.
    shell = 3 - 1  # N = E - 1
    cartesian = [(nx, shell - nx) for nx in range(shell + 1)]
    want_sectors = {(1, 1): 0, (1, -1): 0, (-1, 1): 0, (-1, -1): 0}
    for nx, ny in cartesian:
        want_sectors[((-1) ** nx, (-1) ** ny)] += 1

    states = enumerate_states(3.0, DeformationParams(0.0, 0.0))
    level3 = [st for st in states if st.energy == 3.0]
    got_sectors = {sector: 0 for sector in want_sectors}
    for st in level3:
        got_sectors[(st.s1, st.s2)] += 1
    ok = (
        want_sectors == {(1, 1): 2, (1, -1): 0, (-1, 1): 0, (-1, -1): 1}
        and len(level3) == len(cartesian)
        and got_sectors == want_sectors
    )
    _report(
        "criterion-1b degeneracy count at E = 3",
        ok,
        f"found {len(level3)} states by sector {got_sectors} (want the "
        f"Cartesian shell nx + ny = {shell}: {len(cartesian)} states by sector "
        f"{want_sectors})",
    )


# --- criterion 2: angular orthonormality -------------------------------------


def test_criterion_2_angular_orthonormality():
    worst = 0.0
    for pair in ((0.0, 0.0), (0.5, 0.5), (0.3, 1.2)):
        mu = DeformationParams(*pair)
        labels = _sector_labels(4, mu)
        gram = angular_gram([angular_wavefunction(q, mu) for q in labels], mu)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(len(labels))))))
    mu0 = DeformationParams(0.0, 0.0)
    eta0 = angular_norm(AngularQuantum.build(1, 1, 0, mu0), mu0)
    eta_dev = abs(eta0 - 1.0 / math.sqrt(2.0 * math.pi))
    ok = worst <= 1e-9 and eta_dev <= 1e-10
    _report(
        "criterion-2 angular orthonormality",
        ok,
        f"max |Gram - I| = {worst:.3e} (tol 1e-9), |eta0 - (2 pi)^-1/2| = {eta_dev:.3e} (tol 1e-10)",
    )


# --- criterion 3: radial orthonormality --------------------------------------


def test_criterion_3_radial_orthonormality():
    worst = 0.0
    for pair in ((0.0, 0.0), (0.5, 0.5)):
        mu = DeformationParams(*pair)
        for m in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)):
            funcs = [
                radial_sturmian(RadialQuantum.from_m(n, m, mu), mu) for n in range(7)
            ]
            for (ia, fa), (ib, fb) in combinations_with_replacement(
                list(enumerate(funcs)), 2
            ):
                want = 1.0 if ia == ib else 0.0
                got = radial_inner_product(fa, fb, mu)
                worst = max(worst, abs(got - want))
    ok = worst <= 1e-9
    _report(
        "criterion-3 radial orthonormality",
        ok,
        f"max |Gram - I| = {worst:.3e} over n <= 6 (tol 1e-9)",
    )


# --- criterion 4: eigenfunction residuals ------------------------------------


def test_criterion_4_eigen_residuals():
    mu = DeformationParams(0.3, 1.2)
    rgrid = _residual_grid(40, 0.1, 6.0)
    agrid = _angular_grid(48)
    worst_exact = 0.0
    for q in _sector_labels(3, mu):
        Phi = angular_wavefunction(q, mu)
        got = apply_angular_operator(Phi, mu)(agrid)
        want = 0.5 * q.l2 * Phi(agrid)
        scale = max(float(np.max(np.abs(Phi(agrid)))), 1.0)
        worst_exact = max(worst_exact, float(np.max(np.abs(got - want))) / scale)
    for m in (Fraction(0), Fraction(1, 2), Fraction(2)):
        l2 = _l2_of(m, mu)
        for nr in range(5):
            R = radial_sturmian(RadialQuantum.from_m(nr, m, mu), mu)
            E = energy(nr, m, mu)
            got = apply_radial_hamiltonian(R, mu, l2)(rgrid)
            scale = max(float(np.max(np.abs(R(rgrid)))), 1.0)
            worst_exact = max(
                worst_exact, float(np.max(np.abs(got - E * R(rgrid)))) / scale
            )

    # full-plane check on the separable products h_n1(x) h_n2(y), whose Cartesian
    # partials are exact, and each polar state R(r) * Phi(phi) in the span of its level's products
    worst_plane = 0.0
    worst_span = 0.0
    xs = np.linspace(0.3, 2.4, 7)
    X, Y = np.meshgrid(xs, xs)
    X = np.concatenate([X.ravel(), -X.ravel()])
    Y = np.concatenate([Y.ravel(), -Y.ravel()])
    plane_states = [(1, 1, Fraction(0), 0), (1, 1, Fraction(1), 0), (-1, -1, Fraction(1), 0),
                    (1, -1, Fraction(1, 2), 1), (-1, 1, Fraction(3, 2), 0)]
    for s1, s2, m, nr in plane_states:
        level = int(2 * (nr + m))
        E = energy(nr, m, mu)
        columns = []
        for n1 in range((1 - s1) // 2, level + 1, 2):
            product = _product(n1, level - n1, mu)
            got = apply_hamiltonian(product, mu)(X, Y)
            want = E * product(X, Y)
            scale = max(float(np.max(np.abs(product(X, Y)))), 1.0)
            worst_plane = max(worst_plane, float(np.max(np.abs(got - want))) / scale)
            columns.append(product(X, Y))
        q_ang = AngularQuantum.build(s1, s2, m, mu)
        R = radial_sturmian(RadialQuantum.from_m(nr, m, mu), mu)
        state = R(np.hypot(X, Y)) * angular_wavefunction(q_ang, mu)(np.arctan2(Y, X))
        products = np.stack(columns, axis=1)
        fit = products @ np.linalg.lstsq(products, state, rcond=None)[0]
        worst_span = max(worst_span, float(np.max(np.abs(fit - state))) / float(np.max(np.abs(state))))
    ok = worst_exact <= 1e-8 and worst_plane <= 1e-12 and worst_span <= 1e-12
    _report(
        "criterion-4 eigenfunction residuals",
        ok,
        f"separated residual {worst_exact:.3e} (tol 1e-8), "
        f"full-plane exact residual {worst_plane:.3e} (tol 1e-12), "
        f"polar states in the product span {worst_span:.3e} (tol 1e-12)",
    )


# --- criterion 5: algebraic structure ----------------------------------------


def test_criterion_5_algebra():
    mu = DeformationParams(0.3, 1.2)
    grid = _residual_grid(40, 0.1, 6.0)

    worst_ladder = 0.0
    worst_annihilation = 0.0
    for m in (Fraction(0), Fraction(1, 2), Fraction(2)):
        l2 = _l2_of(m, mu)
        states = {
            n: radial_sturmian(RadialQuantum.from_m(n, m, mu), mu) for n in range(6)
        }
        k = RadialQuantum.from_m(0, m, mu).k
        for n in range(5):
            up = apply_A(states[n], "+", mu, l2)(grid)
            coeff = ladder_coefficients(RadialQuantum(nr=n, k=k), "+")
            scale = max(float(np.max(np.abs(states[n + 1](grid)))), 1.0)
            worst_ladder = max(
                worst_ladder, float(np.max(np.abs(up - coeff * states[n + 1](grid)))) / scale
            )
        for n in range(1, 6):
            down = apply_A(states[n], "-", mu, l2)(grid)
            coeff = ladder_coefficients(RadialQuantum(nr=n, k=k), "-")
            scale = max(float(np.max(np.abs(states[n - 1](grid)))), 1.0)
            worst_ladder = max(
                worst_ladder, float(np.max(np.abs(down - coeff * states[n - 1](grid)))) / scale
            )
        diag = apply_A(states[2], "0", mu, l2)(grid)
        scale = max(float(np.max(np.abs(states[2](grid)))), 1.0)
        worst_ladder = max(
            worst_ladder, float(np.max(np.abs(diag - (k + 2.0) * states[2](grid)))) / scale
        )
        annihilated = apply_A(states[0], "-", mu, l2)(grid)
        scale = float(np.max(np.abs(states[0](grid))))
        worst_annihilation = max(
            worst_annihilation, float(np.max(np.abs(annihilated))) / scale
        )

    rng = np.random.default_rng(5)
    profiles = [
        GaussLaguerreSum.gaussian_polynomial(rng.uniform(-1.0, 1.0, size=4))
        for _ in range(6)
    ]
    worst_comm = 0.0
    worst_half = 0.0
    worst_casimir = 0.0
    m = Fraction(1, 2)
    l2 = _l2_of(m, mu)
    k_plus, _ = bargmann_index(m, mu)
    for prof in profiles:
        A = {w: apply_A(prof, w, mu, l2) for w in ("0", "+", "-")}
        # [A0, A+] = A+, [A0, A-] = -A-, [A-, A+] = 2 A0, each judged by verify's coefficient defect.
        for x, y, c, z in (("0", "+", 1.0, "+"), ("0", "-", -1.0, "-"), ("-", "+", 2.0, "0")):
            bracket = apply_A(A[y], x, mu, l2) + (-1.0) * apply_A(A[x], y, mu, l2)
            worst_comm = max(worst_comm, _defect(bracket, c * A[z], prof))
        lhs = A["0"](grid)
        rhs = 0.5 * apply_radial_hamiltonian(prof, mu, l2)(grid)
        worst_half = max(worst_half, float(np.max(np.abs(lhs - rhs))))
        casimir = (-1.0) * apply_A(A["-"], "+", mu, l2) + apply_A(A["0"], "0", mu, l2) + (-1.0) * A["0"]
        worst_casimir = max(worst_casimir, _defect(casimir, k_plus * (k_plus - 1.0) * prof, prof))

    worst_fact = 0.0
    for m in (Fraction(0), Fraction(1, 2), Fraction(2)):
        l2 = _l2_of(m, mu)
        for nr in (0, 1, 3):
            R = radial_sturmian(RadialQuantum.from_m(nr, m, mu), mu)
            U = substitute_u(R, mu, "r_to_u")
            E = energy(nr, m, mu)
            # (J- - 1/2)(J+ - 1/2) U and (J+ + 1/2)(J- + 1/2) U against their eigenvalues times U.
            for branch, sign in (("upper", 1), ("lower", -1)):
                V = apply_J(U, E, sign) + (-0.5 * sign) * U
                Z = apply_J(V, E, -sign) + (-0.5 * sign) * V
                eigen = factorization_product_eigenvalue(E, l2, mu, branch)
                worst_fact = max(worst_fact, _defect(Z, eigen * U, U))
    ok = (
        worst_ladder <= 1e-7
        and worst_comm <= 1e-6
        and worst_casimir <= 1e-7
        and worst_half <= 1e-12
        and worst_fact <= 1e-8
        and worst_annihilation <= 1e-9
    )
    _report(
        "criterion-5 raising/lowering algebra",
        ok,
        f"ladder {worst_ladder:.3e} (tol 1e-7), commutators {worst_comm:.3e} (tol 1e-6), "
        f"Casimir {worst_casimir:.3e} (tol 1e-7), half-Hamiltonian {worst_half:.3e} (tol 1e-12), "
        f"factorization {worst_fact:.3e} (tol 1e-8), annihilation {worst_annihilation:.3e} (tol 1e-9)",
    )


# --- criterion 6: coherent-state resummation ---------------------------------


def test_criterion_6_coherent_states():
    mu = DeformationParams(0.3, 1.2)
    grid = np.linspace(0.05, 3.0, 60)
    worst_series = 0.0
    for radius in (0.3, 0.6, 0.8):
        for angle in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
            for k in (0.5, 1.5, 2.7):
                p = CoherentParams(xi=radius * cmath.exp(1j * angle), k=k)
                series = coherent_series(grid, p, mu)
                closed = coherent_closed(grid, p, mu)
                scale = max(float(np.max(np.abs(closed))), 1.0)
                worst_series = max(
                    worst_series, float(np.max(np.abs(series - closed))) / scale
                )

    worst_norm = 0.0
    for xi, k, pair in ((0.5, 1.0, (0.0, 0.0)), (-0.8, 1.5, (0.5, 0.5)), (0.3 + 0.4j, 2.7, (0.3, 1.2))):
        mu_n = DeformationParams(*pair)
        p = CoherentParams(xi=xi, k=k)
        nodes, weights = NORM_RULE
        vals = coherent_closed(nodes, p, mu_n)
        norm = float(
            np.sum(weights * np.abs(vals) ** 2 * nodes ** (1.0 + 2.0 * mu_n.total))
        )
        worst_norm = max(worst_norm, abs(norm - 1.0))

    # generating-function identity underlying the resummation
    worst_gen = 0.0
    x = np.linspace(0.05, 9.0, 40)
    for alpha in (-0.3, 0.0, 1.7):
        for t in (0.4, -0.6):
            table = laguerre_all(80, alpha, x)
            powers = t ** np.arange(81)
            lhs = table.T @ powers
            rhs = (1.0 - t) ** (-alpha - 1.0) * np.exp(-x * t / (1.0 - t))
            scale = max(float(np.max(np.abs(rhs))), 1.0)
            worst_gen = max(worst_gen, float(np.max(np.abs(lhs - rhs))) / scale)

    mpmath.mp.dps = 30
    worst_nf = 0.0
    for xi in (0.5, -0.5, 0.3 + 0.4j, 0.7 * cmath.exp(2.2j)):
        nf = normal_form(xi)
        mag = abs(mpmath.mpc(xi))
        expected_zeta = complex(mpmath.mpc(xi) * mpmath.tanh(mag) / mag)
        expected_eta = float(mpmath.log(1 - mpmath.tanh(mag) ** 2))
        worst_nf = max(worst_nf, abs(nf.zeta - expected_zeta), abs(nf.eta - expected_eta))
    ok = (
        worst_series <= 1e-10
        and worst_norm <= 1e-9
        and worst_gen <= 1e-10
        and worst_nf <= 1e-14
    )
    _report(
        "criterion-6 coherent resummation",
        ok,
        f"series vs closed {worst_series:.3e} (tol 1e-10), unit norm {worst_norm:.3e} (tol 1e-9), "
        f"generating function {worst_gen:.3e} (tol 1e-10), normal form {worst_nf:.3e} (tol 1e-14)",
    )


# --- criterion 7: time evolution ---------------------------------------------


def test_criterion_7_time_evolution():
    mu = DeformationParams(0.5, 0.5)
    m = Fraction(1, 2)
    k = float(m) + 0.5 * (mu.total + 1.0)
    p = CoherentParams(xi=0.5, k=k)
    grid = np.linspace(0.05, 3.0, 60)

    # verify's evolution_crosscheck: this p and grid at tau = 0.7 and 2.
    worst_cross = max(float(np.max(np.abs(case))) for case in _check_evolution_crosscheck(VerifyContext(mu=mu)))

    worst_norm = 0.0
    nodes, weights = NORM_RULE
    weight = nodes ** (1.0 + 2.0 * mu.total)
    for tau in (0.3, 1.1, 2.9):
        vals = coherent_evolved(nodes, p, EvolutionParams(tau=tau), m, mu)
        norm = float(np.sum(weights * np.abs(vals) ** 2 * weight))
        worst_norm = max(worst_norm, abs(norm - 1.0))

    worst_period = 0.0
    for hbar in (1.0, 0.7):
        t0 = EvolutionParams(tau=0.4, hbar=hbar)
        t1 = EvolutionParams(tau=0.4 + math.pi * hbar, hbar=hbar)
        a = coherent_evolved(grid, p, t0, m, mu)
        b = coherent_evolved(grid, p, t1, m, mu)
        worst_period = max(
            worst_period,
            float(np.max(np.abs(b - cmath.exp(-2j * math.pi * k) * a))),
            float(np.max(np.abs(np.abs(b) - np.abs(a)))),
        )

    one = coherent_evolved(grid, p, EvolutionParams(tau=1.9), m, mu)
    mid, phase = evolve_parameter(p, EvolutionParams(tau=0.6))
    two = phase * coherent_evolved(
        grid, CoherentParams(xi=mid, k=k), EvolutionParams(tau=1.3), m, mu
    )
    worst_add = float(np.max(np.abs(two - one)))
    ok = (
        worst_cross <= 1e-9
        and worst_norm <= 1e-9
        and worst_period <= 1e-12
        and worst_add <= 1e-12
    )
    _report(
        "criterion-7 time evolution",
        ok,
        f"series crosscheck {worst_cross:.3e} (tol 1e-9), norm drift {worst_norm:.3e} (tol 1e-9), "
        f"period pi*hbar {worst_period:.3e} (tol 1e-12), additivity {worst_add:.3e} (tol 1e-12)",
    )


# --- criterion 8: undeformed limit -------------------------------------------


def test_criterion_8_mu_zero_reduction():
    mu0 = DeformationParams(0.0, 0.0)
    grid = np.linspace(0.05, 6.0, 50)
    worst = 0.0
    for m in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
        for n in range(5):
            R = radial_sturmian(RadialQuantum.from_m(n, m, mu0), mu0)
            two_m = float(2 * m)
            norm = math.sqrt(2.0 * math.factorial(n) / math.gamma(n + two_m + 1.0))
            standard = (
                norm
                * grid**two_m
                * np.exp(-0.5 * grid**2)
                * scipy.special.eval_genlaguerre(n, two_m, grid**2)
            )
            scale = max(float(np.max(np.abs(standard))), 1.0)
            worst = max(worst, float(np.max(np.abs(R(grid) - standard))) / scale)
    ok = worst <= 1e-12
    _report(
        "criterion-8 undeformed limit",
        ok,
        f"max deviation from standard oscillator radial functions {worst:.3e} (tol 1e-12)",
    )


# --- criterion 9: command-line interface -------------------------------------


def test_criterion_9_cli(capsys, tmp_path):
    code = main(["verify", "--suite", "all", "--out", str(tmp_path / "report.json")])
    verify_out = capsys.readouterr().out
    report = json.loads((tmp_path / "report.json").read_text())

    argv = ["spectrum", "--emax", "6", "--mu1", "0.3", "--mu2", "1.2", "--format", "json"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out

    doc = json.loads(first)
    states = enumerate_states(6.0, DeformationParams(0.3, 1.2))
    worst = max(
        (abs(rec["energy"] - st.energy) for rec, st in zip(doc["states"], states)),
        default=float("inf"),
    )
    ok = (
        code == 0
        and verify_out.startswith("PASS: ")
        and all(rec["passed"] for rec in report)
        and first == second
        and len(doc["states"]) == len(states)
        and worst <= 1e-12
    )
    _report(
        "criterion-9 command-line interface",
        ok,
        f"verify exit code {code}, {len(report)} checks, deterministic spectrum "
        f"({len(states)} states, max energy deviation {worst:.3e}, tol 1e-12)",
    )
