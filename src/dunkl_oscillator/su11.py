"""Raising/lowering structure of the radial eigenproblem.

Three operators A0, A+, A- act on radial profiles in the weighted picture
(measure r^(1 + 2 mu1 + 2 mu2) dr) and close into

    [A0, A+-] = +-A+-,     [A-, A+] = 2 A0,

with A0 equal to half the radial Hamiltonian.  On the orthonormal basis
attached to a representation parameter k > 0, the matrix elements are

    A+ |k, n> = sqrt((n+1)(n+2k)) |k, n+1>,
    A- |k, n> = sqrt(n(n+2k-1))   |k, n-1>,
    A0 |k, n> = (k+n)             |k, n>,

and the Casimir -A+A- + A0(A0 - 1) is the scalar k(k-1), which equals
(mu1 + mu2)^2/4 + l^2/4 - 1/4 for the sector's angular eigenvalue l^2.

A second pair J+- acts in the flat-measure picture (on U = r^(1/2 + mu1 + mu2) R)
and factorizes the eigenequation: at energy E the shifted products

    (J- - 1/2)(J+ - 1/2) U = [(E+1)^2 - l^2 - (mu1+mu2)^2] / 4 * U   ("upper")
    (J+ + 1/2)(J- + 1/2) U = [(E-1)^2 - l^2 - (mu1+mu2)^2] / 4 * U   ("lower")

are diagonal on eigenprofiles.  ``schrodinger_factorize`` reports the raw
coefficient set of the quadratic rearrangement at energy E, while
``factorization_residual`` verifies the diagonal identity itself.

H_r, A0 = H_r/2, A+-, the flat-picture B0 (``apply_B0``) and J+- are one
operator, ``dunkl_ops._radial_operator``: each is a row of coefficients of
R'', r^2 R, R'/r, R/r^2, r R' and R.  verify's ``half_hamiltonian_identity``
compares the rows of H_r and A0, and the operator body is checked by
``radial_eigen_residual``, ``ladder_diagonal`` and ``radial_flat_picture_eigen``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import DeformationParams, RadialQuantum, _check_k, as_quantum_m, k_of
from .dunkl_ops import _radial_operator
from .errors import DomainError
from .profiles import GaussLaguerreSum, _check_l2, residual_grid

__all__ = [
    "ladder_coefficients",
    "apply_A",
    "apply_B0",
    "apply_J",
    "schrodinger_factorize",
    "factorization_product_eigenvalue",
    "factorization_residual",
    "casimir_check",
    "commutator_residual",
    "bargmann_index",
]


def ladder_coefficients(state: RadialQuantum, which: str) -> float:
    """Matrix element of A0, A+ or A- on |k, n> with n = state.nr."""
    k, n = state.k, state.nr
    if which == "0":
        return k + n
    if which == "+":
        return math.sqrt((n + 1.0) * (n + 2.0 * k))
    if which == "-":
        return math.sqrt(n * (n + 2.0 * k - 1.0))
    raise DomainError(f"which must be '0', '+' or '-', got {which!r}")


def apply_A(R: GaussLaguerreSum, which: str, mu: DeformationParams, l2: float) -> GaussLaguerreSum:
    """Apply A0, A+ or A- (weighted picture, sector with angular eigenvalue l2)."""
    _check_l2(l2, mu)
    if which not in ("0", "+", "-"):
        raise DomainError(f"which must be '0', '+' or '-', got {which!r}")
    drift = -0.25 * (1.0 + 2.0 * mu.total)
    if which == "0":
        return _radial_operator(R, (-0.25, 0.25, drift, 0.25 * l2, 0.0, 0.0))
    # A+- = A0 - r^2/2 +- (r d/dr + 1 + mu1 + mu2)/2.
    half = 0.5 if which == "+" else -0.5
    return _radial_operator(R, (-0.25, -0.25, drift, 0.25 * l2, half, half * (1.0 + mu.total)))


def apply_B0(U: GaussLaguerreSum, l2: float, mu: DeformationParams) -> GaussLaguerreSum:
    """Apply the flat-measure diagonal operator; on eigen-U its value is E/2."""
    _check_l2(l2, mu)
    return _radial_operator(U, (-0.25, 0.25, 0.0, 0.25 * (l2 - 0.25 + mu.total * mu.total), 0.0, 0.0))


def _check_energy(E: float) -> None:
    if not math.isfinite(E):
        raise DomainError(f"energy E must be finite, got {E}")


def apply_J(U: GaussLaguerreSum, E: float, sign: int) -> GaussLaguerreSum:
    """Apply J+ (sign=+1) or J- (sign=-1) at energy E in the flat-measure picture."""
    _check_energy(E)
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    return _radial_operator(U, (0.0, 0.5, 0.0, 0.0, -0.5 * sign, 0.5 * (0.5 * sign - E)))


@dataclass(frozen=True)
class FactorizationConstants:
    """Raw coefficient set of the ladder-product rearrangement at energy E."""

    a: float
    b: float
    c: float
    f: float
    g: float
    branch: str


def _branch_sign(branch: str) -> float:
    if branch == "upper":
        return 1.0
    if branch == "lower":
        return -1.0
    raise DomainError(f"branch must be 'upper' or 'lower', got {branch!r}")


def schrodinger_factorize(
    E: float, l2: float, mu: DeformationParams, branch: str = "upper"
) -> FactorizationConstants:
    """Coefficient set of the quadratic rearrangement of the eigenproblem at E."""
    _check_energy(E)
    sign = _branch_sign(branch)
    _check_l2(l2, mu)
    return FactorizationConstants(
        a=sign,
        b=-sign * E - 1.5,
        c=sign,
        f=-sign * E - 0.5,
        g=-l2 - mu.total * mu.total - (E + sign) ** 2 + 0.5,
        branch=branch,
    )


def factorization_product_eigenvalue(
    E: float, l2: float, mu: DeformationParams, branch: str = "upper"
) -> float:
    """Eigenvalue of the shifted ladder product on an eigenprofile of energy E."""
    _check_energy(E)
    sign = _branch_sign(branch)
    _check_l2(l2, mu)
    return 0.25 * ((E + sign) ** 2 - l2 - mu.total * mu.total)


def factorization_residual(
    U: GaussLaguerreSum,
    E: float,
    l2: float,
    mu: DeformationParams,
    branch: str = "upper",
    grid: np.ndarray | None = None,
) -> float:
    """Sup-norm defect of the shifted-product identity on the given profile."""
    sign = _branch_sign(branch)
    if grid is None:
        grid = residual_grid()
    shift = -0.5 * sign
    V = apply_J(U, E, int(sign)) + shift * U
    Z = apply_J(V, E, -int(sign)) + shift * V
    lam = factorization_product_eigenvalue(E, l2, mu, branch)
    return float(np.max(np.abs(Z(grid) - lam * U(grid))))


def casimir_check(
    R: GaussLaguerreSum,
    k: float,
    mu: DeformationParams,
    l2: float,
    grid: np.ndarray | None = None,
) -> float:
    """Defect of the Casimir identity -A+A- + A0(A0-1) = k(k-1) on R.

    Returns the larger of the operator residual on the grid and the mismatch
    between k(k-1) and its closed form ((mu1+mu2)^2 + l2 - 1)/4.
    """
    _check_k(k)
    if grid is None:
        grid = residual_grid()
    lowered = apply_A(R, "-", mu, l2)
    product = apply_A(lowered, "+", mu, l2)
    diag = apply_A(R, "0", mu, l2)
    diag2 = apply_A(diag, "0", mu, l2)
    casimir = (-1.0) * product + diag2 + (-1.0) * diag
    target = k * (k - 1.0)
    scalar = 0.25 * (mu.total * mu.total + l2 - 1.0)
    residual = float(np.max(np.abs(casimir(grid) - target * R(grid))))
    return max(residual, abs(scalar - target))


# [X, Y] = c Z for pair "XY", as (X, Y, c, Z).
_BRACKETS = {"0+": ("0", "+", 1.0, "+"), "0-": ("0", "-", -1.0, "-"), "-+": ("-", "+", 2.0, "0")}


def commutator_residual(
    pair: str,
    R: GaussLaguerreSum,
    mu: DeformationParams,
    l2: float,
    grid: np.ndarray | None = None,
) -> float:
    """Sup-norm defect of a bracket relation ([A0,A+], [A0,A-] or [A-,A+]) on R."""
    if pair not in _BRACKETS:
        raise DomainError(f"pair must be '0+', '0-' or '-+', got {pair!r}")
    x, y, c, z = _BRACKETS[pair]
    if grid is None:
        grid = residual_grid()
    yr = apply_A(R, y, mu, l2)
    lhs = apply_A(yr, x, mu, l2) + (-1.0) * apply_A(apply_A(R, x, mu, l2), y, mu, l2)
    rhs = c * (yr if z == y else apply_A(R, z, mu, l2))
    return float(np.max(np.abs(lhs(grid) - rhs(grid))))


def bargmann_index(m, mu: DeformationParams) -> tuple[float, float]:
    """Both roots (k+, k-) of k(k-1) = ((mu1+mu2)^2 + l^2 - 1)/4 for quantum number m.

    Only k+ = m + (mu1 + mu2 + 1)/2 is positive and labels the realized
    representation; k- = -m - (mu1 + mu2 - 1)/2 is the discarded root.
    """
    frac = as_quantum_m(m)
    k_plus = k_of(frac, mu)
    k_minus = -float(frac) - 0.5 * (mu.total - 1.0)
    return (k_plus, k_minus)
