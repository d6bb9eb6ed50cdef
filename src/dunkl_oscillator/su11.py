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
coefficient set of the quadratic rearrangement at energy E, and
``factorization_product_eigenvalue`` the diagonal value itself.

H_r, A0 = H_r/2, A+-, the flat-picture B0 (``apply_B0``) and J+- are one
operator, ``dunkl_ops._radial_operator``: each is a row of coefficients of
R'', r^2 R, R'/r, R/r^2, r R' and R.  verify's ``half_hamiltonian_identity``
compares the rows of H_r and A0, and the operator body is checked by
``radial_eigen_residual``, ``ladder_diagonal`` and ``radial_flat_picture_eigen``.

This module builds the operators and judges nothing: verify's
``commutator_closure``, ``casimir_scalar`` and ``factorization_identity``
build both sides of the brackets, the Casimir and the factorization from
``apply_A``, ``apply_J`` and ``factorization_product_eigenvalue``, and
compare them there.  Nothing is kept between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .basis import DeformationParams, RadialQuantum, _k, _two_m
from .dunkl_ops import _check_l2, _radial_operator
from .errors import DomainError
from .profiles import GaussLaguerreSum

__all__ = [
    "ladder_coefficients",
    "apply_A",
    "apply_B0",
    "apply_J",
    "schrodinger_factorize",
    "factorization_product_eigenvalue",
    "bargmann_index",
]


def _check_which(which: str) -> None:
    if which not in ("0", "+", "-"):
        raise DomainError(f"which must be '0', '+' or '-', got {which!r}")


def ladder_coefficients(state: RadialQuantum, which: str) -> float:
    """Matrix element of A0, A+ or A- on |k, n> with n = state.nr."""
    _check_which(which)
    k, n = state.k, state.nr
    if which == "0":
        return k + n
    if which == "+":
        return math.sqrt((n + 1.0) * (n + 2.0 * k))
    return math.sqrt(n * (n + 2.0 * k - 1.0))


def apply_A(R: GaussLaguerreSum, which: str, mu: DeformationParams, l2: float) -> GaussLaguerreSum:
    """Apply A0, A+ or A- (weighted picture, sector with angular eigenvalue l2)."""
    _check_l2(l2, mu)
    _check_which(which)
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


def _factorization_sign(E: float, l2: float, mu: DeformationParams, branch: str) -> float:
    """The branch's sign once E is finite, l2 has a real Bargmann index and no square of the factorization overflows."""
    _check_energy(E)
    sign = _branch_sign(branch)
    _check_l2(l2, mu)
    top = abs(E) + 1.0  # |E + sign| at most
    if not math.isfinite(top * top + abs(l2) + mu.total * mu.total):
        raise DomainError(f"the factorization overflows a float at E = {E}, l2 = {l2}, mu = ({mu.mu1}, {mu.mu2})")
    return sign


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
    sign = _factorization_sign(E, l2, mu, branch)
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
    sign = _factorization_sign(E, l2, mu, branch)
    return 0.25 * ((E + sign) ** 2 - l2 - mu.total * mu.total)


def bargmann_index(m, mu: DeformationParams) -> tuple[float, float]:
    """Both roots (k+, k-) of k(k-1) = ((mu1+mu2)^2 + l^2 - 1)/4 for quantum number m.

    Only k+ = m + (mu1 + mu2 + 1)/2 is positive and labels the realized
    representation; k- = -m - (mu1 + mu2 - 1)/2 is the discarded root.
    """
    two_m = _two_m(m)
    return (_k(two_m, mu), -0.5 * two_m - 0.5 * (mu.total - 1.0))
