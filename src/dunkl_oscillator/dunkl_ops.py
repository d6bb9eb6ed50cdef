"""Reflection-deformed derivative and Hamiltonian operators.

The derivative along an axis gains a reflection-difference term,

    D_x f = df/dx + (mu1/x) * (f(x, y) - f(-x, y)),

and the Hamiltonian is H = -(D_x^2 + D_y^2)/2 + (x^2 + y^2)/2, with each D_t^2
applied as D_t(D_t f): ``dunkl_derivative`` is the one home of the reflection
quotient and its limits on the axes.  In polar form H splits into a radial part
and an angular operator carrying both reflections; ``apply_radial_hamiltonian``
includes the centrifugal term l^2/(2 r^2) of a fixed angular sector, so the pure
radial part is recovered with l2 = 0.  Its body, ``_radial_operator``, takes a
row of six coefficients; with other rows it is A0 = H_r/2, A+-, B0 and J+- of ``su11``.

Every one-variable operator maps an exact term sum to one of its own type,
built by one ``_fold`` of coefficient rows, and first asks ``derivative_of``,
which refuses a non-``Profile`` with ``TypeError``.  The plane operators use
the partials attached to a ``PlaneFunction`` (``_partial``) and raise
``DerivativeUnavailable`` for a missing one.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import DeformationParams
from .errors import DerivativeUnavailable, DomainError, SingularityError
from .profiles import GaussLaguerreSum, PlaneFunction, TrigJacobiSum, derivative_of

__all__ = [
    "reflect",
    "dunkl_derivative",
    "apply_hamiltonian",
    "apply_radial_hamiltonian",
    "apply_angular_operator",
]


def reflect(f: PlaneFunction, axis: str) -> PlaneFunction:
    """The reflected function f(-x, y) or f(x, -y); its first partial along axis changes sign."""
    if axis not in ("x", "y"):
        raise DomainError(f"axis must be 'x' or 'y', got {axis!r}")

    def mirrored(g, negate: bool = False):
        def h(x, y):
            v = g(-np.asarray(x), y) if axis == "x" else g(x, -np.asarray(y))
            return -v if negate else v

        return None if g is None else h

    return PlaneFunction(
        fn=mirrored(f),
        dx=mirrored(f.dx, negate=axis == "x"),
        dy=mirrored(f.dy, negate=axis == "y"),
        dxx=mirrored(f.dxx),
        dyy=mirrored(f.dyy),
        parity=f.parity,
    )


def _partial(f: PlaneFunction, axis: str, order: int):
    """The attached exact partial of f along axis."""
    exact = {("x", 1): f.dx, ("y", 1): f.dy, ("x", 2): f.dxx, ("y", 2): f.dyy}[(axis, order)]
    if exact is None:
        raise DerivativeUnavailable(f"no exact order-{order} partial along {axis} is attached")
    return exact


def dunkl_derivative(f: PlaneFunction, axis: str, mu: DeformationParams) -> PlaneFunction:
    """The deformed derivative D_axis f = f_t + mu (f - Rf)/t, with its exact partial along axis.

    t is the coordinate along axis and Rf the reflection ``reflect(f, axis)``;
    that partial is f_tt + mu ((f - Rf)_t - (f - Rf)/t)/t, and f_tt is looked up
    only when it is evaluated.  A point with t = 0 needs f's parity label, which
    fixes the limits there.
    """
    refl = reflect(f, axis)
    coupling = mu.mu1 if axis == "x" else mu.mu2
    dfn, drefl = _partial(f, axis, 1), _partial(refl, axis, 1)
    s = None if f.parity is None else f.parity[0 if axis == "x" else 1]

    def quotient(x, y):
        """(t == 0, t with 1 there, f - Rf) at float arrays (x, y)."""
        t = x if axis == "x" else y
        on_axis = t == 0.0
        if s is None and np.any(on_axis):
            raise SingularityError(f"Dunkl derivative along {axis} evaluated at {axis} = 0 without a parity label")
        return on_axis, np.where(on_axis, 1.0, t), f(x, y) - refl(x, y)

    def out(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        base = dfn(x, y)
        if coupling == 0.0:
            return base
        on_axis, tsafe, diff = quotient(x, y)
        # Even sector: the quotient vanishes on the axis; odd sector: it tends to 2 f_t.
        limit = np.zeros_like(base) if s == 1 else 2.0 * base
        return base + coupling * np.where(on_axis, limit, diff / tsafe)

    def partial(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        second = _partial(f, axis, 2)(x, y)
        if coupling == 0.0:
            return second
        on_axis, tsafe, diff = quotient(x, y)
        slope = dfn(x, y) - drefl(x, y)
        # The quotient is even in t in either sector, so its partial vanishes on the axis.
        return second + coupling * np.where(on_axis, 0.0, (slope - diff / tsafe) / tsafe)

    parity = None
    if f.parity is not None:
        s1, s2 = f.parity
        parity = (-s1, s2) if axis == "x" else (s1, -s2)
    return PlaneFunction(fn=out, dx=partial if axis == "x" else None, dy=partial if axis == "y" else None, parity=parity)


def apply_hamiltonian(f: PlaneFunction, mu: DeformationParams) -> PlaneFunction:
    """H f with H = -(D_x^2 + D_y^2)/2 + (x^2 + y^2)/2, each D_t^2 f = D_t(D_t f) of ``dunkl_derivative``."""
    for axis, order in (("x", 1), ("x", 2), ("y", 1), ("y", 2)):
        _partial(f, axis, order)  # refuse a missing partial before any image is built
    ddx, ddy = (dunkl_derivative(dunkl_derivative(f, axis, mu), axis, mu) for axis in ("x", "y"))

    def out(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return -0.5 * (ddx(x, y) + ddy(x, y)) + 0.5 * (x * x + y * y) * f(x, y)

    return PlaneFunction(fn=out, parity=f.parity)


def _check_l2(l2: float, mu: DeformationParams) -> None:
    """Refuse an angular eigenvalue without a real Bargmann index: l2 + (mu1+mu2)^2 < 0 or nan.

    A genuine sector has l2 = 4m(m+mu1+mu2), so l2 + (mu1+mu2)^2 = (2m+mu1+mu2)^2;
    l2 itself is negative in the (+-,-+) m = 1/2 sectors once mu1+mu2 < -1/2.
    """
    if not (math.isfinite(l2) and l2 + mu.total * mu.total >= 0.0):
        raise DomainError(
            f"angular eigenvalue l2 = {l2} has no real Bargmann index at mu1+mu2 = {mu.total}: "
            "l2 + (mu1+mu2)^2 must be non-negative"
        )


def _radial_operator(R: GaussLaguerreSum, row: tuple[float, ...]) -> GaussLaguerreSum:
    """The sum of row[i] times the i-th of R'', r^2 R, R'/r, R/r^2, r R' and R, leaving out a zero row[i]."""
    # Every row has an R'' or r R' term, so R' is always needed; taking it first
    # refuses an input without exact derivatives before any image is built.
    d1 = derivative_of(R, 1)
    c_d2, c_r2, c_d1_r, c_r_2, c_r_d1, c_1 = row
    parts = []
    if c_d2 != 0.0:
        parts.append((c_d2, d1.derivative().terms.items()))
    if c_r2 != 0.0:
        parts.append((c_r2, R._shifted(2)))
    if c_d1_r != 0.0:
        parts.append((c_d1_r, d1._shifted(-1)))
    if c_r_2 != 0.0:
        parts.append((c_r_2, R._shifted(-2)))
    if c_r_d1 != 0.0:
        parts.append((c_r_d1, d1._shifted(1)))
    if c_1 != 0.0:
        parts.append((c_1, R.terms.items()))
    return GaussLaguerreSum._fold(parts)


def apply_radial_hamiltonian(R: GaussLaguerreSum, mu: DeformationParams, l2: float) -> GaussLaguerreSum:
    """H_r R for angular eigenvalue l2, i.e. the radial operator plus l2/(2 r^2)."""
    _check_l2(l2, mu)
    return _radial_operator(R, (-0.5, 0.5, -0.5 - mu.total, 0.5 * l2, 0.0, 0.0))


def apply_angular_operator(Phi: TrigJacobiSum, mu: DeformationParams) -> TrigJacobiSum:
    """The angular operator -Phi''/2 + (mu1 tan - mu2 cot) Phi' + its two reflection quotients, on Phi.

    mu1 (Phi - Phi(pi - phi)) / (2 cos^2) is mu1 times Phi's odd-cos terms over cos^2,
    and mu2 (Phi - Phi(-phi)) / (2 sin^2) is mu2 times its odd-sin terms over sin^2.
    """
    d1 = derivative_of(Phi, 1)
    rows = (
        (-0.5, derivative_of(d1, 1).terms.items()),
        (mu.mu1, d1._shifted(-1, 1)),
        (-mu.mu2, d1._shifted(1, -1)),
        (mu.mu1, Phi._shifted(-2, 0, odd=0)),
        (mu.mu2, Phi._shifted(0, -2, odd=1)),
    )
    return TrigJacobiSum._fold((c, pairs) for c, pairs in rows if c != 0.0)
