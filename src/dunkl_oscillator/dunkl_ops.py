"""Reflection-deformed derivative and Hamiltonian operators.

The derivative along an axis gains a reflection-difference term,

    D_x f = df/dx + (mu1/x) * (f(x, y) - f(-x, y)),

and the Hamiltonian is H = -(D_x^2 + D_y^2)/2 + (x^2 + y^2)/2.  In polar form H
splits into a radial part and an angular operator carrying both reflections;
``apply_radial_hamiltonian`` includes the centrifugal term l^2/(2 r^2) of a fixed
angular sector, so the pure radial part is recovered with l2 = 0.  Its body,
``_radial_operator``, is with other coefficients A0 = H_r/2 and B0 of ``su11``.

Every operator uses the exact derivatives attached to its input (profile
derivatives through ``derivative_of``, plane partials through ``_partial``)
and raises ``DerivativeUnavailable`` when it is built on an input that lacks
one it needs.
"""

from __future__ import annotations

import numpy as np

from .errors import DerivativeUnavailable, DomainError, SingularityError
from .profiles import DeformationParams, PlaneFunction, Profile, _check_l2, derivative_of

__all__ = [
    "reflect",
    "dunkl_derivative",
    "apply_hamiltonian",
    "apply_radial_hamiltonian",
    "apply_angular_operator",
]


def _check_axis(axis: str) -> str:
    if axis not in ("x", "y"):
        raise DomainError(f"axis must be 'x' or 'y', got {axis!r}")
    return axis


def reflect(f: PlaneFunction, axis: str) -> PlaneFunction:
    """The reflected function f(-x, y) or f(x, -y); its first partial along axis changes sign."""
    _check_axis(axis)

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
    """The deformed derivative D_axis acting on f."""
    _check_axis(axis)
    coupling = mu.mu1 if axis == "x" else mu.mu2
    dfn = _partial(f, axis, 1)
    refl = reflect(f, axis)

    def out(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        t = x if axis == "x" else y
        base = dfn(x, y)
        if coupling == 0.0:
            return base
        diff = f(x, y) - refl(x, y)
        on_axis = t == 0.0
        if np.any(on_axis):
            if f.parity is None:
                raise SingularityError(
                    f"Dunkl derivative along {axis} evaluated at {axis} = 0 "
                    "without a parity label"
                )
            s = f.parity[0] if axis == "x" else f.parity[1]
            limit = np.zeros_like(base) if s == 1 else 2.0 * base
            tsafe = np.where(on_axis, 1.0, t)
            return base + coupling * np.where(on_axis, limit, diff / tsafe)
        return base + coupling * diff / t

    parity = None
    if f.parity is not None:
        s1, s2 = f.parity
        parity = (-s1, s2) if axis == "x" else (s1, -s2)
    return PlaneFunction(fn=out, parity=parity)


def _deformed_second(f: PlaneFunction, axis: str, coupling: float):
    """Values of D_axis^2 f, expanded as f'' + (2 mu/t) f' - (mu/t^2)(f - Rf)."""
    d1 = _partial(f, axis, 1)
    d2 = _partial(f, axis, 2)
    refl = reflect(f, axis)

    def out(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        second = d2(x, y)
        if coupling == 0.0:
            return second
        t = x if axis == "x" else y
        first = d1(x, y)
        diff = f(x, y) - refl(x, y)
        on_axis = t == 0.0
        if np.any(on_axis):
            if f.parity is None:
                raise SingularityError(
                    f"Hamiltonian evaluated at {axis} = 0 without a parity label"
                )
            s = f.parity[0] if axis == "x" else f.parity[1]
            tsafe = np.where(on_axis, 1.0, t)
            off = 2.0 * coupling * first / tsafe - coupling * diff / (tsafe * tsafe)
            # Even sector: (2mu/t) f' -> 2 mu f'' and the difference term vanishes.
            # Odd sector: the two singular pieces cancel in pairs and the limit is 0.
            limit = 2.0 * coupling * second if s == 1 else np.zeros_like(second)
            return second + np.where(on_axis, limit, off)
        return second + 2.0 * coupling * first / t - coupling * diff / (t * t)

    return out


def apply_hamiltonian(f: PlaneFunction, mu: DeformationParams) -> PlaneFunction:
    """H f with H = -(D_x^2 + D_y^2)/2 + (x^2 + y^2)/2."""
    ddx = _deformed_second(f, "x", mu.mu1)
    ddy = _deformed_second(f, "y", mu.mu2)

    def out(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return -0.5 * (ddx(x, y) + ddy(x, y)) + 0.5 * (x * x + y * y) * f(x, y)

    return PlaneFunction(fn=out, parity=f.parity)


def _radial_operator(R: Profile, scale: float, drift: float, centrifugal: float) -> Profile:
    """scale*(r^2 R - R'') + drift*R'/r + centrifugal*R/r^2, leaving out a zero drift or centrifugal term."""
    out = (-scale) * derivative_of(R, 2) + scale * R.times_rpower(2)
    if drift != 0.0:
        out = out + drift * derivative_of(R, 1).times_rpower(-1)
    if centrifugal != 0.0:
        out = out + centrifugal * R.times_rpower(-2)
    return out


def apply_radial_hamiltonian(R: Profile, mu: DeformationParams, l2: float) -> Profile:
    """H_r R for angular eigenvalue l2, i.e. the radial operator plus l2/(2 r^2)."""
    _check_l2(l2, mu)
    return _radial_operator(R, 0.5, -0.5 - mu.total, 0.5 * l2)


def apply_angular_operator(Phi: Profile, mu: DeformationParams) -> Profile:
    """The angular operator of the polar-separated Hamiltonian acting on Phi."""
    d1 = derivative_of(Phi, 1)
    d2 = derivative_of(Phi, 2)

    def out(phi):
        phi = np.asarray(phi, dtype=float)
        c = np.cos(phi)
        s = np.sin(phi)
        # Floating-point multiples of pi/2 give |cos| or |sin| of order 1e-16,
        # where the reflection quotients lose all of their digits.
        if np.any(np.abs(c) < 1e-12) or np.any(np.abs(s) < 1e-12):
            raise SingularityError("angular operator evaluated on a reflection axis")
        value = Phi(phi)
        drift = (mu.mu1 * s / c - mu.mu2 * c / s) * d1(phi)
        refl_x = mu.mu1 * (value - Phi(np.pi - phi)) / (2.0 * c * c)
        refl_y = mu.mu2 * (value - Phi(-phi)) / (2.0 * s * s)
        return -0.5 * d2(phi) + drift + refl_x + refl_y

    return Profile(out)
