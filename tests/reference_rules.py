"""Reference quadrature shared by the coherent norm tests, independent of the package's rules."""

import numpy as np


def gauss_legendre(npoints, a, b):
    """Nodes and weights of the ``npoints``-point Gauss-Legendre rule mapped to [a, b]."""
    x, w = np.polynomial.legendre.leggauss(npoints)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


# The rule of the coherent norm tests: each density they integrate decays like
# exp(-beta r^2) with beta >= 1/9, so what lies past r = 40 is below e^-170.
NORM_RULE = gauss_legendre(1600, 0.0, 40.0)
