"""Reference quadrature shared by the coherent norm tests, independent of the package's rules."""

import numpy as np


def gauss_legendre(npoints, a, b):
    """Nodes and weights of the ``npoints``-point Gauss-Legendre rule mapped to [a, b]."""
    x, w = np.polynomial.legendre.leggauss(npoints)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w
