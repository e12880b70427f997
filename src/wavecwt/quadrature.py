"""Quadrature rules: every rule the package integrates with is built here.

  * :func:`_gauss_legendre`: the n-point Gauss-Legendre rule on [-1, 1];
  * :func:`_panels`: composite Gauss-Legendre over consecutive panels, the
    radial rule of the admissibility constants, ``bessel_k`` and the proxy
    transforms;
  * :func:`_sphere_rule`: the product rule on the sphere, a trapezoid in the
    azimuth times Gauss-Legendre in the cosine of the polar angle, shared by
    the parameter grids' rotations and the admissibility constants'
    directions;
  * :func:`_chebyshev`: first-kind Chebyshev nodes and the transform from
    values at them to series coefficients, for the axial resolution kernel's
    tables.

Gauss-Legendre and Chebyshev rules are built once per order on first use and
shared read-only, so no caller may write into them.  This module imports
nothing but numpy.
"""

from __future__ import annotations

import functools

import numpy as np


def _read_only(*parts):
    """``parts`` as a tuple, each array made read-only: a cached rule is shared by every caller."""
    for part in parts:
        part.flags.writeable = False
    return parts


@functools.lru_cache(maxsize=64)
def _gauss_legendre(n: int):
    """``(nodes, weights)`` of the n-point Gauss-Legendre rule on [-1, 1], read-only.

    The one caller of ``leggauss``, an eigen-solve per call.
    """
    return _read_only(*np.polynomial.legendre.leggauss(n))


def _panels(edges: np.ndarray, n: int):
    """``(nodes, weights)`` of n-point Gauss-Legendre on each panel between consecutive ``edges``.

    Both arrays are flat and panel-major: panel ``p`` holds entries
    ``p n`` to ``p n + n - 1``.
    """
    x, w = _gauss_legendre(n)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * x[None, :]).ravel(), (half[:, None] * w[None, :]).ravel()


def _sphere_rule(n_azimuth: int, n_polar: int):
    """``(azimuths, mu, weights)``: the product rule on the unit sphere.

    ``azimuths`` are ``2 pi j / n_azimuth`` (a trapezoid), ``mu`` the
    Gauss-Legendre nodes in the cosine of the polar angle, and
    ``weights[j, i] = (2 pi / n_azimuth) w_i`` the weight of direction
    ``(azimuths[j], mu[i])``; the weights sum to 4 pi.
    """
    mu, wmu = _gauss_legendre(n_polar)
    azimuths = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    return azimuths, mu, np.tile((2.0 * np.pi / n_azimuth) * wmu, (n_azimuth, 1))


@functools.lru_cache(maxsize=8)
def _chebyshev(n: int):
    """``(theta, dct)`` of the n first-kind Chebyshev nodes ``cos(theta)``, read-only.

    ``dct`` is the (n, n) matrix from values ``G(x_j)`` at the nodes to the
    coefficients of ``G = sum_m c_m T_m``:
    ``c_m = (2 / n) sum_j G(x_j) cos(m theta_j)``, ``c_0`` halved.
    """
    theta = np.pi * (np.arange(n) + 0.5) / n
    dct = np.cos(np.multiply.outer(np.arange(n), theta)) * (2.0 / n)
    dct[0] *= 0.5
    return _read_only(theta, dct)
