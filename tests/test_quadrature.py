"""quadrature.py owns every rule, and each rule gives the bytes of the inline code it replaced.

The references below are the rules as their callers wrote them before: the
composite Gauss-Legendre panels of the admissibility constants, ``bessel_k``
and the proxy transforms, the parameter grids' ``tile``/``repeat`` weights,
the three branches of the admissibility constants' angular average and the
axial kernel's Chebyshev constants.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavecwt as wc
from wavecwt.admissibility import RADIAL_HI, RADIAL_LO, _angular_profile, _power
from wavecwt.quadrature import _chebyshev, _gauss_legendre, _panels, _sphere_rule
from wavecwt.wavelets import _tilt_axis


def inline_panels(edges, n):
    """Composite Gauss-Legendre as the constants and ``bessel_k`` wrote it."""
    nodes, wts = np.polynomial.legendre.leggauss(n)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return ((mid[:, None] + half[:, None] * nodes[None, :]).ravel(),
            (half[:, None] * wts[None, :]).ravel())


def decade_edges(panels_per_decade):
    n_dec = int(round(math.log10(RADIAL_HI / RADIAL_LO)))
    return np.log(RADIAL_LO) + math.log(10.0) * np.arange(
        0, n_dec * panels_per_decade + 1) / panels_per_decade


def bessel_edges(x):
    s_max = math.acosh((760.0 + 40.0) / x) + 1.0 if x < 760.0 else 1.0
    return np.linspace(0.0, s_max, max(24, int(4 * s_max)) + 1)


@pytest.mark.parametrize("edges", [decade_edges(p) for p in (2, 4, 8, 16, 32)]
                         + [bessel_edges(x) for x in (0.5, 1.0, 3.7, 20.0, 800.0)],
                         ids=[f"decades{p}" for p in (2, 4, 8, 16, 32)]
                         + [f"bessel{x}" for x in (0.5, 1.0, 3.7, 20.0, 800.0)])
def test_panels_equal_the_inline_rule(edges):
    got, want = _panels(edges, 16), inline_panels(edges, 16)
    assert [part.tobytes() for part in got] == [part.tobytes() for part in want]


def test_panels_equal_the_proxy_transforms_panel_loop():
    # the proxy transform summed panel by panel: xi = 0.5 (b - a) x + 0.5 (a + b)
    edges = np.concatenate([np.exp(np.linspace(np.log(1e-8), 0.0, 33)), np.arange(2.0, 121.0)])
    nodes, wts = np.polynomial.legendre.leggauss(12)
    xi = np.concatenate([0.5 * (b - a) * nodes + 0.5 * (a + b)
                         for a, b in zip(edges[:-1], edges[1:])])
    w = np.concatenate([0.5 * (b - a) * wts for a, b in zip(edges[:-1], edges[1:])])
    got = _panels(edges, 12)
    assert (got[0].tobytes(), got[1].tobytes()) == (xi.tobytes(), w.tobytes())


def test_proxy_spot_checks_stay_at_round_off():
    # the transform is one sum over the flat panels now, no longer one per panel
    t = np.random.default_rng(1729).uniform(-3.0, 3.0, 32)
    for proxy in (wc.exponential_proxy(validate=False), wc.kaiser_proxy(3.0, validate=False),
                  wc.gaussian_packet_proxy(40.0, 1.0, validate=False)):
        direct = np.asarray(proxy.time_profile(t), dtype=np.complex128)
        recon = wc.wavelets._quad_inverse_transform(proxy.spectrum, t)
        assert np.max(np.abs(direct - recon)) <= 1e-14 * np.max(np.abs(direct))


@pytest.mark.parametrize("n_azimuth, n_polar", [(1, 1), (5, 3), (16, 8), (7, 12)])
def test_sphere_rule_weights_cover_the_sphere(n_azimuth, n_polar):
    azimuths, mu, weights = _sphere_rule(n_azimuth, n_polar)
    assert azimuths.tobytes() == (2.0 * np.pi * np.arange(n_azimuth) / n_azimuth).tobytes()
    assert mu is _gauss_legendre(n_polar)[0]
    assert weights.shape == (n_azimuth, n_polar)
    assert weights.sum() == pytest.approx(4.0 * np.pi, rel=1e-14)


@pytest.mark.parametrize("angles", [(1, 1, 1), (5, 3, 3), (16, 8, 8)])
def test_grid_weights_equal_the_tile_and_repeat_formulas(grid16, angles):
    n1, n2, n3 = angles
    wmu = np.polynomial.legendre.leggauss(n2)[1]
    axial = wc.build_parameter_grid(grid16, "axial", (1, 0, 0), 0.5, 2.0, 4, *angles)
    none = wc.build_parameter_grid(grid16, "none", (0, 0, 1), 0.5, 2.0, 4, *angles)
    want_axial = np.tile((2.0 * np.pi / n1) * wmu, n1)
    want_none = np.tile(np.repeat((2.0 * np.pi / n1) * wmu * (2.0 * np.pi / n3), n3), n1)
    assert axial.rotation_weights.tobytes() == want_axial.tobytes()
    assert none.rotation_weights.tobytes() == want_none.tobytes()
    assert len(none.rotations) == len(none.rotation_weights) == n1 * n2 * n3


def branched_profile(pair, wavelet, n_polar, n_azimuth):
    """The angular average as written before, one branch per symmetry."""
    if wavelet.symmetry == "spherical":
        return lambda k: 4.0 * np.pi * pair(k, np.zeros_like(k), np.zeros_like(k))
    axis = np.asarray(wavelet.axis, dtype=float)
    e1 = _tilt_axis(axis)
    e2 = np.cross(axis, e1)
    mu, wmu = np.polynomial.legendre.leggauss(n_polar)
    sin_t = np.sqrt(1.0 - mu**2)
    if wavelet.symmetry == "axial":
        dirs = mu[:, None] * axis[None, :] + sin_t[:, None] * e1[None, :]
        wts = 2.0 * np.pi * wmu
    else:
        phi = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
        dirs = (
            mu[:, None, None] * axis[None, None, :]
            + (sin_t[:, None] * np.cos(phi)[None, :])[:, :, None] * e1[None, None, :]
            + (sin_t[:, None] * np.sin(phi)[None, :])[:, :, None] * e2[None, None, :]
        ).reshape(-1, 3)
        wts = np.repeat(wmu, n_azimuth) * (2.0 * np.pi / n_azimuth)

    def profile(k):
        kx = np.multiply.outer(dirs[:, 0], k)
        ky = np.multiply.outer(dirs[:, 1], k)
        kz = np.multiply.outer(dirs[:, 2], k)
        return np.tensordot(wts, pair(kx, ky, kz), axes=(0, 0))

    return profile


def cross_pair(first, second):
    f, s = first.spectral, second.spectral
    return lambda kx, ky, kz: np.conj(f(kx, ky, kz)) * s(kx, ky, kz)


BATEMAN = {eps: wc.make_wavelet("bateman", {"eps1": eps[0], "eps2": eps[1]})
           for eps in ((1.0, 1.0), (0.5, 0.8))}
PROFILES = {
    "kaiser": (wc.kaiser_wavelet(3.0), None),
    "packet": (wc.gaussian_packet(40.0, 1.0, 0.5, 0.5), None),
    "bateman-0.5-0.8": (BATEMAN[0.5, 0.8], None),
    "cross-bateman": (BATEMAN[0.5, 0.8], BATEMAN[1.0, 1.0]),
}


@pytest.mark.parametrize("counts", [(16, 16), (32, 32), (7, 5)], ids=str)
@pytest.mark.parametrize("name", PROFILES)
def test_angular_profile_equals_the_three_branches(name, counts):
    wavelet, second = PROFILES[name]
    pair = _power(wavelet) if second is None else cross_pair(wavelet, second)
    k = np.exp(np.linspace(np.log(RADIAL_LO), np.log(RADIAL_HI), 240))
    got = _angular_profile(pair, wavelet, *counts)(k)
    assert got.tobytes() == branched_profile(pair, wavelet, *counts)(k).tobytes()


def test_chebyshev_rule_is_the_kernels_old_constants_read_only():
    theta, dct = _chebyshev(48)
    want_theta = np.pi * (np.arange(48) + 0.5) / 48
    want_dct = np.cos(np.multiply.outer(np.arange(48), want_theta)) * (2.0 / 48)
    want_dct[0] *= 0.5
    assert (theta.tobytes(), dct.tobytes()) == (want_theta.tobytes(), want_dct.tobytes())
    assert _chebyshev(48)[1] is dct
    for part in (theta, dct):
        with pytest.raises(ValueError):
            part[0] = 1.0
    # the transform takes values at the nodes to series coefficients: T_5 -> e_5
    assert np.allclose(dct @ np.cos(5 * theta), np.eye(48)[5], atol=1e-14)


def test_importing_the_cli_builds_no_chebyshev_rule():
    src = Path(wc.__file__).resolve().parents[1]
    code = ("import wavecwt.cli, wavecwt.quadrature as q; "
            "print(q._chebyshev.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert proc.stdout.strip() == "0"
