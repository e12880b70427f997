"""Admissibility constants with divergence detection.

The basic object is C = integral d^3k |PHI(k)|^2 / |k|^3, whose finiteness
licenses the reconstruction formula.  In spherical coordinates this is

    C = integral (dk / k) S(k),     S(k) = integral_{S^2} |PHI(k n)|^2 dOmega,

so everything reduces to a 1-D improper integral in log k.  The radial axis
is split into log-spaced panels; panel sums over whole decades expose the
endpoint behaviour: a power-law integrand makes successive decade sums decay
geometrically, so a non-decaying trend at either end is reported as
divergence ("origin" / "tail") while a clean geometric decay is summed to
its limit analytically.  The panels and the sphere's directions are the rules
of :mod:`wavecwt.quadrature`.

The same |PHI|^2 integrand, averaged over directions, also sets the dilation
window: :func:`suggest_dilation_range` maps the log-radius window holding
99.9% of the constant's mass onto a wave-number band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import ValidationError
from .fields import _positive_finite
from .quadrature import _panels, _sphere_rule
from .wavelets import PhysicalWavelet, ProxyWavelet, _tilt_axis

__all__ = [
    "AdmissibilityReport",
    "admissibility_constant",
    "admissibility_constant_from_proxy",
    "cross_admissibility_constant",
    "suggest_dilation_range",
    "bessel_k",
]

RADIAL_LO = 1e-6
RADIAL_HI = 1e3

# decade-sum ratio at or above which the endpoint trend counts as divergent
_DIVERGENT_RATIO = 0.999

# endpoint decades contributing less than this share of the running total
# are treated as already converged (nothing to extrapolate)
_NEGLIGIBLE = 1e-14


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of an admissibility quadrature.

    constant           the integral value (real and >= 0 for same-wavelet C)
    converged          integral judged finite and computed to tolerance
    error_estimate     relative error estimate (valid when converged)
    divergence_reason  "origin", "tail" or "tolerance" when not converged
    """

    constant: complex
    converged: bool
    error_estimate: float
    divergence_reason: Optional[str] = None

    @property
    def value(self) -> float:
        return float(np.real(self.constant))


def _decade_sums(profile: Callable, panels_per_decade: int):
    """Panel-quadrature sums of integral profile(k) dk/k over each decade, 16 nodes a panel."""
    n_dec = int(round(math.log10(RADIAL_HI / RADIAL_LO)))
    t_edges = np.log(RADIAL_LO) + math.log(10.0) * np.arange(0, n_dec * panels_per_decade + 1) / panels_per_decade
    # all panel nodes at once: dk/k = dt with t = ln k
    t, w = _panels(t_edges, 16)
    vals = profile(np.exp(t)) * w
    panel = vals.reshape(-1, 16).sum(axis=1)
    return panel.reshape(n_dec, panels_per_decade).sum(axis=1)


def _endpoint(series, total_scale):
    """(extrapolated remainder, its uncertainty, divergence flag) for one end.

    ``series`` lists decade sums ordered from the boundary inward.
    """
    s0, s1, s2 = series[0], series[1], series[2]
    if abs(s0) <= _NEGLIGIBLE * total_scale or abs(s1) == 0.0:
        return 0.0 + 0.0j, 0.0, False
    ratio = s0 / s1
    if abs(ratio) >= _DIVERGENT_RATIO:
        return 0.0 + 0.0j, 0.0, True
    remainder = s0 * ratio / (1.0 - ratio)
    # sensitivity of the geometric sum to the measured ratio; the observed
    # decade-to-decade ratio drift bounds how far the ratio is from its limit
    drift = abs(ratio - s1 / s2) if abs(s2) > 0 else abs(ratio)
    uncertainty = abs(remainder) * min(1.0, drift / max(abs(1.0 - ratio), 1e-3))
    return remainder, uncertainty, False


def _radial_integral(profile: Callable, tol: float) -> AdmissibilityReport:
    """integral profile(k) dk/k over (0, inf) with endpoint handling."""
    if not (0 < tol < math.inf):
        raise ValidationError(f"tolerance {tol} must be positive and finite")
    prev_total = None
    decades = None
    quad_err = np.inf
    for ppd in (2, 4, 8, 16, 32):
        decades = _decade_sums(profile, ppd)
        total = decades.sum()
        if prev_total is not None:
            quad_err = abs(total - prev_total)
            if quad_err <= 0.1 * tol * max(abs(total), 1e-300):
                break
        prev_total = total
    total = decades.sum()
    scale = max(abs(total), float(np.max(np.abs(decades))), 1e-300)

    lo_rem, lo_unc, lo_div = _endpoint(decades, scale)
    hi_rem, hi_unc, hi_div = _endpoint(decades[::-1], scale)
    if lo_div or hi_div:
        reason = "origin" if lo_div else "tail"
        return AdmissibilityReport(total, False, math.inf, reason)

    value = total + lo_rem + hi_rem
    err = (quad_err + lo_unc + hi_unc) / max(abs(value), 1e-300)
    if not np.isfinite(err) or err > tol:
        return AdmissibilityReport(value, False, float(err), "tolerance")
    return AdmissibilityReport(value, True, float(err))


def _angular_profile(pair: Callable, wavelet: PhysicalWavelet, n_polar: int, n_azimuth: int):
    """S(k) = angular integral of ``pair`` over directions, adapted to symmetry.

    ``pair(kx, ky, kz)`` must return the pointwise spectral integrand (e.g.
    |PHI|^2 or conj(PSI) CHI), vectorized.  The directions are
    :func:`~wavecwt.quadrature._sphere_rule`'s, polar-major, about the
    wavelet's axis ``e`` with azimuth 0 on ``_tilt_axis(e)``.  The symmetry
    sets the counts alone: a spherical wavelet takes one direction of weight
    4 pi (``d^3k / |k|^3 = (dk/k) dOmega``, so the profile is the solid angle
    times the pair), an axial one ``n_polar`` at azimuth 0, a wavelet
    without symmetry ``n_azimuth x n_polar``.
    """
    counts = {"spherical": (1, 1), "axial": (1, n_polar)}
    phi, mu, weights = _sphere_rule(*counts.get(wavelet.symmetry, (n_azimuth, n_polar)))
    axis = np.asarray(wavelet.axis, dtype=float)
    e1 = _tilt_axis(axis)
    e2 = np.cross(axis, e1)
    sin_t = np.sqrt(1.0 - mu**2)
    dirs = (mu[:, None, None] * axis + (sin_t[:, None] * np.cos(phi))[:, :, None] * e1
            + (sin_t[:, None] * np.sin(phi))[:, :, None] * e2).reshape(-1, 3)
    wts = weights.T.ravel()

    def profile(k):
        return np.tensordot(wts, pair(*(np.multiply.outer(d, k) for d in dirs.T)), axes=(0, 0))

    return profile


def _constant(pair, wavelet, tol):
    """Radial-and-angular quadrature of integral pair / |k|^3 d^3k."""
    report = None
    prev = None
    for n_polar, n_azimuth in ((16, 16), (32, 32), (64, 64)):
        profile = _angular_profile(pair, wavelet, n_polar, n_azimuth)
        report = _radial_integral(profile, tol)
        if not report.converged:
            return report
        if wavelet.symmetry == "spherical":
            return report
        if prev is not None:
            ang_err = abs(report.constant - prev) / max(abs(report.constant), 1e-300)
            if ang_err <= tol:
                return AdmissibilityReport(
                    report.constant, True, float(report.error_estimate + ang_err)
                )
        prev = report.constant
    return AdmissibilityReport(report.constant, False, math.inf, "tolerance")


def admissibility_constant(wavelet: PhysicalWavelet, tol: float = 1e-8) -> AdmissibilityReport:
    """C = integral |PHI(k)|^2 / |k|^3 d^3k for one wavelet.

    Divergence at either radial end is detected and reported, never silently
    truncated.  The returned constant is real for this same-wavelet case.
    """
    report = _constant(_power(wavelet), wavelet, tol)
    return replace(report, constant=report.value)


def _power(wavelet: PhysicalWavelet):
    """``pair(kx, ky, kz) = |PHI|^2``: the integrand of the constant and of the dilation window."""
    return lambda kx, ky, kz: np.abs(wavelet.spectral(kx, ky, kz)) ** 2


def suggest_dilation_range(wavelet: PhysicalWavelet, k_lo: float,
                           k_hi: float) -> Tuple[float, float]:
    """Dilation window so the rescaled spectrum covers the occupied band.

    The admissibility integrand in log radius is scale invariant, so the
    dilation sweep at a fixed wave vector reproduces the full constant
    exactly when a ranges over (0, inf).  This picks the log-radius window
    holding 99.9% of that mass, on the constant's radial range, and maps
    its ends onto the band, whose edges must be positive finite numbers
    with ``k_lo < k_hi``.
    """
    k_lo = _positive_finite(k_lo, "band edge k_lo")
    k_hi = _positive_finite(k_hi, "band edge k_hi")
    if not k_lo < k_hi:
        raise ValidationError("need 0 < k_lo < k_hi")
    profile = _angular_profile(_power(wavelet), wavelet, 32, 32)
    t = np.linspace(np.log(RADIAL_LO), np.log(RADIAL_HI), 1600)
    mass = np.real(profile(np.exp(t)))
    cum = np.cumsum(mass)
    if cum[-1] <= 0:
        raise ValidationError("wavelet spectrum carries no mass on the probed range")
    cum /= cum[-1]
    tail = 0.5 * (1.0 - 0.999)  # half the 0.1% of the mass outside the window
    q_lo = float(np.exp(t[np.searchsorted(cum, tail)]))
    q_hi = float(np.exp(t[min(np.searchsorted(cum, 1.0 - tail), len(t) - 1)]))
    return q_lo / k_hi, q_hi / k_lo


def admissibility_constant_from_proxy(proxy: ProxyWavelet, c: float = 1.0,
                                      tol: float = 1e-8) -> AdmissibilityReport:
    """Spherical-construction constant straight from the proxy spectrum.

    C = (pi / c^4) integral_0^inf |P(k)|^2 / k^3 dk; agrees with
    :func:`admissibility_constant` of the built wavelet whenever both converge.
    """
    if proxy.spectrum is None:
        raise ValidationError("proxy admissibility needs the proxy spectrum")
    if not proxy.progressive:
        raise ValidationError("proxy admissibility is defined for progressive proxies")
    spectrum = proxy.spectrum

    def profile(k):
        # dk/k panel measure leaves |P|^2/k^2
        return np.pi / c**4 * np.abs(spectrum(k)) ** 2 / k**2

    report = _radial_integral(profile, tol)
    return replace(report, constant=report.value)


def cross_admissibility_constant(first: PhysicalWavelet, second: PhysicalWavelet,
                                 tol: float = 1e-8) -> AdmissibilityReport:
    """C = integral conj(PHI_1) PHI_2 / |k|^3 d^3k for an analysis/synthesis pair."""
    if first.sign != second.sign:
        raise ValidationError("cross admissibility needs matching frequency tags")
    f, s = first.spectral, second.spectral

    def pair(kx, ky, kz):
        return np.conj(f(kx, ky, kz)) * s(kx, ky, kz)

    carrier = first if first.symmetry != "spherical" else second
    return _constant(pair, carrier, tol)


def bessel_k(order: int, x: float) -> float:
    """Modified Bessel function of the second kind by its integral form.

    K_n(x) = integral_0^inf exp(-x cosh s) cosh(n s) ds, evaluated with
    composite Gauss-Legendre panels on a doubly-exponentially decaying
    integrand.  Accurate to better than 1e-10 relative for n <= 8 and
    x in [0.5, 20].
    """
    if order < 0 or int(order) != order:
        raise ValidationError(f"order must be a nonnegative integer, got {order}")
    if not (x > 0):
        raise ValidationError(f"bessel_k needs x > 0, got {x}")
    # truncate where x cosh(s) - n s exceeds the exp underflow threshold
    s_max = math.acosh((760.0 + 40.0) / x) + 1.0 if x < 760.0 else 1.0
    s, w = _panels(np.linspace(0.0, s_max, max(24, int(4 * s_max)) + 1), 16)
    y = order * s
    log_cosh = np.abs(y) + np.log1p(np.exp(-2.0 * np.abs(y))) - math.log(2.0)
    expo = -x * np.cosh(s) + log_cosh
    keep = expo > -745.0
    return float(np.sum(w[keep] * np.exp(expo[keep])))
