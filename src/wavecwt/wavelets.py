"""Physical-wavelet catalog.

A *physical wavelet* here is an exact solution of the 3-D wave equation used
as a mother wavelet.  It is stored by its frequency-sign tag plus a
closed-form spectral evaluator for the t = 0 data (and, where available, a
closed-form position evaluator).  A "plus" wavelet evolves with
``exp(-i|k|ct)``, a "minus" wavelet with ``exp(+i|k|ct)``.

Spherically symmetric wavelets are manufactured from a one-variable *proxy*
profile p(t) as the absorbed-minus-emitted point-source field

    phi(r, t) = [p(ct + |r|) - p(ct - |r|)] / (4 pi c^2 |r|),

whose exact spatial transform splits into the two frequency signs as

    PHI(k, t) = -P(|k|)/(2i|k|c^2) exp(+i|k|ct) + P(-|k|)/(2i|k|c^2) exp(-i|k|ct)

with P the 1-D transform of p.  A progressive proxy (P supported on xi > 0)
therefore yields a pure "minus" wavelet.

Axially localized wavelets come from the Bateman substitution: with
phase(r, t) = x - ct + y^2/(x + ct - i eps1) + z^2/(x + ct - i eps2),

    phi(r, t) = p(phase) / (sqrt(x + ct - i eps1) sqrt(x + ct - i eps2))

solves the wave equation for any progressive proxy, and its transform is

    PHI(k, t) = i pi P((kx + |k|)/2) / |k|
                * exp(-i|k|ct - (ky^2 eps1 + kz^2 eps2) / (2 (kx + |k|))).

All square roots and complex powers use the principal branch, whose real
part is positive for every argument arising above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .errors import EvaluatorMissingError, ValidationError
from .fields import (ComplexField3, SpectralField3, _positive_finite, _radius, _square,
                     solution_from_minus, solution_from_plus)
from .quadrature import _panels

__all__ = [
    "ProxyWavelet",
    "PhysicalWavelet",
    "WaveletParams",
    "rotation_matrix",
    "family_position",
    "family_spectral",
    "spherical_from_proxy",
    "kaiser_wavelet",
    "exp_spherical_wavelet",
    "bateman_from_proxy",
    "gaussian_packet",
    "morlet_asymptote",
    "time_antiderivative_wavelet",
    "time_derivative_wavelet",
    "time_reverse",
    "exponential_proxy",
    "kaiser_proxy",
    "gaussian_packet_proxy",
    "CATALOG_NAMES",
    "make_wavelet",
]

# exponent below which exp() is treated as exactly zero (avoids 0 * inf)
_EXP_FLOOR = -700.0

# switch radius for the removable singularity of spherical position forms
_SMALL_RADIUS = 1e-4


def _principal_sqrt(z):
    return np.sqrt(np.asarray(z, dtype=np.complex128))


# ---------------------------------------------------------------------------
# proxies
# ---------------------------------------------------------------------------


def _quad_inverse_transform(spectrum, t):
    """(2 pi)^-1 integral_0^inf spectrum(xi) exp(i xi t) d xi by panel quadrature."""
    # log panels over [1e-8, 1] catch integrable endpoint behaviour,
    # unit-width linear panels over [1, 120] cover the decaying tail
    xi, w = _panels(np.concatenate([np.exp(np.linspace(np.log(1e-8), 0.0, 33)),
                                    np.arange(2.0, 121.0)]), 12)
    total = np.tensordot(spectrum(xi) * w, np.exp(1j * np.multiply.outer(xi, t)), axes=(0, 0))
    return total / (2.0 * np.pi)


@dataclass(frozen=True)
class ProxyWavelet:
    """One-variable time profile from which physical wavelets are built.

    time_profile        p(t), vectorized over complex/real t
    spectrum            P(xi) = integral p(t) exp(-i xi t) dt, vectorized
    progressive         True when P vanishes for xi < 0
    time_profile_prime  optional analytic p'(t), used for removable-singularity
                        limits; a Richardson difference of p is the fallback
    validate            run the Fourier-pair spot check on construction
    """

    time_profile: Optional[Callable] = None
    spectrum: Optional[Callable] = None
    progressive: bool = False
    time_profile_prime: Optional[Callable] = None
    validate: bool = True

    def __post_init__(self):
        if self.time_profile is None and self.spectrum is None:
            raise ValidationError("ProxyWavelet needs a time profile or a spectrum")
        if self.validate and self.time_profile is not None and self.spectrum is not None:
            self._spot_check()

    def _spot_check(self):
        # 32 random times, 1e-6 relative; only meaningful for progressive proxies,
        # where the one-sided quadrature reconstructs p; the catalog only uses those
        if not self.progressive:
            return
        rng = np.random.default_rng(1729)
        t = rng.uniform(-3.0, 3.0, 32)
        direct = np.asarray(self.time_profile(t), dtype=np.complex128)
        recon = _quad_inverse_transform(self.spectrum, t)
        scale = float(np.max(np.abs(direct)))
        if scale == 0.0:
            return
        err = float(np.max(np.abs(direct - recon))) / scale
        if err > 1e-6:
            raise ValidationError(
                f"proxy time profile and spectrum disagree (spot check error {err:.3e})"
            )

    def prime(self, t):
        """p'(t), analytic when supplied, else a fourth-order difference."""
        if self.time_profile_prime is not None:
            return self.time_profile_prime(t)
        if self.time_profile is None:
            raise EvaluatorMissingError("proxy has no time profile to differentiate")
        h = 1e-3
        p = self.time_profile
        return (8.0 * (p(t + h) - p(t - h)) - (p(t + 2 * h) - p(t - 2 * h))) / (12.0 * h)

    def third(self, t):
        """p'''(t) via a central second difference of p'."""
        h = 1e-2
        return (self.prime(t + h) - 2.0 * self.prime(t) + self.prime(t - h)) / h**2


def exponential_proxy(validate: bool = True) -> ProxyWavelet:
    """p(t) = exp(-2 sqrt(1 - i t)); P(xi) = 2 sqrt(pi) xi^-3/2 exp(-xi - 1/xi)."""
    return gaussian_packet_proxy(2.0, 1.0, validate)


def kaiser_proxy(alpha: float, validate: bool = True) -> ProxyWavelet:
    """p(t) = Gamma(a) / (pi (1 - i t)^a); P(xi) = 2 Theta(xi) xi^(a-1) exp(-xi).

    ``alpha`` is a positive finite number whose Gamma(alpha) is finite (below
    about 171.6).
    """
    try:
        g = math.gamma(_positive_finite(alpha, "kaiser alpha"))
    except OverflowError:
        raise ValidationError(f"kaiser alpha={alpha!r}: Gamma(alpha) overflows") from None

    def profile(t):
        return g / (np.pi * (1.0 - 1j * np.asarray(t)) ** alpha)

    def profile_prime(t):
        return 1j * alpha * g / (np.pi * (1.0 - 1j * np.asarray(t)) ** (alpha + 1.0))

    def spectrum(xi):
        xi = np.asarray(xi, dtype=float)
        pos = xi > 0
        xp = np.where(pos, xi, 1.0)
        return np.where(pos, 2.0 * xp ** (alpha - 1.0) * np.exp(-xp), 0.0)

    return ProxyWavelet(profile, spectrum, True, profile_prime, validate)


def gaussian_packet_proxy(p: float, gamma: float, validate: bool = True) -> ProxyWavelet:
    """p(t) = exp(-p sqrt(1 - i t / gamma)) and its one-sided spectrum.

    ``p`` and ``gamma`` are positive finite numbers, and so is ``p**2``.
    """
    _square(p, "packet p")
    _positive_finite(gamma, "packet gamma")

    def profile(t):
        return np.exp(-p * _principal_sqrt(1.0 - 1j * np.asarray(t) / gamma))

    def profile_prime(t):
        s = _principal_sqrt(1.0 - 1j * np.asarray(t) / gamma)
        return (0.5j * p / gamma) * np.exp(-p * s) / s

    amp = np.sqrt(np.pi) * p / np.sqrt(gamma)

    def spectrum(xi):
        xi = np.asarray(xi, dtype=float)
        xp = np.where(xi > 0, xi, 1.0)
        expo = -gamma * xp - p**2 / (4.0 * gamma * xp)
        ok = (xi > 0) & (expo > _EXP_FLOOR)
        vals = amp * xp**-1.5 * np.exp(np.where(ok, expo, 0.0))
        return np.where(ok, vals, 0.0)

    return ProxyWavelet(profile, spectrum, True, profile_prime, validate)


# ---------------------------------------------------------------------------
# wavelet and family types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhysicalWavelet:
    """Mother wavelet: an exact frequency-pure solution of the wave equation.

    sign      "plus" or "minus" frequency tag
    spectral  (KX, KY, KZ) -> complex t = 0 spectrum, finite for k != 0
    position  optional (X, Y, Z, t) -> complex field samples
    symmetry  "spherical" | "axial" | "none"
    axis      symmetry axis for "axial" wavelets (unit 3-vector)
    c         wave speed the closed forms were written for (positive finite)
    name      catalog name, "" for derived/ad-hoc wavelets
    params    catalog parameters as a sorted (key, value) tuple

    The "spherical" tag promises a radial spectrum, ``PHI(k) = f(|k|)``:
    its parameter grid has the identity as its only rotation, and the
    transforms evaluate ``spectral`` once per distinct |k| of the lattice
    instead of once per node.  Tag a wavelet "axial" or "none" when its
    spectrum is not radial.

    The "axial" tag promises ``PHI(Q q) = PHI(q)`` for every rotation ``Q``
    about ``axis`` and every ``q``: the spectrum depends on ``axis . q`` and
    ``|q|`` alone.  Its parameter grid sweeps two angles, and the resolution
    kernel tabulates the spectrum against the direction cosine on each |k|
    shell instead of evaluating it per node and rotation.  The Bateman
    constructions with ``eps1 == eps2`` carry it, as do the wavelets derived
    from them; tag a wavelet "none" when it has no such symmetry.

    ``spectral`` may carry a buffer form ``spectral.into(kx, ky, kz, *buffers)``:
    the same values written into the last of ``buffers``, arrays with the
    dtypes ``spectral.into.buffers``, which it returns.  Every argument is
    a writable array of one shape and may be overwritten.  The transforms
    evaluate such a wavelet in buffers each worker reuses from task to
    task; ``spectral`` itself then runs the buffer form on fresh arrays.
    """

    sign: str
    spectral: Callable
    position: Optional[Callable]
    symmetry: str
    c: float
    axis: Tuple[float, float, float] = (0.0, 0.0, 1.0)
    name: str = ""
    params: Tuple[Tuple[str, Union[float, str]], ...] = ()

    def __post_init__(self):
        if self.sign not in ("plus", "minus"):
            raise ValidationError(f"sign must be 'plus' or 'minus', got {self.sign!r}")
        if self.symmetry not in ("spherical", "axial", "none"):
            raise ValidationError(f"unknown symmetry tag {self.symmetry!r}")
        _positive_finite(self.c, "wave speed c")
        object.__setattr__(self, "axis", tuple(_unit_axis(self.axis)))

    def spectral_on_grid(self, grid):
        KX, KY, KZ = grid.k_mesh()
        return SpectralField3(grid, np.asarray(self.spectral(KX, KY, KZ), dtype=np.complex128))

    def position_on_grid(self, grid, t: float = 0.0):
        if self.position is None:
            raise EvaluatorMissingError(f"wavelet {self.name or '<anonymous>'} has no position form")
        X, Y, Z = grid.mesh()
        return ComplexField3(grid, np.asarray(self.position(X, Y, Z, t), dtype=np.complex128))

    def as_solution(self, grid):
        """Sample the t = 0 spectrum and wrap it as a one-sided solution."""
        F = self.spectral_on_grid(grid)
        wrap = solution_from_plus if self.sign == "plus" else solution_from_minus
        return wrap(F, self.c)


@dataclass(frozen=True)
class WaveletParams:
    """Similitude-group element: dilation a (positive finite), translation b, Euler angles."""

    a: float
    b: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    theta1: float = 0.0
    theta2: float = 0.0
    theta3: Optional[float] = None

    def __post_init__(self):
        _positive_finite(self.a, "dilation a")
        if len(self.b) != 3:
            raise ValidationError("translation b must be a 3-vector")
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        _check_angles(self.theta1, self.theta2, self.theta3)


def _ivp_pair(wavelet_plus: PhysicalWavelet, wavelet_minus: PhysicalWavelet, what: str) -> None:
    """Refuse an IVP's wavelets unless they are a (plus, minus) pair with one wave speed.

    ``what`` names the caller in the message.
    """
    if wavelet_plus.sign != "plus" or wavelet_minus.sign != "minus":
        raise ValidationError(f"{what} needs a (plus, minus) wavelet pair")
    if wavelet_plus.c != wavelet_minus.c:
        raise ValidationError(f"{what}: the wavelet pair must share one wave speed")


def _check_angles(theta1, theta2, theta3):
    if not (0.0 <= theta1 < 2.0 * np.pi):
        raise ValidationError(f"theta1={theta1} outside [0, 2 pi)")
    if not (0.0 <= theta2 <= np.pi):
        raise ValidationError(f"theta2={theta2} outside [0, pi]")
    if theta3 is not None and not (0.0 <= theta3 < 2.0 * np.pi):
        raise ValidationError(f"theta3={theta3} outside [0, 2 pi)")


def _rot_z(t):
    c, s = np.cos(t), np.sin(t)
    o, z = np.ones_like(c), np.zeros_like(c)
    return np.stack([c, -s, z, s, c, z, z, z, o], axis=-1).reshape(np.shape(t) + (3, 3))


def _rot_x(t):
    c, s = np.cos(t), np.sin(t)
    o, z = np.ones_like(c), np.zeros_like(c)
    return np.stack([o, z, z, z, c, -s, z, s, c], axis=-1).reshape(np.shape(t) + (3, 3))


def _unit_axis(axis) -> np.ndarray:
    """``axis`` scaled to unit length; :class:`ValidationError` unless a finite nonzero 3-vector.

    The one axis rule of wavelets, parameter grids and rotations.  A vector
    whose norm underflows to 0 is refused too.
    """
    ax = np.asarray(axis, dtype=float)
    if ax.shape != (3,) or not np.isfinite(ax).all() or np.linalg.norm(ax) == 0:
        raise ValidationError(f"axis {axis!r} must be a finite nonzero 3-vector")
    return ax / np.linalg.norm(ax)


def _tilt_axis(axis) -> np.ndarray:
    """Deterministic unit vector perpendicular to ``axis``.

    Chosen so that axis = z reproduces the x-axis tilt of the printed
    two-angle rotation.
    """
    ax = _unit_axis(axis)
    if abs(ax[2]) > 1.0 - 1e-12:
        return np.array([1.0, 0.0, 0.0])
    t = np.cross(np.array([0.0, 0.0, 1.0]), ax)
    return t / np.linalg.norm(t)


def rotation_matrix(theta1: float, theta2: float, theta3: Optional[float] = None) -> np.ndarray:
    """z-rotation(theta1) @ x-rotation(theta2) [@ z-rotation(theta3)]."""
    _check_angles(theta1, theta2, theta3)
    m = _rot_z(theta1) @ _rot_x(theta2)
    if theta3 is not None:
        m = m @ _rot_z(theta3)
    return m


def family_position(wavelet: PhysicalWavelet, nu: WaveletParams, x, y, z, t):
    """a^(-3/2) phi(M^-1 (r - b)/a, t/a) at the given sample points."""
    if wavelet.position is None:
        raise EvaluatorMissingError("family_position needs a position evaluator")
    m = rotation_matrix(nu.theta1, nu.theta2, nu.theta3)
    bx, by, bz = nu.b
    dx, dy, dz = np.asarray(x) - bx, np.asarray(y) - by, np.asarray(z) - bz
    # M^-1 = M^T for a rotation
    rx = (m[0, 0] * dx + m[1, 0] * dy + m[2, 0] * dz) / nu.a
    ry = (m[0, 1] * dx + m[1, 1] * dy + m[2, 1] * dz) / nu.a
    rz = (m[0, 2] * dx + m[1, 2] * dy + m[2, 2] * dz) / nu.a
    return nu.a**-1.5 * wavelet.position(rx, ry, rz, t / nu.a)


def family_spectral(wavelet: PhysicalWavelet, nu: WaveletParams, kx, ky, kz):
    """a^(3/2) exp(-i k.b) PHI(a M^-1 k) for the t = 0 spectrum."""
    m = rotation_matrix(nu.theta1, nu.theta2, nu.theta3)
    kx, ky, kz = np.asarray(kx), np.asarray(ky), np.asarray(kz)
    qx = nu.a * (m[0, 0] * kx + m[1, 0] * ky + m[2, 0] * kz)
    qy = nu.a * (m[0, 1] * kx + m[1, 1] * ky + m[2, 1] * kz)
    qz = nu.a * (m[0, 2] * kx + m[1, 2] * ky + m[2, 2] * kz)
    bx, by, bz = nu.b
    phase = np.exp(-1j * (kx * bx + ky * by + kz * bz))
    return nu.a**1.5 * phase * wavelet.spectral(qx, qy, qz)


# ---------------------------------------------------------------------------
# spherical constructions
# ---------------------------------------------------------------------------


def _spherical_position_factory(proxy: ProxyWavelet, c: float):
    def position(x, y, z, t):
        rho = _radius(x, y, z)[0]
        small = rho < _SMALL_RADIUS
        rho_safe = np.where(small, 1.0, rho)
        outer = proxy.time_profile(c * t + rho_safe)
        inner = proxy.time_profile(c * t - rho_safe)
        vals = (outer - inner) / (4.0 * np.pi * c**2 * rho_safe)
        if np.any(small):
            # two-term Taylor limit: [p'(ct) + p'''(ct) rho^2 / 6] / (2 pi c^2)
            lim = (proxy.prime(c * t) + proxy.third(c * t) * rho**2 / 6.0) / (2.0 * np.pi * c**2)
            vals = np.where(small, lim, vals)
        return vals

    return position


def spherical_from_proxy(proxy: ProxyWavelet, c: float = 1.0) -> PhysicalWavelet:
    """Absorbed-minus-emitted spherical wavelet of a progressive proxy.

    The result carries the "minus" tag: with the proxy spectrum one-sided, the
    exp(+i|k|ct) branch is the only nonzero one.  It has no name; name a
    custom wavelet with ``dataclasses.replace(w, name=..., params=...)``.
    """
    if not proxy.progressive:
        raise ValidationError(
            "spherical_from_proxy needs a progressive proxy; a two-sided proxy "
            "spectrum populates both frequency signs and is not a single wavelet"
        )
    if proxy.spectrum is None:
        raise EvaluatorMissingError("spherical_from_proxy needs the proxy spectrum")

    def spectral(kx, ky, kz):
        _, good, ks = _radius(kx, ky, kz)
        # minus branch coefficient: -P(|k|) / (2 i |k| c^2) = i P(|k|) / (2 |k| c^2)
        vals = 0.5j * proxy.spectrum(ks) / (ks * c**2)
        return np.where(good, vals, 0.0)

    position = None
    if proxy.time_profile is not None:
        position = _spherical_position_factory(proxy, c)

    return PhysicalWavelet("minus", spectral, position, "spherical", c)


def kaiser_wavelet(alpha: float, c: float = 1.0) -> PhysicalWavelet:
    """Spherical wavelet of the power-law proxy; admissible for alpha > 2.

    Spectrum i |k|^(alpha-2) exp(-|k|) / c^2 on the exp(+i|k|ct) branch, so it
    carries the "minus" tag like every progressive-proxy construction.
    :func:`kaiser_proxy` checks ``alpha``.
    """
    position = _spherical_position_factory(kaiser_proxy(alpha, validate=False), c)

    def spectral(kx, ky, kz):
        _, good, ks = _radius(kx, ky, kz)
        return np.where(good, 1j * ks ** (alpha - 2.0) * np.exp(-ks) / c**2, 0.0)

    # same values as spherical_from_proxy's spectrum, written in closed form
    return PhysicalWavelet("minus", spectral, position, "spherical", c,
                           name="kaiser", params=(("alpha", float(alpha)),))


def exp_spherical_wavelet(c: float = 1.0) -> PhysicalWavelet:
    """Exponentially localized spherical wavelet of the sqrt-exponential proxy.

    Spectrum i sqrt(pi) |k|^(-5/2) exp(-|k| - 1/|k|) / c^2; the essential zero
    at the origin gives it infinitely many vanishing moments.
    """
    position = _spherical_position_factory(exponential_proxy(validate=False), c)

    def spectral(kx, ky, kz):
        _, good, ks = _radius(kx, ky, kz)
        expo = -ks - 1.0 / ks
        ok = good & (expo > _EXP_FLOOR)
        kk = np.where(ok, ks, 1.0)
        vals = 1j * np.sqrt(np.pi) / c**2 * kk**-2.5 * np.exp(np.where(ok, expo, 0.0))
        return np.where(ok, vals, 0.0)

    return PhysicalWavelet("minus", spectral, position, "spherical", c,
                           name="exp-spherical", params=())


# ---------------------------------------------------------------------------
# Bateman constructions
# ---------------------------------------------------------------------------


def _bateman_phase(x, y, z, t, c, eps1, eps2):
    w1 = np.asarray(x) + c * t - 1j * eps1
    w2 = np.asarray(x) + c * t - 1j * eps2
    theta = np.asarray(x) - c * t + np.asarray(y) ** 2 / w1 + np.asarray(z) ** 2 / w2
    return w1, w2, theta


def bateman_from_proxy(proxy: ProxyWavelet, eps1: float, eps2: float,
                       c: float = 1.0) -> PhysicalWavelet:
    """Axially localized solution p(phase)/sqrt(w1 w2) of a progressive proxy.

    The transform rides the exp(-i|k|ct) carrier, so the tag is "plus".  On
    the half-line kx = -|k| the spectral value is defined as 0 (continuous
    extension for proxies whose spectrum has a root at the origin).  It has
    no name; name a custom wavelet with
    ``dataclasses.replace(w, name=..., params=...)``, as the catalog's
    "bateman" is named.
    """
    _positive_finite(eps1, "bateman eps1")
    _positive_finite(eps2, "bateman eps2")
    if not proxy.progressive:
        raise ValidationError("bateman construction needs a progressive proxy")
    if proxy.spectrum is None:
        raise EvaluatorMissingError("bateman construction needs the proxy spectrum")

    def spectral(kx, ky, kz):
        k, positive, ks = _radius(kx, ky, kz)
        s = kx + k
        good = positive & (s > 0)
        ss = np.where(good, s, 1.0)
        expo = -(np.asarray(ky) ** 2 * eps1 + np.asarray(kz) ** 2 * eps2) / (2.0 * ss)
        ok = good & (expo > _EXP_FLOOR)
        vals = 1j * np.pi * proxy.spectrum(ss / 2.0) / ks * np.exp(np.where(ok, expo, 0.0))
        return np.where(ok, vals, 0.0)

    position = None
    if proxy.time_profile is not None:

        def position(x, y, z, t):
            w1, w2, theta = _bateman_phase(x, y, z, t, c, eps1, eps2)
            return proxy.time_profile(theta) / (_principal_sqrt(w1) * _principal_sqrt(w2))

    symmetry = "axial" if eps1 == eps2 else "none"
    return PhysicalWavelet("plus", spectral, position, symmetry, c, axis=(1.0, 0.0, 0.0))


def gaussian_packet(p: float, gamma: float, eps1: float, eps2: float,
                    c: float = 1.0) -> PhysicalWavelet:
    """Exponentially localized packet moving along +x at speed c.

    Position form exp(-p sqrt(1 - i phase/gamma)) / sqrt(w1 w2), the Bateman
    construction of :func:`gaussian_packet_proxy`; the spectrum is written in
    closed form below (it vanishes, with all derivatives, on the half-line
    kx = -|k|).  The proxy checks ``p`` and ``gamma`` and
    :func:`bateman_from_proxy` checks ``eps1`` and ``eps2``.
    """
    proxy = gaussian_packet_proxy(p, gamma, validate=False)
    position = bateman_from_proxy(proxy, eps1, eps2, c).position

    amp0 = (2.0 * np.pi) ** 1.5 * p / np.sqrt(gamma)

    def into(kx, ky, kz, k, t, ok, flag, vals):
        # With k = |k|, s = kx + k, ks = k or 1, ss = s or 1 and
        #   expo = -gamma ss/2 - p^2/(2 gamma ss) - (ky^2 eps1 + kz^2 eps2)/(2 ss),
        # the value is 1j amp0 / (ks ss^1.5) exp(expo) where k > 0, s > 0 and
        # expo > _EXP_FLOOR, else 0.  Evaluated in place on five float buffers, two
        # masks and the complex output, with the operations and rounding of that
        # expression: numpy's complex quotient 1j amp0 / d has real part +0 and
        # imaginary part amp0 * (1 / d).  s, the (ky, kz) term and expo take the
        # places of kx, ky and kz after their last reads.
        s, yz, expo = kx, ky, kz
        np.square(kx, out=k)
        k += np.square(ky, out=t)
        k += np.square(kz, out=t)
        np.sqrt(k, out=k)
        np.add(kx, k, out=s)
        np.greater(s, 0.0, out=ok)
        ok &= np.greater(k, 0.0, out=flag)
        np.copyto(k, 1.0, where=np.logical_not(flag, out=flag))  # ks
        np.copyto(s, 1.0, where=np.logical_not(ok, out=flag))  # ss
        np.square(ky, out=yz)
        yz *= eps1
        np.square(kz, out=t)
        t *= eps2
        yz += t
        yz /= np.multiply(2.0, s, out=t)
        np.multiply(-gamma, s, out=expo)
        expo /= 2.0
        np.multiply(2.0 * gamma, s, out=t)
        expo -= np.divide(p**2, t, out=t)
        expo -= yz
        ok &= np.greater(expo, _EXP_FLOOR, out=flag)
        np.copyto(expo, 0.0, where=np.logical_not(ok, out=flag))
        np.exp(expo, out=expo)
        np.power(s, 1.5, out=t)
        t *= k
        # t leaves the normal range only for |k| below about 1e-123, where expo is under
        # _EXP_FLOOR for any usable p: the quotient's inf is discarded there, no error
        with np.errstate(over="ignore", divide="ignore"):
            if vals.shape:
                np.divide(1.0, t, out=t)
                t *= amp0
            else:  # all-scalar operands: the quotient is Python's, which divides once
                np.divide(amp0, t, out=t)
        t *= expo
        vals.fill(0.0)
        np.copyto(vals.imag, t, where=ok)
        return vals

    into.buffers = (np.float64,) * 2 + (np.bool_,) * 2 + (np.complex128,)

    def spectral(kx, ky, kz):
        shape = np.broadcast_shapes(np.shape(kx), np.shape(ky), np.shape(kz))
        kxyz = (np.array(np.broadcast_to(v, shape), dtype=float) for v in (kx, ky, kz))
        return into(*kxyz, *(np.empty(shape, dtype) for dtype in into.buffers))

    spectral.into = into

    symmetry = "axial" if eps1 == eps2 else "none"
    prm = (("eps1", float(eps1)), ("eps2", float(eps2)), ("gamma", float(gamma)), ("p", float(p)))
    return PhysicalWavelet("plus", spectral, position, symmetry, c,
                           axis=(1.0, 0.0, 0.0), name="gaussian-packet", params=prm)


def morlet_asymptote(p: float, gamma: float, eps1: float, eps2: float):
    """Large-p Gaussian-times-carrier limit of the packet at t = 0.

    Widths sx^2 = 4 gamma^2/p, sy^2 = gamma eps1/p, sz^2 = gamma eps2/p and
    carrier wavenumber p/(2 gamma); the overall constant is fixed by exact
    agreement with :func:`gaussian_packet` at the origin, which makes the
    limit a testable pointwise statement.  Each parameter is a positive
    finite number, and so is ``gamma**2``.
    """
    _positive_finite(p, "morlet p")
    _square(gamma, "morlet gamma")
    _positive_finite(eps1, "morlet eps1")
    _positive_finite(eps2, "morlet eps2")
    kappa = p / (2.0 * gamma)
    sx2 = 4.0 * gamma**2 / p
    sy2 = gamma * eps1 / p
    sz2 = gamma * eps2 / p
    prefactor = np.exp(-p) / (_principal_sqrt(-1j * eps1) * _principal_sqrt(-1j * eps2))

    def evaluate(x, y, z):
        x, y, z = np.asarray(x), np.asarray(y), np.asarray(z)
        return prefactor * np.exp(
            1j * kappa * x - x**2 / (2.0 * sx2) - y**2 / (2.0 * sy2) - z**2 / (2.0 * sz2)
        )

    return evaluate


# ---------------------------------------------------------------------------
# derived wavelets
# ---------------------------------------------------------------------------


def time_antiderivative_wavelet(wavelet: PhysicalWavelet) -> PhysicalWavelet:
    """Wavelet whose signed time derivative reproduces the input.

    Spectrally: divide by -i c |k| (zero stays zero).  Admissibility of the
    input makes the 1/|k| factor integrable.
    """
    base = wavelet.spectral
    c = wavelet.c

    def spectral(kx, ky, kz):
        _, good, ks = _radius(kx, ky, kz)
        return np.where(good, base(kx, ky, kz) / (-1j * c * ks), 0.0)

    return PhysicalWavelet(wavelet.sign, spectral, None, wavelet.symmetry, c,
                           axis=wavelet.axis)


def time_derivative_wavelet(wavelet: PhysicalWavelet) -> PhysicalWavelet:
    """Signed time derivative of the input; spectrally multiply by -i c |k|."""
    base = wavelet.spectral
    c = wavelet.c

    def spectral(kx, ky, kz):
        return -1j * c * _radius(kx, ky, kz)[0] * base(kx, ky, kz)

    return PhysicalWavelet(wavelet.sign, spectral, None, wavelet.symmetry, c,
                           axis=wavelet.axis)


def time_reverse(wavelet: PhysicalWavelet) -> PhysicalWavelet:
    """t -> -t: flips the frequency tag, keeps the stored t = 0 spectrum."""
    flipped = "minus" if wavelet.sign == "plus" else "plus"
    position = None
    if wavelet.position is not None:
        base_pos = wavelet.position

        def position(x, y, z, t):
            return base_pos(x, y, z, -t)

    return PhysicalWavelet(flipped, wavelet.spectral, position, wavelet.symmetry,
                           wavelet.c, axis=wavelet.axis,
                           name=wavelet.name, params=wavelet.params)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

CATALOG_NAMES = ("kaiser", "exp-spherical", "bateman", "gaussian-packet")

CATALOG_PARAMS = {
    "kaiser": "alpha (default 3)",
    "exp-spherical": "none",
    "bateman": "proxy in {exp, kaiser}, proxy_alpha (kaiser proxy only), eps1, eps2",
    "gaussian-packet": "p, gamma, eps1, eps2",
}


def make_wavelet(name: str, params: Optional[dict] = None, c: float = 1.0) -> PhysicalWavelet:
    """Build a catalog wavelet from its CLI-visible name and key=value params.

    A value is a number or the text of one, converted to float here; the
    constructors refuse what is not positive and finite.
    """
    params = dict(params or {})

    def take(key, default):
        value = params.pop(key, default)
        try:  # a bool is left to the constructor, which refuses it
            return value if isinstance(value, bool) else float(value)
        except (TypeError, ValueError):
            raise ValidationError(f"parameter {key}={value!r} is not a number") from None

    if name == "kaiser":
        w = kaiser_wavelet(take("alpha", 3.0), c)
    elif name == "exp-spherical":
        w = exp_spherical_wavelet(c)
    elif name == "bateman":
        proxy_name = str(params.pop("proxy", "exp"))
        if proxy_name == "exp":
            proxy = exponential_proxy(validate=False)
            pdesc = (("proxy", "exp"),)
        elif proxy_name == "kaiser":
            alpha = take("proxy_alpha", 3.0)
            proxy = kaiser_proxy(alpha, validate=False)
            pdesc = (("proxy", "kaiser"), ("proxy_alpha", alpha))
        else:
            raise ValidationError(f"unknown bateman proxy {proxy_name!r} (use exp or kaiser)")
        eps1 = take("eps1", 1.0)
        eps2 = take("eps2", 1.0)
        w = replace(bateman_from_proxy(proxy, eps1, eps2, c), name="bateman",
                    params=(("eps1", eps1), ("eps2", eps2)) + pdesc)
    elif name == "gaussian-packet":
        w = gaussian_packet(take("p", 40.0), take("gamma", 1.0),
                            take("eps1", 0.5), take("eps2", 0.5), c)
    else:
        raise ValidationError(f"unknown wavelet {name!r}; catalog: {', '.join(CATALOG_NAMES)}")
    if params:
        raise ValidationError(f"unused parameters for {name!r}: {sorted(params)}")
    return w
