"""Uniform grids, position/spectral fields and the Fourier-side propagator.

Conventions
-----------
Arrays are stored with shape ``(nz, ny, nx)`` so that the C-order linear
index is ``(iz*ny + iy)*nx + ix`` (x fastest).  Node ``(ix, iy, iz)`` sits at
``origin + (ix*hx, iy*hy, iz*hz)``.

The transforms approximate the continuum pair

    F(k) = integral d^3r f(r) exp(-i k.r)
    f(r) = (2 pi)^-3 integral d^3k F(k) exp(+i k.r)

by scaling the discrete FFT with the cell volume and applying the phase shift
for a non-zero grid origin.  With this scaling the L2 pairing satisfies
``<f, g> = (2 pi)^-3 <F, G>`` to round-off (see :func:`inner_product`).
:func:`fft3`/:func:`ifft3` are each the composition of two halves, both of
which act on the trailing ``grid.shape`` axes of an array with any leading
batch axes: the bare lattice FFT (``_lattice_fft``/``_lattice_ifft``, which
may write into an ``out`` array, in place included) and the diagonal
k-factor of origin phase and cell volume (``_forward_factor``/
``_inverse_factor``, applied as three separable per-axis factors, never as a
lattice-sized factor array).  The factor does not depend on any wavelet
parameter, so routes that transform many slices of one spectrum apply it
once per call and run only the bare FFT per slice.  ``_pruned_ifft`` is the
bare inverse transform for data that vanish off a support: it runs
``ifftn``'s three one-axis passes (x, then y, then z) only on the lines that
can hold nonzeros, taken from the runs of the support's projections on z
and y (``_support_runs``), and gives ``_lattice_ifft``'s bytes.  No other
module calls ``numpy.fft``.

Every time derivative divides a spectrum by |k|, which needs a rule at
k = 0.  ``_radius`` is the one place that forms |k|, its ``|k| > 0`` mask
and the safe divisor ``|k| or 1``; the operations that divide by |k| store
0 at k = 0.

A solution of ``u_tt = c^2 Lap(u)`` is stored as the pair of frequency-sign
spectral parts: the "plus" part evolves with ``exp(-i|k|ct)`` and the "minus"
part with ``exp(+i|k|ct)``.
"""

from __future__ import annotations

import numbers
import operator
import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import GridMismatchError, NonFiniteFieldError, ValidationError

__all__ = [
    "Grid3",
    "ComplexField3",
    "SpectralField3",
    "SolutionSpectrum",
    "fft3",
    "ifft3",
    "inner_product",
    "spectral_inner_product",
    "norm",
    "propagate",
    "split_ivp",
]


def _positive_finite(x, what: str) -> float:
    """``x`` as a float; :class:`ValidationError` unless a real number with 0 < x < inf.

    The one check of a wave speed, lattice spacing, dilation or time step;
    ``what`` names the quantity in the message.  A bool is not a number.
    """
    try:
        if not isinstance(x, bool) and isinstance(x, numbers.Real) and 0 < float(x) < np.inf:
            return float(x)
    except OverflowError:  # an int past the float range, whose repr may be past the digit limit
        x = "an integer past the float range"
    raise ValidationError(f"{what}={x!r} must be a positive finite number")


def _integer(n, least: int):
    """``n`` as an int if it is an integer of at least ``least``, else None.

    The one integer rule of counts (grid sizes, parameter-grid nodes):
    ``operator.index`` must take it, so numpy integers are integers and a
    float such as 16.0 is not, and a bool is not one either.
    """
    try:
        return None if isinstance(n, bool) or operator.index(n) < least else operator.index(n)
    except TypeError:
        return None


def _check_sizes(**sizes) -> None:
    """Refuse a count that is not an even integer >= 8 (:func:`_integer`)."""
    for name, n in sizes.items():
        if _integer(n, 8) is None or n % 2:
            raise ValidationError(f"{name}={n}: grid sizes must be even integers >= 8")


@dataclass(frozen=True)
class Grid3:
    """Uniform 3-D sampling lattice.

    n_x, n_y, n_z   samples per axis (even, >= 8)
    h_x, h_y, h_z   spacing per axis (positive finite, stored as given)
    origin          coordinate of node (0, 0, 0), finite
    """

    n_x: int
    n_y: int
    n_z: int
    h_x: float
    h_y: float
    h_z: float
    origin: Tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        _check_sizes(n_x=self.n_x, n_y=self.n_y, n_z=self.n_z)
        for name, h in (("h_x", self.h_x), ("h_y", self.h_y), ("h_z", self.h_z)):
            _positive_finite(h, f"spacing {name}")
        origin = tuple(float(v) for v in self.origin)
        if len(origin) != 3 or not np.isfinite(origin).all():
            raise ValidationError(f"origin={self.origin!r} must be a finite 3-vector")
        object.__setattr__(self, "origin", origin)

    @classmethod
    def cubic(cls, n: int, extent: float) -> "Grid3":
        """Cube with ``n`` samples per axis spanning ``extent`` length units, centred."""
        return cls.box(n, (extent,) * 3)

    @classmethod
    def box(cls, n: int, extents: Tuple[float, float, float]) -> "Grid3":
        """``n`` samples per axis spanning ``extents``, centred on the origin."""
        _check_sizes(n=n)
        hx, hy, hz = (e / n for e in extents)
        return cls(n, n, n, hx, hy, hz, tuple(-e / 2.0 for e in extents))  # type: ignore[arg-type]

    @property
    def shape(self) -> Tuple[int, int, int]:
        """Array shape, z slowest."""
        return (self.n_z, self.n_y, self.n_x)

    @property
    def node_count(self) -> int:
        return self.n_x * self.n_y * self.n_z

    @property
    def cell_volume(self) -> float:
        return self.h_x * self.h_y * self.h_z

    def axes(self):
        """Per-axis coordinate arrays (x, y, z)."""
        ox, oy, oz = self.origin
        return (
            ox + self.h_x * np.arange(self.n_x),
            oy + self.h_y * np.arange(self.n_y),
            oz + self.h_z * np.arange(self.n_z),
        )

    def mesh(self):
        """Position meshes X, Y, Z with shape ``self.shape``."""
        x, y, z = self.axes()
        Z, Y, X = np.meshgrid(z, y, x, indexing="ij")
        return X, Y, Z

    def k_axes(self):
        """Per-axis angular wavenumber arrays in FFT order."""
        return (
            2.0 * np.pi * np.fft.fftfreq(self.n_x, self.h_x),
            2.0 * np.pi * np.fft.fftfreq(self.n_y, self.h_y),
            2.0 * np.pi * np.fft.fftfreq(self.n_z, self.h_z),
        )

    def k_mesh(self):
        """Wave-vector meshes KX, KY, KZ with shape ``self.shape``."""
        kx, ky, kz = self.k_axes()
        KZ, KY, KX = np.meshgrid(kz, ky, kx, indexing="ij")
        return KX, KY, KZ

    def k_mag(self):
        return _radius(*self.k_mesh())[0]


def _radius(x, y, z):
    """``(r, r > 0, r or 1)`` for ``r = |(x, y, z)|``, elementwise.

    The third item is a safe divisor: 1 where ``r`` is 0.
    """
    r = np.sqrt(np.asarray(x) ** 2 + np.asarray(y) ** 2 + np.asarray(z) ** 2)
    positive = r > 0
    return r, positive, np.where(positive, r, 1.0)


def _check_values(grid: Grid3, values: np.ndarray, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=np.complex128)
    if values.shape != grid.shape:
        raise ValidationError(
            f"{what}: values shape {values.shape} does not match grid shape {grid.shape}"
        )
    bad = ~np.isfinite(values.view(np.float64))
    if bad.any():
        flat = int(np.flatnonzero(bad)[0]) // 2
        iz, iy, ix = np.unravel_index(flat, grid.shape)
        raise NonFiniteFieldError(
            f"{what}: non-finite sample at (ix={ix}, iy={iy}, iz={iz}) "
            f"linear index {(iz * grid.n_y + iy) * grid.n_x + ix}"
        )
    return values


@dataclass(frozen=True)
class ComplexField3:
    """Complex samples of a position-space field on a :class:`Grid3`."""

    grid: Grid3
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _check_values(self.grid, self.values, "ComplexField3"))


@dataclass(frozen=True)
class SpectralField3:
    """Complex samples on the dual wave-vector lattice of a :class:`Grid3`.

    The k = 0 sample is stored like any other; operations that divide by |k|
    state how they treat it.
    """

    grid: Grid3
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _check_values(self.grid, self.values, "SpectralField3"))


@dataclass(frozen=True)
class SolutionSpectrum:
    """A wave-equation solution stored as its two frequency-sign parts.

    ``plus`` evolves with exp(-i|k|ct), ``minus`` with exp(+i|k|ct); the
    wave speed ``c`` is a positive finite number.
    """

    plus: SpectralField3
    minus: SpectralField3
    c: float

    def __post_init__(self):
        if self.plus.grid != self.minus.grid:
            raise GridMismatchError("SolutionSpectrum parts must share one grid")
        _positive_finite(self.c, "wave speed c")

    @property
    def grid(self) -> Grid3:
        return self.plus.grid


def _origin_phase(grid: Grid3, sign: int) -> tuple:
    # separable exp(sign * i k.origin) factors, broadcastable to (..., nz, ny, nx)
    kx, ky, kz = grid.k_axes()
    ox, oy, oz = grid.origin
    px = np.exp(sign * 1j * kx * ox)
    py = np.exp(sign * 1j * ky * oy)[:, None]
    pz = np.exp(sign * 1j * kz * oz)[:, None, None]
    return px, py, pz


def _lattice_fft(values: np.ndarray, out=None) -> np.ndarray:
    """Bare forward FFT over the trailing three axes, into ``out`` when given."""
    return np.fft.fftn(values, axes=(-3, -2, -1), out=out)


def _lattice_ifft(values: np.ndarray, out=None) -> np.ndarray:
    """Bare inverse FFT over the trailing three axes, into ``out`` when given."""
    return np.fft.ifftn(values, axes=(-3, -2, -1), out=out)


def _runs(flags: np.ndarray) -> Tuple[slice, ...]:
    """The runs of True in a 1-D boolean array, as slices in increasing order."""
    edges = np.flatnonzero(np.diff(flags, prepend=False, append=False))
    return tuple(slice(int(lo), int(hi)) for lo, hi in zip(edges[::2], edges[1::2]))


def _support_runs(support: np.ndarray) -> Tuple[Tuple[slice, ...], Tuple[slice, ...]]:
    """``(z runs, y runs)``: the runs of a ``grid.shape`` mask's projections on z and y.

    The runs of :func:`_pruned_ifft`: every flagged node lies on an x line
    whose z index is in a z run and whose y index is in a y run.
    """
    return _runs(support.any(axis=(1, 2))), _runs(support.any(axis=(0, 2)))


def _pruned_ifft(cube: np.ndarray, runs) -> np.ndarray:
    """:func:`_lattice_ifft` of ``cube`` in place, for data zero off the lines of ``runs``.

    ``cube`` has ``grid.shape`` as its trailing axes and ``runs`` is
    :func:`_support_runs` of a mask holding its nonzero nodes.  The passes
    keep ``ifftn``'s axis order, x then y then z, and skip only lines that
    are zero: the x pass runs on the lines of the z runs' y runs, the y pass
    on the planes of the z runs, and the z pass on every line.  A zero line
    transforms to zeros, so the result is ``_lattice_ifft``'s, byte for byte.
    """
    z_runs, y_runs = runs
    for z in z_runs:
        for y in y_runs:
            lines = cube[..., z, y, :]
            np.fft.ifftn(lines, axes=(-1,), out=lines)
        planes = cube[..., z, :, :]
        np.fft.ifftn(planes, axes=(-2,), out=planes)
    return np.fft.ifftn(cube, axes=(-3,), out=cube)


def _forward_factor(spectrum: np.ndarray, grid: Grid3) -> np.ndarray:
    """Scale a bare forward transform in place by ``cell_volume * exp(-i k.origin)``.

    ``spectrum`` has ``grid.shape`` as its trailing axes; it is returned.
    """
    px, py, pz = _origin_phase(grid, -1)
    spectrum *= grid.cell_volume
    spectrum *= px
    spectrum *= py
    spectrum *= pz
    return spectrum


def _inverse_factor(spectrum: np.ndarray, grid: Grid3) -> np.ndarray:
    """``spectrum * exp(+i k.origin) / cell_volume`` as a new array.

    The bare inverse transform of the result is :func:`ifft3` of ``spectrum``.
    """
    px, py, pz = _origin_phase(grid, +1)
    out = spectrum * px
    out *= py
    out *= pz
    out /= grid.cell_volume
    return out


def fft3(f: ComplexField3) -> SpectralField3:
    """Forward transform with the continuum scaling described in the module docstring."""
    return SpectralField3(f.grid, _forward_factor(_lattice_fft(f.values), f.grid))


def ifft3(F: SpectralField3) -> ComplexField3:
    """Inverse of :func:`fft3`, including origin phase and ``(2 pi)^-3`` factor."""
    scaled = _inverse_factor(F.values, F.grid)
    return ComplexField3(F.grid, _lattice_ifft(scaled, out=scaled))


def _pairing(f: np.ndarray, g: np.ndarray) -> complex:
    """``sum f conj(g)`` by an elementwise reduction, ``sum re^2 + im^2`` when ``f is g``.

    ``np.vdot`` would hand the sum to BLAS, whose thread pool then spins idle
    beside the caller.
    """
    if f is g:
        return complex(np.sum(f.real * f.real + f.imag * f.imag))
    return complex(np.sum(f * np.conj(g)))


def inner_product(f: ComplexField3, g: ComplexField3) -> complex:
    """L2 pairing ``sum f conj(g) * cell_volume`` (linear in the first slot)."""
    if f.grid != g.grid:
        raise GridMismatchError("inner_product requires fields on one grid")
    return _pairing(f.values, g.values) * f.grid.cell_volume


def spectral_inner_product(F: SpectralField3, G: SpectralField3) -> complex:
    """Spectral-side pairing ``(2 pi)^-3 integral F conj(G) d^3k`` on the lattice."""
    if F.grid != G.grid:
        raise GridMismatchError("spectral_inner_product requires fields on one grid")
    g = F.grid
    return _pairing(F.values, G.values) / (g.node_count * g.cell_volume)


def norm(f) -> float:
    """L2 norm of a position or spectral field under its natural pairing."""
    if isinstance(f, ComplexField3):
        return float(np.sqrt(abs(inner_product(f, f))))
    if isinstance(f, SpectralField3):
        return float(np.sqrt(abs(spectral_inner_product(f, f))))
    raise ValidationError(f"norm: unsupported type {type(f)!r}")


def propagate(s: SolutionSpectrum, t: float) -> ComplexField3:
    """Field snapshot ``ifft3(plus * exp(-i|k|ct) + minus * exp(+i|k|ct))``.

    The minus carrier is the conjugate of the plus one, bit for bit.
    """
    g = s.grid
    if t == 0.0:
        total = s.plus.values + s.minus.values
    else:
        carrier = np.exp(-1j * (s.c * t * g.k_mag()))
        total = s.plus.values * carrier
        total += s.minus.values * np.conj(carrier)
    return ifft3(SpectralField3(g, total))


# Relative size of the k=0 velocity amplitude above which split_ivp warns
# that the zeroed bin actually carried data.  Truncation-level DC mass in
# otherwise mean-free data stays below this.
_DC_WARN_REL = 1e-6


def split_ivp(w: ComplexField3, v: ComplexField3, c: float) -> SolutionSpectrum:
    """Split initial data ``u(.,0) = w``, ``u_t(.,0) = v`` into sign parts.

    Implements ``plus/minus = (W -/+ V/(i c |k|)) / 2`` where W, V are the
    transforms of w and v.  The k = 0 bin of the ``V/|k|`` term is set to
    zero; if V(0) is not negligible a RuntimeWarning is emitted, since the
    constant-velocity mode cannot be represented on the lattice.  ``c`` must
    be a positive finite number, checked before any transform.
    """
    if w.grid != v.grid:
        raise GridMismatchError("split_ivp requires w and v on one grid")
    _positive_finite(c, "wave speed c")
    g = w.grid
    W = fft3(w).values
    V = fft3(v).values

    _, positive, kmag_safe = _radius(*g.k_mesh())
    correction = V / (1j * c * kmag_safe)
    correction[~positive] = 0.0

    v_scale = np.max(np.abs(V))
    dc = abs(V[0, 0, 0])
    if v_scale > 0 and dc > _DC_WARN_REL * v_scale:
        warnings.warn(
            f"split_ivp: velocity spectrum has |V(0)| = {dc:.3e} "
            f"({dc / v_scale:.2e} of peak); the k=0 bin of V/|k| was zeroed",
            RuntimeWarning, stacklevel=2)

    plus = 0.5 * (W - correction)
    minus = 0.5 * (W + correction)
    return SolutionSpectrum(SpectralField3(g, plus), SpectralField3(g, minus), c)


def solution_from_plus(F: SpectralField3, c: float) -> SolutionSpectrum:
    """Wrap a pure positive-frequency spectrum as a solution."""
    zero = SpectralField3(F.grid, np.zeros(F.grid.shape, dtype=np.complex128))
    return SolutionSpectrum(F, zero, c)


def solution_from_minus(F: SpectralField3, c: float) -> SolutionSpectrum:
    """Wrap a pure negative-frequency spectrum as a solution."""
    zero = SpectralField3(F.grid, np.zeros(F.grid.shape, dtype=np.complex128))
    return SolutionSpectrum(zero, F, c)
