"""Reconstruction of solutions from wavelet coefficients, and the wavelet IVP.

Synthesis accumulates in the spectral domain: each (a, rotation) slice
contributes ``weight * a^{3/2} PHI(a R^T k) * FFT_b[U]`` to a running t = 0
spectrum; the time dependence is one global carrier exp(-/+ i|k|ct) applied
at the end, because the family's t/a dilation combines with the rescaled
spectrum's carrier into exactly that factor.  Reconstruction at time t is
therefore the propagation of the reconstructed t = 0 spectrum.

Analysis followed by synthesis never needs the coefficients: ``project`` and
``solve_ivp`` multiply the data spectra by the resolution kernel of
:func:`wavecwt.cwt.resolution_kernel`, with no transform per slice.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .cwt import (
    ParameterGrid,
    WaveletCoefficients,
    _batched_fft,
    _map_ordered,
    _require_constant,
    _rotated_spectra,
    default_thread_count,
    resolution_kernel,
)
from .errors import GridMismatchError, ValidationError
from .fields import ComplexField3, SpectralField3, fft3, ifft3
from .wavelets import PhysicalWavelet

__all__ = [
    "reconstruct",
    "reconstruct_cross",
    "reconstruct_spectrum",
    "project",
    "solve_ivp",
]


def _carrier(grid, c: float, t: float, sign: str) -> np.ndarray:
    s = -1.0 if sign == "plus" else +1.0
    return np.exp(s * 1j * c * t * grid.k_mag())


def reconstruct_spectrum(U: WaveletCoefficients, wavelet: PhysicalWavelet,
                         threads: Optional[int] = None) -> SpectralField3:
    """t = 0 spectrum of ``(1/C) integral dmu U(nu) phi^nu``.

    One forward transform per slice; the synthesis wavelet must carry the
    coefficients' sign tag.
    """
    if wavelet.sign != U.sign:
        raise ValidationError(f"synthesis wavelet sign {wavelet.sign!r} != coefficients {U.sign!r}")
    if abs(U.constant) == 0.0:
        raise ValidationError("synthesis constant is zero")
    if not U.nu_grid.compatible_with(wavelet):
        raise ValidationError("parameter grid was built for a different wavelet symmetry/axis")
    threads = threads or default_thread_count()
    g = U.nu_grid
    grid = g.field_grid
    k_stack = grid.k_stack()
    scale = g.a_nodes**1.5

    def one_rotation(idx):
        slab = _batched_fft(U.values[:, idx][:, None], grid)  # (n_a, 1, nz, ny, nx)
        slab = slab.reshape(g.n_a, -1)
        spectra = _rotated_spectra(wavelet, k_stack, g.a_nodes, g.rotations[idx])
        spectra *= slab
        weights = g.rotation_weights[idx] * g.a_weights * scale
        return weights @ spectra

    acc = np.zeros(grid.node_count, dtype=np.complex128)
    for term in _map_ordered(one_rotation, range(g.n_rotations), threads):
        acc += term
    acc /= U.constant * g.constant_factor
    return SpectralField3(grid, acc.reshape(grid.shape))


def reconstruct(U: WaveletCoefficients, wavelet: PhysicalWavelet, t: float,
                threads: Optional[int] = None) -> ComplexField3:
    """Field snapshot of the reconstruction at time t."""
    spec = reconstruct_spectrum(U, wavelet, threads)
    grid = spec.grid
    values = spec.values * _carrier(grid, wavelet.c, t, U.sign)
    return ifft3(SpectralField3(grid, values))


def reconstruct_cross(U: WaveletCoefficients, synthesis_wavelet: PhysicalWavelet,
                      cross_constant: complex, t: float,
                      threads: Optional[int] = None) -> ComplexField3:
    """Two-wavelet reconstruction: analyze with one wavelet, build with another.

    ``cross_constant`` is the mixed admissibility integral of the analysis
    and synthesis spectra; it replaces the single-wavelet constant.
    """
    if abs(cross_constant) == 0.0:
        raise ValidationError("cross constant is zero; the pair cannot reconstruct")
    swapped = WaveletCoefficients(U.nu_grid, U.values, U.sign, complex(cross_constant),
                                  U.wavelet_name, U.wavelet_params)
    return reconstruct(swapped, synthesis_wavelet, t, threads)


def project(s_part: SpectralField3, wavelet: PhysicalWavelet, nu_grid: ParameterGrid,
            constant: Optional[complex] = None, tol: float = 1e-8,
            threads: Optional[int] = None) -> SpectralField3:
    """Analysis followed by synthesis, returning the t = 0 spectrum.

    Equivalent to ``reconstruct_spectrum(analyze(...), ...)``: the spectrum
    times the resolution kernel over ``Re C * constant_factor``, evaluated
    where the spectrum is nonzero, so no coefficient is ever formed.
    Converges to the identity on the band the parameter grid covers.
    """
    if wavelet.sign not in ("plus", "minus"):
        raise ValidationError("bad wavelet sign")
    if s_part.grid != nu_grid.field_grid:
        raise GridMismatchError("field grid of data and parameter grid differ")
    if not nu_grid.compatible_with(wavelet):
        raise ValidationError("parameter grid was built for a different wavelet symmetry/axis")
    constant = _require_constant(wavelet, constant, tol)
    u_hat = s_part.values.ravel()
    kernel = resolution_kernel(wavelet, nu_grid, u_hat != 0, threads)
    kernel /= np.real(constant) * nu_grid.constant_factor
    return SpectralField3(s_part.grid, (u_hat * kernel).reshape(s_part.grid.shape))


def solve_ivp(w: ComplexField3, v: ComplexField3, wavelet_plus: PhysicalWavelet,
              wavelet_minus: PhysicalWavelet, nu_grid: ParameterGrid, t: float,
              constants: Optional[Tuple[complex, complex]] = None, tol: float = 1e-8,
              threads: Optional[int] = None) -> ComplexField3:
    """Wavelet-route solution of the initial-value problem at time t.

    Coefficients are the printed combination ``U = W/2 -/+ (a/2) V`` of the
    initial-data transforms (W against each wavelet, V against its
    time-antiderivative partner); both sign branches are synthesized and the
    sum returned.  Per sign this is one resolution kernel K times
    ``w_hat/2 -/+ v_hat / (2 i c |k|)`` (zero velocity term at k = 0) under
    the sign's carrier.  At t = 0 this approximates the initial field, and
    its centred time derivative approximates the initial velocity.
    """
    if w.grid != v.grid:
        raise GridMismatchError("initial data must share one grid")
    if w.grid != nu_grid.field_grid:
        raise GridMismatchError("field grid of data and parameter grid differ")
    if wavelet_plus.sign != "plus" or wavelet_minus.sign != "minus":
        raise ValidationError("solve_ivp needs a (plus, minus) wavelet pair")
    if wavelet_plus.c != wavelet_minus.c:
        raise ValidationError("wavelet pair must share one wave speed")
    for wav in (wavelet_plus, wavelet_minus):
        if not nu_grid.compatible_with(wav):
            raise ValidationError("parameter grid incompatible with the wavelet pair")
    c_plus = _require_constant(wavelet_plus, constants[0] if constants else None, tol)
    c_minus = _require_constant(wavelet_minus, constants[1] if constants else None, tol)

    grid = nu_grid.field_grid
    c = wavelet_plus.c
    k_mag = grid.k_mag().ravel()
    w_hat = fft3(w).values.ravel()
    v_hat = fft3(v).values.ravel()
    v_term = np.zeros_like(v_hat)
    np.divide(v_hat, 1j * c * k_mag, out=v_term, where=k_mag > 0)
    support = (w_hat != 0) | (v_hat != 0)

    total = np.zeros(grid.node_count, dtype=np.complex128)
    for wav, constant, sgn in ((wavelet_plus, c_plus, -1.0), (wavelet_minus, c_minus, +1.0)):
        kernel = resolution_kernel(wav, nu_grid, support, threads)
        acc = kernel * (0.5 * w_hat + (sgn * 0.5) * v_term)
        acc /= constant * nu_grid.constant_factor
        total += acc * _carrier(grid, c, t, wav.sign).ravel()
    return ifft3(SpectralField3(grid, total.reshape(grid.shape)))
