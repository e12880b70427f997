"""Reconstruction of solutions from wavelet coefficients, and the wavelet IVP.

Synthesis accumulates in the spectral domain: each (a, rotation) slice
contributes ``weight * a^{3/2} PHI(a R^T k) * FFT_b[U]`` to a running t = 0
spectrum.  ``FFT_b`` is the bare lattice FFT; the Fourier layer's origin
phase and cell volume do not depend on (a, R), so they multiply the summed
spectrum once.  Where :mod:`wavecwt.orbits` groups the rotations into
orbits, ``PHI`` is evaluated once per orbit on the negation-closed lattice
and gathered for each of the orbit's rotations; that module states the
rules.  The family's t/a dilation combines with the rescaled spectrum's
carrier into one global factor exp(-/+ i|k|ct), so reconstruction at time
t is :func:`wavecwt.fields.propagate` of the reconstructed t = 0 spectrum.

Analysis followed by synthesis is a multiplier in k on each frequency-sign
part: :func:`project` multiplies a spectrum by the resolution kernel of
:func:`wavecwt.kernel.resolution_kernel`, with no transform per slice.  The
wavelet IVP is the Fourier IVP of :mod:`wavecwt.fields` with each sign part
projected first: ``solve_ivp = propagate o (project (+) project) o split_ivp``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .cwt import (
    ParameterGrid,
    WaveletCoefficients,
    _Workspace,
    _map_ordered,
    _require_constant,
    _require_memory,
    _lattice_points,
    _prechecked,
    _slice_tasks,
    _sweep,
    _working_set,
    _workspace_bytes,
)
from .errors import ValidationError
from .fields import (
    ComplexField3,
    SolutionSpectrum,
    SpectralField3,
    _forward_factor,
    _lattice_fft,
    propagate,
    solution_from_minus,
    solution_from_plus,
    split_ivp,
)
from .kernel import resolution_kernel
from .orbits import _closed_points, _closed_shape, _orbit_gathers, _orbits
from .wavelets import PhysicalWavelet, _ivp_pair

__all__ = [
    "reconstruct",
    "reconstruct_cross",
    "reconstruct_spectrum",
    "project",
    "solve_ivp",
]


def reconstruct_spectrum(U: WaveletCoefficients, wavelet: PhysicalWavelet,
                         threads: Optional[int] = None) -> SpectralField3:
    """t = 0 spectrum of ``(1/C) integral dmu U(nu) phi^nu``.

    One bare forward FFT per slice, in (orbit, dilation block) tasks (see
    :func:`~wavecwt.orbits._orbits`); each task returns its weighted sum over
    its dilations, rotation by rotation in orbit order, and the partial sums
    are added in task order, so the result does not depend on ``threads``.
    Where :func:`~wavecwt.orbits._orbits` gives maps, an orbit's task
    evaluates ``PHI`` for its representative alone, on the negation-closed
    lattice (:func:`~wavecwt.orbits._closed_points`), and every member's
    values, the representative's included, are those gathered at ``A k``
    (:func:`~wavecwt.orbits._gatherer`); such a task holds two lattice
    slabs per dilation, so its blocks hold half as many dilations.
    Otherwise the orbits are single rotations, evaluated on the lattice.
    The transform's k-factor is applied once, to the sum.  The synthesis
    wavelet must carry the coefficients' sign tag, and the constant must
    not be zero.  Coefficients backed by a WCF payload are read one block
    at a time into the worker's slab and transformed there, with the same
    result.  What the tasks hold beyond the coefficients (see
    :func:`~wavecwt.cwt._working_set`) is checked against physical memory
    first.
    """
    if wavelet.sign != U.sign:
        raise ValidationError(f"synthesis wavelet sign {wavelet.sign!r} != coefficients {U.sign!r}")
    if abs(U.constant) == 0.0:
        raise ValidationError("synthesis constant is zero")
    U.nu_grid.check_route(wavelet)
    g = U.nu_grid
    grid = g.field_grid
    orbits, maps = _orbits(g)
    gathered = maps is not None  # PHI on the closed lattice, gathered for every member
    closed = _closed_shape(grid)
    points = int(np.prod(closed)) if gathered else grid.node_count
    # per dilation a task holds its spectra, the FFT slab and, where it gathers, a member's
    # values; the sweep's workspace is counted on every point it is given (a bound on a
    # spherical wavelet's |k| shells)
    lattice_slabs = 2 if gathered else 1
    _require_memory(_working_set(g, threads, points, lattice_slabs,
                                 _workspace_bytes(wavelet, points), orbits),
                    "synthesis working set")
    # the points are the sweep's alone: a spherical sweep keeps only their |k| shells
    spectra = _sweep(wavelet, g,
                     _closed_points(grid) if gathered else _lattice_points(grid, slice(None)))
    gathers = _orbit_gathers(grid, maps or [])
    slabs = _Workspace(grid.node_count, (np.complex128,))  # each worker's FFT output
    members = _Workspace(grid.node_count, (np.complex128,))  # an orbit member's gathered values
    scale = g.a_nodes**1.5
    held = isinstance(U.values, np.ndarray)

    def one_block(task):
        orbit, rows = task
        phi = spectra(orbit[0], rows)
        (slab,) = slabs.rows(rows.stop - rows.start)
        cube = slab.reshape((-1,) + grid.shape)
        part = None
        for idx in orbit:
            values = phi
            if gathered:  # PHI gathered from the representative's on the closed lattice
                (values,) = members.rows(len(phi))
                gathers[idx](phi.reshape((-1,) + closed), values.reshape(cube.shape))
            block = U.values[rows, idx] if held else U.values.read((rows, idx), cube)
            _lattice_fft(block, out=cube)
            values *= slab
            weights = g.rotation_weights[idx] * g.a_weights[rows] * scale[rows]
            # real weights scale each row's real and imaginary parts; rows add up in order
            reals = values.view(np.float64)
            reals *= weights[:, None]
            share = values[0]
            for row in values[1:]:
                share += row
            if part is None:
                part = share.copy()
            else:
                part += share
        return part

    acc = sum(_map_ordered(one_block, _slice_tasks(g, lattice_slabs * grid.node_count, orbits),
                           threads))
    # the transform's k-factor does not depend on (a, R): applied once, to the sum
    acc = _forward_factor(acc.reshape(grid.shape), grid)
    acc /= U.constant * g.constant_factor
    return SpectralField3(grid, acc)


def reconstruct(U: WaveletCoefficients, wavelet: PhysicalWavelet, t: float,
                threads: Optional[int] = None) -> ComplexField3:
    """Field snapshot of the reconstruction at time t.

    The reconstructed t = 0 spectrum is one frequency-sign part of a
    solution, so the snapshot is its :func:`~wavecwt.fields.propagate`.
    """
    spec = reconstruct_spectrum(U, wavelet, threads)
    as_solution = solution_from_plus if U.sign == "plus" else solution_from_minus
    return propagate(as_solution(spec, wavelet.c), t)


def reconstruct_cross(U: WaveletCoefficients, synthesis_wavelet: PhysicalWavelet,
                      cross_constant: complex, t: float,
                      threads: Optional[int] = None) -> ComplexField3:
    """Two-wavelet reconstruction: analyze with one wavelet, build with another.

    ``cross_constant`` is the mixed admissibility integral of the analysis
    and synthesis spectra; it replaces the single-wavelet constant, and
    :func:`reconstruct_spectrum` refuses it when it is zero.
    """
    # U's values were checked when U was built: a second scan would read a payload again
    swapped = _prechecked(U.nu_grid, U.values, U.sign, complex(cross_constant), U.wavelet_name,
                          U.wavelet_params)
    return reconstruct(swapped, synthesis_wavelet, t, threads)


def project(s_part: SpectralField3, wavelet: PhysicalWavelet, nu_grid: ParameterGrid,
            constant: Optional[complex] = None,
            threads: Optional[int] = None) -> SpectralField3:
    """Analysis followed by synthesis, returning the t = 0 spectrum.

    Equivalent to ``reconstruct_spectrum(analyze(...), ...)``: the spectrum
    times the resolution kernel over ``Re C * constant_factor``, evaluated
    where the spectrum is nonzero, so no coefficient is ever formed.
    Converges to the identity on the band the parameter grid covers.
    """
    nu_grid.check_route(wavelet, s_part)
    constant = _require_constant(wavelet, constant)
    u_hat = s_part.values.ravel()
    kernel = resolution_kernel(wavelet, nu_grid, u_hat != 0, threads)
    kernel /= np.real(constant) * nu_grid.constant_factor
    return SpectralField3(s_part.grid, (u_hat * kernel).reshape(s_part.grid.shape))


def solve_ivp(w: ComplexField3, v: ComplexField3, wavelet_plus: PhysicalWavelet,
              wavelet_minus: PhysicalWavelet, nu_grid: ParameterGrid, t: float,
              constants: Optional[Tuple[complex, complex]] = None,
              threads: Optional[int] = None) -> ComplexField3:
    """Wavelet-route solution of the initial-value problem at time t.

    ``solve_ivp = propagate o (project (+) project) o split_ivp``: the data
    are split into the sign parts ``(W -/+ V/(i c |k|)) / 2``, each part is
    projected with its sign's wavelet, and the pair is propagated to t.
    This equals synthesizing the printed coefficients ``U = W/2 -/+ (a/2) V``
    of both sign branches.  As in :func:`~wavecwt.oracle.fourier_ivp`, the
    k = 0 bin of ``V/|k|`` is set to zero, with a RuntimeWarning when V(0)
    is not negligible: a constant velocity cannot be represented.  The
    wavelets must be a (plus, minus) pair with one wave speed.
    """
    _ivp_pair(wavelet_plus, wavelet_minus, "solve_ivp")
    split = split_ivp(w, v, wavelet_plus.c)
    c_plus, c_minus = constants if constants else (None, None)
    plus = project(split.plus, wavelet_plus, nu_grid, c_plus, threads=threads)
    minus = project(split.minus, wavelet_minus, nu_grid, c_minus, threads=threads)
    return propagate(SolutionSpectrum(plus, minus, split.c), t)
