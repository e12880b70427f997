"""Parameter-measure discretization and wavelet coefficients of solutions.

The decomposition parameters are dilation a, translation b and rotation
angles; the measure is ``d theta1 d theta2 sin(theta2) [d theta3] da/a^4 d^3b``.
Discretization:

  * dilations: log-uniform nodes with trapezoid weights in log a, mapped to
    da/a^4 analytically;
  * rotations: trapezoid in the azimuth about the wavelet's symmetry axis
    times Gauss-Legendre in the cosine of the tilt angle (plus a trapezoid
    third angle for wavelets without any symmetry);
  * translations: the field lattice itself, weighted by the cell volume, so
    the b-integral of a coefficient slice is one FFT sum.

Rotation convention.  For a wavelet symmetric about the z axis the two-angle
rotation is exactly ``Rz(theta1) Rx(theta2)``.  The catalog's axially
localized wavelets are symmetric about the x axis, and a two-angle family
only resolves the identity when the swept axis is the wavelet's own; the
quadrature therefore uses ``Rot(axis, theta1) Rot(tilt, theta2)`` with the
tilt axis perpendicular to the symmetry axis, which reduces to the z-axis
formula above when axis = z.  For symmetry tag "none" the full three-angle
set ``Rz Rx Rz`` is used; integrating the redundant third angle makes the
resolution constant ``2 pi`` times the admissibility constant, which is
carried in ``constant_factor``.

Every coefficient slice at fixed (a, rotation) is

    U(b) = a^{3/2} (2 pi)^-3 integral d^3k u_hat(k) exp(i k.b)
           conj(PHI(a R^T k)),

one inverse transform per slice where coefficients are stored.  No time
enters: coefficients of a frequency-pure solution are time independent.
Routes that never store coefficients multiply by :func:`resolution_kernel`.

Every slice route (:func:`analyze`, synthesis, :func:`resolution_kernel`)
runs (rotation, dilation block) tasks, rotation-major, each block holding as
many dilations as fit a 2 MiB working set of the points evaluated per
dilation: the field's nodes where coefficients are stored (one slice at
64^3, four at 32^3), else the kernel's support nodes or |k| shells.  A
task that evaluates no point per dilation (an empty support's) covers
every dilation.  :func:`~wavecwt.synthesis.reconstruct_spectrum`
runs (orbit, dilation block) tasks instead (see below), whose blocks hold
half as many dilations on an "axial" grid.  Tasks never depend on the
thread count, so a spherical grid's single rotation still keeps every
worker busy and results do not depend on ``threads``.
Each task reduces over its own dilations (``np.einsum`` in the kernel, real
weights on each row and a row-order sum in synthesis) and ``R^T k`` is
formed by broadcasting: no slice route calls BLAS, whose own thread pool
would compete with the ``threads`` workers.  The Fourier layer's origin
phase and cell volume are diagonal in k and independent of (a, R), so
:func:`analyze` applies the inverse factor to ``u_hat`` once per call; each
task scatters ``a^{3/2} conj(PHI) v`` onto its coefficient rows by the
support's flat indices and runs the bare inverse FFT on them in place,
pruned to the lattice lines the support reaches
(:func:`~wavecwt.fields._pruned_ifft`: about 1.95 N transformed points per
slice instead of 3 N on a 9.5% |k| band at 32^3), with the same bytes.

A "spherical" wavelet promises a radial spectrum (see
:class:`~wavecwt.wavelets.PhysicalWavelet`), so ``PHI(a R^T k)`` takes one
value per distinct |k|^2 of the lattice (4051 evaluations instead of 262144
per dilation on a 64^3 cube).  The sweep evaluates it on those shells, where
the kernel's share is also reduced, and gathers the values onto the nodes,
so no route handles shells: every caller receives values on its own nodes.

An "axial" wavelet promises ``PHI(Q q) = PHI(q)`` for every rotation ``Q``
about its axis ``e``, so ``PHI(a R^T k)`` depends on |k| and the direction
cosine ``x = (R e).k / |k|`` alone.  :func:`resolution_kernel` then tabulates
``G(x, |k|) = sum_a w_a a^3 |PHI|^2`` at 48 Chebyshev nodes in ``x`` per
distinct |k|^2 of the support (87 x 48 x 24 = 100,224 evaluations instead of
24 x 128 x 3116 = 9,572,352 at the isometry settings) and sums the shells'
Chebyshev series at each node's ``x`` with Clenshaw, 47 steps, one
recurrence over every rotation per chunk of nodes.  Rotations come in
antipodal pairs when ``n_theta1`` is even: ``R' e = -R e`` with equal
weights, so ``x_R' = -x_R`` and the odd terms cancel,
``w_R G(x) + w_R' G(-x) = (w_R + w_R') sum_j c_2j T_j(2 x^2 - 1)``.  Only
each pair's first rotation is then summed, over that even half in 23
steps, and since the lattice's wave vectors negate bit for bit,
``K(-k) == K(k)`` bit for bit: one node of each ``+/-k`` couple is summed
and its value copied to the other.  The route is taken only when every
shell's last four coefficients are below 1e-14 of its largest; otherwise
the kernel runs the direct sweep.

:func:`~wavecwt.synthesis.reconstruct_spectrum` uses the same contract on
the lattice itself (:mod:`wavecwt.orbits`).  A signed permutation ``A`` of
the lattice axes (axes of equal count and spacing may swap, any axis may
be negated) maps the lattice's wave vectors into the negation-closed
lattice, whose axes also hold ``+pi/h``, and when ``R_q e = A^T R_r e``
with equal weights the orbit identity

    PHI(a R_q^T k) = PHI(a R_r^T A k)

makes rotation ``q``'s values a gather of rotation ``r``'s on the closed
lattice: a transpose and per-axis slice copies.  The rotations fall into
orbits under these permutations (6 orbits of 8 or 16 from 12 x 6 angles on
a cube); each task evaluates its orbit's representative on the closed
lattice ((n + 1)^3 nodes on an n^3 cube) and gathers every member from it,
the representative included.  Gathered values agree with evaluated ones to
round-off (1.2e-14 of max |PHI| for the packet), so results differ from a
per-rotation sweep at that level; spherical and "none" wavelets run the
per-rotation tasks on the lattice unchanged.  :func:`analyze` evaluates
every rotation: on a band support, gathering whole lattice slabs costs
about what evaluating the support's nodes does.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Sequence, Tuple

import numpy as np

from .admissibility import _angular_profile, admissibility_constant
from .errors import AdmissibilityError, GridMismatchError, ValidationError
from .fields import (ComplexField3, Grid3, SpectralField3, _inverse_factor, _pruned_ifft,
                     _radius, _support_runs, fft3)
from .orbits import _closed_shape, _image, _twins
from .wavelets import PhysicalWavelet, _rot_x, _rot_z, _tilt_axis, time_antiderivative_wavelet

__all__ = [
    "ParameterGrid",
    "WaveletCoefficients",
    "make_parameter_grid",
    "build_parameter_grid",
    "refine",
    "rotation_about",
    "suggest_dilation_range",
    "analyze",
    "analyze_initial_data",
    "combine_initial_coefficients",
    "transform_pairing",
    "weighted_pairing",
    "isometry_defect",
    "default_thread_count",
]


def default_thread_count() -> int:
    """WAVECWT_THREADS when set, else the hardware count.

    A set value that is not a decimal integer >= 1 raises
    :class:`ValidationError`, as ``--threads`` does.  Workers share
    (rotation or orbit, dilation block) tasks in every slice route.  Results
    are bit-identical for any thread count: tasks are cut from the grid and
    the points evaluated per dilation, and reduced in a fixed order
    regardless of which worker produced them.
    """
    env = os.environ.get("WAVECWT_THREADS", "").strip()
    if not env:
        return os.cpu_count() or 1
    if not env.isdecimal() or int(env) < 1:
        raise ValidationError(f"WAVECWT_THREADS={env!r}: needs an integer >= 1")
    return int(env)


def _require_memory(nbytes: int, what: str) -> None:
    """:class:`ValidationError` when ``nbytes`` exceed this machine's physical memory.

    An array that large could only end in swapping or an out-of-memory
    kill, so it is refused before anything is allocated.  Where
    ``os.sysconf`` does not report the memory size nothing is checked.
    """
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if 0 < physical < nbytes:
        raise ValidationError(f"{what}: {nbytes / 2**30:.3g} GiB, more than the "
                              f"{physical / 2**30:.3g} GiB of physical memory")


def rotation_about(axis, angle) -> np.ndarray:
    """Rodrigues rotation about an arbitrary unit axis; shape ``np.shape(angle) + (3, 3)``."""
    ax = np.asarray(axis, dtype=float)
    ax = ax / np.linalg.norm(ax)
    x, y, z = ax
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    angle = np.asarray(angle)[..., None, None]
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


@dataclass(frozen=True, eq=False)
class ParameterGrid:
    """Quadrature grid over (a, rotation, b) with composite measure weights.

    a_weights already carry the da/a^4 measure; rotation_weights sum to
    4 pi (one or two angles) or 8 pi^2 (three angles); the b lattice is the
    field grid with weight cell_volume.  ``constant_factor`` multiplies the
    admissibility constant in every resolution-of-identity statement.
    """

    field_grid: Grid3
    symmetry: str
    axis: Tuple[float, float, float]
    a_nodes: np.ndarray
    a_weights: np.ndarray
    rotations: np.ndarray
    rotation_weights: np.ndarray
    angle_shape: Tuple[int, ...]
    constant_factor: float

    def __eq__(self, other):
        if not isinstance(other, ParameterGrid):
            return NotImplemented
        return (
            self.field_grid == other.field_grid
            and self.symmetry == other.symmetry
            and self.axis == other.axis
            and self.angle_shape == other.angle_shape
            and self.constant_factor == other.constant_factor
            and np.array_equal(self.a_nodes, other.a_nodes)
            and np.array_equal(self.rotations, other.rotations)
        )

    __hash__ = object.__hash__

    @property
    def n_a(self) -> int:
        return len(self.a_nodes)

    @property
    def n_rotations(self) -> int:
        return len(self.rotation_weights)

    @property
    def node_count(self) -> int:
        return self.n_a * self.n_rotations * self.field_grid.node_count

    @property
    def coefficient_shape(self) -> Tuple[int, ...]:
        """``(n_a, n_rotations) + field grid shape``: the shape of coefficients on this grid."""
        return (self.n_a, self.n_rotations) + self.field_grid.shape

    def check_route(self, wavelet: PhysicalWavelet, *parts) -> None:
        """The preconditions of every slice route on this grid.

        :class:`ValidationError` unless the grid was built for ``wavelet``'s
        symmetry (and axis), :class:`GridMismatchError` unless every field
        in ``parts`` lies on the grid's field lattice.
        """
        if wavelet.symmetry != self.symmetry or (
                self.symmetry == "axial" and not np.allclose(wavelet.axis, self.axis, atol=1e-12)):
            raise ValidationError("parameter grid was built for a different wavelet symmetry/axis")
        if any(part.grid != self.field_grid for part in parts):
            raise GridMismatchError("field grid of data and parameter grid differ")

    def describe(self) -> dict:
        return {
            "symmetry": self.symmetry,
            "axis": list(self.axis),
            "a_min": float(self.a_nodes[0]),
            "a_max": float(self.a_nodes[-1]),
            "n_a": int(self.n_a),
            "angle_shape": list(self.angle_shape),
        }


def make_parameter_grid(field_grid: Grid3, wavelet: PhysicalWavelet, a_min: float,
                        a_max: float, n_a: int, n_theta1: int = 16, n_theta2: int = 8,
                        n_theta3: int = 8) -> ParameterGrid:
    """Build the quadrature grid matched to the wavelet symmetry."""
    return build_parameter_grid(field_grid, wavelet.symmetry, wavelet.axis, a_min,
                                a_max, n_a, n_theta1, n_theta2, n_theta3)


def build_parameter_grid(field_grid: Grid3, symmetry: str, axis, a_min: float,
                         a_max: float, n_a: int, n_theta1: int = 16, n_theta2: int = 8,
                         n_theta3: int = 8) -> ParameterGrid:
    """Parameter grid from an explicit symmetry/axis description."""
    if symmetry not in ("spherical", "axial", "none"):
        raise ValidationError(f"unknown symmetry tag {symmetry!r}")
    if not (0 < a_min < a_max < np.inf):
        raise ValidationError("need 0 < a_min < a_max < inf")
    if n_a < 2:
        raise ValidationError("need at least two dilation nodes")
    if min(n_theta1, n_theta2, n_theta3) < 1:
        raise ValidationError("need at least one node per rotation angle")
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis) if np.linalg.norm(axis) > 0 else np.array([0.0, 0.0, 1.0])
    t = np.linspace(np.log(a_min), np.log(a_max), n_a)
    trap = np.full(n_a, t[1] - t[0])
    trap[0] *= 0.5
    trap[-1] *= 0.5
    a_nodes = np.exp(t)
    # exp(log(x)) can miss x by an ulp; pinned ends make a recorded window rebuild these nodes
    a_nodes[[0, -1]] = a_min, a_max
    a_weights = trap * a_nodes**-3.0  # da/a^4 = d(log a) * a^-3

    if symmetry == "spherical":
        rotations = np.eye(3)[None, :, :]
        rotation_weights = np.array([4.0 * np.pi])
        angle_shape: Tuple[int, ...] = ()
        factor = 1.0
    else:
        # theta1-major stacks: angles broadcast along (theta1, theta2[, theta3])
        mu, wmu = np.polynomial.legendre.leggauss(n_theta2)
        theta1 = 2.0 * np.pi * np.arange(n_theta1) / n_theta1
        theta2 = np.arccos(mu)
        if symmetry == "axial":
            r1 = rotation_about(axis, theta1)[:, None]
            rotations = r1 @ rotation_about(_tilt_axis(axis), theta2)[None, :]
            rotation_weights = np.tile((2.0 * np.pi / n_theta1) * wmu, n_theta1)
            angle_shape = (n_theta1, n_theta2)
            factor = 1.0
        else:
            theta3 = 2.0 * np.pi * np.arange(n_theta3) / n_theta3
            r12 = _rot_z(theta1)[:, None] @ _rot_x(theta2)[None, :]
            rotations = r12[:, :, None] @ _rot_z(theta3)[None, None, :]
            w12 = (2.0 * np.pi / n_theta1) * wmu * (2.0 * np.pi / n_theta3)
            rotation_weights = np.tile(np.repeat(w12, n_theta3), n_theta1)
            angle_shape = (n_theta1, n_theta2, n_theta3)
            factor = 2.0 * np.pi
        rotations = rotations.reshape(-1, 3, 3)
    axis_t = tuple(float(v) for v in np.asarray(axis, dtype=float))
    return ParameterGrid(field_grid, symmetry, axis_t, a_nodes, a_weights,
                         rotations, rotation_weights, angle_shape, factor)


def refine(grid: ParameterGrid, wavelet: PhysicalWavelet) -> ParameterGrid:
    """Same ranges with every node count doubled."""
    shape = grid.angle_shape + (8,) * (3 - len(grid.angle_shape))
    return make_parameter_grid(
        grid.field_grid, wavelet, float(grid.a_nodes[0]), float(grid.a_nodes[-1]),
        2 * grid.n_a, 2 * shape[0], 2 * shape[1], 2 * shape[2],
    )


def suggest_dilation_range(wavelet: PhysicalWavelet, k_lo: float,
                           k_hi: float) -> Tuple[float, float]:
    """Dilation window so the rescaled spectrum covers the occupied band.

    The admissibility integrand in log radius is scale invariant, so the
    dilation sweep at a fixed wave vector reproduces the full constant
    exactly when a ranges over (0, inf).  This picks the log-radius window
    holding 99.9% of that mass and maps its ends onto the band.
    """
    if not (0 < k_lo < k_hi):
        raise ValidationError("need 0 < k_lo < k_hi")

    def pair(kx, ky, kz):
        return np.abs(wavelet.spectral(kx, ky, kz)) ** 2

    profile = _angular_profile(pair, wavelet, 32, 32)
    t = np.linspace(np.log(1e-6), np.log(1e3), 1600)
    mass = np.real(profile(np.exp(t)))
    cum = np.cumsum(mass)
    if cum[-1] <= 0:
        raise ValidationError("wavelet spectrum carries no mass on the probed range")
    cum /= cum[-1]
    tail = 0.5 * (1.0 - 0.999)  # half the 0.1% of the mass outside the window
    q_lo = float(np.exp(t[np.searchsorted(cum, tail)]))
    q_hi = float(np.exp(t[min(np.searchsorted(cum, 1.0 - tail), len(t) - 1)]))
    return q_lo / k_hi, q_hi / k_lo


@dataclass(frozen=True, eq=False)
class WaveletCoefficients:
    """U(nu) sampled on a :class:`ParameterGrid`.

    values has shape (n_a, n_rotations) + field grid shape, C-ordered so the
    flat layout is (a slowest, then angles in theta1-major order, then b in
    field linear order).  It is an array, or the
    :class:`~wavecwt.fileio.Payload` of a WCF file, which the slice routes
    read one task block at a time and the whole-array routes refuse.
    ``constant`` is the admissibility (or cross) constant to be used at
    synthesis, before the grid's constant_factor.
    """

    nu_grid: ParameterGrid
    values: np.ndarray  # or a fileio.Payload
    sign: str
    constant: complex
    wavelet_name: str = ""
    wavelet_params: Tuple = ()

    def __post_init__(self):
        self._check_form()
        # one dilation at a time: the mask is 1/n_a of a whole-array scan's, and a
        # payload is read into one buffer
        values = self.values
        held = isinstance(values, np.ndarray)
        buffer = None if held else np.empty(values.shape[1:], dtype=np.complex128)
        for a in range(self.nu_grid.n_a):
            block = values[a] if held else values.read(a, buffer)
            if not np.isfinite(block.view(np.float64)).all():
                raise ValidationError("coefficients contain non-finite values")

    def _check_form(self) -> None:
        expected = self.nu_grid.coefficient_shape
        if self.values.shape != expected:
            raise ValidationError(f"coefficient shape {self.values.shape} != {expected}")
        if self.sign not in ("plus", "minus"):
            raise ValidationError(f"bad sign {self.sign!r}")


def _prechecked(nu_grid: ParameterGrid, values, sign: str, constant: complex,
                wavelet_name: str, wavelet_params: Tuple) -> WaveletCoefficients:
    """A :class:`WaveletCoefficients` whose ``values`` are known to be finite.

    Built without the constructor's finiteness scan, which would read every
    value once more (a payload from its file); shape and sign are checked.
    For values the caller has just checked, or taken from another set.
    """
    coeffs = object.__new__(WaveletCoefficients)  # frozen: fill the fields past __init__
    coeffs.__dict__.update(nu_grid=nu_grid, values=values, sign=sign, constant=constant,
                           wavelet_name=wavelet_name, wavelet_params=wavelet_params)
    coeffs._check_form()
    return coeffs


def _in_memory(*sets: WaveletCoefficients) -> None:
    """:class:`ValidationError` unless every set's values are an array, not a file payload."""
    if not all(isinstance(U.values, np.ndarray) for U in sets):
        raise ValidationError("this route needs coefficients in memory: "
                              "use read_coefficients, not open_coefficients")


# ---------------------------------------------------------------------------
# slice engine
# ---------------------------------------------------------------------------


class _Workspace(threading.local):
    """One worker thread's buffers for one call, made on its first task.

    ``rows(n)`` hands out ``(n, width)`` row views of one array per dtype,
    kept for every later task the worker runs and grown when a task needs
    more rows; the buffers go when the call drops the workspace.
    """

    def __init__(self, width: int, dtypes: Sequence):
        self.width, self.dtypes, self.held = width, tuple(dtypes), None

    def rows(self, n_rows: int):
        if self.held is None or len(self.held[0]) < n_rows:
            self.held = [np.empty((n_rows, self.width), dtype) for dtype in self.dtypes]
        return [buf[:n_rows] for buf in self.held]


def _lattice_points(grid: Grid3, support):
    """The wave vectors of the flagged lattice nodes: three arrays of M.

    ``support`` is a boolean mask over the flattened field lattice, the
    flat indices of its flagged nodes in increasing order, or
    ``slice(None)`` for every node.
    """
    return [K.ravel()[support] for K in grid.k_mesh()]


def _shells(k):
    """The distinct float |k|^2 of the points ``k``, and each point's index among them."""
    return np.unique(k[0] * k[0] + k[1] * k[1] + k[2] * k[2], return_inverse=True)


def _evaluator_dtypes(wavelet: PhysicalWavelet):
    """The dtypes of an :func:`_evaluator` workspace: three wave-vector components, the buffers."""
    into = getattr(wavelet.spectral, "into", None)
    return (np.float64,) * 3 + (into.buffers if into else ())


def _workspace_bytes(wavelet: PhysicalWavelet, width: int) -> int:
    """Bytes per dilation of an :func:`_evaluator` workspace of ``width`` points."""
    return width * sum(np.dtype(t).itemsize for t in _evaluator_dtypes(wavelet))


def _evaluator(wavelet: PhysicalWavelet, k):
    """``phi(r, ar, power)``: ``PHI(a r^T k)`` on the points ``k`` for the dilations ``ar``.

    ``k`` holds the three wave-vector components of P points and ``r`` is a
    rotation matrix; the values have shape (len(ar), P).  With ``power`` they
    are ``|PHI|^2``, squared in the spent wave-vector buffers.

    Each worker thread evaluates in its own :class:`_Workspace`, which lives
    as long as ``phi``: the three scaled wave-vector components and the
    buffers of the wavelet's buffer form (see
    :class:`~wavecwt.wavelets.PhysicalWavelet`; without one it allocates its
    own values), P points per row.  The values
    may be a workspace view: the caller may overwrite them, and they last
    until that worker's next call.
    """
    into = getattr(wavelet.spectral, "into", None)
    workspace = _Workspace(k[0].size, _evaluator_dtypes(wavelet))

    def phi(r, ar, power=False):
        kx, ky, kz, *buffers = workspace.rows(len(ar))
        for i, scaled in enumerate((kx, ky, kz)):
            q = r[0, i] * k[0] + r[1, i] * k[1] + r[2, i] * k[2]  # (R^T k)_i
            np.multiply.outer(ar, q, out=scaled)
        if into:
            values = into(kx, ky, kz, *buffers)
        else:
            values = np.asarray(wavelet.spectral(kx, ky, kz), dtype=np.complex128)
        if not power:
            return values
        # values.real**2 + values.imag**2, in the spent wave-vector buffers
        np.square(values.real, out=kx)
        kx += np.square(values.imag, out=ky)
        return kx

    return phi


def _sweep(wavelet: PhysicalWavelet, nu_grid: ParameterGrid, k, power: bool = False):
    """``spectra(idx, rows)``: ``PHI(a R^T k)`` on the wave vectors ``k``.

    ``k`` holds the three components of M wave vectors: the flagged lattice
    nodes (:func:`_lattice_points`) or the closed lattice
    (:func:`~wavecwt.orbits._closed_points`).  ``spectra(idx, rows)`` is
    ``PHI(a R^T k)`` for the dilations ``a_nodes[rows]`` at rotation ``idx``
    on the M points, shape (n_rows, M); with ``power`` it is the task's share of
    :func:`resolution_kernel`, a new (M,) array
    ``w_R sum_{a in rows} w_a a^3 |PHI(a R^T k)|^2``.  A "spherical"
    wavelet's spectrum depends on |k| alone, so it is evaluated and reduced
    once per distinct float |k|^2 ``s`` at ``(0, 0, sqrt(s))``, then gathered
    onto the points.  ``spectra.width`` counts the points evaluated per
    dilation: M, or the shells.

    The wavelet is evaluated by :func:`_evaluator`, in per-worker
    workspaces, as are the gathered shell values: ``PHI`` may be a workspace
    view, which the caller may overwrite and which lasts until that
    worker's next call.
    """
    back = None
    if wavelet.symmetry == "spherical":
        shells, back = _shells(k)
        k = [np.zeros(shells.size), np.zeros(shells.size), np.sqrt(shells)]
        on_nodes = _Workspace(back.size, (np.complex128,))
    a = nu_grid.a_nodes
    weights = nu_grid.a_weights * a**3
    phi = _evaluator(wavelet, k)

    def spectra(idx, rows):
        values = phi(nu_grid.rotations[idx], a[rows], power)
        if power:
            share = np.einsum("a,am->m", nu_grid.rotation_weights[idx] * weights[rows], values)
            return share if back is None else share[back]
        if back is None:
            return values
        (nodes,) = on_nodes.rows(len(values))
        return np.take(values, back, axis=1, out=nodes, mode="clip")

    spectra.width = k[0].size
    return spectra


_TASK_BYTES = 2 << 20  # one core's L2: the working set of one slice task


def _slice_tasks(nu_grid: ParameterGrid, width: int, orbits=None):
    """``(idx, rows)`` for every (rotation, dilation block), rotation-major.

    A block holds ``max(1, 2 MiB // (16 width))`` dilations of ``width``
    points each, so its complex slab fits one core's cache, and a task of
    width 0 (an empty support's) evaluates nothing per dilation and covers
    them all; the list
    depends on the grid and ``width`` alone, never on the thread count.
    With ``orbits`` (see :func:`~wavecwt.orbits._orbits`) the tasks are
    ``(orbit, rows)`` for every (orbit, dilation block), in orbit order; on
    an "axial" grid a task holds three slabs at once (see
    :func:`_working_set`), so its blocks hold half as many dilations.
    """
    step = max(1, _TASK_BYTES // (16 * width)) if width else nu_grid.n_a
    if orbits is None:
        return [(idx, slice(lo, min(lo + step, nu_grid.n_a)))
                for idx in range(nu_grid.n_rotations) for lo in range(0, nu_grid.n_a, step)]
    if nu_grid.symmetry == "axial":
        step = max(1, step // 2)
    return [(orbit, slice(lo, min(lo + step, nu_grid.n_a)))
            for orbit in orbits for lo in range(0, nu_grid.n_a, step)]


def _pool_size(requested: int, n_items: int, cpus: Optional[int]) -> int:
    """Worker threads for ``n_items`` tasks: at most the request, the CPUs and the tasks."""
    return max(1, min(requested, cpus or 1, n_items))


def _working_set(nu_grid: ParameterGrid, threads: Optional[int], orbits=None,
                 evaluated: int = 0) -> int:
    """Bytes the largest task of a materialized route holds, times the workers.

    What :func:`analyze` and :func:`~wavecwt.synthesis.reconstruct_spectrum`
    hold beyond their inputs and the coefficients, per dilation: a
    rotation's task holds its spectra on the lattice, the slab it
    transforms and ``evaluated`` bytes, its sweep evaluator's workspace
    (:func:`_workspace_bytes` at a bound on ``spectra.width``, so that the
    check can run before the sweep is built).  With ``orbits`` on an
    "axial" grid (see :func:`_slice_tasks`) the spectra are the
    representative's on the closed lattice
    (:func:`~wavecwt.orbits._closed_shape`) and the task also holds one
    member's gathered values.  A buffer form leaves the spectra in the
    evaluator's workspace, so they may be counted twice: the count is an
    upper bound.
    """
    grid = nu_grid.field_grid
    tasks = _slice_tasks(nu_grid, grid.node_count, orbits)
    spectra, slabs = grid.node_count, 1
    if orbits is not None and nu_grid.symmetry == "axial":
        spectra, slabs = int(np.prod(_closed_shape(grid))), 2
    block = max(rows.stop - rows.start for _, rows in tasks)
    workers = _pool_size(threads or default_thread_count(), len(tasks), os.cpu_count())
    return workers * block * (16 * (spectra + slabs * grid.node_count) + evaluated)


def _map_ordered(fn, items: Sequence, threads: Optional[int]):
    """``fn`` over ``items``, results in order; ``threads=None`` is :func:`default_thread_count`.

    At most ``2 * workers`` tasks run or wait ahead of the consumer, so
    finished results never pile up unconsumed.
    """
    workers = _pool_size(threads or default_thread_count(), len(items), os.cpu_count())
    if workers == 1:
        for item in items:
            yield fn(item)
        return
    pending = iter(items)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        window = deque(pool.submit(fn, item) for item in islice(pending, 2 * workers))
        while window:
            head = window.popleft()
            for item in islice(pending, 1):
                window.append(pool.submit(fn, item))
            yield head.result()


_CHEB_NODES = 48  # J: Chebyshev nodes in the direction cosine per |k| shell
_CHEB_TAIL = 1e-14  # certificate: a shell's last four coefficients over its largest


def _axial_table(wavelet: PhysicalWavelet, nu_grid: ParameterGrid, shells: np.ndarray):
    """Per-shell Chebyshev coefficients of an "axial" kernel's dilation sums, or None.

    With ``e`` the wavelet's axis and ``p = _tilt_axis(e)``, the axial
    contract gives ``PHI(a R^T k) = PHI(a r (x e + sqrt(1 - x^2) p))`` with
    ``r = |k|`` and ``x = (R e).k / r``.  On every distinct float |k|^2 in
    ``shells``, ``G(x, r) = sum_a w_a a^3 |PHI(...)|^2`` over every
    dilation is tabulated at the J first-kind Chebyshev nodes (``S J n_a``
    evaluations for S shells, in blocks of as many dilations as fit half a
    task's working set, added to the table row by row) and turned into the
    coefficients ``c_n`` of its Chebyshev series, so that
    ``G(x, r) = sum_n c_n T_n(x)``.  Returns a (J, S) array: row ``n``
    holds ``c_n`` of every shell.  The table depends on the dilations and
    the shells alone, never on the rotations.

    None unless every shell's series is certified: its last four
    coefficients are at most ``_CHEB_TAIL`` times its largest.
    """
    axis = np.asarray(wavelet.axis)
    theta = np.pi * (np.arange(_CHEB_NODES) + 0.5) / _CHEB_NODES
    along = np.multiply.outer(np.sqrt(shells), np.cos(theta)).ravel()  # r x, shell-major
    across = np.multiply.outer(np.sqrt(shells), np.sin(theta)).ravel()  # r sqrt(1 - x^2)
    phi = _evaluator(wavelet, [along * e + across * t for e, t in zip(axis, _tilt_axis(axis))])
    a = nu_grid.a_nodes
    weights = nu_grid.a_weights * a**3
    # c_n = (2 / J) sum_j G(x_j) cos(n theta_j), c_0 halved
    dct = np.cos(np.multiply.outer(np.arange(_CHEB_NODES), theta)) * (2.0 / _CHEB_NODES)
    dct[0] *= 0.5
    identity = np.eye(3)
    table = np.zeros(along.size)
    block = max(1, (_TASK_BYTES // 2) // max(1, _workspace_bytes(wavelet, along.size)))
    for lo in range(0, nu_grid.n_a, block):
        rows = slice(lo, lo + block)
        for w, row in zip(weights[rows], phi(identity, a[rows], power=True)):
            table += w * row
    coeffs = np.einsum("nj,sj->ns", dct, table.reshape(shells.size, _CHEB_NODES))
    if (np.abs(coeffs[-4:]).max(axis=0) > _CHEB_TAIL * np.abs(coeffs).max(axis=0)).any():
        return None
    return coeffs


def _antipodal_partners(nu_grid: ParameterGrid) -> np.ndarray:
    """Each rotation's antipodal partner on an "axial" grid, or -1 where it has none.

    The :func:`~wavecwt.orbits._image` under ``-I``: rotations ``R`` and
    ``R'`` are partners when ``R' e = -R e`` to 1e-12 and their weights
    agree to a few ulps.
    ``(theta1 + pi, pi - theta2)`` is the partner of ``(theta1, theta2)`` on
    every grid with an even ``n_theta1``, since the Gauss-Legendre nodes are
    symmetric with equal weights; with an odd one no rotation has a partner.
    """
    return _image(nu_grid, -np.eye(3))


def _clenshaw(coeffs, x, work):
    """``sum_n coeffs[n] T_n(x)`` at every point, summed in ``work``.

    ``coeffs`` holds two or more rows, each of which broadcasts against
    ``x``, and ``work`` four float buffers of ``x``'s shape; the sum is one
    of them.  Clenshaw's recurrence ``b_n = c_n + 2 x b_{n+1} - b_{n+2}``
    takes ``len(coeffs) - 1`` steps, and the sum is ``c_0 + x b_1 - b_2``.
    """
    x2, b1, b2, t = work
    np.add(x, x, out=x2)
    b1[:] = coeffs[-1]
    b2.fill(0.0)
    for c in coeffs[-2:0:-1]:
        np.subtract(c, b2, out=t)
        np.multiply(x2, b1, out=b2)
        t += b2
        b1, b2, t = t, b1, b2
    np.multiply(x, b1, out=t)
    t -= b2
    t += coeffs[0]
    return t


def _axial_kernel(wavelet: PhysicalWavelet, nu_grid: ParameterGrid, support):
    """An "axial" :func:`resolution_kernel` on the support's nodes from :func:`_axial_table`.

    At each node ``K(k) = sum_R w_R G(x_R, |k|)`` with ``x_R = (R e).k / |k|``,
    the shell's Chebyshev series summed by :func:`_clenshaw` in 47 steps.
    When every rotation has an antipodal partner
    (:func:`_antipodal_partners`, every grid with an even ``n_theta1``),
    ``x_R'(k) = -x_R(k)`` at every node, and ``T_n(-x) = (-1)^n T_n(x)`` and
    ``T_2j(x) = T_j(2 x^2 - 1)`` give

        w_R G(x) + w_R' G(-x) = (w_R + w_R') sum_j c_2j T_j(2 x^2 - 1),

    so only the first rotation of each pair is summed, over the even
    coefficients at ``2 x^2 - 1`` in 23 steps.  The lattice wave vectors
    negate bit for bit, so then ``K(-k) == K(k)`` bit for bit too: of each
    ``+/-k`` couple in the support (:func:`~wavecwt.orbits._twins`) the
    lower node is summed and its value copied to the other.

    The summed nodes go in chunks of half a task's working set.  A chunk
    gathers its nodes' coefficients once, runs one recurrence on ``(P, m)``
    arrays for the P summed rotations and its m nodes, and adds the weighted
    rows in rotation order.  Every step is elementwise per node, so the
    values do not depend on the chunks; the buffers are allocated once per
    call.

    None when :func:`_axial_table` is.
    """
    grid = nu_grid.field_grid
    nodes = np.flatnonzero(support)
    k = _lattice_points(grid, nodes)
    shells, back = _shells(k)
    table = _axial_table(wavelet, nu_grid, shells)
    if table is None:
        return None
    partner = _antipodal_partners(nu_grid)
    firsts = np.arange(nu_grid.n_rotations)
    weights, series, twin = nu_grid.rotation_weights, table, np.full(nodes.size, -1)
    paired = bool((partner >= 0).all())  # otherwise (odd n_theta1) no rotation pairs
    if paired:
        weights = weights + weights[partner]  # w_R + w_R'
        firsts, series, twin = np.flatnonzero(partner > firsts), table[::2], _twins(grid, nodes)
    copied = (twin >= 0) & (twin < np.arange(nodes.size))  # the higher node of a couple
    summed = np.flatnonzero(~copied)
    directions = np.einsum("rij,j->ri", nu_grid.rotations, np.asarray(wavelet.axis))[firsts]
    weights = weights[firsts, None]
    unit = (np.stack(k) / _radius(*k)[2])[:, summed]
    sums = np.zeros(summed.size)
    rows = (firsts.size,) * 5 + (len(series),)  # x, the recurrence's four, the coefficients
    step = max(1, (_TASK_BYTES // 2) // (8 * sum(rows)))
    held = [np.empty(n * min(step, summed.size)) for n in rows]
    for lo in range(0, summed.size, step):
        at = slice(lo, lo + step)
        m = sums[at].size
        x, *work, coeffs = (buf[:n * m].reshape(n, m) for buf, n in zip(held, rows))
        np.take(series, back[summed[at]], axis=1, out=coeffs, mode="clip")
        np.multiply.outer(directions[:, 0], unit[0, at], out=x)  # (R e).k / |k|
        for i in (1, 2):
            x += np.multiply.outer(directions[:, i], unit[i, at], out=work[0])
        if paired:  # T_2j(x) = T_j(2 x^2 - 1)
            np.multiply(x, x, out=x)
            x *= 2.0
            x -= 1.0
        shares = _clenshaw(coeffs, x, work)
        shares *= weights
        total = sums[at]
        for share in shares:  # in rotation order
            total += share
    kernel = np.empty(nodes.size)
    kernel[summed] = sums
    kernel[copied] = kernel[twin[copied]]
    return kernel


def resolution_kernel(wavelet: PhysicalWavelet, nu_grid: ParameterGrid, support: np.ndarray,
                      threads: Optional[int] = None) -> np.ndarray:
    """``K(k) = sum_{a,R} w_a w_R a^3 |PHI(a R^T k)|^2`` on the flagged lattice nodes.

    ``support`` is a boolean mask over the flattened field lattice; K is
    evaluated at those wave vectors and is zero elsewhere.  A slice's
    b-spectrum is ``a^{3/2} conj(PHI(a R^T k)) u_hat`` and the translation
    lattice is the field grid, so by discrete Parseval
    ``integral dmu U conj(V) = sum_k u_hat conj(v_hat) K / (N dV)``, and
    analysis followed by synthesis multiplies ``u_hat`` by ``K / (C factor)``.
    The antiderivative partner ``PSI = PHI / (-i c a|k|)`` gives
    ``sum w a^4 PHI conj(PSI) = K / (i c |k|)``.  Each (rotation, dilation
    block) task sums its dilations in a fixed order and tasks are summed in
    order, so the result does not depend on ``threads``.

    An "axial" wavelet's kernel is summed on the calling thread from
    per-shell Chebyshev series in the direction cosine (:func:`_axial_kernel`)
    when every shell's series is certified.  It then differs from the
    direct sweep's by about 1e-14 of K's largest value over the support;
    where K is many orders below that value, the relative difference is
    larger (1.3e-8 at nodes where K is 4e-8 of its largest, on a
    24 x 2 x 2 grid).  Otherwise, and for every other symmetry, each task
    evaluates ``PHI(a R^T k)`` on the support through :func:`_sweep`.
    """
    values = _axial_kernel(wavelet, nu_grid, support) if wavelet.symmetry == "axial" else None
    if values is None:
        spectra = _sweep(wavelet, nu_grid, _lattice_points(nu_grid.field_grid, support),
                         power=True)
        values = sum(_map_ordered(lambda task: spectra(*task),
                                  _slice_tasks(nu_grid, spectra.width), threads))
    kernel = np.zeros(support.size)
    kernel[support] = values
    return kernel


def _require_constant(wavelet: PhysicalWavelet, constant):
    if constant is not None:
        return complex(constant)
    report = admissibility_constant(wavelet)
    if not report.converged:
        raise AdmissibilityError(
            f"wavelet is not admissible ({report.divergence_reason}); "
            "analysis requires a finite constant"
        )
    return complex(report.value)


def analyze(s_part: SpectralField3, sign: str, wavelet: PhysicalWavelet,
            nu_grid: ParameterGrid, constant: Optional[complex] = None,
            threads: Optional[int] = None, out=None) -> WaveletCoefficients:
    """Wavelet coefficients of a frequency-pure solution part.

    ``s_part`` holds the t = 0 spectral data of the chosen sign.  Each
    (a, rotation) slice is the bare inverse FFT of ``a^{3/2} conj(PHI) v``
    with ``v`` the data times the transform's k-factor, applied once; each
    (rotation, dilation block) task writes its own slices.  The spectrum is
    evaluated only where the data are nonzero, and the transform skips the
    x and y lines the support's projections miss
    (:func:`~wavecwt.fields._pruned_ifft`, byte-identical to the whole
    transform; on a full support its passes are the whole transform's).
    Coefficients carry no time dependence.

    ``out`` is the destination.  With None the coefficients are a new array
    and each task transforms in place in its own rows; coefficients larger
    than the machine's physical memory are refused up front with a
    :class:`ValidationError`.  A :class:`~wavecwt.fileio.Payload` (see
    :func:`~wavecwt.fileio.create_coefficients`) of the coefficients' shape
    makes each task transform in its worker's slab, zero off the support
    (on a full support, in its spectra), and store it there; then only two
    task slabs per worker and its evaluator's workspace need to fit in
    memory, which is checked before the spectrum or any transform is set
    up, and the result is backed by ``out``.  The workspace is counted on the
    support's nodes, which bounds a spherical wavelet's |k| shells.
    """
    if sign not in ("plus", "minus"):
        raise ValidationError(f"bad sign {sign!r}")
    if wavelet.sign != sign:
        raise ValidationError(f"wavelet sign {wavelet.sign!r} does not match requested {sign!r}")
    nu_grid.check_route(wavelet, s_part)
    grid = nu_grid.field_grid
    shape = nu_grid.coefficient_shape
    if out is None:
        _require_memory(16 * nu_grid.node_count, "coefficients")
    elif tuple(out.shape) != shape:
        raise ValidationError(f"destination shape {tuple(out.shape)} != {shape}")

    support = s_part.values != 0
    full = bool(support.all())
    # a full support copies whole rows; otherwise an index scatter, cheaper than a boolean one
    nodes = slice(None) if full else np.flatnonzero(support)
    if out is not None:  # the support's node count bounds a spherical wavelet's shells
        width = grid.node_count if full else nodes.size
        _require_memory(_working_set(nu_grid, threads,
                                     evaluated=_workspace_bytes(wavelet, width)),
                        "analyze working set")
    runs = _support_runs(support)  # the lattice lines the data reach
    spectra = _sweep(wavelet, nu_grid, _lattice_points(grid, nodes))
    constant = _require_constant(wavelet, constant)
    # the transform's k-factor does not depend on (a, R): apply it once, so every
    # slice is a bare inverse FFT of a^1.5 conj(PHI) v
    v = _inverse_factor(s_part.values, grid).ravel()[nodes]
    scale = nu_grid.a_nodes**1.5
    if out is None:
        out = np.zeros(shape, dtype=np.complex128)
        flat = out.reshape(nu_grid.n_a, nu_grid.n_rotations, -1)

        def slab_of(idx, rows, prod):  # the task's own coefficient rows
            slab = flat[rows, idx]
            slab[:, nodes] = prod
            return slab

        def store(idx, rows, cube):
            pass
    else:
        slabs = _Workspace(grid.node_count, (np.complex128,))

        def slab_of(idx, rows, prod):  # the worker's slab, zero off the support
            if full:  # the spectra cover every node: they are the slab
                return prod
            (slab,) = slabs.rows(len(prod))
            slab.fill(0)
            slab[:, nodes] = prod
            return slab

        def store(idx, rows, cube):
            out[rows, idx] = cube

    def one_block(task):
        idx, rows = task
        prod = spectra(idx, rows)
        np.conjugate(prod, out=prod)
        prod *= v
        prod *= scale[rows, None]
        cube = slab_of(idx, rows, prod).reshape((-1,) + grid.shape)
        _pruned_ifft(cube, runs)  # skips the x and y lines the support's projections miss
        # NaN survives min and max, and an infinity is one of them: two passes, no mask
        reals = cube.view(np.float64)
        if not (np.isfinite(reals.min()) and np.isfinite(reals.max())):
            raise ValidationError("coefficients contain non-finite values")
        store(idx, rows, cube)

    for _ in _map_ordered(one_block, _slice_tasks(nu_grid, grid.node_count), threads):
        pass
    # every task checked its slab: no second scan, which would read a payload back
    return _prechecked(nu_grid, out, sign, constant, wavelet.name, wavelet.params)


def analyze_initial_data(w: ComplexField3, v: ComplexField3, wavelet_plus: PhysicalWavelet,
                         wavelet_minus: PhysicalWavelet, nu_grid: ParameterGrid,
                         constants: Optional[Tuple[complex, complex]] = None,
                         threads: Optional[int] = None):
    """Transforms of initial data against both sign families.

    Returns (W_plus, W_minus, V_plus, V_minus): W is the transform of the
    initial field against each wavelet, V the transform of the initial
    velocity against the corresponding time-antiderivative wavelet, all at
    t = 0.  No frequency splitting of the data is performed.
    """
    if w.grid != v.grid:
        raise GridMismatchError("initial data must share one grid")
    if wavelet_plus.sign != "plus" or wavelet_minus.sign != "minus":
        raise ValidationError("analyze_initial_data needs a (plus, minus) wavelet pair")
    c_plus = _require_constant(wavelet_plus, constants[0] if constants else None)
    c_minus = _require_constant(wavelet_minus, constants[1] if constants else None)

    w_hat = fft3(w)
    v_hat = fft3(v)
    out = []
    for wav, data, const in (
        (wavelet_plus, w_hat, c_plus),
        (wavelet_minus, w_hat, c_minus),
        (time_antiderivative_wavelet(wavelet_plus), v_hat, c_plus),
        (time_antiderivative_wavelet(wavelet_minus), v_hat, c_minus),
    ):
        out.append(
            analyze(data, wav.sign, wav, nu_grid, constant=const, threads=threads)
        )
    return tuple(out)


def combine_initial_coefficients(w_coeffs: WaveletCoefficients,
                                 v_coeffs: WaveletCoefficients) -> WaveletCoefficients:
    """Solution coefficients ``U = W/2 -/+ (a/2) V`` from initial-data transforms.

    The minus sign applies to the "plus" family and vice versa; the dilation
    factor comes from the derived-wavelet family carrying an explicit a.
    """
    if w_coeffs.nu_grid is not v_coeffs.nu_grid and w_coeffs.nu_grid != v_coeffs.nu_grid:
        raise ValidationError("coefficient sets live on different parameter grids")
    if w_coeffs.sign != v_coeffs.sign:
        raise ValidationError("coefficient sets carry different signs")
    _in_memory(w_coeffs, v_coeffs)
    sgn = -1.0 if w_coeffs.sign == "plus" else +1.0
    w, v, a_nodes = w_coeffs.values, v_coeffs.values, w_coeffs.nu_grid.a_nodes
    values = np.empty(w.shape, np.result_type(w, v, a_nodes))
    for a in range(len(a_nodes)):  # one dilation at a time: no temporary of the set's size
        np.add(0.5 * w[a], (sgn * 0.5 * a_nodes[a]) * v[a], out=values[a])
    return WaveletCoefficients(w_coeffs.nu_grid, values, w_coeffs.sign,
                               w_coeffs.constant, w_coeffs.wavelet_name,
                               w_coeffs.wavelet_params)


def transform_pairing(u_part: SpectralField3, v_part: SpectralField3,
                      wavelet: PhysicalWavelet, nu_grid: ParameterGrid,
                      threads: Optional[int] = None) -> complex:
    """The measure-weighted pairing ``integral dmu U conj(V)``, nothing materialized.

    Computed as ``sum_k u_hat conj(v_hat) K(k) / (N dV)`` with the
    :func:`resolution_kernel` evaluated only where ``u_hat conj(v_hat)`` is
    nonzero; a self-pairing is exactly real.  Dividing by
    ``constant * constant_factor`` gives the isometry's left-hand side.
    """
    nu_grid.check_route(wavelet, u_part, v_part)
    grid = nu_grid.field_grid
    u_hat = u_part.values.ravel()
    if u_part is v_part or np.array_equal(u_part.values, v_part.values):
        density = u_hat.real**2 + u_hat.imag**2
    else:
        density = u_hat * np.conj(v_part.values.ravel())
    kernel = resolution_kernel(wavelet, nu_grid, density != 0, threads)
    return complex(np.sum(density * kernel) / (grid.node_count * grid.cell_volume))


def weighted_pairing(U: WaveletCoefficients, V: WaveletCoefficients) -> complex:
    """``integral dmu U conj(V)`` from materialized coefficients."""
    if U.nu_grid != V.nu_grid:
        raise GridMismatchError("coefficient sets live on different parameter grids")
    _in_memory(U, V)
    g = U.nu_grid
    per_node = np.empty((g.n_a, g.n_rotations), dtype=np.complex128)
    for a in range(g.n_a):  # one dilation's conjugate at a time, never a copy of the set
        per_node[a] = np.einsum("rxyz,rxyz->r", U.values[a], np.conj(V.values[a]))
    total = np.einsum("a,r,ar->", g.a_weights, g.rotation_weights, per_node)
    return complex(total * g.field_grid.cell_volume)


def isometry_defect(U: WaveletCoefficients, V: WaveletCoefficients, ref: complex) -> float:
    """|(1/C) integral dmu U conj(V) - ref| / |ref| (absolute when ref ~ 0)."""
    if U.nu_grid != V.nu_grid:
        raise GridMismatchError("coefficient sets live on different parameter grids")
    if U.sign != V.sign:
        raise ValidationError("coefficient sets carry different signs")
    lhs = weighted_pairing(U, V) / (U.constant * U.nu_grid.constant_factor)
    err = abs(lhs - ref)
    return float(err / abs(ref)) if abs(ref) > 1e-30 else float(err)
