"""Parameter-measure discretization and wavelet coefficients of solutions.

The decomposition parameters are dilation a, translation b and rotation
angles; the measure is ``d theta1 d theta2 sin(theta2) [d theta3] da/a^4 d^3b``.
Discretization:

  * dilations: log-uniform nodes with trapezoid weights in log a, mapped to
    da/a^4 analytically;
  * rotations: trapezoid in the azimuth about the wavelet's symmetry axis
    times Gauss-Legendre in the cosine of the tilt angle, the product rule
    of :func:`~wavecwt.quadrature._sphere_rule` (plus a trapezoid third
    angle for wavelets without any symmetry);
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
Routes that never store coefficients multiply by the resolution kernel of
:mod:`wavecwt.kernel`, which runs the slice engine below.

Every slice route (:func:`analyze`, synthesis, the resolution kernel)
runs (rotation, dilation block) tasks, rotation-major, each block holding as
many dilations as fit a 2 MiB working set of the points evaluated per
dilation (:func:`_blocks`, the one rule that cuts every work loop): the field's nodes where coefficients are stored (one slice at
64^3, four at 32^3), else the kernel's support nodes or |k| shells.  A
task that evaluates no point per dilation (an empty support's) covers
every dilation.  :func:`~wavecwt.synthesis.reconstruct_spectrum`
runs (orbit, dilation block) tasks instead (see below); a route that
gathers holds two lattice slabs per dilation and passes twice the width,
so its blocks hold half as many dilations.  Tasks never depend on the
thread count, so a spherical grid's single rotation still keeps every
worker busy and results do not depend on ``threads``.
Each task reduces over its own dilations (``np.einsum`` in the kernel, real
weights on each row and a row-order sum in synthesis) and ``R^T k`` is
formed by broadcasting: no slice route calls BLAS, whose own thread pool
would compete with the ``threads`` workers.  The wavelet evaluator takes
points that are already rotated: a sweep forms ``R^T k`` per task, and the
kernel's axial table passes its own points.  A support given as flat indices
(the kernel's node representatives, :func:`analyze`'s support) is read
from the lattice axes' wave numbers, never from whole lattice meshes.

The Fourier layer's origin phase and cell volume are diagonal in k and
independent of (a, R), so :func:`analyze` applies the inverse factor to
``u_hat`` once per call; each task scatters ``a^{3/2} conj(PHI) v`` onto its
coefficient rows by the support's flat indices and runs the bare inverse FFT
on them in place, pruned to the lattice lines the support reaches
(:func:`~wavecwt.fields._pruned_ifft`: about 1.95 N transformed points per
slice instead of 3 N on a 9.5% |k| band at 32^3), with the same bytes.

A "spherical" wavelet promises a radial spectrum (see
:class:`~wavecwt.wavelets.PhysicalWavelet`), so ``PHI(a R^T k)`` takes one
value per distinct |k|^2 of the lattice (4051 evaluations instead of 262144
per dilation on a 64^3 cube).  The sweep evaluates it on those shells, where
the kernel's share is also reduced, and gathers the values onto the nodes,
so no route handles shells: every caller receives values on its own nodes.

:func:`~wavecwt.synthesis.reconstruct_spectrum` evaluates one
representative per rotation orbit, on any grid whose rotations form orbits
under the lattice's signed permutations (matched on ``R e`` when axial, on
the whole ``R`` otherwise), and gathers the orbit's members from it, as
:mod:`wavecwt.orbits` plans and explains.  :func:`analyze` evaluates every
rotation: on a band support, gathering whole lattice slabs costs about what
evaluating the support's nodes does.
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

from .admissibility import admissibility_constant
from .errors import AdmissibilityError, GridMismatchError, ValidationError
from .fields import (ComplexField3, Grid3, SpectralField3, _integer, _inverse_factor,
                     _positive_finite, _pruned_ifft, _support_runs, fft3)
from .quadrature import _sphere_rule
from .wavelets import (PhysicalWavelet, _ivp_pair, _rot_x, _rot_z, _tilt_axis, _unit_axis,
                       time_antiderivative_wavelet)

__all__ = [
    "ParameterGrid",
    "WaveletCoefficients",
    "make_parameter_grid",
    "build_parameter_grid",
    "refine",
    "rotation_about",
    "analyze",
    "analyze_initial_data",
    "combine_initial_coefficients",
    "weighted_pairing",
    "isometry_defect",
    "default_thread_count",
]


def default_thread_count() -> int:
    """The CPU count: the number of workers that ``threads=None`` means.

    Workers share (rotation or orbit, dilation block) tasks in every slice
    route.  Results are bit-identical for any thread count: tasks are cut
    from the grid and the points evaluated per dilation, and reduced in a
    fixed order regardless of which worker produced them.
    """
    return os.cpu_count() or 1


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
    """Rodrigues rotation about a finite nonzero axis; shape ``np.shape(angle) + (3, 3)``."""
    x, y, z = _unit_axis(axis)
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
    """Parameter grid from an explicit symmetry/axis description.

    Each end of the dilation window is a positive finite number
    (:func:`~wavecwt.fields._positive_finite`, so ``True`` is refused),
    checked before ``a_min < a_max``.  Every count is an integer by
    :func:`~wavecwt.fields._integer` (a bool or 2.5 is not one): ``n_a``
    at least 2 and each angle count at least 1.  The axis is scaled to unit
    length by :func:`~wavecwt.wavelets._unit_axis`, which refuses one that is
    not a finite nonzero 3-vector.
    """
    if symmetry not in ("spherical", "axial", "none"):
        raise ValidationError(f"unknown symmetry tag {symmetry!r}")
    window = "need 0 < a_min < a_max < inf"
    a_min = _positive_finite(a_min, f"{window}: a_min")
    a_max = _positive_finite(a_max, f"{window}: a_max")
    if not a_min < a_max:
        raise ValidationError(window)
    counts = [_integer(n_a, 2)] + [_integer(n, 1) for n in (n_theta1, n_theta2, n_theta3)]
    if None in counts:
        raise ValidationError("need integer node counts: n_a >= 2, >= 1 per rotation angle")
    n_a, n_theta1, n_theta2, n_theta3 = counts
    axis = _unit_axis(axis)
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
        theta1, mu, weights = _sphere_rule(n_theta1, n_theta2)
        theta2 = np.arccos(mu)
        if symmetry == "axial":
            r1 = rotation_about(axis, theta1)[:, None]
            rotations = r1 @ rotation_about(_tilt_axis(axis), theta2)[None, :]
            rotation_weights = weights.ravel()
            angle_shape = (n_theta1, n_theta2)
            factor = 1.0
        else:
            theta3 = 2.0 * np.pi * np.arange(n_theta3) / n_theta3
            r12 = _rot_z(theta1)[:, None] @ _rot_x(theta2)[None, :]
            rotations = r12[:, :, None] @ _rot_z(theta3)[None, None, :]
            rotation_weights = np.repeat(weights.ravel() * (2.0 * np.pi / n_theta3), n_theta3)
            angle_shape = (n_theta1, n_theta2, n_theta3)
            factor = 2.0 * np.pi
        rotations = rotations.reshape(-1, 3, 3)
    axis_t = tuple(float(v) for v in axis)
    return ParameterGrid(field_grid, symmetry, axis_t, a_nodes, a_weights,
                         rotations, rotation_weights, angle_shape, factor)


def refine(grid: ParameterGrid, wavelet: PhysicalWavelet) -> ParameterGrid:
    """Same ranges with every node count doubled."""
    return make_parameter_grid(
        grid.field_grid, wavelet, float(grid.a_nodes[0]), float(grid.a_nodes[-1]),
        2 * grid.n_a, *(2 * n for n in grid.angle_shape),
    )


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
    ``slice(None)`` for every node.  Flat indices read each component from
    its axis's wave numbers (``grid.k_axes()``), without the lattice
    meshes; a mask or the whole lattice is read from the meshes, which cost
    less than the axes' gathers once most nodes are flagged.  Both give the
    same bytes.
    """
    if isinstance(support, np.ndarray) and support.dtype != bool:
        iz, iy, ix = np.unravel_index(support, grid.shape)
        kx, ky, kz = grid.k_axes()
        return [kx[ix], ky[iy], kz[iz]]
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


def _evaluator(wavelet: PhysicalWavelet, width: int):
    """``phi(q, ar, power)``: ``PHI(a q)`` on ``width`` points ``q`` for the dilations ``ar``.

    ``q`` yields the three components of P = ``width`` points, already
    rotated (a slice route passes ``R^T k``); the values have shape
    (len(ar), P).  With ``power`` they are ``|PHI|^2``, squared in the spent
    wave-vector buffers.

    Each worker thread evaluates in its own :class:`_Workspace`, which lives
    as long as ``phi``: the three scaled wave-vector components and the
    buffers of the wavelet's buffer form (see
    :class:`~wavecwt.wavelets.PhysicalWavelet`; without one it allocates its
    own values), P points per row.  The values
    may be a workspace view: the caller may overwrite them, and they last
    until that worker's next call.
    """
    into = getattr(wavelet.spectral, "into", None)
    workspace = _Workspace(width, _evaluator_dtypes(wavelet))

    def phi(q, ar, power=False):
        kx, ky, kz, *buffers = workspace.rows(len(ar))
        for component, scaled in zip(q, (kx, ky, kz)):
            np.multiply.outer(ar, component, out=scaled)
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
    :func:`~wavecwt.kernel.resolution_kernel`, a new (M,) array
    ``w_R sum_{a in rows} w_a a^3 |PHI(a R^T k)|^2``.  A "spherical"
    wavelet's spectrum depends on |k| alone, so it is evaluated and reduced
    once per distinct float |k|^2 ``s`` at ``(0, 0, sqrt(s))``, then gathered
    onto the points.  ``spectra.width`` counts the points evaluated per
    dilation: M, or the shells.

    Each call forms ``R^T k`` one component at a time, as
    ``r[0, i] k_0 + r[1, i] k_1 + r[2, i] k_2``, and the wavelet is
    evaluated there by :func:`_evaluator`, in per-worker
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
    phi = _evaluator(wavelet, k[0].size)

    def spectra(idx, rows):
        r = nu_grid.rotations[idx]
        rotated = (r[0, i] * k[0] + r[1, i] * k[1] + r[2, i] * k[2] for i in range(3))  # R^T k
        values = phi(rotated, a[rows], power)
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


def _blocks(n: int, item_bytes: int):
    """The slices that cover ``range(n)`` in order, ``max(1, 2 MiB // item_bytes)`` items each.

    The one rule that cuts work into blocks that fit one core's cache: the
    slice tasks' dilations, the axial table's dilations, its Clenshaw
    chunks of nodes and the node-orbit chunks.  Items of 0 bytes make one
    block.
    """
    step = max(1, _TASK_BYTES // item_bytes) if item_bytes else max(1, n)
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _slice_tasks(nu_grid: ParameterGrid, width: int, orbits=None):
    """``(idx, rows)`` for every (rotation, dilation block), rotation-major.

    The blocks are :func:`_blocks` of dilations of ``width`` complex values
    each, so a block's slabs fit one core's cache, and a task of width 0
    (an empty support's) evaluates nothing per dilation and covers them
    all; the list depends on the grid and ``width`` alone, never on the
    thread count.  A route whose task holds more than one slab per dilation
    passes their total width.  With ``orbits`` (see :func:`~wavecwt.orbits._orbits`) the
    tasks are ``(orbit, rows)`` for every (orbit, dilation block), in orbit
    order.
    """
    blocks = _blocks(nu_grid.n_a, 16 * width)
    units = range(nu_grid.n_rotations) if orbits is None else orbits
    return [(unit, rows) for unit in units for rows in blocks]


def _pool_size(requested: int, n_items: int, cpus: Optional[int]) -> int:
    """Worker threads for ``n_items`` tasks: at most the request, the CPUs and the tasks."""
    return max(1, min(requested, cpus or 1, n_items))


def _working_set(nu_grid: ParameterGrid, threads: Optional[int], spectra: int, slabs: int,
                 evaluated: int, orbits=None) -> int:
    """Bytes the largest task of a materialized route holds, times the workers.

    What :func:`analyze` and :func:`~wavecwt.synthesis.reconstruct_spectrum`
    hold beyond their inputs and the coefficients, per dilation: a task
    holds its spectra on ``spectra`` points, ``slabs`` lattice slabs (the
    one it transforms, and a gathered member's values where the route
    gathers) and ``evaluated`` bytes, its sweep evaluator's workspace
    (:func:`_workspace_bytes` at a bound on the points the sweep evaluates
    per dilation, so that the check can run before the sweep is built).
    The tasks are :func:`_slice_tasks` of width ``slabs`` times the
    lattice's nodes, over ``orbits`` when given.  A buffer form leaves the
    spectra in the evaluator's workspace, so they may be counted twice: the
    count is an upper bound.
    """
    n = nu_grid.field_grid.node_count
    tasks = _slice_tasks(nu_grid, slabs * n, orbits)
    block = max(rows.stop - rows.start for _, rows in tasks)
    workers = _pool_size(threads or default_thread_count(), len(tasks), os.cpu_count())
    return workers * block * (16 * (spectra + slabs * n) + evaluated)


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


def _require_constant(wavelet: PhysicalWavelet, constant):
    """``constant``, or ``wavelet``'s admissibility constant when None, as a complex.

    :class:`AdmissibilityError` when the computed quadrature does not
    converge, :class:`ValidationError` when the constant is zero, given or
    computed: every synthesis divides by it.
    """
    if constant is None:
        report = admissibility_constant(wavelet)
        if not report.converged:
            raise AdmissibilityError(f"wavelet is not admissible ({report.divergence_reason}); "
                                     "analysis requires a finite constant")
        constant = report.value
    if constant == 0:
        raise ValidationError("the admissibility constant is zero")
    return complex(constant)


def analyze(s_part: SpectralField3, sign: str, wavelet: PhysicalWavelet,
            nu_grid: ParameterGrid, constant: Optional[complex] = None,
            threads: Optional[int] = None, out=None) -> WaveletCoefficients:
    """Wavelet coefficients of a frequency-pure solution part.

    ``s_part`` holds the t = 0 spectral data of the chosen sign, which must
    be ``wavelet``'s own sign tag.  Each
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
        _require_memory(_working_set(nu_grid, threads, grid.node_count, 1,
                                     _workspace_bytes(wavelet, width)),
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
    t = 0.  No frequency splitting of the data is performed.  The wavelets
    must be a (plus, minus) pair with one wave speed, as in
    :func:`~wavecwt.synthesis.solve_ivp`.
    """
    if w.grid != v.grid:
        raise GridMismatchError("initial data must share one grid")
    _ivp_pair(wavelet_plus, wavelet_minus, "analyze_initial_data")
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
    return _relative_defect(weighted_pairing(U, V) / (U.constant * U.nu_grid.constant_factor),
                            ref)


def _relative_defect(lhs: complex, ref: complex) -> float:
    """``|lhs - ref| / |ref|``, or ``|lhs - ref|`` where ``|ref| <= 1e-30``."""
    return float(abs(lhs - ref) / (abs(ref) if abs(ref) > 1e-30 else 1.0))
