"""Rotation orbits under the lattice's signed permutations: the slice routes' symmetry plan.

This module alone decides which rotations share their spectra.  Three
rules, each an identity of the wavelet's symmetry on every lattice node:

* Orbit rule.  An "axial" wavelet's ``PHI(a R^T k)`` depends on
  ``(R e).k`` and |k| alone (see :class:`~wavecwt.wavelets.PhysicalWavelet`).
  A signed permutation ``A`` of the lattice axes (axes of equal count and
  spacing may swap, any axis may be negated) maps lattice wave vectors to
  wave vectors of the negation-closed lattice (:func:`_closed_points`):
  each axis's wave numbers with ``+pi/h``, the negated Nyquist value,
  inserted, so that two axes of equal count and spacing carry one array and
  ``i -> -i mod (n + 1)`` negates every one of them bit for bit.  When two
  rotations of a parameter grid have ``R_q e = A^T R_r e`` and equal
  weights,

      PHI(a R_q^T k) = PHI(a R_r^T A k),

  so rotation ``q``'s values on the lattice are rotation ``r``'s on the
  closed lattice, transposed and reflected: a gather of strided slice
  copies.  :func:`_orbits` groups a grid's rotations into orbits under
  these permutations (6 orbits of 8 or 16 from 12 x 6 angles on a cube)
  and is the only place that reads the symmetry tag for this: a grid
  without orbits gets ``maps = None``.  :func:`_orbit_gathers` gives each
  rotation its gather.  :func:`~wavecwt.synthesis.reconstruct_spectrum`
  evaluates one representative per orbit on the closed lattice
  ((n + 1)^3 nodes on an n^3 cube) and gathers every member from it, the
  representative included.  The stored rotations match to 1e-16, so
  gathered values agree with evaluated ones to round-off (1.2e-14 of
  max |PHI| for the packet) and results differ from a per-rotation sweep
  at that level.

* Antipode rule.  The image of a rotation under ``-I`` (:func:`_image`) is
  its antipodal partner, ``R' e = -R e`` with equal weights; every rotation
  has one when ``n_theta1`` is even.  Then ``x_R' = -x_R`` for the
  direction cosine ``x_R = (R e).k / |k|``, and the resolution kernel
  (:func:`~wavecwt.cwt._axial_kernel`) sums one rotation of each pair over
  the even half of its Chebyshev series.

* Twin rule.  The lattice's wave vectors negate bit for bit except at the
  Nyquist index, so on a paired grid ``K(-k) == K(k)`` bit for bit: the
  kernel sums one node of each ``+/-k`` couple (:func:`_twins`) and copies
  its value to the other.

No function here calls BLAS.
"""

from __future__ import annotations

from itertools import permutations, product

import numpy as np

from .fields import Grid3


def _lattice_symmetries(grid: Grid3):
    """The signed permutations of the lattice axes, fewest negated axes first.

    Each is a 3 x 3 matrix ``A`` with ``(A k)_i = s_i k_p(i)``.  Two axes
    may be swapped only when they have equal counts and equal spacings, so
    that their wave numbers are one array; any axis may be negated, which
    maps its wave numbers onto the closed lattice's (:func:`_closed_points`).
    A cube allows 48, any other grid the 8 sign flips.  The identity comes
    first.
    """
    axes = [(grid.n_x, grid.h_x), (grid.n_y, grid.h_y), (grid.n_z, grid.h_z)]
    group = []
    for perm in permutations(range(3)):
        if all(axes[p] == axes[i] for i, p in enumerate(perm)):
            for signs in product((1.0, -1.0), repeat=3):
                a = np.zeros((3, 3))
                a[[0, 1, 2], perm] = signs
                group.append(a)
    return sorted(group, key=lambda a: int((a < 0).sum()))


def _image(nu_grid, a: np.ndarray) -> np.ndarray:
    """Each rotation's match under the signed permutation ``a``, or -1 where it has none.

    Rotation ``q`` matches ``r`` when ``R_q e = a^T R_r e`` to 1e-12 and
    their weights agree to 4 ulps; for an "axial" wavelet then
    ``PHI(s R_q^T k) = PHI(s R_r^T a k)`` at every wave vector.  The match
    is made on the directions and weights, never on the index layout, and
    ``r`` takes the first matching ``q``.  Candidates come from one sorted
    projection of the directions, so the search takes ``O(n log n)`` time
    and ``O(n)`` memory.
    """
    directions = np.einsum("rij,j->ri", nu_grid.rotations, np.asarray(nu_grid.axis))
    targets = np.einsum("ri,ij->rj", directions, a)  # a^T R e
    w = nu_grid.rotation_weights
    probe = np.array([0.48, 0.6, 0.64])
    # |g . (d - t)| <= |g|_1 max|d - t|: a match's projection lies within 2e-12 of the target's
    p = np.einsum("ri,i->r", directions, probe)
    order = np.argsort(p)
    ranked = p[order]
    wanted = np.einsum("ri,i->r", targets, probe)
    lo = np.searchsorted(ranked, wanted - 2e-12, "left")
    hi = np.searchsorted(ranked, wanted + 2e-12, "right")
    counts = hi - lo
    r = np.repeat(np.arange(len(w)), counts)  # every (r, candidate q) pair
    q = order[np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)]
    match = ((np.abs(directions[q] - targets[r]).max(axis=1, initial=0.0) <= 1e-12)
             & (np.abs(w[q] - w[r]) <= 4 * np.finfo(float).eps * np.maximum(w[q], w[r])))
    image = np.full(len(w), len(w))
    np.minimum.at(image, r[match], q[match])
    image[image == len(w)] = -1
    return image


def _orbits(nu_grid):
    """The rotations' orbits under the lattice's signed permutations: ``(orbits, maps)``.

    ``orbits`` lists tuples of rotation indices, each led by its
    representative, its lowest index, with the members after it in index
    order; orbits come in the order of their representatives.  ``maps[q]``
    is a signed permutation ``A`` (:func:`_lattice_symmetries`) with
    ``R_q e = A^T R_r e`` for ``q``'s representative ``r`` (see
    :func:`_image`), the one with the fewest negated axes; a
    representative's is the identity.  Then
    ``PHI(s R_q^T k) = PHI(s R_r^T A k)`` for an "axial" wavelet, and
    ``A k`` is a node of the closed lattice.  An orbit holds the images of
    its representative under every element of the group.  Only an "axial"
    grid has orbits: every other grid's rotations are each their own, with
    ``maps = None``, and are evaluated on the lattice itself.
    """
    n = nu_grid.n_rotations
    if nu_grid.symmetry != "axial":
        return [(idx,) for idx in range(n)], None
    group = _lattice_symmetries(nu_grid.field_grid)
    images = np.array([_image(nu_grid, a) for a in group])  # (|G|, n), identity first
    rep = np.arange(n)
    np.minimum(rep, np.where(images >= 0, images, n).min(axis=0), out=rep)
    # a member is the image of its representative, which is its own representative
    found = images[:, rep] == np.arange(n)
    ok = found.any(axis=0) & (rep[rep] == rep)
    rep[~ok] = np.flatnonzero(~ok)
    element = np.where(ok, found.argmax(axis=0), 0)  # first in the group's order
    orbits = {}
    for q in range(n):
        orbits.setdefault(int(rep[q]), []).append(q)
    return [tuple(orbit) for orbit in orbits.values()], [group[i] for i in element]


def _closed_shape(grid: Grid3):
    """``(n_z + 1, n_y + 1, n_x + 1)``: the storage shape of the closed lattice."""
    return tuple(n + 1 for n in grid.shape)


def _closed_points(grid: Grid3):
    """The wave vectors of the negation-closed lattice: three flat arrays, z slowest.

    Each axis holds ``grid.k_axes()``'s n wave numbers with ``+pi/h``, the
    negation of the Nyquist entry, inserted at index n/2: n + 1 numbers
    ordered ``0..n/2, -n/2..-1``, which ``i -> -i mod (n + 1)`` negates bit
    for bit.  Dropping index n/2 on every axis leaves ``grid.k_mesh()``.
    """
    closed = []
    for k in grid.k_axes():
        half = k.size // 2
        closed.append(np.concatenate([k[:half], -k[half:half + 1], k[half:]]))
    KZ, KY, KX = np.meshgrid(closed[2], closed[1], closed[0], indexing="ij")
    return [KX.ravel(), KY.ravel(), KZ.ravel()]


def _twins(grid: Grid3, nodes: np.ndarray) -> np.ndarray:
    """Each node's twin: the position of its negation ``-k`` among ``nodes``, or -1.

    ``nodes`` are flat lattice indices in increasing order.  Per axis,
    ``i -> -i mod n`` negates the wave number bit for bit, except at the
    Nyquist index n/2, whose negation ``+pi/h`` is off the lattice (see
    :func:`_closed_points`).  -1 where ``-k`` is off the lattice or not
    among ``nodes``; k = 0 is its own twin.
    """
    index = np.unravel_index(nodes, grid.shape)
    negated = np.ravel_multi_index([-i % n for i, n in zip(index, grid.shape)], grid.shape)
    on = np.logical_and.reduce([i != n // 2 for i, n in zip(index, grid.shape)])
    at = np.searchsorted(nodes, negated).clip(max=max(nodes.size - 1, 0))
    return np.where(on & (nodes[at] == negated), at, -1)


def _gatherer(a: np.ndarray, shape):
    """``gather(src, out)``: ``out[:, k] = src[:, A k]``, closed lattice to lattice.

    ``src`` is a ``(rows,) + _closed_shape`` slab on the closed lattice
    (:func:`_closed_points`), ``out`` a ``(rows,) + shape`` slab on the
    lattice of ``shape``.  The gather is a transpose of the source's axes
    and, per storage axis, strided slice copies: two on a kept axis, around
    the inserted index n/2, and three on a negated one, the reflection
    ``i -> -i mod (n + 1)``.  At most 27 copies, no index array.  (A
    product inside the copy would run numpy's strided loops; a contiguous
    product afterwards is cheaper.)
    """
    # storage axis d of a (rows, nz, ny, nx) slab holds component c = 3 - d; out's
    # component c reads src's component m = p^-1(c), reflected when s_m < 0
    source = [int(np.flatnonzero(a[:, c])[0]) for c in (2, 1, 0)]
    axes = (0,) + tuple(3 - m for m in source)
    runs = []  # per storage axis, (out's, src's) index runs
    for n, m, c in zip(shape, source, (2, 1, 0)):
        h = n // 2
        if a[m, c] > 0:
            runs.append(((slice(0, h), slice(0, h)), (slice(h, n), slice(h + 1, n + 1))))
        else:
            runs.append(((slice(0, 1), slice(0, 1)), (slice(1, h), slice(n, h + 1, -1)),
                         (slice(h, n), slice(h, 0, -1))))
    pieces = [tuple((slice(None),) + side for side in zip(*piece)) for piece in product(*runs)]

    def gather(src, out):
        view = src.transpose(axes)
        for dst, at in pieces:
            out[dst] = view[at]
        return out

    return gather


def _orbit_gathers(grid: Grid3, maps):
    """Each rotation's gather from its representative's values on the closed lattice.

    Entry ``q`` is :func:`_gatherer` of ``maps[q]`` (see :func:`_orbits`)
    onto ``grid``; rotations sharing a map share its gather.
    """
    gathers = {}
    for a in maps:
        if a.tobytes() not in gathers:
            gathers[a.tobytes()] = _gatherer(a, grid.shape)
    return [gathers[a.tobytes()] for a in maps]
