"""Orbits under the lattice's signed permutations: the slice routes' symmetry plan.

This module alone decides which rotations share their spectra and which
lattice nodes share their resolution kernel.  Three rules, each an identity
of the wavelet's symmetry on every lattice node:

* Orbit rule, the same on every parameter grid.  A signed permutation
  ``A`` of the lattice axes (axes of equal count and spacing may swap, any
  axis may be negated) maps lattice wave vectors to wave vectors of the
  negation-closed lattice (:func:`_closed_points`): each axis's wave
  numbers with ``+pi/h``, the negated Nyquist value, inserted, so that two
  axes of equal count and spacing carry one array and
  ``i -> -i mod (n + 1)`` negates every one of them bit for bit.  When two
  rotations of a parameter grid have ``R_q = A^T R_r`` and equal weights,

      PHI(a R_q^T k) = PHI(a R_r^T A k)

  for any wavelet; an "axial" wavelet's ``PHI(a R^T k)`` depends on
  ``(R e).k`` and |k| alone (see :class:`~wavecwt.wavelets.PhysicalWavelet`),
  so on its grids ``R_q e = A^T R_r e`` suffices.  Rotation ``q``'s values
  on the lattice are then rotation ``r``'s on the closed lattice,
  transposed and reflected: a gather of strided slice copies.
  :func:`_orbits` groups a grid's rotations into orbits under these
  permutations (6 orbits of 8 or 16 from 12 x 6 angles on a cube, 16 of 8
  from 8 x 4 x 4 "none" angles); a grid with no orbit of two rotations
  gets ``maps = None``.  :func:`_orbit_gathers` gives each rotation its
  gather.  :func:`~wavecwt.synthesis.reconstruct_spectrum` evaluates one
  representative per orbit on the closed lattice ((n + 1)^3 nodes on an
  n^3 cube) and gathers every member from it, the representative
  included.  The stored rotations match to 1e-16, so gathered values
  agree with evaluated ones to round-off (1.2e-14 of max |PHI| for the
  packet) and results differ from a per-rotation sweep at that level.

* Antipode rule.  The image of a rotation under ``-I`` is its antipodal
  partner, ``R' e = -R e`` with equal weights; every rotation has one when
  ``n_theta1`` is even.  Then ``x_R' = -x_R`` for the direction cosine
  ``x_R = (R e).k / |k|``, and the resolution kernel
  (:func:`~wavecwt.kernel._axial_kernel`) sums one rotation of each pair over
  the even half of its Chebyshev series.

* Node-orbit rule.  The stabilizer of a parameter grid
  (:func:`_stabilizer`) is the set of signed permutations ``A`` that
  permute its rotations with equal weights.  Each term of
  ``K(A k) = sum_{a,R} w_a w_R a^3 |PHI(a R^T A k)|^2`` is then a term of
  ``K(k)``, so ``K(A k) = K(k)``.  The kernel is summed at one node per
  orbit of the support under the stabilizer (:func:`_node_orbits`: 264 of
  3116 nodes on the isometry band at 16 x 8 angles, |G| = 16) and copied to
  the orbit's other members.  This is the irreducible-wedge sampling of
  k-point integration (Monkhorst and Pack, Phys. Rev. B 13, 5188, 1976).
  A copied value differs from one summed at its own node by round-off,
  since the stored rotations match to 1e-16 and the terms add in another
  order.  On a paired grid ``-I`` is in the stabilizer.

Every rule rests on one matcher, :func:`_image`, run over the whole group
at once; :func:`_symmetry_plan` is the one place that reads the symmetry
tag for it, and the tag decides only what a rotation is matched on:
``R e`` on "axial" grids, the whole ``R`` on "none" grids.  A "spherical"
grid's plan is the identity alone, with no search: its |k| shells are its
orbits already.

No function here calls BLAS.
"""

from __future__ import annotations

from itertools import permutations, product

import numpy as np

from .fields import Grid3


def _lattice_symmetries(grid: Grid3):
    """The signed permutations of the lattice axes, fewest negated axes first: (G, 3, 3).

    Each is a 3 x 3 matrix ``A`` with ``(A k)_i = s_i k_p(i)``.  Two axes
    may be swapped only when they have equal counts and equal spacings, so
    that their wave numbers are one array; any axis may be negated, which
    maps its wave numbers onto the closed lattice's (:func:`_closed_points`).
    A cube allows 48, any other grid the 8 sign flips.  The identity comes
    first.
    """
    axes = [(grid.n_x, grid.h_x), (grid.n_y, grid.h_y), (grid.n_z, grid.h_z)]
    perms = [perm for perm in permutations(range(3))
             if all(axes[p] == axes[i] for i, p in enumerate(perm))]
    signs = np.array(list(product((1.0, -1.0), repeat=3)))
    group = np.zeros((len(perms), len(signs), 3, 3))
    for elements, perm in zip(group, perms):
        elements[:, [0, 1, 2], perm] = signs
    group = group.reshape(-1, 3, 3)
    return group[np.argsort((group < 0).sum(axis=(1, 2)), kind="stable")]


def _image(keys: np.ndarray, weights: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Each rotation's match under each signed permutation of ``group``: (G, n), -1 where none.

    ``keys`` holds what a rotation is matched on, ``m`` vectors per rotation
    in an (n, m, 3) array (see :func:`_symmetry_plan`), and ``group`` a
    (G, 3, 3) stack.  Under ``a``, rotation ``r`` matches ``q`` when every
    key of ``q`` is ``a^T`` times the same key of ``r`` to 1e-12 and their
    weights agree to 4 ulps; ``r`` takes the first matching ``q``.  The
    match is made on the keys and weights, never on the index layout.
    Each key finds its candidates among one sorted projection of the
    targets of every (element, rotation) pair at once, so the search takes
    ``O(G n log(G n))`` time and ``O(G n)`` memory.
    """
    n, m = keys.shape[:2]
    # a^T v: column l of a holds its one nonzero entry, a sign, in row rows[l]
    rows = np.abs(group).argmax(axis=1)
    signs = np.take_along_axis(group, rows[:, None, :], axis=1)[:, 0]
    probe = np.resize([0.48, 0.6, 0.64], (m, 3)) / m
    # (a^T v).probe = v.(a probe): the targets' projections, element-major
    wanted = np.einsum("rjk,gjk->gr", keys, np.einsum("gkl,jl->gjk", group, probe)).ravel()
    order = np.argsort(wanted)
    ranked = wanted[order]
    # |probe.(v - t)| <= |probe|_1 max|v - t|: a match projects within 2e-12 of its key
    p = np.einsum("rjk,jk->r", keys, probe)
    lo = np.searchsorted(ranked, p - 2e-12, "left")
    hi = np.searchsorted(ranked, p + 2e-12, "right")
    counts = hi - lo
    q = np.repeat(np.arange(n), counts)  # every (key q, candidate target) pair
    t = order[np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)]
    g, r = np.divmod(t, n)
    # component-major (3 m, pairs) arrays: each comparison runs along the pairs
    flat = keys.reshape(n, -1).T
    columns = (rows[:, None, :] + 3 * np.arange(m)[:, None]).reshape(len(group), -1)
    targets = flat[columns[g].T, r] * np.tile(signs, m)[g].T
    w_q, w_r = weights[q], weights[r]
    match = ((np.abs(flat[:, q] - targets) <= 1e-12).all(axis=0)
             & (np.abs(w_q - w_r) <= 4 * np.finfo(float).eps * np.maximum(w_q, w_r)))
    image = np.full(wanted.size, n)
    np.minimum.at(image, t[match], q[match])
    image[image == n] = -1
    return image.reshape(len(group), n)


def _symmetry_plan(nu_grid):
    """``(group, images)``: how the lattice's signed permutations move the rotations.

    ``group`` is :func:`_lattice_symmetries` of the field grid, identity
    first, and ``images`` each rotation's match under each
    element (:func:`_image`).  This is the one reading of the symmetry tag
    in the slice routes' plan, and the tag decides one thing: what a
    rotation is matched on.  An "axial" grid's rotations are matched on
    ``R e``, on which its spectra depend; every other grid's on the whole
    ``R``, since ``PHI(a R_q^T k) = PHI(a R_r^T A k)`` whenever
    ``R_q = A^T R_r``, for any wavelet.  A "spherical" grid's plan is its
    one rotation, the identity, as its own image under the identity alone,
    with no search: its |k| shells are its orbits already.
    """
    if nu_grid.symmetry == "spherical":
        return np.eye(3)[None], np.zeros((1, 1), dtype=np.intp)
    group = _lattice_symmetries(nu_grid.field_grid)
    if nu_grid.symmetry == "axial":
        keys = np.einsum("rij,j->ri", nu_grid.rotations, np.asarray(nu_grid.axis))[:, None]
    else:
        keys = nu_grid.rotations.transpose(0, 2, 1)  # the columns of each R
    return group, _image(keys, nu_grid.rotation_weights, group)


def _orbits(nu_grid):
    """The rotations' orbits under the lattice's signed permutations: ``(orbits, maps)``.

    ``orbits`` lists tuples of rotation indices, each led by its
    representative, its lowest index, with the members after it in index
    order; orbits come in the order of their representatives.  ``maps[q]``
    is a signed permutation ``A`` (:func:`_lattice_symmetries`) that takes
    ``q``'s representative ``r`` to ``q`` in :func:`_symmetry_plan`'s match
    (``R_q e = A^T R_r e`` on an "axial" grid, ``R_q = A^T R_r`` on the
    others), the one with the fewest negated axes; a representative's is
    the identity.  Then ``PHI(s R_q^T k) = PHI(s R_r^T A k)``, and ``A k``
    is a node of the closed lattice.  An orbit holds the images of its
    representative under every element of the group.  The rule is the same
    on every grid: ``maps`` is None exactly when no orbit has two members
    (a spherical or single-rotation grid, or one whose rotations share no
    lattice symmetry), and such rotations are evaluated on the lattice
    itself.
    """
    n = nu_grid.n_rotations
    group, images = _symmetry_plan(nu_grid)  # images: (|G|, n), identity first
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
    maps = [group[i] for i in element] if len(orbits) < n else None
    return [tuple(orbit) for orbit in orbits.values()], maps


def _stabilizer(nu_grid):
    """``(group, images)``: the signed permutations that permute the grid's rotations.

    The elements of :func:`_symmetry_plan`'s group whose images are a
    permutation of the rotations, with those permutations: for each such
    ``A`` and every wave vector, ``sum_R w_R |PHI(a R^T A k)|^2`` adds the
    same terms as at ``k``, so the resolution kernel has ``K(A k) = K(k)``.
    The identity comes first.  On an "axial" grid with an even ``n_theta1``
    it includes ``-I``, whose permutation pairs each rotation with its
    antipodal partner; a "spherical" grid's is the identity alone.
    """
    group, images = _symmetry_plan(nu_grid)
    keep = (np.sort(images, axis=1) == np.arange(images.shape[1])).all(axis=1)
    return group[keep], images[keep]


_CHUNK_BYTES = 1 << 19  # the image indices of one chunk of nodes in _node_orbits


def _node_orbits(grid: Grid3, group: np.ndarray, support: np.ndarray):
    """The support's nodes in orbits under ``group``: ``(representatives, member)``.

    ``support`` is a boolean mask over the flattened lattice and ``group`` a
    (G, 3, 3) stack of signed permutations that is closed under products
    (:func:`_stabilizer`).  A node's images ``A k`` are nodes of the closed
    lattice (:func:`_closed_points`); those on the lattice and in the
    support share its orbit, and the least of their flat indices is its
    representative.  ``representatives`` holds those flat indices in
    increasing order and ``member[i]`` the position among them of the
    ``i``-th support node's representative, so ``values[member]`` copies
    values on the representatives to every support node.  A group of the
    identity alone leaves every node its own representative: it returns
    ``(support, slice(None))``, and no index array of the support's size.

    The images are index arithmetic per axis: a kept axis keeps its index,
    a negated one maps ``i -> -i mod n`` and leaves the lattice at the
    Nyquist index n/2.  Nodes go in chunks of 512 KiB of image indices.
    """
    if len(group) == 1:
        return support, slice(None)
    nodes = np.flatnonzero(support)
    n_nodes = grid.node_count
    shape = grid.shape  # storage axis d holds component 2 - d
    strides = (shape[1] * shape[2], shape[2], 1)
    # offsets[2 d + s]: axis d's share of a flat index per index held, kept (s = 0) or negated
    # (s = 1); a negated Nyquist index leaves the lattice, and its n_nodes takes the sum past
    # the last node
    offsets = np.zeros((6, max(shape)), dtype=np.intp)
    for d, (n, stride) in enumerate(zip(shape, strides)):
        i = np.arange(n)
        offsets[2 * d:2 * d + 2, :n] = i * stride, (-i % n) * stride
        offsets[2 * d + 1, n // 2] = n_nodes
    # (A k)_c = sign k_m: storage axis d = 2 - c reads axis 2 - m, negated where sign < 0, and
    # takes its share from offsets[p // 3] at that axis's index p % 3, p = part[g, d]
    m = np.abs(group).argmax(axis=2)
    sign = np.take_along_axis(group, m[..., None], axis=2)[..., 0]
    part = 3 * (2 * np.arange(3) + (sign < 0)[:, ::-1]) + (2 - m)[:, ::-1]
    used, ids = np.unique(part, return_inverse=True)
    ids = ids.reshape(part.shape)
    # each flat index itself where it is in the support, else n_nodes, as past the last node
    value = np.full(n_nodes + 1, n_nodes)
    value[nodes] = nodes
    index = np.unravel_index(nodes, shape)
    rep = np.empty(nodes.size, dtype=np.intp)
    step = max(1, _CHUNK_BYTES // (8 * len(group)))
    for lo in range(0, nodes.size, step):
        shares = np.stack([offsets[p // 3][index[p % 3][lo:lo + step]] for p in used])
        flat = shares[ids[:, 0]]
        flat += shares[ids[:, 1]]
        flat += shares[ids[:, 2]]
        rep[lo:lo + step] = value.take(flat, out=flat, mode="clip").min(axis=0)
    representatives = nodes[rep == nodes]
    return representatives, np.searchsorted(representatives, rep)


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
