"""The resolution kernel of a parameter grid, and the pairing it gives.

``K(k) = sum_{a,R} w_a w_R a^3 |PHI(a R^T k)|^2`` is what analysis followed
by synthesis multiplies a spectrum by, so every route that never stores
coefficients (:func:`transform_pairing`,
:func:`~wavecwt.synthesis.project`, :func:`~wavecwt.synthesis.solve_ivp`)
is one kernel evaluation.  The direct sweep runs the slice engine of
:mod:`wavecwt.cwt` in (rotation, dilation block) tasks.

:func:`resolution_kernel` sums each orbit of the support's nodes under the
grid's stabilizer once, at its representative, and copies the value to the
other members (264 of 3116 nodes at the isometry settings); the direct
sweep and the table below both run on the representatives alone, and
:mod:`wavecwt.orbits` states the node-orbit rule.

An "axial" wavelet promises ``PHI(Q q) = PHI(q)`` for every rotation ``Q``
about its axis ``e``, so ``PHI(a R^T k)`` depends on |k| and the direction
cosine ``x = (R e).k / |k|`` alone.  :func:`resolution_kernel` then tabulates
``G(x, |k|) = sum_a w_a a^3 |PHI|^2`` at 48 Chebyshev nodes in ``x`` (the
rule of :func:`~wavecwt.quadrature._chebyshev`, built on first use) per
distinct float |k|^2 of the representatives (83 x 48 x 24 = 95,616
evaluations instead of 24 x 128 x 3116 = 9,572,352 at the isometry settings;
the support's 3116 nodes have 87, some an ulp apart) and sums
the shells' Chebyshev series at each representative's ``x`` with Clenshaw,
47 steps, one recurrence over every rotation per chunk of nodes.  On a grid
whose rotations come in antipodal pairs only each pair's first rotation is
summed, over the even half of the series in 23 steps (the antipode rule of
:mod:`wavecwt.orbits`).  The route is taken only when every shell's last
four coefficients are below 1e-14 of its largest; otherwise the kernel runs
the direct sweep.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .cwt import (_TASK_BYTES, ParameterGrid, _evaluator, _lattice_points, _map_ordered, _shells,
                  _slice_tasks, _sweep, _workspace_bytes)
from .fields import SpectralField3, _radius
from .orbits import _node_orbits, _stabilizer
from .quadrature import _chebyshev
from .wavelets import PhysicalWavelet, _tilt_axis

__all__ = ["resolution_kernel", "transform_pairing"]

_CHEB_NODES = 48  # J: Chebyshev nodes in the direction cosine per |k| shell
_CHEB_TAIL = 1e-14  # certificate: a shell's last four coefficients over its largest


def _axial_table(wavelet: PhysicalWavelet, nu_grid: ParameterGrid, shells: np.ndarray):
    """Per-shell Chebyshev coefficients of an "axial" kernel's dilation sums, or None.

    With ``e`` the wavelet's axis and ``p = _tilt_axis(e)``, the axial
    contract gives ``PHI(a R^T k) = PHI(a r (x e + sqrt(1 - x^2) p))`` with
    ``r = |k|`` and ``x = (R e).k / r``.  On every distinct float |k|^2 in
    ``shells``, ``G(x, r) = sum_a w_a a^3 |PHI(...)|^2`` over every
    dilation is tabulated at the J first-kind Chebyshev nodes (``S J n_a``
    evaluations for S shells at the points ``r (x e + sqrt(1 - x^2) p)``
    themselves, with no rotation, in blocks of as many dilations as fit
    half a task's working set, added to the table row by row) and turned
    into the coefficients ``c_n`` of its Chebyshev series, so that
    ``G(x, r) = sum_n c_n T_n(x)``.  Returns a (J, S) array: row ``n``
    holds ``c_n`` of every shell.  The table depends on the dilations and
    the shells alone, never on the rotations.

    None unless every shell's series is certified: its last four
    coefficients are at most ``_CHEB_TAIL`` times its largest.
    """
    theta, dct = _chebyshev(_CHEB_NODES)
    axis = np.asarray(wavelet.axis)
    along = np.multiply.outer(np.sqrt(shells), np.cos(theta)).ravel()  # r x, shell-major
    across = np.multiply.outer(np.sqrt(shells), np.sin(theta)).ravel()  # r sqrt(1 - x^2)
    points = [along * e + across * t for e, t in zip(axis, _tilt_axis(axis))]
    phi = _evaluator(wavelet, along.size)
    a = nu_grid.a_nodes
    weights = nu_grid.a_weights * a**3
    table = np.zeros(along.size)
    block = max(1, (_TASK_BYTES // 2) // max(1, _workspace_bytes(wavelet, along.size)))
    for lo in range(0, nu_grid.n_a, block):
        rows = slice(lo, lo + block)
        for w, row in zip(weights[rows], phi(points, a[rows], power=True)):
            table += w * row
    coeffs = np.einsum("nj,sj->ns", dct, table.reshape(shells.size, _CHEB_NODES))
    if (np.abs(coeffs[-4:]).max(axis=0) > _CHEB_TAIL * np.abs(coeffs).max(axis=0)).any():
        return None
    return coeffs


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


def _axial_kernel(wavelet: PhysicalWavelet, nu_grid: ParameterGrid, nodes, stabilizer):
    """An "axial" :func:`resolution_kernel` at the lattice ``nodes``, from a table.

    ``nodes`` are flat lattice indices or a mask (see
    :func:`~wavecwt.cwt._lattice_points`).

    The table is :func:`_axial_table` on the nodes' |k| shells.

    At each node ``K(k) = sum_R w_R G(x_R, |k|)`` with ``x_R = (R e).k / |k|``,
    the shell's Chebyshev series summed by :func:`_clenshaw` in 47 steps.
    ``stabilizer`` is :func:`~wavecwt.orbits._stabilizer`'s ``(group,
    images)``.  When it holds ``-I``, every rotation has an antipodal
    partner, its image under ``-I`` (``(theta1 + pi, pi - theta2)`` is the
    partner of ``(theta1, theta2)`` on every grid with an even ``n_theta1``,
    since the Gauss-Legendre nodes are symmetric with equal weights), so
    ``x_R'(k) = -x_R(k)`` at every node, and ``T_n(-x) = (-1)^n T_n(x)`` and
    ``T_2j(x) = T_j(2 x^2 - 1)`` give

        w_R G(x) + w_R' G(-x) = (w_R + w_R') sum_j c_2j T_j(2 x^2 - 1),

    so only the first rotation of each pair is summed, over the even
    coefficients at ``2 x^2 - 1`` in 23 steps.

    The nodes go in chunks of half a task's working set.  A chunk gathers
    its nodes' coefficients once, runs one recurrence on ``(P, m)`` arrays
    for the P summed rotations and its m nodes, and adds the weighted rows
    in rotation order.  Every step is elementwise per node, so the values
    do not depend on the chunks; the buffers are allocated once per call.

    None when :func:`_axial_table` is.
    """
    k = _lattice_points(nu_grid.field_grid, nodes)
    shells, back = _shells(k)
    table = _axial_table(wavelet, nu_grid, shells)
    if table is None:
        return None
    group, images = stabilizer
    antipode = (group == -np.eye(3)).all(axis=(1, 2))
    paired = bool(antipode.any())  # otherwise (odd n_theta1) no rotation pairs
    firsts = np.arange(nu_grid.n_rotations)
    weights, series = nu_grid.rotation_weights, table
    if paired:
        partner = images[antipode.argmax()]
        weights = weights + weights[partner]  # w_R + w_R'
        firsts, series = np.flatnonzero(partner > firsts), table[::2]
    directions = np.einsum("rij,j->ri", nu_grid.rotations, np.asarray(wavelet.axis))[firsts]
    weights = weights[firsts, None]
    unit = np.stack(k) / _radius(*k)[2]
    sums = np.zeros(back.size)
    rows = (firsts.size,) * 5 + (len(series),)  # x, the recurrence's four, the coefficients
    step = max(1, (_TASK_BYTES // 2) // (8 * sum(rows)))
    held = [np.empty(n * min(step, sums.size)) for n in rows]
    for lo in range(0, sums.size, step):
        at = slice(lo, lo + step)
        m = sums[at].size
        x, *work, coeffs = (buf[:n * m].reshape(n, m) for buf, n in zip(held, rows))
        np.take(series, back[at], axis=1, out=coeffs, mode="clip")
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
    return sums


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
    ``sum w a^4 PHI conj(PSI) = K / (i c |k|)``.

    Every signed lattice permutation ``A`` that permutes the grid's
    rotations with equal weights (:func:`~wavecwt.orbits._stabilizer`) has
    ``K(A k) = K(k)``.  So K is summed once per orbit of the support's nodes
    under that group, at its representative, and copied to the other
    members (:func:`~wavecwt.orbits._node_orbits`): 264 of 3116 nodes at the
    isometry settings.  A copied value differs from one summed at its own
    node by round-off, a few 1e-15 relative.  A "spherical" grid's group is
    the identity alone; its sweep reduces on |k| shells instead.

    An "axial" wavelet's kernel is summed on the calling thread from
    per-shell Chebyshev series in the direction cosine (:func:`_axial_kernel`)
    when every shell's series is certified.  It then differs from the
    direct sweep's by about 1e-14 of K's largest value over the support;
    where K is many orders below that value, the relative difference is
    larger (1.3e-8 at nodes where K is 4e-8 of its largest, on a
    24 x 2 x 2 grid).  Otherwise, and for every other symmetry, each
    (rotation, dilation block) task evaluates ``PHI(a R^T k)`` on the
    representatives through :func:`~wavecwt.cwt._sweep`.  Each task sums its
    dilations in a fixed order and tasks are summed in order, so the result
    does not depend on ``threads``.
    """
    grid = nu_grid.field_grid
    stabilizer = _stabilizer(nu_grid)
    nodes, member = _node_orbits(grid, stabilizer[0], support)
    values = (_axial_kernel(wavelet, nu_grid, nodes, stabilizer)
              if wavelet.symmetry == "axial" else None)
    if values is None:
        spectra = _sweep(wavelet, nu_grid, _lattice_points(grid, nodes), power=True)
        values = sum(_map_ordered(lambda task: spectra(*task),
                                  _slice_tasks(nu_grid, spectra.width), threads))
    kernel = np.zeros(support.size)
    kernel[support] = values[member]
    return kernel


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
