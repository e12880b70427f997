"""Parameter grids, coefficient transforms and the isometry property."""

import dataclasses
import json
import resource
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import wavecwt as wc
from wavecwt import cwt, synthesis
from wavecwt.cwt import _lattice_points, _map_ordered, _pool_size, _slice_tasks, _sweep
from wavecwt.orbits import (_closed_points, _closed_shape, _gatherer, _lattice_symmetries,
                            _node_orbits, _orbits, _stabilizer, _symmetry_plan)
from wavecwt.fields import _forward_factor, _lattice_ifft
from wavecwt.wavelets import _tilt_axis
from conftest import EXP_SPH_A_RANGE, band_limited_spectrum, rel_l2


class TestParameterGrid:
    def test_two_angle_weight_is_full_sphere(self, grid16, packet):
        pg = wc.make_parameter_grid(grid16, packet, 0.5, 2.0, 8, 16, 8)
        assert pg.angle_shape == (16, 8)
        assert pg.rotation_weights.sum() == pytest.approx(4 * np.pi, abs=1e-12)
        assert pg.constant_factor == 1.0

    def test_the_description_is_the_grid(self, grid16):
        # built twice from one description: equal, and one key; an unused third count is no part
        first = wc.build_parameter_grid(grid16, "axial", (1.0, 2.0, 2.0), 0.5, 2.0, 4, 6, 3)
        again = wc.build_parameter_grid(grid16, "axial", (1.0, 2.0, 2.0), 0.5, 2.0, 4, 6, 3, 5)
        assert again is not first and again == first
        assert {first: "kept"}[again] == "kept"
        none = wc.build_parameter_grid(grid16, "none", (1.0, 2.0, 2.0), 0.5, 2.0, 4, 6, 3, 2)
        for one, other in [
            (first, wc.build_parameter_grid(grid16, "axial", (1.0, 2.0, 2.0), 0.5, 2.0, 4, 6, 4)),
            (first, wc.build_parameter_grid(grid16, "axial", (1.0, 2.0, 2.0), 0.5, 2.0, 4, 5, 3)),
            (none, wc.build_parameter_grid(grid16, "none", (1.0, 2.0, 2.0), 0.5, 2.0, 4, 6, 3, 3)),
        ]:
            assert one != other
            assert len({one: 1, other: 2}) == 2

    def test_spherical_skips_angles(self, grid16, exp_sph):
        pg = wc.make_parameter_grid(grid16, exp_sph, 0.5, 2.0, 8)
        assert pg.angle_shape == ()
        assert pg.n_rotations == 1
        assert pg.rotation_weights[0] == pytest.approx(4 * np.pi)

    def test_three_angle_weight_and_factor(self, grid16):
        w = wc.make_wavelet("bateman", {"eps1": 0.5, "eps2": 0.8})
        pg = wc.make_parameter_grid(grid16, w, 0.5, 2.0, 4, 6, 3, 4)
        assert pg.angle_shape == (6, 3, 4)
        assert pg.rotation_weights.sum() == pytest.approx(8 * np.pi**2, rel=1e-12)
        assert pg.constant_factor == pytest.approx(2 * np.pi)

    def test_weights_positive_nodes_increasing(self, grid16, exp_sph):
        pg = wc.make_parameter_grid(grid16, exp_sph, 0.3, 3.0, 11)
        assert np.all(np.diff(pg.a_nodes) > 0)
        assert np.all(pg.a_weights > 0)
        assert np.all(pg.rotation_weights > 0)

    def test_dilation_measure_weights(self, grid16, exp_sph):
        # trapezoid in log a mapped through da/a^4
        pg = wc.make_parameter_grid(grid16, exp_sph, 0.5, 2.0, 9)
        step = np.log(2.0 / 0.5) / 8
        inner = pg.a_weights[1:-1]
        assert np.allclose(inner, step * pg.a_nodes[1:-1] ** -3.0)
        assert pg.a_weights[0] == pytest.approx(0.5 * step * pg.a_nodes[0] ** -3.0)

    def test_z_axis_two_angle_rotation_is_printed_form(self, grid16):
        # for a z-symmetric wavelet the quadrature rotations reduce to
        # Rz(theta1) Rx(theta2) exactly
        w = wc.PhysicalWavelet("plus", lambda kx, ky, kz: np.zeros_like(kx, dtype=complex),
                               None, "axial", 1.0, axis=(0.0, 0.0, 1.0))
        pg = wc.make_parameter_grid(grid16, w, 0.5, 2.0, 2, 4, 3)
        mu, _ = np.polynomial.legendre.leggauss(3)
        theta2 = np.arccos(mu)
        idx = 0
        for i1 in range(4):
            t1 = 2 * np.pi * i1 / 4
            for t2 in theta2:
                expected = wc.rotation_matrix(t1 % (2 * np.pi), t2)
                assert np.allclose(pg.rotations[idx], expected, atol=1e-14)
                idx += 1

    def test_rotation_stacks_match_per_angle_loop(self, grid16):
        def rodrigues(axis, angle):  # a unit axis, taken as given
            x, y, z = axis
            k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
            return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)

        def rot_z(t):
            c, s = np.cos(t), np.sin(t)
            return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

        def rot_x(t):
            c, s = np.cos(t), np.sin(t)
            return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])

        n1, n2, n3 = 5, 3, 4
        mu, wmu = np.polynomial.legendre.leggauss(n2)
        theta1 = 2.0 * np.pi * np.arange(n1) / n1
        theta3 = 2.0 * np.pi * np.arange(n3) / n3
        axis = np.array([1.0, 2.0, 2.0]) / 3.0
        rotations, weights = [], []
        for t1 in theta1:
            for t2, w2 in zip(np.arccos(mu), wmu):
                rotations.append(rodrigues(axis, t1) @ rodrigues(_tilt_axis(axis), t2))
                weights.append((2.0 * np.pi / n1) * w2)
        pg = wc.build_parameter_grid(grid16, "axial", axis, 0.5, 2.0, 2, n1, n2)
        assert np.array_equal(pg.rotations, np.array(rotations))
        assert np.array_equal(pg.rotation_weights, np.array(weights))

        rotations, weights = [], []
        for t1 in theta1:
            for t2, w2 in zip(np.arccos(mu), wmu):
                for t3 in theta3:
                    rotations.append(rot_z(t1) @ rot_x(t2) @ rot_z(t3))
                    weights.append((2.0 * np.pi / n1) * w2 * (2.0 * np.pi / n3))
        pg = wc.build_parameter_grid(grid16, "none", axis, 0.5, 2.0, 2, n1, n2, n3)
        assert np.array_equal(pg.rotations, np.array(rotations))
        assert np.array_equal(pg.rotation_weights, np.array(weights))

    def test_validation(self, grid16, exp_sph):
        with pytest.raises(wc.ValidationError):
            wc.make_parameter_grid(grid16, exp_sph, 2.0, 1.0, 8)
        with pytest.raises(wc.ValidationError):
            wc.make_parameter_grid(grid16, exp_sph, 0.5, 2.0, 1)

    @pytest.mark.parametrize("a_min, a_max", [(True, 2.0), (0.5, True), (0.0, 2.0),
                                              (np.nan, 2.0), (0.5, np.inf), ("0.5", 2.0)])
    def test_each_window_end_is_positive_finite(self, grid16, a_min, a_max):
        # checked before the order test: a bool end is not the dilation 1
        with pytest.raises(wc.ValidationError, match="a_min=|a_max="):
            wc.build_parameter_grid(grid16, "spherical", (0, 0, 1), a_min, a_max, 2)

    @pytest.mark.parametrize("counts", [(24.0, 4, 2, 2), (True, 4, 2, 2), (1, 4, 2, 2),
                                        (4, True, 2, 2), (4, 4, 8.5, 2), (4, 4, 2, 2.5),
                                        (4, 0, 2, 2), (4, "4", 2, 2), (4, 4, 2, np.bool_(True))],
                             ids=str)
    def test_every_count_is_an_integer(self, grid16, counts):
        # 2.5 third angles once built 4 x 2 x 2 rotations with 4 x 2 x 3 weights summing to
        # 63.2, not 8 pi^2; a True first angle count was written into the header as true
        with pytest.raises(wc.ValidationError, match="integer node counts"):
            wc.build_parameter_grid(grid16, "none", (1, 0, 0), 0.5, 2.0, *counts)

    @pytest.mark.parametrize("axis", [(np.nan, 0, 1), (0, 0, 0), (1e-320, 0, 0), (np.inf, 0, 0),
                                      (1, 0), (1, 0, 0, 0)], ids=str)
    def test_axis_is_a_finite_nonzero_3_vector(self, grid16, axis):
        # the wavelet's own axis rule: NaN, zero and underflowing axes once became the z axis,
        # an infinite one warned and a 2-vector raised a bare ValueError
        with pytest.raises(wc.ValidationError, match="axis"):
            wc.build_parameter_grid(grid16, "axial", axis, 0.5, 2.0, 2, 2, 2)

    def test_axis_is_scaled_as_the_wavelet_scales_it(self, grid16):
        w = wc.PhysicalWavelet("plus", lambda kx, ky, kz: 0 * kx, None, "axial", 1.0,
                               axis=(1.0, 2.0, 2.0))
        pg = wc.build_parameter_grid(grid16, "axial", (1.0, 2.0, 2.0), 0.5, 2.0, 2, 2, 2)
        assert pg.axis == w.axis

    def test_numpy_integer_counts_are_integers(self, grid16):
        counts = (np.int64(4), np.int32(4), np.uint8(2), np.int16(2))
        pg = wc.build_parameter_grid(grid16, "none", (1, 0, 0), 0.5, 2.0, *counts)
        assert pg == wc.build_parameter_grid(grid16, "none", (1, 0, 0), 0.5, 2.0, 4, 4, 2, 2)
        assert json.loads(json.dumps(pg.describe()))["angle_shape"] == [4, 2, 2]

    @pytest.mark.parametrize("k_lo, k_hi", [(True, 2.0), (0.5, True), (0.5, np.inf)])
    def test_each_band_edge_is_positive_finite(self, exp_sph, k_lo, k_hi):
        with pytest.raises(wc.ValidationError, match="k_lo=|k_hi="):
            wc.suggest_dilation_range(exp_sph, k_lo, k_hi)

    def test_suggest_dilation_range_covers_band(self, exp_sph):
        a_min, a_max = wc.suggest_dilation_range(exp_sph, 0.7, 1.6)
        assert 0 < a_min < a_max
        # rescaled spectra at the band ends must be inside the window
        assert a_min < 1.0 / 1.6 and a_max > 1.0 / 0.7


def test_lattice_points_from_the_axes_match_the_mesh_gather():
    # flat indices read the axes' wave numbers, masks the meshes: the same bytes on a box whose
    # three axes differ in count and spacing
    grid = wc.Grid3(16, 12, 10, 1.5, 1.25, 0.8, origin=(-12, -10, -6.4))
    mask = np.random.default_rng(5).random(grid.node_count) < 0.3
    meshes = [K.ravel() for K in grid.k_mesh()]
    for support in (np.flatnonzero(mask), np.arange(grid.node_count)):
        expected = [K[support] for K in meshes]
        got = _lattice_points(grid, support)
        assert [k.tobytes() for k in got] == [k.tobytes() for k in expected]
    for support in (mask, slice(None)):
        expected = [K[support].tobytes() for K in meshes]
        assert [k.tobytes() for k in _lattice_points(grid, support)] == expected


class TestWorkerPool:
    @pytest.mark.parametrize("requested, n_items, cpus, expected", [
        (10**6, 10**4, 2, 2),
        (10**6, 3, 64, 3),
        (4, 10**4, 64, 4),
        (2, 0, 2, 1),
        (8, 100, None, 1),
    ])
    def test_pool_size_is_bounded(self, requested, n_items, cpus, expected):
        assert _pool_size(requested, n_items, cpus) == expected


class TestAnalyze:
    def test_self_inner_product_at_identity(self, exp_sph, exp_sph_constant):
        grid = wc.Grid3.cubic(16, 16.0)
        phi_hat = exp_sph.spectral_on_grid(grid)
        # odd node count with a log-symmetric range puts a node exactly at 1
        pg = wc.make_parameter_grid(grid, exp_sph, 0.25, 4.0, 9)
        mid = 4
        assert pg.a_nodes[mid] == pytest.approx(1.0)
        coeffs = wc.analyze(phi_hat, "minus", exp_sph, pg, constant=exp_sph_constant)
        center = grid.n_x // 2  # b = 0 lattice node
        got = coeffs.values[mid, 0, center, center, center]
        want = wc.spectral_inner_product(phi_hat, phi_hat)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_shift_equivariance(self, grid16, exp_sph, exp_sph_pgrid, exp_sph_constant):
        u = band_limited_spectrum(grid16, 0.7, 1.6, 21)
        coeffs = wc.analyze(u, "minus", exp_sph, exp_sph_pgrid, constant=exp_sph_constant)
        # translate by two lattice cells along x: multiply spectrum by phase
        KX, _, _ = grid16.k_mesh()
        shifted = wc.SpectralField3(grid16, u.values * np.exp(-1j * KX * 2 * grid16.h_x))
        coeffs_shifted = wc.analyze(shifted, "minus", exp_sph, exp_sph_pgrid,
                                    constant=exp_sph_constant)
        rolled = np.roll(coeffs.values, 2, axis=-1)
        assert rel_l2(coeffs_shifted.values, rolled) <= 1e-13

    def test_disjoint_scales_give_null_coefficients(self, grid16, exp_sph, exp_sph_constant):
        u = band_limited_spectrum(grid16, 0.7, 1.6, 22)
        good = wc.analyze(u, "minus", exp_sph,
                          wc.make_parameter_grid(grid16, exp_sph, *EXP_SPH_A_RANGE, 8),
                          constant=exp_sph_constant)
        far = wc.analyze(u, "minus", exp_sph,
                         wc.make_parameter_grid(grid16, exp_sph, 40.0, 80.0, 8),
                         constant=exp_sph_constant)
        assert np.max(np.abs(far.values)) <= 1e-8 * np.max(np.abs(good.values))

    def test_linearity(self, grid16, exp_sph, exp_sph_pgrid, exp_sph_constant):
        u = band_limited_spectrum(grid16, 0.7, 1.6, 23)
        v = band_limited_spectrum(grid16, 0.7, 1.6, 24)
        mix = wc.SpectralField3(grid16, 1.7 * u.values - 0.4j * v.values)
        cu = wc.analyze(u, "minus", exp_sph, exp_sph_pgrid, constant=exp_sph_constant)
        cv = wc.analyze(v, "minus", exp_sph, exp_sph_pgrid, constant=exp_sph_constant)
        cm = wc.analyze(mix, "minus", exp_sph, exp_sph_pgrid, constant=exp_sph_constant)
        assert rel_l2(cm.values, 1.7 * cu.values - 0.4j * cv.values) <= 1e-13

    def test_time_invariance(self, grid16, exp_sph, exp_sph_pgrid, exp_sph_constant):
        u = band_limited_spectrum(grid16, 0.7, 1.6, 25)
        t1 = 0.9
        phase = np.exp(1j * grid16.k_mag() * exp_sph.c * t1)  # minus-sign carrier
        at_t1 = wc.SpectralField3(grid16, u.values * phase)
        folded_back = wc.SpectralField3(grid16, at_t1.values / phase)
        c0 = wc.analyze(u, "minus", exp_sph, exp_sph_pgrid, constant=exp_sph_constant)
        c1 = wc.analyze(folded_back, "minus", exp_sph, exp_sph_pgrid, constant=exp_sph_constant)
        assert rel_l2(c1.values, c0.values) <= 1e-12

    def test_sign_mismatch_rejected(self, grid16, exp_sph, exp_sph_pgrid):
        u = band_limited_spectrum(grid16, 0.7, 1.6, 26)
        with pytest.raises(wc.ValidationError):
            wc.analyze(u, "plus", exp_sph, exp_sph_pgrid, constant=1.0)

    def test_inadmissible_wavelet_rejected(self, grid16):
        w = wc.kaiser_wavelet(1.5)
        pg = wc.make_parameter_grid(grid16, w, 0.5, 2.0, 4)
        u = band_limited_spectrum(grid16, 0.7, 1.6, 27)
        with pytest.raises(wc.AdmissibilityError):
            wc.analyze(u, "minus", w, pg)

    def test_threads_do_not_change_result(self, grid16, exp_sph, exp_sph_pgrid,
                                          exp_sph_constant, packet, packet_constant):
        u = band_limited_spectrum(grid16, 0.7, 1.6, 28)
        one = wc.analyze(u, "minus", exp_sph, exp_sph_pgrid, constant=exp_sph_constant, threads=1)
        two = wc.analyze(u, "minus", exp_sph, exp_sph_pgrid, constant=exp_sph_constant, threads=2)
        assert np.array_equal(one.values, two.values)

        # the kernel routes sum over rotations, so run them on a rotated grid
        pg = wc.make_parameter_grid(grid16, packet, *wc.suggest_dilation_range(packet, 0.7, 1.6),
                                    8, 6, 3)
        v = band_limited_spectrum(grid16, 0.7, 1.6, 29)
        w_field, v_field = wc.ifft3(u), wc.ifft3(v)
        plus, minus = packet, wc.time_reverse(packet)
        consts = (packet_constant, packet_constant)
        runs = {
            "pairing": lambda n: np.complex128(wc.transform_pairing(u, v, packet, pg, threads=n)),
            "self-pairing": lambda n: np.complex128(wc.transform_pairing(u, u, packet, pg,
                                                                         threads=n)),
            "project": lambda n: wc.project(u, packet, pg, constant=packet_constant,
                                            threads=n).values,
            "solve_ivp": lambda n: wc.solve_ivp(w_field, v_field, plus, minus, pg, 0.7,
                                                constants=consts, threads=n).values,
        }
        # and the shell route of a spherical wavelet
        sph_plus = wc.time_reverse(exp_sph)
        sph_consts = (exp_sph_constant, exp_sph_constant)
        runs.update({
            "spherical-reconstruct": lambda n: wc.reconstruct_spectrum(one, exp_sph,
                                                                       threads=n).values,
            "spherical-project": lambda n: wc.project(u, exp_sph, exp_sph_pgrid,
                                                      constant=exp_sph_constant,
                                                      threads=n).values,
            "spherical-solve_ivp": lambda n: wc.solve_ivp(w_field, v_field, sph_plus, exp_sph,
                                                          exp_sph_pgrid, 0.7,
                                                          constants=sph_consts,
                                                          threads=n).values,
        })
        for name, run in runs.items():
            assert run(1).tobytes() == run(2).tobytes(), name
        assert one.values.tobytes() == two.values.tobytes()
        assert wc.transform_pairing(u, u, packet, pg, threads=2).imag == 0.0


class TestInitialDataTransforms:
    def test_zero_velocity_gives_zero_v(self, grid16, exp_sph, exp_sph_pgrid, exp_sph_constant):
        w_field = wc.ifft3(band_limited_spectrum(grid16, 0.7, 1.6, 31))
        v_field = wc.ComplexField3(grid16, np.zeros(grid16.shape, dtype=complex))
        plus = wc.time_reverse(exp_sph)
        _, _, vp, vm = wc.analyze_initial_data(w_field, v_field, plus, exp_sph, exp_sph_pgrid,
                                               constants=(exp_sph_constant, exp_sph_constant))
        assert np.max(np.abs(vp.values)) == 0.0
        assert np.max(np.abs(vm.values)) == 0.0

    def test_wavelet_as_initial_field(self, exp_sph, exp_sph_constant):
        grid = wc.Grid3.cubic(16, 16.0)
        plus = wc.time_reverse(exp_sph)
        w_field = wc.ifft3(plus.spectral_on_grid(grid))
        v_field = wc.ComplexField3(grid, np.zeros(grid.shape, dtype=complex))
        pg = wc.make_parameter_grid(grid, exp_sph, 0.25, 4.0, 9)
        wp, _, _, _ = wc.analyze_initial_data(w_field, v_field, plus, exp_sph, pg,
                                              constants=(exp_sph_constant, exp_sph_constant))
        center = grid.n_x // 2
        got = wp.values[4, 0, center, center, center]
        phi_hat = plus.spectral_on_grid(grid)
        want = wc.spectral_inner_product(phi_hat, phi_hat)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_route_equivalence(self, grid16, exp_sph, exp_sph_pgrid, exp_sph_constant):
        # printed 1/2 and a/2 weights versus analysis of the split data
        w_field = wc.ifft3(band_limited_spectrum(grid16, 0.7, 1.6, 32))
        v_field = wc.ifft3(band_limited_spectrum(grid16, 0.7, 1.6, 33))
        plus = wc.time_reverse(exp_sph)
        wp, wm, vp, vm = wc.analyze_initial_data(w_field, v_field, plus, exp_sph, exp_sph_pgrid,
                                                 constants=(exp_sph_constant, exp_sph_constant))
        up = wc.combine_initial_coefficients(wp, vp)
        um = wc.combine_initial_coefficients(wm, vm)
        split = wc.split_ivp(w_field, v_field, exp_sph.c)
        up_ref = wc.analyze(split.plus, "plus", plus, exp_sph_pgrid, constant=exp_sph_constant)
        um_ref = wc.analyze(split.minus, "minus", exp_sph, exp_sph_pgrid, constant=exp_sph_constant)
        assert rel_l2(up.values, up_ref.values) <= 1e-10
        assert rel_l2(um.values, um_ref.values) <= 1e-10


class TestIsometry:
    def test_band_limited_defect(self, grid16, exp_sph, exp_sph_pgrid, exp_sph_constant):
        u = band_limited_spectrum(grid16, 0.7, 1.6, 41)
        coeffs = wc.analyze(u, "minus", exp_sph, exp_sph_pgrid, constant=exp_sph_constant)
        ref = wc.spectral_inner_product(u, u)
        assert wc.isometry_defect(coeffs, coeffs, ref) <= 2e-2

    def test_polarized_pairing(self, grid16, exp_sph, exp_sph_pgrid, exp_sph_constant):
        u = band_limited_spectrum(grid16, 0.7, 1.6, 42)
        v = band_limited_spectrum(grid16, 0.7, 1.6, 43)
        cu = wc.analyze(u, "minus", exp_sph, exp_sph_pgrid, constant=exp_sph_constant)
        cv = wc.analyze(v, "minus", exp_sph, exp_sph_pgrid, constant=exp_sph_constant)
        ref = wc.spectral_inner_product(u, v)
        assert wc.isometry_defect(cu, cv, ref) <= 2e-2

    def test_disjoint_spectra_pair_to_zero(self, grid16, exp_sph, exp_sph_pgrid,
                                           exp_sph_constant):
        u = band_limited_spectrum(grid16, 0.7, 0.95, 44)
        v = band_limited_spectrum(grid16, 1.3, 1.6, 45)
        cu = wc.analyze(u, "minus", exp_sph, exp_sph_pgrid, constant=exp_sph_constant)
        cv = wc.analyze(v, "minus", exp_sph, exp_sph_pgrid, constant=exp_sph_constant)
        ref = wc.spectral_inner_product(u, v)
        assert abs(ref) <= 1e-14
        # absolute defect in the degenerate case
        scale = wc.norm(u) * wc.norm(v)
        assert wc.isometry_defect(cu, cv, ref) <= 1e-12 * scale

    def test_streaming_matches_materialized(self, grid16, exp_sph, exp_sph_pgrid,
                                            exp_sph_constant, packet, packet_constant):
        # a non-unit cell checks the 1/cell_volume of the kernel pairing;
        # the packet's angle grid checks the sum over rotations
        odd = wc.Grid3(16, 16, 16, 1.5, 1.25, 0.8, origin=(-12.0, -10.0, -6.4))
        packet_range = wc.suggest_dilation_range(packet, 0.7, 1.6)
        cases = [
            (exp_sph, exp_sph_pgrid, exp_sph_constant),
            (exp_sph, wc.make_parameter_grid(odd, exp_sph, *EXP_SPH_A_RANGE, 24),
             exp_sph_constant),
            (packet, wc.make_parameter_grid(odd, packet, *packet_range, 8, 6, 3),
             packet_constant),
        ]
        for wavelet, pg, constant in cases:
            grid = pg.field_grid
            u = band_limited_spectrum(grid, 0.7, 1.6, 46)
            v = band_limited_spectrum(grid, 0.7, 1.6, 47)
            cu = wc.analyze(u, wavelet.sign, wavelet, pg, constant=constant)
            cv = wc.analyze(v, wavelet.sign, wavelet, pg, constant=constant)
            mat = wc.weighted_pairing(cu, cv)
            stream = wc.transform_pairing(u, v, wavelet, pg)
            assert abs(mat - stream) <= 1e-13 * abs(mat)

    def test_refinement_halves_defect(self, grid16, exp_sph, exp_sph_constant):
        u = band_limited_spectrum(grid16, 0.7, 1.6, 48)
        ref = wc.spectral_inner_product(u, u)

        def defect(n_a):
            pg = wc.make_parameter_grid(grid16, exp_sph, *EXP_SPH_A_RANGE, n_a)
            pair = wc.transform_pairing(u, u, exp_sph, pg)
            return abs(pair / exp_sph_constant - ref) / abs(ref)

        coarse, fine = defect(5), defect(10)
        assert coarse >= 2.0 * fine

    def test_defect_monotone_over_three_levels(self, grid16, packet, packet_constant):
        a_min, a_max = wc.suggest_dilation_range(packet, 0.7, 1.6)
        u = band_limited_spectrum(grid16, 0.7, 1.6, 49)
        ref = wc.spectral_inner_product(u, u)
        defects = []
        for n_a, n1, n2 in ((8, 6, 3), (16, 12, 6), (32, 24, 12)):
            pg = wc.make_parameter_grid(grid16, packet, a_min, a_max, n_a, n1, n2)
            pair = wc.transform_pairing(u, u, packet, pg)
            defects.append(abs(pair / packet_constant - ref) / abs(ref))
        assert defects[0] > defects[1] > defects[2]


# spherical wavelets for the shell route: catalog forms and both derived families
SPHERICAL = {
    "exp-spherical": wc.exp_spherical_wavelet,
    "kaiser": lambda: wc.kaiser_wavelet(3.0),
    "time-reversed": lambda: wc.time_reverse(wc.exp_spherical_wavelet()),
    "antiderivative": lambda: wc.time_antiderivative_wavelet(wc.exp_spherical_wavelet()),
}
SHELL_GRIDS = {
    "cubic": wc.Grid3.cubic(16, 16.0),
    "non-cubic": wc.Grid3(16, 12, 10, 1.0, 1.25, 0.8, origin=(-8.0, -7.5, -4.0)),
}


def lattice_spectra(wavelet, pg):
    """PHI(a k) at every lattice node, one dilation at a time; shape (n_a,) + grid shape."""
    KX, KY, KZ = pg.field_grid.k_mesh()
    return np.stack([np.asarray(wavelet.spectral(a * KX, a * KY, a * KZ), dtype=complex)
                     for a in pg.a_nodes])


def lattice_projection(s_part, wavelet, pg, constant):
    phi = lattice_spectra(wavelet, pg)
    weights = pg.rotation_weights[0] * pg.a_weights * pg.a_nodes**3
    kernel = np.einsum("a,axyz->xyz", weights, np.abs(phi) ** 2)
    return s_part.values * kernel / (np.real(constant) * pg.constant_factor)


class TestShellRoute:
    """Spherical wavelets are evaluated per distinct |k|^2 and gathered back."""

    @pytest.fixture(params=sorted(SHELL_GRIDS))
    def grid(self, request):
        return SHELL_GRIDS[request.param]

    @pytest.fixture(params=sorted(SPHERICAL))
    def wavelet(self, request):
        return SPHERICAL[request.param]()

    @staticmethod
    def close(got, ref):
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_analyze_and_reconstruct_match_lattice(self, grid, wavelet):
        pg = wc.make_parameter_grid(grid, wavelet, *EXP_SPH_A_RANGE, 8)
        u = band_limited_spectrum(grid, 0.7, 1.6, 71)
        coeffs = wc.analyze(u, wavelet.sign, wavelet, pg, constant=1.3)
        phi = lattice_spectra(wavelet, pg)
        scale = pg.a_nodes[:, None, None, None] ** 1.5
        ref = [wc.ifft3(wc.SpectralField3(grid, s)).values
               for s in np.conj(phi) * u.values * scale]
        self.close(coeffs.values[:, 0], np.stack(ref))

        slabs = np.stack([wc.fft3(wc.ComplexField3(grid, c)).values for c in coeffs.values[:, 0]])
        weights = pg.rotation_weights[0] * pg.a_weights
        ref = np.einsum("a,axyz->xyz", weights, scale * phi * slabs) / (1.3 * pg.constant_factor)
        self.close(wc.reconstruct_spectrum(coeffs, wavelet).values, ref)

    def test_project_and_solve_ivp_match_lattice(self, grid, wavelet):
        pg = wc.make_parameter_grid(grid, wavelet, *EXP_SPH_A_RANGE, 8)
        u = band_limited_spectrum(grid, 0.7, 1.6, 72)
        self.close(wc.project(u, wavelet, pg, constant=1.3).values,
                   lattice_projection(u, wavelet, pg, 1.3))

        plus, minus = ((wavelet, wc.time_reverse(wavelet)) if wavelet.sign == "plus"
                       else (wc.time_reverse(wavelet), wavelet))
        w = wc.ifft3(u)
        v = wc.ifft3(band_limited_spectrum(grid, 0.7, 1.6, 73))
        split = wc.split_ivp(w, v, wavelet.c)
        ref = wc.propagate(wc.SolutionSpectrum(
            wc.SpectralField3(grid, lattice_projection(split.plus, plus, pg, 1.3)),
            wc.SpectralField3(grid, lattice_projection(split.minus, minus, pg, 1.3)),
            wavelet.c), 0.7)
        got = wc.solve_ivp(w, v, plus, minus, pg, 0.7, constants=(1.3, 1.3))
        self.close(got.values, ref.values)

    def test_spectrum_evaluated_once_per_shell(self, grid16, exp_sph):
        points = []

        def spectral(kx, ky, kz):
            points.append(np.size(kx))
            return exp_sph.spectral(kx, ky, kz)

        counted = dataclasses.replace(exp_sph, spectral=spectral)
        pg = wc.make_parameter_grid(grid16, counted, *EXP_SPH_A_RANGE, 8)
        k = [K.ravel() for K in grid16.k_mesh()]
        shells = np.unique(k[0] * k[0] + k[1] * k[1] + k[2] * k[2]).size
        assert shells < grid16.node_count // 10
        u = band_limited_spectrum(grid16, 0.7, 1.6, 74)
        coeffs = wc.analyze(u, "minus", counted, pg, constant=1.3)
        assert 0 < sum(points) <= pg.n_a * shells
        for route in (lambda: wc.reconstruct_spectrum(coeffs, counted),
                      lambda: wc.project(u, counted, pg, constant=1.3)):
            points.clear()
            route()
            assert 0 < sum(points) <= pg.n_a * shells


def lattice_index(grid, image):
    """Flat lattice indices of the wave vectors ``image`` (3, M), -1 where one is off the lattice.

    Matched on the wave numbers themselves, axis by axis.
    """
    flat = np.zeros(image.shape[1], dtype=int)
    on = np.ones(image.shape[1], dtype=bool)
    for k, values, stride in zip(grid.k_axes(), image, (1, grid.n_x, grid.n_x * grid.n_y)):
        order = np.argsort(k)
        at = np.searchsorted(k[order], values).clip(max=k.size - 1)
        on &= k[order][at] == values
        flat += order[at] * stride
    return np.where(on, flat, -1)


def node_representatives(pg, support):
    """Each support node's representative under the grid's stabilizer, from the wave numbers.

    The least flat index among the node's images ``A k`` that are lattice nodes in the support.
    """
    grid = pg.field_grid
    nodes = np.flatnonzero(support)
    k = np.array([K.ravel()[nodes] for K in grid.k_mesh()])
    rep = nodes.copy()
    for a in _stabilizer(pg)[0]:
        at = lattice_index(grid, np.einsum("ij,jm->im", a, k))
        inside = at >= 0
        inside[inside] = support[at[inside]]
        rep[inside] = np.minimum(rep[inside], at[inside])
    return rep


def reduced(kernel_at):
    """A kernel summed at each node orbit's representative and copied to its members.

    ``kernel_at(wavelet, pg, nodes)`` sums the kernel at the flat lattice indices ``nodes``.
    """
    def kernel(wavelet, pg, support):
        nodes, member = np.unique(node_representatives(pg, support), return_inverse=True)
        values = kernel_at(wavelet, pg, nodes)
        if values is None:
            return None
        out = np.zeros(support.size)
        out[support] = values[member]
        return out

    return kernel


def swept(wavelet, pg, nodes):
    """The direct sweep at ``nodes``: each task's share of ``|PHI(a R^T k)|^2``, in order."""
    spectra = _sweep(wavelet, pg, _lattice_points(pg.field_grid, nodes), power=True)
    return sum(spectra(*task) for task in _slice_tasks(pg, spectra.width))


def direct_kernel(wavelet, pg, support):
    """The kernel as the direct sweep sums it at every support node."""
    kernel = np.zeros(support.size)
    kernel[support] = swept(wavelet, pg, np.flatnonzero(support))
    return kernel


def antipodal_partners(pg):
    """Each rotation's image under ``-I``, matched on ``R e``, or -1 where it has none."""
    group, images = _symmetry_plan(pg)
    return images[(group == -np.eye(3)).all(axis=(1, 2))][0]


def per_rotation_sum(wavelet, pg, nodes):
    """The axial kernel at ``nodes``, summed one rotation at a time, or None.

    Each rotation's share is its nodes' shell series, summed by Clenshaw at their
    direction cosines and weighted; on a paired grid the first rotation of each
    antipodal pair sums the even half of the series at ``2 x^2 - 1`` for both.
    The shares are added in rotation order.
    """
    k = _lattice_points(pg.field_grid, nodes)
    shells, back = np.unique(k[0] * k[0] + k[1] * k[1] + k[2] * k[2], return_inverse=True)
    table = wc.kernel._axial_table(wavelet, pg, shells)
    if table is None:
        return None
    partner = antipodal_partners(pg)
    paired = bool((partner >= 0).all())
    series = table[::2 if paired else 1, back]
    w = pg.rotation_weights
    weights = w + w[partner] if paired else w
    directions = np.einsum("rij,j->ri", pg.rotations, np.asarray(wavelet.axis))
    r = np.sqrt(k[0] ** 2 + k[1] ** 2 + k[2] ** 2)
    unit = np.stack(k) / np.where(r > 0, r, 1.0)
    total = np.zeros(nodes.size)
    for idx in range(pg.n_rotations):
        if paired and partner[idx] < idx:
            continue
        x = np.einsum("im,i->m", unit, directions[idx])
        if paired:
            x = (x * x) * 2.0 - 1.0
        b1, b2 = series[-1], 0.0
        for c in series[-2:0:-1]:
            b1, b2 = (c - b2) + (x + x) * b1, b1
        total = total + weights[idx] * ((x * b1 - b2) + series[0])
    return total


# the kernel routes' references, with the routes' node reduction
direct_orbit_kernel = reduced(swept)
axial_reference = reduced(per_rotation_sum)


def certified(wavelet, pg, support):
    """Whether the axial table certifies on the support's |k| shells, so that its route runs."""
    shells = cwt._shells(_lattice_points(pg.field_grid, support))[0]
    return wc.kernel._axial_table(wavelet, pg, shells) is not None


def lattice_negation(grid):
    """Each lattice node's flat index of ``-k``, or -1 where ``-k`` is off the lattice.

    Matched on the wave numbers themselves, axis by axis.
    """
    per_axis = []
    for k in grid.k_axes():
        match = k[None, :] == -k[:, None]
        per_axis.append(np.where(match.any(axis=1), match.argmax(axis=1), -1))
    NZ, NY, NX = np.meshgrid(per_axis[2], per_axis[1], per_axis[0], indexing="ij")
    flat = (NZ * grid.n_y + NY) * grid.n_x + NX
    return np.where((NX >= 0) & (NY >= 0) & (NZ >= 0), flat, -1).ravel()


def axial_window(packet):
    """A dilation window on which the band, Nyquist-plane nodes up to |k| = 4 and k = 0 certify."""
    return wc.suggest_dilation_range(packet, 0.6, 3.0)


AXIAL_GRIDS = {
    "cube": wc.Grid3.cubic(32, 32.0),
    # coarse spacings: the band crosses every Nyquist plane
    "box": wc.Grid3(12, 10, 8, 2.0, 2.2, 2.5),
    "off-centre": wc.Grid3(16, 12, 10, 2.1, 2.3, 2.6, origin=(-3.0, 2.0, -7.5)),
}


def axial_supports(grid):
    """The band; its half-space ``kx > 0`` (no twins); plus Nyquist-plane nodes and k = 0; none."""
    band = band_limited_spectrum(grid, 0.6, 1.8, 407).values.ravel() != 0
    kx, ky, kz = (K.ravel() for K in grid.k_mesh())
    k2 = kx**2 + ky**2 + kz**2
    nyquist = (kx == kx.min()) | (ky == ky.min()) | (kz == kz.min())
    return {"band": band, "half-space": band & (kx > 0),
            "nyquist": band | (nyquist & (k2 <= 16.0)) | (k2 == 0),
            "empty": np.zeros_like(band)}


def packet_grid(packet, n_a, n_theta1, n_theta2):
    """A 32^3 parameter grid on the dilation window of the acceptance band."""
    a_range = wc.suggest_dilation_range(packet, 0.6, 1.8)
    return wc.make_parameter_grid(wc.Grid3.cubic(32, 32.0), packet, *a_range, n_a, n_theta1,
                                  n_theta2)


class TestAxialTable:
    """An axial kernel from per-shell Chebyshev series in the direction cosine.

    The route is taken only when every shell's series is certified; it then
    agrees with the direct sweep to round-off, and otherwise the direct sweep
    runs unchanged.
    """

    def test_isometry_kernel_matches_the_direct_sweep(self, packet):
        # acceptance criterion 4's input at its reference settings
        pg = packet_grid(packet, 24, 16, 8)
        support = band_limited_spectrum(pg.field_grid, 0.6, 1.8, 401).values.ravel() != 0
        assert certified(packet, pg, support)
        table = wc.kernel.resolution_kernel(packet, pg, support, threads=2)
        direct = direct_kernel(packet, pg, support)
        assert not table[~support].any()
        assert np.max(np.abs(table - direct)[support] / direct[support]) <= 1e-12
        # summed once per node orbit: 264 representatives of the 3116 nodes
        assert np.unique(node_representatives(pg, support)).size == 264
        assert table.tobytes() == axial_reference(packet, pg, support).tobytes()

    def test_table_points_need_no_rotation(self, packet):
        # the table evaluates its own points: rotating them by the identity, r[0, i] k_0 +
        # r[1, i] k_1 + r[2, i] k_2 with r = I, would change no byte on the isometry band
        pg = packet_grid(packet, 24, 16, 8)
        support = band_limited_spectrum(pg.field_grid, 0.6, 1.8, 401).values.ravel() != 0
        nodes, _ = _node_orbits(pg.field_grid, _stabilizer(pg)[0], support)
        shells = cwt._shells(_lattice_points(pg.field_grid, nodes))[0]
        axis = np.asarray(packet.axis)
        theta = np.pi * (np.arange(48) + 0.5) / 48
        along = np.multiply.outer(np.sqrt(shells), np.cos(theta)).ravel()
        across = np.multiply.outer(np.sqrt(shells), np.sin(theta)).ravel()
        k = [along * e + across * t for e, t in zip(axis, _tilt_axis(axis))]
        r = np.eye(3)
        q = [r[0, i] * k[0] + r[1, i] * k[1] + r[2, i] * k[2] for i in range(3)]
        table = np.zeros(along.size)
        for a, w in zip(pg.a_nodes, pg.a_weights * pg.a_nodes**3):
            values = packet.spectral(*(a * c for c in q))
            table += w * (values.real**2 + values.imag**2)
        dct = np.cos(np.multiply.outer(np.arange(48), theta)) * (2.0 / 48)
        dct[0] *= 0.5
        expected = np.einsum("nj,sj->ns", dct, table.reshape(shells.size, 48))
        assert wc.kernel._axial_table(packet, pg, shells).tobytes() == expected.tobytes()

    def test_projection_matches_the_direct_sweep(self, monkeypatch, packet, packet_constant):
        # acceptance criterion 5's packet input, through project
        pg = packet_grid(packet, 24, 16, 8)
        u = band_limited_spectrum(pg.field_grid, 0.6, 1.8, 502)
        support = u.values != 0
        table = wc.project(u, packet, pg, constant=packet_constant, threads=2).values
        monkeypatch.setattr(wc.kernel, "_axial_kernel", lambda *args: None)
        direct = wc.project(u, packet, pg, constant=packet_constant, threads=2).values
        assert not table[~support].any()
        assert np.max(np.abs(table - direct)[support] / np.abs(direct[support])) <= 1e-12

    @pytest.mark.parametrize("derive", [wc.time_derivative_wavelet,
                                        wc.time_antiderivative_wavelet])
    def test_wavelets_without_a_buffer_form(self, packet, derive):
        wavelet = derive(packet)
        pg = packet_grid(wavelet, 24, 4, 2)
        support = band_limited_spectrum(pg.field_grid, 0.6, 1.8, 403).values.ravel() != 0
        assert certified(wavelet, pg, support)
        table = wc.kernel.resolution_kernel(wavelet, pg, support, threads=1)
        direct = direct_kernel(wavelet, pg, support)
        assert np.max(np.abs(table - direct)[support] / direct[support]) <= 1e-12

    def test_uncertified_series_leave_the_direct_sweep(self, packet):
        # on the whole 32^3 lattice the outer shells' series do not converge at 48 nodes
        pg = packet_grid(packet, 24, 4, 2)
        full = np.ones(pg.field_grid.node_count, dtype=bool)
        assert not certified(packet, pg, full)
        got = wc.kernel.resolution_kernel(packet, pg, full, threads=2)
        assert got.tobytes() == direct_orbit_kernel(packet, pg, full).tobytes()

    def test_coarse_angles_agree_to_round_off_of_the_largest_value(self, packet):
        # the benchmark's warm-up grid: at nodes where K is ~4e-8 of its maximum the table
        # and the sweep differ by ~1e-8 relative, but never by more than round-off of max K
        pg = packet_grid(packet, 24, 2, 2)
        support = band_limited_spectrum(pg.field_grid, 0.6, 1.8, 405).values.ravel() != 0
        assert certified(packet, pg, support)
        table = wc.kernel.resolution_kernel(packet, pg, support, threads=1)
        direct = direct_kernel(packet, pg, support)
        assert np.max(np.abs(table - direct)) <= 1e-13 * np.max(direct)

    @pytest.mark.parametrize("n_theta1, n_theta2", [(2, 1), (2, 2), (4, 3), (6, 5), (16, 8)])
    def test_every_rotation_pairs_when_n_theta1_is_even(self, packet, n_theta1, n_theta2):
        pg = packet_grid(packet, 2, n_theta1, n_theta2)
        partner = antipodal_partners(pg)
        assert sorted(partner) == list(range(pg.n_rotations))
        assert (partner[partner] == np.arange(pg.n_rotations)).all()
        directions = pg.rotations[:, :, 0]  # R e for the packet's x axis
        np.testing.assert_allclose(directions[partner], -directions, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pg.rotation_weights[partner], pg.rotation_weights, rtol=1e-15)

    @pytest.mark.parametrize("n_theta1, n_theta2", [(1, 1), (1, 4), (3, 2), (5, 3), (7, 4)])
    def test_no_rotation_pairs_when_n_theta1_is_odd(self, packet, n_theta1, n_theta2):
        assert (antipodal_partners(packet_grid(packet, 2, n_theta1, n_theta2)) == -1).all()

    @settings(max_examples=20, deadline=None, database=None)
    @given(n_theta1=st.integers(1, 12), n_theta2=st.integers(1, 6))
    def test_paired_and_unpaired_sums_match_the_direct_sweep(self, packet, n_theta1, n_theta2):
        pg = packet_grid(packet, 24, n_theta1, n_theta2)
        support = band_limited_spectrum(pg.field_grid, 0.6, 1.8, 406).values.ravel() != 0
        assume(certified(packet, pg, support))
        one, two = (wc.kernel.resolution_kernel(packet, pg, support, threads) for threads in (1, 2))
        assert one.tobytes() == two.tobytes()
        direct = direct_kernel(packet, pg, support)
        error = np.abs(one - direct)
        assert np.max(error) <= 1e-13 * np.max(direct)
        large = direct >= 1e-3 * np.max(direct)
        assert np.max(error[large] / direct[large]) <= 1e-12

    @pytest.mark.parametrize("support_name", ["band", "half-space", "nyquist", "empty"])
    @pytest.mark.parametrize("grid_name, n_theta1, n_theta2", [
        ("cube", 16, 8), ("cube", 12, 6), ("cube", 2, 2), ("cube", 15, 8), ("cube", 3, 2),
        ("box", 16, 8), ("box", 15, 8), ("off-centre", 12, 6), ("off-centre", 3, 2),
    ])
    def test_direction_sum_equals_the_per_rotation_sum(self, packet, grid_name, n_theta1,
                                                       n_theta2, support_name):
        # node chunks, one recurrence over every summed rotation, one node of each orbit:
        # the same bytes as one task per rotation over every representative
        grid = AXIAL_GRIDS[grid_name]
        pg = wc.make_parameter_grid(grid, packet, *axial_window(packet), 24, n_theta1, n_theta2)
        support = axial_supports(grid)[support_name]
        want = axial_reference(packet, pg, support)
        assert want is not None
        assert wc.kernel.resolution_kernel(packet, pg, support, threads=2).tobytes() == want.tobytes()

    @settings(max_examples=12, deadline=None, database=None)
    @given(n_theta1=st.sampled_from([2, 4, 6, 8, 12]), n_theta2=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1), share=st.floats(0.05, 0.9))
    def test_paired_kernels_are_centrally_symmetric(self, packet, n_theta1, n_theta2, seed,
                                                    share):
        # -I is in the stabilizer of a paired grid, so -k shares the orbit of k, and K(-k)
        # is the value copied from their representative
        grid = AXIAL_GRIDS["off-centre"]
        pg = wc.make_parameter_grid(grid, packet, *axial_window(packet), 24, n_theta1, n_theta2)
        negation = lattice_negation(grid)
        drawn = np.random.default_rng(seed).random(grid.node_count) < share
        support = axial_supports(grid)["nyquist"] & drawn
        support[negation[support & (negation >= 0)]] = True  # closed under negation
        want = axial_reference(packet, pg, support)
        assert want is not None
        twinned = support & (negation >= 0)
        assert want[negation[twinned]].tobytes() == want[twinned].tobytes()
        assert wc.kernel.resolution_kernel(packet, pg, support, threads=1).tobytes() == want.tobytes()

    def test_table_blocks_and_node_chunks_change_no_bit(self, monkeypatch, packet):
        pg = packet_grid(packet, 24, 16, 8)
        support = band_limited_spectrum(pg.field_grid, 0.6, 1.8, 408).values.ravel() != 0
        shells = cwt._shells(_lattice_points(pg.field_grid, support))[0]
        one = cwt._workspace_bytes(packet, shells.size * wc.kernel._CHEB_NODES)  # per dilation
        outputs = set()
        # one dilation per evaluation and 88-node chunks; the default (4 dilations and
        # 381-node chunks of the 264 representatives: one); every dilation at once and one chunk
        for task_bytes in (2 * one - 1, cwt._TASK_BYTES, 2 * pg.n_a * one):
            monkeypatch.setattr(cwt, "_TASK_BYTES", task_bytes)
            table = wc.kernel._axial_table(packet, pg, shells)
            outputs.add((table.tobytes(), wc.kernel.resolution_kernel(packet, pg, support).tobytes()))
        assert len(outputs) == 1

    def test_table_counts_shells_nodes_and_dilations(self, packet):
        calls = []

        def spectral(kx, ky, kz):
            calls.append(np.size(kx))
            return packet.spectral(kx, ky, kz)

        counted = dataclasses.replace(packet, spectral=spectral)
        pg = packet_grid(packet, 24, 4, 2)
        support = band_limited_spectrum(pg.field_grid, 0.6, 1.8, 404).values.ravel() != 0
        k = [K.ravel()[support] for K in pg.field_grid.k_mesh()]
        shells = np.unique(k[0] * k[0] + k[1] * k[1] + k[2] * k[2]).size
        assert (shells, np.count_nonzero(support)) == (87, 3116)
        # blocks of as many dilations as fit half a task's working set: 4 for the packet's
        # buffer form, 10 for this wrapper's three wave-vector rows
        half = cwt._TASK_BYTES // 2
        assert half // cwt._workspace_bytes(packet, shells * wc.kernel._CHEB_NODES) == 4
        block = half // cwt._workspace_bytes(counted, shells * wc.kernel._CHEB_NODES)
        assert block == 10
        wc.kernel.resolution_kernel(counted, pg, support, threads=2)
        assert len(calls) == -(-pg.n_a // block)
        # the table is built on the node orbits' representatives, whose float |k|^2 take 83
        # values: an image's components add up in another order, and 4 of the 87 differ
        # from another by an ulp
        nodes = np.unique(node_representatives(pg, support))
        k = _lattice_points(pg.field_grid, nodes)
        assert np.unique(k[0] * k[0] + k[1] * k[1] + k[2] * k[2]).size == 83
        assert sum(calls) == 83 * wc.kernel._CHEB_NODES * pg.n_a  # 95,616
        # the direct sweep evaluates every dilation, rotation and node: 598,272
        calls.clear()
        direct_kernel(counted, pg, support)
        assert sum(calls) == pg.n_a * pg.n_rotations * np.count_nonzero(support)


def none_wavelet():
    """The packet-derived "bateman" wavelet, which has no symmetry."""
    return wc.make_wavelet("bateman", {"eps1": 0.5, "eps2": 0.8})


def node_orbit_grid(route, grid, packet, angles=None):
    """``(wavelet, parameter grid)`` of a kernel route on ``grid``: 24 dilations, few angles."""
    wavelet = none_wavelet() if route == "none" else packet
    angles = angles or ((4, 2, 4) if route == "none" else (8, 4))
    return wavelet, wc.make_parameter_grid(grid, wavelet, *axial_window(wavelet), 24, *angles)


def closed_support(pg, support):
    """``support`` with every image ``A k`` under the grid's stabilizer that is a lattice node."""
    grid = pg.field_grid
    k = np.array([K.ravel() for K in grid.k_mesh()])
    images = [lattice_index(grid, np.einsum("ij,jm->im", a, k)) for a in _stabilizer(pg)[0]]
    closed = support.copy()
    for at in images:
        closed[at[support & (at >= 0)]] = True
    return closed, images


class TestNodeOrbits:
    """The kernel is summed once per node orbit under the grid's stabilizer and copied.

    Every signed lattice permutation that permutes the rotations with equal weights
    leaves ``K`` unchanged, so each orbit's representative stands for its members:
    within round-off of the per-node sums, on the table and the sweep routes alike.
    """

    @pytest.mark.parametrize("support_name", ["band", "half-space", "nyquist", "empty"])
    @pytest.mark.parametrize("route", ["axial-table", "axial-sweep", "none"])
    @pytest.mark.parametrize("grid_name", ["cube", "box", "off-centre"])
    def test_kernel_agrees_with_the_per_node_sweep(self, monkeypatch, packet, grid_name, route,
                                                   support_name):
        grid = AXIAL_GRIDS[grid_name]
        wavelet, pg = node_orbit_grid(route, grid, packet)
        support = axial_supports(grid)[support_name]
        assert len(_stabilizer(pg)[0]) > 1
        if route == "axial-table":
            assert certified(wavelet, pg, support)
        else:
            monkeypatch.setattr(wc.kernel, "_axial_table", lambda *args: None)
        got = wc.kernel.resolution_kernel(wavelet, pg, support, threads=2)
        want = direct_kernel(wavelet, pg, support)
        assert not got[~support].any()
        if not support.any():
            return
        error = np.abs(got - want)
        assert np.max(error) <= 1e-13 * np.max(want)
        large = want >= 1e-3 * np.max(want)
        assert np.max(error[large] / want[large]) <= 1e-12
        if route != "axial-table":  # the sweep sums the same terms at the representatives
            assert got.tobytes() == direct_orbit_kernel(wavelet, pg, support).tobytes()

    @pytest.mark.parametrize("route", ["axial-table", "axial-sweep", "none"])
    def test_threads_change_no_bit(self, monkeypatch, packet, route):
        monkeypatch.setattr(cwt.os, "cpu_count", lambda: 8)
        grid = AXIAL_GRIDS["cube"]
        wavelet, pg = node_orbit_grid(route, grid, packet)
        support = axial_supports(grid)["nyquist"]
        if route == "axial-sweep":
            monkeypatch.setattr(wc.kernel, "_axial_table", lambda *args: None)
        one, two, eight = (wc.kernel.resolution_kernel(wavelet, pg, support, threads=n)
                           for n in (1, 2, 8))
        assert one.tobytes() == two.tobytes() == eight.tobytes()

    @settings(max_examples=15, deadline=None, database=None)
    @given(route_angles=st.sampled_from([("axial-table", (2, 2)), ("axial-table", (4, 3)),
                                         ("axial-table", (6, 2)), ("axial-table", (12, 6)),
                                         ("none", (2, 2, 2)), ("none", (4, 2, 4)),
                                         ("none", (4, 3, 2))]),
           grid_name=st.sampled_from(["box", "off-centre"]),
           seed=st.integers(0, 2**32 - 1), share=st.floats(0.05, 0.9))
    def test_stabilizer_leaves_the_kernel_unchanged(self, packet, route_angles, grid_name, seed,
                                                    share):
        # on a support closed under the stabilizer, K(A k) == K(k) bit for bit
        route, angles = route_angles
        grid = AXIAL_GRIDS[grid_name]
        wavelet, pg = node_orbit_grid(route, grid, packet, angles)
        assume(len(_stabilizer(pg)[0]) > 1)
        drawn = np.random.default_rng(seed).random(grid.node_count) < share
        support, images = closed_support(pg, axial_supports(grid)["nyquist"] & drawn)
        kernel = wc.kernel.resolution_kernel(wavelet, pg, support, threads=1)
        assert kernel[support].any()
        for at in images:
            on = support & (at >= 0)
            assert kernel[at[on]].tobytes() == kernel[on].tobytes()

    @pytest.mark.parametrize("route", ["axial-sweep", "none"])
    def test_sweep_evaluates_each_orbit_once(self, monkeypatch, packet, route):
        points = []
        grid = AXIAL_GRIDS["box"]
        wavelet, pg = node_orbit_grid(route, grid, packet)

        def spectral(kx, ky, kz):
            points.append(np.size(kx))
            return wavelet.spectral(kx, ky, kz)

        counted = dataclasses.replace(wavelet, spectral=spectral)
        monkeypatch.setattr(wc.kernel, "_axial_table", lambda *args: None)
        support = axial_supports(grid)["nyquist"]
        orbits = np.unique(node_representatives(pg, support)).size
        assert orbits < np.count_nonzero(support)
        wc.kernel.resolution_kernel(counted, pg, support, threads=2)
        assert sum(points) == orbits * pg.n_a * pg.n_rotations

    def test_spherical_kernel_evaluates_each_shell_once(self, exp_sph):
        # a spherical grid's stabilizer is the identity: its |k| shells are its orbits
        points = []

        def spectral(kx, ky, kz):
            points.append(np.size(kx))
            return exp_sph.spectral(kx, ky, kz)

        counted = dataclasses.replace(exp_sph, spectral=spectral)
        grid = AXIAL_GRIDS["cube"]
        pg = wc.make_parameter_grid(grid, counted, *EXP_SPH_A_RANGE, 24)
        assert len(_stabilizer(pg)[0]) == 1
        support = axial_supports(grid)["nyquist"]
        k = _lattice_points(grid, support)
        shells = np.unique(k[0] * k[0] + k[1] * k[1] + k[2] * k[2]).size
        wc.kernel.resolution_kernel(counted, pg, support, threads=2)
        assert sum(points) == shells * pg.n_a


# non-cubic, off-centre lattice for the support properties below
SUPPORT_GRID = wc.Grid3(8, 10, 12, 1.5, 1.25, 0.8, origin=(-7.0, -5.0, -3.2))
SUPPORT_WAVELETS = {
    "spherical": wc.exp_spherical_wavelet,
    "axial": lambda: wc.gaussian_packet(40.0, 1.0, 0.5, 0.5),
    "none": lambda: wc.make_wavelet("bateman", {"eps1": 0.5, "eps2": 0.8}),
}


class TestSupport:
    """``analyze`` evaluates the spectrum only where the data are nonzero."""

    def test_analyze_evaluates_only_on_support(self, grid16, packet):
        points = []

        def spectral(kx, ky, kz):
            points.append(np.size(kx))
            return packet.spectral(kx, ky, kz)

        counted = dataclasses.replace(packet, spectral=spectral)
        pg = wc.make_parameter_grid(grid16, counted, 0.3, 2.0, 4, 4, 3)
        u = band_limited_spectrum(grid16, 0.7, 1.6, 75)
        assert 0 < np.count_nonzero(u.values) < grid16.node_count // 2
        wc.analyze(u, counted.sign, counted, pg, constant=1.3)
        assert 0 < sum(points) <= pg.n_a * pg.n_rotations * np.count_nonzero(u.values)

    @pytest.mark.parametrize("symmetry", sorted(SUPPORT_WAVELETS))
    def test_zero_data_give_zero_kernel_routes(self, symmetry):
        # an empty support has no points per dilation to cut dilation blocks from
        wavelet = SUPPORT_WAVELETS[symmetry]()
        pg = wc.make_parameter_grid(SUPPORT_GRID, wavelet, 0.3, 2.0, 3, 3, 2, 2)
        zero = wc.SpectralField3(SUPPORT_GRID, np.zeros(SUPPORT_GRID.shape, dtype=complex))
        assert wc.transform_pairing(zero, zero, wavelet, pg, threads=2) == 0
        assert not wc.project(zero, wavelet, pg, constant=1.0, threads=2).values.any()

    @settings(max_examples=30, deadline=None, database=None)
    @given(symmetry=st.sampled_from(sorted(SUPPORT_WAVELETS)),
           share_u=st.floats(0.0, 1.0), share_v=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1), threads=st.sampled_from([1, 2]))
    def test_materialized_pairing_matches_kernel(self, symmetry, share_u, share_v, seed,
                                                 threads):
        wavelet = SUPPORT_WAVELETS[symmetry]()
        pg = wc.make_parameter_grid(SUPPORT_GRID, wavelet, 0.3, 2.0, 3, 3, 2, 2)
        rng = np.random.default_rng(seed)

        def masked(share):
            shape = SUPPORT_GRID.shape
            amp = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            return wc.SpectralField3(SUPPORT_GRID, amp * (rng.random(shape) < share))

        u, v = masked(share_u), masked(share_v)
        U, V = (wc.analyze(x, wavelet.sign, wavelet, pg, constant=1.0, threads=threads)
                for x in (u, v))
        want = wc.transform_pairing(u, v, wavelet, pg, threads)
        scale = np.sqrt(abs(wc.weighted_pairing(U, U) * wc.weighted_pairing(V, V)))
        assert abs(wc.weighted_pairing(U, V) - want) <= 1e-12 * scale


PRUNE_GRIDS = {"cube32": wc.Grid3.cubic(32, 32.0),
               "box": wc.Grid3(16, 12, 10, 1.0, 1.3, 0.9, origin=(1.5, -2.0, 0.7))}


def support_case(grid, kind, seed=5):
    """Data on a |k| band, a random 10% of the nodes, two corners of the lattice, or all of it."""
    if kind == "band":
        return band_limited_spectrum(grid, 0.6, 1.8, seed)
    if kind == "corner":  # a block at k = 0 and one node at the far corner, Nyquist planes
        values = np.zeros(grid.shape, dtype=complex)
        values[:3, :2, :4] = 1.0 + 2.0j
        values[-1, grid.n_y // 2, -1] = -3.0
        return wc.SpectralField3(grid, values)
    return masked_spectrum(grid, {"random": 0.1, "full": 1.1}[kind], seed)


class TestPrunedAnalyze:
    """``analyze`` transforms only the lattice lines its support reaches."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kind", ["band", "random", "corner", "full"])
    @pytest.mark.parametrize("name", sorted(PRUNE_GRIDS))
    def test_coefficients_equal_the_plain_transform(self, monkeypatch, tmp_path, packet, name,
                                                     kind, threads):
        grid = PRUNE_GRIDS[name]
        pg = wc.make_parameter_grid(grid, packet, 0.3, 2.0, 4, 2, 2)
        u = support_case(grid, kind)
        pruned = wc.analyze(u, "plus", packet, pg, constant=1.0, threads=threads).values
        with wc.create_coefficients(tmp_path / "u.wcf", packet, pg, 1.0) as payload:
            wc.analyze(u, "plus", packet, pg, constant=1.0, threads=threads, out=payload)
        streamed = wc.read_coefficients(tmp_path / "u.wcf")[0].values
        monkeypatch.setattr(cwt, "_pruned_ifft", lambda cube, runs: _lattice_ifft(cube, out=cube))
        plain = wc.analyze(u, "plus", packet, pg, constant=1.0, threads=threads).values
        assert pruned.tobytes() == plain.tobytes() == streamed.tobytes()

    def test_band_support_transforms_at_most_two_lattices_per_slice(self, monkeypatch, packet):
        # each one-axis pass counts the points it transforms: the plain transform 3 N per slice
        grid = PRUNE_GRIDS["cube32"]
        pg = wc.make_parameter_grid(grid, packet, 0.3, 2.0, 4, 2, 2)
        points, ifftn = [], np.fft.ifftn

        def counted(a, s=None, axes=None, **kwargs):
            points.append(a.size * len(axes))
            return ifftn(a, s, axes, **kwargs)

        monkeypatch.setattr(np.fft, "ifftn", counted)
        slices = pg.n_a * pg.n_rotations * grid.node_count
        wc.analyze(support_case(grid, "band"), "plus", packet, pg, constant=1.0)
        assert sum(points) <= 2.0 * slices
        points.clear()
        wc.analyze(support_case(grid, "full"), "plus", packet, pg, constant=1.0)
        assert sum(points) == 3 * slices  # a full support's passes cover the whole lattice


class TestSliceTasks:
    """Slice routes work in (rotation, dilation block) tasks cut from the grid and a width.

    The width is the number of points evaluated per dilation: the field's node
    count for the materialized routes, the support nodes or |k| shells for the
    resolution kernel, and 0 for an empty support, whose tasks evaluate no
    spectrum.
    """

    @staticmethod
    def covered(pg, width):
        tasks = _slice_tasks(pg, width)
        pairs = [(idx, a) for idx, rows in tasks for a in range(pg.n_a)[rows]]
        assert pairs == [(idx, a) for idx in range(pg.n_rotations) for a in range(pg.n_a)]
        return tasks

    def test_tasks_cover_every_slice_once_rotation_major(self, exp_sph, packet):
        big = wc.make_parameter_grid(wc.Grid3.cubic(64, 64.0), exp_sph, 0.08, 2.5, 24)
        assert len(self.covered(big, 64**3)) == 24
        # the 4051 |k| shells of the same cube: one block of 32 dilations at most
        assert self.covered(big, 4051) == [(0, slice(0, 24))]
        mid = wc.make_parameter_grid(wc.Grid3.cubic(32, 32.0), packet, 0.3, 2.0, 10, 2, 2)
        assert [rows.stop - rows.start for _, rows in self.covered(mid, 32**3)] == [4, 4, 2] * 4
        assert self.covered(mid, 0) == [(idx, slice(0, 10)) for idx in range(4)]
        # a task that evaluates nothing per dilation covers them all, however many
        many = wc.make_parameter_grid(wc.Grid3.cubic(8, 8.0), packet, 0.3, 2.0, 200_000, 1, 1)
        assert self.covered(many, 0) == [(0, slice(0, 200_000))]
        small = wc.make_parameter_grid(wc.Grid3.cubic(16, 16.0), packet, 0.3, 2.0, 24, 4, 3)
        assert self.covered(small, 16**3) == [(idx, slice(0, 24)) for idx in range(12)]

    def test_blocks_cover_in_order_at_the_stated_sizes(self):
        # max(1, _TASK_BYTES // item_bytes) items a block; items of 0 bytes make one block
        budget = cwt._TASK_BYTES
        cases = {(10, budget // 4): [4, 4, 2], (10, budget // 4 + 1): [3, 3, 3, 1],
                 (3, 2 * budget): [1, 1, 1], (5, 1): [5], (7, 0): [7], (0, 8): [], (0, 0): []}
        for (n, item_bytes), sizes in cases.items():
            blocks = cwt._blocks(n, item_bytes)
            assert [rows.stop - rows.start for rows in blocks] == sizes
            assert [i for rows in blocks for i in range(n)[rows]] == list(range(n))

    def test_blocks_do_not_depend_on_threads(self, exp_sph, packet):
        grid = wc.Grid3.cubic(32, 32.0)
        rows = []

        def spectral(kx, ky, kz):
            rows.append(np.shape(kx)[0])
            return exp_sph.spectral(kx, ky, kz)

        counted = dataclasses.replace(exp_sph, spectral=spectral)
        pg = wc.make_parameter_grid(grid, counted, *EXP_SPH_A_RANGE, 10)
        u = band_limited_spectrum(grid, 0.7, 1.6, 81)
        blocks = []
        for threads in (1, 2):
            rows.clear()
            wc.analyze(u, "minus", counted, pg, constant=1.3, threads=threads)
            blocks.append(sorted(rows))
        assert blocks[0] == blocks[1] == [2, 4, 4]
        # an axial grid's synthesis task holds a gathered member's values next to the FFT
        # slab, so its blocks take 2 dilations where analyze's take 4
        rows_of = {}

        def packet_spectral(kx, ky, kz):
            rows.append(np.shape(kx)[0])
            return packet.spectral(kx, ky, kz)

        counted = dataclasses.replace(packet, spectral=packet_spectral)
        pg = wc.make_parameter_grid(grid, counted, 0.3, 2.0, 10, 2, 2)
        assert len(_orbits(pg)[0]) == 1  # the 2 x 2 angles form one orbit
        u = band_limited_spectrum(grid, 0.6, 1.8, 85)
        for threads in (1, 2):
            rows.clear()
            coeffs = wc.analyze(u, "plus", counted, pg, constant=1.3, threads=threads)
            rows_of["analyze", threads] = sorted(rows)
            rows.clear()
            wc.reconstruct_spectrum(coeffs, counted, threads=threads)
            rows_of["reconstruct", threads] = sorted(rows)
        assert rows_of["analyze", 1] == rows_of["analyze", 2] == [2] * 4 + [4] * 8
        assert rows_of["reconstruct", 1] == rows_of["reconstruct", 2] == [2] * 5

    @pytest.mark.parametrize("name", ["exp-spherical", "packet"])
    def test_split_blocks_are_bit_identical_across_threads(self, name, exp_sph, packet):
        grid = wc.Grid3.cubic(32, 32.0)
        if name == "packet":
            wavelet = packet
            pg = kernel_pg = wc.make_parameter_grid(grid, packet, 0.3, 2.0, 12, 2, 2)
        else:
            wavelet = exp_sph
            pg = wc.make_parameter_grid(grid, exp_sph, *EXP_SPH_A_RANGE, 24)
            # 827 |k| shells take 158 dilations per block
            kernel_pg = wc.make_parameter_grid(grid, exp_sph, *EXP_SPH_A_RANGE, 200)
        assert len(_slice_tasks(pg, grid.node_count)) > pg.n_rotations
        u = band_limited_spectrum(grid, 0.7, 1.6, 82)
        one, two = (wc.analyze(u, wavelet.sign, wavelet, pg, constant=1.3, threads=n)
                    for n in (1, 2))
        assert one.values.tobytes() == two.values.tobytes()
        spectra = [wc.reconstruct_spectrum(one, wavelet, threads=n).values for n in (1, 2)]
        assert spectra[0].tobytes() == spectra[1].tobytes()
        # the kernel's blocks are cut from the points it evaluates per dilation
        full = np.ones(grid.node_count, dtype=bool)
        width = _sweep(wavelet, kernel_pg, _lattice_points(grid, full), power=True).width
        assert len(_slice_tasks(kernel_pg, width)) > kernel_pg.n_rotations
        kernels = [wc.kernel.resolution_kernel(wavelet, kernel_pg, full, threads=n) for n in (1, 2)]
        assert kernels[0].tobytes() == kernels[1].tobytes()

    def test_spherical_reconstruct_equals_per_rotation_reference(self, exp_sph, packet):
        # reference: each (orbit, dilation block) task sums, member by member in orbit order,
        # its weighted PHI * fftn(U) slices in dilation order; the partial sums are added in
        # task order, and the transform's k-factor is applied once to the sum.
        # The spherical case gathers shell values on the lattice; the packet's 2 x 2 angles
        # form one orbit, whose representative is evaluated on the closed lattice and every
        # member takes its values at A k.  The packet's window is matched to the band, so
        # every dilation's slices carry weight and the bytes pin the blocks' summation order
        grid = wc.Grid3.cubic(32, 32.0)
        cases = [(exp_sph, wc.make_parameter_grid(grid, exp_sph, *EXP_SPH_A_RANGE, 24)),
                 (packet, wc.make_parameter_grid(grid, packet,
                                                 *wc.suggest_dilation_range(packet, 0.7, 1.6),
                                                 10, 2, 2))]
        u = band_limited_spectrum(grid, 0.7, 1.6, 83)
        k = np.array([K.ravel() for K in grid.k_mesh()])
        for wavelet, pg in cases:
            coeffs = wc.analyze(u, wavelet.sign, wavelet, pg, constant=1.3)
            orbits, maps = _orbits(pg)
            axial = wavelet is packet
            assert [len(orbit) for orbit in orbits] == ([4] if axial else [1])
            spectra = _sweep(wavelet, pg, _closed_points(grid) if axial else list(k))
            at = [closed_index(grid, np.einsum("ij,jm->im", a, k)) for a in maps or []]
            scale = pg.a_nodes**1.5
            ref = 0
            for orbit, rows in _slice_tasks(pg, (2 if axial else 1) * grid.node_count, orbits):
                phi = spectra(orbit[0], rows).copy()
                part = None
                for idx in orbit:
                    values = phi[:, at[idx]] if axial else phi
                    slab = np.fft.fftn(coeffs.values[rows, idx], axes=(-3, -2, -1))
                    share = 0
                    for a, row in zip(range(pg.n_a)[rows],
                                      values * slab.reshape(rows.stop - rows.start, -1)):
                        share = share + pg.rotation_weights[idx] * pg.a_weights[a] * scale[a] * row
                    part = share if part is None else part + share
                ref = ref + part
            ref = _forward_factor(ref.reshape(grid.shape), grid)
            ref /= 1.3 * pg.constant_factor
            for threads in (1, 2):
                got = wc.reconstruct_spectrum(coeffs, wavelet, threads=threads).values
                assert got.tobytes() == ref.tobytes()

    def test_shared_rotation_blocks_survive_thread_switches(self, monkeypatch, exp_sph, packet):
        # more workers than tasks of one rotation, switching threads as often as possible:
        # a slice or partial sum that is lost or added out of order breaks byte equality
        monkeypatch.setattr(cwt.os, "cpu_count", lambda: 8)
        grid = wc.Grid3.cubic(32, 32.0)
        cases = [(exp_sph, wc.make_parameter_grid(grid, exp_sph, *EXP_SPH_A_RANGE, 24)),
                 (packet, wc.make_parameter_grid(grid, packet, 0.3, 2.0, 12, 2, 2))]
        u = band_limited_spectrum(grid, 0.7, 1.6, 84)
        full = np.ones(grid.node_count, dtype=bool)
        interval = sys.getswitchinterval()
        try:
            for wavelet, pg in cases:
                coeffs = wc.analyze(u, wavelet.sign, wavelet, pg, constant=1.3, threads=1)
                want = wc.reconstruct_spectrum(coeffs, wavelet, threads=1).values.tobytes()
                kernel = wc.kernel.resolution_kernel(wavelet, pg, full, threads=1).tobytes()
                sys.setswitchinterval(1e-6)
                again = wc.analyze(u, wavelet.sign, wavelet, pg, constant=1.3, threads=8)
                assert again.values.tobytes() == coeffs.values.tobytes()
                for _ in range(10):
                    got = wc.reconstruct_spectrum(coeffs, wavelet, threads=8).values
                    assert got.tobytes() == want
                for _ in range(3):
                    assert wc.kernel.resolution_kernel(wavelet, pg, full, threads=8).tobytes() == kernel
                sys.setswitchinterval(interval)
            # the axial table route on the band's support
            pg = packet_grid(packet, 24, 4, 2)
            band = u.values.ravel() != 0
            assert certified(packet, pg, band)
            kernel = wc.kernel.resolution_kernel(packet, pg, band, threads=1).tobytes()
            sys.setswitchinterval(1e-6)
            for threads in (2, 8, 2, 8):
                assert wc.kernel.resolution_kernel(packet, pg, band, threads).tobytes() == kernel
        finally:
            sys.setswitchinterval(interval)

    def test_map_ordered_bounds_results_in_flight(self, monkeypatch):
        monkeypatch.setattr(cwt.os, "cpu_count", lambda: 4)
        workers = 3
        lock = threading.Lock()
        started = []

        def fn(item):
            with lock:
                started.append(item)
            return item * item

        got = []
        for i, value in enumerate(_map_ordered(fn, range(40), workers)):
            with lock:
                assert len(started) <= i + 2 * workers + 1
            got.append(value)
            time.sleep(0.002)  # a slow consumer: unbounded workers would run far ahead
        assert got == [i * i for i in range(40)]


class TestSliceMemory:
    """Working memory of the materialized routes, in 512 KiB slabs of a 32^3 grid."""

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            result = fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak - start

    @pytest.mark.parametrize("threads", [1, 2])
    def test_slice_routes_stay_within_their_slabs(self, monkeypatch, packet, threads):
        # analyze writes each product into its coefficient rows and transforms them in
        # place (16.3 and 32.4 slabs beyond the coefficients when every task built its
        # own zero block and transformed out of place); reconstruct_spectrum stays at or
        # below the 28.5 and 54.5 slabs of a per-slice phase-and-volume transform.  The
        # same bounds hold on an axial grid and on a "none" one, both gathering orbits.
        monkeypatch.setattr(cwt.os, "cpu_count", lambda: 2)
        grid = wc.Grid3.cubic(32, 32.0)
        u = band_limited_spectrum(grid, 0.6, 1.8, 85)
        slab = 16 * grid.node_count
        for wavelet, angles in ((packet, (2, 2)), (none_wavelet(), (2, 2, 2))):
            pg = wc.make_parameter_grid(grid, wavelet, 0.3, 2.0, 8, *angles)
            assert _orbits(pg)[1] is not None
            coeffs, peak = self.traced_peak(
                lambda: wc.analyze(u, wavelet.sign, wavelet, pg, constant=1.0, threads=threads))
            beyond = (peak - coeffs.values.nbytes) / slab
            assert beyond <= 4.0 * threads
            _, peak = self.traced_peak(lambda: wc.reconstruct_spectrum(coeffs, wavelet, threads))
            synthesis_slabs = peak / slab
            assert synthesis_slabs <= {1: 28.5, 2: 54.5}[threads]


    @pytest.mark.parametrize("threads", [1, 2])
    def test_pairing_stays_within_the_per_task_peak(self, monkeypatch, packet, threads):
        # each worker's workspace lives for the whole call; the route still peaks no
        # higher than when every task made its own temporaries (4.42 slabs at one
        # thread, 4.5-7.7 at two, depending on how the two workers' tasks overlapped),
        # and the workspaces are gone when the call returns
        monkeypatch.setattr(cwt.os, "cpu_count", lambda: 2)
        grid = wc.Grid3.cubic(32, 32.0)
        pg = wc.make_parameter_grid(grid, packet, 0.3, 2.0, 8, 2, 2)
        u = band_limited_spectrum(grid, 0.6, 1.8, 85)
        slab = 16 * grid.node_count
        # a warm-up call makes the first-call allocations of numpy and the standard
        # library, so the traced call is measured alone whatever ran before it
        wc.transform_pairing(u, u, packet, pg, threads)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            wc.transform_pairing(u, u, packet, pg, threads)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - start) / slab <= {1: 4.43, 2: 7.7}[threads]
        assert kept - start <= 0.01 * slab

    @pytest.mark.parametrize("threads", [1, 2])
    def test_full_support_kernel_stays_within_its_blocks(self, monkeypatch, packet, threads):
        # each task reduces its block of dilations before the next starts: 18.8 and
        # 35.1 slabs, where one task per rotation over all 24 dilations took 91 and 179
        monkeypatch.setattr(cwt.os, "cpu_count", lambda: 2)
        grid = wc.Grid3.cubic(32, 32.0)
        pg = wc.make_parameter_grid(grid, packet, 0.3, 2.0, 24, 4, 2)
        full = np.ones(grid.node_count, dtype=bool)
        _, peak = self.traced_peak(lambda: wc.kernel.resolution_kernel(packet, pg, full, threads))
        assert peak / (16 * grid.node_count) <= {1: 24.0, 2: 45.0}[threads]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_axial_table_peaks_below_the_direct_sweep(self, monkeypatch, packet, threads):
        # isometry settings: a direct sweep over every support node holds (24, 3116)
        # evaluation buffers per worker, the table route (4, 83 x 48) of them and 48
        # coefficients per node.  Over the 264 node orbits' representatives the sweep holds
        # (24, 264), and both routes peak in the node-orbit search (1.46 MB traced), so the
        # table is compared with the sweep over every node
        monkeypatch.setattr(cwt.os, "cpu_count", lambda: 2)
        pg = packet_grid(packet, 24, 16, 8)
        support = band_limited_spectrum(pg.field_grid, 0.6, 1.8, 86).values.ravel() != 0

        def kernel():
            return wc.kernel.resolution_kernel(packet, pg, support, threads)

        _, table = self.traced_peak(kernel)
        monkeypatch.setattr(wc.kernel, "_axial_kernel", lambda *args: None)
        monkeypatch.setattr(wc.kernel, "_node_orbits",
                            lambda grid, group, support: (np.flatnonzero(support), slice(None)))
        _, direct = self.traced_peak(kernel)
        assert table <= direct


class TestWholeSetRoutes:
    """Routes over two materialized sets go one dilation at a time, with the whole-set bytes."""

    @pytest.fixture(scope="class")
    def sets(self, grid16, packet):
        pg = wc.make_parameter_grid(grid16, packet, 0.3, 2.0, 8, 4, 2)
        rev = wc.time_reverse(packet)

        def coeffs(sign, seed):
            u = band_limited_spectrum(grid16, 0.6, 1.8, seed)
            return wc.analyze(u, sign, packet if sign == "plus" else rev, pg, constant=1.0)

        return {sign: (coeffs(sign, 87), coeffs(sign, 88)) for sign in ("plus", "minus")}

    def test_pairing_and_combination_keep_the_whole_set_bytes(self, sets):
        U, V = sets["plus"]
        g = U.nu_grid
        per_node = np.einsum("arxyz,arxyz->ar", U.values, np.conj(V.values))
        total = np.einsum("a,r,ar->", g.a_weights, g.rotation_weights, per_node)
        assert wc.weighted_pairing(U, V) == complex(total * g.field_grid.cell_volume)
        a = g.a_nodes[:, None, None, None, None]
        for sgn, (W, X) in ((-1.0, sets["plus"]), (1.0, sets["minus"])):
            want = 0.5 * W.values + (sgn * 0.5) * a * X.values
            assert wc.combine_initial_coefficients(W, X).values.tobytes() == want.tobytes()

    def test_pairing_and_combination_hold_a_fraction_of_a_set(self, sets):
        # 16^3, 8 dilations, 4 x 2 angles; a whole-set conjugate peaked at 1.00 set for the
        # pairing, two whole-set temporaries at 2.03 sets (result included) for the combination
        U, V = sets["plus"]
        size = U.values.nbytes
        _, peak = TestSliceMemory.traced_peak(lambda: wc.weighted_pairing(U, V))
        assert peak / size <= 0.25
        _, peak = TestSliceMemory.traced_peak(lambda: wc.combine_initial_coefficients(U, V))
        assert peak / size <= 1.3


def stale_workspace(seed):
    """A workspace that hands out every buffer full of random bits, as a previous task may."""
    rng = np.random.default_rng(seed)

    class Stale(cwt._Workspace):
        def rows(self, n_rows):
            views = super().rows(n_rows)
            for view in views:
                raw = view.view(np.uint8)
                raw[...] = rng.integers(0, 256, raw.shape, dtype=np.uint8)
            return views

    return Stale


def weights(pg):
    """The kernel's dilation weights ``w_a a^3``."""
    return pg.a_weights * pg.a_nodes**3


class TestWorkspace:
    """Per-worker buffers are reused from task to task without changing a bit."""

    def test_short_last_block_takes_row_views(self, monkeypatch, packet, exp_sph):
        monkeypatch.setattr(cwt, "_Workspace", stale_workspace(90))
        grid = wc.Grid3.cubic(32, 32.0)
        pg = wc.make_parameter_grid(grid, packet, 0.3, 2.0, 10, 2, 2)
        tasks = _slice_tasks(pg, grid.node_count)[:4]
        assert [rows.stop - rows.start for _, rows in tasks] == [4, 4, 2, 4]
        support = band_limited_spectrum(grid, 0.6, 1.8, 91).values.ravel() != 0
        k = [K.ravel()[support] for K in grid.k_mesh()]

        def fresh(idx, rows):
            r = pg.rotations[idx]
            q = r[0][:, None] * k[0] + r[1][:, None] * k[1] + r[2][:, None] * k[2]
            return packet.spectral(*(np.multiply.outer(pg.a_nodes[rows], q[i]) for i in range(3)))

        # in task order, and with the short block first so the buffers grow afterwards
        for order in (tasks, tasks[2:] + tasks[:2]):
            spectra = _sweep(packet, pg, k)
            got = []
            for idx, rows in order:
                got.append(spectra(idx, rows))
                want = fresh(idx, rows)
                assert (want == 0).any() and got[-1].tobytes() == want.tobytes()
            # one set of buffers, grown once when the short block came first
            grown = 0 if order is tasks else 1
            assert all(np.shares_memory(phi, got[grown]) for phi in got[grown:])
            power = _sweep(packet, pg, k, power=True)
            for idx, rows in order:
                want = fresh(idx, rows)
                share = np.einsum("a,am->m", pg.rotation_weights[idx] * weights(pg)[rows],
                                  want.real**2 + want.imag**2)
                assert power(idx, rows).tobytes() == share.tobytes()

        # a spherical wavelet's shell values are gathered into one set of node buffers
        pg = wc.make_parameter_grid(grid, exp_sph, *EXP_SPH_A_RANGE, 10)
        tasks = _slice_tasks(pg, grid.node_count)
        assert [rows.stop - rows.start for _, rows in tasks] == [4, 4, 2]
        shells, shell_of = np.unique(k[0] * k[0] + k[1] * k[1] + k[2] * k[2], return_inverse=True)
        for order in (tasks, tasks[2:] + tasks[:2]):
            spectra = _sweep(exp_sph, pg, k)
            power = _sweep(exp_sph, pg, k, power=True)
            got = []
            for _, rows in order:
                kz = np.multiply.outer(pg.a_nodes[rows], np.sqrt(shells))
                on_shells = exp_sph.spectral(np.zeros_like(kz), np.zeros_like(kz), kz)
                got.append(spectra(0, rows))
                assert got[-1].shape == (len(kz), np.count_nonzero(support))
                assert got[-1].tobytes() == on_shells[:, shell_of].tobytes()
                # the kernel's share is reduced on the shells, then gathered
                share = np.einsum("a,am->m", pg.rotation_weights[0] * weights(pg)[rows],
                                  on_shells.real**2 + on_shells.imag**2)[shell_of]
                assert power(0, rows).tobytes() == share.tobytes()
            grown = 0 if order is tasks else 1
            assert all(np.shares_memory(phi, got[grown]) for phi in got[grown:])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_stale_buffers_change_no_output(self, monkeypatch, packet, exp_sph, threads):
        grid = wc.Grid3.cubic(32, 32.0)
        u = band_limited_spectrum(grid, 0.6, 1.8, 92)
        v = band_limited_spectrum(grid, 0.6, 1.8, 93)
        cases = [(packet, wc.make_parameter_grid(grid, packet, 0.3, 2.0, 10, 2, 2)),
                 (exp_sph, wc.make_parameter_grid(grid, exp_sph, *EXP_SPH_A_RANGE, 10))]

        def outputs():
            out = []
            for wavelet, pg in cases:
                coeffs = wc.analyze(u, wavelet.sign, wavelet, pg, constant=1.3, threads=threads)
                out += [coeffs.values,
                        wc.reconstruct_spectrum(coeffs, wavelet, threads).values,
                        np.array(wc.transform_pairing(u, v, wavelet, pg, threads)),
                        wc.project(u, wavelet, pg, constant=1.3, threads=threads).values]
            return [x.tobytes() for x in out]

        want = outputs()
        monkeypatch.setattr(cwt, "_Workspace", stale_workspace(94))
        monkeypatch.setattr(synthesis, "_Workspace", stale_workspace(95))
        assert outputs() == want


@pytest.mark.skipif(sys.platform != "linux", reason="per-thread page-fault counts are Linux's")
def test_pairing_faults_do_not_grow_with_rotations(packet):
    # per-task temporaries were unmapped and faulted in again for every rotation:
    # 145,408 minor faults at 16 x 8 angles against 18,176 at 4 x 4
    grid = wc.Grid3.cubic(32, 32.0)
    a_range = wc.suggest_dilation_range(packet, 0.6, 1.8)
    u = band_limited_spectrum(grid, 0.6, 1.8, 96)

    def faults(n_theta1, n_theta2):
        pg = wc.make_parameter_grid(grid, packet, *a_range, 24, n_theta1, n_theta2)
        wc.transform_pairing(u, u, packet, pg, threads=1)
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        wc.transform_pairing(u, u, packet, pg, threads=1)
        return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before

    few, many = faults(4, 4), faults(16, 8)
    assert many <= 1.5 * few + 1024


def test_every_route_refuses_a_grid_built_for_another_wavelet(grid16, packet, exp_sph,
                                                              exp_sph_pgrid):
    # transform_pairing used to return a number where project refused the same inputs
    u = band_limited_spectrum(grid16, 0.7, 1.6, 98)
    coeffs = wc.analyze(u, "plus", wc.time_reverse(exp_sph), exp_sph_pgrid, constant=1.0)
    routes = [lambda: wc.transform_pairing(u, u, packet, exp_sph_pgrid),
              lambda: wc.project(u, packet, exp_sph_pgrid, constant=1.0),
              lambda: wc.analyze(u, "plus", packet, exp_sph_pgrid, constant=1.0),
              lambda: wc.reconstruct_spectrum(coeffs, packet)]
    for route in routes:
        with pytest.raises(wc.ValidationError, match="symmetry/axis"):
            route()
    other = band_limited_spectrum(wc.Grid3.cubic(16, 12.0), 0.7, 1.6, 99)
    with pytest.raises(wc.GridMismatchError):
        wc.transform_pairing(u, other, exp_sph, exp_sph_pgrid)


class TestCoefficientChecks:
    def test_coefficients_beyond_physical_memory_are_refused_first(self, monkeypatch, grid16,
                                                                   packet):
        pg = wc.make_parameter_grid(grid16, packet, 0.3, 2.0, 8, 2, 2)  # 2 MiB
        u = band_limited_spectrum(grid16, 0.6, 1.8, 97)
        sysconf = cwt.os.sysconf
        machine = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}  # 1 MiB
        monkeypatch.setattr(cwt.os, "sysconf", lambda name: machine.get(name) or sysconf(name))
        tracemalloc.start()
        try:
            with pytest.raises(wc.ValidationError, match="physical memory"):
                wc.analyze(u, "plus", packet, pg, constant=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * grid16.node_count  # nothing of slice size was allocated
        machine["SC_PHYS_PAGES"] = 512
        wc.analyze(u, "plus", packet, pg, constant=1.0)  # exactly fits

    def test_finiteness_scan_allocates_one_dilation_mask(self, grid16, packet):
        pg = wc.make_parameter_grid(grid16, packet, 0.3, 2.0, 8, 2, 2)
        shape = (pg.n_a, pg.n_rotations) + grid16.shape
        values = np.ones(shape, dtype=np.complex128)
        one_mask = 2 * values[0].size  # one bool per float64 of a dilation
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            wc.WaveletCoefficients(pg, values, "plus", 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 1.25 * one_mask

    def test_analyze_checks_every_task_slab(self, grid16, packet):
        pg = wc.make_parameter_grid(grid16, packet, 0.3, 2.0, 8, 2, 2)
        u = band_limited_spectrum(grid16, 0.6, 1.8, 97)
        tasks = len(_slice_tasks(pg, grid16.node_count))
        calls = []

        def spectral(kx, ky, kz):  # one call per task: the last task's last dilation is NaN
            calls.append(1)
            values = np.array(packet.spectral(kx, ky, kz))
            if len(calls) == tasks:
                values[-1, -1] = np.nan
            return values

        broken = dataclasses.replace(packet, spectral=spectral)
        with pytest.raises(wc.ValidationError, match="non-finite"):
            wc.analyze(u, "plus", broken, pg, constant=1.0, threads=1)
        assert len(calls) == tasks

    def test_checked_sets_are_not_scanned_again(self, monkeypatch, grid16, packet):
        # analyze checks its tasks' slabs and reconstruct_cross swaps the constant of a
        # checked set: neither builds its result through the constructor's scan
        pg = wc.make_parameter_grid(grid16, packet, 0.3, 2.0, 8, 2, 2)
        u = band_limited_spectrum(grid16, 0.6, 1.8, 97)
        want = wc.analyze(u, "plus", packet, pg, constant=1.0)
        field = wc.reconstruct(want, packet, 0.5)

        def scan(self):
            raise AssertionError("coefficients scanned again")

        monkeypatch.setattr(wc.WaveletCoefficients, "__post_init__", scan)
        coeffs = wc.analyze(u, "plus", packet, pg, constant=1.0)
        assert coeffs.values.tobytes() == want.values.tobytes()
        assert wc.reconstruct_cross(coeffs, packet, 1.0, 0.5).values.tobytes() == \
            field.values.tobytes()

    def test_nan_in_last_dilation_is_rejected(self, grid16, packet):
        pg = wc.make_parameter_grid(grid16, packet, 0.3, 2.0, 8, 2, 2)
        values = np.ones((pg.n_a, pg.n_rotations) + grid16.shape, dtype=np.complex128)
        values[-1, -1, -1, -1, -1] = complex(0.0, np.nan)
        with pytest.raises(wc.ValidationError):
            wc.WaveletCoefficients(pg, values, "plus", 1.0)


def closed_index(grid, image):
    """Flat indices on the closed lattice of the wave vectors ``image`` (3, M), checked exactly.

    Axis ``i`` of the closed lattice holds ``m dk_i`` at index ``m mod (n_i + 1)`` for
    ``m = -n_i/2 .. n_i/2``.
    """
    shape = _closed_shape(grid)
    at = [np.rint(image[i] / grid.k_axes()[i][1]).astype(int) % shape[2 - i] for i in range(3)]
    flat = (at[2] * shape[1] + at[1]) * shape[2] + at[0]
    assert np.array_equal(np.stack(_closed_points(grid))[:, flat], image)
    return flat


def lone_rotations(pg):
    """Every rotation its own orbit: the per-rotation tasks, each evaluating its own PHI."""
    return [(idx,) for idx in range(pg.n_rotations)], [np.eye(3)] * pg.n_rotations


def masked_spectrum(grid, share, seed):
    """A random spectrum on a random, asymmetric share of the lattice."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    return wc.SpectralField3(grid, values * (rng.random(grid.shape) < share))


class TestOrbits:
    """Rotation orbits under the lattice's signed permutations in ``reconstruct_spectrum``.

    An orbit's representative is evaluated on the negation-closed lattice and
    gathered at ``A k`` for every member, itself included, on every node.
    """

    @pytest.mark.parametrize("grid", [wc.Grid3.cubic(8, 8.0), AXIAL_GRIDS["off-centre"]])
    def test_twins_are_the_negations_among_the_nodes(self, grid):
        k = np.array([K.ravel() for K in grid.k_mesh()])
        negation = lattice_negation(grid)
        on = negation >= 0
        assert np.array_equal(k[:, negation[on]], -k[:, on])
        # only the Nyquist planes' nodes have no negation on the lattice
        assert on.sum() == np.prod([n - 1 for n in grid.shape])
        # under {I, -I} a node's orbit is itself and its negation where that is a lattice
        # node in the support: the lower of the two flat indices represents both
        support = np.random.default_rng(12).random(grid.node_count) < 0.5
        nodes = np.flatnonzero(support)
        twin = on[nodes] & support[np.where(on, negation, 0)[nodes]]
        want = np.where(twin, np.minimum(nodes, negation[nodes]), nodes)
        representatives, member = _node_orbits(grid, np.stack([np.eye(3), -np.eye(3)]), support)
        assert np.array_equal(representatives, np.unique(want))
        assert np.array_equal(representatives[member], want)
        representatives, member = _node_orbits(grid, np.stack([np.eye(3), -np.eye(3)]),
                                               np.zeros_like(support))
        assert representatives.size == member.size == 0

    @pytest.mark.parametrize("grid, elements", [
        (wc.Grid3.cubic(8, 8.0), 48), (wc.Grid3(12, 10, 8, 1.0, 0.7, 1.3), 8),
        (wc.Grid3(8, 12, 12, 1.0, 1.3, 1.3), 16), (wc.Grid3(8, 8, 8, 1.0, 1.0, 1.1), 16),
    ])
    def test_gather_reads_the_value_at_a_k(self, grid, elements):
        k = np.array([K.ravel() for K in grid.k_mesh()])
        src = np.random.default_rng(11).normal(size=(2,) + _closed_shape(grid))
        group = _lattice_symmetries(grid)
        assert len(group) == elements
        assert np.array_equal(group[0], np.eye(3))
        for a in group:
            out = _gatherer(a, grid.shape)(src, np.empty((2,) + grid.shape))
            # A k is a closed-lattice wave vector at every node, and the gather reads it there
            at = closed_index(grid, np.einsum("ij,jm->im", a, k))
            assert np.array_equal(out.reshape(2, -1), src.reshape(2, -1)[:, at])

    @pytest.mark.parametrize("grid", [wc.Grid3.cubic(16, 16.0), wc.Grid3(12, 10, 8, 1.0, 0.7, 1.3),
                                      wc.Grid3(16, 12, 10, 1.0, 1.1, 0.9, (3.0, -2.0, 1.0))])
    def test_closed_lattice_is_negation_closed_and_holds_the_lattice(self, grid):
        shape = _closed_shape(grid)
        assert shape == tuple(n + 1 for n in grid.shape)
        closed = [c.reshape(shape) for c in _closed_points(grid)]
        negate = np.ix_(*((-np.arange(n)) % n for n in shape))  # i -> -i mod (n + 1)
        keep = np.ix_(*(np.delete(np.arange(n + 1), n // 2) for n in grid.shape))
        for c, K in zip(closed, grid.k_mesh()):
            # equal values are equal bits but for the sign of zero, which is the origin's
            assert np.array_equal(c[negate], -c)
            assert c[keep].tobytes() == K.tobytes()

    # two angles make an axial grid of the packet, matched on R e; three a "none" grid of
    # bateman, matched on the whole R.  Maps are None exactly when no orbit has two members:
    # one rotation, or 5 x 3 x 3 angles, whose rotations share no lattice symmetry.
    @pytest.mark.parametrize("grid, angles, sizes", [
        (wc.Grid3.cubic(32, 32.0), (12, 6), {8: 3, 16: 3}),
        (wc.Grid3.cubic(32, 32.0), (16, 8), {8: 8, 16: 4}),
        (wc.Grid3.cubic(32, 32.0), (2, 2), {4: 1}),
        (wc.Grid3.cubic(32, 32.0), (11, 6), {2: 3, 4: 15}),
        (wc.Grid3(32, 24, 20, 1.0, 1.0, 1.0), (12, 6), {4: 6, 8: 6}),
        (wc.Grid3.cubic(32, 32.0), (1, 1), {1: 1}),
        (wc.Grid3.cubic(32, 32.0), (8, 4, 4), {8: 16}),
        (wc.Grid3(16, 12, 10, 1.0, 1.1, 0.9, (3.0, -2.0, 1.0)), (8, 4, 4), {4: 32}),
        (wc.Grid3.cubic(32, 32.0), (5, 3, 3), {1: 45}),
    ])
    def test_orbits_map_each_member_to_its_representative(self, packet, grid, angles, sizes):
        wavelet = packet if len(angles) == 2 else none_wavelet()
        pg = wc.make_parameter_grid(grid, wavelet, 0.3, 2.0, 2, *angles)
        orbits, maps = _orbits(pg)
        assert sorted(idx for orbit in orbits for idx in orbit) == list(range(pg.n_rotations))
        assert [orbit[0] for orbit in orbits] == sorted(orbit[0] for orbit in orbits)
        counts = {}
        for orbit in orbits:
            counts[len(orbit)] = counts.get(len(orbit), 0) + 1
        assert counts == sizes
        if sizes == {1: pg.n_rotations}:
            assert maps is None
            return
        # R e for the packet's x axis; the whole R on a "none" grid
        keys = pg.rotations[:, :, :1] if len(angles) == 2 else pg.rotations
        for orbit in orbits:
            assert list(orbit) == sorted(orbit)
            for idx in orbit:
                np.testing.assert_allclose(keys[idx], maps[idx].T @ keys[orbit[0]],
                                           rtol=0, atol=1e-12)
                assert abs(pg.rotation_weights[idx] - pg.rotation_weights[orbit[0]]) <= \
                    4 * np.finfo(float).eps * pg.rotation_weights[idx]
            assert np.array_equal(maps[orbit[0]], np.eye(3))

    def test_spherical_grid_is_one_orbit_without_maps(self, grid16, exp_sph):
        pg = wc.make_parameter_grid(grid16, exp_sph, 0.3, 2.0, 4)
        assert _orbits(pg) == ([(0,)], None)

    # orbits depend on the lattice's symmetry, not its size: the 32^3 cube at 2 x 2 angles,
    # a 16^3 one at the larger angle grids and a non-cubic, off-centre box; three angles
    # make a "none" grid of bateman
    @pytest.mark.parametrize("angles, grid", [
        ((2, 2), wc.Grid3.cubic(32, 32.0)), ((12, 6), wc.Grid3.cubic(16, 16.0)),
        ((16, 8), wc.Grid3.cubic(16, 16.0)), ((11, 6), wc.Grid3.cubic(16, 16.0)),
        ((12, 6), wc.Grid3(16, 12, 10, 1.0, 1.1, 0.9, (3.0, -2.0, 1.0))),
        ((8, 4, 4), wc.Grid3.cubic(16, 16.0)),
        ((8, 4, 4), wc.Grid3(16, 12, 10, 1.0, 1.1, 0.9, (3.0, -2.0, 1.0))),
    ])
    def test_routes_match_the_per_rotation_reference(self, monkeypatch, packet, angles, grid):
        wavelet = packet if len(angles) == 2 else none_wavelet()
        pg = wc.make_parameter_grid(grid, wavelet, *wc.suggest_dilation_range(wavelet, 0.6, 1.8),
                                    2, *angles)
        assert _orbits(pg)[1] is not None
        inputs = [band_limited_spectrum(grid, 0.6, 1.8, 12), masked_spectrum(grid, 1.0, 13),
                  masked_spectrum(grid, 0.3, 14)]

        def routes():
            out = []
            for u in inputs:
                coeffs = wc.analyze(u, wavelet.sign, wavelet, pg, constant=1.3, threads=2)
                out += [coeffs.values, wc.reconstruct_spectrum(coeffs, wavelet, threads=2).values]
            return out

        got = routes()
        monkeypatch.setattr(synthesis, "_orbits", lone_rotations)
        for one, ref in zip(got, routes()):
            assert np.linalg.norm(one - ref) <= 1e-12 * np.linalg.norm(ref)
            assert np.max(np.abs(one - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_one_evaluation_per_orbit_and_threads_agree(self, monkeypatch, packet):
        # on an axial grid and on a "none" one
        monkeypatch.setattr(cwt.os, "cpu_count", lambda: 8)
        grid = wc.Grid3.cubic(16, 16.0)
        u = masked_spectrum(grid, 0.4, 15)
        support = u.values.ravel() != 0
        points = []
        for wavelet, angles in ((packet, (4, 2)), (none_wavelet(), (4, 2, 2))):

            def spectral(kx, ky, kz, spectral=wavelet.spectral):
                points.append(np.size(kx))
                return spectral(kx, ky, kz)

            counted = dataclasses.replace(wavelet, spectral=spectral)
            pg = wc.make_parameter_grid(grid, counted, 0.3, 2.0, 6, *angles)
            orbits, _ = _orbits(pg)
            assert len(orbits) < pg.n_rotations
            results = []
            for threads in (1, 2, 8):
                points.clear()
                coeffs = wc.analyze(u, counted.sign, counted, pg, constant=1.3, threads=threads)
                analyzed = sum(points)
                points.clear()
                spectrum = wc.reconstruct_spectrum(coeffs, counted, threads=threads)
                results.append((coeffs.values.tobytes(), spectrum.values.tobytes()))
                # analyze evaluates every rotation on the support; synthesis the
                # representatives on every node of the closed lattice, and nothing else
                assert analyzed == pg.n_a * pg.n_rotations * np.count_nonzero(support)
                assert sum(points) == pg.n_a * len(orbits) * int(np.prod(_closed_shape(grid)))
            assert results[0] == results[1] == results[2]

    def test_synthesis_preflight_counts_the_closed_lattice(self, monkeypatch, packet):
        # per dilation, an orbit's task holds the representative's values on the closed
        # lattice, a member's gathered values, the FFT slab and the sweep evaluator's
        # workspace on the closed lattice: a machine one byte short is refused before the
        # sweep is built and before any transform, on an axial grid and on a "none" one
        monkeypatch.setattr(cwt.os, "cpu_count", lambda: 2)
        grid = wc.Grid3.cubic(16, 16.0)
        closed = int(np.prod(_closed_shape(grid)))
        sysconf = cwt.os.sysconf
        machine = {}
        monkeypatch.setattr(cwt.os, "sysconf", lambda name: machine.get(name) or sysconf(name))
        ran, fft, sweep = [], synthesis._lattice_fft, synthesis._sweep
        monkeypatch.setattr(synthesis, "_lattice_fft", lambda *a, **k: ran.append(1) or fft(*a, **k))
        monkeypatch.setattr(synthesis, "_sweep", lambda *a, **k: ran.append(0) or sweep(*a, **k))
        # three wave-vector components and the packet's five buffers; bateman's three components
        for wavelet, angles, per_point in ((packet, (12, 6), 58), (none_wavelet(), (4, 2, 2), 24)):
            pg = wc.make_parameter_grid(grid, wavelet, 0.3, 2.0, 4, *angles)
            machine.clear()
            coeffs = wc.analyze(band_limited_spectrum(grid, 0.6, 1.8, 16), wavelet.sign, wavelet,
                                pg, constant=1.0)
            orbits, maps = _orbits(pg)
            assert maps is not None
            assert sum(np.dtype(t).itemsize for t in cwt._evaluator_dtypes(wavelet)) == per_point
            block = max(rows.stop - rows.start
                        for _, rows in _slice_tasks(pg, 2 * grid.node_count, orbits))
            needed = cwt._working_set(pg, 2, closed, 2, closed * per_point, orbits)
            assert needed == 2 * block * (16 * closed + 2 * 16 * grid.node_count
                                          + per_point * closed)
            machine.update(SC_PAGE_SIZE=1, SC_PHYS_PAGES=needed - 1)
            ran.clear()
            with pytest.raises(wc.ValidationError, match="physical memory"):
                wc.reconstruct_spectrum(coeffs, wavelet, threads=2)
            assert not ran
            machine["SC_PHYS_PAGES"] = needed
            wc.reconstruct_spectrum(coeffs, wavelet, threads=2)  # exactly fits
            assert ran

    @pytest.mark.parametrize("symmetry", ["axial", "spherical"])
    def test_analyze_preflight_counts_the_evaluator_workspace(self, monkeypatch, tmp_path,
                                                              packet, exp_sph, symmetry):
        # analyze into a payload: each worker's task also holds its evaluator's workspace,
        # counted on the support's nodes (a bound on a spherical wavelet's |k| shells); a
        # machine with room for the task slabs alone is refused before the sweep is built
        monkeypatch.setattr(cwt.os, "cpu_count", lambda: 2)
        wavelet = packet if symmetry == "axial" else exp_sph
        grid = wc.Grid3.cubic(16, 16.0)
        pg = wc.make_parameter_grid(grid, wavelet, 0.3, 2.0, 4, 4, 2)
        u = band_limited_spectrum(grid, 0.6, 1.8, 16)
        width = np.count_nonzero(u.values)
        per_point = sum(np.dtype(t).itemsize for t in cwt._evaluator_dtypes(wavelet))
        slabs = cwt._working_set(pg, 2, grid.node_count, 1, 0)
        needed = cwt._working_set(pg, 2, grid.node_count, 1, width * per_point)
        assert needed > slabs
        sysconf = cwt.os.sysconf
        machine = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": needed - 1}
        monkeypatch.setattr(cwt.os, "sysconf", lambda name: machine.get(name) or sysconf(name))
        ran, ifftn, sweep = [], np.fft.ifftn, cwt._sweep
        monkeypatch.setattr(np.fft, "ifftn", lambda *a, **k: ran.append(1) or ifftn(*a, **k))
        monkeypatch.setattr(cwt, "_sweep", lambda *a, **k: ran.append(0) or sweep(*a, **k))
        with wc.create_coefficients(tmp_path / "u.wcf", wavelet, pg, 1.0) as payload:
            with pytest.raises(wc.ValidationError, match="physical memory"):
                wc.analyze(u, wavelet.sign, wavelet, pg, constant=1.0, threads=2, out=payload)
            assert not ran
            machine["SC_PHYS_PAGES"] = needed
            wc.analyze(u, wavelet.sign, wavelet, pg, constant=1.0, threads=2, out=payload)
        assert ran  # exactly fits

    @settings(max_examples=25, deadline=None, database=None)
    @given(box=st.sampled_from([(8, 8, 8, 1.0, 1.0, 1.0), (8, 8, 12, 1.0, 1.0, 0.8),
                                (12, 8, 8, 1.2, 0.9, 0.9), (10, 8, 12, 1.0, 1.1, 0.7)]),
           n_theta1=st.integers(1, 5), n_theta2=st.integers(1, 3),
           shares=st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
           coefficients=st.tuples(*[st.floats(-2.0, 2.0)] * 4), seed=st.integers(0, 2**16))
    def test_analyze_is_linear(self, packet, box, n_theta1, n_theta2, shares, coefficients,
                               seed):
        # random asymmetric supports on cubes and boxes, odd and even counts, and angle
        # grids from one rotation up
        grid = wc.Grid3(*box, origin=(0.5, -1.0, 0.25))
        pg = wc.make_parameter_grid(grid, packet, 0.3, 2.0, 3, n_theta1, n_theta2)
        u, v = (masked_spectrum(grid, share, seed + i) for i, share in enumerate(shares))
        alpha, beta = complex(*coefficients[:2]), complex(*coefficients[2:])
        mixed = wc.SpectralField3(grid, alpha * u.values + beta * v.values)
        U, V, W = (wc.analyze(x, "plus", packet, pg, constant=1.0, threads=2).values
                   for x in (u, v, mixed))
        scale = abs(alpha) * np.linalg.norm(U) + abs(beta) * np.linalg.norm(V)
        assert np.linalg.norm(W - (alpha * U + beta * V)) <= 1e-12 * scale
