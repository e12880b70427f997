"""Parameter grids, coefficient transforms and the isometry property."""

import dataclasses
import resource
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavecwt as wc
from wavecwt import cwt, synthesis
from wavecwt.cwt import _map_ordered, _pool_size, _slice_tasks, _sweep
from wavecwt.fields import _forward_factor
from wavecwt.wavelets import _tilt_axis
from conftest import EXP_SPH_A_RANGE, band_limited_spectrum, rel_l2


class TestParameterGrid:
    def test_two_angle_weight_is_full_sphere(self, grid16, packet):
        pg = wc.make_parameter_grid(grid16, packet, 0.5, 2.0, 8, 16, 8)
        assert pg.angle_shape == (16, 8)
        assert pg.rotation_weights.sum() == pytest.approx(4 * np.pi, abs=1e-12)
        assert pg.constant_factor == 1.0

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
        def rodrigues(axis, angle):
            x, y, z = np.asarray(axis) / np.linalg.norm(axis)
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

    def test_suggest_dilation_range_covers_band(self, exp_sph):
        a_min, a_max = wc.suggest_dilation_range(exp_sph, 0.7, 1.6)
        assert 0 < a_min < a_max
        # rescaled spectra at the band ends must be inside the window
        assert a_min < 1.0 / 1.6 and a_max > 1.0 / 0.7


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


class TestSliceTasks:
    """Materialized routes work in (rotation, dilation block) tasks cut from the grid alone."""

    @staticmethod
    def covered(pg):
        tasks = _slice_tasks(pg)
        pairs = [(idx, a) for idx, rows in tasks for a in range(pg.n_a)[rows]]
        assert pairs == [(idx, a) for idx in range(pg.n_rotations) for a in range(pg.n_a)]
        return tasks

    def test_tasks_cover_every_slice_once_rotation_major(self, exp_sph, packet):
        big = self.covered(wc.make_parameter_grid(wc.Grid3.cubic(64, 64.0), exp_sph, 0.08, 2.5, 24))
        assert len(big) == 24
        mid = self.covered(wc.make_parameter_grid(wc.Grid3.cubic(32, 32.0), packet, 0.3, 2.0, 10,
                                                  2, 2))
        assert [rows.stop - rows.start for _, rows in mid] == [4, 4, 2] * 4
        small = wc.make_parameter_grid(wc.Grid3.cubic(16, 16.0), packet, 0.3, 2.0, 24, 4, 3)
        assert self.covered(small) == [(idx, slice(0, 24)) for idx in range(12)]

    def test_blocks_do_not_depend_on_threads(self, exp_sph):
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

    @pytest.mark.parametrize("name", ["exp-spherical", "packet"])
    def test_split_blocks_are_bit_identical_across_threads(self, name, exp_sph, packet):
        grid = wc.Grid3.cubic(32, 32.0)
        if name == "packet":
            wavelet = packet
            pg = wc.make_parameter_grid(grid, packet, 0.3, 2.0, 12, 2, 2)
        else:
            wavelet = exp_sph
            pg = wc.make_parameter_grid(grid, exp_sph, *EXP_SPH_A_RANGE, 24)
        assert len(_slice_tasks(pg)) > pg.n_rotations
        u = band_limited_spectrum(grid, 0.7, 1.6, 82)
        one, two = (wc.analyze(u, wavelet.sign, wavelet, pg, constant=1.3, threads=n)
                    for n in (1, 2))
        assert one.values.tobytes() == two.values.tobytes()
        spectra = [wc.reconstruct_spectrum(one, wavelet, threads=n).values for n in (1, 2)]
        assert spectra[0].tobytes() == spectra[1].tobytes()

    def test_spherical_reconstruct_equals_per_rotation_reference(self, exp_sph, packet):
        # reference: each (rotation, dilation block) task sums its weighted PHI * fftn(U)
        # slices in dilation order, the partial sums are added in task order, and the
        # transform's k-factor is applied once to the sum; the spherical case gathers
        # shell values, the packet's split 32^3 grid is the lattice route
        grid = wc.Grid3.cubic(32, 32.0)
        cases = [(exp_sph, wc.make_parameter_grid(grid, exp_sph, *EXP_SPH_A_RANGE, 24)),
                 (packet, wc.make_parameter_grid(grid, packet, 0.3, 2.0, 10, 2, 2))]
        u = band_limited_spectrum(grid, 0.7, 1.6, 83)
        for wavelet, pg in cases:
            coeffs = wc.analyze(u, wavelet.sign, wavelet, pg, constant=1.3)
            spectra = _sweep(wavelet, pg, slice(None))
            scale = pg.a_nodes**1.5
            ref = 0
            for idx, rows in _slice_tasks(pg):
                slab = np.fft.fftn(coeffs.values[rows, idx], axes=(-3, -2, -1))
                slab = slab.reshape(rows.stop - rows.start, -1)
                part = 0
                for a, row in zip(range(pg.n_a)[rows], spectra(idx, rows) * slab):
                    part = part + pg.rotation_weights[idx] * pg.a_weights[a] * scale[a] * row
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
        interval = sys.getswitchinterval()
        try:
            for wavelet, pg in cases:
                coeffs = wc.analyze(u, wavelet.sign, wavelet, pg, constant=1.3, threads=1)
                want = wc.reconstruct_spectrum(coeffs, wavelet, threads=1).values.tobytes()
                sys.setswitchinterval(1e-6)
                again = wc.analyze(u, wavelet.sign, wavelet, pg, constant=1.3, threads=8)
                assert again.values.tobytes() == coeffs.values.tobytes()
                for _ in range(10):
                    got = wc.reconstruct_spectrum(coeffs, wavelet, threads=8).values
                    assert got.tobytes() == want
                sys.setswitchinterval(interval)
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
        # below the 28.5 and 54.5 slabs of a per-slice phase-and-volume transform
        monkeypatch.setattr(cwt.os, "cpu_count", lambda: 2)
        grid = wc.Grid3.cubic(32, 32.0)
        pg = wc.make_parameter_grid(grid, packet, 0.3, 2.0, 8, 2, 2)
        u = band_limited_spectrum(grid, 0.6, 1.8, 85)
        slab = 16 * grid.node_count
        coeffs, peak = self.traced_peak(
            lambda: wc.analyze(u, "plus", packet, pg, constant=1.0, threads=threads))
        beyond = (peak - coeffs.values.nbytes) / slab
        assert beyond <= 4.0 * threads
        _, peak = self.traced_peak(lambda: wc.reconstruct_spectrum(coeffs, packet, threads))
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
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            wc.transform_pairing(u, u, packet, pg, threads)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - start) / slab <= {1: 4.43, 2: 7.7}[threads]
        assert kept - start <= 0.01 * slab


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


class TestWorkspace:
    """Per-worker buffers are reused from task to task without changing a bit."""

    def test_short_last_block_takes_row_views(self, monkeypatch, packet, exp_sph):
        monkeypatch.setattr(cwt, "_Workspace", stale_workspace(90))
        grid = wc.Grid3.cubic(32, 32.0)
        pg = wc.make_parameter_grid(grid, packet, 0.3, 2.0, 10, 2, 2)
        tasks = _slice_tasks(pg)[:4]
        assert [rows.stop - rows.start for _, rows in tasks] == [4, 4, 2, 4]
        support = band_limited_spectrum(grid, 0.6, 1.8, 91).values.ravel() != 0
        k = [K.ravel()[support] for K in grid.k_mesh()]

        def fresh(idx, rows):
            r = pg.rotations[idx]
            q = r[0][:, None] * k[0] + r[1][:, None] * k[1] + r[2][:, None] * k[2]
            return packet.spectral(*(np.multiply.outer(pg.a_nodes[rows], q[i]) for i in range(3)))

        # in task order, and with the short block first so the buffers grow afterwards
        for order in (tasks, tasks[2:] + tasks[:2]):
            spectra = _sweep(packet, pg, support)
            got = []
            for idx, rows in order:
                got.append(spectra(idx, rows))
                want = fresh(idx, rows)
                assert (want == 0).any() and got[-1].tobytes() == want.tobytes()
            # one set of buffers, grown once when the short block came first
            grown = 0 if order is tasks else 1
            assert all(np.shares_memory(phi, got[grown]) for phi in got[grown:])
            power = _sweep(packet, pg, support, power=True)
            for idx, rows in order:
                want = fresh(idx, rows)
                assert power(idx, rows).tobytes() == (want.real**2 + want.imag**2).tobytes()

        # a spherical wavelet's shell values are gathered into one set of node buffers
        pg = wc.make_parameter_grid(grid, exp_sph, *EXP_SPH_A_RANGE, 10)
        tasks = _slice_tasks(pg)
        assert [rows.stop - rows.start for _, rows in tasks] == [4, 4, 2]
        shells, shell_of = np.unique(k[0] * k[0] + k[1] * k[1] + k[2] * k[2], return_inverse=True)
        for order in (tasks, tasks[2:] + tasks[:2]):
            spectra = _sweep(exp_sph, pg, support)
            power = _sweep(exp_sph, pg, support, power=True)
            got = []
            for _, rows in order:
                kz = np.multiply.outer(pg.a_nodes[rows], np.sqrt(shells))
                want = exp_sph.spectral(np.zeros_like(kz), np.zeros_like(kz), kz)[:, shell_of]
                got.append(spectra(0, rows))
                assert got[-1].shape == (len(kz), np.count_nonzero(support))
                assert got[-1].tobytes() == want.tobytes()
                assert power(0, rows).tobytes() == (want.real**2 + want.imag**2).tobytes()
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

    def test_nan_in_last_dilation_is_rejected(self, grid16, packet):
        pg = wc.make_parameter_grid(grid16, packet, 0.3, 2.0, 8, 2, 2)
        values = np.ones((pg.n_a, pg.n_rotations) + grid16.shape, dtype=np.complex128)
        values[-1, -1, -1, -1, -1] = complex(0.0, np.nan)
        with pytest.raises(wc.ValidationError):
            wc.WaveletCoefficients(pg, values, "plus", 1.0)
