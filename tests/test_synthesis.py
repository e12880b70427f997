"""Reconstruction, cross-wavelet synthesis and the wavelet-route IVP."""

import numpy as np
import pytest

import wavecwt as wc
from conftest import band_limited_spectrum, rel_l2


@pytest.fixture(scope="module")
def setup(grid16, exp_sph, exp_sph_pgrid, exp_sph_constant):
    u = band_limited_spectrum(grid16, 0.7, 1.6, 61)
    coeffs = wc.analyze(u, "minus", exp_sph, exp_sph_pgrid, constant=exp_sph_constant)
    return u, coeffs


class TestReconstruct:
    def test_zero_coefficients(self, exp_sph, exp_sph_pgrid, exp_sph_constant):
        g = exp_sph_pgrid.field_grid
        shape = (exp_sph_pgrid.n_a, exp_sph_pgrid.n_rotations) + g.shape
        zero = wc.WaveletCoefficients(exp_sph_pgrid, np.zeros(shape, dtype=complex),
                                      "minus", exp_sph_constant)
        out = wc.reconstruct(zero, exp_sph, 0.3)
        assert np.max(np.abs(out.values)) == 0.0

    def test_round_trip(self, grid16, exp_sph, setup):
        u, coeffs = setup
        rec = wc.reconstruct(coeffs, exp_sph, 0.0)
        direct = wc.ifft3(u)
        assert wc.compare(rec, direct).rel_l2 <= 5e-2

    def test_round_trip_commutes_with_propagation(self, grid16, exp_sph, setup):
        u, coeffs = setup
        t1 = 1.1
        rec_t = wc.reconstruct(coeffs, exp_sph, t1)
        truth_t = wc.propagate(wc.solution_from_minus(u, exp_sph.c), t1)
        err_t = wc.compare(rec_t, truth_t).rel_l2
        err_0 = wc.compare(wc.reconstruct(coeffs, exp_sph, 0.0), wc.ifft3(u)).rel_l2
        assert err_t <= 5e-2
        assert err_t == pytest.approx(err_0, rel=1e-6)  # unitary carrier

    def test_propagation_factorization_exact(self, exp_sph, setup):
        u, coeffs = setup
        t1 = 0.8
        spec = wc.reconstruct_spectrum(coeffs, exp_sph)
        via_propagate = wc.propagate(wc.solution_from_minus(spec, exp_sph.c), t1)
        direct = wc.reconstruct(coeffs, exp_sph, t1)
        assert rel_l2(direct.values, via_propagate.values) <= 1e-12

    def test_fused_projection_matches_pipeline(self, grid16, exp_sph, exp_sph_pgrid,
                                               exp_sph_constant, setup):
        u, coeffs = setup
        fused = wc.project(u, exp_sph, exp_sph_pgrid, constant=exp_sph_constant)
        piped = wc.reconstruct_spectrum(coeffs, exp_sph)
        assert rel_l2(fused.values, piped.values) <= 1e-13

    def test_linearity_in_coefficients(self, exp_sph, exp_sph_pgrid, setup):
        _, coeffs = setup
        doubled = wc.WaveletCoefficients(exp_sph_pgrid, 2.0 * coeffs.values, "minus",
                                         coeffs.constant)
        a = wc.reconstruct(coeffs, exp_sph, 0.0)
        b = wc.reconstruct(doubled, exp_sph, 0.0)
        assert rel_l2(b.values, 2.0 * a.values) <= 1e-13

    def test_sign_mismatch_rejected(self, exp_sph, setup):
        _, coeffs = setup
        with pytest.raises(wc.ValidationError):
            wc.reconstruct(coeffs, wc.time_reverse(exp_sph), 0.0)

    def test_zero_constant_rejected(self, exp_sph, exp_sph_pgrid, setup):
        _, coeffs = setup
        broken = wc.WaveletCoefficients(exp_sph_pgrid, coeffs.values, "minus", 0.0)
        with pytest.raises(wc.ValidationError):
            wc.reconstruct(broken, exp_sph, 0.0)


class TestReconstructCross:
    def test_same_wavelet_collapse(self, exp_sph, exp_sph_constant, setup):
        _, coeffs = setup
        a = wc.reconstruct(coeffs, exp_sph, 0.2)
        b = wc.reconstruct_cross(coeffs, exp_sph, exp_sph_constant, 0.2)
        assert rel_l2(a.values, b.values) <= 1e-12

    def test_derived_pair_round_trip(self, grid16, exp_sph, exp_sph_pgrid, exp_sph_constant):
        u = band_limited_spectrum(grid16, 0.7, 1.6, 62)
        direct = wc.ifft3(u)
        single = wc.analyze(u, "minus", exp_sph, exp_sph_pgrid, constant=exp_sph_constant)
        err_single = wc.compare(wc.reconstruct(single, exp_sph, 0.0), direct).rel_l2
        psi = wc.time_antiderivative_wavelet(exp_sph)
        chi = wc.time_derivative_wavelet(exp_sph)
        cross = wc.cross_admissibility_constant(psi, chi, tol=1e-8)
        assert cross.converged
        coeffs_psi = wc.analyze(u, "minus", psi, exp_sph_pgrid,
                                constant=wc.admissibility_constant(psi, 1e-8).value)
        rec = wc.reconstruct_cross(coeffs_psi, chi, cross.constant, 0.0)
        err_cross = wc.compare(rec, direct).rel_l2
        assert err_cross <= 2.0 * err_single

    def test_swapped_roles_agree(self, grid16, exp_sph, exp_sph_pgrid):
        u = band_limited_spectrum(grid16, 0.7, 1.6, 63)
        psi = wc.time_antiderivative_wavelet(exp_sph)
        chi = wc.time_derivative_wavelet(exp_sph)
        c_psi_chi = wc.cross_admissibility_constant(psi, chi, tol=1e-8).constant
        c_chi_psi = wc.cross_admissibility_constant(chi, psi, tol=1e-8).constant
        assert c_chi_psi == pytest.approx(np.conj(c_psi_chi), rel=1e-8)
        coeffs_psi = wc.analyze(u, "minus", psi, exp_sph_pgrid,
                                constant=wc.admissibility_constant(psi, 1e-8).value)
        coeffs_chi = wc.analyze(u, "minus", chi, exp_sph_pgrid,
                                constant=wc.admissibility_constant(chi, 1e-8).value)
        a = wc.reconstruct_cross(coeffs_psi, chi, c_psi_chi, 0.0)
        b = wc.reconstruct_cross(coeffs_chi, psi, c_chi_psi, 0.0)
        assert wc.compare(a, b).rel_l2 <= 5e-2

    def test_zero_cross_constant_rejected(self, exp_sph, setup):
        _, coeffs = setup
        with pytest.raises(wc.ValidationError):
            wc.reconstruct_cross(coeffs, exp_sph, 0.0, 0.0)


class TestSolveIVP:
    def test_even_solution_when_velocity_vanishes(self, grid16, exp_sph, exp_sph_pgrid,
                                                  exp_sph_constant):
        w_field = wc.ifft3(band_limited_spectrum(grid16, 0.7, 1.6, 64))
        v_field = wc.ComplexField3(grid16, np.zeros(grid16.shape, dtype=complex))
        plus = wc.time_reverse(exp_sph)
        t1 = 0.9
        fwd = wc.solve_ivp(w_field, v_field, plus, exp_sph, exp_sph_pgrid, t1,
                           constants=(exp_sph_constant, exp_sph_constant))
        bwd = wc.solve_ivp(w_field, v_field, plus, exp_sph, exp_sph_pgrid, -t1,
                           constants=(exp_sph_constant, exp_sph_constant))
        assert rel_l2(fwd.values, bwd.values) <= 1e-10

    def test_velocity_tone_matches_fourier(self, grid16, exp_sph, exp_sph_pgrid,
                                           exp_sph_constant):
        kx, _, _ = grid16.k_axes()
        X, _, _ = grid16.mesh()
        w_field = wc.ComplexField3(grid16, np.zeros(grid16.shape, dtype=complex))
        v_field = wc.ComplexField3(grid16, np.exp(1j * kx[3] * X))
        plus = wc.time_reverse(exp_sph)
        t1 = 0.7
        got = wc.solve_ivp(w_field, v_field, plus, exp_sph, exp_sph_pgrid, t1,
                           constants=(exp_sph_constant, exp_sph_constant))
        ref = wc.fourier_ivp(w_field, v_field, exp_sph.c, t1)
        assert wc.compare(got, ref).rel_l2 <= 5e-2

    def test_generic_data_matches_fourier(self, grid16, exp_sph, exp_sph_pgrid,
                                          exp_sph_constant):
        w_field = wc.ifft3(band_limited_spectrum(grid16, 0.7, 1.6, 65))
        v_field = wc.ifft3(band_limited_spectrum(grid16, 0.7, 1.6, 66))
        plus = wc.time_reverse(exp_sph)
        for t1 in (0.0, 4.0):
            got = wc.solve_ivp(w_field, v_field, plus, exp_sph, exp_sph_pgrid, t1,
                               constants=(exp_sph_constant, exp_sph_constant))
            ref = wc.fourier_ivp(w_field, v_field, exp_sph.c, t1)
            assert wc.compare(got, ref).rel_l2 <= 5e-2

    def test_fused_matches_materialized_route(self, grid16, exp_sph, exp_sph_pgrid,
                                              exp_sph_constant):
        w_field = wc.ifft3(band_limited_spectrum(grid16, 0.7, 1.6, 67))
        v_field = wc.ifft3(band_limited_spectrum(grid16, 0.7, 1.6, 68))
        plus = wc.time_reverse(exp_sph)
        t1 = 0.5
        fused = wc.solve_ivp(w_field, v_field, plus, exp_sph, exp_sph_pgrid, t1,
                             constants=(exp_sph_constant, exp_sph_constant))
        wp, wm, vp, vm = wc.analyze_initial_data(w_field, v_field, plus, exp_sph,
                                                 exp_sph_pgrid,
                                                 constants=(exp_sph_constant, exp_sph_constant))
        up = wc.combine_initial_coefficients(wp, vp)
        um = wc.combine_initial_coefficients(wm, vm)
        rec = wc.reconstruct(up, plus, t1).values + wc.reconstruct(um, exp_sph, t1).values
        assert rel_l2(fused.values, rec) <= 1e-12

    def test_dropped_velocity_mode_warns(self, grid16, exp_sph, exp_sph_pgrid,
                                         exp_sph_constant):
        w_field = wc.ifft3(band_limited_spectrum(grid16, 0.7, 1.6, 70))
        v_values = wc.ifft3(band_limited_spectrum(grid16, 0.7, 1.6, 71)).values + 0.05
        v_field = wc.ComplexField3(grid16, v_values)
        with pytest.warns(RuntimeWarning, match="k=0 bin"):
            wc.solve_ivp(w_field, v_field, wc.time_reverse(exp_sph), exp_sph, exp_sph_pgrid,
                         0.5, constants=(exp_sph_constant, exp_sph_constant))

    def test_pair_validation(self, grid16, exp_sph, exp_sph_pgrid):
        w_field = wc.ifft3(band_limited_spectrum(grid16, 0.7, 1.6, 69))
        with pytest.raises(wc.ValidationError):
            wc.solve_ivp(w_field, w_field, exp_sph, exp_sph, exp_sph_pgrid, 0.0,
                         constants=(1.0, 1.0))

    def test_both_routes_refuse_what_is_not_one_pair(self, grid16, exp_sph, exp_sph_pgrid):
        f = wc.ifft3(band_limited_spectrum(grid16, 0.7, 1.6, 69))
        routes = (lambda p, m: wc.solve_ivp(f, f, p, m, exp_sph_pgrid, 0.0, constants=(1.0, 1.0)),
                  lambda p, m: wc.analyze_initial_data(f, f, p, m, exp_sph_pgrid,
                                                       constants=(1.0, 1.0)))
        for run in routes:
            with pytest.raises(wc.ValidationError, match="one wave speed"):
                run(wc.time_reverse(wc.exp_spherical_wavelet(2.0)), exp_sph)
            with pytest.raises(wc.ValidationError, match=r"\(plus, minus\) wavelet pair"):
                run(exp_sph, wc.time_reverse(exp_sph))
