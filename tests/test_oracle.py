"""Fourier reference solution, discrete residuals and comparison metrics."""

import numpy as np
import pytest

import wavecwt as wc
from conftest import band_limited_spectrum


def packet_snapshots(wavelet, n, extents, dt_factor=0.5):
    ex, ey, ez = extents
    g = wc.Grid3(n, n, n, ex / n, ey / n, ez / n, (-ex / 2, -ey / 2, -ez / 2))
    dt = g.h_x * dt_factor
    return (
        wavelet.position_on_grid(g, -dt),
        wavelet.position_on_grid(g, 0.0),
        wavelet.position_on_grid(g, dt),
    ), dt


class TestFourierIVP:
    def test_t0_returns_initial_field(self, grid16):
        w = wc.ifft3(band_limited_spectrum(grid16, 0.6, 1.6, 71))
        v = wc.ifft3(band_limited_spectrum(grid16, 0.6, 1.6, 72))
        out = wc.fourier_ivp(w, v, 1.0, 0.0)
        assert wc.compare(out, w).rel_l2 <= 1e-12

    def test_matches_closed_form_packet(self):
        # the packet is an exact solution: feeding its t = 0 data through the
        # spectral propagator must land on its later snapshots
        p = 20.0
        wav = wc.gaussian_packet(p, 1.0, 0.5, 0.5)
        g = wc.Grid3(48, 48, 48, 7.0 / 48, 3.0 / 48, 3.0 / 48, (-3.5, -1.5, -1.5))
        w0 = wav.position_on_grid(g, 0.0)
        dt = 1e-3
        X, Y, Z = g.mesh()
        vel = (
            8.0 * (wav.position(X, Y, Z, dt) - wav.position(X, Y, Z, -dt))
            - (wav.position(X, Y, Z, 2 * dt) - wav.position(X, Y, Z, -2 * dt))
        ) / (12.0 * dt)
        vel -= vel.mean()  # drop the truncation-level constant mode
        v0 = wc.ComplexField3(g, vel)
        t1 = 0.3
        got = wc.fourier_ivp(w0, v0, 1.0, t1)
        want = wav.position_on_grid(g, t1)
        assert wc.compare(got, want).rel_l2 <= 1e-3

    def test_energy_invariant(self, grid16):
        w = wc.ifft3(band_limited_spectrum(grid16, 0.6, 1.6, 73))
        v = wc.ifft3(band_limited_spectrum(grid16, 0.6, 1.6, 74))
        s = wc.split_ivp(w, v, 1.0)
        e0 = wc.norm(s.plus) ** 2 + wc.norm(s.minus) ** 2
        # the sign parts only pick up unitary phases under evolution
        for t in (0.5, 2.0):
            phase = np.exp(-1j * grid16.k_mag() * t)
            plus_t = wc.SpectralField3(grid16, s.plus.values * phase)
            minus_t = wc.SpectralField3(grid16, s.minus.values * np.conj(phase))
            e_t = wc.norm(plus_t) ** 2 + wc.norm(minus_t) ** 2
            assert abs(e_t - e0) <= 1e-12 * e0

    def test_linearity(self, grid16):
        w1 = wc.ifft3(band_limited_spectrum(grid16, 0.6, 1.6, 75))
        w2 = wc.ifft3(band_limited_spectrum(grid16, 0.6, 1.6, 76))
        v = wc.ComplexField3(grid16, np.zeros(grid16.shape, dtype=complex))
        mix = wc.ComplexField3(grid16, 2.0 * w1.values - 1j * w2.values)
        t1 = 0.8
        a = wc.fourier_ivp(mix, v, 1.0, t1).values
        b = 2.0 * wc.fourier_ivp(w1, v, 1.0, t1).values - 1j * wc.fourier_ivp(w2, v, 1.0, t1).values
        assert np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(a)


class TestDalembertResidual:
    @staticmethod
    def tone_snapshots(n, extent):
        g = wc.Grid3.cubic(n, extent)
        dt = g.h_x / 2
        kx, ky, kz = g.k_axes()
        kv = np.array([kx[2], ky[1], kz[0]])
        km = np.linalg.norm(kv)
        X, Y, Z = g.mesh()

        def snap(t):
            return wc.ComplexField3(g, np.exp(1j * (kv[0] * X + kv[1] * Y + kv[2] * Z - km * t)))

        return (snap(-dt), snap(0.0), snap(dt)), dt

    def test_plane_wave_convergence(self):
        (s1, dt1) = self.tone_snapshots(16, 8.0)
        (s2, dt2) = self.tone_snapshots(32, 8.0)
        r1 = wc.dalembert_residual(*s1, c=1.0, dt=dt1)
        r2 = wc.dalembert_residual(*s2, c=1.0, dt=dt2)
        assert r1.rel_l2 / r2.rel_l2 >= 3.5

    def test_packet_convergence(self, packet):
        (s1, dt1) = packet_snapshots(packet, 32, (3.0, 1.5, 1.5))
        (s2, dt2) = packet_snapshots(packet, 64, (3.0, 1.5, 1.5))
        r1 = wc.dalembert_residual(*s1, c=1.0, dt=dt1)
        r2 = wc.dalembert_residual(*s2, c=1.0, dt=dt2)
        order = np.log2(r1.rel_l2 / r2.rel_l2)
        assert 1.7 <= order <= 2.3
        assert 3.5 <= r1.rel_l2 / r2.rel_l2 <= 4.5

    def test_zero_field(self, grid16):
        zero = wc.ComplexField3(grid16, np.zeros(grid16.shape, dtype=complex))
        report = wc.dalembert_residual(zero, zero, zero, 1.0, 0.1)
        assert report.rel_l2 == 0.0 and report.max_abs == 0.0

    def test_static_snapshots_are_not_a_solution(self, grid16):
        # u_tt = 0 on the interior: a constant passes with 0, a Gaussian is refused at any dt
        X, Y, Z = grid16.mesh()
        gaussian = wc.ComplexField3(grid16, np.exp(-(X**2 + Y**2 + Z**2) / 8.0))
        for dt in (0.1, 1e6):
            with pytest.raises(wc.ValidationError, match="u_tt vanishes"):
                wc.dalembert_residual(gaussian, gaussian, gaussian, 1.0, dt)
        constant = wc.ComplexField3(grid16, np.full(grid16.shape, 2.5 + 1j))
        report = wc.dalembert_residual(constant, constant, constant, 1.0, 0.1)
        assert report.rel_l2 == 0.0 and report.max_abs == 0.0

    @pytest.mark.parametrize("c, dt, words", [(1.0, 1e200, "time step dt squared=inf"),
                                              (1e200, 1.0, "wave speed c squared=inf"),
                                              (1.0, 1e-200, "time step dt squared=0.0")])
    def test_squares_past_the_float_range_are_refused(self, grid16, c, dt, words):
        # finite c and dt whose squares overflow or underflow: a ValidationError, no OverflowError
        zero = wc.ComplexField3(grid16, np.zeros(grid16.shape, dtype=complex))
        with pytest.raises(wc.ValidationError, match=words):
            wc.dalembert_residual(zero, zero, zero, c, dt)
        wide = wc.Grid3(8, 8, 8, 1e200, 1.0, 1.0)
        zero = wc.ComplexField3(wide, np.zeros(wide.shape, dtype=complex))
        with pytest.raises(wc.ValidationError, match="spacing h_x squared=inf"):
            wc.dalembert_residual(zero, zero, zero, 1.0, 0.1)

    def test_grid_and_dt_validation(self, grid16):
        zero = wc.ComplexField3(grid16, np.zeros(grid16.shape, dtype=complex))
        other = wc.ComplexField3(wc.Grid3.cubic(16, 8.0), np.zeros((16, 16, 16), dtype=complex))
        with pytest.raises(wc.GridMismatchError):
            wc.dalembert_residual(zero, other, zero, 1.0, 0.1)
        with pytest.raises(wc.ValidationError):
            wc.dalembert_residual(zero, zero, zero, 1.0, 0.0)


class TestCompare:
    def test_identical(self, grid16):
        f = wc.ifft3(band_limited_spectrum(grid16, 0.6, 1.6, 77))
        report = wc.compare(f, f)
        assert report.rel_l2 == 0.0 and report.max_abs == 0.0

    def test_double(self, grid16):
        f = wc.ifft3(band_limited_spectrum(grid16, 0.6, 1.6, 78))
        g = wc.ComplexField3(grid16, 2.0 * f.values)
        assert wc.compare(f, g).rel_l2 == pytest.approx(0.5)

    def test_against_recomputed_norm(self, grid16):
        a = wc.ifft3(band_limited_spectrum(grid16, 0.6, 1.6, 79))
        b = wc.ifft3(band_limited_spectrum(grid16, 0.6, 1.6, 80))
        report = wc.compare(a, b)
        manual = np.linalg.norm(a.values - b.values) / max(
            np.linalg.norm(a.values), np.linalg.norm(b.values)
        )
        assert abs(report.rel_l2 - manual) <= 1e-14 * manual
