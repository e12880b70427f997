"""Catalog wavelets: rotations, family action, closed forms, derived wavelets."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavecwt as wc
from wavecwt.cwt import rotation_about
from wavecwt.quadrature import _gauss_legendre
from wavecwt.wavelets import _EXP_FLOOR
from conftest import rel_l2


def unit_grid(n, extents):
    ex, ey, ez = extents
    return wc.Grid3(n, n, n, ex / n, ey / n, ez / n, (-ex / 2, -ey / 2, -ez / 2))


def test_gauss_legendre_rules_are_leggauss_built_once():
    # every order is numpy's rule bit for bit, shared between callers, so it cannot be written
    for n in range(1, 41):
        nodes, weights = _gauss_legendre(n)
        expected = np.polynomial.legendre.leggauss(n)
        assert (nodes.tobytes(), weights.tobytes()) == tuple(e.tobytes() for e in expected)
        assert _gauss_legendre(n)[0] is nodes
    for part in _gauss_legendre(8):
        with pytest.raises(ValueError, match="read-only"):
            part[0] = 0.0


class TestRotationMatrix:
    def test_identity(self):
        assert np.allclose(wc.rotation_matrix(0.0, 0.0), np.eye(3))
        assert np.allclose(wc.rotation_matrix(0.0, 0.0, 0.0), np.eye(3))

    def test_quarter_turn_moves_x_to_y(self):
        m = wc.rotation_matrix(np.pi / 2, 0.0)
        assert np.allclose(m @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_orthogonality(self, seed):
        rng = np.random.default_rng(seed)
        t1 = rng.uniform(0, 2 * np.pi)
        t2 = rng.uniform(0, np.pi)
        t3 = rng.uniform(0, 2 * np.pi)
        m = wc.rotation_matrix(t1, t2, t3)
        assert np.max(np.abs(m.T @ m - np.eye(3))) <= 1e-14
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-14)

    def test_range_checks(self):
        with pytest.raises(wc.ValidationError):
            wc.rotation_matrix(-0.1, 0.0)
        with pytest.raises(wc.ValidationError):
            wc.rotation_matrix(0.0, 3.5)
        with pytest.raises(wc.ValidationError):
            wc.rotation_matrix(0.0, 0.0, 2 * np.pi)


class TestFamilyAction:
    def test_identity_element(self, packet):
        nu = wc.WaveletParams(a=1.0)
        x = np.linspace(-1, 1, 7)
        direct = packet.position(x, 0.2 * x, -0.1 * x, 0.3)
        famil = wc.family_position(packet, nu, x, 0.2 * x, -0.1 * x, 0.3)
        assert rel_l2(famil, direct) <= 1e-15
        spec = wc.family_spectral(packet, nu, x + 5, x, x)
        assert rel_l2(spec, packet.spectral(x + 5, x, x)) <= 1e-15

    def test_pure_dilation(self, packet):
        nu = wc.WaveletParams(a=2.0)
        x = np.linspace(-0.8, 0.8, 5)
        got = wc.family_position(packet, nu, x, x / 2, x / 3, 0.0)
        want = 2**-1.5 * packet.position(x / 2, x / 4, x / 6, 0.0)
        assert rel_l2(got, want) <= 1e-15

    def test_translation_phase(self, packet):
        b = (0.4, -0.2, 0.1)
        nu = wc.WaveletParams(a=1.0, b=b)
        kx = np.linspace(5, 30, 9)
        ky = np.full_like(kx, 2.0)
        kz = np.full_like(kx, -1.0)
        got = wc.family_spectral(packet, nu, kx, ky, kz)
        base = packet.spectral(kx, ky, kz)
        assert rel_l2(np.abs(got), np.abs(base)) <= 1e-14
        phase = np.exp(-1j * (kx * b[0] + ky * b[1] + kz * b[2]))
        assert rel_l2(got, base * phase) <= 1e-14

    def test_spherical_dilation_spectrum(self, exp_sph):
        nu = wc.WaveletParams(a=2.0)
        kx = np.linspace(0.2, 2.0, 7)
        zero = np.zeros_like(kx)
        got = wc.family_spectral(exp_sph, nu, kx, zero, zero)
        want = 2**1.5 * exp_sph.spectral(2 * kx, zero, zero)
        assert rel_l2(got, want) <= 1e-14

    def test_family_spectral_matches_transformed_position(self, packet):
        # rotated family member sampled in position space and transformed
        nu = wc.WaveletParams(a=1.0, b=(0.2, 0.1, 0.0), theta1=0.3, theta2=0.6)
        g = unit_grid(48, (4.5, 4.5, 4.5))
        X, Y, Z = g.mesh()
        pos = wc.ComplexField3(g, wc.family_position(packet, nu, X, Y, Z, 0.0))
        F = wc.fft3(pos)
        KX, KY, KZ = g.k_mesh()
        closed = wc.family_spectral(packet, nu, KX, KY, KZ)
        assert rel_l2(F.values, closed) <= 5e-3

    @pytest.mark.parametrize("name,params,n,extent,nu_kwargs", [
        ("gaussian-packet", {"p": 40.0, "gamma": 1.0, "eps1": 0.5, "eps2": 0.5}, 48, 5.0,
         dict(a=1.3, b=(0.3, -0.2, 0.1), theta1=1.1, theta2=0.7, theta3=2.0)),
        ("exp-spherical", {}, 48, 44.0, dict(a=1.2, b=(1.0, 0.0, -2.0))),
        ("kaiser", {"alpha": 3.0}, 64, 16.0, dict(a=0.8, b=(0.5, 0.5, 0.0), theta1=0.4, theta2=0.3)),
        ("bateman", {"eps1": 0.5, "eps2": 0.8}, 48, 20.0,
         dict(a=1.1, b=(0.0, 1.0, 0.0), theta1=2.0, theta2=1.0, theta3=0.5)),
    ])
    def test_norm_preserved_under_family(self, name, params, n, extent, nu_kwargs):
        # grids sized so the dilated spectrum stays inside the Nyquist ball
        wav = wc.make_wavelet(name, params)
        g = unit_grid(n, (extent, extent, extent))
        base = wc.norm(wav.position_on_grid(g, 0.0))
        nu = wc.WaveletParams(**nu_kwargs)
        X, Y, Z = g.mesh()
        moved = wc.ComplexField3(g, wc.family_position(wav, nu, X, Y, Z, 0.0))
        assert abs(wc.norm(moved) - base) <= 1e-3 * base

    def test_missing_position_evaluator(self, exp_sph):
        psi = wc.time_antiderivative_wavelet(exp_sph)
        with pytest.raises(wc.EvaluatorMissingError):
            wc.family_position(psi, wc.WaveletParams(a=1.0), 0.0, 0.0, 0.0, 0.0)


class TestSphericalFromProxy:
    def test_progressive_proxy_is_minus(self):
        w = wc.spherical_from_proxy(wc.exponential_proxy(), c=1.0)
        assert w.sign == "minus"
        assert w.symmetry == "spherical"

    def test_non_progressive_rejected(self):
        proxy = wc.ProxyWavelet(time_profile=lambda t: np.exp(-np.asarray(t) ** 2),
                                progressive=False, validate=False)
        with pytest.raises(wc.ValidationError):
            wc.spherical_from_proxy(proxy, 1.0)

    def test_center_limit_exponential_proxy(self):
        w = wc.spherical_from_proxy(wc.exponential_proxy(), c=1.0)
        # p'(0) = i e^-2, so phi(0, 0) = i e^-2 / (2 pi)
        expected = 1j * np.exp(-2.0) / (2 * np.pi)
        got = complex(w.position(np.array(1e-9), 0.0, 0.0, 0.0))
        assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_center_branch_continuity(self):
        w = wc.spherical_from_proxy(wc.exponential_proxy(), c=1.0)
        r = np.array([0.99e-4, 1.01e-4])  # straddles the Taylor switch radius
        vals = w.position(r, 0.0, 0.0, 0.37)
        assert abs(vals[0] - vals[1]) <= 1e-9 * abs(vals[0])

    def test_position_spectrum_consistency(self):
        w = wc.spherical_from_proxy(wc.kaiser_proxy(4.0), c=1.0)
        g = unit_grid(48, (14.0, 14.0, 14.0))
        assert wc.spectrum_selfcheck(w, g).rel_l2 <= 1e-2

    def test_inconsistent_pair_detected(self):
        good = wc.exponential_proxy()
        with pytest.raises(wc.ValidationError, match="disagree"):
            wc.ProxyWavelet(
                time_profile=lambda t: 2.0 * good.time_profile(t),
                spectrum=good.spectrum,
                progressive=True,
            )


class TestKaiserWavelet:
    def test_center_limit_alpha3(self, kaiser3):
        # p(t) = 2/(pi (1-it)^3): p'(0) = 6i/pi, limit 3i/pi^2 at c = 1
        expected = 3j / np.pi**2
        got = complex(kaiser3.position(np.array(1e-9), 0.0, 0.0, 0.0))
        assert abs(got - expected) <= 1e-10 * abs(expected)

    def test_single_branch_spectrum(self, kaiser3):
        # progressive proxy: the whole t=0 spectrum rides the minus carrier
        assert kaiser3.sign == "minus"
        k = np.linspace(0.2, 5.0, 20)
        zero = np.zeros_like(k)
        generic = wc.spherical_from_proxy(wc.kaiser_proxy(3.0), c=1.0)
        assert rel_l2(kaiser3.spectral(k, zero, zero), generic.spectral(k, zero, zero)) <= 1e-14

    def test_far_field_decay_power(self, kaiser3):
        r = np.logspace(1.3, 2.8, 40)
        vals = np.abs(kaiser3.position(r, 0.0, 0.0, 0.0))
        slope = np.polyfit(np.log(r), np.log(vals), 1)[0]
        assert abs(slope - (-4.0)) <= 0.05 * 4.0

    def test_position_spectrum_consistency(self, kaiser3):
        g = unit_grid(48, (16.8, 16.8, 16.8))
        assert wc.spectrum_selfcheck(kaiser3, g).rel_l2 <= 2e-2

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(wc.ValidationError):
            wc.kaiser_wavelet(0.0)


class TestExpSphericalWavelet:
    def test_essential_zero_at_origin(self, exp_sph):
        # decays faster than any power: at k = 1e-2 the exp(-1/k) factor wins
        near = abs(complex(exp_sph.spectral(1e-2, 0.0, 0.0)))
        peak = abs(complex(exp_sph.spectral(0.56, 0.0, 0.0)))
        assert near <= 1e-30 * peak
        assert near <= 1e-2**10 * peak

    def test_center_value(self, exp_sph):
        expected = 1j * np.exp(-2.0) / (2 * np.pi)
        got = complex(exp_sph.position(np.array(0.0), 0.0, 0.0, 0.0))
        assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_position_spectrum_consistency(self, exp_sph):
        g = unit_grid(48, (37.5, 37.5, 37.5))
        assert wc.spectrum_selfcheck(exp_sph, g).rel_l2 <= 2.5e-2

    def test_rotation_invariance(self, exp_sph):
        rng = np.random.default_rng(3)
        k = rng.normal(size=(3, 40))
        base = exp_sph.spectral(k[0], k[1], k[2])
        for seed in range(3):
            r = wc.rotation_matrix(*np.random.default_rng(seed).uniform(0, [2 * np.pi, np.pi, 2 * np.pi]))
            q = r @ k
            rotated = exp_sph.spectral(q[0], q[1], q[2])
            assert rel_l2(rotated, base) <= 1e-12


class TestBateman:
    def test_axial_tag_and_rotation_invariance(self):
        w = wc.make_wavelet("bateman", {"eps1": 0.7, "eps2": 0.7})
        assert w.symmetry == "axial" and w.sign == "plus"
        rng = np.random.default_rng(5)
        k = rng.normal(size=(3, 50))
        base = w.spectral(k[0], k[1], k[2])
        for ang in (0.7, 2.2):
            ca, sa = np.cos(ang), np.sin(ang)
            ky = ca * k[1] - sa * k[2]
            kz = sa * k[1] + ca * k[2]
            assert rel_l2(w.spectral(k[0], ky, kz), base) <= 1e-12

    def test_general_tag_when_eccentric(self):
        w = wc.make_wavelet("bateman", {"eps1": 0.5, "eps2": 0.8})
        assert w.symmetry == "none"

    def test_negative_x_axis_value(self):
        w = wc.make_wavelet("bateman", {"eps1": 0.5, "eps2": 0.8})
        vals = w.spectral(np.array([-1.0, -3.0]), np.zeros(2), np.zeros(2))
        assert np.all(vals == 0.0)

    def test_position_spectrum_consistency(self):
        w = wc.make_wavelet("bateman", {"eps1": 0.5, "eps2": 0.8})
        g = unit_grid(48, (27.0, 22.5, 22.5))
        assert wc.spectrum_selfcheck(w, g).rel_l2 <= 4e-2

    def test_parameter_validation(self):
        with pytest.raises(wc.ValidationError):
            wc.bateman_from_proxy(wc.exponential_proxy(), -1.0, 1.0)
        proxy = wc.ProxyWavelet(time_profile=lambda t: np.exp(-np.asarray(t) ** 2),
                                progressive=False, validate=False)
        with pytest.raises(wc.ValidationError):
            wc.bateman_from_proxy(proxy, 1.0, 1.0)


class TestGaussianPacket:
    def test_spectrum_peak_near_carrier(self):
        p, gamma = 100.0, 1.0
        w = wc.gaussian_packet(p, gamma, 0.5, 0.5)
        kappa = p / (2 * gamma)
        cell = kappa / 32
        k = np.arange(0.2 * kappa, 2.0 * kappa, cell)
        mod = np.abs(w.spectral(k, np.zeros_like(k), np.zeros_like(k)))
        peak = k[np.argmax(mod)]
        # the finite-p modulus peak sits 5/(4 gamma) below the carrier
        assert abs(peak - kappa) <= cell + 5.0 / (4 * gamma)

    def test_transverse_decay(self, packet):
        p, gamma, eps1 = 40.0, 1.0, 0.5
        peak = abs(complex(packet.position(np.array(0.0), 0.0, 0.0, 0.0)))
        d = np.sqrt(11.0 * gamma * eps1 / p)
        val = abs(complex(packet.position(np.array(0.0), d, 0.0, 0.0)))
        assert val <= np.exp(-5.0) * peak

    def test_position_spectrum_consistency(self, packet):
        g = unit_grid(48, (4.5, 2.25, 2.25))
        assert wc.spectrum_selfcheck(packet, g).rel_l2 <= 2e-3

    def test_wave_equation_residual_convergence(self, packet):
        reports = []
        for n in (32, 64):
            g = unit_grid(n, (3.0, 1.5, 1.5))
            dt = g.h_x / 2
            reports.append(wc.dalembert_residual(
                packet.position_on_grid(g, -dt),
                packet.position_on_grid(g, 0.0),
                packet.position_on_grid(g, dt),
                1.0, dt,
            ))
        ratio = reports[0].rel_l2 / reports[1].rel_l2
        assert 3.5 <= ratio <= 4.5

    def test_position_is_the_bateman_construction_of_its_proxy(self):
        p, gamma, eps1, eps2, c = 20.0, 1.5, 0.5, 0.8, 1.3
        packet = wc.gaussian_packet(p, gamma, eps1, eps2, c)
        proxy = wc.gaussian_packet_proxy(p, gamma)  # spot-checked against its spectrum
        bateman = wc.bateman_from_proxy(proxy, eps1, eps2, c)
        rng = np.random.default_rng(17)
        x, y, z = rng.normal(size=(3, 40))
        for t in (0.0, 0.6, -1.1):
            got = packet.position(x, y, z, t)
            assert got.tobytes() == bateman.position(x, y, z, t).tobytes()
            # the closed form printed in the docstring
            w1, w2 = x + c * t - 1j * eps1, x + c * t - 1j * eps2
            theta = x - c * t + y**2 / w1 + z**2 / w2
            want = np.exp(-p * np.sqrt(1.0 - 1j * theta / gamma)) / (np.sqrt(w1) * np.sqrt(w2))
            assert rel_l2(got, want) <= 1e-14



def expression_packet_spectrum(p, gamma, eps1, eps2):
    """The packet spectrum in expression form: the reference for the in-place kernel."""
    amp0 = (2.0 * np.pi) ** 1.5 * p / np.sqrt(gamma)

    def spectral(kx, ky, kz):
        kx = np.asarray(kx, dtype=float)
        ky = np.asarray(ky, dtype=float)
        kz = np.asarray(kz, dtype=float)
        k = np.sqrt(kx**2 + ky**2 + kz**2)
        s = kx + k
        good = (k > 0) & (s > 0)
        ss = np.where(good, s, 1.0)
        ks = np.where(k > 0, k, 1.0)
        expo = (
            -gamma * ss / 2.0
            - p**2 / (2.0 * gamma * ss)
            - (ky**2 * eps1 + kz**2 * eps2) / (2.0 * ss)
        )
        ok = good & (expo > _EXP_FLOOR)
        vals = 1j * amp0 / (ks * ss**1.5) * np.exp(np.where(ok, expo, 0.0))
        return np.where(ok, vals, 0.0)

    return spectral


class TestPacketKernel:
    """The in-place packet spectrum has the bytes of its expression form."""

    PARAMS = [(40.0, 1.0, 0.5, 0.5), (3, 2, 0.3, 0.9), (1.5, 0.7, 2.0, 1.0)]

    @staticmethod
    def same(got, want):
        assert type(got) is type(want)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("params", PARAMS)
    def test_matches_expression_form_bytewise(self, params):
        new = wc.gaussian_packet(*params).spectral
        ref = expression_packet_spectrum(*params)
        rng = np.random.default_rng(11)
        for scale in (0.05, 1.0, 8.0, 1e3):  # the tails fall below _EXP_FLOOR
            k = scale * rng.normal(size=(3, 4, 2000))
            self.same(new(*k), ref(*k))
        x, y = rng.normal(size=(7, 1)), rng.normal(size=(1, 9))
        self.same(new(x, y, 0.4), ref(x, y, 0.4))
        for point in [(0.3, 0.2, -0.1), (0.0, 0.0, 0.0), (np.float64(2.0), 0.5, -1.0)]:
            self.same(new(*point), ref(*point))
            self.same(new(*map(np.array, point)), ref(*map(np.array, point)))
        v = rng.normal(size=(3, 500))
        m = np.sqrt((v**2).sum(axis=0))
        zero = np.zeros_like(m)
        self.same(new(zero, zero, zero), ref(zero, zero, zero))
        self.same(new(-m, zero, zero), ref(-m, zero, zero))  # the half-line kx = -|k|
        near = (-m * (1.0 - 1e-12), 1e-7 * v[1], 1e-7 * v[2])  # just off it
        self.same(new(*near), ref(*near))
        expo_low = ref(*near) == 0
        assert expo_low.any()

    def test_vanishing_wave_numbers_raise_no_warning(self):
        # |k| s^1.5 is subnormal at the first value and 0 at the others, where PHI is 0
        spectral = wc.gaussian_packet(*self.PARAMS[0]).spectral
        tiny = np.array([1.26e-126, 7.93e-134, 1e-160])
        zero = np.zeros_like(tiny)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not spectral(zero, zero, tiny).any()
            for kz in tiny:  # the all-scalar form divides once
                assert spectral(0.0, 0.0, kz) == 0

    @pytest.mark.parametrize("stale", ["nan", "random bits"])
    def test_buffer_form_ignores_stale_buffers(self, stale):
        # a reused workspace hands the kernel whatever the previous task left behind
        spectral = wc.gaussian_packet(*self.PARAMS[0]).spectral
        rng = np.random.default_rng(14)
        k = rng.normal(size=(3, 4, 600)) * np.array([0.05, 1.0, 8.0, 1e3])[:, None]
        k[0, 1, :100] = -np.sqrt((k[:, 1, :100] ** 2).sum(axis=0))  # the half-line kx = -|k|
        k[1:, 1, :100] = 0.0
        k[:, 1, 100:110] = 0.0
        given = k.copy()
        want = spectral(*k)
        assert k.tobytes() == given.tobytes()  # the fresh path leaves its inputs alone
        assert (want == 0).any() and (want != 0).any()
        shape = k.shape[1:]
        buffers = [np.empty(shape, dtype) for dtype in spectral.into.buffers]
        if stale == "nan":
            for buf in buffers:
                buf[...] = True if buf.dtype == bool else np.nan
        else:
            for buf in buffers:
                raw = buf.view(np.uint8)
                raw[...] = rng.integers(0, 256, raw.shape, dtype=np.uint8)
        got = spectral.into(*k, *buffers)
        assert got is buffers[-1]
        self.same(got, want)  # masked points included: +0 real and imaginary parts

    def test_peak_memory_at_most_expression_form(self):
        params = self.PARAMS[0]
        k = np.random.default_rng(12).normal(size=(3, 4, 32768))
        peaks = []
        for spectral in (expression_packet_spectrum(*params), wc.gaussian_packet(*params).spectral):
            tracemalloc.start()
            try:
                start, _ = tracemalloc.get_traced_memory()
                spectral(*k)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak - start)
        assert peaks[1] <= peaks[0]


class TestMorletAsymptote:
    def test_origin_anchor(self):
        p, gamma, e1, e2 = 80.0, 1.0, 2.0, 2.0
        w = wc.gaussian_packet(p, gamma, e1, e2)
        m = wc.morlet_asymptote(p, gamma, e1, e2)
        got = complex(m(np.array(0.0), 0.0, 0.0))
        want = complex(w.position(np.array(0.0), 0.0, 0.0, 0.0))
        assert got == pytest.approx(want, rel=1e-14)

    @staticmethod
    def deviation(p, gamma=1.0, eps=2.0, alpha=0.4, n=15):
        w = wc.gaussian_packet(p, gamma, eps, eps)
        m = wc.morlet_asymptote(p, gamma, eps, eps)
        xm = gamma * p**-alpha
        ym = np.sqrt(eps * gamma) * p**-alpha
        x = np.linspace(-xm, xm, n)
        y = np.linspace(-ym, ym, n)
        z = np.linspace(-ym, ym, n)
        Z, Y, X = np.meshgrid(z, y, x, indexing="ij")
        g = w.position(X, Y, Z, 0.0)
        return float(np.max(np.abs(g - m(X, Y, Z)) / np.abs(g)))

    def test_rate_bound_from_fit(self):
        dev50 = self.deviation(50.0)
        fitted_k = dev50 * 50.0**0.2
        assert self.deviation(200.0) <= fitted_k * 200.0**-0.2

    def test_monotone_in_p(self):
        devs = [self.deviation(p) for p in (50.0, 100.0, 200.0)]
        assert devs[0] > devs[1] > devs[2]


class TestDerivedWavelets:
    def test_inverse_pair(self, exp_sph):
        psi = wc.time_antiderivative_wavelet(exp_sph)
        back = wc.time_derivative_wavelet(psi)
        rng = np.random.default_rng(11)
        k = rng.normal(size=(3, 60))
        assert np.max(np.abs(back.spectral(*k) - exp_sph.spectral(*k))) <= 1e-14 * np.max(
            np.abs(exp_sph.spectral(*k))
        )

    def test_derivative_zero_at_origin_and_modulus(self, exp_sph):
        chi = wc.time_derivative_wavelet(exp_sph)
        assert complex(chi.spectral(0.0, 0.0, 0.0)) == 0.0
        k = np.linspace(0.3, 3.0, 9)
        zero = np.zeros_like(k)
        lhs = np.abs(chi.spectral(k, zero, zero))
        rhs = exp_sph.c * k * np.abs(exp_sph.spectral(k, zero, zero))
        assert rel_l2(lhs, rhs) <= 1e-14

    def test_antiderivative_profile(self, exp_sph):
        psi = wc.time_antiderivative_wavelet(exp_sph)
        k = np.linspace(0.3, 2.5, 7)
        zero = np.zeros_like(k)
        got = psi.spectral(k, zero, zero)
        want = exp_sph.spectral(k, zero, zero) / (-1j * k)
        assert rel_l2(got, want) <= 1e-14
        # |psi_hat| ~ sqrt(pi) k^{-7/2} exp(-k - 1/k)
        ref = np.sqrt(np.pi) * k**-3.5 * np.exp(-k - 1.0 / k)
        assert rel_l2(np.abs(got), ref) <= 1e-12


CATALOG = {
    "kaiser": lambda: wc.make_wavelet("kaiser"),
    "kaiser-2.5": lambda: wc.make_wavelet("kaiser", {"alpha": 2.5}, c=1.7),
    "exp-spherical": lambda: wc.make_wavelet("exp-spherical"),
    "bateman": lambda: wc.make_wavelet("bateman", {"eps1": 0.5, "eps2": 0.8}),
    "bateman-kaiser": lambda: wc.make_wavelet("bateman", {"proxy": "kaiser", "proxy_alpha": 3.5}),
    "gaussian-packet": lambda: wc.make_wavelet("gaussian-packet"),
}
FORMS = {
    "wavelet": lambda w: w,
    "antiderivative": wc.time_antiderivative_wavelet,
    "derivative": wc.time_derivative_wavelet,
}


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("name", CATALOG)
def test_catalog_spectra_are_finite_and_vanish_at_k0(name, form):
    w = FORMS[form](CATALOG[name]())
    # a lattice through the origin, the half-line kx = -|k|, small and large radii
    KX, KY, KZ = wc.Grid3(16, 12, 10, 0.1, 0.3, 1.5, origin=(-0.8, 0.0, 2.0)).k_mesh()
    radii = np.geomspace(1e-6, 1e3, 19)
    zero = np.zeros_like(radii)
    points = [(KX, KY, KZ), (-radii, zero, zero), (radii, zero, zero),
              (radii, radii, -radii), (zero, zero, radii)]
    for kx, ky, kz in points:
        assert np.isfinite(w.spectral(kx, ky, kz)).all()
    assert w.spectral(KX, KY, KZ)[0, 0, 0] == 0
    for origin in ((0.0, 0.0, 0.0), (np.array(0.0), np.array(0.0), np.array(0.0)),
                   (np.array(0.0), 0.0, np.float64(0.0))):
        value = w.spectral(*origin)
        assert np.shape(value) == () and value == 0
    value = w.spectral(np.array(0.4), np.array(-0.3), np.array(1.2))
    assert np.shape(value) == () and np.isfinite(value) and value != 0


class TestTimeReverse:
    def test_double_reversal(self, packet):
        twice = wc.time_reverse(wc.time_reverse(packet))
        assert twice.sign == packet.sign
        rng = np.random.default_rng(13)
        k = rng.normal(size=(3, 20))
        assert np.array_equal(twice.spectral(*k), packet.spectral(*k))
        x = rng.normal(size=8)
        assert np.allclose(twice.position(x, x, x, 0.4), packet.position(x, x, x, 0.4))

    def test_reversed_exp_spherical_is_plus(self, exp_sph):
        assert wc.time_reverse(exp_sph).sign == "plus"

    def test_propagated_snapshots(self, exp_sph):
        g = wc.Grid3.cubic(16, 24.0)
        rev = wc.time_reverse(exp_sph)
        s = exp_sph.as_solution(g)
        s_rev = rev.as_solution(g)
        for t in (0.4, 1.3):
            a = wc.propagate(s_rev, t)
            b = wc.propagate(s, -t)
            assert rel_l2(a.values, b.values) <= 1e-12


# Every parameter of every constructor that takes a catalog parameter, with values that
# complete the call; each is refused unless it is a positive finite number.
CONSTRUCTORS = {
    "kaiser_proxy": (wc.kaiser_proxy, {"alpha": 3.0}),
    "kaiser_wavelet": (wc.kaiser_wavelet, {"alpha": 3.0}),
    "gaussian_packet_proxy": (wc.gaussian_packet_proxy, {"p": 40.0, "gamma": 1.0}),
    "bateman_from_proxy": (lambda **kw: wc.bateman_from_proxy(wc.exponential_proxy(False), **kw),
                           {"eps1": 0.5, "eps2": 0.5}),
    "gaussian_packet": (wc.gaussian_packet, {"p": 40.0, "gamma": 1.0, "eps1": 0.5, "eps2": 0.5}),
    "morlet_asymptote": (wc.morlet_asymptote,
                         {"p": 40.0, "gamma": 1.0, "eps1": 0.5, "eps2": 0.5}),
}
CONSTRUCTOR_PARAMETERS = [(name, key) for name, (_, kw) in CONSTRUCTORS.items() for key in kw]


@pytest.mark.parametrize("value", [True, np.inf, np.nan, 0, -1.0], ids=repr)
@pytest.mark.parametrize("constructor, key", CONSTRUCTOR_PARAMETERS, ids="-".join)
def test_every_parameter_is_positive_finite(constructor, key, value):
    # True and inf once passed "not (x > 0)"; an infinite packet p ended in ZeroDivisionError
    build, kwargs = CONSTRUCTORS[constructor]
    build(**kwargs)
    with pytest.raises(wc.ValidationError, match=f"{key}={value!r} must be a positive finite"):
        build(**{**kwargs, key: value})


@pytest.mark.parametrize("constructor, key, value", [
    ("kaiser_proxy", "alpha", 1e300), ("kaiser_proxy", "alpha", 172.0),
    ("kaiser_proxy", "alpha", 1e-320), ("kaiser_wavelet", "alpha", 1e300),
    ("gaussian_packet_proxy", "p", 1e300), ("gaussian_packet", "p", 1e155),
    ("morlet_asymptote", "gamma", 1e300),
], ids=str)
def test_parameters_whose_derived_numbers_overflow(constructor, key, value):
    # Gamma(alpha), p**2 and gamma**2 once raised OverflowError where they were computed
    build, kwargs = CONSTRUCTORS[constructor]
    with pytest.raises(wc.ValidationError, match=f"{key}(=.*: Gamma.* overflows| squared=inf)"):
        build(**{**kwargs, key: value})


def test_largest_kaiser_alpha_builds():
    proxy = wc.kaiser_proxy(171.0, validate=False)
    assert proxy.time_profile(0.0) == pytest.approx(math.gamma(171.0) / np.pi)


class TestCatalogFactory:
    def test_names(self):
        assert wc.CATALOG_NAMES == ("kaiser", "exp-spherical", "bateman", "gaussian-packet")

    def test_unknown_name(self):
        with pytest.raises(wc.ValidationError):
            wc.make_wavelet("unknown")

    def test_unused_parameter_rejected(self):
        with pytest.raises(wc.ValidationError, match="unused"):
            wc.make_wavelet("kaiser", {"alpha": 3.0, "bogus": 1.0})

    @pytest.mark.parametrize("name, params", [("kaiser", {"alpha": "abc"}),
                                               ("gaussian-packet", {"p": "4O"}),
                                               ("bateman", {"eps1": [0.5]}),
                                               ("bateman", {"proxy": "kaiser", "proxy_alpha": ""})],
                             ids=str)
    def test_a_value_that_is_not_a_number_is_refused(self, name, params):
        # float() once ran twice, and "abc" ended in a bare ValueError
        with pytest.raises(wc.ValidationError, match="is not a number"):
            wc.make_wavelet(name, params)

    def test_numeric_text_is_the_number(self):
        assert wc.make_wavelet("kaiser", {"alpha": " 3.5 "}).params == (("alpha", 3.5),)
        text = wc.make_wavelet("bateman", {"proxy": "kaiser", "proxy_alpha": "4", "eps1": "1"})
        assert text.params == wc.make_wavelet("bateman", {"proxy": "kaiser", "proxy_alpha": 4.0,
                                                          "eps1": 1.0}).params

    def test_a_bool_value_is_left_to_the_constructor(self):
        with pytest.raises(wc.ValidationError, match="alpha=True must be a positive finite"):
            wc.make_wavelet("kaiser", {"alpha": True})

    def test_kaiser_proxy_bateman(self):
        w = wc.make_wavelet("bateman", {"proxy": "kaiser", "proxy_alpha": 4.0,
                                        "eps1": 1.0, "eps2": 1.0})
        assert w.symmetry == "axial"
        assert ("proxy", "kaiser") in w.params


AXIAL_WAVELETS = {
    "gaussian-packet": lambda: wc.gaussian_packet(40.0, 1.0, 0.5, 0.5),
    "bateman-exp": lambda: wc.make_wavelet("bateman", {"eps1": 0.7, "eps2": 0.7}),
    "bateman-kaiser": lambda: wc.make_wavelet("bateman", {"proxy": "kaiser", "proxy_alpha": 4.0,
                                                          "eps1": 1.0, "eps2": 1.0}),
}
DERIVED = {
    "itself": lambda w: w,
    "time-derivative": wc.time_derivative_wavelet,
    "time-antiderivative": wc.time_antiderivative_wavelet,
}


class TestAxialContract:
    """An "axial" tag promises ``PHI(Q q) = PHI(q)`` for every rotation ``Q`` about the axis."""

    @settings(max_examples=120, deadline=None, database=None)
    @given(name=st.sampled_from(sorted(AXIAL_WAVELETS)), derive=st.sampled_from(sorted(DERIVED)),
           angle=st.floats(0.0, 2.0 * np.pi),
           q=st.tuples(*[st.floats(-40.0, 40.0)] * 3))
    def test_spectrum_is_invariant_about_the_axis(self, name, derive, angle, q):
        w = DERIVED[derive](AXIAL_WAVELETS[name]())
        assert w.symmetry == "axial"
        # the spectrum's scale: its largest value along the axis
        radii = np.geomspace(1e-2, 1e2, 400)
        peak = np.abs(w.spectral(*np.multiply.outer(w.axis, radii))).max()
        q = np.array(q)
        turned = rotation_about(w.axis, angle) @ q
        base, rotated = (w.spectral(*v[:, None])[0] for v in (q, turned))
        assert abs(rotated - base) <= 1e-12 * abs(base) + 1e-14 * peak

    @pytest.mark.parametrize("derive", sorted(DERIVED))
    def test_eccentric_wavelets_stay_untagged(self, derive):
        for w in (wc.gaussian_packet(40.0, 1.0, 0.5, 0.8),
                  wc.make_wavelet("bateman", {"eps1": 0.5, "eps2": 0.8}),
                  wc.make_wavelet("bateman", {"proxy": "kaiser", "eps1": 1.0, "eps2": 1.2})):
            assert DERIVED[derive](w).symmetry == "none"
