"""Admissibility constants, divergence detection and the Bessel reference."""

import math

import numpy as np
import pytest

import wavecwt as wc


def spherical_adhoc(spectral_of_radius):
    """Wrap a radial modulus profile as a spherical test wavelet."""

    def spectral(kx, ky, kz):
        k = np.sqrt(np.asarray(kx) ** 2 + np.asarray(ky) ** 2 + np.asarray(kz) ** 2)
        return spectral_of_radius(k).astype(complex)

    return wc.PhysicalWavelet("minus", spectral, None, "spherical", 1.0)


class TestSameWaveletConstant:
    def test_exp_spherical_matches_bessel(self, exp_sph):
        report = wc.admissibility_constant(exp_sph, tol=1e-8)
        target = 8 * np.pi**2 * wc.bessel_k(5, 4.0)
        assert report.converged
        assert abs(report.constant - target) <= 1e-6 * target
        assert report.error_estimate <= 1e-8

    def test_constant_is_real_nonnegative(self, packet):
        report = wc.admissibility_constant(packet, tol=1e-8)
        assert report.converged
        assert np.imag(report.constant) == 0.0
        assert report.value >= 0.0

    def test_gaussian_spectrum_diverges_at_origin(self):
        w = spherical_adhoc(lambda k: np.exp(-(k**2)))
        report = wc.admissibility_constant(w, tol=1e-8)
        assert not report.converged
        assert report.divergence_reason == "origin"

    def test_flat_tail_diverges(self):
        w = spherical_adhoc(lambda k: k**2 / (1.0 + k**2))
        report = wc.admissibility_constant(w, tol=1e-8)
        assert not report.converged
        assert report.divergence_reason in ("tail", "origin")

    @pytest.mark.parametrize("alpha,expect", [(2.0, False), (2.5, True)])
    def test_kaiser_admissibility_boundary(self, alpha, expect):
        report = wc.admissibility_constant(wc.kaiser_wavelet(alpha), tol=1e-8)
        assert report.converged is expect

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_scale_invariance(self, exp_sph, lam):
        base = wc.admissibility_constant(exp_sph, tol=1e-10).value
        spectral = exp_sph.spectral
        scaled = wc.PhysicalWavelet(
            "minus",
            lambda kx, ky, kz: spectral(lam * np.asarray(kx), lam * np.asarray(ky), lam * np.asarray(kz)),
            None, "spherical", 1.0,
        )
        got = wc.admissibility_constant(scaled, tol=1e-10).value
        assert abs(got - base) <= 1e-8 * base

    def test_invariant_under_time_reverse(self, exp_sph):
        base = wc.admissibility_constant(exp_sph, tol=1e-10).value
        rev = wc.admissibility_constant(wc.time_reverse(exp_sph), tol=1e-10).value
        assert abs(rev - base) <= 1e-10 * base

    @pytest.mark.parametrize("name, params, expected", [
        ("kaiser", {}, "3.141592653589793"),
        ("exp-spherical", {}, "12.186399185451599"),
        ("bateman", {}, "120.27493903416374"),
        ("bateman", {"eps1": 0.5, "eps2": 0.8}, "130.99297032822022"),
        ("gaussian-packet", {}, "5.095214172877632e-38"),
    ])
    def test_pinned_catalog_constants(self, name, params, expected):
        # the angular quadrature's perpendicular axis is shared with the
        # parameter grid's tilt axis; these digits pin that choice
        assert repr(wc.admissibility_constant(wc.make_wavelet(name, params)).value) == expected


class TestProxyConstant:
    def test_kaiser_proxy_gamma_oracle(self):
        # integral of 4 xi^{2a-5} e^{-2 xi} is Gamma(2a-4) 2^{4-2a}; times pi/c^4
        for alpha in (2.5, 3.0, 4.0):
            report = wc.admissibility_constant_from_proxy(wc.kaiser_proxy(alpha), c=1.0, tol=1e-8)
            oracle = 4 * np.pi * math.gamma(2 * alpha - 4) / 2 ** (2 * alpha - 4)
            assert report.converged
            assert abs(report.value - oracle) <= 1e-8 * oracle

    def test_kaiser_alpha3_is_pi(self):
        report = wc.admissibility_constant_from_proxy(wc.kaiser_proxy(3.0), c=1.0, tol=1e-8)
        assert abs(report.value - np.pi) <= 1e-8 * np.pi

    def test_exponential_proxy_matches_bessel(self):
        report = wc.admissibility_constant_from_proxy(wc.exponential_proxy(), c=1.0, tol=1e-8)
        target = 8 * np.pi**2 * wc.bessel_k(5, 4.0)
        assert report.converged
        assert abs(report.value - target) <= 1e-8 * target

    def test_boundary_sweep(self):
        # just above the boundary: finite but endpoint-dominated, so only a
        # loose tolerance is attainable; just below: divergent
        above = wc.admissibility_constant_from_proxy(wc.kaiser_proxy(2.01), c=1.0, tol=2e-2)
        assert above.converged
        oracle = 4 * np.pi * math.gamma(0.02) / 2**0.02
        assert above.value > 100.0
        assert abs(above.value - oracle) <= 2e-2 * oracle
        below = wc.admissibility_constant_from_proxy(wc.kaiser_proxy(1.99), c=1.0, tol=2e-2)
        assert not below.converged
        assert below.divergence_reason == "origin"

    def test_agrees_with_wavelet_route(self):
        for proxy in (wc.exponential_proxy(), wc.kaiser_proxy(3.0)):
            via_proxy = wc.admissibility_constant_from_proxy(proxy, c=1.0, tol=1e-10)
            via_wavelet = wc.admissibility_constant(wc.spherical_from_proxy(proxy, 1.0), tol=1e-10)
            assert via_proxy.converged and via_wavelet.converged
            assert abs(via_proxy.value - via_wavelet.value) <= 1e-8 * via_wavelet.value

    def test_speed_scaling(self):
        c = 2.0
        report = wc.admissibility_constant_from_proxy(wc.kaiser_proxy(3.0), c=c, tol=1e-8)
        assert abs(report.value - np.pi / c**4) <= 1e-8 * np.pi / c**4


class TestCrossConstant:
    def test_collapses_to_same_wavelet(self, exp_sph):
        same = wc.cross_admissibility_constant(exp_sph, exp_sph, tol=1e-10)
        single = wc.admissibility_constant(exp_sph, tol=1e-10)
        assert same.converged
        assert abs(same.constant - single.value) <= 1e-10 * single.value

    def test_derived_pair_is_minus_single(self, exp_sph):
        psi = wc.time_antiderivative_wavelet(exp_sph)
        chi = wc.time_derivative_wavelet(exp_sph)
        cross = wc.cross_admissibility_constant(psi, chi, tol=1e-8)
        single = wc.admissibility_constant(exp_sph, tol=1e-10)
        assert cross.converged
        assert abs(cross.constant - (-single.value)) <= 1e-8 * single.value

    def test_disjoint_supports(self):
        lo = spherical_adhoc(lambda k: ((1.0 <= k) & (k <= 2.0)).astype(float))
        hi = spherical_adhoc(lambda k: ((3.0 <= k) & (k <= 4.0)).astype(float))
        cross = wc.cross_admissibility_constant(lo, hi, tol=1e-8)
        assert cross.constant == 0.0

    def test_sign_mismatch_rejected(self, exp_sph):
        with pytest.raises(wc.ValidationError):
            wc.cross_admissibility_constant(exp_sph, wc.time_reverse(exp_sph))


class TestBesselK:
    def test_recurrence_at_4(self):
        # K_{n+1}(x) = K_{n-1}(x) + (2n/x) K_n(x)
        x = 4.0
        for n in (1, 2, 3, 4):
            lhs = wc.bessel_k(n + 1, x)
            rhs = wc.bessel_k(n - 1, x) + (2 * n / x) * wc.bessel_k(n, x)
            assert abs(lhs - rhs) <= 1e-9 * abs(lhs)

    def test_positive_and_decreasing(self):
        xs = np.linspace(0.5, 20.0, 15)
        for n in (0, 2, 5):
            vals = [wc.bessel_k(n, float(x)) for x in xs]
            assert all(v > 0 for v in vals)
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_half_integer_free_cross_check(self, exp_sph):
        # K5(4) equals c^4/(8 pi^2) times the exponential wavelet's constant
        constant = wc.admissibility_constant(exp_sph, tol=1e-10).value
        assert abs(wc.bessel_k(5, 4.0) - constant / (8 * np.pi**2)) <= 1e-6 * wc.bessel_k(5, 4.0)

    def test_domain_errors(self):
        with pytest.raises(wc.ValidationError):
            wc.bessel_k(3, 0.0)
        with pytest.raises(wc.ValidationError):
            wc.bessel_k(-1, 2.0)
