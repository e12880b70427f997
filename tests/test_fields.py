"""Grid, transform, inner-product and propagator contracts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavecwt as wc
from conftest import band_limited_spectrum, rel_l2
from wavecwt.fields import _lattice_ifft, _pruned_ifft, _runs, _support_runs


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return wc.ComplexField3(grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))


class TestGrid3:
    def test_valid(self):
        g = wc.Grid3(16, 8, 10, 0.5, 1.0, 0.25, (-4.0, 0.0, 1.0))
        assert g.shape == (10, 8, 16)
        assert g.cell_volume == pytest.approx(0.125)

    @pytest.mark.parametrize("n", [7, 6, 9, 15])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(wc.ValidationError):
            wc.Grid3(n, 8, 8, 1.0, 1.0, 1.0)

    def test_rejects_bad_spacing(self):
        with pytest.raises(wc.ValidationError):
            wc.Grid3(8, 8, 8, 0.0, 1.0, 1.0)

    def test_k_lattice_has_single_zero(self, grid16):
        assert int(np.count_nonzero(grid16.k_mag() == 0.0)) == 1


class TestTransforms:
    def test_constant_field_is_dc_only(self, grid16):
        f = wc.ComplexField3(grid16, np.ones(grid16.shape, dtype=complex))
        F = wc.fft3(f)
        volume = grid16.cell_volume * grid16.node_count
        assert F.values[0, 0, 0] == pytest.approx(volume)
        off_dc = F.values.copy()
        off_dc[0, 0, 0] = 0.0
        assert np.max(np.abs(off_dc)) <= 1e-12 * volume

    def test_lattice_tone_is_single_bin(self, grid16):
        kx, ky, kz = grid16.k_axes()
        k0 = (kx[3], ky[14], kz[5])
        X, Y, Z = grid16.mesh()
        f = wc.ComplexField3(grid16, np.exp(1j * (k0[0] * X + k0[1] * Y + k0[2] * Z)))
        F = wc.fft3(f)
        volume = grid16.cell_volume * grid16.node_count
        assert F.values[5, 14, 3] == pytest.approx(volume)
        rest = F.values.copy()
        rest[5, 14, 3] = 0.0
        assert np.max(np.abs(rest)) <= 1e-9 * volume

    def test_round_trip(self, grid16):
        f = random_field(grid16, 1)
        back = wc.ifft3(wc.fft3(f))
        assert rel_l2(back.values, f.values) <= 1e-12

    def test_round_trip_offset_origin(self):
        g = wc.Grid3(16, 16, 16, 0.7, 0.7, 0.7, (2.0, -1.0, 0.5))
        f = random_field(g, 2)
        assert rel_l2(wc.ifft3(wc.fft3(f)).values, f.values) <= 1e-12

    def test_transforms_match_direct_formula(self):
        # non-unit cell and an origin off every half-period multiple, so each axis
        # has its own phase: a dropped cell_volume or a phase factor on the wrong
        # axis moves the result far beyond round-off
        g = wc.Grid3(16, 16, 16, 1.5, 1.25, 0.8, origin=(-11.3, -9.1, -5.7))
        KX, KY, KZ = g.k_mesh()
        ox, oy, oz = g.origin
        shift = np.exp(-1j * (KX * ox + KY * oy + KZ * oz))
        for seed in (21, 22, 23):
            f = random_field(g, seed)
            F = wc.fft3(f)
            assert rel_l2(F.values, np.fft.fftn(f.values) * g.cell_volume * shift) <= 1e-13
            back = wc.ifft3(F).values
            assert rel_l2(back, np.fft.ifftn(F.values / shift) / g.cell_volume) <= 1e-13
            assert rel_l2(back, f.values) <= 1e-13

    def test_non_finite_rejected_with_index(self, grid16):
        values = np.ones(grid16.shape, dtype=complex)
        values[3, 2, 1] = np.nan
        with pytest.raises(wc.NonFiniteFieldError, match=r"ix=1, iy=2, iz=3"):
            wc.ComplexField3(grid16, values)


def pruned_equals_plain(mask, seed=0, rows=2):
    """Whether :func:`_pruned_ifft` of random data on ``mask`` is ``_lattice_ifft``'s, byte for byte."""
    rng = np.random.default_rng(seed)
    cube = np.zeros((rows,) + mask.shape, dtype=np.complex128)
    count = np.count_nonzero(mask)
    cube[:, mask] = rng.normal(size=(rows, count)) + 1j * rng.normal(size=(rows, count))
    expected = _lattice_ifft(cube)
    assert _pruned_ifft(cube, _support_runs(mask)) is cube
    return cube.tobytes() == expected.tobytes()


class TestPrunedInverse:
    """The support-pruned bare inverse transform of ``analyze``'s slabs."""

    SHAPES = [(8, 8, 8), (16, 16, 16), (10, 12, 16)]  # the last is a 16 x 12 x 10 box

    def test_runs(self):
        flags = np.array([1, 1, 0, 0, 1, 0, 1, 1], dtype=bool)
        assert _runs(flags) == (slice(0, 2), slice(4, 5), slice(6, 8))
        assert _runs(np.zeros(6, dtype=bool)) == ()
        assert _runs(np.ones(6, dtype=bool)) == (slice(0, 6),)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("case", ["empty", "nyquist", "wrap", "x-line", "z-line", "full"])
    def test_edge_masks_match_the_plain_transform(self, shape, case):
        nz, ny, nx = shape
        mask = np.zeros(shape, dtype=bool)
        if case == "nyquist":  # one node on all three Nyquist planes
            mask[nz // 2, ny // 2, nx // 2] = True
        elif case == "wrap":  # runs at both ends of z and y, as a |k| band's projections
            mask[np.r_[0:2, nz - 2:nz][:, None], np.r_[0:3, ny - 1:ny], 1] = True
        elif case == "x-line":
            mask[nz - 1, 3, :] = True
        elif case == "z-line":
            mask[:, ny // 2, 0] = True
        elif case == "full":
            mask[:] = True
        assert pruned_equals_plain(mask)

    @settings(max_examples=60, deadline=None, database=None)
    @given(shape=st.sampled_from(SHAPES), shares=st.tuples(*[st.floats(0.0, 1.0)] * 3),
           seed=st.integers(0, 2**16))
    def test_random_masks_match_the_plain_transform(self, shape, shares, seed):
        # random nodes on random z planes and y rows: any pattern of runs, sparse to full
        rng = np.random.default_rng(seed)
        planes, rows, nodes = shares
        mask = ((rng.random(shape) < nodes) & (rng.random(shape[0]) < planes)[:, None, None]
                & (rng.random(shape[1]) < rows)[None, :, None])
        assert pruned_equals_plain(mask, seed)


class TestInnerProduct:
    def test_unit_field(self, grid16):
        f = wc.ComplexField3(grid16, np.ones(grid16.shape, dtype=complex))
        expected = grid16.node_count * grid16.cell_volume
        assert wc.inner_product(f, f) == pytest.approx(expected)

    def test_orthogonal_tones(self, grid16):
        kx, ky, kz = grid16.k_axes()
        X, Y, Z = grid16.mesh()
        f = wc.ComplexField3(grid16, np.exp(1j * kx[1] * X))
        g = wc.ComplexField3(grid16, np.exp(1j * kx[2] * X))
        assert abs(wc.inner_product(f, g)) <= 1e-12 * wc.norm(f) * wc.norm(g)

    def test_parseval(self, grid16):
        f = random_field(grid16, 3)
        g = random_field(grid16, 4)
        lhs = wc.inner_product(f, g)
        rhs = wc.spectral_inner_product(wc.fft3(f), wc.fft3(g))
        assert abs(lhs - rhs) <= 1e-12 * wc.norm(f) * wc.norm(g)

    def test_conjugate_symmetry(self, grid16):
        f = random_field(grid16, 5)
        g = random_field(grid16, 6)
        assert wc.inner_product(f, g) == pytest.approx(np.conj(wc.inner_product(g, f)))

    def test_grid_mismatch(self, grid16):
        other = wc.Grid3.cubic(16, 8.0)
        with pytest.raises(wc.GridMismatchError):
            wc.inner_product(random_field(grid16), random_field(other))


class TestPropagate:
    def test_t0_plus_only(self, grid16):
        F = band_limited_spectrum(grid16, 0.6, 1.6, 7)
        s = wc.solution_from_plus(F, 1.0)
        out = wc.propagate(s, 0.0)
        assert rel_l2(out.values, wc.ifft3(F).values) == 0.0

    def test_tone_dispersion(self, grid16):
        kx, ky, kz = grid16.k_axes()
        values = np.zeros(grid16.shape, dtype=complex)
        values[0, 0, 2] = 1.0
        k0 = abs(kx[2])
        c, t = 2.0, 0.8
        s = wc.solution_from_plus(wc.SpectralField3(grid16, values), c)
        out = wc.propagate(s, t)
        X, _, _ = grid16.mesh()
        expected = np.exp(1j * (kx[2] * X - k0 * c * t)) / (grid16.cell_volume * grid16.node_count)
        assert rel_l2(out.values, expected) <= 1e-12

    def test_minus_carrier_is_conjugate_of_plus(self, grid16):
        plus = band_limited_spectrum(grid16, 0.6, 1.6, 9)
        minus = band_limited_spectrum(grid16, 0.6, 1.6, 10)
        c, t = 1.3, 0.7
        out = wc.propagate(wc.SolutionSpectrum(plus, minus, c), t)
        phase = c * t * grid16.k_mag()
        two_exponentials = plus.values * np.exp(-1j * phase) + minus.values * np.exp(1j * phase)
        expected = wc.ifft3(wc.SpectralField3(grid16, two_exponentials))
        assert out.values.tobytes() == expected.values.tobytes()

    def test_norm_conserved(self, grid16):
        s = wc.solution_from_plus(band_limited_spectrum(grid16, 0.6, 1.6, 8), 1.0)
        n0 = wc.norm(wc.propagate(s, 0.0))
        for t in (0.3, 1.7, 12.0):
            assert abs(wc.norm(wc.propagate(s, t)) - n0) <= 1e-12 * n0


class TestSplitIVP:
    def test_zero_velocity(self, grid16):
        w = random_field(grid16, 9)
        v = wc.ComplexField3(grid16, np.zeros(grid16.shape, dtype=complex))
        s = wc.split_ivp(w, v, 1.0)
        W = wc.fft3(w).values
        assert rel_l2(s.plus.values, W / 2) <= 1e-14
        assert rel_l2(s.minus.values, W / 2) <= 1e-14

    def test_velocity_tone(self, grid16):
        kx, _, _ = grid16.k_axes()
        X, _, _ = grid16.mesh()
        c = 3.0
        w = wc.ComplexField3(grid16, np.zeros(grid16.shape, dtype=complex))
        v = wc.ComplexField3(grid16, np.exp(1j * kx[2] * X))
        s = wc.split_ivp(w, v, c)
        volume = grid16.cell_volume * grid16.node_count
        k0 = abs(kx[2])
        expected = volume / (2j * c * k0)
        assert s.plus.values[0, 0, 2] == pytest.approx(-expected)
        assert s.minus.values[0, 0, 2] == pytest.approx(+expected)

    def test_reproduces_initial_field(self, grid16):
        w = wc.ifft3(band_limited_spectrum(grid16, 0.6, 1.6, 10))
        v = wc.ifft3(band_limited_spectrum(grid16, 0.6, 1.6, 11))
        s = wc.split_ivp(w, v, 1.0)
        assert rel_l2(wc.propagate(s, 0.0).values, w.values) <= 1e-12

    def test_time_derivative_matches_velocity(self, grid16):
        w = wc.ifft3(band_limited_spectrum(grid16, 0.6, 1.6, 12))
        v = wc.ifft3(band_limited_spectrum(grid16, 0.6, 1.6, 13))
        s = wc.split_ivp(w, v, 1.0)

        def fd_velocity(dt):
            up = wc.propagate(s, dt).values
            um = wc.propagate(s, -dt).values
            return (up - um) / (2 * dt)

        err1 = rel_l2(fd_velocity(2e-2), v.values)
        err2 = rel_l2(fd_velocity(1e-2), v.values)
        assert err1 <= 1e-3  # O(dt^2) at band-limited third derivatives
        assert 3.7 <= err1 / err2 <= 4.3

    def test_rejects_bad_speed(self, grid16):
        w = random_field(grid16)
        with pytest.raises(wc.ValidationError):
            wc.split_ivp(w, w, 0.0)

    def test_dc_velocity_recorded(self, grid16):
        w = wc.ComplexField3(grid16, np.zeros(grid16.shape, dtype=complex))
        v = wc.ComplexField3(grid16, np.ones(grid16.shape, dtype=complex))
        with pytest.warns(RuntimeWarning, match="k=0 bin"):
            wc.split_ivp(w, v, 1.0)
