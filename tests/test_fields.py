"""Grid, transform, inner-product and propagator contracts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavecwt as wc
from conftest import band_limited_spectrum, rel_l2
from wavecwt.fields import _lattice_ifft, _positive_finite, _pruned_ifft, _runs, _support_runs


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

    @pytest.mark.parametrize("n", [16.0, np.float64(16.0), "16", True, None])
    def test_rejects_counts_that_are_not_integers(self, n):
        # a float count would pass a size check and fail later inside the FFT frequencies
        with pytest.raises(wc.ValidationError, match="even integers"):
            wc.Grid3.cubic(n, 16.0)
        with pytest.raises(wc.ValidationError, match="even integers"):
            wc.Grid3(16, n, 16, 1.0, 1.0, 1.0)
        assert wc.Grid3.cubic(np.int64(16), 16.0).node_count == 4096

    def test_rejects_bad_spacing(self):
        with pytest.raises(wc.ValidationError):
            wc.Grid3(8, 8, 8, 0.0, 1.0, 1.0)

    @pytest.mark.parametrize("origin", [(float("nan"), 0.0, 0.0), (0.0, 0.0, float("inf")),
                                        (0.0, -float("inf"), 0.0)])
    def test_rejects_an_origin_that_is_not_finite(self, origin):
        with pytest.raises(wc.ValidationError, match="origin"):
            wc.Grid3(8, 8, 8, 1.0, 1.0, 1.0, origin)

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


# Every wave speed c, lattice spacing h, dilation a and time step dt passes one rule,
# fields._positive_finite: a real number, not a bool, with 0 < x < inf.
NOT_POSITIVE_FINITE = [-1.0, 0, float("nan"), float("inf"), True]


def _zero(grid):
    return wc.ComplexField3(grid, np.zeros(grid.shape, dtype=complex))


def _spectrum(c):
    grid = wc.Grid3.cubic(8, 8.0)
    zero = wc.SpectralField3(grid, np.zeros(grid.shape, dtype=complex))
    return wc.SolutionSpectrum(zero, zero, c)


def _residual(c=1.0, dt=0.1):
    zero = _zero(wc.Grid3.cubic(8, 8.0))
    return wc.dalembert_residual(zero, zero, zero, c, dt)


# entry point -> (call with the value, words the message must hold)
ENTRY_POINTS = {
    "make_wavelet-kaiser": (lambda x: wc.make_wavelet("kaiser", c=x), "wave speed c"),
    "make_wavelet-exp-spherical": (lambda x: wc.make_wavelet("exp-spherical", c=x),
                                   "wave speed c"),
    "make_wavelet-bateman": (lambda x: wc.make_wavelet("bateman", c=x), "wave speed c"),
    "make_wavelet-gaussian-packet": (lambda x: wc.make_wavelet("gaussian-packet", c=x),
                                     "wave speed c"),
    "kaiser_wavelet": (lambda x: wc.kaiser_wavelet(3.0, x), "wave speed c"),
    "exp_spherical_wavelet": (lambda x: wc.exp_spherical_wavelet(x), "wave speed c"),
    "spherical_from_proxy": (lambda x: wc.spherical_from_proxy(wc.exponential_proxy(), x),
                             "wave speed c"),
    "bateman_from_proxy": (lambda x: wc.bateman_from_proxy(wc.exponential_proxy(), 1.0, 1.0, x),
                           "wave speed c"),
    "gaussian_packet": (lambda x: wc.gaussian_packet(40.0, 1.0, 0.5, 0.5, x), "wave speed c"),
    "SolutionSpectrum": (_spectrum, "wave speed c"),
    "split_ivp": (lambda x: wc.split_ivp(*[_zero(wc.Grid3.cubic(8, 8.0))] * 2, x),
                  "wave speed c"),
    "Grid3-h_x": (lambda x: wc.Grid3(8, 8, 8, x, 1.0, 1.0), "spacing h_x"),
    "Grid3-h_y": (lambda x: wc.Grid3(8, 8, 8, 1.0, x, 1.0), "spacing h_y"),
    "Grid3-h_z": (lambda x: wc.Grid3(8, 8, 8, 1.0, 1.0, x), "spacing h_z"),
    "WaveletParams": (lambda x: wc.WaveletParams(a=x), "dilation a"),
    "dalembert_residual-c": (lambda x: _residual(c=x), "wave speed c"),
    "dalembert_residual-dt": (lambda x: _residual(dt=x), "time step dt"),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_refuses_what_is_not_positive_finite(entry):
    call, words = ENTRY_POINTS[entry]
    call(2.0)
    for value in NOT_POSITIVE_FINITE:
        with pytest.raises(wc.ValidationError, match=words):
            call(value)


def test_positive_finite_takes_real_numbers_as_floats():
    for value in (3, 2.5, np.float32(0.5), np.int64(7), 1e-300, 1e300):
        got = _positive_finite(value, "x")
        assert type(got) is float and got == value
    for value in NOT_POSITIVE_FINITE + ["1.0", None, 1 + 0j, np.bool_(True), np.array(1.0)]:
        with pytest.raises(wc.ValidationError, match="time step dt="):
            _positive_finite(value, "time step dt")
    # a grid keeps its spacings as given: an int stays an int, so a WFLD or WCF header
    # written from the grid keeps its bytes
    g = wc.Grid3(8, 8, 8, 1, 2, np.float32(0.5))
    assert (type(g.h_x), type(g.h_y), type(g.h_z)) == (int, int, np.float32)


def test_positive_finite_refuses_an_int_past_the_float_range():
    # 0 < 10**400 < inf holds for the int itself; its float conversion overflows
    for value in (10**400, -(10**400), 10**5000):  # 10**5000 has no repr: 4300 digits at most
        with pytest.raises(wc.ValidationError, match="wave speed c="):
            _positive_finite(value, "wave speed c")
    assert _positive_finite(10**300, "c") == 1e300
    with pytest.raises(wc.ValidationError, match="spacing h_x="):
        wc.Grid3(8, 8, 8, 10**400, 1.0, 1.0)
    with pytest.raises(wc.ValidationError, match="wave speed c="):
        _spectrum(10**400)
