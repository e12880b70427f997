"""WFLD and WCF binary formats: bit-exact round trips and error paths."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import wavecwt as wc
from conftest import band_limited_spectrum


def test_position_field_round_trip(tmp_path, grid16):
    rng = np.random.default_rng(0)
    f = wc.ComplexField3(grid16, rng.normal(size=grid16.shape) + 1j * rng.normal(size=grid16.shape))
    path = tmp_path / "field.wfld"
    wc.write_field(path, f, c=2.5)
    back, c = wc.read_field(path)
    assert isinstance(back, wc.ComplexField3)
    assert c == 2.5
    assert back.grid == grid16
    assert np.array_equal(back.values, f.values)


def test_spectral_field_round_trip(tmp_path, grid16):
    F = band_limited_spectrum(grid16, 0.6, 1.6, 1)
    path = tmp_path / "field.wfld"
    wc.write_field(path, F)
    back, c = wc.read_field(path)
    assert isinstance(back, wc.SpectralField3)
    assert c is None
    assert np.array_equal(back.values, F.values)


def test_linear_index_layout(tmp_path):
    # sample (ix, iy, iz) must land at byte offset 16 * ((iz*ny + iy)*nx + ix)
    g = wc.Grid3(8, 10, 12, 1.0, 1.0, 1.0)
    values = np.zeros(g.shape, dtype=complex)
    ix, iy, iz = 3, 7, 11
    values[iz, iy, ix] = 1.0 + 2.0j
    path = tmp_path / "probe.wfld"
    wc.write_field(path, wc.ComplexField3(g, values))
    blob = path.read_bytes()
    payload = blob[blob.find(b"\x00") + 1:]
    offset = 16 * ((iz * g.n_y + iy) * g.n_x + ix)
    re, im = np.frombuffer(payload[offset:offset + 16], dtype="<f8")
    assert (re, im) == (1.0, 2.0)


def test_truncated_payload_rejected(tmp_path, grid16):
    f = wc.ComplexField3(grid16, np.ones(grid16.shape, dtype=complex))
    path = tmp_path / "field.wfld"
    wc.write_field(path, f)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(wc.ValidationError, match="payload"):
        wc.read_field(path)


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "junk.wfld"
    path.write_bytes(b"not a header at all")
    with pytest.raises(wc.ValidationError):
        wc.read_field(path)


def test_coefficients_round_trip(tmp_path, grid16, exp_sph, exp_sph_pgrid, exp_sph_constant):
    u = band_limited_spectrum(grid16, 0.7, 1.6, 2)
    coeffs = wc.analyze(u, "minus", exp_sph, exp_sph_pgrid, constant=exp_sph_constant)
    path = tmp_path / "coeffs.wcf"
    wc.write_coefficients(path, coeffs, c=1.0)
    back, c = wc.read_coefficients(path)
    assert c == 1.0
    assert back.sign == "minus"
    assert back.constant == coeffs.constant
    assert back.nu_grid == coeffs.nu_grid
    assert np.array_equal(back.values, coeffs.values)
    # synthesis from the loaded object matches synthesis from the original
    a = wc.reconstruct(coeffs, exp_sph, 0.4)
    b = wc.reconstruct(back, exp_sph, 0.4)
    assert np.array_equal(a.values, b.values)


def test_axial_coefficients_round_trip(tmp_path, packet, packet_constant):
    grid = wc.Grid3.cubic(8, 8.0)
    pg = wc.make_parameter_grid(grid, packet, 5.0, 20.0, 3, 4, 2)
    u = band_limited_spectrum(grid, 0.8, 1.8, 3)
    coeffs = wc.analyze(u, "plus", packet, pg, constant=packet_constant)
    path = tmp_path / "axial.wcf"
    wc.write_coefficients(path, coeffs)
    back, _ = wc.read_coefficients(path)
    assert back.nu_grid.angle_shape == (4, 2)
    assert np.array_equal(back.values, coeffs.values)
    assert dict(back.wavelet_params) == dict(coeffs.wavelet_params)


@pytest.mark.parametrize("symmetry", ["spherical", "axial", "none"])
def test_wcf_nu_grid_header_is_the_grid_description(tmp_path, symmetry):
    grid = wc.Grid3.cubic(8, 8.0)
    pg = wc.build_parameter_grid(grid, symmetry, (1.0, 0.0, 0.0), 0.3, 2.0, 3, 4, 2, 2)
    coeffs = wc.WaveletCoefficients(pg, np.zeros((3, pg.n_rotations) + grid.shape, dtype=complex),
                                    "plus", 1.0)
    path = tmp_path / "grid.wcf"
    wc.write_coefficients(path, coeffs)
    head = path.read_bytes()
    header = json.loads(head[:head.index(b"\x00")])
    assert list(header["nu_grid"].items()) == list(
        dict(pg.describe(), constant_factor=pg.constant_factor).items())


@settings(max_examples=60, deadline=None, database=None)
@given(lo=st.integers(1, 2999), width=st.integers(1, 2999), n_a=st.integers(2, 24))
@example(lo=269, width=216, n_a=5)  # exp(log(0.485)) is 0.48499999999999993
def test_parameter_grid_survives_wcf_round_trip(tmp_path_factory, exp_sph, lo, width, n_a):
    grid = wc.Grid3.cubic(8, 8.0)
    pg = wc.make_parameter_grid(grid, exp_sph, lo / 1000, (lo + width) / 1000, n_a)
    coeffs = wc.WaveletCoefficients(pg, np.zeros((n_a, 1) + grid.shape, dtype=complex),
                                    "minus", 1.0)
    path = tmp_path_factory.mktemp("window") / "window.wcf"
    wc.write_coefficients(path, coeffs)
    back, _ = wc.read_coefficients(path)
    assert back.nu_grid == pg
    assert wc.weighted_pairing(back, coeffs) == 0


@pytest.mark.parametrize("kind, extra", [("field", 16), ("coefficients", -16)])
def test_payload_size_mismatch_rejected(tmp_path, grid16, kind, extra):
    path = tmp_path / "data.bin"
    if kind == "field":
        wc.write_field(path, wc.ComplexField3(grid16, np.ones(grid16.shape, dtype=complex)))
    else:
        pg = wc.build_parameter_grid(grid16, "spherical", (0.0, 0.0, 1.0), 0.5, 2.0, 2)
        values = np.ones((2, 1) + grid16.shape, dtype=complex)
        wc.write_coefficients(path, wc.WaveletCoefficients(pg, values, "minus", 1.0))
    blob = path.read_bytes()
    path.write_bytes(blob + b"\x00" * extra if extra > 0 else blob[:extra])
    with pytest.raises(wc.ValidationError, match="payload"):
        (wc.read_field if kind == "field" else wc.read_coefficients)(path)


def test_ill_typed_wave_speed_rejected(tmp_path, grid16):
    path = tmp_path / "field.wfld"
    wc.write_field(path, wc.ComplexField3(grid16, np.ones(grid16.shape, dtype=complex)), c=1.0)
    path.write_bytes(path.read_bytes().replace(b'"c": 1.0', b'"c": "fast"', 1))
    with pytest.raises(wc.ValidationError, match="wave speed"):
        wc.read_field(path)


@pytest.mark.parametrize("header", [
    b"[1]",
    b'{"version": 1, "dtype": "c128le"}',
    b'{"version": 1, "dtype": "c128le", "field": [], "nu_grid": {}}',
    b'{"version": 1, "dtype": "c128le", "field": {"n": [8, 8, 8], "h": [1, 1, 1], '
    b'"origin": [0, 0, 0]}, "nu_grid": {"symmetry": "spherical", "axis": [0, 0, 1], '
    b'"a_min": 0.5, "a_max": 2, "n_a": 2, "angle_shape": []}, "sign": "minus", '
    b'"c_const": "one"}',
])
def test_malformed_coefficient_header_rejected(tmp_path, header):
    path = tmp_path / "bad.wcf"
    path.write_bytes(header + b"\n\x00")
    with pytest.raises(wc.ValidationError):
        wc.read_coefficients(path)


@pytest.mark.parametrize("header", [b"[1]", b'"text"', b'{"version": 1, "dtype": "c128le"}'])
def test_malformed_field_header_rejected(tmp_path, header):
    path = tmp_path / "bad.wfld"
    path.write_bytes(header + b"\n\x00")
    with pytest.raises(wc.ValidationError):
        wc.read_field(path)


def test_coefficient_io_allocates_no_payload_copy(tmp_path, grid16):
    # 8 dilations x 4 x 4 angles on 16^3: an 8 MiB coefficient set
    pg = wc.build_parameter_grid(grid16, "axial", (1.0, 0.0, 0.0), 1.0, 2.0, 8, 4, 4)
    rng = np.random.default_rng(4)
    shape = (pg.n_a, pg.n_rotations) + grid16.shape
    coeffs = wc.WaveletCoefficients(pg, rng.normal(size=shape) + 1j * rng.normal(size=shape),
                                    "plus", 1.0)
    payload = coeffs.values.nbytes
    path = tmp_path / "big.wcf"

    def peak_above_start(call):
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            result = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - start, result

    written, _ = peak_above_start(lambda: wc.write_coefficients(path, coeffs))
    assert written <= 0.25 * payload
    read, (back, _) = peak_above_start(lambda: wc.read_coefficients(path))
    assert read <= 1.25 * payload
    assert np.array_equal(back.values, coeffs.values)
