"""WFLD and WCF binary formats: bit-exact round trips and error paths."""

import dataclasses
import json
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import wavecwt as wc
from conftest import band_limited_spectrum
from wavecwt import cli, cwt, fileio, synthesis
from wavecwt.orbits import _orbits


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
@given(lo=st.integers(1, 2999), width=st.integers(1, 2999), n_a=st.integers(2, 24),
       symmetry=st.sampled_from(["spherical", "axial", "none"]),
       axis=st.tuples(*[st.integers(-9, 9)] * 3).filter(any))
# exp(log(0.485)) is 0.48499999999999993; a unit axis scaled again would move by an ulp
@example(lo=269, width=216, n_a=5, symmetry="spherical", axis=(0, 0, 1))
@example(lo=500, width=1500, n_a=2, symmetry="axial", axis=(1, 2, 2))
@example(lo=500, width=1500, n_a=2, symmetry="axial", axis=(0.3, 0.4, 0.5))
@example(lo=500, width=1500, n_a=2, symmetry="none", axis=(1, 1, 0))
def test_parameter_grid_survives_wcf_round_trip(tmp_path_factory, lo, width, n_a, symmetry, axis):
    grid = wc.Grid3.cubic(8, 8.0)
    pg = wc.build_parameter_grid(grid, symmetry, axis, lo / 1000, (lo + width) / 1000, n_a, 2, 2, 2)
    coeffs = wc.WaveletCoefficients(pg, np.zeros(pg.coefficient_shape, dtype=complex), "minus", 1.0)
    path = tmp_path_factory.mktemp("window") / "window.wcf"
    wc.write_coefficients(path, coeffs)
    for read in (wc.open_coefficients, wc.read_coefficients):
        back, _ = read(path)
        assert back.nu_grid == pg
        assert hash(back.nu_grid) == hash(pg)
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


BAD_SPEEDS = [(-1.0, b"-1"), (0.0, b"0"), (float("nan"), b"NaN"), (float("inf"), b"Infinity"),
              (True, b"true")]


@pytest.mark.parametrize("c", [c for c, _ in BAD_SPEEDS], ids=lambda c: repr(c))
def test_writers_refuse_a_bad_wave_speed_and_leave_no_file(tmp_path, grid16, c):
    pg = wc.build_parameter_grid(grid16, "spherical", (0.0, 0.0, 1.0), 0.5, 2.0, 2)
    coeffs = wc.WaveletCoefficients(pg, np.ones((2, 1) + grid16.shape, dtype=complex), "minus",
                                    1.0)
    path = tmp_path / "out"
    with pytest.raises(wc.ValidationError, match="wave speed"):
        wc.write_field(path, wc.ComplexField3(grid16, np.ones(grid16.shape, dtype=complex)), c=c)
    assert not path.exists()
    with pytest.raises(wc.ValidationError, match="wave speed"):
        wc.write_coefficients(path, coeffs, c=c)
    assert not path.exists()
    with pytest.raises(wc.ValidationError, match="wave speed"):
        with wc.create_coefficients(path, wc.exp_spherical_wavelet(), pg, 1.0, c=c):
            raise AssertionError("the payload was handed out")
    assert not path.exists()


@pytest.mark.parametrize("text", [text for _, text in BAD_SPEEDS], ids=lambda t: t.decode())
def test_readers_refuse_a_bad_wave_speed(tmp_path, grid16, text):
    field = tmp_path / "u.wfld"
    wc.write_field(field, wc.ComplexField3(grid16, np.ones(grid16.shape, dtype=complex)), c=1.0)
    coefficients = tmp_path / "u.wcf"
    pg = wc.build_parameter_grid(grid16, "spherical", (0.0, 0.0, 1.0), 0.5, 2.0, 2)
    wc.write_coefficients(coefficients, wc.WaveletCoefficients(
        pg, np.ones((2, 1) + grid16.shape, dtype=complex), "minus", 1.0), c=1.0)
    for path in (field, coefficients):
        blob = path.read_bytes()
        assert blob.count(b'"c": 1.0') == 1
        path.write_bytes(blob.replace(b'"c": 1.0', b'"c": ' + text))
    for read, path in ((wc.read_field, field), (wc.read_coefficients, coefficients),
                       (wc.open_coefficients, coefficients)):
        with pytest.raises(wc.ValidationError, match="wave speed"):
            read(path)


@pytest.mark.parametrize("text", [b"NaN", b"Infinity", b"-Infinity"])
def test_readers_refuse_an_origin_that_is_not_finite(tmp_path, grid16, text):
    field = tmp_path / "u.wfld"
    wc.write_field(field, wc.ComplexField3(grid16, np.ones(grid16.shape, dtype=complex)), c=1.0)
    coefficients = tmp_path / "u.wcf"
    pg = wc.build_parameter_grid(grid16, "spherical", (0.0, 0.0, 1.0), 0.5, 2.0, 2)
    wc.write_coefficients(coefficients, wc.WaveletCoefficients(
        pg, np.ones((2, 1) + grid16.shape, dtype=complex), "minus", 1.0), c=1.0)
    for path in (field, coefficients):
        blob = path.read_bytes()
        assert blob.count(b'"origin": [-8.0,') == 1
        path.write_bytes(blob.replace(b'"origin": [-8.0,', b'"origin": [' + text + b","))
    for read, path in ((wc.read_field, field), (wc.read_coefficients, coefficients),
                       (wc.open_coefficients, coefficients)):
        with pytest.raises(wc.ValidationError, match="origin"):
            read(path)


@pytest.mark.parametrize("old, new", [(b'"h": [1.0,', b'"h": [true,'), (b'"h": [1.0,', b'"h": ["1",'),
                                      (b'"n": [16,', b'"n": [16.5,')],
                         ids=["true-spacing", "string-spacing", "fractional-count"])
def test_readers_check_the_header_grid_as_read(tmp_path, grid16, old, new):
    # a count or spacing is checked by Grid3 as the header holds it, not after float() or int()
    path = tmp_path / "u.wfld"
    wc.write_field(path, wc.ComplexField3(grid16, np.ones(grid16.shape, dtype=complex)), c=1.0)
    blob = path.read_bytes()
    assert blob.count(old) == 1
    path.write_bytes(blob.replace(old, new))
    with pytest.raises(wc.ValidationError, match="spacing h_x|even integers"):
        wc.read_field(path)


@pytest.mark.parametrize("old, new", [(b'"a_min": 0.5,', b'"a_min": true,'),
                                      (b'"a_max": 2.0,', b'"a_max": "2",')],
                         ids=["true-a_min", "string-a_max"])
def test_coefficient_readers_check_the_window_as_read(tmp_path, grid16, old, new):
    # each dilation-window end takes the positive-finite rule as the header holds it: true is not 1
    path = tmp_path / "u.wcf"
    pg = wc.build_parameter_grid(grid16, "spherical", (0.0, 0.0, 1.0), 0.5, 2.0, 2)
    wc.write_coefficients(path, wc.WaveletCoefficients(
        pg, np.ones((2, 1) + grid16.shape, dtype=complex), "minus", 1.0), c=1.0)
    blob = path.read_bytes()
    assert blob.count(old) == 1
    path.write_bytes(blob.replace(old, new))
    for read in (wc.read_coefficients, wc.open_coefficients):
        with pytest.raises(wc.ValidationError, match="a_min=True|a_max='2'"):
            read(path)


@pytest.mark.parametrize("old, new", [(b'"n_a": 2,', b'"n_a": 2.5,'),
                                      (b'"n_a": 2,', b'"n_a": true,'),
                                      (b'"angle_shape": [3, 2]', b'"angle_shape": [true, 2]'),
                                      (b'"angle_shape": [3, 2]', b'"angle_shape": [3, 2.0]')],
                         ids=["float-n_a", "true-n_a", "true-angle", "float-angle"])
def test_coefficient_readers_take_the_integer_rule_for_counts(tmp_path, grid16, old, new):
    # int() once read 2.5 as 2 and true as 1; the grid builder's integer rule refuses both
    path = tmp_path / "u.wcf"
    pg = wc.build_parameter_grid(grid16, "axial", (1.0, 0.0, 0.0), 0.5, 2.0, 2, 3, 2)
    wc.write_coefficients(path, wc.WaveletCoefficients(
        pg, np.ones((2, 6) + grid16.shape, dtype=complex), "plus", 1.0), c=1.0)
    blob = path.read_bytes()
    assert blob.count(old) == 1
    path.write_bytes(blob.replace(old, new))
    for read in (wc.read_coefficients, wc.open_coefficients):
        with pytest.raises(wc.ValidationError, match="integer node counts"):
            read(path)


@pytest.mark.parametrize("new", [b'"axis": [0.0, 0.0, 0.0]', b'"axis": [NaN, 0.0, 1.0]',
                                 b'"axis": [1e-320, 0.0, 0.0]', b'"axis": [1.0, 0.0]'],
                         ids=["zero", "nan", "underflow", "2-vector"])
def test_coefficient_readers_take_the_axis_rule(tmp_path, grid16, new):
    # the wavelet's axis rule: zero, NaN and underflowing axes once read as the z axis
    path = tmp_path / "u.wcf"
    pg = wc.build_parameter_grid(grid16, "axial", (1.0, 0.0, 0.0), 0.5, 2.0, 2, 3, 2)
    wc.write_coefficients(path, wc.WaveletCoefficients(
        pg, np.ones((2, 6) + grid16.shape, dtype=complex), "plus", 1.0), c=1.0)
    blob = path.read_bytes()
    assert blob.count(b'"axis": [1.0, 0.0, 0.0]') == 1
    path.write_bytes(blob.replace(b'"axis": [1.0, 0.0, 0.0]', new))
    for read in (wc.read_coefficients, wc.open_coefficients):
        with pytest.raises(wc.ValidationError, match="axis"):
            read(path)


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


# ---------------------------------------------------------------------------
# streamed coefficient files
# ---------------------------------------------------------------------------

STREAM_WAVELETS = {
    "spherical": wc.exp_spherical_wavelet(),
    "axial": wc.gaussian_packet(40.0, 1.0, 0.5, 0.5),
    "none": wc.gaussian_packet(40.0, 1.0, 0.5, 0.8),
}


def stream(path, u, wavelet, pg, threads, c=1.0):
    """``analyze`` straight into a new WCF file; returns the payload-backed set."""
    with wc.create_coefficients(path, wavelet, pg, 2.0, c) as payload:
        return wc.analyze(u, wavelet.sign, wavelet, pg, constant=2.0, threads=threads,
                          out=payload)


def random_spectrum(grid, rng, masked):
    values = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    if masked:
        values[rng.random(grid.shape) < 0.8] = 0
    return wc.SpectralField3(grid, values)


@settings(max_examples=30, deadline=None, database=None)
@given(symmetry=st.sampled_from(sorted(STREAM_WAVELETS)),
       n=st.tuples(*[st.sampled_from([8, 10, 12])] * 3), masked=st.booleans(),
       threads=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**16))
def test_streamed_file_equals_the_eager_one(tmp_path_factory, symmetry, n, masked, threads, seed):
    wavelet = STREAM_WAVELETS[symmetry]
    grid = wc.Grid3(*n, 1.0, 1.25, 0.8, origin=(-4.0, -5.0, -3.2))
    pg = wc.make_parameter_grid(grid, wavelet, 0.3, 2.0, 3, 3, 2, 2)
    u = random_spectrum(grid, np.random.default_rng(seed), masked)
    path = tmp_path_factory.mktemp("stream")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cwt.os, "cpu_count", lambda: 3)
        eager = wc.analyze(u, wavelet.sign, wavelet, pg, constant=2.0, threads=threads)
        wc.write_coefficients(path / "eager.wcf", eager, c=1.5)
        stream(path / "streamed.wcf", u, wavelet, pg, threads, c=1.5)
        opened, c = wc.open_coefficients(path / "streamed.wcf")
        from_file = wc.reconstruct_spectrum(opened, wavelet, threads)
        from_memory = wc.reconstruct_spectrum(eager, wavelet, threads)
    assert (path / "streamed.wcf").read_bytes() == (path / "eager.wcf").read_bytes()
    assert c == 1.5 and opened.nu_grid == pg and opened.constant == eager.constant
    assert from_file.values.tobytes() == from_memory.values.tobytes()


@pytest.mark.parametrize("wavelet", ["spherical", "axial"])
@pytest.mark.parametrize("masked", [False, True])
def test_streamed_bytes_at_every_thread_count(tmp_path, monkeypatch, wavelet, masked):
    # 10 dilations on 32^3: blocks of 4, 4 and 2 per rotation
    wavelet = STREAM_WAVELETS[wavelet]
    monkeypatch.setattr(cwt.os, "cpu_count", lambda: 8)
    grid = wc.Grid3.cubic(32, 32.0)
    pg = wc.make_parameter_grid(grid, wavelet, 0.3, 2.0, 10, 2, 1)
    u = (band_limited_spectrum(grid, 0.6, 1.8, 5) if masked
         else random_spectrum(grid, np.random.default_rng(5), False))
    wc.write_coefficients(tmp_path / "eager.wcf",
                          wc.analyze(u, wavelet.sign, wavelet, pg, constant=2.0, threads=1))
    expected = (tmp_path / "eager.wcf").read_bytes()
    for threads in (1, 2, 8):
        stream(tmp_path / f"t{threads}.wcf", u, wavelet, pg, threads)
        assert (tmp_path / f"t{threads}.wcf").read_bytes() == expected


def test_payload_moves_blocks_by_key(tmp_path):
    shape = (5, 3, 4, 3, 2)
    rng = np.random.default_rng(8)
    source = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    path = tmp_path / "raw.bin"
    path.write_bytes(b"head" + bytes(source.nbytes))
    with open(path, "r+b") as fh:
        payload = fileio.Payload(fh.fileno(), 4, shape, path)
        for idx in range(3):
            for lo in (0, 2, 4):
                payload[lo:lo + 2, idx] = source[lo:lo + 2, idx]
        for key in [(slice(1, 4), 2), 3, slice(0, 5), (4, slice(1, 3)), (slice(2, 4), slice(0, 3))]:
            out = np.empty(source[key].shape, dtype=np.complex128)
            assert payload.read(key, out) is out
            assert np.array_equal(out, source[key])
        with pytest.raises(wc.ValidationError, match="C-contiguous"):
            payload.read((slice(0, 2), 0), np.empty((2, 4, 3, 2), dtype=np.complex64))
    assert path.read_bytes() == b"head" + source.astype("<c16").tobytes()
    path.write_bytes(path.read_bytes()[:-16])
    with open(path, "rb") as fh:
        payload = fileio.Payload(fh.fileno(), 4, shape, path)
        with pytest.raises(wc.ValidationError, match="payload ends"):
            payload.read(4, np.empty(shape[1:], dtype=np.complex128))


@pytest.mark.parametrize("damage", ["nan", "truncated"])
def test_damaged_payload_is_refused_when_opened(tmp_path, monkeypatch, grid16, exp_sph,
                                                exp_sph_pgrid, damage):
    u = band_limited_spectrum(grid16, 0.7, 1.6, 6)
    path = tmp_path / "u.wcf"
    stream(path, u, exp_sph, exp_sph_pgrid, 1)
    blob = path.read_bytes()
    if damage == "nan":
        blob = blob[:-8] + np.float64(np.nan).tobytes()
    else:
        blob = blob[:-16]
    path.write_bytes(blob)
    with pytest.raises(wc.ValidationError, match="non-finite" if damage == "nan" else "payload"):
        wc.open_coefficients(path)

    def no_task(*args, **kwargs):
        raise AssertionError("a reconstruct task ran")

    monkeypatch.setattr(synthesis, "_sweep", no_task)
    out = tmp_path / "back.wfld"
    assert cli.dispatch(["synthesize", "--coeffs", str(path), "--t", "0", "--out", str(out)]) == 1
    assert not out.exists()


def test_opened_set_keeps_its_bytes_when_the_path_is_rewritten(tmp_path, grid16, exp_sph,
                                                               exp_sph_pgrid):
    first = wc.analyze(band_limited_spectrum(grid16, 0.7, 1.6, 7), "minus", exp_sph,
                       exp_sph_pgrid, constant=2.0)
    path = tmp_path / "u.wcf"
    wc.write_coefficients(path, first)
    opened, _ = wc.open_coefficients(path)
    second = wc.analyze(band_limited_spectrum(grid16, 0.7, 1.6, 8), "minus", exp_sph,
                        exp_sph_pgrid, constant=2.0)
    wc.write_coefficients(path, second)
    assert np.array_equal(wc.read_coefficients(path)[0].values, second.values)
    assert (wc.reconstruct_spectrum(opened, exp_sph).values.tobytes()
            == wc.reconstruct_spectrum(first, exp_sph).values.tobytes())


def test_whole_array_routes_refuse_an_opened_set(tmp_path, grid16, exp_sph, exp_sph_pgrid):
    u = band_limited_spectrum(grid16, 0.7, 1.6, 9)
    opened = stream(tmp_path / "u.wcf", u, exp_sph, exp_sph_pgrid, 1)
    eager, _ = wc.read_coefficients(tmp_path / "u.wcf")
    assert wc.weighted_pairing(eager, eager).real > 0
    for route in (lambda: wc.weighted_pairing(opened, eager),
                  lambda: wc.isometry_defect(eager, opened, 1.0),
                  lambda: wc.combine_initial_coefficients(opened, eager)):
        with pytest.raises(wc.ValidationError, match="in memory"):
            route()


def test_streamed_set_is_closed_with_its_file(tmp_path, grid16, exp_sph, exp_sph_pgrid):
    written = stream(tmp_path / "u.wcf", band_limited_spectrum(grid16, 0.7, 1.6, 11), exp_sph,
                     exp_sph_pgrid, 1)
    with open(tmp_path / "u.wcf", "rb"):  # may take the closed descriptor's number
        with pytest.raises(OSError):
            wc.reconstruct_spectrum(written, exp_sph)


def test_failed_stream_leaves_no_file(tmp_path, exp_sph, exp_sph_pgrid):
    path = tmp_path / "u.wcf"
    with pytest.raises(RuntimeError, match="task failed"):
        with wc.create_coefficients(path, exp_sph, exp_sph_pgrid, 2.0) as payload:
            payload[0:2, 0] = np.ones((2,) + exp_sph_pgrid.field_grid.shape)
            assert path.exists()
            raise RuntimeError("task failed")
    assert not path.exists()


def test_writers_replace_only_regular_files(tmp_path, grid16):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    with pytest.raises(wc.ValidationError, match="not a regular file"):
        wc.write_field(fifo, wc.ComplexField3(grid16, np.ones(grid16.shape, dtype=complex)))
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def counted_reads(monkeypatch):
    """Every key ``Payload.read`` is called with from now on, in call order."""
    keys = []
    read = fileio.Payload.read

    def counting(self, key, out):
        keys.append(key)
        return read(self, key, out)

    monkeypatch.setattr(fileio.Payload, "read", counting)
    return keys


def test_streamed_analyze_reads_nothing_back(tmp_path, monkeypatch, grid16, exp_sph,
                                             exp_sph_pgrid):
    # every task checks its slab before storing it, so the returned set is not scanned
    u = band_limited_spectrum(grid16, 0.7, 1.6, 12)
    reads = counted_reads(monkeypatch)
    stream(tmp_path / "u.wcf", u, exp_sph, exp_sph_pgrid, 2)
    assert reads == []
    wc.write_coefficients(tmp_path / "eager.wcf",
                          wc.analyze(u, exp_sph.sign, exp_sph, exp_sph_pgrid, constant=2.0))
    assert (tmp_path / "u.wcf").read_bytes() == (tmp_path / "eager.wcf").read_bytes()


def test_non_finite_slab_leaves_no_file(tmp_path, grid16, packet):
    pg = wc.make_parameter_grid(grid16, packet, 0.3, 2.0, 8, 2, 2)

    def spectral(kx, ky, kz):
        values = np.array(packet.spectral(kx, ky, kz))
        values[-1, -1] = np.nan
        return values

    broken = dataclasses.replace(packet, spectral=spectral)
    path = tmp_path / "u.wcf"
    with pytest.raises(wc.ValidationError, match="non-finite"):
        stream(path, band_limited_spectrum(grid16, 0.6, 1.8, 13), broken, pg, 2)
    assert not path.exists()


def test_cross_reconstruction_reads_only_its_task_blocks(tmp_path, monkeypatch, grid16, exp_sph,
                                                         exp_sph_pgrid):
    u = band_limited_spectrum(grid16, 0.7, 1.6, 14)
    path = tmp_path / "u.wcf"
    stream(path, u, exp_sph, exp_sph_pgrid, 1)
    eager, _ = wc.read_coefficients(path)
    opened, _ = wc.open_coefficients(path)
    reads = counted_reads(monkeypatch)
    got = wc.reconstruct_cross(opened, exp_sph, 2.0, 0.5, threads=2)
    tasks = cwt._slice_tasks(exp_sph_pgrid, grid16.node_count, _orbits(exp_sph_pgrid)[0])
    assert sorted((rows.start, rows.stop, idx) for rows, idx in reads) == \
        sorted((rows.start, rows.stop, idx) for orbit, rows in tasks for idx in orbit)
    assert got.values.tobytes() == wc.reconstruct(eager, exp_sph, 0.5).values.tobytes()


@pytest.fixture(scope="module")
def small_wcf(tmp_path_factory):
    """A packet WCF on an 8^3 grid (2 x 2 angles, 2 dilations): its bytes and header length."""
    grid = wc.Grid3.cubic(8, 8.0)
    packet = wc.gaussian_packet(40.0, 1.0, 0.5, 0.5)
    pg = wc.make_parameter_grid(grid, packet, 0.3, 2.0, 2, 2, 2)
    path = tmp_path_factory.mktemp("wcf") / "u.wcf"
    wc.write_coefficients(path, wc.analyze(band_limited_spectrum(grid, 0.6, 1.8, 15), "plus",
                                           packet, pg, constant=1.0), c=1.5)
    blob = path.read_bytes()
    return blob, blob.index(b"\x00") + 1


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_flipped_header_bit_is_refused_or_reads_a_consistent_set(tmp_path_factory, small_wcf,
                                                                  data):
    # the header has no checksum: a flipped bit either breaks it, which is refused with a
    # ValidationError, or leaves a header that describes another consistent set (another
    # a_min or c_const, say), which reads; no other exception escapes
    blob, header = small_wcf
    bit = data.draw(st.integers(0, 8 * header - 1), label="bit")
    damaged = bytearray(blob)
    damaged[bit // 8] ^= 1 << (bit % 8)
    path = tmp_path_factory.getbasetemp() / "flipped.wcf"
    path.write_bytes(bytes(damaged))
    payload = np.frombuffer(blob, dtype="<c16", offset=header)
    for read in (wc.read_coefficients, wc.open_coefficients):
        try:
            coeffs, _ = read(path)
        except wc.ValidationError:
            continue
        shape = coeffs.nu_grid.coefficient_shape
        assert coeffs.values.shape == shape and np.prod(shape) == payload.size
        if read is wc.read_coefficients:
            assert coeffs.values.tobytes() == payload.tobytes()
