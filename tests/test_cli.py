"""Command-line interface: subcommands, exit codes, determinism, manifests."""

import errno
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import wavecwt as wc
from wavecwt import cli, fileio
from wavecwt.cli import dispatch
from conftest import band_limited_spectrum


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    out_lines = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
    err_lines = [json.loads(line) for line in captured.err.splitlines() if line.strip()]
    return code, out_lines, err_lines


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestBasics:
    def test_catalog_lists_exactly_four(self, capsys):
        code, out, _ = run_cli(capsys, "catalog")
        assert code == 0
        assert [line["wavelet"] for line in out] == [
            "kaiser", "exp-spherical", "bateman", "gaussian-packet",
        ]

    def test_admissibility_exp_spherical(self, capsys):
        code, out, _ = run_cli(capsys, "admissibility", "--wavelet", "exp-spherical",
                               "--c", "1", "--tol", "1e-8")
        assert code == 0
        target = 8 * np.pi**2 * wc.bessel_k(5, 4.0)
        assert out[0]["converged"] is True
        assert abs(out[0]["constant"] - target) <= 1e-6 * target

    def test_admissibility_divergent_kaiser(self, capsys):
        code, out, _ = run_cli(capsys, "admissibility", "--wavelet", "kaiser",
                               "--param", "alpha=1.5")
        assert code == 0
        assert out[0]["converged"] is False
        assert out[0]["divergence_reason"] == "origin"

    def test_domain_error_is_json_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "admissibility", "--wavelet", "no-such-wavelet")
        assert code == 1
        assert not out
        assert err[0]["error"] == "ValidationError"

    def test_extent_takes_one_or_three_lengths(self, capsys, tmp_path):
        out = tmp_path / "box.wfld"
        for extent, grid in ((["16"], wc.Grid3.cubic(16, 16.0)),
                             (["16", "12", "8"], wc.Grid3.box(16, (16.0, 12.0, 8.0)))):
            code, _, _ = run_cli(capsys, "make-field", "--kind", "gaussian", "--n", "16",
                                 "--extent", *extent, "--out", str(out))
            assert code == 0
            assert wc.read_field(out)[0].grid == grid
        code, _, err = run_cli(capsys, "make-field", "--kind", "gaussian", "--n", "16",
                               "--extent", "16", "12", "--out", str(out))
        assert code == 1
        assert err[0]["error"] == "ValidationError"

    def test_missing_file_is_domain_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify", "compare",
                               "--a", str(tmp_path / "nope.wfld"),
                               "--b", str(tmp_path / "nope.wfld"))
        assert code == 1
        assert err and "message" in err[0]

    def test_usage_error_exit_code(self):
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "wavecwt.cli", "definitely-not-a-command"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize("command", [
        ["analyze", "--input", "u.wfld", "--wavelet", "exp-spherical", "--sign", "plus",
         "--a-min", "0.1", "--a-max", "2", "--out", "u.wcf"],
        ["synthesize", "--coeffs", "u.wcf", "--t", "0", "--out", "u.wfld"],
        ["ivp", "--w", "w.wfld", "--v", "v.wfld", "--t", "1", "--a-min", "0.1",
         "--a-max", "2", "--out", "u.wfld"],
        ["verify", "isometry", "--input", "u.wfld", "--wavelet", "exp-spherical",
         "--sign", "plus", "--a-min", "0.1", "--a-max", "2"],
    ])
    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_nonpositive_threads_is_usage_error(self, capsys, command, threads):
        assert dispatch(command + ["--threads", threads]) == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("name, header, command", [
        ("bad.wcf", b'{"version": 1, "dtype": "c128le"}',
         ["synthesize", "--coeffs", "{path}", "--t", "0", "--out", "{out}"]),
        ("bad.wfld", b"[1]", ["verify", "compare", "--a", "{path}", "--b", "{path}"]),
    ])
    def test_malformed_header_is_domain_error(self, capsys, tmp_path, name, header, command):
        path = tmp_path / name
        path.write_bytes(header + b"\n\x00")
        argv = [arg.format(path=path, out=tmp_path / "out.wfld") for arg in command]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert not out
        assert len(err) == 1
        assert err[0]["error"] == "ValidationError"
        assert str(path) in err[0]["message"]


class TestPipelines:
    def test_analyze_synthesize_round_trip(self, capsys, tmp_path):
        field = tmp_path / "u.wfld"
        coeffs = tmp_path / "u.wcf"
        rebuilt = tmp_path / "u_rec.wfld"
        assert dispatch(["make-field", "--kind", "gaussian", "--n", "16", "--extent", "16",
                         "--sigma", "2", "--k0", "1.0", "0.3", "0.0",
                         "--out", str(field)]) == 0
        assert dispatch(["analyze", "--input", str(field), "--wavelet", "exp-spherical",
                         "--sign", "plus", "--a-min", "0.08", "--a-max", "2.5",
                         "--n-a", "16", "--out", str(coeffs)]) == 0
        assert dispatch(["synthesize", "--coeffs", str(coeffs), "--t", "0",
                         "--out", str(rebuilt)]) == 0
        code, out, _ = run_cli(capsys, "verify", "compare", "--a", str(field),
                               "--b", str(rebuilt), "--tol", "0.05")
        assert code == 0
        assert out[-1]["pass"] is True

    def test_ivp_both_methods_agree(self, capsys, tmp_path):
        # end-to-end oracle run at the documented reference settings
        # (grid 32^3, 24 dilation nodes; the default pair is spherical, so
        # the rotation angles drop out)
        w_path = tmp_path / "w.wfld"
        v_path = tmp_path / "v.wfld"
        dispatch(["make-field", "--kind", "gaussian", "--n", "32", "--extent", "32",
                  "--sigma", "2", "--k0", "1.0", "0.0", "0.0", "--out", str(w_path)])
        dispatch(["make-field", "--kind", "gaussian", "--n", "32", "--extent", "32",
                  "--sigma", "2.5", "--k0", "0.8", "0.5", "0.0", "--out", str(v_path)])
        nu = ["--a-min", "0.067", "--a-max", "2.65", "--n-a", "24"]
        out_f = tmp_path / "u_fourier.wfld"
        out_w = tmp_path / "u_wavelet.wfld"
        # the velocity's |V(0)| is 6.4e-2 of its peak: both routes zero that bin and warn
        with pytest.warns(RuntimeWarning, match="k=0 bin"):
            assert dispatch(["ivp", "--w", str(w_path), "--v", str(v_path), "--t", "8.0",
                             "--method", "fourier", "--out", str(out_f)] + nu) == 0
        with pytest.warns(RuntimeWarning, match="k=0 bin"):
            assert dispatch(["ivp", "--w", str(w_path), "--v", str(v_path), "--t", "8.0",
                             "--method", "wavelet", "--out", str(out_w)] + nu) == 0
        code, out, _ = run_cli(capsys, "verify", "compare", "--a", str(out_f),
                               "--b", str(out_w), "--tol", "0.05")
        assert code == 0
        assert out[-1]["pass"] is True

    def test_verify_residual_from_wavelet_snapshots(self, capsys, tmp_path):
        dt = 3.0 / 32 / 2
        names = {}
        for tag, t in (("minus", -dt), ("center", 0.0), ("plus", dt)):
            path = tmp_path / f"snap_{tag}.wfld"
            names[tag] = str(path)
            assert dispatch(["make-field", "--kind", "wavelet", "--wavelet",
                             "gaussian-packet", "--param", "p=40", "--param", "gamma=1",
                             "--param", "eps1=0.5", "--param", "eps2=0.5",
                             "--n", "32", "--extent", "3", "1.5", "1.5",
                             "--t", str(t), "--out", str(path)]) == 0
        code, out, _ = run_cli(capsys, "verify", "residual", "--minus", names["minus"],
                               "--center", names["center"], "--plus", names["plus"],
                               "--dt", str(dt), "--c", "1.0", "--tol", "0.2")
        assert code == 0
        assert out[-1]["pass"] is True

    def test_verify_isometry(self, capsys, tmp_path):
        field = tmp_path / "u.wfld"
        dispatch(["make-field", "--kind", "gaussian", "--n", "16", "--extent", "16",
                  "--sigma", "2", "--k0", "1.0", "0.3", "0.0", "--out", str(field)])
        code, out, _ = run_cli(capsys, "verify", "isometry", "--input", str(field),
                               "--wavelet", "exp-spherical", "--sign", "plus",
                               "--a-min", "0.08", "--a-max", "2.5", "--n-a", "20",
                               "--tol", "0.02")
        assert code == 0
        assert out[-1]["pass"] is True


class TestOptionsMatchTheLibrary:
    """Options no pipeline passes write the bytes of the library calls they name."""

    @pytest.fixture
    def fields(self, tmp_path):
        grid = wc.Grid3.cubic(16, 16.0)
        paths = (tmp_path / "w.wfld", tmp_path / "v.wfld")
        for path, seed in zip(paths, (61, 62)):  # no k = 0 mass: no warning
            wc.write_field(path, wc.ifft3(band_limited_spectrum(grid, 0.7, 1.6, seed)), c=1.0)
        return paths

    @staticmethod
    def nu_options(lo, hi, n_a, n_theta1, n_theta2, n_theta3=8):
        return ["--a-min", repr(lo), "--a-max", repr(hi), "--n-a", str(n_a),
                "--n-theta1", str(n_theta1), "--n-theta2", str(n_theta2),
                "--n-theta3", str(n_theta3)]

    def test_ivp_wavelet_pair(self, tmp_path, fields, packet):
        w_path, v_path = fields
        lo, hi = wc.suggest_dilation_range(packet, 0.7, 1.6)
        out = tmp_path / "u.wfld"
        assert dispatch(["ivp", "--w", str(w_path), "--v", str(v_path), "--t", "2.5",
                         "--wavelet-plus", "gaussian-packet",
                         "--wavelet-minus", "gaussian-packet", "--param", "p=40",
                         *self.nu_options(lo, hi, 6, 4, 2), "--threads", "1",
                         "--out", str(out)]) == 0
        w, v = (wc.read_field(path)[0] for path in fields)
        pg = wc.make_parameter_grid(w.grid, packet, lo, hi, 6, 4, 2)
        wc.write_field(tmp_path / "lib.wfld", wc.solve_ivp(
            w, v, packet, wc.time_reverse(packet), pg, 2.5, threads=1), c=1.0)
        assert out.read_bytes() == (tmp_path / "lib.wfld").read_bytes()

    def test_analyze_third_angle(self, tmp_path, fields):
        bateman = wc.make_wavelet("bateman", {"eps1": 0.5, "eps2": 0.8})
        assert bateman.symmetry == "none"
        lo, hi = wc.suggest_dilation_range(bateman, 0.7, 1.6)
        out = tmp_path / "u.wcf"
        assert dispatch(["analyze", "--input", str(fields[0]), "--wavelet", "bateman",
                         "--param", "eps1=0.5", "--param", "eps2=0.8", "--sign", bateman.sign,
                         *self.nu_options(lo, hi, 4, 4, 2, 3), "--threads", "1",
                         "--out", str(out)]) == 0
        spectral = wc.fft3(wc.read_field(fields[0])[0])
        pg = wc.make_parameter_grid(spectral.grid, bateman, lo, hi, 4, 4, 2, 3)
        assert pg.angle_shape == (4, 2, 3)
        wc.write_coefficients(tmp_path / "lib.wcf", wc.analyze(
            spectral, bateman.sign, bateman, pg, threads=1), c=1.0)
        assert out.read_bytes() == (tmp_path / "lib.wcf").read_bytes()

    def test_synthesize_with_another_wavelet(self, tmp_path, fields, packet):
        lo, hi = wc.suggest_dilation_range(packet, 0.7, 1.6)
        coeffs = tmp_path / "u.wcf"
        assert dispatch(["analyze", "--input", str(fields[0]), "--wavelet", "gaussian-packet",
                         "--sign", "plus", *self.nu_options(lo, hi, 4, 4, 2),
                         "--threads", "1", "--out", str(coeffs)]) == 0
        read, c = wc.read_coefficients(coeffs)
        # the header names the packet at p=40, gamma=1 and eps 0.5, as the first two do
        for name, params in (("gaussian-packet", {}), ("gaussian-packet", {"p": 40, "gamma": 1}),
                             ("gaussian-packet", {"p": 30}),
                             ("bateman", {"eps1": 0.5, "eps2": 0.5})):
            options = [f"--param={key}={value}" for key, value in params.items()]
            out = tmp_path / "u.wfld"
            assert dispatch(["synthesize", "--coeffs", str(coeffs), "--t", "0.5",
                             *(["--wavelet", name, *options] if params else []),
                             "--threads", "1", "--out", str(out)]) == 0
            wavelet = wc.make_wavelet(name, params, c)
            wc.write_field(tmp_path / "lib.wfld", wc.reconstruct(read, wavelet, 0.5, threads=1),
                           c=c)
            assert out.read_bytes() == (tmp_path / "lib.wfld").read_bytes()

    @pytest.mark.parametrize("command", [
        ["analyze", "--input", "u.wfld", "--wavelet", "exp-spherical", "--sign", "plus",
         "--a-min", "0.1", "--a-max", "2", "--out", "u.wcf"],
        ["ivp", "--w", "w.wfld", "--v", "v.wfld", "--t", "1", "--a-min", "0.1",
         "--a-max", "2", "--out", "u.wfld"],
    ])
    def test_tol_is_not_an_option(self, capsys, command):
        # the admissibility constant comes at its default tolerance; only verify and
        # admissibility take --tol
        assert dispatch(command + ["--tol", "1e-8"]) == 2
        assert "--tol" in capsys.readouterr().err


class TestDeterminismAndManifest:
    def test_reruns_bit_identical(self, tmp_path):
        hashes = []
        for run in ("one", "two"):
            field = tmp_path / f"{run}.wfld"
            coeffs = tmp_path / f"{run}.wcf"
            dispatch(["make-field", "--kind", "wavelet", "--wavelet", "exp-spherical",
                      "--n", "16", "--extent", "24", "--out", str(field)])
            dispatch(["analyze", "--input", str(field), "--wavelet", "exp-spherical",
                      "--sign", "minus", "--a-min", "0.2", "--a-max", "2.0",
                      "--n-a", "8", "--threads", "2", "--out", str(coeffs)])
            hashes.append((sha(field), sha(coeffs)))
        assert hashes[0] == hashes[1]

    def test_manifest_records_hashes(self, tmp_path):
        field = tmp_path / "u.wfld"
        dispatch(["make-field", "--kind", "tone", "--n", "16", "--extent", "8",
                  "--k-index", "1", "2", "0", "--out", str(field)])
        manifest = json.loads((tmp_path / "u.wfld.manifest.json").read_text())
        assert manifest["outputs"][str(field)] == sha(field)
        assert manifest["tool"] == "wavecwt"
        assert "wall_time_s" in manifest and manifest["threads"] >= 1
        coeffs = tmp_path / "u.wcf"
        assert dispatch(["analyze", "--input", str(field), "--wavelet", "exp-spherical",
                         "--sign", "minus", "--a-min", "0.2", "--a-max", "2.0",
                         "--n-a", "4", "--out", str(coeffs)]) == 0
        manifest = json.loads((tmp_path / "u.wcf.manifest.json").read_text())
        assert manifest["inputs"][str(field)] == hashlib.sha256(field.read_bytes()).hexdigest()
        assert manifest["outputs"][str(coeffs)] == hashlib.sha256(coeffs.read_bytes()).hexdigest()

    def test_manifest_records_peak_memory(self, tmp_path):
        field = tmp_path / "u.wfld"
        dispatch(["make-field", "--kind", "tone", "--n", "16", "--extent", "8",
                  "--k-index", "1", "2", "0", "--out", str(field)])
        manifest = json.loads((tmp_path / "u.wfld.manifest.json").read_text())
        assert isinstance(manifest["peak_rss_mib"], float)
        assert manifest["peak_rss_mib"] > 0
        assert isinstance(manifest["cpu_time_s"], float)
        assert manifest["cpu_time_s"] >= 0
        assert isinstance(manifest["minor_faults"], int)
        assert manifest["minor_faults"] > 0

    def test_manifest_wall_time_survives_a_clock_step(self, tmp_path, monkeypatch):
        # the wall clock steps back an hour on every reading, as after an NTP correction
        readings = iter(range(10**6))
        monkeypatch.setattr(cli.time, "time", lambda: 2e9 - 3600.0 * next(readings))
        field = tmp_path / "u.wfld"
        coeffs = tmp_path / "u.wcf"
        assert dispatch(["make-field", "--kind", "tone", "--n", "16", "--extent", "8",
                         "--k-index", "1", "2", "0", "--out", str(field)]) == 0
        assert dispatch(["analyze", "--input", str(field), "--wavelet", "exp-spherical",
                         "--sign", "minus", "--a-min", "0.2", "--a-max", "2.0",
                         "--n-a", "4", "--out", str(coeffs)]) == 0
        for out in (field, coeffs):
            manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
            assert manifest["wall_time_s"] >= 0


def test_payload_larger_than_physical_memory_is_a_domain_error(capsys, tmp_path, monkeypatch):
    field = tmp_path / "u.wfld"
    coeffs = tmp_path / "u.wcf"
    analyze = ["analyze", "--input", str(field), "--wavelet", "exp-spherical", "--sign", "minus",
               "--a-min", "0.2", "--a-max", "2.0", "--n-a", "4", "--out", str(coeffs)]
    assert dispatch(["make-field", "--kind", "tone", "--n", "16", "--extent", "8",
                     "--out", str(field)]) == 0
    assert dispatch(analyze) == 0  # 256 KiB of coefficients
    capsys.readouterr()
    coeffs.rename(tmp_path / "kept.wcf")
    sysconf = os.sysconf
    machine = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 32}  # 128 KiB, above the 64 KiB field
    monkeypatch.setattr(os, "sysconf", lambda name: machine.get(name) or sysconf(name))
    for argv in (analyze, ["synthesize", "--coeffs", str(tmp_path / "kept.wcf"), "--t", "0",
                           "--out", str(tmp_path / "back.wfld")]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == [] and len(err) == 1
        assert err[0]["error"] == "ValidationError"
        assert "physical memory" in err[0]["message"]
    assert not coeffs.exists() and not (tmp_path / "back.wfld").exists()


class TestBadValuesFailWhereTheyEnter:
    """Each bad value is refused before any work: exit 1, one JSON line, no traceback."""

    @staticmethod
    def fails(capsys, *argv):
        code = dispatch(list(argv))
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and "Traceback" not in captured.err
        (line,) = captured.err.splitlines()
        return json.loads(line)

    @pytest.fixture
    def field(self, capsys, tmp_path):
        path = tmp_path / "u.wfld"
        assert dispatch(["make-field", "--kind", "gaussian", "--n", "16", "--extent", "16",
                         "--k0", "1", "0", "0", "--out", str(path)]) == 0
        capsys.readouterr()
        return str(path)

    def test_header_int_past_the_float_range(self, capsys, field):
        # a 401-digit "c" passes 0 < c < inf as an int, and its float conversion overflows
        blob = Path(field).read_bytes()
        assert blob.count(b'"c": 1.0}') == 1
        Path(field).write_bytes(blob.replace(b'"c": 1.0}', b'"c": 1' + b"0" * 400 + b"}"))
        err = self.fails(capsys, "verify", "compare", "--a", field, "--b", field)
        assert err["error"] == "ValidationError" and "positive finite" in err["message"]

    def test_zero_grid_size(self, capsys, tmp_path):
        out = tmp_path / "u.wfld"
        err = self.fails(capsys, "make-field", "--kind", "gaussian", "--n", "0", "--out", str(out))
        assert err["error"] == "ValidationError" and "n=0" in err["message"]
        assert not out.exists()

    def test_meshes_beyond_physical_memory_are_refused_first(self, capsys, monkeypatch,
                                                               tmp_path):
        sysconf = os.sysconf
        machine = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}  # 1 MiB
        monkeypatch.setattr(wc.cwt.os, "sysconf", lambda name: machine.get(name) or sysconf(name))
        out = tmp_path / "u.wfld"
        for kind in ("gaussian", "tone", "wavelet"):
            tracemalloc.start()
            try:
                start, _ = tracemalloc.get_traced_memory()
                err = self.fails(capsys, "make-field", "--kind", kind, "--wavelet", "kaiser",
                                 "--n", "64", "--out", str(out))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert err["error"] == "ValidationError" and "physical memory" in err["message"]
            assert peak - start < 8 * 64**3  # no mesh was allocated
            assert not out.exists()

    def test_non_finite_wave_speed_is_not_written(self, capsys, tmp_path):
        out = tmp_path / "u.wfld"
        err = self.fails(capsys, "make-field", "--kind", "gaussian", "--n", "16", "--c", "nan",
                         "--out", str(out))
        assert err["error"] == "ValidationError" and "wave speed" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("text", [b"-1", b"0", b"NaN", b"Infinity", b"true"])
    def test_bad_wave_speed_in_a_coefficient_file(self, capsys, tmp_path, text):
        grid = wc.Grid3.cubic(16, 16.0)
        pg = wc.build_parameter_grid(grid, "spherical", (0.0, 0.0, 1.0), 0.5, 2.0, 2)
        path, out = tmp_path / "u.wcf", tmp_path / "u.wfld"
        wc.write_coefficients(path, wc.WaveletCoefficients(
            pg, np.ones((2, 1) + grid.shape, dtype=complex), "minus", 1.0, "exp-spherical"),
            c=1.0)
        path.write_bytes(path.read_bytes().replace(b'"c": 1.0', b'"c": ' + text, 1))
        err = self.fails(capsys, "synthesize", "--coeffs", str(path), "--t", "0",
                         "--out", str(out))
        assert err["error"] == "ValidationError" and "wave speed" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("method", ["wavelet", "fourier"])
    def test_infinite_wave_speed_in_ivp(self, capsys, tmp_path, field, method):
        out = tmp_path / "u_t.wfld"
        err = self.fails(capsys, "ivp", "--w", field, "--v", field, "--t", "1", "--c", "inf",
                         "--method", method, "--a-min", "0.2", "--a-max", "2", "--n-a", "4",
                         "--out", str(out))
        assert err["error"] == "ValidationError" and "wave speed" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("dt", ["0.1", "inf"])
    def test_static_snapshots_are_not_a_solution(self, capsys, field, dt):
        # three equal snapshots of a Gaussian: u_tt = 0 while c^2 Lap u is not
        err = self.fails(capsys, "verify", "residual", "--minus", field, "--center", field,
                         "--plus", field, "--dt", dt, "--tol", "1e-12")
        assert err["error"] == "ValidationError"
        assert ("u_tt vanishes" if dt == "0.1" else "time step dt") in err["message"]

    @pytest.mark.parametrize("option, value", [("--dt", "1e200"), ("--c", "1e200")])
    def test_residual_refuses_a_square_past_the_float_range(self, capsys, field, option, value):
        argv = {"--minus": field, "--center": field, "--plus": field, "--dt": "0.1", "--c": "1"}
        argv[option] = value
        err = self.fails(capsys, "verify", "residual",
                         *(item for pair in argv.items() for item in pair))
        assert err["error"] == "ValidationError" and "squared=inf" in err["message"]

    def test_non_finite_tolerance(self, capsys):
        err = self.fails(capsys, "admissibility", "--wavelet", "exp-spherical", "--tol", "nan")
        assert err["error"] == "ValidationError" and "tolerance" in err["message"]

    @pytest.mark.parametrize("option, value, words", [
        ("--n-theta1", "0", "rotation angle"),
        ("--n-theta2", "-2", "rotation angle"),
        ("--a-max", "inf", "a_max < inf"),
    ])
    def test_bad_parameter_grid(self, capsys, tmp_path, monkeypatch, field, option, value, words):
        def no_transform(*args, **kwargs):
            raise AssertionError("the transform ran")

        monkeypatch.setattr(cli, "analyze", no_transform)
        argv = {"--input": field, "--wavelet": "gaussian-packet", "--sign": "plus",
                "--a-min": "0.3", "--a-max": "2", "--n-a": "2", "--n-theta1": "2",
                "--n-theta2": "2", "--out": str(tmp_path / "u.wcf")}
        argv[option] = value
        err = self.fails(capsys, "analyze", *(item for pair in argv.items() for item in pair))
        assert err["error"] == "ValidationError" and words in err["message"]

    @pytest.mark.parametrize("value", ["nan", "-1"])
    @pytest.mark.parametrize("check", ["compare", "residual", "isometry"])
    def test_bad_verify_tolerance(self, capsys, monkeypatch, field, check, value):
        def no_read(*args, **kwargs):
            raise AssertionError("a file was read")

        monkeypatch.setattr(cli, "read_field", no_read)
        argv = {"compare": ["--a", field, "--b", field],
                "residual": ["--minus", field, "--center", field, "--plus", field, "--dt", "0.1"],
                "isometry": ["--input", field, "--wavelet", "exp-spherical", "--sign", "minus",
                             "--a-min", "0.2", "--a-max", "2", "--n-a", "4"]}[check]
        err = self.fails(capsys, "verify", check, *argv, "--tol", value)
        assert err["error"] == "ValidationError" and "--tol" in err["message"]

    def test_inadmissible_isometry_wavelet(self, capsys, monkeypatch, field):
        def no_pairing(*args, **kwargs):
            raise AssertionError("the pairing ran")

        monkeypatch.setattr(cli, "transform_pairing", no_pairing)
        err = self.fails(capsys, "verify", "isometry", "--input", field, "--wavelet", "kaiser",
                         "--param", "alpha=1", "--sign", "minus",
                         "--a-min", "0.2", "--a-max", "2", "--n-a", "4")
        assert err["error"] == "AdmissibilityError" and "origin" in err["message"]

    def test_out_of_memory(self, capsys, monkeypatch, field):
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 18.3 GiB for an array")

        monkeypatch.setattr(cli, "transform_pairing", too_large)
        err = self.fails(capsys, "verify", "isometry", "--input", field,
                         "--wavelet", "exp-spherical", "--sign", "minus",
                         "--a-min", "0.2", "--a-max", "2", "--n-a", "4")
        assert err == {"error": "MemoryError", "message": "Unable to allocate 18.3 GiB for an array"}


class TestStreamedCoefficientFiles:
    """``analyze`` writes and ``synthesize`` reads the WCF one task slab at a time."""

    @pytest.fixture
    def field(self, capsys, tmp_path):
        path = tmp_path / "u.wfld"
        assert dispatch(["make-field", "--kind", "gaussian", "--n", "32", "--extent", "32",
                         "--sigma", "2", "--k0", "1", "0.3", "0", "--out", str(path)]) == 0
        capsys.readouterr()
        return path

    @staticmethod
    def analyze(field, out):
        # 32^3, 24 dilations of a spherical wavelet: a 12 MiB payload
        return ["analyze", "--input", str(field), "--wavelet", "exp-spherical", "--sign", "plus",
                "--a-min", "0.08", "--a-max", "2.5", "--n-a", "24", "--threads", "1",
                "--out", str(out)]

    @staticmethod
    def synthesize(coeffs, out):
        return ["synthesize", "--coeffs", str(coeffs), "--t", "0", "--threads", "1",
                "--out", str(out)]

    @staticmethod
    def in_memory(field):
        spectral = wc.fft3(wc.read_field(field)[0])
        wavelet = wc.time_reverse(wc.exp_spherical_wavelet())
        pg = wc.make_parameter_grid(spectral.grid, wavelet, 0.08, 2.5, 24)
        return spectral, wavelet, pg

    def test_symlinked_out_gets_the_eager_bytes(self, capsys, tmp_path, field):
        spectral, wavelet, pg = self.in_memory(field)
        wc.write_coefficients(tmp_path / "eager.wcf",
                              wc.analyze(spectral, "plus", wavelet, pg, threads=1))
        target = tmp_path / "target.wcf"
        target.write_bytes(b"old contents")
        link = tmp_path / "link.wcf"
        link.symlink_to(target)
        assert dispatch(self.analyze(field, link)) == 0
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_bytes() == (tmp_path / "eager.wcf").read_bytes()

    def test_streams_a_payload_larger_than_physical_memory(self, capsys, tmp_path, monkeypatch,
                                                           field):
        sysconf = os.sysconf
        machine = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2048}  # 8 MiB
        monkeypatch.setattr(os, "sysconf", lambda name: machine.get(name) or sysconf(name))
        coeffs = tmp_path / "u.wcf"
        assert dispatch(self.analyze(field, coeffs)) == 0
        assert coeffs.stat().st_size > 8 << 20
        assert dispatch(self.synthesize(coeffs, tmp_path / "back.wfld")) == 0
        code, out, _ = run_cli(capsys, "verify", "compare", "--a", str(field),
                               "--b", str(tmp_path / "back.wfld"), "--tol", "0.05")
        assert code == 0 and out[-1]["pass"] is True
        spectral, wavelet, pg = self.in_memory(field)
        for call in (lambda: wc.analyze(spectral, "plus", wavelet, pg, threads=1),
                     lambda: wc.read_coefficients(coeffs)):
            with pytest.raises(wc.ValidationError, match="physical memory"):
                call()

    def test_full_disk_is_refused_before_any_write(self, capsys, tmp_path, monkeypatch, field):
        coeffs = tmp_path / "u.wcf"
        coeffs.write_bytes(b"old contents")
        disk = SimpleNamespace(f_blocks=1 << 20, f_bavail=1024, f_frsize=4096)  # 4 MiB free
        monkeypatch.setattr(os, "statvfs", lambda path: disk)
        code, out, err = run_cli(capsys, *self.analyze(field, coeffs))
        assert code == 1 and out == [] and len(err) == 1
        assert err[0]["error"] == "ValidationError" and "free on disk" in err[0]["message"]
        assert coeffs.read_bytes() == b"old contents"

    def test_failed_write_removes_the_partial_file(self, capsys, tmp_path, monkeypatch, field):
        store = fileio.Payload.__setitem__
        stored = []

        def second_store_fails(payload, key, block):
            if stored:
                raise OSError(errno.ENOSPC, "No space left on device")
            stored.append(key)
            store(payload, key, block)

        monkeypatch.setattr(fileio.Payload, "__setitem__", second_store_fails)
        coeffs = tmp_path / "u.wcf"
        code, out, err = run_cli(capsys, *self.analyze(field, coeffs))
        assert code == 1 and out == [] and len(err) == 1
        assert err[0]["error"] == "OSError" and "No space left" in err[0]["message"]
        assert stored and not coeffs.exists()

    def test_commands_hold_a_fraction_of_the_payload(self, capsys, tmp_path, field):
        # a task holds two 2 MiB slabs here (its spectra and its transformed block), so
        # the floor is a third of the payload; holding the set took 1.38 and 1.46 times it
        coeffs = tmp_path / "u.wcf"
        for argv in (self.analyze(field, coeffs), self.synthesize(coeffs, tmp_path / "b.wfld")):
            tracemalloc.start()
            try:
                start, _ = tracemalloc.get_traced_memory()
                assert dispatch(argv) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - start <= 0.5 * (coeffs.stat().st_size)
