"""The three workloads: inputs from a seed, one operation, its correctness gate.

Each workload is a closed loop of one operation at a time from one process.
``setup`` builds every input from the seed; ``op`` is the timed operation;
``check`` (untimed) gates the result and hashes its output bytes for the
bit-identity check.  Library calls go through a :mod:`layers` library so
the same code runs plain or traced.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import wavecwt as wc
import wavecwt.cli

from stats import Outcome, judge_cli

BAND = (0.6, 1.8)
PACKET = dict(p=40.0, gamma=1.0, eps1=0.5, eps2=0.5)
# Upper bound on one CLI command; a hung command counts as a failed one.
COMMAND_TIMEOUT_S = 150.0


def package_env() -> dict:
    """This environment without WAVECWT_THREADS, the imported package first on PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k != "WAVECWT_THREADS"}
    src = str(Path(wc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def band_limited(grid, rng) -> "wc.SpectralField3":
    """Random spectrum on the |k| band with a linear taper and no DC (the suite's recipe)."""
    lo, hi = BAND
    kmag = grid.k_mag()
    amp = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    ramp = 0.15 * (hi - lo)
    env = np.clip((kmag - lo) / ramp, 0.0, 1.0) * np.clip((hi - kmag) / ramp, 0.0, 1.0)
    return wc.SpectralField3(grid, amp * env)


def shell_count(grid) -> int:
    """Distinct |k| values on a cubic lattice (integer index norms)."""
    idx = np.rint(np.fft.fftfreq(grid.n_x) * grid.n_x).astype(np.int64)
    iz, iy, ix = np.meshgrid(idx, idx, idx, indexing="ij")
    return int(np.unique(ix**2 + iy**2 + iz**2).size)


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def common_facts(grid, wavelet, n_a, angle_shape, rotations, supports, threads) -> dict:
    slices = n_a * rotations
    nodes = grid.node_count
    shells = shell_count(grid)
    return {
        "grid": list(grid.shape[::-1]),
        "extent": grid.n_x * grid.h_x,
        "wavelet": wavelet.name,
        "symmetry": wavelet.symmetry,
        "n_a": n_a,
        "angle_shape": list(angle_shape),
        "slices": slices,
        "coeff_bytes": slices * nodes * 16,
        "support_share": {k: round(float(np.count_nonzero(v)) / nodes, 6)
                          for k, v in supports.items()},
        "shells": shells,
        "nodes": nodes,
        "shell_share": round(shells / nodes, 6),
        "threads": threads,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def admissible(lib, wavelet) -> float:
    report = lib.admissibility_constant(wavelet, tol=1e-8)
    if not report.converged:
        raise RuntimeError(f"{wavelet.name} is not admissible: {report.divergence_reason}")
    return report.value


class PacketWorkload:
    """Set-up shared by the two library workloads: the packet, its window, one input."""

    spawns_processes = False
    import_probe = "wavecwt"
    stream = 0  # seed stream of the input spectrum

    def setup(self, lib, seed: int, workdir: Path, threads: int):
        self.grid = wc.Grid3.cubic(32, 32.0)
        self.wavelet = wc.gaussian_packet(**PACKET)
        wav = lib.timed(self.wavelet)
        self.constant = admissible(lib, wav)
        self.a_range = wc.suggest_dilation_range(self.wavelet, *BAND)
        self.u = band_limited(self.grid, np.random.default_rng([seed, self.stream]))
        return wav

    def gated(self, value, digest: str, what: str) -> Outcome:
        ok = bool(np.isfinite(value) and value <= self.gate)
        return Outcome(ok, float(value), digest, [] if ok else [f"{what} {value:.3e}"])

    def facts(self, threads: int) -> dict:
        n_a, t1, t2 = self.shape
        return common_facts(self.grid, self.wavelet, n_a, (t1, t2), t1 * t2,
                            {"u": self.u.values}, threads)


class IsometryPacket(PacketWorkload):
    """Streamed isometry at the reference settings of acceptance criterion 4.

    All spectral evaluation, FFT and reduction: no file I/O, no process
    start-up, nothing materialized.  This is the path a resolution kernel
    would replace.
    """

    name = "isometry-packet"
    stream = 1
    shape = (24, 16, 8)
    gate = 2e-2

    def setup(self, lib, seed: int, workdir: Path, threads: int) -> None:
        wav = super().setup(lib, seed, workdir, threads)
        # untimed warm-up: the full slice shape on a 2 x 2 angle grid
        self._pair(lib, wav, (self.shape[0], 2, 2), threads)

    def _pair(self, lib, wav, shape, threads):
        lib.support(self.u.values != 0)
        pg = lib.make_parameter_grid(self.grid, wav, *self.a_range, *shape)
        pair = lib.transform_pairing(self.u, self.u, wav, pg, threads=threads)
        ref = lib.spectral_inner_product(self.u, self.u)
        return pair, abs(pair / (self.constant * pg.constant_factor) - ref) / abs(ref)

    def op(self, lib, threads: int):
        return self._pair(lib, lib.timed(self.wavelet), self.shape, threads)

    def check(self, result) -> Outcome:
        pair, defect = result
        return self.gated(defect, hashlib.sha256(np.complex128(pair).tobytes()).hexdigest(),
                          "defect")


class RoundtripPacket(PacketWorkload):
    """Materialized path: analyze -> WCF write -> WCF read -> reconstruct.

    Angles are cut from 16 x 8 to 12 x 6 so that the write path's copies of
    the 432 MiB coefficient set stay far below the machine's memory.
    """

    name = "roundtrip-packet"
    stream = 2
    shape = (12, 12, 6)
    gate = 5e-2

    def setup(self, lib, seed: int, workdir: Path, threads: int) -> None:
        wav = super().setup(lib, seed, workdir, threads)
        self.path = workdir / "roundtrip.wcf"
        self.pg = lib.make_parameter_grid(self.grid, wav, *self.a_range, *self.shape)
        # untimed warm-up: the full slice shape on a 2 x 2 angle grid
        warm = lib.make_parameter_grid(self.grid, wav, *self.a_range, self.shape[0], 2, 2)
        self._roundtrip(lib, wav, warm, threads)

    def _roundtrip(self, lib, wav, pg, threads):
        lib.support(self.u.values != 0)
        coeffs = lib.analyze(self.u, "plus", wav, pg, constant=self.constant, threads=threads)
        lib.write_coefficients(self.path, coeffs)
        del coeffs
        coeffs, _ = lib.read_coefficients(self.path)
        rec = lib.reconstruct_spectrum(coeffs, wav, threads=threads)
        del coeffs
        err = np.linalg.norm(rec.values - self.u.values) / np.linalg.norm(self.u.values)
        return rec, err

    def op(self, lib, threads: int):
        return self._roundtrip(lib, lib.timed(self.wavelet), self.pg, threads)

    def check(self, result) -> Outcome:
        rec, err = result
        h = hashlib.sha256(sha256_file(self.path).encode())
        h.update(rec.values.tobytes())
        return self.gated(err, h.hexdigest(), "error")


class CliSpherical64:
    """The README pipeline scaled to 64^3, one ``wavecwt`` process at a time.

    The only workload with process start-up, manifest hashing, a ~100 MB WCF
    file, a spherical wavelet, ``solve_ivp`` and a full-support input (the
    Gaussian pulse), which support masking cannot help.
    """

    name = "cli-spherical64"
    spawns_processes = True
    import_probe = "wavecwt.cli"
    n = 64
    n_a = 24
    a_range = ("0.08", "2.5")
    gate = 5e-2
    outputs = ("u.wcf", "u_rec.wfld", "u8.wfld", "u8f.wfld")

    def setup(self, lib, seed: int, workdir: Path, threads: int) -> None:
        self.workdir = workdir
        self.grid = g = wc.Grid3.cubic(self.n, float(self.n))
        rng = np.random.default_rng([seed, 3])
        # README pulse (sigma 2, k0 = (1, 0.3, 0)) with a seeded sub-cell centre offset
        cx, cy, cz = rng.uniform(-0.5, 0.5, size=3) * g.h_x
        X, Y, Z = g.mesh()
        pulse = np.exp(-((X - cx) ** 2 + (Y - cy) ** 2 + (Z - cz) ** 2) / (2.0 * 2.0**2))
        pulse = pulse * np.exp(1j * (1.0 * X + 0.3 * Y))
        w_hat = band_limited(g, rng)
        v_hat = band_limited(g, rng)
        fields = {
            "u.wfld": wc.ComplexField3(g, pulse),
            "w.wfld": wc.ifft3(w_hat),
            "v.wfld": wc.ifft3(v_hat),
        }
        for fname, fld in fields.items():
            lib.write_field(workdir / fname, fld, c=1.0)
        self.supports = {
            "pulse": wc.fft3(fields["u.wfld"]).values != 0,
            "w": w_hat.values != 0,
            "v": v_hat.values != 0,
        }
        self.env = package_env()

    def commands(self, threads: int):
        """(name, argv, support) for the six commands of one operation."""
        t = ["--threads", str(threads)]
        a = ["--a-min", self.a_range[0], "--a-max", self.a_range[1]]
        wv = self.supports["w"] | self.supports["v"]
        return [
            ("analyze", ["analyze", "--input", "u.wfld", "--wavelet", "exp-spherical",
                         "--sign", "plus", *a, "--n-a", str(self.n_a), *t, "--out", "u.wcf"],
             self.supports["pulse"]),
            ("synthesize", ["synthesize", "--coeffs", "u.wcf", "--t", "0", *t,
                            "--out", "u_rec.wfld"], self.supports["pulse"]),
            ("compare-synthesis", ["verify", "compare", "--a", "u.wfld", "--b", "u_rec.wfld",
                                   "--tol", str(self.gate)], None),
            ("ivp-wavelet", ["ivp", "--w", "w.wfld", "--v", "v.wfld", "--t", "8",
                             "--method", "wavelet", *a, "--n-a", str(self.n_a), *t,
                             "--out", "u8.wfld"], wv),
            # the fourier route ignores the dilation window but the parser requires it
            ("ivp-fourier", ["ivp", "--w", "w.wfld", "--v", "v.wfld", "--t", "8",
                             "--method", "fourier", *a, *t, "--out", "u8f.wfld"], None),
            ("compare-ivp", ["verify", "compare", "--a", "u8.wfld", "--b", "u8f.wfld",
                             "--tol", str(self.gate)], None),
        ]

    def op(self, lib, threads: int):
        # outputs of the previous operation must not pass for this one's
        for fname in self.outputs:
            (self.workdir / fname).unlink(missing_ok=True)
        if lib.tracer is not None:
            return self._op_in_process(lib, threads)
        results = []
        for name, argv, _ in self.commands(threads):
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "wavecwt.cli", *argv], cwd=self.workdir,
                    env=self.env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
                )
                rc, out, err = proc.returncode, proc.stdout, proc.stderr
            except subprocess.TimeoutExpired:
                rc, out, err = -1, "", f"timed out after {COMMAND_TIMEOUT_S} s"
            results.append({"name": name, "returncode": rc, "wall": time.perf_counter() - start,
                            "stdout": out, "stderr": err})
        return results

    def _op_in_process(self, lib, threads: int):
        """Traced form: each command through ``wavecwt.cli.dispatch`` in this process."""
        results = []
        here = os.getcwd()
        os.chdir(self.workdir)
        try:
            for name, argv, support in self.commands(threads):
                out, err = io.StringIO(), io.StringIO()
                lib.support(support)
                with redirect_stdout(out), redirect_stderr(err):
                    with lib.tracer.span("cli.dispatch") as rec:
                        rc = wavecwt.cli.dispatch(argv)
                results.append({"name": name, "returncode": rc, "wall": rec.duration,
                                "stdout": out.getvalue(), "stderr": err.getvalue()})
        finally:
            os.chdir(here)
            lib.support(None)
        return results

    def check(self, results) -> Outcome:
        for cmd in results:
            if cmd["name"].startswith("compare") and cmd["returncode"] == 0:
                lines = cmd["stdout"].strip().splitlines()
                try:
                    cmd["report"] = json_line(lines[-1]) if lines else {}
                except ValueError:
                    cmd["report"] = {}
        ok, rel, reasons = judge_cli(results, self.gate)
        h = hashlib.sha256()
        for fname in self.outputs:
            path = self.workdir / fname
            h.update((sha256_file(path) if path.exists() else "missing").encode())
        commands = [{k: cmd[k] for k in ("name", "returncode", "wall")} for cmd in results]
        return Outcome(ok, rel, h.hexdigest(), reasons, commands)

    def facts(self, threads: int) -> dict:
        return common_facts(self.grid, wc.exp_spherical_wavelet(), self.n_a, (), 1,
                            self.supports, threads)


def json_line(text: str) -> dict:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    return obj


WORKLOADS = {w.name: w for w in (IsometryPacket, RoundtripPacket, CliSpherical64)}
