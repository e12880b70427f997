"""Command-line interface.

One executable with subcommands::

    catalog        list wavelets and their parameters
    make-field     generate test fields (tones, pulses, wavelet samples)
    admissibility  compute an admissibility constant
    analyze        wavelet-transform a field into a coefficient file
    synthesize     rebuild a field from a coefficient file
    ivp            solve an initial-value problem (wavelet or fourier route)
    verify         residual / compare / isometry checks

All metric output is JSON lines on stdout; errors are one JSON line on
stderr with exit code 1; usage problems exit 2.  Commands that write files
also write ``<output>.manifest.json`` recording arguments, input/output
hashes, wall and CPU time, thread count, peak resident memory and minor
page faults; reruns with identical inputs and thread count produce
identical output hashes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .admissibility import admissibility_constant
from .cwt import (
    _relative_defect,
    _require_constant,
    _require_memory,
    analyze,
    default_thread_count,
    make_parameter_grid,
)
from .errors import ValidationError, WavecwtError
from .fields import ComplexField3, Grid3, fft3, spectral_inner_product
from .fileio import (create_coefficients, open_coefficients, read_coefficients, read_field,
                     write_coefficients, write_field)
from .kernel import transform_pairing
from .oracle import compare, dalembert_residual, fourier_ivp
from .synthesis import reconstruct, solve_ivp
from .wavelets import CATALOG_NAMES, CATALOG_PARAMS, make_wavelet, time_reverse

# The commands stream coefficient files and call neither eager WCF function, but
# both stay module names: perfbench's in-process tracer rebinds them.
__all__ = ["build_parser", "dispatch", "main", "read_coefficients", "write_coefficients"]

_EXIT_OK = 0
_EXIT_DOMAIN = 1


def _emit(obj) -> None:
    """One line of strict JSON on stdout: a non-finite float is written as null."""
    obj = {k: None if isinstance(v, float) and not np.isfinite(v) else v for k, v in obj.items()}
    sys.stdout.write(json.dumps(obj, sort_keys=True, allow_nan=False) + "\n")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _thread_count(text: str) -> int:
    """argparse type of ``--threads``: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"needs an integer >= 1, got {text!r}")
    return value


def _parse_params(pairs):
    """``--param key=value`` pairs as a dict of stripped strings; make_wavelet converts them."""
    params = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValidationError(f"--param expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        params[key.strip()] = value.strip()
    return params


def _write_manifest(out_path, args, inputs, outputs, started, threads):
    usage = resource.getrusage(resource.RUSAGE_SELF)
    manifest = {
        "tool": "wavecwt",
        "version": __version__,
        "command_line": list(sys.argv),
        "parameters": {k: v for k, v in vars(args).items() if k != "func"},
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "wall_time_s": round(time.perf_counter() - started, 6),
        "threads": threads,
        # user + system time of this process so far; above threads * wall means oversubscription
        "cpu_time_s": round(usage.ru_utime + usage.ru_stime, 6),
        # high-water mark of this process so far; Linux reports ru_maxrss in KiB
        "peak_rss_mib": round(usage.ru_maxrss / 1024, 1),
        # pages this process has had mapped in without disk I/O so far
        "minor_faults": usage.ru_minflt,
    }
    Path(str(out_path) + ".manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _grid_from_args(args) -> Grid3:
    ext = args.extent * 3 if len(args.extent) == 1 else args.extent
    if len(ext) != 3:
        raise ValidationError("--extent takes one or three lengths")
    return Grid3.box(args.n, tuple(ext))


def _make_wavelet_from_args(args):
    return make_wavelet(args.wavelet, _parse_params(getattr(args, "param", None)), args.c)


def _parameter_grid_from_args(args, grid, wavelet):
    return make_parameter_grid(
        grid, wavelet, args.a_min, args.a_max, args.n_a,
        args.n_theta1, args.n_theta2, args.n_theta3,
    )


def _signed_wavelet(name, params, c, sign):
    """Catalog wavelet ``name``, time-reversed when its own sign is not ``sign``."""
    wavelet = make_wavelet(name, params, c)
    return wavelet if wavelet.sign == sign else time_reverse(wavelet)


def _spectral_input(args):
    """``--input`` as a spectrum, with its wave speed, ``--sign`` wavelet and parameter grid."""
    field, c_file = read_field(args.input)
    c = args.c if args.c is not None else (c_file or 1.0)
    wavelet = _signed_wavelet(args.wavelet, _parse_params(args.param), c, args.sign)
    spectral = fft3(field) if isinstance(field, ComplexField3) else field
    return spectral, c, wavelet, _parameter_grid_from_args(args, spectral.grid, wavelet)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_catalog(args):
    for name in CATALOG_NAMES:
        _emit({"wavelet": name, "parameters": CATALOG_PARAMS[name]})
    return _EXIT_OK


def _cmd_admissibility(args):
    wavelet = _make_wavelet_from_args(args)
    report = admissibility_constant(wavelet, tol=args.tol)
    _emit({
        "wavelet": args.wavelet,
        "constant": report.value,
        "converged": report.converged,
        "error_estimate": report.error_estimate,
        "divergence_reason": report.divergence_reason,
        "c": args.c,
        "tol": args.tol,
    })
    return _EXIT_OK


def _cmd_make_field(args):
    started = time.perf_counter()
    grid = _grid_from_args(args)
    # three float meshes, the complex values and their temporaries: a tracemalloc peak of
    # 90-147 bytes per node over the kinds, so 160 is refused before anything is allocated
    _require_memory(160 * grid.node_count, "make-field meshes and values")
    X, Y, Z = grid.mesh()
    if args.kind == "tone":
        kx, ky, kz = grid.k_axes()
        ix, iy, iz = args.k_index
        k = (kx[ix % grid.n_x], ky[iy % grid.n_y], kz[iz % grid.n_z])
        values = np.exp(1j * (k[0] * X + k[1] * Y + k[2] * Z))
    elif args.kind == "gaussian":
        cx, cy, cz = args.center
        k0 = args.k0
        r2 = (X - cx) ** 2 + (Y - cy) ** 2 + (Z - cz) ** 2
        values = np.exp(-r2 / (2.0 * args.sigma**2))
        if any(k0):
            values = values * np.exp(1j * (k0[0] * X + k0[1] * Y + k0[2] * Z))
    elif args.kind == "wavelet":
        wavelet = _make_wavelet_from_args(args)
        values = wavelet.position_on_grid(grid, args.t).values
    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown field kind {args.kind!r}")
    write_field(args.out, ComplexField3(grid, values), c=args.c)
    _write_manifest(args.out, args, [], [args.out], started, 1)
    _emit({"written": str(args.out), "kind": args.kind, "n": grid.shape[::-1]})
    return _EXIT_OK


def _cmd_analyze(args):
    started = time.perf_counter()
    threads = args.threads or default_thread_count()
    spectral, c, wavelet, pgrid = _spectral_input(args)
    constant = _require_constant(wavelet, None)
    # each task stores its slab in the file: the coefficients are never held whole
    with create_coefficients(args.out, wavelet, pgrid, constant, c) as payload:
        analyze(spectral, args.sign, wavelet, pgrid, constant=constant, threads=threads,
                out=payload)
    _write_manifest(args.out, args, [args.input], [args.out], started, threads)
    _emit({
        "written": str(args.out),
        "constant": float(np.real(constant)),
        "nodes": pgrid.node_count,
        "sign": args.sign,
    })
    return _EXIT_OK


def _cmd_synthesize(args):
    started = time.perf_counter()
    threads = args.threads or default_thread_count()
    coeffs, c = open_coefficients(args.coeffs)
    name = args.wavelet or coeffs.wavelet_name
    if not name:
        raise ValidationError("coefficient file names no wavelet; pass --wavelet")
    params = _parse_params(args.param) or dict(coeffs.wavelet_params)
    wavelet = _signed_wavelet(name, params, c, coeffs.sign)
    field = reconstruct(coeffs, wavelet, args.t, threads=threads)
    write_field(args.out, field, c=c)
    _write_manifest(args.out, args, [args.coeffs], [args.out], started, threads)
    _emit({"written": str(args.out), "t": args.t})
    return _EXIT_OK


def _cmd_ivp(args):
    started = time.perf_counter()
    threads = args.threads or default_thread_count()
    w_field, c_w = read_field(args.w)
    v_field, _ = read_field(args.v)
    if not isinstance(w_field, ComplexField3) or not isinstance(v_field, ComplexField3):
        raise ValidationError("ivp expects position-space WFLD inputs")
    c = args.c if args.c is not None else (c_w or 1.0)
    if args.method == "fourier":
        out = fourier_ivp(w_field, v_field, c, args.t)
    else:
        params = _parse_params(args.param)
        wav_plus = _signed_wavelet(args.wavelet_plus, params, c, "plus")
        wav_minus = _signed_wavelet(args.wavelet_minus, params, c, "minus")
        pgrid = _parameter_grid_from_args(args, w_field.grid, wav_plus)
        out = solve_ivp(w_field, v_field, wav_plus, wav_minus, pgrid, args.t, threads=threads)
    write_field(args.out, out, c=c)
    _write_manifest(args.out, args, [args.w, args.v], [args.out], started, threads)
    _emit({"written": str(args.out), "method": args.method, "t": args.t})
    return _EXIT_OK


def _cmd_verify(args):
    if not 0 <= args.tol < np.inf:
        raise ValidationError(f"--tol {args.tol} must be finite and nonnegative")
    if args.check == "compare":
        report = compare(read_field(args.a)[0], read_field(args.b)[0])
    elif args.check == "residual":
        snapshots = (read_field(path)[0] for path in (args.minus, args.center, args.plus))
        report = dalembert_residual(*snapshots, args.c, args.dt)
    else:  # isometry
        spectral, _, wavelet, pgrid = _spectral_input(args)
        constant = _require_constant(wavelet, None).real
        pair = transform_pairing(spectral, spectral, wavelet, pgrid,
                                 threads=args.threads or default_thread_count())
        ref = spectral_inner_product(spectral, spectral)
        defect = _relative_defect(pair / (constant * pgrid.constant_factor), ref)
        _emit({
            "check": "isometry",
            "defect": defect,
            "constant": constant,
            "tol": args.tol,
            "pass": defect <= args.tol,
        })
        return _EXIT_OK
    _emit({
        "check": args.check,
        "rel_l2": report.rel_l2,
        "max_abs": report.max_abs,
        "tol": args.tol,
        "pass": report.rel_l2 <= args.tol,
    })
    return _EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_wavelet_options(p, required=True):
    p.add_argument("--wavelet", required=required, help="catalog wavelet name")
    p.add_argument("--param", action="append", default=[], help="wavelet parameter key=value")


def _add_nu_grid_options(p):
    p.add_argument("--a-min", type=float, required=True, dest="a_min")
    p.add_argument("--a-max", type=float, required=True, dest="a_max")
    p.add_argument("--n-a", type=int, default=24, dest="n_a")
    p.add_argument("--n-theta1", type=int, default=16, dest="n_theta1")
    p.add_argument("--n-theta2", type=int, default=8, dest="n_theta2")
    p.add_argument("--n-theta3", type=int, default=8, dest="n_theta3")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wavecwt", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"wavecwt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list catalog wavelets")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("admissibility", help="compute an admissibility constant")
    _add_wavelet_options(p)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--c", type=float, default=1.0)
    p.set_defaults(func=_cmd_admissibility)

    p = sub.add_parser("make-field", help="generate a test field")
    p.add_argument("--kind", choices=("tone", "gaussian", "wavelet"), required=True)
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--extent", type=float, nargs="+", default=[32.0])
    p.add_argument("--k-index", type=int, nargs=3, default=[1, 0, 0], dest="k_index")
    p.add_argument("--center", type=float, nargs=3, default=[0.0, 0.0, 0.0])
    p.add_argument("--sigma", type=float, default=3.0)
    p.add_argument("--k0", type=float, nargs=3, default=[0.0, 0.0, 0.0])
    _add_wavelet_options(p, required=False)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_make_field)

    p = sub.add_parser("analyze", help="wavelet-transform a field")
    p.add_argument("--input", required=True)
    _add_wavelet_options(p)
    _add_nu_grid_options(p)
    p.add_argument("--sign", choices=("plus", "minus"), required=True)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--threads", type=_thread_count, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("synthesize", help="rebuild a field from coefficients")
    p.add_argument("--coeffs", required=True)
    _add_wavelet_options(p, required=False)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--threads", type=_thread_count, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("ivp", help="solve an initial-value problem")
    p.add_argument("--w", required=True, help="initial field WFLD")
    p.add_argument("--v", required=True, help="initial velocity WFLD")
    p.add_argument("--wavelet-plus", dest="wavelet_plus", default="exp-spherical")
    p.add_argument("--wavelet-minus", dest="wavelet_minus", default="exp-spherical")
    p.add_argument("--param", action="append", default=[])
    _add_nu_grid_options(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--method", choices=("wavelet", "fourier"), default="wavelet")
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--threads", type=_thread_count, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ivp)

    p = sub.add_parser("verify", help="verification checks")
    vsub = p.add_subparsers(dest="check", required=True)

    pc = vsub.add_parser("compare")
    pc.add_argument("--a", required=True)
    pc.add_argument("--b", required=True)
    pc.add_argument("--tol", type=float, default=1e-12)
    pc.set_defaults(func=_cmd_verify)

    pr = vsub.add_parser("residual")
    pr.add_argument("--minus", required=True, help="snapshot at t - dt")
    pr.add_argument("--center", required=True, help="snapshot at t")
    pr.add_argument("--plus", required=True, help="snapshot at t + dt")
    pr.add_argument("--dt", type=float, required=True)
    pr.add_argument("--c", type=float, default=1.0)
    pr.add_argument("--tol", type=float, default=1e-2)
    pr.set_defaults(func=_cmd_verify)

    pi = vsub.add_parser("isometry")
    pi.add_argument("--input", required=True)
    _add_wavelet_options(pi)
    _add_nu_grid_options(pi)
    pi.add_argument("--sign", choices=("plus", "minus"), required=True)
    pi.add_argument("--tol", type=float, default=2e-2)
    pi.add_argument("--c", type=float, default=None)
    pi.add_argument("--threads", type=_thread_count, default=None)
    pi.set_defaults(func=_cmd_verify)

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except WavecwtError as exc:
        return _fail(type(exc).__name__, exc)
    except OSError as exc:
        return _fail("OSError", exc)
    except MemoryError as exc:  # numpy's failed allocations included
        return _fail("MemoryError", exc)


def _fail(error: str, exc: BaseException) -> int:
    sys.stderr.write(json.dumps({"error": error, "message": str(exc)}) + "\n")
    return _EXIT_DOMAIN


def main() -> None:
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
