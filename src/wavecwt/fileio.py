"""Binary file formats.

WFLD v1 (fields): a JSON header line with keys
``version, kind, n, h, origin, c (optional), dtype`` terminated by a newline
and a NUL byte, followed by the raw samples as little-endian IEEE-754 double
pairs (re, im) in linear order ``(iz*ny + iy)*nx + ix`` (x fastest).

WCF v1 (coefficients): a JSON header describing the parameter grid, the
frequency tag, the synthesis constant and the wavelet, then NUL, then raw
complex doubles ordered a slowest, theta1, theta2, [theta3], then b in WFLD
linear order.

Both formats round-trip bit exactly.  The header, NUL included, must sit in
the first 64 KiB.  Writers send the array's own buffer after the header and
readers fill one array from the file, so neither copies the payload.
"""

from __future__ import annotations

import json
import os
from typing import Optional, Tuple, Union

import numpy as np

from .cwt import WaveletCoefficients, _require_memory, build_parameter_grid
from .errors import ValidationError
from .fields import ComplexField3, Grid3, SpectralField3

__all__ = ["write_field", "read_field", "write_coefficients", "read_coefficients"]

_MAGIC_DTYPE = "c128le"


# The JSON header line is short; a file without a NUL in its first
# _HEADER_MAX bytes has no header.
_HEADER_MAX = 1 << 16


def _write(path, header: dict, values: np.ndarray) -> None:
    """Header line, NUL, then the array's own little-endian buffer: no payload copy."""
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n\x00")
        fh.write(np.ascontiguousarray(values, dtype="<c16").data)


def _read_header(fh, path, what: str) -> dict:
    """Parse the header object and leave ``fh`` at the first payload byte."""
    head = fh.read(_HEADER_MAX)
    sep = head.find(b"\x00")
    if sep < 1 or not head[:sep].endswith(b"\n"):
        raise ValidationError(f"{path}: missing NUL-terminated JSON header")
    try:
        header = json.loads(head[:sep].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"{path}: bad header ({exc})") from exc
    if not isinstance(header, dict):
        raise ValidationError(f"{path}: header is not a JSON object")
    if header.get("version") != 1 or header.get("dtype") != _MAGIC_DTYPE:
        raise ValidationError(f"{path}: unsupported {what} version/dtype")
    fh.seek(sep + 1)
    return header


def _read_payload(fh, count: int, path) -> np.ndarray:
    """``count`` complex samples read straight into one array.

    The payload size is checked against the header and against physical
    memory before the array is allocated.
    """
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if size != 16 * count:
        raise ValidationError(f"{path}: payload holds {size} bytes, expected {16 * count}")
    _require_memory(size, f"payload of {path}")
    values = np.empty(count, dtype="<c16")
    got = fh.readinto(values)
    if got != size:
        raise ValidationError(f"{path}: payload holds {got} bytes, expected {16 * count}")
    return values.astype(np.complex128, copy=False)


def _grid_from_header(header: dict, path) -> Grid3:
    try:
        nx, ny, nz = (int(v) for v in header["n"])
        hx, hy, hz = (float(v) for v in header["h"])
        origin = tuple(float(v) for v in header["origin"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: bad grid description ({exc})") from exc
    return Grid3(nx, ny, nz, hx, hy, hz, origin)


def write_field(path, field: Union[ComplexField3, SpectralField3],
                c: Optional[float] = None) -> None:
    """Write a position or spectral field as WFLD v1, with wave speed ``c`` if given."""
    if c is not None and not (0 < c < np.inf):
        raise ValidationError(f"wave speed c={c} must be positive and finite")
    if isinstance(field, ComplexField3):
        kind = "position"
    elif isinstance(field, SpectralField3):
        kind = "spectral"
    else:
        raise ValidationError(f"cannot write object of type {type(field)!r}")
    g = field.grid
    header = {
        "version": 1,
        "kind": kind,
        "n": [g.n_x, g.n_y, g.n_z],
        "h": [g.h_x, g.h_y, g.h_z],
        "origin": list(g.origin),
        "dtype": _MAGIC_DTYPE,
    }
    if c is not None:
        header["c"] = float(c)
    _write(path, header, field.values)


def read_field(path):
    """Read a WFLD v1 file; returns ``(field, c_or_None)``."""
    with open(path, "rb") as fh:
        header = _read_header(fh, path, "WFLD")
        grid = _grid_from_header(header, path)
        values = _read_payload(fh, grid.node_count, path).reshape(grid.shape)
    kind = header.get("kind")
    if kind == "position":
        field = ComplexField3(grid, values)
    elif kind == "spectral":
        field = SpectralField3(grid, values)
    else:
        raise ValidationError(f"{path}: unknown field kind {kind!r}")
    c = header.get("c")
    if c is not None and not isinstance(c, (int, float)):
        raise ValidationError(f"{path}: wave speed c={c!r} is not a number")
    return field, (float(c) if c is not None else None)


def write_coefficients(path, coeffs: WaveletCoefficients, c: float = 1.0) -> None:
    """Write wavelet coefficients as WCF v1."""
    g = coeffs.nu_grid
    fg = g.field_grid
    header = {
        "version": 1,
        "sign": coeffs.sign,
        "c_const": [float(np.real(coeffs.constant)), float(np.imag(coeffs.constant))],
        "c": float(c),
        "wavelet": {"name": coeffs.wavelet_name, "params": dict(coeffs.wavelet_params)},
        "nu_grid": dict(g.describe(), constant_factor=float(g.constant_factor)),
        "field": {
            "n": [fg.n_x, fg.n_y, fg.n_z],
            "h": [fg.h_x, fg.h_y, fg.h_z],
            "origin": list(fg.origin),
        },
        "dtype": _MAGIC_DTYPE,
    }
    _write(path, header, coeffs.values)


def read_coefficients(path) -> Tuple[WaveletCoefficients, float]:
    """Read a WCF v1 file; returns ``(coefficients, wave_speed)``."""
    with open(path, "rb") as fh:
        header = _read_header(fh, path, "WCF")
        try:
            fg = _grid_from_header(header["field"], path)
            ng = header["nu_grid"]
            shape = [int(v) for v in ng["angle_shape"]]
            thetas = (shape + [8, 8, 8])[:3]
            grid = build_parameter_grid(
                fg, ng["symmetry"], ng["axis"], float(ng["a_min"]), float(ng["a_max"]),
                int(ng["n_a"]), *thetas,
            )
            re, im = (float(v) for v in header["c_const"])
            sign = header["sign"]
            wav = header.get("wavelet", {})
            name = wav.get("name", "")
            params = tuple(sorted(
                (str(k), float(v) if isinstance(v, (int, float)) else str(v))
                for k, v in wav.get("params", {}).items()
            ))
            c = float(header.get("c", 1.0))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ValidationError(f"{path}: bad WCF header ({exc!r})") from exc
        if list(grid.angle_shape) != shape:
            raise ValidationError(f"{path}: angle shape mismatch after rebuild")
        values = _read_payload(fh, grid.n_a * grid.n_rotations * fg.node_count, path)
    values = values.reshape((grid.n_a, grid.n_rotations) + fg.shape)
    coeffs = WaveletCoefficients(grid, values, sign, complex(re, im), name, params)
    return coeffs, c
