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

Slab access.  A WCF payload is an ``(n_a, n_rotations) + field shape``
array, and a slice route's (rotation, dilation block) task touches only its
own block: one run of ``N * 16`` bytes per dilation, ``n_rotations`` runs
apart (one contiguous run on a spherical grid).  :class:`Payload` wraps an
open WCF at its header offset: ``payload.read(key, out)`` fills ``out`` with
one block by ``os.preadv`` and ``payload[key] = block`` stores one by
``os.pwrite``.  Both release the GIL and use no file position, so every
worker thread does its own I/O.  :func:`create_coefficients` writes a header
and hands out the payload for ``analyze(..., out=payload)`` to store into;
:func:`open_coefficients` returns coefficients backed by the payload, which
:func:`~wavecwt.synthesis.reconstruct_spectrum` reads one task block at a
time; :func:`read_coefficients` reads the payload once into one array.

Writers create a new file.  An existing file at the path (a symlink's
target) is unlinked, never truncated, so a set opened earlier keeps reading
the old bytes, and closing the file does not start the writeback that ext4
gives a file truncated to zero.  A writer checks the free disk space before
it creates the file and removes the file again when it fails.
"""

from __future__ import annotations

import json
import math
import os
import stat
import weakref
from contextlib import contextmanager, suppress
from typing import Optional, Tuple, Union

import numpy as np

from .cwt import ParameterGrid, WaveletCoefficients, _require_memory, build_parameter_grid
from .errors import ValidationError
from .fields import ComplexField3, Grid3, SpectralField3, _positive_finite
from .wavelets import PhysicalWavelet

__all__ = ["Payload", "write_field", "read_field", "write_coefficients", "read_coefficients",
           "open_coefficients", "create_coefficients"]

_MAGIC_DTYPE = "c128le"


# The JSON header line is short; a file without a NUL in its first
# _HEADER_MAX bytes has no header.
_HEADER_MAX = 1 << 16


@contextmanager
def _new_file(path, nbytes: int):
    """Descriptor of a new file of ``nbytes`` at ``path`` (a symlink's target), opened read-write.

    Refused with :class:`ValidationError` before anything is written when the
    disk has less free space or ``path`` names something other than a
    regular file; an existing file is unlinked, not truncated.  The file is
    removed again if the body raises.
    """
    real = os.path.realpath(path)
    disk = os.statvfs(os.path.dirname(real))
    free = disk.f_bavail * disk.f_frsize
    if disk.f_blocks and free < nbytes:  # a file system reporting no blocks is not checked
        raise ValidationError(f"{path}: {nbytes / 2**20:.3g} MiB to write, "
                              f"{free / 2**20:.3g} MiB free on disk")
    with suppress(FileNotFoundError):
        if not stat.S_ISREG(os.stat(real).st_mode):
            raise ValidationError(f"{path}: not a regular file")
        os.unlink(real)
    fd = os.open(real, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        yield fd
    except BaseException:
        with suppress(OSError):
            os.unlink(real)
        raise
    finally:
        os.close(fd)


def _header_bytes(header: dict) -> bytes:
    return json.dumps(header).encode() + b"\n\x00"


def _write(path, header: dict, values: np.ndarray) -> None:
    """Header line, NUL, then the array's own little-endian buffer: no payload copy."""
    head = _header_bytes(header)
    data = np.ascontiguousarray(values, dtype="<c16")
    with _new_file(path, len(head) + data.nbytes) as fd:
        with open(fd, "wb", closefd=False) as fh:
            fh.write(head)
            fh.write(data.data)


class Payload:
    """The ``shape`` complex payload of a WCF file open as ``fd``, ``offset`` bytes in.

    A ``key`` selects dilations, or ``(dilations, rotations)``, each an index
    or a slice with step 1.  ``read(key, out)`` fills the C-contiguous
    little-endian complex array ``out`` with that block and returns it;
    ``payload[key] = block`` stores one.  Whoever opened ``fd`` closes it.
    """

    def __init__(self, fd: int, offset: int, shape: Tuple[int, ...], path):
        self.fd, self.offset, self.shape, self.path = fd, offset, tuple(shape), path
        self.nbytes = 16 * math.prod(self.shape)

    def _runs(self, key):
        """The block's shape and the (file offset, length) of each of its contiguous runs."""
        rows, cols = key if isinstance(key, tuple) else (key, slice(None))
        n_a, n_r = self.shape[:2]
        shape, spans = [], []
        for index, n in ((rows, n_a), (cols, n_r)):
            span = range(n)[index]
            if isinstance(index, slice):
                if span.step != 1:
                    raise ValidationError("payload slices take step 1")
                shape.append(len(span))
            else:
                span = range(span, span + 1)
            spans.append(span)
        a, r = spans
        slab = 16 * math.prod(self.shape[2:])
        if len(r) == n_r:  # whole dilations lie back to back: one run
            return tuple(shape) + self.shape[2:], [(self.offset + a.start * n_r * slab,
                                                    len(a) * n_r * slab)]
        runs = [(self.offset + (i * n_r + r.start) * slab, len(r) * slab) for i in a]
        return tuple(shape) + self.shape[2:], runs

    def _move(self, call, key, block: np.ndarray) -> None:
        shape, runs = self._runs(key)
        if block.shape != shape or block.dtype != np.dtype("<c16") or not block.flags.c_contiguous:
            raise ValidationError(f"payload block {key!r} needs a C-contiguous <c16 array "
                                  f"of shape {shape}")
        view = memoryview(block.reshape(-1).view(np.uint8))
        pos = 0
        for offset, size in runs:
            end = pos + size
            while pos < end:
                moved = call(self.fd, view[pos:end], offset)
                if moved == 0:
                    raise ValidationError(f"{self.path}: payload ends "
                                          f"{offset - self.offset} bytes in")
                pos += moved
                offset += moved

    def read(self, key, out: np.ndarray) -> np.ndarray:
        self._move(lambda fd, view, at: os.preadv(fd, [view], at), key, out)
        return out

    def __setitem__(self, key, block) -> None:
        self._move(os.pwrite, key, np.ascontiguousarray(block, dtype="<c16"))


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


def _check_payload(fh, count: int, path) -> int:
    """The payload's size in bytes, from ``fh``'s position on, checked against the header."""
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if size != 16 * count:
        raise ValidationError(f"{path}: payload holds {size} bytes, expected {16 * count}")
    return size


def _read_payload(fh, count: int, path) -> np.ndarray:
    """``count`` complex samples read straight into one array.

    The payload size is checked against the header and against physical
    memory before the array is allocated.
    """
    size = _check_payload(fh, count, path)
    _require_memory(size, f"payload of {path}")
    values = np.empty(count, dtype="<c16")
    got = fh.readinto(values)
    if got != size:
        raise ValidationError(f"{path}: payload holds {got} bytes, expected {16 * count}")
    return values.astype(np.complex128, copy=False)


def _grid_header(grid: Grid3) -> dict:
    """``n``, ``h`` and ``origin`` of a header: what :func:`_grid_from_header` reads back."""
    return {"n": [grid.n_x, grid.n_y, grid.n_z], "h": [grid.h_x, grid.h_y, grid.h_z],
            "origin": list(grid.origin)}


def _grid_from_header(header: dict, path) -> Grid3:
    """The header's grid: counts and spacings go to :class:`Grid3` as read, which checks them."""
    try:
        (nx, ny, nz), (hx, hy, hz) = header["n"], header["h"]
        origin = tuple(float(v) for v in header["origin"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: bad grid description ({exc})") from exc
    return Grid3(nx, ny, nz, hx, hy, hz, origin)


def write_field(path, field: Union[ComplexField3, SpectralField3],
                c: Optional[float] = None) -> None:
    """Write a position or spectral field as WFLD v1, with wave speed ``c`` if given."""
    if isinstance(field, ComplexField3):
        kind = "position"
    elif isinstance(field, SpectralField3):
        kind = "spectral"
    else:
        raise ValidationError(f"cannot write object of type {type(field)!r}")
    header = {"version": 1, "kind": kind, **_grid_header(field.grid), "dtype": _MAGIC_DTYPE}
    if c is not None:
        header["c"] = _positive_finite(c, "wave speed c")
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
    return field, (_positive_finite(c, f"{path}: wave speed c") if c is not None else None)


def _coefficient_header(nu_grid: ParameterGrid, sign: str, constant: complex, name: str,
                        params, c: float) -> dict:
    return {
        "version": 1,
        "sign": sign,
        "c_const": [float(np.real(constant)), float(np.imag(constant))],
        "c": _positive_finite(c, "wave speed c"),
        "wavelet": {"name": name, "params": dict(params)},
        "nu_grid": dict(nu_grid.describe(), constant_factor=float(nu_grid.constant_factor)),
        "field": _grid_header(nu_grid.field_grid),
        "dtype": _MAGIC_DTYPE,
    }


def write_coefficients(path, coeffs: WaveletCoefficients, c: float = 1.0) -> None:
    """Write wavelet coefficients held in memory as WCF v1."""
    _write(path, _coefficient_header(coeffs.nu_grid, coeffs.sign, coeffs.constant,
                                     coeffs.wavelet_name, coeffs.wavelet_params, c), coeffs.values)


@contextmanager
def create_coefficients(path, wavelet: PhysicalWavelet, nu_grid: ParameterGrid,
                        constant: complex, c: float = 1.0):
    """A new WCF v1 file for ``wavelet``'s coefficients on ``nu_grid``: yields its :class:`Payload`.

    The header is written first; the body stores every block, as
    ``analyze(..., out=payload)`` does, and the file is closed on exit, after
    which the payload refuses every access.  The bytes equal
    :func:`write_coefficients` of the same coefficients.  The free disk
    space is checked before the file is created, and the file is removed
    again if the body raises.
    """
    head = _header_bytes(_coefficient_header(nu_grid, wavelet.sign, constant, wavelet.name,
                                             wavelet.params, c))
    shape = nu_grid.coefficient_shape
    with _new_file(path, len(head) + 16 * math.prod(shape)) as fd:
        os.pwrite(fd, head, 0)
        payload = Payload(fd, len(head), shape, path)
        try:
            yield payload
        finally:
            payload.fd = -1  # the number may be reused once closed: fail with EBADF instead


def _open_coefficients(fh, path):
    """Parse the WCF header of ``fh``: ``(nu_grid, sign, constant, name, params)`` and ``c``.

    ``fh`` is left at the first payload byte.
    """
    header = _read_header(fh, path, "WCF")
    try:
        fg = _grid_from_header(header["field"], path)
        ng = header["nu_grid"]
        shape = list(ng["angle_shape"])  # counts as the header holds them: true is not 1
        grid = build_parameter_grid(
            fg, ng["symmetry"], ng["axis"], ng["a_min"], ng["a_max"], ng["n_a"], *shape,
        )
        re, im = (float(v) for v in header["c_const"])
        sign = header["sign"]
        wav = header.get("wavelet", {})
        name = wav.get("name", "")
        params = tuple(sorted(
            (str(k), float(v) if isinstance(v, (int, float)) else str(v))
            for k, v in wav.get("params", {}).items()
        ))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"{path}: bad WCF header ({exc!r})") from exc
    if list(grid.angle_shape) != shape:
        raise ValidationError(f"{path}: angle shape mismatch after rebuild")
    c = _positive_finite(header.get("c", 1.0), f"{path}: wave speed c")
    return (grid, sign, complex(re, im), name, params), c


def read_coefficients(path) -> Tuple[WaveletCoefficients, float]:
    """Read a WCF v1 file into memory; returns ``(coefficients, wave_speed)``."""
    with open(path, "rb") as fh:
        (grid, *rest), c = _open_coefficients(fh, path)
        values = _read_payload(fh, grid.node_count, path)
    values = values.reshape(grid.coefficient_shape)
    return WaveletCoefficients(grid, values, *rest), c


def open_coefficients(path) -> Tuple[WaveletCoefficients, float]:
    """A WCF v1 file's coefficients backed by its :class:`Payload`, and its wave speed.

    Nothing of the payload is kept in memory: the finiteness scan reads one
    dilation at a time into one buffer, and the routes that accept such a
    set read each task's block when they need it.  The file stays open while
    the payload lives, so a later rewrite of ``path`` does not change it.
    """
    fh = open(path, "rb")
    try:
        (grid, *rest), c = _open_coefficients(fh, path)
        _check_payload(fh, grid.node_count, path)
        payload = Payload(fh.fileno(), fh.tell(), grid.coefficient_shape, path)
        weakref.finalize(payload, fh.close)
        return WaveletCoefficients(grid, payload, *rest), c
    except BaseException:
        fh.close()
        raise
