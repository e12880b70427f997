"""The package functions a workload calls, plain or wrapped in spans.

A workload reaches ``wavecwt`` only through a :class:`Library`.  The plain
library hands out the package's public functions unchanged.  The traced
library wraps each of them in a span named after its layer, and
:func:`patched` rebinds the names that calls inside the package look up
(``numpy.fft.fftn``, ``wavecwt.cwt.admissibility_constant``, the names
imported into ``wavecwt.cli``, ...), restoring them on exit.  Nothing
under ``src/`` changes.

Span names are the layer metric prefixes: ``wavelets.spectral``, ``fft``,
``cwt.grid``, ``cwt.pairing``, ``cwt.analyze``, ``synthesis.reconstruct``,
``synthesis.ivp``, ``admissibility``, ``fileio.write``, ``fileio.read``,
``oracle.fourier_ivp``, ``oracle.compare`` and ``cli.dispatch``.
"""

from __future__ import annotations

import dataclasses
import os
import tracemalloc
from contextlib import contextmanager

import numpy as np

import wavecwt as wc
import wavecwt.cli
import wavecwt.cwt
import wavecwt.fileio

from spans import Tracer

# name -> span name for every library function a workload or the CLI calls
SPAN_OF = {
    "make_parameter_grid": "cwt.grid",
    "build_parameter_grid": "cwt.grid",
    "transform_pairing": "cwt.pairing",
    "analyze": "cwt.analyze",
    "reconstruct_spectrum": "synthesis.reconstruct",
    "reconstruct": "synthesis.reconstruct",
    "solve_ivp": "synthesis.ivp",
    "admissibility_constant": "admissibility",
    "write_coefficients": "fileio.write",
    "write_field": "fileio.write",
    "read_coefficients": "fileio.read",
    "read_field": "fileio.read",
    "fourier_ivp": "oracle.fourier_ivp",
    "compare": "oracle.compare",
}

# names the CLI module imported from the package, rebound while tracing
CLI_NAMES = (
    "make_parameter_grid", "analyze", "reconstruct", "solve_ivp", "admissibility_constant",
    "write_coefficients", "write_field", "read_coefficients", "read_field",
    "fourier_ivp", "compare",
)


class Library:
    """Untraced access: the package's own functions."""

    tracer = None

    def __getattr__(self, name):
        return getattr(wc, name)

    def timed(self, wavelet):
        return wavelet

    def support(self, mask):
        pass


class TracedLibrary(Library):
    """Each package function wrapped in a span; wavelets get a timed ``spectral``."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._cache = {}

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        if name not in self._cache:
            self._cache[name] = self.wrap(name, getattr(wc, name))
        return self._cache[name]

    def support(self, mask):
        self.tracer.support = None if mask is None else np.asarray(mask).ravel()

    def wrap(self, name, fn):
        span = SPAN_OF.get(name)
        if span is None:
            return fn
        if span.startswith("fileio."):
            return self._wrap_io(span, fn)
        if name == "analyze":
            return self.tracer.wrap(span, fn, after=_count_analyze)
        if name == "transform_pairing":
            return self.tracer.wrap(span, fn, after=_count_pairing)
        return self.tracer.wrap(span, fn)

    def _wrap_io(self, span, fn):
        tracer = self.tracer
        writes = span == "fileio.write"

        def wrapped(path, *args, **kwargs):
            tracemalloc.start()
            try:
                with tracer.span(span) as rec:
                    result = fn(path, *args, **kwargs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            rec.counts["bytes"] = os.path.getsize(path)
            rec.counts["max_alloc_peak"] = peak
            rec.counts["writes" if writes else "reads"] = 1
            return result

        return wrapped

    def timed(self, wavelet):
        tracer = self.tracer
        base = wavelet.spectral

        def spectral(kx, ky, kz):
            with tracer.span("wavelets.spectral") as rec:
                out = base(kx, ky, kz)
            rec.counts["points"] = np.size(kx)
            mask = tracer.support
            if mask is not None and np.ndim(kx) >= 1 and np.shape(kx)[-1] == mask.size:
                size = np.size(kx)
                rec.counts["lattice_points"] = size
                rec.counts["useful_points"] = np.count_nonzero(mask) * (size // mask.size)
                rec.counts["nonzero_values"] = np.count_nonzero(out)
            return out

        return dataclasses.replace(wavelet, spectral=spectral)


def _count_analyze(rec, result, args, kwargs):
    g = args[3] if len(args) > 3 else kwargs["nu_grid"]
    rec.counts["slices"] = g.n_a * g.n_rotations
    rec.counts["coeff_bytes"] = result.values.nbytes


def _count_pairing(rec, result, args, kwargs):
    g = args[3] if len(args) > 3 else kwargs["nu_grid"]
    rec.counts["slices"] = g.n_a * g.n_rotations


def _timed_fft(tracer, fn):
    def wrapped(a, *args, **kwargs):
        with tracer.span("fft") as rec:
            out = fn(a, *args, **kwargs)
        rec.counts["points"] = np.size(a)
        return out

    return wrapped


@contextmanager
def patched(lib: TracedLibrary, cli: bool = False):
    """Rebind the names package code looks up, so its internal calls are traced.

    With ``cli`` the names ``wavecwt.cli`` imported are rebound as well, and
    ``wavecwt.cli.make_wavelet`` hands out wavelets with a timed spectrum.
    """
    tracer = lib.tracer
    targets = [
        (np.fft, "fftn", _timed_fft(tracer, np.fft.fftn)),
        (np.fft, "ifftn", _timed_fft(tracer, np.fft.ifftn)),
        (wavecwt.cwt, "admissibility_constant", lib.admissibility_constant),
        (wavecwt.fileio, "build_parameter_grid",
         lib.wrap("build_parameter_grid", wavecwt.fileio.build_parameter_grid)),
    ]
    if cli:
        targets += [(wavecwt.cli, name, getattr(lib, name)) for name in CLI_NAMES]
        make = wavecwt.cli.make_wavelet
        targets.append((wavecwt.cli, "make_wavelet",
                        lambda *a, **k: lib.timed(make(*a, **k))))
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in targets]
    try:
        for mod, name, value in targets:
            setattr(mod, name, value)
        yield
    finally:
        for mod, name, value in saved:
            setattr(mod, name, value)
