"""Independent verification: Fourier reference solution, discrete wave-operator
residuals and error metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import GridMismatchError, ValidationError
from .fields import ComplexField3, SpectralField3, _pairing, _square, fft3, propagate, split_ivp
from .wavelets import PhysicalWavelet

__all__ = ["ErrorReport", "fourier_ivp", "dalembert_residual", "compare", "spectrum_selfcheck"]


@dataclass(frozen=True)
class ErrorReport:
    rel_l2: float
    max_abs: float

    def __post_init__(self):
        if not (np.isfinite(self.rel_l2) and np.isfinite(self.max_abs)):
            raise ValidationError("error report contains non-finite values")
        if self.rel_l2 < 0 or self.max_abs < 0:
            raise ValidationError("error metrics must be nonnegative")


def _l2(x: np.ndarray) -> float:
    """``sqrt(sum |x|^2)`` without BLAS: ``np.linalg.norm`` wakes its idle-spinning pool."""
    return float(np.sqrt(_pairing(x, x).real))


def fourier_ivp(w: ComplexField3, v: ComplexField3, c: float, t: float) -> ComplexField3:
    """Spectral reference solution of the initial-value problem.

    Splits the data into frequency-sign parts and applies the exact phase
    evolution; ground truth for every synthesis test.
    """
    return propagate(split_ivp(w, v, c), t)


def dalembert_residual(before: ComplexField3, center: ComplexField3, after: ComplexField3,
                       c: float, dt: float) -> ErrorReport:
    """Discrete wave-operator residual from three equally spaced snapshots.

    Second-order central differences in time and space; the norm ratio
    ``|u_tt - c^2 Lap u| / |u_tt|`` is reported over the grid interior,
    excluding two cells per face (grid truncation of non-compact wavelets
    pollutes the edges).  ``c``, ``dt`` and the spacings must be positive
    finite numbers whose squares are too.
    Where ``u_tt`` vanishes on the interior the ratio is 0 if the residual
    vanishes too; otherwise the snapshots are not a solution at any
    tolerance, and :class:`ValidationError` is raised.
    """
    if before.grid != center.grid or center.grid != after.grid:
        raise GridMismatchError("snapshots must share one grid")
    c2, dt2 = _square(c, "wave speed c"), _square(dt, "time step dt")
    g = center.grid
    u = center.values
    utt = (after.values - 2.0 * u + before.values) / dt2
    lap = (
        (np.roll(u, 1, axis=2) - 2.0 * u + np.roll(u, -1, axis=2)) / _square(g.h_x, "spacing h_x")
        + (np.roll(u, 1, axis=1) - 2.0 * u + np.roll(u, -1, axis=1)) / _square(g.h_y, "spacing h_y")
        + (np.roll(u, 1, axis=0) - 2.0 * u + np.roll(u, -1, axis=0)) / _square(g.h_z, "spacing h_z")
    )
    box = utt - c2 * lap
    core = (slice(2, -2),) * 3
    denom = _l2(utt[core])
    max_abs = float(np.max(np.abs(box[core])))
    if denom == 0.0 and max_abs != 0.0:  # no solution, whatever the tolerance
        raise ValidationError("residual: u_tt vanishes on the interior, the wave operator not")
    return ErrorReport(float(_l2(box[core]) / denom) if denom else 0.0, max_abs)


def compare(a: Union[ComplexField3, SpectralField3],
            b: Union[ComplexField3, SpectralField3]) -> ErrorReport:
    """Relative L2 and pointwise gap between two position or two spectral fields on one grid."""
    if a.grid != b.grid:
        raise GridMismatchError("compare requires fields on one grid")
    diff = a.values - b.values
    denom = max(_l2(a.values), _l2(b.values), 1e-300)
    return ErrorReport(float(_l2(diff) / denom), float(np.max(np.abs(diff))))


def spectrum_selfcheck(wavelet: PhysicalWavelet, grid) -> ErrorReport:
    """Transform of t = 0 position samples versus the closed-form spectrum, as :func:`compare`."""
    return compare(fft3(wavelet.position_on_grid(grid, 0.0)), wavelet.spectral_on_grid(grid))
