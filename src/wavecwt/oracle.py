"""Independent verification: Fourier reference solution, discrete wave-operator
residuals and error metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ValidationError
from .fields import ComplexField3, _pairing, fft3, propagate, split_ivp
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
    pollutes the edges).
    """
    if before.grid != center.grid or center.grid != after.grid:
        raise GridMismatchError("snapshots must share one grid")
    if not (dt > 0):
        raise ValidationError("dt must be positive")
    g = center.grid
    u = center.values
    utt = (after.values - 2.0 * u + before.values) / dt**2
    lap = (
        (np.roll(u, 1, axis=2) - 2.0 * u + np.roll(u, -1, axis=2)) / g.h_x**2
        + (np.roll(u, 1, axis=1) - 2.0 * u + np.roll(u, -1, axis=1)) / g.h_y**2
        + (np.roll(u, 1, axis=0) - 2.0 * u + np.roll(u, -1, axis=0)) / g.h_z**2
    )
    box = utt - c**2 * lap
    core = (slice(2, -2),) * 3
    denom = _l2(utt[core])
    if denom == 0.0:
        return ErrorReport(0.0, float(np.max(np.abs(box[core]))))
    return ErrorReport(float(_l2(box[core]) / denom), float(np.max(np.abs(box[core]))))


def compare(a: ComplexField3, b: ComplexField3) -> ErrorReport:
    """Relative L2 and pointwise gap between two fields on one grid."""
    if a.grid != b.grid:
        raise GridMismatchError("compare requires fields on one grid")
    diff = a.values - b.values
    denom = max(_l2(a.values), _l2(b.values), 1e-300)
    return ErrorReport(float(_l2(diff) / denom), float(np.max(np.abs(diff))))


def spectrum_selfcheck(wavelet: PhysicalWavelet, grid) -> ErrorReport:
    """Transform of t = 0 position samples versus the closed-form spectrum."""
    sampled = fft3(wavelet.position_on_grid(grid, 0.0))
    closed = wavelet.spectral_on_grid(grid)
    diff = sampled.values - closed.values
    denom = max(_l2(sampled.values), _l2(closed.values), 1e-300)
    return ErrorReport(float(_l2(diff) / denom), float(np.max(np.abs(diff))))
