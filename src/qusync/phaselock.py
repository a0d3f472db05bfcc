"""Phase extraction and phase-locking order parameters.

Oscillating observables are turned into analytic signals with the discrete
Hilbert transform; the asymptotic phase shift and the phase-locking value of
a pair of series are computed from circular statistics of their instantaneous
phase difference over a trailing analysis window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, ifft

from .operators import ValidationError, require_finite, write_csv

__all__ = [
    "TimeSeries",
    "SyncMetrics",
    "analytic_signal",
    "phase_locking",
    "sync_metrics",
    "save_metrics_csv",
]

MIN_SAMPLES = 16
# Fraction of the analysis window dropped at each end before the statistics.
EDGE_TRIM = 0.05


@dataclass(frozen=True)
class TimeSeries:
    """Real observable sampled on a uniform time grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.times.size != self.values.size:
            raise ValidationError("times and values must have equal length")
        require_finite(times=self.times, values=self.values)
        if self.times.size < MIN_SAMPLES:
            raise ValidationError(f"need at least {MIN_SAMPLES} samples")
        dt = np.diff(self.times)
        if dt.min() <= 0 or np.ptp(dt) > 1e-9 * dt[0]:
            raise ValidationError("time grid must be uniform and increasing")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


@dataclass(frozen=True)
class SyncMetrics:
    """Circular-mean phase shift in (-pi, pi] and phase-locking value."""

    delta_phi: float
    plv: float


def analytic_signal(series: TimeSeries) -> np.ndarray:
    """Unwrapped instantaneous phase, one value per sample, of the analytic
    signal of a mean-subtracted series, via the Hilbert transform.

    The construction works in the frequency domain: negative frequencies are
    zeroed, positive ones doubled, DC and Nyquist kept as-is.  A constant
    series carries no phase and raises :class:`ValidationError`.
    """
    return _phase(series.values)


def _phase(values: np.ndarray) -> np.ndarray:
    """:func:`analytic_signal` of samples already checked as a series."""
    x = values - values.mean()
    if np.abs(x).max() == 0.0:
        raise ValidationError("series is constant: no oscillation to extract")
    spec = fft(x)
    spec[1:(x.size + 1) // 2] *= 2.0
    spec[x.size // 2 + 1:] = 0.0
    return np.unwrap(np.angle(ifft(spec)))


def phase_locking(delta_phi: np.ndarray) -> SyncMetrics:
    """Circular statistics of a phase-difference record.

    Returns the argument and modulus of mean(exp(i delta_phi)); the circular
    mean avoids branch-cut artifacts near +-pi, which matters for
    anti-phase-locked pairs.
    """
    z = np.exp(1j * np.asarray(delta_phi, dtype=float)).mean()
    return SyncMetrics(delta_phi=float(np.angle(z)), plv=float(np.abs(z)))


def sync_metrics(
    s1: TimeSeries,
    s2: TimeSeries,
    window_fraction: float = 0.25,
) -> SyncMetrics:
    """Asymptotic phase shift and phase-locking value of two series.

    Both series are restricted to the trailing ``window_fraction`` of their
    common grid, baseline-subtracted (window mean), and Hilbert-transformed;
    ``EDGE_TRIM`` of the window is discarded at each end to suppress
    transform edge artifacts before the circular statistics are taken.  The
    window holds at least ``MIN_SAMPLES`` samples; a constant one raises
    :class:`ValidationError`.
    """
    if not (0.0 < window_fraction <= 1.0):
        raise ValidationError(f"window_fraction must be in (0, 1], got {window_fraction}")
    if s1.times.size != s2.times.size or np.abs(s1.times - s2.times).max() > 1e-9 * s1.dt:
        raise ValidationError("series must share one time grid")
    n = s1.times.size
    n_win = max(int(round(n * window_fraction)), MIN_SAMPLES)
    dphi = _phase(s1.values[n - n_win:]) - _phase(s2.values[n - n_win:])
    trim = int(round(EDGE_TRIM * n_win))
    keep = slice(trim, n_win - trim) if trim > 0 else slice(None)
    return phase_locking(dphi[keep])


def save_metrics_csv(path, columns) -> None:
    """Write the sweep metrics columns xi, gamma, jxy, delta_phi and plv."""
    write_csv(path, ("xi", "gamma", "jxy", "delta_phi", "plv"), columns)
