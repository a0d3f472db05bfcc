from dataclasses import replace

import numpy as np
import pytest

from qusync import experiments, lindblad
from qusync import phaselock as pl
from qusync.config import ExperimentConfig
from qusync.operators import ValidationError
from tests.oracles import locked_phase


def sine_series(freq=1.0, phase=0.0, t_max=20 * np.pi, dt=0.01):
    t = np.arange(0.0, t_max, dt)
    return pl.TimeSeries(t, np.sin(freq * t + phase))


def test_time_series_validation():
    with pytest.raises(ValidationError):
        pl.TimeSeries(np.arange(8), np.zeros(8))  # too short
    with pytest.raises(ValidationError):
        pl.TimeSeries(np.array([0, 1, 2, 4.0] * 5), np.zeros(20))  # non-uniform
    with pytest.raises(ValidationError):
        pl.TimeSeries(np.arange(20), np.zeros(19))


def test_analytic_signal_cosine_phase_slope():
    t = np.arange(0.0, 20 * np.pi, 0.01)
    phase = pl.analytic_signal(pl.TimeSeries(t, np.cos(t)))
    n = t.size
    sl = slice(int(0.05 * n), int(0.95 * n))
    slope = np.polyfit(t[sl], phase[sl], 1)[0]
    assert slope == pytest.approx(1.0, rel=0.01)


def test_analytic_signal_known_frequency():
    t = np.arange(0.0, 20 * np.pi, 0.01)
    phase = pl.analytic_signal(pl.TimeSeries(t, np.sin(2.0 * t)))
    n = t.size
    sl = slice(int(0.05 * n), int(0.95 * n))
    slope = np.polyfit(t[sl], phase[sl], 1)[0]
    assert slope == pytest.approx(2.0, rel=0.01)


@pytest.mark.parametrize("n", [4999, 5000])
def test_analytic_signal_matches_scipy_fft(n):
    from scipy.fft import fft, ifft

    rng = np.random.default_rng(n)
    t = np.arange(n) * 0.01
    x = np.sin(1.3 * t) + 0.3 * np.cos(2.1 * t) + 0.1 * rng.standard_normal(n)
    spec = fft(x - x.mean())
    spec[1:(n + 1) // 2] *= 2.0
    spec[n // 2 + 1:] = 0.0
    z = ifft(spec)
    got = pl.analytic_signal(pl.TimeSeries(t, x))
    assert np.abs(got - np.unwrap(np.angle(z))).max() <= 1e-12


def test_analytic_signal_constant_rejected():
    t = np.arange(0.0, 1.0, 0.01)
    with pytest.raises(ValidationError):
        pl.analytic_signal(pl.TimeSeries(t, np.full(t.size, 3.7)))


def test_analytic_signal_phase_continuity():
    phase = pl.analytic_signal(sine_series())
    assert np.abs(np.diff(phase)).max() < np.pi


def test_identical_signals_lock_at_zero():
    s = sine_series()
    m = pl.sync_metrics(s, s)
    assert abs(m.delta_phi) < 1e-6
    assert m.plv == pytest.approx(1.0, abs=1e-6)


def test_antiphase_signals():
    s1 = sine_series()
    s2 = pl.TimeSeries(s1.times, -s1.values)
    m = pl.sync_metrics(s1, s2)
    assert abs(abs(m.delta_phi) - np.pi) < 1e-3
    assert m.plv > 0.999


def test_random_phases_give_low_plv():
    rng = np.random.default_rng(101)
    m = pl.phase_locking(rng.uniform(-np.pi, np.pi, 10_000))
    assert m.plv < 0.1


def test_noise_signal_gives_low_plv():
    rng = np.random.default_rng(7)
    s1 = sine_series(t_max=200.0)
    s2 = pl.TimeSeries(s1.times, rng.standard_normal(s1.times.size))
    m = pl.sync_metrics(s1, s2, window_fraction=1.0)
    assert m.plv < 0.1


def test_plv_invariant_under_offset_and_scale():
    s1 = sine_series()
    damped = np.exp(-0.05 * s1.times) * np.sin(s1.times + 0.4)
    s2 = pl.TimeSeries(s1.times, damped)
    base = pl.sync_metrics(s1, s2)
    shifted = pl.sync_metrics(
        s1, pl.TimeSeries(s1.times, 3.0 * damped + 11.0))
    assert abs(shifted.plv - base.plv) < 1e-9
    assert abs(shifted.delta_phi - base.delta_phi) < 1e-9


def test_quarter_period_delay_shifts_phase():
    s1 = sine_series()
    s2 = pl.TimeSeries(s1.times, np.sin(s1.times - np.pi / 2.0))
    m = pl.sync_metrics(s1, s2)
    assert m.delta_phi == pytest.approx(np.pi / 2.0, abs=1e-2)


def test_constant_offset_recovered_exactly():
    # period-aligned window, so the transform is free of edge leakage and
    # only the circular-mean arithmetic is under test
    offset = 0.7
    t = np.arange(0, 4000) * (2.0 * np.pi / 100.0)
    s1 = pl.TimeSeries(t, np.sin(t + offset))
    s2 = pl.TimeSeries(t, np.sin(t))
    m = pl.sync_metrics(s1, s2)
    assert m.delta_phi == pytest.approx(offset, abs=1e-6)
    assert m.plv == pytest.approx(1.0, abs=1e-6)


def test_metric_ranges():
    rng = np.random.default_rng(13)
    t = np.arange(0.0, 50.0, 0.01)
    for _ in range(5):
        v1 = np.sin(t * rng.uniform(0.5, 2.0)) + 0.1 * rng.standard_normal(t.size)
        v2 = np.sin(t * rng.uniform(0.5, 2.0)) + 0.1 * rng.standard_normal(t.size)
        m = pl.sync_metrics(pl.TimeSeries(t, v1), pl.TimeSeries(t, v2))
        assert 0.0 <= m.plv <= 1.0
        assert -np.pi < m.delta_phi <= np.pi


def test_mismatched_grids_rejected():
    s1 = sine_series()
    s2 = pl.TimeSeries(s1.times + 0.5, s1.values)
    with pytest.raises(ValidationError):
        pl.sync_metrics(s1, s2)
    with pytest.raises(ValidationError):
        pl.sync_metrics(s1, s1, window_fraction=0.0)


def test_metrics_csv(tmp_path):
    columns = [(-1.0, 1.0), (0.05, 0.05), (0.25, 0.25), (3.14, 0.0), (0.99, 0.98)]
    path = tmp_path / "m.csv"
    pl.save_metrics_csv(path, columns)
    lines = path.read_text().splitlines()
    assert lines[0] == "xi,gamma,jxy,delta_phi,plv"
    assert lines[1] == "-1,0.050000000000000003,0.25,3.1400000000000001,0.98999999999999999"
    assert len(lines) == 3


def test_locked_phase_matches_liouvillian_spectrum(tmp_path):
    # where the default sync-sweep locks (PLV >= 0.9), its phase shift is the
    # one that the generator's least-damped oscillating mode reaching both
    # qubits predicts: in phase for xi <= -0.3, in antiphase at xi = +1
    cfg = ExperimentConfig(out_dir=str(tmp_path)).validate()
    experiments.cmd_sync_sweep(cfg)
    rows = np.loadtxt(tmp_path / "sync_sweep.csv", delimiter=",", skiprows=1)
    locked = rows[rows[:, 4] >= 0.9]
    assert np.round(locked[:, 0], 6).tolist() == [-1.0, -0.9, -0.8, -0.7, -0.6, -0.5,
                                                  -0.4, -0.3, 1.0]
    predicted = [locked_phase(lindblad.build_liouvillian(replace(cfg.model, xi=xi)))[0]
                 for xi in locked[:, 0]]
    gaps = np.abs(np.angle(np.exp(1j * (locked[:, 3] - predicted))))
    worst = int(np.argmax(gaps))
    print(f"[locked phase] worst gap {gaps[worst]:.4f} rad at xi={locked[worst, 0]:+.2f}, "
          f"{len(locked)} locked points")
    assert gaps.max() < 0.05
