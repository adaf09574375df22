"""Software lock-in: phase recovery on pilot-carrying traces and the
guard rails around it."""
import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from rhet import (PhaseDriftSpec, TimeTrace, demodulate, phase_drift,
                  synth_gaussian_trace)
from rhet.core import TWO_PI
from rhet.lockin import _smooth_size

PILOT = 2500.0  # ~90x detection margin over the thermal envelope noise


def _pilot_trace(n, beat_hz, phase, dt=2e-7):
    """Noise-free pilot PILOT cos(2 pi beat_hz t + phase(t))."""
    t = np.arange(n) * dt
    return TimeTrace(samples=PILOT * np.cos(TWO_PI * beat_hz * t + phase(t)),
                     dt=dt, omega_beat=TWO_PI * beat_hz)


def test_cli_import_leaves_scipy_signal_unloaded():
    code = "import sys, rhet.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_pipeline_runs_with_scipy_blocked():
    # rhet needs numpy alone: synthesis, a tbar spectrum, the lock-in and a
    # drift-corrected map all run where no scipy module can be imported
    code = ("import sys; sys.modules['scipy'] = None; "
            "import numpy as np, rhet; "
            "tr = rhet.synth_gaussian_trace(rhet.default_thermal_config(), "
            "0.05, 2e-7, seed=3, pilot_amplitude=2500.0); "
            "s = rhet.rhet_spectrum(tr, -1.0, 0.3, segments=4); "
            "ps = rhet.demodulate(tr); "
            "m = rhet.theta_map_fast(tr, -1.0, n_theta=4, segments=4, "
            "phase_correction=ps); "
            "print(np.isfinite(s.values).all(), np.isfinite(m.spectra).all(), "
            "[k for k, v in sys.modules.items() if k.startswith('scipy') and v])")
    out = subprocess.run([sys.executable, "-W", "ignore", "-c", code],
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.split() == ["True", "True", "[]"]


def test_demodulate_runs_without_scipy_signal():
    code = ("import sys, numpy as np, rhet; "
            "t = np.arange(200000) * 2e-7; "
            "tr = rhet.TimeTrace(np.cos(2e4 * np.pi * t + 0.3), 2e-7, 2e4 * np.pi); "
            "ps = rhet.demodulate(tr); "
            "print(abs(ps.theta[0] - 0.3) < 1e-3, 'scipy.signal' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["True", "False"]


@pytest.mark.parametrize("phase, bound", [
    (lambda t: np.full_like(t, 0.7), 1e-4),
    (lambda t: phase_drift(t, 0.7, np.pi / 4, 25.0), 1e-3),
], ids=["constant", "sine drift"])
def test_noise_free_pilot_off_the_bin_grid(phase, bound):
    # the beat sits between FFT bins and the decimation step (3125 samples)
    # does not divide n, so neither the bin shift nor the output grid is
    # exact by construction; 2 499 999 = 3 x 191 x 4363 is zero-padded by
    # one sample to 2 500 000 and 2 500 001 by 19 423 to 2 519 424 =
    # 2^7 3^9, a 3.9 ms pad inside the 15 ms edge trim
    for n in (2_499_999, 2_500_001):
        tr = _pilot_trace(n, 10003.3, phase)
        ps = demodulate(tr)
        assert np.max(np.abs(ps.theta - phase(ps.times))) < bound
        assert ps.times[0] >= 3.0 / 200.0
        assert ps.times[-1] <= tr.duration - 3.0 / 200.0


def test_smooth_size_is_the_next_2_3_5_smooth_length():
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    want, k = {}, 1
    for n in range(1, 3000):
        while not smooth(k) or k < n:
            k += 1
        want[n] = k
    assert all(_smooth_size(n) == want[n] for n in want)
    assert _smooth_size(2_499_999) == 2_500_000
    assert _smooth_size(2_500_001) == 2_519_424
    assert _smooth_size(39_062) == 39_366


def test_padded_record_keeps_the_padded_output_grid():
    # 500 001 samples pad to 506 250 (1.25 ms, inside the 15 ms trim); the
    # 162 points of the padded record are 625 us apart, and only those on
    # the record are returned
    tr = _pilot_trace(500_001, 10_000.0, lambda t: np.full_like(t, 0.2))
    ps = demodulate(tr)
    assert np.allclose(np.diff(ps.times), 506_250 * tr.dt / 162, rtol=1e-12)
    assert ps.times[-1] < tr.duration - 3.0 / 200.0
    assert np.max(np.abs(ps.theta - 0.2)) < 1e-3


def test_output_grid_is_the_decimated_sample_grid():
    # 5 MS/s at 8 samples per 1/(200 Hz) is a step of 3125, which divides n
    tr = _pilot_trace(500_000, 10_000.0, lambda t: np.full_like(t, -0.4))
    ps = demodulate(tr)
    idx = ps.times / (3125 * tr.dt)
    assert np.allclose(idx, np.round(idx), rtol=0, atol=1e-9)
    assert np.all(np.diff(np.round(idx)) == 1)
    assert np.max(np.abs(ps.theta + 0.4)) < 1e-3


def test_demodulate_rejects_an_all_zero_trace():
    # the SNR is 0/0 there; NaN must not pass the detection gate
    tr = TimeTrace(samples=np.zeros(200_000), dt=2e-7,
                   omega_beat=TWO_PI * 1.0e4)
    with pytest.raises(ValueError, match="beat note not detected"):
        demodulate(tr)


def test_constant_phase_recovery(thermal_cfg):
    cfg = dataclasses.replace(thermal_cfg, theta0=0.35)
    tr = synth_gaussian_trace(cfg, 0.5, 2e-7, seed=11, pilot_amplitude=PILOT)
    ps = demodulate(tr)
    err = ps.theta - 0.35
    assert abs(ps.theta[0] - 0.35) < 0.05  # first sample is a safe anchor
    assert np.sqrt(np.mean(err ** 2)) < 0.05
    # the filter settling window is trimmed from both ends
    assert ps.times[0] >= 0.01
    assert ps.times[-1] <= tr.duration - 0.01


def test_sine_drift_tracking(thermal_cfg):
    cfg = dataclasses.replace(
        thermal_cfg,
        drift=PhaseDriftSpec(amplitude=np.pi / 4, freq_hz=25.0, kind="sine"))
    tr = synth_gaussian_trace(cfg, 0.5, 2e-7, seed=99, pilot_amplitude=PILOT)
    ps = demodulate(tr)
    true = phase_drift(ps.times, cfg.theta0, np.pi / 4, 25.0)
    assert np.sqrt(np.mean((ps.theta - true) ** 2)) < 0.05
    # the drift actually spans a sizeable range, so this is a real test
    assert np.ptp(ps.theta) > 1.0


def test_walk_drift_recovery(thermal_cfg):
    cfg = dataclasses.replace(
        thermal_cfg, theta0=0.35,
        drift=PhaseDriftSpec(amplitude=0.3, freq_hz=25.0, kind="walk"))
    tr = synth_gaussian_trace(cfg, 1.0, 2e-7, seed=5, pilot_amplitude=PILOT)
    ps = demodulate(tr)
    # the walk starts at theta0 and wanders visibly
    assert abs(ps.theta[0] - 0.35) < 0.06
    assert np.std(ps.theta) > 0.02


def test_demodulate_needs_a_visible_beat_line(thermal_cfg):
    tr = synth_gaussian_trace(thermal_cfg, 0.25, 2e-7, seed=12)
    with pytest.raises(ValueError, match="beat note not detected"):
        demodulate(tr)


def test_demodulate_bandwidth_validation(thermal_cfg):
    tr = synth_gaussian_trace(thermal_cfg, 0.05, 2e-7, seed=3,
                              pilot_amplitude=PILOT)
    with pytest.raises(ValueError):
        demodulate(tr, bandwidth_hz=0.0)
    with pytest.raises(ValueError):
        demodulate(tr, bandwidth_hz=5e3)  # not well below Omega/2pi
    with pytest.raises(ValueError, match="too short"):
        demodulate(dataclasses.replace(tr, samples=tr.samples[:3000]))
