"""Software lock-in: phase recovery on pilot-carrying traces and the
guard rails around it."""
import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from rhet import (PhaseDriftSpec, demodulate, phase_drift,
                  synth_gaussian_trace)

PILOT = 2500.0  # ~90x detection margin over the thermal envelope noise


def test_cli_import_leaves_scipy_signal_unloaded():
    code = "import sys, rhet.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_scipy_fft_unloaded():
    # rhet analytic and rhet compare run no transform; they start without it
    code = "import sys, rhet.cli; print('scipy.fft' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


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
