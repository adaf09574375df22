"""Software lock-in: phase recovery on pilot-carrying traces and the
guard rails around it."""
import dataclasses
import logging
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from rhet import (PhaseDriftSpec, TimeTrace, demodulate, phase_drift,
                  synth_gaussian_trace)
from rhet.core import TWO_PI
from rhet import lockin
from rhet.lockin import _dft_bins, _smooth_size, _stride

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


def test_stride_is_the_smallest_divisor_that_fits_2_16_points():
    # 2^16 = 65 536; with no fitting divisor under the cap, the largest one
    # under it: 1 for a prime, which is a single rfft of the whole record
    assert _stride(2_500_000) == 40
    assert _stride(10_000_000) == 160
    assert _stride(2_519_424) == 48
    assert _stride(2_499_999) == 191  # 3 x 191 x 4363
    assert _stride(2 * 1_000_003) == 2
    assert _stride(1_000_003) == 1
    assert _stride(720) == 1


def _mirror_bins(q, n):
    """Bins on both sides of each sub-transform's q/2 mirror, with DC and
    Nyquist, all within [0, n/2]."""
    k = [0, 1, n // 2 - 1, n // 2]
    k += [j * q + q // 2 + d for j in range(4) for d in (-1, 0, 1, 2)]
    return np.array([v for v in k if 0 <= v <= n // 2])


@pytest.mark.parametrize("n, size, p", [
    (2_500_000, 2_500_000, None),   # 2^4 5^7: P = 40
    (2_519_424, 2_500_001, None),   # zero-padded, 2^7 3^9: P = 48
    (1_000_003, 1_000_003, None),   # prime: P = 1
    (720, 720, 8), (720, 720, 45), (720, 700, 16), (721, 721, 7),
])
def test_dft_bins_match_the_full_rfft(n, size, p):
    x = np.random.default_rng(n).standard_normal(size) + 3.0
    p = _stride(n) if p is None else p
    full = np.fft.rfft(x, n)
    k = np.concatenate([_mirror_bins(n // p, n),
                        np.linspace(0, n // 2, 301).astype(int)])
    err = np.abs(_dft_bins(x, n, p, k) - full[k])
    assert np.max(err) < 1e-13 * np.max(np.abs(full))
    # bins past n/2, or negative, are the conjugate mirror
    assert np.allclose(_dft_bins(x, n, p, -k), np.conj(full[k]),
                       rtol=0, atol=1e-13 * np.max(np.abs(full)))


def _per_subsequence_bins(x, n, p, k):
    """One rfft per strided copy x[a::p], zero-padded to q = n/p points."""
    q = n // p
    neg = k % q > q // 2
    r = np.where(neg, -k % q, k % q)
    out = np.zeros(k.shape, complex)
    for a in range(p):
        y = np.fft.rfft(x[a::p], q)[r]
        np.conjugate(y, out=y, where=neg)
        out += y * np.exp(-1j * TWO_PI / n * (k * a % n))
    return out


@pytest.mark.parametrize("n, size, p", [
    (2_500_000, 2_500_000, 40),     # 20 blocks of two columns
    (2_519_424, 2_500_001, 48),     # ragged last row of 17 samples
    (720, 700, 16), (720, 700, 45),  # ragged, and an odd column left over
    (720, 720, 45), (721, 721, 7), (1_000_003, 1_000_003, 1),
])
def test_dft_bins_match_the_per_subsequence_loop(n, size, p):
    # the (q, p) view's column blocks against one rfft per strided copy
    x = np.random.default_rng(size).standard_normal(size) + 3.0
    k = np.concatenate([_mirror_bins(n // p, n),
                        np.linspace(-n, n, 301).astype(int)])
    want = _per_subsequence_bins(x, n, p, k)
    got = _dft_bins(x, n, p, k)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    if size == n:  # no ragged row: the same transforms, the same bits
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2_500_000, 2_500_001])
def test_demodulate_is_within_1e_15_rad_of_the_2_18_stride(monkeypatch, n):
    # against one rfft per strided copy at the stride the 2^18 rule gave
    # (10 and 12): the same times, theta within 1e-15 rad
    tr = _pilot_trace(n, 10_000.0, lambda t: phase_drift(t, 0.7, np.pi / 4,
                                                         25.0))
    tr = dataclasses.replace(
        tr, samples=tr.samples + np.random.default_rng(3).normal(0, 30, n))
    ps = demodulate(tr)
    monkeypatch.setattr(lockin, "_dft_bins", _per_subsequence_bins)
    monkeypatch.setattr(lockin, "_stride", lambda n: {2_500_000: 10,
                                                       2_519_424: 12}[n])
    ref = demodulate(tr)
    assert ps.times.tobytes() == ref.times.tobytes()
    assert np.max(np.abs(ps.theta - ref.theta)) <= 1e-15


def _full_rfft_bins(x, n, p, k):
    spec = np.fft.rfft(x, n)
    kk = k % n
    neg = kk > n // 2
    out = spec[np.where(neg, n - kk, kk)]
    out[neg] = np.conj(out[neg])
    return out


@pytest.mark.parametrize("n, beat_hz, phase", [
    (2_500_000, 10_000.0, lambda t: phase_drift(t, 0.7, np.pi / 4, 25.0)),
    (2_500_001, 10_003.3, lambda t: np.full_like(t, -1.1)),
], ids=["sine drift", "off-grid beat, padded"])
def test_demodulate_matches_a_full_rfft_reference(monkeypatch, n, beat_hz,
                                                  phase):
    tr = _pilot_trace(n, beat_hz, phase)
    tr = dataclasses.replace(
        tr, samples=tr.samples + np.random.default_rng(2).normal(0, 30, n))
    ps = demodulate(tr)
    monkeypatch.setattr(lockin, "_dft_bins", _full_rfft_bins)
    ref = demodulate(tr)
    assert ps.times.tobytes() == ref.times.tobytes()
    assert np.max(np.abs(ps.theta - ref.theta)) < 1e-12


def test_demodulate_holds_no_record_length_array():
    # the full rfft alone was 8 bytes per sample, 100 % of the trace's bytes;
    # 2 500 001 samples are zero-padded to 2 519 424
    for n in (2_500_000, 2_500_001):
        tr = _pilot_trace(n, 10_000.0, lambda t: np.full_like(t, 0.3))
        demodulate(tr)
        tracemalloc.start()
        try:
            demodulate(tr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * tr.samples.nbytes


def test_demodulate_logs_its_decisions(caplog):
    caplog.set_level(logging.INFO, logger="rhet.lockin")
    demodulate(_pilot_trace(500_000, 10_000.0, lambda t: np.full_like(t, 0.2)))
    (rec,) = caplog.records
    assert rec.name == "rhet.lockin" and rec.levelno == logging.INFO
    assert rec.getMessage().startswith("lock-in: snr ")
    # ceil(15 ms / 625 us) rounds 24 + 1 ulp up to 25
    assert rec.getMessage().endswith(
        "n_fft 500000, P 8, step 3125, m 160, trim 25")
    caplog.clear()
    # 32 points of 625 us cannot lose 25 at each end
    ps = demodulate(_pilot_trace(100_000, 10_000.0,
                                 lambda t: np.full_like(t, 0.2)))
    assert ps.times[0] == 0.0
    assert [r.levelno for r in caplog.records] == [logging.INFO,
                                                   logging.WARNING]
    assert "edge transients" in caplog.records[1].getMessage()


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


def test_demodulate_names_an_overflowing_trace():
    # finite samples of +-1e300 whose band powers overflow: the error says
    # so, not "envelope only nanx the control band"
    rng = np.random.default_rng(123)
    big = TimeTrace(samples=1e300 * np.sign(rng.standard_normal(20_000)),
                    dt=2e-7, omega_beat=TWO_PI * 1.0e4)
    with pytest.warns(RuntimeWarning), \
            pytest.raises(ValueError, match="spectrum overflows: its band "
                                            "powers are not finite"):
        demodulate(big)


def test_unpadded_record_when_the_pad_exceeds_the_trim(monkeypatch, caplog):
    # 562 908 samples would pad by 13 092 to 576 000 = 2^9 3^2 5^3, 2.6 ms
    # against the 1.5 ms edge trim of a 2 kHz bandwidth: the record is
    # transformed at its own length, and its m = 1804 points are spread
    # over the record itself
    n, bandwidth = 562_908, 2000.0
    assert (_smooth_size(n) - n) * 2e-7 > 3.0 / bandwidth
    phase = lambda t: phase_drift(t, 0.7, np.pi / 4, 25.0)  # noqa: E731
    tr = _pilot_trace(n, 10_003.3, phase)
    caplog.set_level(logging.INFO, logger="rhet.lockin")
    ps = demodulate(tr, bandwidth)
    (rec,) = caplog.records
    assert f"n_fft {n}, P 12, step 312, m 1804," in rec.getMessage()
    assert np.allclose(np.diff(ps.times), n * tr.dt / 1804, rtol=1e-12)
    # against the injected phase, and against the bins of one unpadded
    # rfft of the whole record
    assert np.max(np.abs(ps.theta - phase(ps.times))) < 1e-3
    monkeypatch.setattr(lockin, "_dft_bins", _full_rfft_bins)
    ref = demodulate(tr, bandwidth)
    assert ps.times.tobytes() == ref.times.tobytes()
    assert np.max(np.abs(ps.theta - ref.theta)) < 1e-12


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
