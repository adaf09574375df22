"""Software lock-in: track the LO phase on the beat note, then feed the
recovered phase back into the filtered estimator.

demodulate() mixes the current down at the beat frequency, low-passes both
quadratures, decimates, and unwraps the angle. It needs a visible beat-note
line (a coherent pilot or a strong carrier leak); with shot noise alone
there is nothing to lock to and it raises.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .core import TWO_PI, PhaseSeries, Spectrum, TimeTrace
from .estimator import rhet_spectrum

# envelope at the beat must beat the control band by this factor
_DETECT_RATIO = 10.0
_CONTROL_OFFSET_HZ = 5.0e3


def demodulate(trace: TimeTrace, omega_beat: Optional[float] = None,
               bandwidth_hz: float = 200.0) -> PhaseSeries:
    """Recover the slowly varying beat-note phase theta_hat(t).

    Mixes with e^{-i Om t}, applies a 4th-order Butterworth low-pass of the
    given bandwidth to both quadratures (zero-phase, forward-backward), and
    decimates to roughly 8 samples per filter time constant. The returned
    series is the unwrapped angle, so theta_hat includes the constant LO
    phase plus drift. The filter's startup transient (a few 1/bandwidth)
    is trimmed from both ends so the first sample is a safe anchor for
    drift correction.

    Raises ValueError("beat note not detected") when the beat-band envelope
    does not exceed a control band (offset by 5 kHz) by 10x in RMS.
    """
    # scipy.signal costs about a second to import; only the lock-in needs it
    from scipy.signal import butter, filtfilt

    om = trace.omega_beat if omega_beat is None else float(omega_beat)
    fs = 1.0 / trace.dt
    if not (0 < bandwidth_hz < om / TWO_PI / 4.0):
        raise ValueError("bandwidth must be positive and well below the beat frequency")
    t = trace.times()
    b, a = butter(4, bandwidth_hz / (0.5 * fs))

    def _baseband(freq):
        mix = 2.0 * trace.samples * np.exp(-1j * freq * t)
        return filtfilt(b, a, mix.real) + 1j * filtfilt(b, a, mix.imag)

    z = _baseband(om)
    zc = _baseband(om + TWO_PI * _CONTROL_OFFSET_HZ)
    # judge detection on the interior: the zero-phase filter's startup
    # transient leaks the (possibly huge) pilot into the control band
    i0 = int(np.ceil(3.0 * fs / bandwidth_hz))
    core = slice(i0, z.size - i0) if 2 * i0 < z.size // 2 else slice(None)
    snr = np.sqrt(np.mean(np.abs(z[core]) ** 2) / np.mean(np.abs(zc[core]) ** 2))
    if snr < _DETECT_RATIO:
        raise ValueError(
            f"beat note not detected: envelope only {snr:.2f}x the control "
            f"band (need {_DETECT_RATIO:.0f}x); add a pilot tone or check "
            f"omega_beat")
    step = max(1, int(round(fs / (8.0 * bandwidth_hz))))
    theta = np.unwrap(np.angle(z[::step]))
    times = t[::step]
    # drop the zero-phase filter's edge transients (~3/bandwidth each side)
    trim = int(np.ceil(3.0 / bandwidth_hz / (step * trace.dt)))
    if theta.size - 2 * trim >= 8:
        theta = theta[trim:theta.size - trim]
        times = times[trim:times.size - trim]
    return PhaseSeries(times=times, theta=theta)


def correct_and_estimate(trace: TimeTrace, theta_series: Optional[PhaseSeries],
                         epsilon: float, theta: float, variant: str = "tbar",
                         **opts) -> Spectrum:
    """Drift-corrected filtered spectrum.

    theta_series is the demodulated LO phase (None runs demodulate() with
    defaults). The filter's dynamic offset is set to -2 times the phase
    excursion, which keeps the beat-synchronous correlation coherent; the
    constant part of theta_series is left to the caller's theta parameter,
    so theta keeps the same meaning as in rhet_spectrum. Remaining keyword
    options pass through to rhet_spectrum.
    """
    if theta_series is None:
        theta_series = demodulate(trace)
    return rhet_spectrum(trace, epsilon, theta, variant=variant,
                         phase_correction=theta_series, **opts)
