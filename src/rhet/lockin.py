"""Software lock-in: track the LO phase on the beat note, then feed the
recovered phase back into the filtered estimator.

demodulate() shifts the beat note to baseband, low-passes it, decimates,
and unwraps the angle from the few DFT bins round the beat and a control
band, making no array the length of the trace. Those bins come from the
record's (q, P) polyphase view, q = N/P <= 2^16 points per column: its
columns are transformed two at a time along axis 0 into one workspace of
about 2 MB, and summed with exact twiddles. It needs a visible beat-note
line (a coherent pilot or a strong carrier leak); with shot noise alone
there is nothing to lock to and it raises.
"""
from __future__ import annotations

import logging
from functools import partial
from typing import Optional

import numpy as np

from .core import TWO_PI, PhaseSeries, Spectrum, TimeTrace, _in_place
from .estimator import _finite, rhet_spectrum

# envelope at the beat must beat the control band by this factor
_DETECT_RATIO = 10.0
_CONTROL_OFFSET_HZ = 5.0e3
_log = logging.getLogger(__name__)


def _stride(n: int) -> int:
    """Least divisor P of n with n/P <= 2^16, else the largest P <= 4096."""
    divs = [p for p in range(1, min(n, 4096) + 1) if n % p == 0]
    return next((p for p in divs if n // p <= 1 << 16), divs[-1])


def _dft_bins(x, n, p, k):
    """Bins k (mod n) of the n-point DFT of x, zero-padded to n, from the
    rffts Y_a of the columns x[a::p] of its (q, p) polyphase view, q = n/p:
    X[k] = sum_a e^{-2 pi i k a/n} Y_a[k mod q], summed in order of a. Two
    columns go through one rfft along axis 0 into one workspace; a padded
    record's ragged last row adds its term to the bins read."""
    q = n // p
    neg = k % q > q // 2
    r = np.where(neg, -k % q, k % q)
    rows, ragged = divmod(x.size, p)
    view = x[:rows * p].reshape(rows, p)
    last = np.exp(-1j * TWO_PI / q * (r * rows % q)) if ragged else None
    rfft = partial(np.fft.rfft, n=q)
    space = np.empty((2, q // 2 + 1), complex)
    out = np.zeros(k.shape, complex)
    for b in range(0, p, 2):
        _in_place(rfft, view[:, b:b + 2], space[:p - b].T, axis=0)
        for a, y in enumerate(space[:p - b][:, r], start=b):
            if a < ragged:
                y += x[rows * p + a] * last
            np.conjugate(y, out=y, where=neg)
            # k a reduced in integers keeps the twiddle exact at any n
            out += y * np.exp(-1j * TWO_PI / n * (k * a % n))
    return out


def _baseband(x, k, n, k_per_rad, omega, bandwidth_hz):
    """Per row, m evenly spaced samples over the record of the low-passed
    complex baseband 2 x(t) e^{-i omega t}, from x = the DFT bins k.

    k are the m bins centred on the bin k0 nearest omega. Weights them by
    the zero-phase Butterworth magnitude |H|^2 = 1/(1 + (df/bandwidth)^8),
    folds them mod m and inverts with one m-point FFT. The factor
    e^{i(omega_k0 - omega) t} then restores the exact beat, so an off-grid
    beat loses nothing.
    """
    m = k.shape[-1]
    k0 = k[:, m // 2, None]
    df_hz = (k / k_per_rad - omega) / TWO_PI
    x = x * (2.0 / n) / (1.0 + (df_hz / bandwidth_hz) ** 8)
    z = np.fft.ifft(np.roll(x, -(m // 2), axis=-1), norm="forward")
    # sample p sits at t = p n dt / m, so the bin offset costs a phase
    # (k0 - omega k_per_rad) 2 pi p / m
    return z * np.exp(1j * TWO_PI * (k0 - omega * k_per_rad) * np.arange(m) / m)


def _smooth_size(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length numpy's FFT transforms fast."""
    odd = [3 ** i * 5 ** j for i in range(n.bit_length())
           for j in range(n.bit_length()) if 3 ** i * 5 ** j <= 2 * n]
    return min(p << (-(-n // p) - 1).bit_length() for p in odd)


def demodulate(trace: TimeTrace, bandwidth_hz: float = 200.0) -> PhaseSeries:
    """Recover the slowly varying beat-note phase theta_hat(t).

    Shifts the beat to baseband and applies the magnitude response of a
    4th-order Butterworth low-pass of the given bandwidth, run forward and
    backward: |H|^2 = 1/(1 + (df/bandwidth)^8), zero phase. The filter acts
    on the N-point DFT bins of the trace, zero-padded to the next
    2^a 3^b 5^c length N where the pad fits in the edge trim below, so the
    record is treated as periodic and nothing runs at the full sample rate.
    Those bins alone are computed, from rffts of the P columns of the
    trace's polyphase view; the "rhet.lockin" logger gives SNR, N, P, step
    and trim.
    Of round(N/step) points spread evenly over the padded record, those on
    the record are output, step being roughly 8 samples per filter time
    constant; when step divides n = N this is the times()[::step] grid.
    The returned series is the unwrapped angle, so theta_hat includes the
    constant LO phase plus drift. Where the record wraps round, the filter
    mixes its two ends; about 3/bandwidth is trimmed from each end so the
    first sample is a safe anchor for drift correction.

    Raises ValueError("beat note not detected") when the beat-band envelope
    does not exceed a control band (offset by 5 kHz) by 10x in RMS over the
    interior of the record, or when both bands are empty, and ValueError
    ("the trace's spectrum overflows") when either band's power does.
    """
    om = trace.omega_beat
    fs = 1.0 / trace.dt
    if not (0 < bandwidth_hz < om / TWO_PI / 4.0):
        raise ValueError("bandwidth must be positive and well below the beat frequency")
    n = trace.n
    n_fft = _smooth_size(n)
    if (n_fft - n) * trace.dt > 3.0 / bandwidth_hz:
        n_fft = n
    step = max(1, int(round(fs / (8.0 * bandwidth_hz))))
    m = int(round(n_fft / step))
    if m < 2:
        raise ValueError("trace too short for the lock-in bandwidth")
    k_per_rad = n_fft * trace.dt / TWO_PI
    oms = np.array([[om], [om + TWO_PI * _CONTROL_OFFSET_HZ]])
    k = np.rint(oms * k_per_rad).astype(np.int64) + np.arange(m) - m // 2
    p = _stride(n_fft)
    z, zc = _baseband(_dft_bins(trace.samples, n_fft, p, k), k, n_fft,
                      k_per_rad, oms, bandwidth_hz)
    dt_out = n_fft * trace.dt / m
    # the samples on the record, not on its zero pad
    m = -(-n * m // n_fft)
    z, zc = z[:m], zc[:m]
    # the wrapped filter's edge transients span ~3/bandwidth at each end
    trim = int(np.ceil(3.0 / bandwidth_hz / dt_out))
    # judge detection on the interior: near the ends the wrapped filter
    # leaks the (possibly huge) pilot into the control band
    core = slice(trim, m - trim) if 2 * trim < m // 2 else slice(None)
    power, control = _finite(np.array([np.mean(np.abs(b[core]) ** 2)
                                       for b in (z, zc)]), "band powers")
    with np.errstate(divide="ignore", invalid="ignore"):
        snr = np.sqrt(power / control)
    _log.info("lock-in: snr %.3g, n_fft %d, P %d, step %d, m %d, trim %d",
              snr, n_fft, p, step, m, trim)
    # written so that an empty trace (0/0 = NaN) fails too
    if not snr >= _DETECT_RATIO:
        raise ValueError(
            f"beat note not detected: envelope only {snr:.2f}x the control "
            f"band (need {_DETECT_RATIO:.0f}x); add a pilot tone or check "
            f"omega_beat")
    theta = np.unwrap(np.angle(z))
    times = np.arange(m) * dt_out
    if m - 2 * trim < 8:
        _log.warning("lock-in: %d points are too few to trim %d from each "
                     "end; the filter's edge transients stay", m, trim)
        trim = 0
    theta, times = theta[trim:m - trim], times[trim:m - trim]
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
