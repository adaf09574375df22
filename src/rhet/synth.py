"""Synthetic photocurrent generation.

The synthesizer draws a stationary complex Gaussian field a(t) whose normal
and anomalous spectra match the analytic model exactly (bin-by-bin in the
circular sense), then modulates it onto the beat note:

    i(t) = X cos(Om t + theta(t)) + Y sin(Om t + theta(t)),  X = 2 Re a, Y = 2 Im a

For each FFT bin pair (+nu_k, -nu_k) the coefficients (z_k, conj(z_-k)) are
drawn from the 2x2 complex Gaussian with covariance

    [[ P(nu_k),  s_aa(nu_k) ],
     [ conj s_aa, P(-nu_k)  ]] / (N dt),     P = s_adaga,

via a closed-form Cholesky factor; a(t) = sum_k z_k e^{-i nu_k t}. The model
guarantees the matrix is positive semidefinite (Cauchy-Schwarz), so the
factorization cannot fail on valid configs. One model pass over bins 0..N//2
gives P(+-nu_k) and s_aa(nu_k). The factors of the last (config, N, dt) stay
memoised, 16N bytes (twice the trace) held until a synthesis with another key.
DC and Nyquist bins are drawn uncorrelated (s_aa is negligible there); fftfreq
puts the Nyquist bin at -pi/dt, so it takes P(-pi/dt). Everything is
deterministic given the seed.
"""
from __future__ import annotations

import functools
import warnings

import numpy as np

from .analytic import _model_rows
from .core import (TWO_PI, ExperimentConfig, PhaseSeries, TimeTrace,
                   _fits, check_config)
from .estimator import _in_place


def phase_drift(t, theta0: float, amplitude: float, freq_hz: float) -> np.ndarray:
    """Sinusoidal LO phase wander: theta0 + amplitude*sin(2 pi freq_hz t)."""
    t = np.asarray(t, dtype=float)
    return theta0 + amplitude * np.sin(TWO_PI * freq_hz * t)


def tone_field(tones, duration: float, dt: float):
    """Deterministic multi-tone field for oracle tests.

    tones: iterable of (omega, amplitude, phase); each adds
    amplitude * e^{-i omega t + i phase} to a(t). Returns the quadrature
    pair (x, y) = (2 Re a, 2 Im a). Raises on tones at or beyond Nyquist.
    """
    n = int(round(duration / dt))
    if n < 2:
        raise ValueError("duration too short for the sample interval")
    t = np.arange(n) * dt
    a = np.zeros(n, dtype=complex)
    for omega, amp, phase in tones:
        if abs(omega) >= np.pi / dt:
            raise ValueError(f"tone at {omega / TWO_PI:.4g} Hz is at or beyond Nyquist")
        a += amp * np.exp(-1j * omega * t + 1j * phase)
    return 2.0 * np.real(a), 2.0 * np.imag(a)


def modulate_current(x_quad, y_quad, omega_beat: float, theta,
                     dt: float) -> TimeTrace:
    """Turn quadrature records into a beat-note photocurrent.

    theta may be a scalar or a PhaseSeries (sampled onto the trace times by
    linear interpolation). theta_nominal on the result is the scalar value,
    or the series value at t=0.
    """
    x = np.asarray(x_quad, dtype=float)
    y = np.asarray(y_quad, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("quadrature records must be 1-d arrays of equal length")
    t = np.arange(x.size) * dt
    if isinstance(theta, PhaseSeries):
        th = theta.sample_at(t)
        nominal = float(th[0])
    else:
        th = float(theta)
        nominal = float(theta)
    ph = omega_beat * t + th
    cur = x * np.cos(ph) + y * np.sin(ph)
    return TimeTrace(samples=cur, dt=dt, omega_beat=omega_beat,
                     theta_nominal=nominal)


@functools.lru_cache(maxsize=1)
def _bin_factors(cfg: ExperimentConfig, n: int, dt: float):
    """Cholesky factors (l11, l21, l22) of fftfreq bins 0..n//2."""
    # 0.5: each part of a unit complex normal has variance 1/2. An even n's
    # Nyquist bin sits at -pi/dt; l11 alone draws it, as it does DC. Blocks
    # of bins bound the model's temporaries.
    scale = 0.5 / (n * dt)
    nu = TWO_PI * np.fft.fftfreq(n, dt)[:n // 2 + 1]
    p1, p2, c = (np.concatenate(rows) * scale for rows in zip(*(
        _model_rows(cfg, nu[k:k + 65536]) for k in range(0, nu.size, 65536))))
    l11 = np.sqrt(p1)
    safe = np.where(p1 > 0, p1, 1.0)
    l21 = np.where(p1 > 0, np.conj(c) / np.sqrt(safe), 0.0)
    l22sq = p2 - np.where(p1 > 0, np.abs(c) ** 2 / safe, 0.0)
    # PSD-guaranteed analytically; clip the float dust
    l22 = np.sqrt(np.maximum(l22sq, 0.0))
    l11.flags.writeable = l21.flags.writeable = l22.flags.writeable = False
    return l11, l21, l22


def _draw_field(cfg: ExperimentConfig, n: int, dt: float,
                rng: np.random.Generator) -> np.ndarray:
    l11, l21, l22 = _bin_factors(cfg, n, dt)
    pos, neg = slice(1, (n + 1) // 2), slice(n - 1, n // 2, -1)  # k, n - k
    z = np.empty(n, dtype=complex)
    z.real, z.imag = rng.standard_normal(n), rng.standard_normal(n)  # g1
    g2 = rng.standard_normal(n)[pos] + 1j * rng.standard_normal(n)[pos]
    np.multiply(l21[pos], z[pos], out=z[neg])
    z[neg] += l22[pos] * g2
    np.conjugate(z[neg], out=z[neg])
    z[:n // 2 + 1] *= l11
    # a(t_j) = sum_k z_k e^{-i nu_k t_j}: the forward FFT implements the
    # e^{-i} kernel on the fftfreq layout
    return _in_place(np.fft.fft, z)


def synth_gaussian_trace(cfg: ExperimentConfig, duration: float, dt: float,
                         seed: int, pilot_amplitude: float = 0.0) -> TimeTrace:
    """Full synthetic photocurrent: colored Gaussian field, beat-note
    modulation with the configured LO phase and drift, optional coherent
    pilot tone pilot_amplitude*cos(Om t + theta(t)) for lock-in tracking.
    """
    for w in check_config(cfg, dt=dt):
        warnings.warn(w, stacklevel=2)
    if not 0 < duration < np.inf:
        raise ValueError("duration must be positive and finite")
    with _fits("a trace of {} samples", duration / dt):
        n = int(round(duration / dt))
        if n < 16:
            raise ValueError("duration too short")
        if duration < 20.0 * TWO_PI / cfg.omega_beat:
            warnings.warn("trace shorter than 20 beat periods", stacklevel=2)
        if duration < 20.0 / min(m.gamma for m in cfg.modes):
            warnings.warn("trace shorter than 20 mechanical decay times",
                          stacklevel=2)
        rng = np.random.default_rng(seed)
        a = _draw_field(cfg, n, dt, rng)
        ph = np.arange(n) * dt
    d = cfg.drift
    if d.amplitude == 0.0:
        th = cfg.theta0
    elif d.kind == "sine":
        th = phase_drift(ph, cfg.theta0, d.amplitude, d.freq_hz)
    else:  # walk
        steps = rng.standard_normal(n) * (d.amplitude / np.sqrt(n))
        steps[0] = 0.0
        th = cfg.theta0 + np.cumsum(steps)
    ph *= cfg.omega_beat
    ph += th
    cur = np.cos(ph)
    pilot = pilot_amplitude * cur if pilot_amplitude != 0.0 else 0.0
    cur *= 2.0 * a.real
    cur += np.multiply(2.0 * a.imag, np.sin(ph, out=ph), out=ph)
    cur += pilot
    return TimeTrace(samples=cur, dt=dt, omega_beat=cfg.omega_beat,
                     theta_nominal=cfg.theta0,
                     label=f"synth(seed={seed})")
