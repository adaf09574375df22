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
A miss stores its factors whole, in one assignment after their fill, so no
caller sees half-filled ones; concurrent cold callers each compute their own,
and no lock is held.
DC and Nyquist bins are drawn uncorrelated (s_aa is negligible there); fftfreq
puts the Nyquist bin at -pi/dt, so it takes P(-pi/dt). Everything is
deterministic given the seed.

A synthesis runs on every usable CPU, with the bytes of a serial draw on any
number of them. The calling thread draws the field's four N-point normal
blocks from the one RNG stream. On a memo miss a helper starts on the
factors' blocks of bins at once, and the calling thread takes blocks too as
soon as its draw is done; a hit starts no helper. The fourth draw's tail,
past the last positive bin, is read by nothing, so it is drawn only when a
random walk's steps follow it in the stream. The calling thread then
assembles the coefficients and runs the FFT. The beat-note phase and the
modulation run blockwise on all threads. The calling thread allocates every
N-point array; helpers allocate only blocks.
"""
from __future__ import annotations

import warnings

import numpy as np

from .analytic import _model_rows
from .core import (TWO_PI, ExperimentConfig, PhaseSeries, TimeTrace,
                   _fits, _in_place, _on_threads, check_config)


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


_BLOCK = 65536  # elements per block of a factor, draw or phase step


def _fill_factors(cfg: ExperimentConfig, n: int, dt: float, factors, starts):
    """The Cholesky factors of fftfreq bins 0..n//2 into the caller's arrays
    factors = (l11, l21, l22), one block of bins for each start taken from
    the iterator starts, which other threads may share: blocks are
    elementwise, so any split of them gives the same bits. The caller makes
    the arrays read-only once every thread is done.

    0.5: each part of a unit complex normal has variance 1/2. Bin k sits at
    2 pi k / (n dt), fftfreq's bits without its n-point array; an even n's
    Nyquist bin at -pi/dt, and l11 alone draws it, as it does DC. Blocks
    bound the model's temporaries."""
    l11, l21, l22 = factors
    scale, step = 0.5 / (n * dt), 1.0 / (n * dt)
    for k in starts:
        s = slice(k, min(k + _BLOCK, l11.size))
        bins = np.arange(s.start, s.stop)
        if n % 2 == 0 and s.stop == l11.size:
            bins[-1] = -bins[-1]
        p1, p2, c = _model_rows(cfg, TWO_PI * (bins * step))
        for r in (p1, p2, c):
            r *= scale
        np.sqrt(p1, out=l11[s])
        # where p1 > 0, l21 = conj(c) / l11 and l22^2 = p2 - |c|^2 / p1;
        # elsewhere l21 = 0 and l22^2 = p2
        pos = p1 > 0
        np.conjugate(c, out=c)
        l21[s] = 0.0
        np.divide(c, l11[s], out=l21[s], where=pos)
        c2 = np.abs(c) ** 2
        np.subtract(p2, np.divide(c2, p1, out=c2, where=pos), out=p2,
                    where=pos)
        # PSD-guaranteed analytically; clip the float dust
        np.sqrt(np.maximum(p2, 0.0, out=p2), out=l22[s])


_memo = None, None  # the last synthesis's (cfg, n, dt) and factors


def _draw_normals(rng: np.random.Generator, z: np.ndarray,
                  whole: bool) -> None:
    """The field's four n-point normal draws, in order and a block at a
    time: g1 = draw 1 + i draw 2 into z, and g2 = draw 3 + i draw 4 on the
    positive bins k into z[n - k], where _assemble reads it. Draw 4 stops
    after the last positive bin unless whole: only a random walk reads the
    stream after it."""
    n, h = z.size, (z.size + 1) // 2
    g2 = z[n - 1:n // 2:-1]  # z[n - k] for k = 1 .. h - 1
    buf = np.empty(min(n, _BLOCK))
    for out, first, stop in ((z.real, 0, n), (z.imag, 0, n), (g2.real, 1, n),
                             (g2.imag, 1, n if whole else h)):
        for k in range(0, stop, _BLOCK):
            b = buf[:min(_BLOCK, stop - k)]
            rng.standard_normal(out=b)  # the stream of one n-point draw
            lo, hi = max(k, first), min(k + b.size, first + out.size)
            if lo < hi:
                out[lo - first:hi - first] = b[lo - k:hi - k]


def _assemble(z: np.ndarray, l11, l21, l22) -> None:
    """z[k] = l11 g1_k and z[n - k] = conj(l21 g1_k + l22 g2_k) over the
    positive bins k, in blocks; l11 also scales DC and an even n's Nyquist
    bin."""
    n, h = z.size, (z.size + 1) // 2
    tmp = np.empty(min(h, _BLOCK), dtype=complex)
    for k in range(1, h, _BLOCK):
        pos = slice(k, min(k + _BLOCK, h))
        g = z[n - k:n - pos.stop:-1]
        np.multiply(l22[pos], g, out=g)
        g += np.multiply(l21[pos], z[pos], out=tmp[:g.size])
        np.conjugate(g, out=g)
    z[:n // 2 + 1] *= l11


def synth_gaussian_trace(cfg: ExperimentConfig, duration: float, dt: float,
                         seed: int, pilot_amplitude: float = 0.0) -> TimeTrace:
    """Full synthetic photocurrent: colored Gaussian field, beat-note
    modulation with the configured LO phase and drift, optional coherent
    pilot tone pilot_amplitude*cos(Om t + theta(t)) for lock-in tracking.
    """
    global _memo
    if not np.isfinite(pilot_amplitude):
        raise ValueError("pilot amplitude must be finite")
    for w in check_config(cfg, dt=dt):
        warnings.warn(w, stacklevel=2)
    if not 0 < duration < np.inf:
        raise ValueError("duration must be positive and finite")
    d = cfg.drift
    with _fits("a trace of {} samples", duration / dt):
        n = int(round(duration / dt))
        if n < 16:
            raise ValueError("duration too short")
        if duration < 20.0 * TWO_PI / cfg.omega_beat:
            warnings.warn("trace shorter than 20 beat periods", stacklevel=2)
        if duration < 20.0 / min(m.gamma for m in cfg.modes):
            warnings.warn("trace shorter than 20 mechanical decay times",
                          stacklevel=2)
        # every n-point array, the factors' included, is made here; a
        # helper allocates only blocks
        z, cur = np.empty(n, dtype=complex), np.empty(n)
        rng = np.random.default_rng(seed)
        walk = d.amplitude != 0.0 and d.kind == "walk"
        key, factors = _memo
        if key == (cfg, n, dt):
            _draw_normals(rng, z, walk)
        else:
            # a helper fills factor blocks at once; the calling thread
            # draws the normals and then takes blocks too
            h = n // 2 + 1
            factors = np.empty(h), np.empty(h, dtype=complex), np.empty(h)
            starts = iter(range(0, h, _BLOCK))

            def fill(i, _):
                if i == 0:
                    _draw_normals(rng, z, walk)
                _fill_factors(cfg, n, dt, factors, starts)

            _on_threads(fill, 2)
            for f in factors:
                f.flags.writeable = False
            _memo = (cfg, n, dt), factors
        _assemble(z, *factors)
        # a(t_j) = sum_k z_k e^{-i nu_k t_j}: the forward FFT implements
        # the e^{-i} kernel on the fftfreq layout. It takes about 2x z more
        # memory while it runs, so cur is first written after it
        _in_place(np.fft.fft, z)
        if walk:
            # theta(t) into cur, from the draws after the field's
            rng.standard_normal(out=cur)
            cur *= d.amplitude / np.sqrt(n)
            cur[0] = 0.0
            np.cumsum(cur, out=cur)
            cur += cfg.theta0

    def modulate(i, space):
        # over block i: the phase Om t + theta(t) into cur, then
        # X cos + Y sin (+ the pilot's cos) with X, Y = 2 Re a, 2 Im a
        s = slice(i * _BLOCK, (i + 1) * _BLOCK)
        a, ph = z[s], cur[s]
        c, sin = (w[:ph.size] for w in space)
        t = np.multiply(np.arange(s.start, s.start + ph.size), dt, out=c)
        if d.amplitude == 0.0:
            th = cfg.theta0
        elif d.kind == "sine":
            th = phase_drift(t, cfg.theta0, d.amplitude, d.freq_hz)
        else:  # walk: cur holds theta(t)
            th = ph
        t *= cfg.omega_beat
        np.add(t, th, out=ph)
        np.cos(ph, out=c)
        np.sin(ph, out=sin)
        np.multiply(a.view(float), 2.0, out=a.view(float))  # exact
        pilot = (np.multiply(pilot_amplitude, c, out=ph)
                 if pilot_amplitude != 0.0 else 0.0)
        c *= a.real
        c += np.multiply(a.imag, sin, out=sin)
        np.add(c, pilot, out=ph)

    _on_threads(modulate, -(-n // _BLOCK),
                workspace=lambda: (np.empty(min(n, _BLOCK)),
                                   np.empty(min(n, _BLOCK))))
    return TimeTrace(samples=cur, dt=dt, omega_beat=cfg.omega_beat,
                     theta_nominal=cfg.theta0,
                     label=f"synth(seed={seed})")
