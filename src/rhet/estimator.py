"""Filtered-autocorrelation estimators and spectra.

The central object is the periodically weighted autocorrelation

    A(tau) = < F_eps(t*) i(t) i(t+tau) >,

with F_eps the square filter of FilterSpec and t* the first sample time
(variant "t0") or the midpoint t + tau/2 ("tbar"). eps = +1 gives the plain
Welch PSD; eps = -1 cancels the heterodyne background and keeps only the
beat-synchronous correlations.

Every segment average runs through one driver, _segment_moments: a
route's body gives the rows of one segment, and the driver adds them to a
running mean and co-moment (Welford) in segment order, so any worker count
gives the same bits; each route keeps its own memo entry. The stream basis
and Welch run on every usable CPU (rhet.core._on_threads); the t0, cross
and lag-window bodies allocate, and stay on the calling thread (memory a
helper thread allocates stays in its own malloc arena).

One engine serves the tbar spectrum, both phase maps and the cross-spectrum.
Each segment gives two theta-independent streams, even in w and kept on
the n//2+1 non-negative bins: P0 = dt/N |FFT i|^2 and G = dt (D(w) + D(-w)),
D = FFT[e^{i Om tau} c(tau)], with c the circular cross-correlation (1/N)
of x = e^{-2i Om t} i against y = i (with a measured LO phase each side
carries half the drift correction). The filter's Fourier series gives

    S(eps, theta, w) = c0 P0 + c1 Re[e^{-2i theta} G];

harmonics k >= 3 demodulate content at 2k Om, where stationary input has
none. The moments M of (P0, Re G, Im G) are memoised per trace, so each
further (eps, theta) costs O(n_freq); the variance of a = (c0, c1 cos
2theta, c1 sin 2theta) applied to it is a^T M a / (S(S-1)). With y = i or
e^{-i d/2} i and K = 2 Om N dt / 2 pi an integer (_bin_shift), conj(FFT
x)[k] = e^{2i Om t_off} FFT(y)[(-k - K) mod N]: per segment the "shifted"
route takes one rfft (static) or one complex FFT and one rfft (drift) for
the product spectrum conj(FFT x) FFT y and P0, the "transformed" route one
complex FFT more. G is linear in the product spectrum, so G's mean is the
lag step (two complex FFTs for e^{i Om tau}, tbar only) applied once to
the segments' scaled product spectra, summed in segment order. The full
basis behind tbar spectra also takes the lag step per segment, for G's
co-moments; a map's entry keeps the means alone and reads P0's moments
from any entry the trace holds. Each build logs its route at DEBUG.

eps = +1 makes F = 1, and both variants are then standard_psd: row 0 of
any basis, t0 or Welch entry the trace holds, else one rfft per segment,
kept as the trace's Welch entry.
t0 uses the literal filter F = a + b s, a = (1+eps)/2, b = (1-eps)/2, s the
+-1 square wave, so S = a P0 + b T with T = dt/N Re[conj(FFT(s i)) FFT(i)]
per segment: the same engine on the rows (P0, T) with weights (a, b). Its
per-trace memo holds FFT(i) of each segment (read-only, 8n bytes for n
samples) and, per theta and phase series, the moments of (P0, T): 2 mean
and 3 co-moment rows of n_seg/2+1 floats, for the last _T0_THETAS = 4
theta. A theta thus costs one rfft per segment and each further eps there
O(n_freq); eps = -1 weighs P0 by 0 and keeps T's bits. When the sampling is
commensurate with the filter period and a discontinuity lands exactly on
the sample grid, the discrete filter's mean shifts by +-(1-eps)/M (M
samples per filter period) and leaks that fraction of the heterodyne
background into eps < 1 spectra; otherwise the leakage is O(1/N).

max_lag or a lag window goes through filtered_autocorr, also the
independent reference the engine is tested against; it stores lags 0..n/2,
circularly-even symmetrized. All spectra are two-sided on ascending
angular-frequency grids, S = dt * Re FFT(A), so sum(S) dw = 2 pi A(0).
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .analytic import filter_coefficients
from .core import (TWO_PI, FilterSpec, PhaseSeries, Spectrum, TimeTrace,
                   _in_place, _integer, _on_threads, _spectrum_grid)

_log = logging.getLogger(__name__)


@dataclass(eq=False)
class Autocorrelation:
    """Symmetrized filtered autocorrelation on lags 0..n_fft//2.

    values[m] estimates A(m dt); n_fft is the segment length the circular
    transform ran on (needed to place the spectrum on the right grid).
    """

    values: np.ndarray
    variant: str
    filter: FilterSpec
    dt: float
    n_fft: int
    meta: dict = field(default_factory=dict)


def eval_filter(f: FilterSpec, t) -> np.ndarray:
    """Square filter samples F_eps(t).

    F = +1 where mod(psi + pi/2, 2 pi) <= pi with
    psi = 2*omega_beat*t - phase_offset - d(t), epsilon elsewhere. Boundary
    samples belong to the +1 half-cycle. d(t) is the dynamic offset series
    (linearly interpolated, clamped outside its support). The remainder is
    psi - 2 pi floor(psi / 2 pi), or np.mod's within 16 eps (max|psi| +
    2 pi) of 0, pi and 2 pi: np.mod's mask to the bit at half its cost.
    """
    t = np.asarray(t, dtype=float)
    psi = np.multiply(2.0 * f.omega_beat, t, out=np.empty(t.shape))
    psi -= f.phase_offset
    if f.dynamic_offset is not None:
        psi -= f.dynamic_offset.sample_at(t)
    psi += 0.5 * np.pi
    flat = psi.reshape(-1)
    r = np.floor(np.divide(flat, TWO_PI))
    r *= TWO_PI
    np.subtract(flat, r, out=r)
    plus = r <= np.pi
    for edge in (np.pi, 0.5 * np.pi):  # r becomes ||r - pi| - pi/2|
        r -= edge
        np.abs(r, out=r)
    lim = max(flat.max(initial=0.0), -flat.min(initial=0.0)) + TWO_PI
    near = np.flatnonzero(r > 0.5 * np.pi - 16.0 * np.finfo(float).eps * lim)
    plus[near] = np.mod(flat[near], TWO_PI) <= np.pi
    r.fill(f.epsilon)
    np.copyto(r, 1.0, where=plus)
    return r.reshape(psi.shape)


def _fft(a, out=None):
    """FFT of a 1-d array; a complex a is transformed in place. A real
    one's is its rfft plus the conjugate mirror, into out (new by default):
    a third of the cost of its complex transform (whose last bits differ)."""
    if np.iscomplexobj(a):
        return _in_place(np.fft.fft, a)
    n, h = a.size, a.size // 2 + 1
    out = np.empty(n, dtype=complex) if out is None else out
    _in_place(np.fft.rfft, a, out[:h])
    np.conjugate(out[n - h:0:-1], out=out[h:])
    return out


def _xcorr(x, y):
    """Circular cross-correlation sum_n conj(x_n) y_{n+m}; complex x and y
    are overwritten."""
    if np.isrealobj(x) and np.isrealobj(y):
        fx = np.fft.rfft(x)
        return np.fft.irfft(np.conj(fx) * np.fft.rfft(y), n=x.size)
    return np.fft.ifft(np.conj(_fft(x)) * _fft(y))


def _signed_lags(n, dt):
    m = np.arange(n)
    return np.where(m <= n // 2, m, m - n) * dt


def _cis(x, out=None):
    """e^{ix} for real x from cos and sin, into out (new by default; not
    x's memory): within an ulp of numpy's complex exp (bit-equal on glibc)
    at under half its cost."""
    x = np.asarray(x, dtype=float)
    z = np.empty(x.shape, dtype=complex) if out is None else out
    np.cos(x, out=z.real)
    np.sin(x, out=z.imag)
    return z


def _lag(x, phase):
    """tbar's lag step on a product spectrum x, in place:
    FFT[phase IFFT x]."""
    _in_place(np.fft.ifft, x)
    x *= phase
    return _in_place(np.fft.fft, x)


def _pair(op, a, n, out=None):
    """op(a[k], a[-k mod n]) for k = 0..n//2 of a circular array, by
    slices, written into out (new by default)."""
    h = n // 2 + 1
    mirror = np.empty(h, dtype=a.dtype) if out is None else out
    mirror[0] = a[0]
    mirror[1:] = a[n - 1:n - h:-1]
    return op(a[:h], mirror, out=mirror)


def _demod_pair(cur, phasor, dyn, t, out=None):
    """Pair (x, y) = (phasor e^{i d/2} i, e^{-i d/2} i) whose
    cross-correlation carries the filter's fundamental; d is the offset
    series dyn at times t, or None for a static filter (y is then the real
    current itself). x is formed in place in phasor, y in out (new by
    default; t may be a view of it)."""
    if dyn is None:
        phasor *= cur
        return phasor, cur
    h = _cis(0.5 * dyn.sample_at(t), out)
    phasor *= h
    phasor *= cur
    np.conj(h, out=h)
    h *= cur
    return phasor, h


def _finite(values, what="segment moments"):
    """values, once checked to be finite: a trace whose spectrum overflows
    raises instead of giving NaN."""
    if not np.isfinite(values).all():
        raise ValueError(f"the trace's spectrum overflows: its {what} are "
                         "not finite")
    return values


def _tbar_half(cur, dt, f, t_abs):
    """tbar autocorrelation from the filter's mean and its fundamental's
    stream pair, already symmetrized."""
    n = cur.size
    acc = filter_coefficients(f.epsilon, 0) * _xcorr(cur, cur)
    c1 = filter_coefficients(f.epsilon, 1)
    if c1 != 0.0:
        x, y = _demod_pair(cur, np.exp(-1j * 2.0 * f.omega_beat * t_abs),
                           f.dynamic_offset, t_abs)
        rot = c1 * np.exp(-1j * f.phase_offset) * np.exp(
            1j * f.omega_beat * _signed_lags(n, dt))
        acc = acc + 2.0 * np.real(rot * _xcorr(x, y))
    return 0.5 * _pair(np.add, acc / n, n)


def filtered_autocorr(trace: TimeTrace, f: FilterSpec,
                      max_lag: Optional[float] = None, variant: str = "tbar",
                      t_offset: float = 0.0) -> Autocorrelation:
    """Circular filtered autocorrelation of a trace (or of one segment of
    one: t_offset is the absolute start time, which keeps the filter phase
    global across segments).

    max_lag is in seconds; None keeps the full circular range n//2 (the
    default: spectra built from truncated lags trade variance for bias, and
    the exact identities hold only on the full range). tbar keeps the
    filter's mean and fundamental, the only terms that stationary input
    correlates with; t0 uses the literal filter samples.
    """
    if variant not in ("t0", "tbar"):
        raise ValueError("variant must be 't0' or 'tbar'")
    if abs(f.omega_beat - trace.omega_beat) > 1e-9 * trace.omega_beat:
        raise ValueError("filter and trace disagree on omega_beat")
    n, dt = trace.n, trace.dt
    n_lag = n // 2
    if max_lag is not None:
        if not (0 < max_lag < trace.duration):
            raise ValueError("max_lag must lie in (0, duration)")
        n_lag = min(int(round(max_lag / dt)), n_lag)
    t_abs = np.arange(n) * dt + t_offset
    cur = trace.samples
    if variant == "t0":
        w = eval_filter(f, t_abs) * cur
        half = 0.5 * _pair(np.add, _xcorr(w, cur) / n, n)
    else:
        half = _tbar_half(cur, dt, f, t_abs)
    return Autocorrelation(
        values=_finite(np.asarray(half[: n_lag + 1], dtype=float),
                       "autocorrelation lags"), variant=variant,
        filter=f, dt=dt, n_fft=n, meta={"t_offset": float(t_offset)})


def _lag_window(name: str, n_keep: int) -> np.ndarray:
    m = np.arange(n_keep + 1)
    if name == "hann":
        return 0.5 * (1.0 + np.cos(np.pi * m / n_keep))
    if name == "bartlett":
        return 1.0 - m / n_keep
    raise ValueError(f"unknown window {name!r}; choose rect, hann or bartlett")


def _mirror(row, n_fft: int) -> np.ndarray:
    """A stream even in w, given on the non-negative bins 0..n_fft//2,
    on every bin of the shifted two-sided grid."""
    h = n_fft // 2
    out = np.empty(n_fft, dtype=row.dtype)
    out[:h + 1] = row[h::-1]
    out[h + 1:] = row[1:n_fft - h]
    return out


def psd_from_autocorr(ac: Autocorrelation, window: str = "rect",
                      max_lag: Optional[float] = None) -> Spectrum:
    """Two-sided PSD from a symmetrized autocorrelation:
    S = dt * Re FFT of the circularly-even extension, optionally truncated
    to max_lag with a lag window. The grid keeps the full n_fft resolution
    regardless of truncation, so spectra at different max_lag stay
    comparable bin by bin.
    """
    n_keep = ac.values.size - 1
    if max_lag is not None:
        n_keep = min(int(round(max_lag / ac.dt)), n_keep)
        if n_keep < 1:
            raise ValueError("max_lag below one sample")
    half = ac.values[: n_keep + 1]
    if window != "rect":
        half = half * _lag_window(window, n_keep)
    full = np.zeros(ac.n_fft)
    full[: n_keep + 1] = half
    full[ac.n_fft - n_keep:] = half[1:][::-1]
    # full is circularly even: its FFT is real and even, so the rfft holds it
    row = _mirror(_finite(ac.dt * np.fft.rfft(full).real, "PSD values"),
                  ac.n_fft)
    return Spectrum(freqs=_spectrum_grid(ac.n_fft, ac.dt), values=row,
                    meta={**ac.meta, "kind": "rhet", "variant": ac.variant,
                          "epsilon": ac.filter.epsilon, "window": window,
                          "max_lag": max_lag, "n_fft": ac.n_fft, "dt": ac.dt})


def _segments(trace: TimeTrace, segments: int):
    """(segments as an int, the length of each segment), once the count is
    checked; the trailing trace.n % segments samples are dropped."""
    segments = _integer("segments", segments, 1)
    n_seg = trace.n // segments
    if n_seg < 16:
        raise ValueError("segments too short")
    return segments, n_seg


class _Moments:
    """Running mean and co-moment (Welford) of a stack of K real rows,
    updated in call order so the result is reproducible to the bit. The
    co-moment is symmetric, so m2 holds it once per pair i <= j, in the
    order of `pairs`. A summing route adds its linear rows to `total`."""

    count, mean, m2, pairs, total = 0, None, None, (), None

    def add(self, rows):
        self.count += 1
        if self.count == 1:
            self.mean = np.array(rows, dtype=float)
            k = len(rows)
            self.pairs = [(i, j) for i in range(k) for j in range(i, k)]
            self.m2 = np.zeros((len(self.pairs),) + self.mean.shape[1:])
            return
        d_old = rows - self.mean
        step = np.divide(d_old, self.count)
        self.mean += step
        d_new = np.subtract(rows, self.mean, out=step)
        # one co-moment entry at a time, in place: no K x K x n temporary
        prod = np.empty(self.mean.shape[1:])
        for m2, (i, j) in zip(self.m2, self.pairs):
            m2 += np.multiply(d_old[i], d_new[j], out=prod)

    def variance(self, a):
        """Variance of the mean of sum_k a_k row_k (for complex a the total,
        real plus imaginary, variance); None for one row."""
        if self.count < 2:
            return None
        q = sum((1.0 if i == j else 2.0) * np.real(np.conj(a[i]) * a[j]) * m2
                for m2, (i, j) in zip(self.m2, self.pairs))
        return np.maximum(q, 0.0) / (self.count * (self.count - 1))


def _segment_moments(trace: TimeTrace, segments: int, rows, workers=1,
                     workspace=lambda: None, summed=False) -> _Moments:
    """Moments of a route's rows over the segments of a trace, one segment
    per item on `workers` threads: rows(s, start, samples, space) gets
    segment s's absolute start time, its samples and a workspace, and
    returns its stacked rows (None for none), or with summed (rows, z):
    the entry's total is then the sum of the z in segment order."""
    n = _segments(trace, segments)[1]
    moments = _Moments()

    def consume(out):
        if summed:
            out, z = out
            if moments.total is None:
                moments.total = z.copy()
            else:
                moments.total += z
        if out is not None:
            moments.add(out)

    _on_threads(lambda s, space: rows(s, s * n * trace.dt,
                                      trace.samples[s * n:(s + 1) * n], space),
                segments, workers, consume, workspace)
    if moments.mean is not None:
        _finite(moments.mean)
    return moments


def _combine(a, mean, out=None):
    """Rows sum_k a[:, k] mean[k], one per row of a, written into out (new
    by default) through one temporary; elementwise in a fixed order, so a
    map row and a single spectrum at the same theta agree to the bit."""
    rows = np.multiply(a[:, :1], mean[0], out=out)
    tmp = np.empty_like(rows)
    for k in range(1, a.shape[1]):
        rows += np.multiply(a[:, k:k + 1], mean[k], out=tmp)
    return rows


def _spectrum(moments, a, n_fft, dt, meta) -> Spectrum:
    """Mean and variance of a . rows, mirrored onto the two-sided grid."""
    variance = moments.variance(a[0])
    return Spectrum(
        freqs=_spectrum_grid(n_fft, dt),
        values=_mirror(_combine(a, moments.mean)[0], n_fft),
        variance=None if variance is None else _mirror(variance, n_fft),
        meta={**meta, "n_fft": n_fft, "dt": dt})


def _quadrature_weights(epsilon, thetas) -> np.ndarray:
    """(n_theta, 3) weights of (P0, Re G, Im G): c0, c1 cos 2theta,
    c1 sin 2theta."""
    phi0 = 2.0 * np.asarray(thetas, dtype=float)
    c1 = filter_coefficients(epsilon, 1)
    return np.stack((np.full(phi0.shape, filter_coefficients(epsilon, 0)),
                     c1 * np.cos(phi0), c1 * np.sin(phi0)), axis=1)


def _drift_offset(trace: TimeTrace,
                  phase_correction: Optional[PhaseSeries]):
    """Filter offset d(t) = -2 (theta_hat(t) - theta_nominal) of a measured
    LO phase series. Anchoring at the nominal phase, not the first series
    sample, keeps theta independent of where the series starts."""
    if phase_correction is None:
        return None
    return PhaseSeries(
        times=phase_correction.times,
        theta=-2.0 * (phase_correction.theta - trace.theta_nominal))


def _series_key(series: Optional[PhaseSeries]):
    """A phase series by value, for memo keys: demodulated again, it finds
    the same entry."""
    return None if series is None else (series.times.tobytes(),
                                        series.theta.tobytes())


# K is exact from the float Om and dt (pi to 40 digits). The shift swaps
# the ramp e^{-2i Om t} for e^{-2 pi i r m/n}, off by 2 pi |K - r| rad at the
# segment's end, which moved spectra by 7 to 23 |K - r| of their maximum.
# 5e-14 keeps the 1e-12 pin against filtered_autocorr: at Om/2pi = 10 kHz
# and dt = 0.2 us, n = 156 250 is 3.8e-14 off; 312 500 (7.6e-14) moved 1.2e-12.
_PI = Fraction("3.141592653589793238462643383279502884197")
_SHIFT_TOL = 5e-14


def _bin_shift(n: int, dt: float, om: float) -> Optional[int]:
    """The down-shift 2 Om in bins of an n-point segment, K = 2 Om n dt /
    2 pi, when it is an integer r in (0, n) within _SHIFT_TOL; else None."""
    k = Fraction(om) * n * Fraction(dt) / _PI
    r = round(k)
    return r if 0 < r < n and abs(k - r) <= _SHIFT_TOL else None


def _held_p0(trace: TimeTrace, segments: int) -> Optional[_Moments]:
    """An entry the trace holds whose row 0 is P0, the plain periodogram,
    over `segments` segments (a stream basis, t0 or Welch entry), if any."""
    return next((m for key, m in trace._bases.items()
                 if key[0] in ("basis", "t0", "welch")
                 and key[1] == segments), None)


def _stream_basis(trace: TimeTrace, segments: int, variant: str,
                  phase_correction: Optional[PhaseSeries],
                  workers: Optional[int] = None, full: bool = True
                  ) -> _Moments:
    """Moments of the (P0, Re G, Im G) rows over the segments of a trace,
    on the non-negative bins, memoised by segment count, variant and phase
    series; the module docstring gives the two routes. The mean of G is
    pair(Lag(sum_s scale_s x_s)) / segments over the product spectra x_s,
    whatever the entry. full=False keeps the means and P0's co-moment only,
    under a key of its own (a map's entry; a held full entry serves too),
    and takes P0's moments from any entry the trace holds (_held_p0)."""
    key = ("basis", segments, variant, _series_key(phase_correction))
    if not full and key not in trace._bases:
        key += ("means",)
    if key in trace._bases:  # before the set-up and its DEBUG line
        return trace._bases[key]
    n = _segments(trace, segments)[1]
    h = n // 2 + 1
    dt, om = trace.dt, trace.omega_beat
    dyn = _drift_offset(trace, phase_correction)
    shift = _bin_shift(n, dt, om)
    _log.debug("stream basis: %s route, n_seg %d, K %.15g, %d segments, "
               "%d samples dropped",
               "transformed" if shift is None else "shifted", n,
               om * n * dt / np.pi, segments, trace.n - segments * n)
    t = np.arange(n) * dt if shift is None or dyn is not None else None
    local = _cis((-2.0 * om) * t) if shift is None else None
    lag_phase = _cis(om * _signed_lags(n, dt)) if variant == "tbar" else None
    held = None if full else _held_p0(trace, segments)

    def segment_rows(s, t_off, seg, space):
        x, c = space[:2]  # x: the product spectrum, then the full rows
        t_abs = None if dyn is None else np.add(t, t_off, out=c.real)
        scale = dt / n
        if shift is None:
            np.multiply(local, _cis((-2.0 * om) * t_off), out=x)
            x, y = _demod_pair(seg, x, dyn, t_abs, out=c)
            _in_place(np.fft.fft, x)
            np.conj(x, out=x)
            x *= _fft(y, out=c)
        else:  # a static Y is Hermitian (_fft mirrors it): Y[-j] = conj Y[j]
            y = seg
            if dyn is not None:
                y = _cis(-0.5 * dyn.sample_at(t_abs), out=c)
                y *= seg
            y = _fft(y, out=c)
            m = n - shift + 1
            np.multiply(y[m - 1::-1], y[:m], out=x[:m])
            np.multiply(y[n - 1:m - 1:-1], y[m:], out=x[m:])
            # 1 up to rounding; rounded as the transformed route's phasor
            scale *= _cis(2.0 * om * t_off)
        rows = None
        if held is None:  # a static route's c[:h] holds FFT(seg) already
            if dyn is not None:
                _in_place(np.fft.rfft, seg, c[:h])
            p0 = c[h:].view(float)[:h]
            np.square(np.abs(c[:h], out=p0), out=p0)
            p0 *= dt / n
            rows = p0[None]
        if not full:
            x *= scale
            return rows, x
        z = np.multiply(x, scale, out=space[2])
        if lag_phase is not None:
            _lag(x, lag_phase)
        g = _pair(np.add, x, n, out=c[:h])
        g *= scale
        rows = x.view(float)[:3 * h].reshape(3, h)
        rows[0], rows[1], rows[2] = p0, g.real, g.imag
        return rows, z

    moments = _segment_moments(
        trace, segments, segment_rows, workers, summed=True,
        workspace=lambda: tuple(np.empty(n, dtype=complex)
                                for _ in range(3 if full else 2)))
    # Lag and pair are linear, so they run once, on the sum
    total = moments.total
    if lag_phase is not None:
        _lag(total, lag_phase)
    g = _pair(np.add, total, n)
    g /= segments
    if held is not None:  # P0's moments as the held entry has them
        moments = _Moments()
        moments.count, moments.pairs = held.count, [(0, 0)]
        moments.mean, moments.m2 = held.mean[:1], held.m2[:1].copy()
    moments.mean = _finite(np.stack((moments.mean[0], g.real, g.imag)))
    moments.total = None
    trace._bases[key] = moments
    return moments


# theta entries of a trace's t0 memo, oldest out first: the benchmark
# ensemble revisits each of its 3 t0 theta after the other two; one spare
_T0_THETAS = 4


def _t0_moments(trace: TimeTrace, segments: int, f: FilterSpec,
                phase_correction: Optional[PhaseSeries]) -> _Moments:
    """Moments of the (P0, T) rows over the segments of a trace, on the
    non-negative bins, s = f at eps = -1; see the module docstring."""
    n, memo = _segments(trace, segments)[1], trace._bases
    key = ("t0", segments, _series_key(phase_correction), f.phase_offset)
    if key in memo:
        return memo[key]
    if ("rfft", segments) not in memo:
        memo["rfft", segments] = np.fft.rfft(
            trace.samples[:segments * n].reshape(segments, n))
        memo["rfft", segments].flags.writeable = False
    spectra = memo["rfft", segments]
    t, scale = np.arange(n) * trace.dt, trace.dt / n
    square = replace(f, epsilon=-1.0)

    def t0_rows(s, t_off, seg, rows):
        w = eval_filter(square, t + t_off)
        w *= seg
        z = np.fft.rfft(w)
        np.conj(z, out=z)
        z *= spectra[s]
        np.square(np.abs(spectra[s], out=rows[0]), out=rows[0])
        rows[0] *= scale
        np.multiply(z.real, scale, out=rows[1])
        return rows

    moments = memo[key] = _segment_moments(
        trace, segments, t0_rows, workspace=lambda: np.empty((2, n // 2 + 1)))
    for old in [k for k in memo if k[0] == "t0"][:-_T0_THETAS]:
        del memo[old]
    return moments


def standard_psd(trace: TimeTrace, segments: int = 1) -> Spectrum:
    """Plain Welch PSD with a boxcar window, two-sided, segment-averaged:
    S = mean_s dt/N |FFT i_s|^2. Variance is the across-segment sample
    variance of the mean (ddof=1, divided by the segment count). It is the
    P0 row (the same periodogram, bit for bit) of a stream basis, t0 or
    Welch entry the trace holds for the same segments, if any; else its
    moments are stored as the trace's Welch entry.
    """
    segments, n = _segments(trace, segments)
    moments = _held_p0(trace, segments)
    if moments is None:
        def periodogram(s, start, segment, space):
            f, p = space
            np.abs(_in_place(np.fft.rfft, segment, f), out=p[0])
            np.square(p, out=p)
            p *= trace.dt / n
            return p

        moments = trace._bases["welch", segments] = _segment_moments(
            trace, segments, periodogram, None,
            workspace=lambda: (np.empty(n // 2 + 1, dtype=complex),
                               np.empty((1, n // 2 + 1))))
    return _spectrum(moments, np.eye(1, len(moments.mean)), n, trace.dt,
                     {"kind": "welch", "segments": segments,
                      "window": "boxcar"})


def rhet_spectrum(trace: TimeTrace, epsilon: float, theta: float,
                  variant: str = "tbar", segments: int = 1,
                  max_lag: Optional[float] = None, window: str = "rect",
                  phase_correction: Optional[PhaseSeries] = None) -> Spectrum:
    """Filtered spectrum of a trace: segment-averaged PSD of the filtered
    autocorrelation with filter phase offset phi0 = 2*theta.

    phase_correction, when given, is the measured LO phase series theta_hat
    (from rhet.lockin.demodulate); the filter then tracks the drift via the
    dynamic offset d(t) = -2 (theta_hat(t) - theta_nominal), which keeps
    the correlation term coherent over the whole record.

    The filter phase is global: segment s at absolute offset s*N_seg*dt sees
    the same F(t) as an unsegmented run, so segment averages converge to the
    same expectation. With the rect window and no max_lag, eps = +1 gives
    standard_psd's values and variance; the module docstring gives the routes.
    """
    if variant not in ("t0", "tbar"):
        raise ValueError("variant must be 't0' or 'tbar'")
    fspec = FilterSpec(epsilon=epsilon, omega_beat=trace.omega_beat,
                       phase_offset=2.0 * theta,
                       dynamic_offset=_drift_offset(trace, phase_correction))
    segments, n_fft = _segments(trace, segments)
    meta = {"kind": "rhet", "variant": variant, "epsilon": float(epsilon),
            "theta": float(theta), "segments": segments, "window": window,
            "max_lag": max_lag, "corrected": phase_correction is not None,
            "omega_beat": trace.omega_beat}
    if max_lag is not None or window != "rect":
        def lag_rows(s, t_off, seg, space):
            ac = filtered_autocorr(replace(trace, samples=seg), fspec,
                                   max_lag=max_lag, variant=variant,
                                   t_offset=t_off)
            psd = psd_from_autocorr(ac, window, max_lag).values
            return psd[n_fft // 2::-1][None]  # its non-negative bins

        moments, a = _segment_moments(trace, segments, lag_rows), np.eye(1)
    elif epsilon == 1.0:
        welch = standard_psd(trace, segments)
        return replace(welch, meta={**welch.meta, **meta})
    elif variant == "tbar":
        moments = _stream_basis(trace, segments, variant, phase_correction)
        a = _quadrature_weights(epsilon, [theta])
    else:  # the literal filter F = a + b s on the rows (P0, T)
        moments = _t0_moments(trace, segments, fspec, phase_correction)
        a = 0.5 * np.array([[1.0 + fspec.epsilon, 1.0 - fspec.epsilon]])
    return _spectrum(moments, a, n_fft, trace.dt, meta)


def complex_corr_spectrum(trace: TimeTrace, segments: int = 1) -> Spectrum:
    """Cross-spectrum between the down- and up-rotated currents:

        C(w) = (dt/N) conj(FFT[i e^{-i Om t}]) FFT[i e^{+i Om t}]

    For a trace recorded at LO phase theta0, E[C(w)] = e^{-2i theta0}
    s_aa(w): the anomalous field correlation up to the fixed LO rotation.
    The up-rotated current is the conjugate of the down-rotated one, so
    C(w) = (dt/N) conj(V(w) V(-w)) with V = FFT[i e^{-i Om t}]: even in w,
    from one transform per segment. Returned values are complex; variance
    is the total (real plus imaginary) across-segment variance of the mean.
    """
    om = trace.omega_beat
    segments, n_seg = _segments(trace, segments)
    local = _cis((-om) * (np.arange(n_seg) * trace.dt))

    def cross_rows(s, t_off, seg, space):
        v = local * _cis((-om) * t_off)
        v *= seg
        c = _pair(np.multiply, _in_place(np.fft.fft, v), n_seg)
        np.conj(c, out=c)
        c *= trace.dt / n_seg
        return np.stack((c.real, c.imag))

    moments = _segment_moments(trace, segments, cross_rows)
    return _spectrum(moments, np.array([[1.0, 1j]]), n_seg, trace.dt,
                     {"kind": "complex_corr", "segments": segments,
                      "omega_beat": om})
