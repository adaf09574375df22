"""Filter-phase maps: the filtered spectrum as a function of theta.

theta enters only through e^{-i 2 theta} on one complex row of the trace's
memoised stream basis (see rhet.estimator):

    S(theta, w) = c0 * P0(w) + c1 * Re[e^{-i 2 theta} G(w)]

The estimator's segment driver builds the basis on `workers` threads
(None: every usable CPU); the fast path then fills its rows in blocks on
as many, elementwise in a fixed order: any count gives the same bits. The
exact path calls rhet_spectrum per theta, which in tbar (or eps = +1)
reads the basis, so the map equals the fast map to the bit. A t0 exact
map samples the true square wave while the fast path keeps the
fundamental only, a couple percent on band-limited spectra.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .core import (FilterSpec, PhaseSeries, Spectrum, ThetaMap, TimeTrace,
                   _fits)
from .estimator import (_combine, _on_threads, _quadrature_weights,
                        _segments, _spectrum_grid, _stream_basis,
                        _thread_count, rhet_spectrum)


def _theta_grid(n_theta: int) -> np.ndarray:
    if n_theta < 2:
        raise ValueError("n_theta must be >= 2")
    return np.linspace(0.0, np.pi, n_theta, endpoint=False)


def _band_mask(freqs: np.ndarray, band) -> np.ndarray:
    if band is None:
        return np.ones(freqs.size, dtype=bool)
    lo, hi = band
    if not (hi > lo):
        raise ValueError("band must be (lo, hi) with hi > lo")
    m = (freqs >= lo) & (freqs <= hi)
    if not np.any(m):
        raise ValueError("band selects no frequency bins")
    return m


def _map_grid(trace: TimeTrace, segments: int, band):
    """Segment length, in-band frequencies and band mask of a map."""
    n_seg = _segments(trace, segments)
    freqs = _spectrum_grid(n_seg, trace.dt)
    mask = _band_mask(freqs, band)
    return n_seg, freqs[mask], mask


def theta_map_exact(trace: TimeTrace, epsilon: float, n_theta: int = 800,
                    variant: str = "tbar", segments: int = 1,
                    band=None, phase_correction: Optional[PhaseSeries] = None
                    ) -> ThetaMap:
    """Reference map: one rhet_spectrum call per theta row."""
    _, freqs, mask = _map_grid(trace, segments, band)
    with _fits(f"a map of {n_theta} theta by {freqs.size} columns"):
        thetas = _theta_grid(n_theta)
        rows = np.empty((n_theta, freqs.size))
    FilterSpec(epsilon=epsilon, omega_beat=trace.omega_beat)  # checks epsilon
    if variant == "tbar" or epsilon == 1.0:  # the rows read it from the memo
        _stream_basis(trace, segments, variant, phase_correction)
    for row, th in zip(rows, thetas):
        row[:] = rhet_spectrum(trace, epsilon, th, variant=variant,
                               segments=segments,
                               phase_correction=phase_correction).values[mask]
    return ThetaMap(thetas=thetas, freqs=freqs, spectra=rows,
                    meta={"variant": variant, "epsilon": float(epsilon),
                          "segments": segments, "path": "exact"})


def theta_map_fast(trace: TimeTrace, epsilon: float, n_theta: int = 800,
                   variant: str = "tbar", segments: int = 1,
                   band=None, phase_correction: Optional[PhaseSeries] = None,
                   workers: Optional[int] = None) -> ThetaMap:
    """Stream-synthesized map; see module docstring for the contract."""
    if variant not in ("t0", "tbar"):
        raise ValueError("variant must be 't0' or 'tbar'")
    FilterSpec(epsilon=epsilon, omega_beat=trace.omega_beat)  # checks epsilon
    workers = _thread_count(workers)
    n_seg, freqs, mask = _map_grid(trace, segments, band)
    size = f"a map of {n_theta} theta by {freqs.size} columns"
    with _fits(size):
        thetas = _theta_grid(n_theta)
    basis = _stream_basis(trace, segments, variant, phase_correction, workers)
    # the non-negative bin of each in-band column (the streams are even in w)
    cols = np.abs(np.arange(n_seg) - n_seg // 2)[mask]
    with _fits(size):
        a, mean = _quadrature_weights(epsilon, thetas), basis.mean[:, cols]
        rows = np.empty((n_theta, cols.size))
    blk = [slice(i, i + 16) for i in range(0, n_theta, 16)]  # theta rows
    _on_threads(lambda b, _: _combine(a[blk[b]], mean, out=rows[blk[b]]),
                len(blk), workers)
    return ThetaMap(thetas=thetas, freqs=freqs, spectra=rows,
                    meta={"variant": variant, "epsilon": float(epsilon),
                          "segments": segments, "path": "fast"})


def normalize_map(m: ThetaMap, reference_peak: float) -> ThetaMap:
    """Scale the map so reference_peak maps to 1. The applied factor
    accumulates in `normalization` so the operation is invertible."""
    if not (reference_peak > 0):
        raise ValueError("reference_peak must be positive")
    return ThetaMap(thetas=m.thetas, freqs=m.freqs,
                    spectra=m.spectra / reference_peak,
                    normalization=m.normalization * reference_peak,
                    meta=dict(m.meta))


def _peak_window(spectrum: Spectrum, center, halfwidth):
    mask = np.abs(spectrum.freqs - center) <= halfwidth
    if np.count_nonzero(mask) < 3:
        raise ValueError("peak window holds fewer than 3 bins")
    return (spectrum.freqs[mask] - center,
            np.real(spectrum.values[mask]).astype(float))


def _quad_vertex(x, v):
    """Quadratic fit; returns (x*, v*) at the extremum, clamped to the
    window. Falls back to the extreme sample when the fit degenerates."""
    c = np.polyfit(x, v, 2)
    if c[0] != 0.0:
        xs = -c[1] / (2.0 * c[0])
        if x.min() <= xs <= x.max():
            return xs, float(np.polyval(c, xs))
    k = int(np.argmax(np.abs(v - np.median(v))))
    return float(x[k]), float(v[k])


def peak_amplitude(spectrum: Spectrum, center: float, halfwidth: float,
                   subtract_baseline: bool = False) -> float:
    """Signed feature amplitude near `center` from a local quadratic fit
    (robust to the bin grid straddling the true peak).

    With subtract_baseline, the median of the surrounding ring of bins
    (farther than halfwidth from center, within 4 halfwidths) is removed
    first, which turns "height" into "height above the local background".
    """
    x, v = _peak_window(spectrum, center, halfwidth)
    base = 0.0
    if subtract_baseline:
        ring = (np.abs(spectrum.freqs - center) > halfwidth) \
            & (np.abs(spectrum.freqs - center) <= 4.0 * halfwidth)
        if np.count_nonzero(ring) < 3:
            raise ValueError("baseline ring holds fewer than 3 bins")
        base = float(np.median(np.real(spectrum.values[ring])))
    _, amp = _quad_vertex(x, v - base)
    return amp


def peak_location(spectrum: Spectrum, center: float, halfwidth: float) -> float:
    """Frequency of the extremum of the local quadratic fit near `center`.

    The vertex of the fit is used whether the feature points up or down, so
    negative-going correlation peaks resolve to the same location as their
    positive mirror.
    """
    xs, _ = _quad_vertex(*_peak_window(spectrum, center, halfwidth))
    return center + xs


def zero_contour(m: ThetaMap, band=None):
    """Trace theta*(w), the first zero crossing of each map column.

    Returns (omegas, theta_star, slope) where slope is the least-squares
    d theta*/d omega over the band. Columns without a sign change raise:
    the contour only exists where the correlation term actually crosses
    zero inside theta in [0, pi).
    """
    mask = _band_mask(m.freqs, band)
    omegas = m.freqs[mask]
    cols = m.spectra[:, mask]
    dth = m.thetas[1] - m.thetas[0]
    theta_star = np.empty(omegas.size)
    for j in range(omegas.size):
        v = cols[:, j]
        sign_change = np.nonzero((v[:-1] == 0.0) | (np.sign(v[:-1]) != np.sign(v[1:])))[0]
        if sign_change.size == 0:
            raise ValueError(
                f"no zero crossing at omega/2pi = {omegas[j] / (2 * np.pi):.6g} Hz")
        k = int(sign_change[0])
        v0, v1 = v[k], v[k + 1]
        frac = 0.0 if v0 == v1 else v0 / (v0 - v1)
        theta_star[j] = m.thetas[k] + dth * frac
    slope = float(np.polyfit(omegas, theta_star, 1)[0]) if omegas.size >= 2 else 0.0
    return omegas, theta_star, slope
