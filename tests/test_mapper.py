"""Phase maps: fast-path equivalence, normalization, peak readers, and the
zero-contour tracer."""
import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from rhet import (GridError, PhaseDriftSpec, Spectrum, ThetaMap, demodulate,
                  normalize_map, peak_amplitude, peak_location, rhet_spectrum,
                  standard_psd, synth_gaussian_trace, theta_map_exact,
                  theta_map_fast, zero_contour)
from rhet.core import TWO_PI, TimeTrace
from rhet.estimator import (_combine, _quadrature_weights, _stream_basis,
                            _thread_count)


def _band(cfg):
    m1 = cfg.modes[0]
    return (m1.omega_m - cfg.omega_beat - 4 * m1.gamma,
            m1.omega_m + cfg.omega_beat + 4 * m1.gamma)


def test_theta_grid_covers_half_turn(short_trace):
    m = theta_map_fast(short_trace, 0.0, n_theta=8,
                       band=(TWO_PI * 3.5e5, TWO_PI * 4.1e5))
    assert np.allclose(m.thetas, np.arange(8) * np.pi / 8)
    m800 = theta_map_fast(short_trace, 0.0, n_theta=800,
                          band=(TWO_PI * 3.5e5, TWO_PI * 4.1e5))
    assert m800.thetas[400] == pytest.approx(np.pi / 2, abs=1e-15)
    assert m800.spectra.shape == (800, m800.freqs.size)


def test_fast_map_equals_exact_map_for_tbar(thermal_cfg, short_trace):
    band = _band(thermal_cfg)
    mf = theta_map_fast(short_trace, -1.0, n_theta=6, variant="tbar",
                        segments=4, band=band)
    me = theta_map_exact(short_trace, -1.0, n_theta=6, variant="tbar",
                         segments=4, band=band)
    assert np.array_equal(mf.thetas, me.thetas)
    assert np.array_equal(mf.freqs, me.freqs)
    scale = np.max(np.abs(me.spectra))
    assert np.max(np.abs(mf.spectra - me.spectra)) < 1e-12 * scale


def test_fast_t0_map_matches_exact_within_two_percent(thermal_cfg, trace42):
    # the t0 fast path keeps the fundamental harmonic only; on the 2 s
    # record the residual is ~1.4% RMS at the map's default epsilon
    band = _band(thermal_cfg)
    mf = theta_map_fast(trace42, 0.0, n_theta=8, variant="t0", segments=64,
                        band=band)
    me = theta_map_exact(trace42, 0.0, n_theta=8, variant="t0", segments=64,
                         band=band)
    rms = np.sqrt(np.mean((mf.spectra - me.spectra) ** 2))
    assert rms / np.sqrt(np.mean(me.spectra ** 2)) <= 0.02


def test_eps_plus_one_rows_are_all_welch(thermal_cfg, short_trace):
    band = _band(thermal_cfg)
    m = theta_map_fast(short_trace, 1.0, n_theta=5, segments=4, band=band)
    for row in m.spectra[1:]:
        assert np.array_equal(row, m.spectra[0])
    w = standard_psd(short_trace, segments=4)
    sel = (w.freqs >= band[0]) & (w.freqs <= band[1])
    assert np.max(np.abs(m.spectra[0] - w.values[sel])) < \
        1e-12 * np.max(w.values[sel])
    # the exact map's rows read the Welch row of the one basis it builds
    for variant in ("tbar", "t0"):
        trace = _fresh(short_trace)
        me = theta_map_exact(trace, 1.0, n_theta=3, variant=variant,
                             segments=4, band=band)
        assert [key[0] for key in trace._bases] == ["basis"]
        assert me.spectra.tobytes() == m.spectra[:3].tobytes()


def test_normalize_map_scales_and_records(short_trace):
    m = theta_map_fast(short_trace, 0.0, n_theta=4,
                       band=(TWO_PI * 3.5e5, TWO_PI * 4.1e5))
    nm = normalize_map(m, 2.0)
    assert nm.normalization == 2.0
    assert np.allclose(nm.spectra, m.spectra / 2.0)
    with pytest.raises(ValueError):
        normalize_map(m, 0.0)
    with pytest.raises(ValueError):
        normalize_map(m, -1.0)


def test_peak_readers_on_synthetic_features():
    f = np.linspace(-10.0, 10.0, 401)
    # quadratic with known vertex, plus a flat pedestal
    spec = Spectrum(freqs=f, values=5.0 - 0.3 * (f - 1.2) ** 2)
    assert peak_amplitude(spec, 1.0, 3.0) == pytest.approx(5.0, abs=1e-9)
    assert peak_location(spec, 1.0, 3.0) == pytest.approx(1.2, abs=1e-9)
    dip = Spectrum(freqs=f, values=-5.0 + 0.3 * (f - 1.2) ** 2)
    assert peak_amplitude(dip, 1.0, 3.0) == pytest.approx(-5.0, abs=1e-9)
    assert peak_location(dip, 1.0, 3.0) == pytest.approx(1.2, abs=1e-9)
    # baseline subtraction strips a constant background
    lifted = Spectrum(freqs=f, values=7.0 + np.where(np.abs(f - 1.2) < 2.0,
                                                     5.0 - 0.3 * (f - 1.2) ** 2,
                                                     0.0))
    amp = peak_amplitude(lifted, 1.2, 1.0, subtract_baseline=True)
    assert amp == pytest.approx(5.0, rel=0.05)
    # the ring out to 4 halfwidths must hold 3 bins to give a median
    sparse = Spectrum(freqs=np.array([-0.1, 0.0, 0.1, 0.5, 2.0]),
                      values=np.zeros(5))
    with pytest.raises(ValueError, match="baseline ring holds fewer than 3"):
        peak_amplitude(sparse, 0.0, 0.1, subtract_baseline=True)


def test_zero_contour_on_synthetic_map():
    thetas = np.arange(800) * np.pi / 800
    omegas = np.linspace(10.0, 20.0, 31)
    slope_true = 0.04
    psi = 0.2 + slope_true * (omegas - 10.0)  # correlation phase vs omega
    rows = np.cos(2.0 * thetas[:, None] - psi[None, :])
    m = ThetaMap(thetas=thetas, freqs=omegas, spectra=rows)
    om, theta_star, slope = zero_contour(m)
    assert np.array_equal(om, omegas)
    # first zero of cos(2 theta - psi) is at theta = psi/2 + pi/4
    assert np.max(np.abs(theta_star - (0.5 * psi + np.pi / 4))) < 1e-4
    assert slope == pytest.approx(0.5 * slope_true, rel=1e-3)


def test_zero_contour_requires_a_crossing():
    thetas = np.arange(16) * np.pi / 16
    m = ThetaMap(thetas=thetas, freqs=np.array([1.0, 2.0]),
                 spectra=np.ones((16, 2)))
    with pytest.raises(ValueError, match="no zero crossing"):
        zero_contour(m)


def test_band_restriction_and_meta(short_trace):
    band = (TWO_PI * 3.5e5, TWO_PI * 4.1e5)
    m = theta_map_fast(short_trace, -1.0, n_theta=4, band=band)
    assert m.freqs[0] >= band[0] and m.freqs[-1] <= band[1]
    assert m.meta["path"] == "fast"
    me = theta_map_exact(short_trace, -1.0, n_theta=2, band=band)
    assert me.meta["path"] == "exact"
    with pytest.raises(ValueError):
        theta_map_fast(short_trace, -1.0, n_theta=4, variant="tmid")


def test_map_workers_bit_identical(short_trace):
    band = (TWO_PI * 3.0e5, TWO_PI * 4.6e5)
    a = theta_map_fast(short_trace, -1.0, n_theta=16, segments=4, band=band,
                       workers=1)
    b = theta_map_fast(short_trace, -1.0, n_theta=16, segments=4, band=band,
                       workers=4)
    assert np.array_equal(a.spectra, b.spectra)


@pytest.mark.parametrize("fn", [theta_map_fast])
def test_map_functions_reject_workers_below_one(short_trace, fn):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        fn(short_trace, -1.0, n_theta=2, workers=0)


def test_map_worker_counts_share_one_stream_basis(short_trace):
    # any thread count builds the same bits, so none keys the memo
    trace = TimeTrace(samples=short_trace.samples.copy(), dt=short_trace.dt,
                      omega_beat=short_trace.omega_beat)
    maps = [theta_map_fast(trace, -1.0, n_theta=8, segments=4, workers=w)
            for w in (1, 8)]
    assert [key[0] for key in trace._bases] == ["basis"]
    assert maps[0].spectra.tobytes() == maps[1].spectra.tobytes()


@pytest.fixture(scope="module")
def pilot_trace(thermal_cfg):
    """50 ms with a sine LO drift and a pilot, and its lock-in series."""
    cfg = dataclasses.replace(thermal_cfg, drift=PhaseDriftSpec(
        amplitude=0.5, freq_hz=25.0, kind="sine"))
    trace = synth_gaussian_trace(cfg, 0.05, 2e-7, seed=19,
                                 pilot_amplitude=2500.0)
    return trace, demodulate(trace)


def _fresh(trace):
    """A copy of the trace with an empty memo."""
    return TimeTrace(samples=trace.samples.copy(), dt=trace.dt,
                     omega_beat=trace.omega_beat,
                     theta_nominal=trace.theta_nominal)


@pytest.mark.parametrize("segments", [1, 2, 3, 5, 16])
def test_outputs_are_bit_identical_for_any_thread_count(pilot_trace,
                                                        segments):
    # every basis is built afresh on the given thread count; the calling
    # thread adds the segments in order, so no count may move a bit of a
    # fast map (40 rows: three blocks) or of a tbar spectrum read from it
    trace, series = pilot_trace

    def outputs(workers):
        out = []
        for variant in ("tbar", "t0"):
            for ps in (None, series):
                tr = _fresh(trace)
                m = theta_map_fast(tr, -1.0, n_theta=40, variant=variant,
                                   segments=segments, phase_correction=ps,
                                   workers=workers)
                out.append(m.spectra.tobytes())
                if variant == "tbar":
                    sp = rhet_spectrum(tr, 0.3, 0.4, segments=segments,
                                       phase_correction=ps)
                    out += [sp.values.tobytes(),
                            b"" if sp.variance is None
                            else sp.variance.tobytes()]
        return out

    want = outputs(1)
    for workers in (2, 3, 8):
        assert outputs(workers) == want


def test_exact_map_builds_its_basis_on_the_given_threads(pilot_trace):
    # the exact map builds its basis on every usable CPU: the same bits as
    # the fast map's basis on one thread or three
    trace, series = pilot_trace
    exact = theta_map_exact(_fresh(trace), -1.0, n_theta=3, segments=5,
                            phase_correction=series)
    for w in (1, 3):
        fast = theta_map_fast(_fresh(trace), -1.0, n_theta=3, segments=5,
                              phase_correction=series, workers=w)
        assert fast.spectra.tobytes() == exact.spectra.tobytes()


def test_workers_default_to_every_usable_cpu(short_trace, monkeypatch):
    assert _thread_count(None) == len(os.sched_getaffinity(0))
    assert _thread_count(3) == 3
    a = theta_map_fast(_fresh(short_trace), -1.0, n_theta=4, segments=4)
    b = theta_map_fast(_fresh(short_trace), -1.0, n_theta=4, segments=4,
                       workers=1)
    assert a.spectra.tobytes() == b.spectra.tobytes()
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _thread_count(None) == (os.cpu_count() or 1)


def test_importing_rhet_starts_no_thread():
    code = "import threading, rhet; print(threading.active_count())"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "1"


def test_fast_map_fills_rows_without_a_map_sized_temporary(noise_trace):
    # the old assembly, _combine over all rows at once, holds a second
    # map-sized temporary; the blocks hold one 16-row temporary per thread
    trace = _fresh(noise_trace)
    basis = _stream_basis(trace, 1, "tbar", None)
    cols = np.abs(np.arange(trace.n) - trace.n // 2)

    def peak(fn):
        tracemalloc.start()
        try:
            out = fn()
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    p_new, m = peak(lambda: theta_map_fast(trace, -1.0, n_theta=400,
                                           workers=2))
    p_old, rows = peak(lambda: _combine(_quadrature_weights(-1.0, m.thetas),
                                        basis.mean[:, cols]))
    assert rows.tobytes() == m.spectra.tobytes()
    assert p_old - p_new == pytest.approx(m.spectra.nbytes, rel=0.15)


@pytest.mark.parametrize("epsilon", [2.0, -1.5, np.nan])
def test_fast_map_checks_epsilon_like_the_filter(noise_trace, epsilon):
    # the fast path applies no filter to the trace, yet epsilon still weights it
    with pytest.raises(ValueError, match=r"epsilon must lie in \[-1, 1\]"):
        theta_map_fast(noise_trace, epsilon, n_theta=4)
