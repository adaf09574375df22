"""Estimator oracles and identities.

The filtered autocorrelation carries the whole method, so it gets direct
double-sum oracles: the FFT/rotation algebra must reproduce a brute-force
evaluation of the defining sums sample by sample, for both variants and
with a drifting filter phase.
"""
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhet import (Autocorrelation, FilterSpec, PhaseSeries,
                  correct_and_estimate, eval_filter,
                  filter_coefficients, filtered_autocorr,
                  complex_corr_spectrum, psd_from_autocorr, rhet_spectrum,
                  standard_psd, synth_gaussian_trace, theta_map_exact,
                  theta_map_fast)
from rhet.core import TWO_PI, TimeTrace

OMEGA = TWO_PI * 1.0e4


# ------------------------------------------------------------- eval_filter

def test_eval_filter_values_and_period():
    f = FilterSpec(epsilon=-0.4, omega_beat=OMEGA, phase_offset=0.7)
    rng = np.random.default_rng(0)
    t = rng.uniform(0.0, 1.0, 512)
    vals = eval_filter(f, t)
    assert set(np.unique(vals)) <= {1.0, -0.4}
    assert np.array_equal(vals, eval_filter(f, t + np.pi / OMEGA))


def test_eval_filter_boundaries_belong_to_plus_one():
    # 2*omega_beat = 1 makes psi = t exactly, so the half-cycle edges at
    # psi = +-pi/2 are float-exact probe points
    f = FilterSpec(epsilon=-0.4, omega_beat=0.5, phase_offset=0.0)
    probes = np.array([-0.5 * np.pi, 0.5 * np.pi, 0.0])
    assert eval_filter(f, probes).tolist() == [1.0, 1.0, 1.0]
    outside = np.array([0.5 * np.pi + 1e-9, -0.5 * np.pi - 1e-9])
    assert eval_filter(f, outside).tolist() == [-0.4, -0.4]


def test_eval_filter_is_affine_in_epsilon():
    rng = np.random.default_rng(1)
    t = rng.uniform(0.0, 0.5, 256)
    lo = eval_filter(FilterSpec(-1.0, OMEGA, 0.3), t)
    hi = eval_filter(FilterSpec(1.0, OMEGA, 0.3), t)
    for eps in (-1.0, -0.25, 0.0, 0.6, 1.0):
        mix = eval_filter(FilterSpec(eps, OMEGA, 0.3), t)
        want = 0.5 * (1 + eps) * hi + 0.5 * (1 - eps) * lo
        assert np.max(np.abs(mix - want)) < 1e-15


def test_eval_filter_constant_dynamic_offset_shifts_the_phase():
    t = np.linspace(0.0, 2e-3, 777)
    series = PhaseSeries(times=np.array([0.0, 2e-3]),
                         theta=np.array([0.45, 0.45]))
    dyn = eval_filter(FilterSpec(-1.0, OMEGA, 0.2, dynamic_offset=series), t)
    static = eval_filter(FilterSpec(-1.0, OMEGA, 0.2 + 0.45), t)
    assert np.array_equal(dyn, static)


def _literal_filter(f, t):
    """The defining formula, with np.mod over every sample."""
    psi = 2.0 * f.omega_beat * t - f.phase_offset
    if f.dynamic_offset is not None:
        psi = psi - f.dynamic_offset.sample_at(t)
    psi = psi + 0.5 * np.pi
    return np.where(np.mod(psi, TWO_PI) <= np.pi, 1.0, f.epsilon)


@settings(max_examples=80, deadline=None)
@given(omega=st.floats(1.0, 1e6), phase=st.floats(-20.0, 20.0),
       eps=st.floats(-1.0, 1.0), dt=st.floats(1e-9, 1e-3),
       offset=st.floats(-1e3, 1e3), per_half_cycle=st.integers(1, 64),
       grid=st.sampled_from(["free", "commensurate", "on the edges"]),
       drift=st.floats(-1.5, 1.5) | st.none())
def test_eval_filter_mask_is_np_mods_to_the_bit(omega, phase, eps, dt, offset,
                                                per_half_cycle, grid, drift):
    # a commensurate dt puts samples at (float-rounded) half-cycle edges;
    # with 2 omega = 1 and no phase offset they land there exactly
    if grid == "commensurate":
        dt = (np.pi / omega) / per_half_cycle
    elif grid == "on the edges":
        omega, phase, dt = 0.5, 0.0, np.pi / per_half_cycle
        offset = np.round(offset) * np.pi
    t = offset + np.arange(4099) * dt
    series = None
    if drift is not None:
        ts = np.linspace(t[0] - 1.0, t[-1] + 1.0, 33)
        series = PhaseSeries(times=ts, theta=drift * np.sin(np.arange(33.0)))
    f = FilterSpec(epsilon=eps, omega_beat=omega, phase_offset=phase,
                   dynamic_offset=series)
    assert eval_filter(f, t).tobytes() == _literal_filter(f, t).tobytes()
    assert eval_filter(f, t[::-1]).tobytes() == \
        _literal_filter(f, t[::-1]).tobytes()
    assert eval_filter(f, t[5]).shape == ()


def test_spectrum_grid_is_shared_read_only_and_fftfreqs():
    from rhet.core import _spectrum_grid
    for n in (16, 17, 4095, 4096, 39062, 156250, 156251):
        for dt in (2e-7, 1.0 / 3.0):
            grid = _spectrum_grid(n, dt)
            want = TWO_PI * np.fft.fftshift(np.fft.fftfreq(n, dt))
            assert grid.tobytes() == want.tobytes()
            assert not grid.flags.writeable
            assert _spectrum_grid(n, dt) is grid


# ------------------------------------------------- brute double-sum oracles

def _brute_t0_circular(trace, f):
    n = trace.n
    w = eval_filter(f, trace.times())
    cur = trace.samples
    full = np.empty(n)
    for m in range(n):
        full[m] = np.mean(w * cur * np.roll(cur, -m))
    half = n // 2
    out = full[: half + 1].copy()
    out[1:] = 0.5 * (out[1:] + full[n - np.arange(1, half + 1)])
    return out


def _kernel(f, t_mid):
    """Filter kernel at the midpoint times: the square wave's mean c0 plus
    its fundamental."""
    return filter_coefficients(f.epsilon, 0) + 2.0 * filter_coefficients(
        f.epsilon, 1) * np.cos(2.0 * f.omega_beat * t_mid - f.phase_offset)


def _brute_tbar_circular(trace, f):
    n = trace.n
    t = trace.times()
    cur = trace.samples
    full = np.empty(n)
    for m in range(n):
        tau = (m if m <= n // 2 else m - n) * trace.dt
        full[m] = np.mean(_kernel(f, t + 0.5 * tau)
                          * cur * np.roll(cur, -m))
    half = n // 2
    out = full[: half + 1].copy()
    out[1:] = 0.5 * (out[1:] + full[n - np.arange(1, half + 1)])
    return out


@pytest.mark.parametrize("eps", [-1.0, 0.3])
def test_t0_autocorr_matches_brute_circular(noise_trace, eps):
    f = FilterSpec(epsilon=eps, omega_beat=OMEGA, phase_offset=0.8)
    ac = filtered_autocorr(noise_trace, f, variant="t0")
    brute = _brute_t0_circular(noise_trace, f)
    assert ac.values.shape == brute.shape
    assert np.max(np.abs(ac.values - brute)) < 1e-10


@pytest.mark.parametrize("eps", [-1.0, 0.3])
def test_tbar_autocorr_matches_brute_circular(noise_trace, eps):
    f = FilterSpec(epsilon=eps, omega_beat=OMEGA, phase_offset=0.8)
    ac = filtered_autocorr(noise_trace, f, variant="tbar")
    brute = _brute_tbar_circular(noise_trace, f)
    assert np.max(np.abs(ac.values - brute)) < 1e-10


def test_tbar_autocorr_with_drift_matches_brute(noise_trace):
    # drifting filter phase: the streams carry half the excursion on each
    # side of the pair; the brute sum applies exactly that kernel
    n = noise_trace.n
    t = noise_trace.times()
    dser = PhaseSeries(times=np.linspace(0.0, noise_trace.duration, 32),
                       theta=0.3 * np.sin(np.linspace(0.0, 4.0, 32)))
    f = FilterSpec(epsilon=-1.0, omega_beat=OMEGA, phase_offset=0.8,
                   dynamic_offset=dser)
    ac = filtered_autocorr(noise_trace, f, variant="tbar")
    d = dser.sample_at(t)
    cur = noise_trace.samples
    ck = filter_coefficients(-1.0, 1)
    full = np.empty(n)
    for m in range(n):
        tau = (m if m <= n // 2 else m - n) * noise_trace.dt
        dpair = 0.5 * (d + np.roll(d, -m))
        kern = 2.0 * ck * np.cos(2.0 * OMEGA * t + OMEGA * tau
                                 - f.phase_offset - dpair)
        full[m] = np.mean(kern * cur * np.roll(cur, -m))
    half = n // 2
    brute = full[: half + 1].copy()
    brute[1:] = 0.5 * (brute[1:] + full[n - np.arange(1, half + 1)])
    assert np.max(np.abs(ac.values - brute)) < 1e-10


# ------------------------------------------------------------- identities

def test_eps_plus_one_is_plain_welch(short_trace, monkeypatch):
    # F = 1: either variant, with or without a phase series, is
    # standard_psd to the byte, on a fresh trace and on one holding a basis
    ref = standard_psd(_fresh(short_trace), segments=8)
    cases = [(variant, series) for variant in ("tbar", "t0")
             for series in (None, _drift_series(short_trace))]
    held = _fresh(short_trace)
    rhet_spectrum(held, -1.0, 0.3, segments=8)
    for fresh in (True, False):
        if not fresh:
            _no_rfft(monkeypatch)  # the held basis gives every row
        for variant, series in cases:
            spec = rhet_spectrum(_fresh(short_trace) if fresh else held, 1.0,
                                 0.77, variant=variant, segments=8,
                                 phase_correction=series)
            assert np.array_equal(spec.freqs, ref.freqs)
            assert spec.values.tobytes() == ref.values.tobytes()
            assert spec.variance.tobytes() == ref.variance.tobytes()
            assert spec.meta["kind"] == "rhet"
            assert spec.meta["corrected"] is (series is not None)
    assert len(held._bases) == 1


@settings(max_examples=25, deadline=None)
@given(eps=st.floats(-1.0, 1.0, allow_nan=False))
def test_affinity_in_epsilon(eps):
    rng = np.random.default_rng(7)
    trace = TimeTrace(samples=rng.standard_normal(2048),
                      dt=(TWO_PI / OMEGA) / 24.6180339887, omega_beat=OMEGA)
    for variant in ("tbar", "t0"):
        plus = rhet_spectrum(trace, 1.0, 0.31, variant=variant)
        minus = rhet_spectrum(trace, -1.0, 0.31, variant=variant)
        mix = rhet_spectrum(trace, eps, 0.31, variant=variant)
        want = 0.5 * (1 + eps) * plus.values + 0.5 * (1 - eps) * minus.values
        assert np.max(np.abs(mix.values - want)) < \
            1e-12 * np.max(np.abs(plus.values))


def test_spectrum_pipeline_matches_autocorr_route(noise_trace):
    f = FilterSpec(epsilon=-1.0, omega_beat=OMEGA, phase_offset=2 * 0.25)
    ac = filtered_autocorr(noise_trace, f, variant="tbar")
    via_ac = psd_from_autocorr(ac)
    direct = rhet_spectrum(noise_trace, -1.0, 0.25, variant="tbar")
    assert np.array_equal(via_ac.freqs, direct.freqs)
    assert np.max(np.abs(via_ac.values - direct.values)) < \
        1e-12 * np.max(np.abs(direct.values))


@pytest.mark.parametrize("variant", ["tbar", "t0"])
def test_spectrum_matches_per_segment_autocorr_rows(noise_trace, variant):
    # values and variance against the lag route, one segment at a time: the
    # default route, a hann lag window and a truncated max_lag
    dt, seg_n = noise_trace.dt, noise_trace.n // 4
    f = FilterSpec(epsilon=-0.4, omega_beat=OMEGA, phase_offset=2 * 0.6)
    acs = []
    for s in range(4):
        seg = TimeTrace(samples=noise_trace.samples[s * seg_n:(s + 1) * seg_n],
                        dt=dt, omega_beat=OMEGA)
        acs.append(filtered_autocorr(seg, f, variant=variant,
                                     t_offset=s * seg_n * dt))
    for window, max_lag in (("rect", None), ("hann", None),
                            ("rect", 40 * dt)):
        rows = np.array([psd_from_autocorr(ac, window, max_lag).values
                         for ac in acs])
        spec = rhet_spectrum(noise_trace, -0.4, 0.6, variant=variant,
                             segments=4, max_lag=max_lag, window=window)
        want_var = np.var(rows, axis=0, ddof=1) / 4
        assert np.max(np.abs(spec.values - rows.mean(axis=0))) < \
            1e-12 * np.max(np.abs(spec.values))
        assert np.max(np.abs(spec.variance - want_var)) < \
            1e-12 * np.max(want_var)
    # a max_lag past half the segment keeps every lag: the lag route then
    # reproduces the engine's drift-corrected spectrum
    series = _drift_series(noise_trace)
    lags, engine = (rhet_spectrum(noise_trace, -0.4, 0.6, variant=variant,
                                  segments=4, phase_correction=series,
                                  max_lag=max_lag)
                    for max_lag in (0.99 * seg_n * dt, None))
    for a, b in ((lags.values, engine.values),
                 (lags.variance, engine.variance)):
        assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(b))


def _fresh(trace):
    return TimeTrace(samples=trace.samples.copy(), dt=trace.dt,
                     omega_beat=trace.omega_beat,
                     theta_nominal=trace.theta_nominal)


def test_memoised_basis_is_bit_identical_to_a_fresh_trace(short_trace):
    trace = _fresh(short_trace)
    for eps, th in ((-1.0, 0.0), (0.3, 1.1), (1.0, 0.2)):
        rhet_spectrum(trace, eps, th, segments=4)
    again = rhet_spectrum(trace, -0.5, 0.4, segments=4)
    fresh = rhet_spectrum(_fresh(short_trace), -0.5, 0.4, segments=4)
    assert np.array_equal(again.values, fresh.values)
    assert np.array_equal(again.variance, fresh.variance)


def test_memo_keys_on_segments_and_phase_series(short_trace):
    trace = _fresh(short_trace)
    ts = np.linspace(0.0, trace.duration, 64)
    series = [PhaseSeries(times=ts, theta=a * np.sin(12.0 * ts))
              for a in (0.1, 0.4)]
    calls = [dict(segments=4), dict(segments=8),
             dict(segments=4, phase_correction=series[0]),
             dict(segments=4, phase_correction=series[1])]
    for kw in calls:
        memo = rhet_spectrum(trace, -1.0, 0.3, **kw)
        fresh = rhet_spectrum(_fresh(short_trace), -1.0, 0.3, **kw)
        assert np.array_equal(memo.values, fresh.values)


def _no_rfft(monkeypatch):
    """Make any real FFT fail, to show a result came from a memo."""
    def fail(*args, **kwargs):
        raise AssertionError("rfft called")
    monkeypatch.setattr(np.fft, "rfft", fail)


def _drift_series(trace):
    ts = np.linspace(0.0, trace.duration, 64)
    return PhaseSeries(times=ts, theta=0.3 * np.sin(12.0 * ts))


@pytest.mark.parametrize("basis", ["static", "drift", "t0", "t0 entry"])
@pytest.mark.parametrize("n", [4 * 4096, 4 * 4095])
def test_welch_from_a_stream_basis_is_bit_identical(short_trace, monkeypatch,
                                                    basis, n):
    trace = TimeTrace(samples=short_trace.samples[:n].copy(),
                      dt=short_trace.dt, omega_beat=short_trace.omega_beat)
    if basis == "t0":
        theta_map_fast(trace, -1.0, n_theta=4, variant="t0", segments=4)
    elif basis == "t0 entry":  # the literal filter's (P0, T) moments
        rhet_spectrum(trace, -0.5, 0.3, variant="t0", segments=4)
    else:
        rhet_spectrum(trace, -1.0, 0.3, segments=4, phase_correction=(
            _drift_series(trace) if basis == "drift" else None))
    want = standard_psd(_fresh(trace), segments=4)
    _no_rfft(monkeypatch)
    got = standard_psd(trace, segments=4)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.variance.tobytes() == want.variance.tobytes()


def test_segment_spectrum_memo_keys_and_contract(short_trace, monkeypatch):
    trace = _fresh(short_trace)
    h = trace.n // 8 + 1
    rhet_spectrum(trace, -1.0, 0.3, variant="t0", segments=4)
    assert set(trace._bases) == {("rfft", 4), ("t0", 4, None, 0.6)}
    spectra = trace._bases[("rfft", 4)]
    assert len(spectra) == 4
    assert sum(f.nbytes for f in spectra) == 4 * 16 * h
    for f in spectra:
        assert not f.flags.writeable
        with pytest.raises(ValueError):
            f[0] = 0.0
    # per theta the moments of (P0, T): 2 mean rows, 3 co-moment rows
    t0 = trace._bases[("t0", 4, None, 0.6)]
    assert (t0.mean.shape, t0.m2.shape) == ((2, h), (3, h))
    with monkeypatch.context() as m:
        _no_rfft(m)  # any eps at a held theta reads the memo
        rhet_spectrum(trace, 0.2, 0.3, variant="t0", segments=4)
    assert len(trace._bases) == 2
    rhet_spectrum(trace, -1.0, 0.3, variant="t0", segments=8)
    rhet_spectrum(trace, -1.0, 0.3, variant="t0", segments=4,
                  phase_correction=_drift_series(trace))
    assert {k[:2] for k in trace._bases} == {
        ("rfft", 4), ("t0", 4), ("rfft", 8), ("t0", 8)}
    assert len(trace._bases) == 5
    # eps = +1 is standard_psd for either variant: it adds no memo entry,
    # and on a trace holding a t0 entry or a basis it transforms nothing
    with monkeypatch.context() as m:
        _no_rfft(m)
        for variant in ("tbar", "t0"):
            rhet_spectrum(trace, 1.0, 0.3, variant=variant, segments=4)
    assert len(trace._bases) == 5
    rhet_spectrum(trace, -1.0, 0.3, variant="tbar", segments=4)
    with monkeypatch.context() as m:
        _no_rfft(m)
        for variant in ("tbar", "t0"):
            rhet_spectrum(trace, 1.0, 0.3, variant=variant, segments=4)
    assert len(trace._bases) == 6
    # a held basis leaves the t0 route its own rows: the same bits
    held = _fresh(short_trace)
    rhet_spectrum(held, -1.0, 0.3, segments=4)
    got = rhet_spectrum(held, 0.2, 1.1, variant="t0", segments=4)
    assert {k[0] for k in held._bases} == {"basis", "rfft", "t0"}
    want = rhet_spectrum(_fresh(short_trace), 0.2, 1.1, variant="t0",
                         segments=4)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.variance.tobytes() == want.variance.tobytes()


def test_t0_memo_keeps_a_bounded_number_of_thetas(short_trace):
    from rhet.estimator import _T0_THETAS
    trace = TimeTrace(samples=short_trace.samples[:4 * 4096].copy(),
                      dt=short_trace.dt, omega_beat=short_trace.omega_beat)
    thetas = np.linspace(0.0, np.pi, 50, endpoint=False)
    for th in thetas:
        rhet_spectrum(trace, -0.5, th, variant="t0", segments=4)
    held = [k[3] for k in trace._bases if k[0] == "t0"]  # phi0 = 2 theta
    assert held == (2.0 * thetas[-_T0_THETAS:]).tolist()
    theta_map_exact(trace, 0.0, n_theta=3 * _T0_THETAS, variant="t0",
                    segments=4)
    assert sum(k[0] == "t0" for k in trace._bases) == _T0_THETAS
    assert len(trace._bases) == 1 + _T0_THETAS
    # an evicted theta comes back with the same bits
    again = rhet_spectrum(trace, -0.5, thetas[0], variant="t0", segments=4)
    fresh = rhet_spectrum(_fresh(trace), -0.5, thetas[0], variant="t0",
                          segments=4)
    assert again.values.tobytes() == fresh.values.tobytes()
    assert again.variance.tobytes() == fresh.variance.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_symmetric_co_moment_gives_the_sample_variance(k):
    # one co-moment row per pair i <= j; correlated rows, so the
    # off-diagonal pairs carry weight
    from rhet.estimator import _Moments
    rng = np.random.default_rng(k)
    segments, h = 9, 65
    mix = rng.standard_normal((k, k)) + 2.0 * np.eye(k)
    rows = np.einsum("ij,sjh->sih", mix, rng.standard_normal((segments, k, h)))
    rows += rng.uniform(1.0, 5.0, (1, k, 1))
    moments = _Moments()
    for r in rows:
        moments.add(r)
    assert moments.m2.shape == (k * (k + 1) // 2, h)
    weights = [rng.standard_normal(k), np.ones(k)]
    if k == 2:
        weights.append(np.array([1.0, 1j]))  # the cross-spectrum's
    for a in weights:
        want = np.var(np.einsum("k,skh->sh", a, rows), axis=0,
                      ddof=1) / segments
        got = moments.variance(a)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
    # unit weights read one row's co-moment: the one-row Welford's bits
    for i in range(k):
        one = _Moments()
        for r in rows:
            one.add(r[i:i + 1])
        assert moments.mean[i].tobytes() == one.mean[0].tobytes()
        assert moments.variance(np.eye(k)[i]).tobytes() == \
            one.variance((1.0,)).tobytes()


def test_complex_corr_spectrum_variance_follows_per_segment_rows(short_trace):
    # C_s(w) = dt/N conj(FFT[i e^{-i Om t}]) FFT[i e^{+i Om t}] per segment,
    # absolute times; variance is the total across-segment variance of the
    # mean (ddof = 1)
    segments, dt, om = 8, short_trace.dt, short_trace.omega_beat
    n = short_trace.n // segments
    rows = []
    for s in range(segments):
        seg = short_trace.samples[s * n:(s + 1) * n]
        t = (np.arange(n) + s * n) * dt
        c = np.conj(np.fft.fft(seg * np.exp(-1j * om * t))) \
            * np.fft.fft(seg * np.exp(1j * om * t))
        rows.append(np.fft.fftshift(c) * (dt / n))
    rows = np.array(rows)
    spec = complex_corr_spectrum(short_trace, segments=segments)
    want = np.var(rows, axis=0, ddof=1) / segments
    assert np.max(np.abs(spec.values - rows.mean(axis=0))) <= \
        1e-12 * np.max(np.abs(spec.values))
    assert np.max(np.abs(spec.variance - want)) <= 1e-12 * np.max(want)


def _welford(rows):
    """Mean and variance of the mean in the estimator's update order."""
    mean, m2 = rows[0].copy(), np.zeros_like(rows[0])
    for k, row in enumerate(rows[1:], start=2):
        d_old = row - mean
        mean += d_old / k
        m2 += d_old * (row - mean)
    return mean, np.maximum(m2, 0.0) / (len(rows) * (len(rows) - 1))


@pytest.mark.parametrize("variant, eps", [("t0", -1.0), ("t0", 0.4),
                                          ("t0", 1.0), ("tbar", 1.0)])
@pytest.mark.parametrize("drift", [False, True])
def test_literal_filter_spectra_follow_their_formula_bit_for_bit(
        short_trace, variant, eps, drift):
    # per segment dt/N Re[conj(rfft(F i)) rfft(i)], Welford-averaged and
    # mirrored by index; eps = +1 (F = 1) is Welch's dt/N |rfft(F i)|^2.
    # Bit for bit at eps = +-1; between them the route adds the P0 and
    # square-wave moments, within 1e-14 of the spectrum's maximum
    trace, seg_n, dt = _fresh(short_trace), short_trace.n // 4, short_trace.dt
    series = _drift_series(trace) if drift else None
    f = FilterSpec(epsilon=eps, omega_beat=trace.omega_beat,
                   phase_offset=2 * 0.6, dynamic_offset=None if series is None
                   else PhaseSeries(times=series.times, theta=-2 * series.theta))
    rows = []
    for s in range(4):
        seg = trace.samples[s * seg_n:(s + 1) * seg_n]
        fw = np.fft.rfft(eval_filter(f, np.arange(seg_n) * dt
                                     + s * seg_n * dt) * seg)
        rows.append((dt / seg_n) * (np.square(np.abs(fw)) if eps == 1.0 else
                                    np.real(np.conj(fw) * np.fft.rfft(seg))))
    mean, var = _welford(rows)
    mirror = np.abs(np.arange(seg_n) - seg_n // 2)
    for _ in range(2):  # building the memo, then reading it
        spec = rhet_spectrum(trace, eps, 0.6, variant=variant, segments=4,
                             phase_correction=series)
        if abs(eps) == 1.0:
            assert spec.values.tobytes() == mean[mirror].tobytes()
            assert spec.variance.tobytes() == var[mirror].tobytes()
            continue
        for got, want in ((spec.values, mean), (spec.variance, var)):
            want = want[mirror]
            assert np.max(np.abs(got - want)) <= \
                1e-14 * np.max(np.abs(want))


def test_cis_is_within_an_ulp_of_complex_exp():
    from rhet.estimator import _cis
    om, dt = TWO_PI * 1.0e4, 2e-7
    for x in ((-2.0 * om) * (np.arange(156_250) * dt),
              np.linspace(-1e4, 1e4, 100_001), np.array([0.0, -0.0, 1e300])):
        z, ref = _cis(x), np.exp(1j * x)
        np.testing.assert_array_max_ulp(z.real, ref.real, maxulp=1)
        np.testing.assert_array_max_ulp(z.imag, ref.imag, maxulp=1)
    assert _cis(0.7).shape == ()


def test_basis_memo_keys_on_the_phase_series_values(thermal_cfg):
    # each call demodulates again: equal values, distinct series objects
    trace = synth_gaussian_trace(thermal_cfg, 0.05, 2e-7, seed=3,
                                 pilot_amplitude=2500.0)
    specs = [correct_and_estimate(trace, None, -1.0, 0.2, segments=2)
             for _ in range(3)]
    assert len(trace._bases) == 1
    assert len({(s.values.tobytes(), s.variance.tobytes())
                for s in specs}) == 1


def test_trace_samples_and_phase_series_are_read_only(short_trace):
    with pytest.raises(ValueError):
        short_trace.samples[0] = 1.0
    series = PhaseSeries(times=np.array([0.0, 1.0]), theta=np.zeros(2))
    with pytest.raises(ValueError):
        series.theta[0] = 1.0


def test_max_lag_and_windows(noise_trace):
    f = FilterSpec(epsilon=0.0, omega_beat=OMEGA)
    n_lag = 100
    ac = filtered_autocorr(noise_trace, f, variant="t0",
                           max_lag=n_lag * noise_trace.dt)
    assert ac.values.size == n_lag + 1
    # truncated spectra keep the full grid
    spec = psd_from_autocorr(ac, window="hann", max_lag=50 * noise_trace.dt)
    assert spec.freqs.size == noise_trace.n
    for bad in ("hamming", "flattop"):
        with pytest.raises(ValueError):
            psd_from_autocorr(ac, window=bad)
    with pytest.raises(ValueError):
        filtered_autocorr(noise_trace, f, max_lag=2 * noise_trace.duration)


@pytest.mark.parametrize("variant", ["tbar", "t0"])
def test_bartlett_window_weights_the_filtered_autocorrelation(noise_trace,
                                                              variant):
    # S(w) = dt (r_0 + 2 sum_m (1 - m / n_keep) r_m cos(w m dt)) over the
    # kept lags of the segment's filtered autocorrelation r
    dt, n_keep = noise_trace.dt, 100
    got = rhet_spectrum(noise_trace, -0.3, 0.4, variant=variant, segments=1,
                        max_lag=n_keep * dt, window="bartlett")
    assert got.meta["window"] == "bartlett"
    f = FilterSpec(epsilon=-0.3, omega_beat=OMEGA, phase_offset=0.8)
    r = filtered_autocorr(noise_trace, f, variant=variant,
                          max_lag=n_keep * dt).values
    m = np.arange(1, n_keep + 1)
    want = dt * (r[0] + 2.0 * np.cos(np.outer(got.freqs, m * dt))
                 @ ((1.0 - m / n_keep) * r[1:]))
    assert np.max(np.abs(got.values - want)) < 1e-10 * np.max(np.abs(want))


def test_overflowing_trace_raises_instead_of_nan_spectra(noise_trace):
    # finite samples of +-1e300 whose periodograms overflow
    big = TimeTrace(samples=1e300 * np.sign(noise_trace.samples),
                    dt=noise_trace.dt, omega_beat=OMEGA, theta_nominal=0.0)
    calls = {"welch": lambda: standard_psd(big, segments=2),
             "tbar": lambda: rhet_spectrum(big, -1.0, 0.3, segments=2),
             "t0": lambda: rhet_spectrum(big, -1.0, 0.3, variant="t0",
                                         segments=2),
             "lag window": lambda: rhet_spectrum(
                 big, -1.0, 0.3, segments=2, max_lag=50 * big.dt),
             "cross": lambda: complex_corr_spectrum(big, segments=2),
             "fast map": lambda: theta_map_fast(big, 0.0, n_theta=4,
                                                segments=2),
             # the public lag route, on the whole trace and on finite lags
             # whose transform overflows
             "autocorr": lambda: filtered_autocorr(big, FilterSpec(
                 epsilon=-1.0, omega_beat=OMEGA, phase_offset=0.6)),
             "autocorr psd": lambda: psd_from_autocorr(Autocorrelation(
                 values=np.full(big.n // 2 + 1, 1e308), variant="tbar",
                 filter=FilterSpec(epsilon=-1.0, omega_beat=OMEGA),
                 dt=big.dt, n_fft=big.n))}
    for call in calls.values():
        # the FFTs' overflow warnings, on the helper threads too, are not
        # what is under test
        with warnings.catch_warnings(), \
                pytest.raises(ValueError, match="overflows"):
            warnings.simplefilter("ignore", RuntimeWarning)
            call()


def test_segmenting_and_variance(short_trace):
    spec1 = rhet_spectrum(short_trace, -1.0, 0.0, segments=1)
    assert spec1.variance is None
    spec8 = rhet_spectrum(short_trace, -1.0, 0.0, segments=8)
    assert spec8.variance is not None
    assert np.all(spec8.variance >= 0)
    assert spec8.freqs.size == short_trace.n // 8
    with pytest.raises(ValueError):
        rhet_spectrum(short_trace, -1.0, 0.0, segments=short_trace.n)


def test_filter_trace_omega_mismatch_raises(noise_trace):
    f = FilterSpec(epsilon=0.0, omega_beat=1.5 * OMEGA)
    with pytest.raises(ValueError):
        filtered_autocorr(noise_trace, f)


def test_phase_correction_plumbs_through(short_trace):
    ts = np.linspace(0.0, short_trace.duration, 64)
    series = PhaseSeries(times=ts, theta=0.1 * np.sin(12.0 * ts))
    a = rhet_spectrum(short_trace, -1.0, 0.2, segments=4,
                      phase_correction=series)
    b = correct_and_estimate(short_trace, series, -1.0, 0.2, segments=4)
    assert np.array_equal(a.values, b.values)
    assert a.meta["corrected"] and b.meta["corrected"]


def test_complex_corr_spectrum_shape_and_meta(short_trace):
    c = complex_corr_spectrum(short_trace, segments=8)
    assert np.iscomplexobj(c.values)
    assert c.variance is not None
    assert c.meta["kind"] == "complex_corr"
    assert c.meta["omega_beat"] == short_trace.omega_beat
    assert c.freqs.size == short_trace.n // 8


@pytest.mark.parametrize("variant", ["tbar", "t0"])
@pytest.mark.parametrize("theta", [np.nan, np.inf])
def test_rhet_spectrum_rejects_a_non_finite_filter_phase(noise_trace, variant,
                                                         theta):
    # tbar used to return all NaN and t0 minus the periodogram
    with pytest.raises(ValueError, match="filter phase must be finite"):
        rhet_spectrum(noise_trace, -1.0, theta, variant=variant)


# ------------------------------------------------- stream basis: two routes

def _t0_map_oracle(trace, segments, eps, thetas, series):
    """Mean over segments of c0 P0 + c1 Re[e^{-2i theta} G] per theta, G =
    dt/N (C(w) + C(-w)), C = conj(FFT x) FFT y, from complex exponentials
    at absolute times: the t0 basis keeps the square wave's mean and
    fundamental at the first sample time."""
    n, dt, om = trace.n // segments, trace.dt, trace.omega_beat
    d = None if series is None else -2.0 * (series.sample_at(
        np.arange(trace.n) * dt) - trace.theta_nominal)
    two_pi = 2.0 * np.arccos(np.longdouble(-1.0))
    p0, g = 0.0, 0.0
    for s in range(segments):
        seg = trace.samples[s * n:(s + 1) * n]
        # 2 Om t reduced mod 2 pi in extended precision where there is one
        ramp = np.fmod(2.0 * np.longdouble(om) * (np.arange(
            s * n, (s + 1) * n, dtype=np.longdouble) * np.longdouble(dt)),
            two_pi).astype(float)
        half = 0.0 if d is None else 0.5 * d[s * n:(s + 1) * n]
        c = np.conj(np.fft.fft(np.exp(1j * (half - ramp)) * seg)) \
            * np.fft.fft(np.exp(-1j * half) * seg)
        g = g + (dt / n) * (c + np.roll(c[::-1], 1)) / segments
        p0 = p0 + (dt / n) * np.abs(np.fft.fft(seg)) ** 2 / segments
    return np.fft.fftshift([filter_coefficients(eps, 0) * p0
                            + filter_coefficients(eps, 1)
                            * np.real(np.exp(-2j * th) * g)
                            for th in thetas], axes=1)


def _tbar_oracle(trace, segments, eps, theta, series):
    """Values and variance of the mean of per-segment filtered_autocorr
    spectra."""
    n, dt = trace.n // segments, trace.dt
    f = FilterSpec(epsilon=eps, omega_beat=trace.omega_beat,
                   phase_offset=2.0 * theta, dynamic_offset=None
                   if series is None else PhaseSeries(
                       times=series.times,
                       theta=-2.0 * (series.theta - trace.theta_nominal)))
    rows = [psd_from_autocorr(filtered_autocorr(
        TimeTrace(samples=trace.samples[s * n:(s + 1) * n], dt=dt,
                  omega_beat=trace.omega_beat), f, t_offset=s * n * dt)).values
        for s in range(segments)]
    return np.mean(rows, axis=0), np.var(rows, axis=0, ddof=1) / segments


# (segment length, ulps added to Omega, route): K = 625 and 500 are
# integers within _SHIFT_TOL, also one ulp of Omega up; at 312 500 points K
# = 1250 computes 7.6e-14 bins off and at 142 857 points K = 571.43
_GEOMETRIES = [(156_250, 0, "shifted"), (156_250, 1, "shifted"),
               (125_000, 0, "shifted"), (312_500, 0, "transformed"),
               (142_857, 0, "transformed")]


@pytest.mark.parametrize("n_seg, ulps, route", _GEOMETRIES)
@pytest.mark.parametrize("drift", [False, True])
def test_stream_basis_matches_the_per_segment_oracles(short_trace, n_seg,
                                                      ulps, route, drift):
    # two segments of the 0.25 s record at dt = 0.2 us, within 1e-12 of the
    # maximum on both routes: the tbar spectrum's values and variance
    # against filtered_autocorr, the t0 fast map (it has no variance)
    # against its kernel
    from rhet.estimator import _bin_shift, _stream_basis
    om = short_trace.omega_beat
    for _ in range(ulps):
        om = np.nextafter(om, np.inf)
    trace = TimeTrace(samples=short_trace.samples[:2 * n_seg].copy(),
                      dt=short_trace.dt, omega_beat=om)
    assert (_bin_shift(n_seg, trace.dt, om) is None) == (route != "shifted")
    series = _drift_series(trace) if drift else None
    spec = rhet_spectrum(trace, -0.4, 0.6, segments=2,
                         phase_correction=series)
    want = _tbar_oracle(trace, 2, -0.4, 0.6, series)
    for got, want in zip((spec.values, spec.variance), want):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    m = theta_map_fast(trace, -0.4, n_theta=4, variant="t0", segments=2,
                       phase_correction=series)
    want = _t0_map_oracle(trace, 2, -0.4, m.thetas, series)
    assert np.max(np.abs(m.spectra - want)) <= 1e-12 * np.max(np.abs(want))
    # any thread count adds the segments in order: the same bits (three
    # segments of the same length, two threads reusing a workspace)
    longer = TimeTrace(samples=short_trace.samples[:3 * n_seg].copy(),
                       dt=short_trace.dt, omega_beat=om)
    for variant in ("tbar", "t0"):
        one, two = (_stream_basis(_fresh(longer), 3, variant, series,
                                  workers=w) for w in (1, 2))
        assert one.mean.tobytes() == two.mean.tobytes()
        assert one.m2.tobytes() == two.m2.tobytes()


@pytest.mark.parametrize("n_seg", [156_250, 142_857])
@pytest.mark.parametrize("drift", [False, True])
def test_summed_means_are_within_1e_13_of_the_welford_means(
        short_trace, monkeypatch, n_seg, drift):
    # the basis takes G's means from one lag step on the summed product
    # spectra; the per-segment rows it adds for the co-moments, averaged
    # the old way (Welford, in segment order), agree within 1e-13 of the
    # maximum, and P0's mean is that average's to the bit (8 segments on
    # the shifted route, K = 625, and on the transformed one, K = 571.43)
    from rhet.estimator import _Moments, _stream_basis
    trace = TimeTrace(samples=short_trace.samples[:8 * n_seg].copy(),
                      dt=short_trace.dt, omega_beat=short_trace.omega_beat)
    series = _drift_series(trace) if drift else None
    seen, add = [], _Moments.add

    def recording_add(self, rows):
        seen.append(np.array(rows))
        add(self, rows)

    monkeypatch.setattr(_Moments, "add", recording_add)
    for variant in ("tbar", "t0"):
        seen.clear()
        basis = _stream_basis(trace, 8, variant, series)
        old, _ = _welford(seen)
        assert len(seen) == 8 and old.shape == basis.mean.shape
        assert basis.mean[0].tobytes() == old[0].tobytes()
        assert np.max(np.abs(basis.mean - old)) <= \
            1e-13 * np.max(np.abs(old))


@pytest.mark.parametrize("drift", [False, True])
def test_shifted_route_is_within_1e_12_of_the_transformed(short_trace,
                                                          monkeypatch, drift):
    # the whole 0.25 s record at 8 segments of 156 250 points (K = 625):
    # tbar spectrum, fast maps of both variants and the exact tbar map
    import rhet.estimator
    series = _drift_series(short_trace) if drift else None

    def outputs():
        trace = _fresh(short_trace)
        spec = rhet_spectrum(trace, -1.0, 0.3, segments=8,
                             phase_correction=series)
        return [spec.values, spec.variance] + [
            fn(trace, eps, n_theta=6, variant=variant, segments=8,
               phase_correction=series).spectra
            for fn, eps, variant in ((theta_map_fast, 0.0, "tbar"),
                                     (theta_map_fast, 0.0, "t0"),
                                     (theta_map_exact, -1.0, "tbar"))]

    shifted = outputs()
    monkeypatch.setattr(rhet.estimator, "_bin_shift", lambda *args: None)
    for got, want in zip(shifted, outputs()):
        assert got.tobytes() != want.tobytes()
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_stream_basis_logs_its_route(short_trace, caplog):
    # the README session's 156 250-point segments take the shifted route,
    # 142 857-point ones the transformed route
    import logging
    caplog.set_level(logging.DEBUG, logger="rhet.estimator")
    for n_seg, route, k in ((156_250, "shifted", "K 625,"),
                            (142_857, "transformed", "K 571.428,")):
        caplog.clear()
        trace = TimeTrace(samples=short_trace.samples[:2 * n_seg + 1].copy(),
                          dt=short_trace.dt, omega_beat=short_trace.omega_beat)
        rhet_spectrum(trace, -1.0, 0.3, segments=2)
        rhet_spectrum(trace, 0.5, 0.1, segments=2)  # reads the memo
        [record] = caplog.records
        assert record.name == "rhet.estimator"
        assert record.levelno == logging.DEBUG
        assert record.getMessage() == (
            f"stream basis: {route} route, n_seg {n_seg}, {k} 2 segments, "
            "1 samples dropped")


@pytest.mark.parametrize("cpus", [1, 3])
def test_threaded_welch_is_a_serial_welford_pass(short_trace, monkeypatch,
                                                 cpus):
    # the fallback's segments run on every usable CPU, one rfft per
    # segment, and add up in order: even and odd counts
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    dt = short_trace.dt
    for segments in (2, 5, 6):
        n = short_trace.n // segments
        rows = [(dt / n) * np.square(np.abs(np.fft.rfft(
            short_trace.samples[s * n:(s + 1) * n])))
            for s in range(segments)]
        mean, var = _welford(rows)
        mirror = np.abs(np.arange(n) - n // 2)
        spec = standard_psd(_fresh(short_trace), segments=segments)
        assert spec.values.tobytes() == mean[mirror].tobytes()
        assert spec.variance.tobytes() == var[mirror].tobytes()


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_on_threads_gives_each_item_in_flight_its_own_space(workers):
    # one space per thread, all made on the calling thread before any item
    # runs; a thread's next item starts only once its last one is consumed,
    # in order (consume sleeps, so an item started early finds its space held)
    import random
    import threading
    import time
    from rhet.core import _on_threads
    rng = random.Random(workers)
    for count in range(1, 10):
        spaces, held, consumed, lock = [], {}, [], threading.Lock()
        caller = threading.get_ident()

        def workspace():
            assert threading.get_ident() == caller and not consumed
            with lock:
                assert not held
            spaces.append([])
            return spaces[-1]

        def body(i, space):
            with lock:
                assert id(space) not in held
                held[id(space)] = i
            time.sleep(rng.random() * 2e-3)
            return i, space

        def consume(out):
            i, space = out
            time.sleep(rng.random() * 1e-3)
            with lock:
                assert held.pop(id(space)) == i
            consumed.append(i)

        _on_threads(body, count, workers, consume, workspace)
        assert consumed == list(range(count)) and not held
        assert len(spaces) == min(workers, count)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_segment_driver_adds_out_of_order_items_in_segment_order(workers):
    # items sleep at random, so helpers finish out of order; the driver
    # still adds every segment's rows in segment order, the bits of a
    # serial _Moments pass, and slices each segment's start and samples
    import random
    import time
    from rhet.estimator import _Moments, _segment_moments
    rng, pause = np.random.default_rng(workers), random.Random(workers)
    for segments in (1, 3, 5, 7):
        trace = TimeTrace(samples=rng.standard_normal(segments * 64 + 5),
                          dt=1e-3, omega_beat=OMEGA)
        n = trace.n // segments  # the trailing samples are dropped
        per_segment = rng.standard_normal((segments, 3, 33))
        seen = []

        def rows(s, start, samples, space):
            time.sleep(pause.random() * 2e-3)
            assert start == s * n * trace.dt
            assert samples.tobytes() == \
                trace.samples[s * n:(s + 1) * n].tobytes()
            seen.append(s)
            return per_segment[s]

        got = _segment_moments(trace, segments, rows, workers)
        want = _Moments()
        for r in per_segment:
            want.add(r)
        assert sorted(seen) == list(range(segments))
        assert got.count == segments
        assert got.mean.tobytes() == want.mean.tobytes()
        assert got.m2.tobytes() == want.m2.tobytes()


@pytest.mark.parametrize("cpus", [2, 3])
def test_calling_thread_routes_and_welch_ignore_the_cpu_count(short_trace,
                                                              monkeypatch,
                                                              cpus):
    # Welch's fallback, cross, a t0 spectrum and a lag-window spectrum, on
    # fresh traces at 1 and at `cpus` usable CPUs: the same bits
    trace = TimeTrace(samples=short_trace.samples[:5 * 8192].copy(),
                      dt=short_trace.dt, omega_beat=short_trace.omega_beat)

    def outputs(count):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(count)), raising=False)
        return [(s.values.tobytes(), s.variance.tobytes()) for s in (
            standard_psd(_fresh(trace), segments=5),
            complex_corr_spectrum(_fresh(trace), segments=5),
            rhet_spectrum(_fresh(trace), -0.3, 0.7, variant="t0",
                          segments=5),
            rhet_spectrum(_fresh(trace), -0.3, 0.7, segments=5,
                          window="hann", max_lag=2e-4))]

    assert outputs(cpus) == outputs(1)



_COUNTED = {
    "standard_psd.segments": ("segments", lambda tr, v: standard_psd(
        tr, segments=v)),
    "rhet_spectrum.segments": ("segments", lambda tr, v: rhet_spectrum(
        tr, -0.5, 0.3, segments=v)),
    "complex_corr_spectrum.segments": ("segments", lambda tr, v:
                                       complex_corr_spectrum(tr, segments=v)),
    "theta_map_fast.segments": ("segments", lambda tr, v: theta_map_fast(
        tr, 0.0, n_theta=4, segments=v)),
    "theta_map_exact.segments": ("segments", lambda tr, v: theta_map_exact(
        tr, 0.0, n_theta=4, segments=v)),
    "theta_map_fast.n_theta": ("n_theta", lambda tr, v: theta_map_fast(
        tr, 0.0, n_theta=v)),
    "theta_map_exact.n_theta": ("n_theta", lambda tr, v: theta_map_exact(
        tr, 0.0, n_theta=v)),
    "theta_map_fast.workers": ("workers", lambda tr, v: theta_map_fast(
        tr, 0.0, n_theta=4, workers=v)),
}


@pytest.mark.parametrize("value", [2.5, 2.0, True, np.True_, np.int64(2),
                                   np.uint8(2)],
                         ids=["2.5", "2.0", "True", "np.True_", "np.int64",
                              "np.uint8"])
@pytest.mark.parametrize("call", _COUNTED.values(), ids=_COUNTED.keys())
def test_counts_take_integers_and_name_any_other_value(noise_trace, call,
                                                       value):
    # a bool or a non-integral count raises a ValueError naming the
    # argument; a numpy integer gives the bytes and meta of the same int
    name, fn = call
    if not isinstance(value, np.integer):
        with pytest.raises(ValueError,
                           match=f"^{name} must be an integer, not "):
            fn(_fresh(noise_trace), value)
        return

    def read(out):
        data = out.values if hasattr(out, "values") else out.spectra
        return data.tobytes(), {k: (type(v), v) for k, v in out.meta.items()}

    assert read(fn(_fresh(noise_trace), value)) == \
        read(fn(_fresh(noise_trace), int(value)))
