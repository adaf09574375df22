"""Synthesizer: deterministic tones, modulation algebra, and statistical
agreement of the Gaussian draw with the model it claims to sample."""
import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from rhet import (PhaseDriftSpec, PhaseSeries, Spectrum, compare_spectra,
                  field_spectra, complex_corr_spectrum, heterodyne_psd,
                  modulate_current, phase_drift, rhet_spectrum,
                  standard_psd, synth_gaussian_trace, theta_map_fast,
                  tone_field)
import rhet.synth
from rhet.analytic import _model_rows
from rhet.core import TWO_PI, ConfigError, MechMode


def test_tone_field_closed_form():
    om, amp, ph = TWO_PI * 1.0e3, 0.7, 0.4
    x, y = tone_field([(om, amp, ph)], duration=0.01, dt=1e-5)
    t = np.arange(x.size) * 1e-5
    assert np.allclose(x, 2 * amp * np.cos(om * t - ph), atol=1e-12)
    assert np.allclose(y, -2 * amp * np.sin(om * t - ph), atol=1e-12)


def test_tone_field_rejects_bad_inputs():
    with pytest.raises(ValueError):  # at Nyquist
        tone_field([(np.pi / 1e-5, 1.0, 0.0)], duration=0.01, dt=1e-5)
    with pytest.raises(ValueError):  # too short for the sample interval
        tone_field([(TWO_PI, 1.0, 0.0)], duration=1e-5, dt=1e-5)


def test_modulate_current_identity():
    om = TWO_PI * 1.0e4
    x = np.full(1000, 1.5)
    y = np.full(1000, -0.8)
    th = 0.6
    tr = modulate_current(x, y, om, th, 2e-7)
    t = np.arange(1000) * 2e-7
    want = 1.5 * np.cos(om * t + th) - 0.8 * np.sin(om * t + th)
    assert np.allclose(tr.samples, want, atol=1e-12)
    assert tr.theta_nominal == th
    assert tr.omega_beat == om


def test_modulate_current_accepts_phase_series():
    om = TWO_PI * 1.0e4
    n = 1000
    t = np.arange(n) * 2e-7
    series = PhaseSeries(times=np.linspace(0, n * 2e-7, 16),
                         theta=0.3 + np.linspace(0, 0.05, 16))
    tr = modulate_current(np.ones(n), np.zeros(n), om, series, 2e-7)
    th = series.sample_at(t)
    assert np.allclose(tr.samples, np.cos(om * t + th), atol=1e-12)
    assert tr.theta_nominal == pytest.approx(0.3)


def test_synth_is_seed_deterministic(thermal_cfg):
    a = synth_gaussian_trace(thermal_cfg, 0.02, 2e-7, seed=5)
    b = synth_gaussian_trace(thermal_cfg, 0.02, 2e-7, seed=5)
    c = synth_gaussian_trace(thermal_cfg, 0.02, 2e-7, seed=6)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    assert a.omega_beat == thermal_cfg.omega_beat
    assert a.theta_nominal == thermal_cfg.theta0


def test_synth_warns_on_short_records(thermal_cfg):
    with pytest.warns(UserWarning, match="beat periods"):
        synth_gaussian_trace(thermal_cfg, 5e-4, 2e-7, seed=1)
    with pytest.warns(UserWarning, match="decay times"):
        synth_gaussian_trace(thermal_cfg, 5e-4, 2e-7, seed=1)


def test_synth_rejects_bad_inputs(thermal_cfg):
    bad = dataclasses.replace(thermal_cfg, kappa=-1.0)
    with pytest.raises(ConfigError):
        synth_gaussian_trace(bad, 0.01, 2e-7, seed=1)
    with pytest.raises(ValueError):
        synth_gaussian_trace(thermal_cfg, 1e-6, 2e-7, seed=1)


def test_phase_drift_closed_form():
    t = np.linspace(0.0, 0.2, 11)
    d = phase_drift(t, 0.3, 0.5, 25.0)
    assert np.allclose(d, 0.3 + 0.5 * np.sin(TWO_PI * 25.0 * t), atol=1e-14)


def test_pilot_adds_a_beat_line(thermal_cfg):
    tr_p = synth_gaussian_trace(thermal_cfg, 0.05, 2e-7, seed=3,
                                pilot_amplitude=50.0)
    tr_n = synth_gaussian_trace(thermal_cfg, 0.05, 2e-7, seed=3)
    wp = standard_psd(tr_p)
    wn = standard_psd(tr_n)
    k = int(np.argmin(np.abs(wp.freqs - thermal_cfg.omega_beat)))
    assert wp.values[k] > 10.0 * wn.values[k]
    # away from the line the records agree
    off = k + 500
    assert wp.values[off] == pytest.approx(wn.values[off], rel=1e-6)


def test_welch_matches_analytic_heterodyne(thermal_cfg, trace42):
    # single-seed check at the acceptance operating point (the 16-trace
    # ensemble version with tighter bounds runs in the acceptance suite)
    m1 = thermal_cfg.modes[0]
    w = standard_psd(trace42, segments=64)
    band = (m1.omega_m - thermal_cfg.omega_beat - 4 * m1.gamma,
            m1.omega_m + thermal_cfg.omega_beat + 4 * m1.gamma)
    sel = w.band(*band)
    fs = field_spectra(thermal_cfg, w.freqs[sel])
    het = heterodyne_psd(fs, thermal_cfg.omega_beat)
    rep = compare_spectra(Spectrum(freqs=w.freqs[sel], values=w.values[sel]),
                          het, max_rel_err=0.15, min_pearson=0.95)
    assert rep["pass"], rep


def test_complex_corr_recovers_rotated_anomalous_spectrum(thermal_cfg):
    # E[C(w)] = e^{-2i theta0} s_aa(w): check magnitude and rotation on a
    # small ensemble recorded at a nonzero LO phase
    cfg = dataclasses.replace(thermal_cfg, theta0=0.35)
    m1 = cfg.modes[0]
    acc = None
    for s in range(8):
        tr = synth_gaussian_trace(cfg, 0.25, 2e-7, seed=100 + s)
        c = complex_corr_spectrum(tr, segments=8)
        acc = c.values if acc is None else acc + c.values
    acc /= 8
    sel = (c.freqs >= m1.omega_m - 0.5 * m1.gamma) & \
          (c.freqs <= m1.omega_m + 0.5 * m1.gamma)
    fs = field_spectra(cfg, c.freqs[sel])
    want = np.exp(-2j * 0.35) * np.mean(fs.s_aa)
    got = np.mean(acc[sel])
    assert abs(got - want) < 0.15 * abs(want)


def _oracle_current(cfg, n, dt, seed, pilot_amplitude):
    """The draw written out independently: the model on the fftfreq grid, a
    numpy Cholesky factor per bin pair, the same four normal draws, then any
    random-walk steps and the modulation."""
    rng = np.random.default_rng(seed)
    fs = field_spectra(cfg, TWO_PI * np.fft.fftfreq(n, dt))
    g1 = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    g2 = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    scale = 1.0 / (n * dt)
    z = np.empty(n, dtype=complex)
    for k in range(1, (n + 1) // 2):
        cov = scale * np.array([[fs.s_adaga[k], fs.s_aa[k]],
                                [np.conj(fs.s_aa[k]), fs.s_adaga[n - k]]])
        z[k], conj_minus = np.linalg.cholesky(cov) @ np.array([g1[k], g2[k]])
        z[n - k] = np.conj(conj_minus)
    z[0] = np.sqrt(fs.s_adaga[0] * scale) * g1[0]
    if n % 2 == 0:  # the fftfreq grid holds the Nyquist bin at -pi/dt
        z[n // 2] = np.sqrt(fs.s_adaga[n // 2] * scale) * g1[n // 2]
    a = np.fft.fft(z)
    t = np.arange(n) * dt
    d = cfg.drift
    if d.amplitude == 0.0:
        th = cfg.theta0
    elif d.kind == "sine":
        th = cfg.theta0 + d.amplitude * np.sin(TWO_PI * d.freq_hz * t)
    else:
        steps = rng.standard_normal(n) * (d.amplitude / np.sqrt(n))
        steps[0] = 0.0
        th = cfg.theta0 + np.cumsum(steps)
    ph = cfg.omega_beat * t + th
    return (2.0 * a.real * np.cos(ph) + 2.0 * a.imag * np.sin(ph)
            + pilot_amplitude * np.cos(ph))


@pytest.mark.parametrize("pilot", [0.0, 3.0])
@pytest.mark.parametrize("drift", [PhaseDriftSpec(),
                                   PhaseDriftSpec(0.3, 2.0e4, "sine"),
                                   PhaseDriftSpec(0.3, kind="walk")],
                         ids=["none", "sine", "walk"])
@pytest.mark.parametrize("n", [64, 65])
def test_synth_matches_per_bin_cholesky_oracle(thermal_cfg, n, drift, pilot):
    # odd and even n, so the Nyquist bin is covered; the walk pins how many
    # normals the field draw consumes
    cfg = dataclasses.replace(thermal_cfg, theta0=0.35, drift=drift,
                              backaction_weight=1.0)
    dt = 2e-7
    got = synth_gaussian_trace(cfg, n * dt, dt, seed=21,
                               pilot_amplitude=pilot).samples
    want = _oracle_current(cfg, n, dt, 21, pilot)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _reference_model_rows(cfg, nu):
    """The model pass as it stood before it shared its +-nu Lorentzians and
    skipped the zero backaction terms: four Lorentzians per mode and every
    term formed. It keeps the bits synthesis must keep."""
    def lorentz(u, gam):
        return gam / (u * u + 0.25 * gam * gam)

    def chibar(x, mode):
        om, gam = mode.omega_m, mode.gamma
        return om / (om * om - x * x - 1j * gam * x)

    cc = 1.0 / (cfg.kappa - 1j * (cfg.detuning + nu))
    ccm = 1.0 / (cfg.kappa - 1j * (cfg.detuning - nu))
    content = content_m = corr = V = Vm = 0.0
    w = cfg.backaction_weight
    for mode, g in zip(cfg.modes, cfg.coupling):
        gam, om, nb = mode.gamma, mode.omega_m, mode.nbar
        pq = (nb + 1) * lorentz(nu + om, gam) + nb * lorentz(nu - om, gam)
        pqm = (nb + 1) * lorentz(-nu + om, gam) + nb * lorentz(-nu - om, gam)
        k2 = 2.0 * cfg.kappa * g * g
        content += k2 * np.abs(cc) ** 2 * pq
        content_m += k2 * np.abs(ccm) ** 2 * pqm
        corr -= k2 * cc * ccm * np.sqrt(pq * pqm)
        if w != 0.0:
            V += 4j * cfg.kappa * w * g * g * cc * chibar(nu, mode)
            Vm += 4j * cfg.kappa * w * g * g * ccm * chibar(-nu, mode)
    alpha = V * cc + (2.0 * cfg.kappa * cc - 1.0)
    beta = V * np.conj(ccm)
    alpham = Vm * ccm + (2.0 * cfg.kappa * ccm - 1.0)
    betam = Vm * np.conj(cc)
    half = 0.5 * cfg.shot_floor
    s_adaga = content + (np.abs(alpha) ** 2 + np.abs(beta) ** 2) * half
    s_aadag = content_m + (np.abs(alpham) ** 2 + np.abs(betam) ** 2) * half
    s_aa = corr + (alpham * beta + alpha * betam) * half
    return s_adaga, s_aadag, s_aa


def _model_configs(cfg):
    third = MechMode(omega_m=TWO_PI * 700e3, gamma=TWO_PI * 5e3,
                     mass=100e-12, nbar=5e6)
    return {"default": cfg,
            "resonant": dataclasses.replace(cfg, detuning=0.0),
            "backaction": dataclasses.replace(cfg, backaction_weight=1.0),
            "floor": dataclasses.replace(cfg, shot_floor=2.5),
            "one mode": dataclasses.replace(cfg, modes=cfg.modes[:1],
                                            coupling=cfg.coupling[:1]),
            "three modes": dataclasses.replace(
                cfg, modes=cfg.modes + (third,),
                coupling=cfg.coupling + (TWO_PI * 30.0,))}


def test_model_rows_keep_the_reference_bits(thermal_cfg):
    # both signs of every frequency, zero, and the grid a synthesis reads
    n, dt = 100_001, 2e-7
    nu = np.concatenate([TWO_PI * np.fft.fftfreq(n, dt),
                         np.linspace(-3e7, 3e7, 4097)])
    for name, cfg in _model_configs(thermal_cfg).items():
        got, want = _model_rows(cfg, nu), _reference_model_rows(cfg, nu)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name


def _serial_factors(cfg, n, dt):
    """The factors as one thread made them before synthesis ran on threads,
    from one fftfreq grid and the reference model pass; with
    _serial_current, every step's bits are the ones synthesis must keep."""
    scale = 0.5 / (n * dt)
    nu = TWO_PI * np.fft.fftfreq(n, dt)[:n // 2 + 1]
    p1, p2, c = (np.concatenate(rows) * scale for rows in zip(*(
        _reference_model_rows(cfg, nu[k:k + 65536])
        for k in range(0, nu.size, 65536))))
    l11 = np.sqrt(p1)
    safe = np.where(p1 > 0, p1, 1.0)
    l21 = np.where(p1 > 0, np.conj(c) / np.sqrt(safe), 0.0)
    l22 = np.sqrt(np.maximum(
        p2 - np.where(p1 > 0, np.abs(c) ** 2 / safe, 0.0), 0.0))
    return l11, l21, l22


def _serial_current(cfg, n, dt, seed, pilot_amplitude, factors):
    """The serial draw: four n-point normal draws and the n-point
    modulation."""
    l11, l21, l22 = factors
    rng = np.random.default_rng(seed)
    pos, neg = slice(1, (n + 1) // 2), slice(n - 1, n // 2, -1)
    z = np.empty(n, dtype=complex)
    z.real, z.imag = rng.standard_normal(n), rng.standard_normal(n)
    g2 = rng.standard_normal(n)[pos] + 1j * rng.standard_normal(n)[pos]
    np.multiply(l21[pos], z[pos], out=z[neg])
    z[neg] += l22[pos] * g2
    np.conjugate(z[neg], out=z[neg])
    z[:n // 2 + 1] *= l11
    a = np.fft.fft(z)
    ph = np.arange(n) * dt
    d = cfg.drift
    if d.amplitude == 0.0:
        th = cfg.theta0
    elif d.kind == "sine":
        th = phase_drift(ph, cfg.theta0, d.amplitude, d.freq_hz)
    else:
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
    return cur


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("drift", [PhaseDriftSpec(),
                                   PhaseDriftSpec(0.785, 25.0, "sine"),
                                   PhaseDriftSpec(0.4, kind="walk")],
                         ids=["none", "sine", "walk"])
@pytest.mark.parametrize("n", [4096, 4097, 270_000])
def test_synth_bytes_equal_the_serial_draw(thermal_cfg, monkeypatch, n,
                                           drift, threads):
    # 270 000 samples make 135 001 bins: three factor blocks, the last one
    # short, and five draw and modulation blocks; each seed and pilot runs
    # on a cold memo and then on a warm one
    monkeypatch.setattr(rhet.synth, "_thread_count", lambda workers: threads)
    cfg = dataclasses.replace(thermal_cfg, drift=drift)
    dt = 2e-7
    factors = _serial_factors(cfg, n, dt)
    for seed in (0, 1, 2):
        for pilot in (0.0, 2500.0):
            want = _serial_current(cfg, n, dt, seed, pilot, factors).tobytes()
            monkeypatch.setattr(rhet.synth, "_memo", (None, None))
            entries = []
            for memo in ("cold", "warm"):
                got = synth_gaussian_trace(cfg, n * dt, dt, seed=seed,
                                           pilot_amplitude=pilot)
                assert got.samples.tobytes() == want, (memo, seed, pilot)
                entries.append(rhet.synth._memo)
            # the warm draw read the cold draw's entry and stored none
            assert entries[0] is entries[1]


def test_synth_bytes_equal_the_serial_draw_on_every_model_config(
        thermal_cfg, monkeypatch):
    # two factor blocks, shared by two threads on a cold memo, for each
    # config of the reference model pass's test
    monkeypatch.setattr(rhet.synth, "_thread_count", lambda workers: 2)
    n, dt = 140_000, 2e-7
    for name, cfg in _model_configs(thermal_cfg).items():
        monkeypatch.setattr(rhet.synth, "_memo", (None, None))
        want = _serial_current(cfg, n, dt, 3, 0.0, _serial_factors(cfg, n, dt))
        got = synth_gaussian_trace(cfg, n * dt, dt, seed=3).samples
        assert got.tobytes() == want.tobytes(), name


def test_synth_threads_under_stress_keep_the_serial_bytes(thermal_cfg,
                                                         monkeypatch):
    # more threads than cores and a short switch interval, and four callers
    # at once on one cold memo: each fills its own factors, on two threads
    # that share its iterator of blocks, and stores them whole, and every
    # trace keeps the bytes of the serial draw
    monkeypatch.setattr(rhet.synth, "_thread_count", lambda workers: 5)
    cfg = dataclasses.replace(thermal_cfg,
                              drift=PhaseDriftSpec(0.785, 25.0, "sine"))
    n, dt = 270_000, 2e-7
    factors = _serial_factors(cfg, n, dt)
    want = {s: _serial_current(cfg, n, dt, s, 2500.0, factors).tobytes()
            for s in range(4)}
    got = {}
    monkeypatch.setattr(rhet.synth, "_memo", (None, None))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=lambda s=s: got.__setitem__(
            s, synth_gaussian_trace(cfg, n * dt, dt, seed=s,
                                    pilot_amplitude=2500.0).samples.tobytes()))
            for s in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    key, stored = rhet.synth._memo
    assert key == (cfg, n, dt)
    for f, w in zip(stored, factors):
        assert f.tobytes() == w.tobytes()


def test_synth_factor_memo_contract(thermal_cfg, monkeypatch):
    # one slot: a miss fills new factors, every block of them once between
    # its threads, and stores them read-only; a hit only draws
    fills = []  # (key, factors, block starts taken) per call
    fill = rhet.synth._fill_factors

    def counted(cfg, n, dt, factors, starts):
        taken = []
        fills.append(((cfg, n, dt), factors, taken))
        fill(cfg, n, dt, factors, (taken.append(k) or k for k in starts))

    def filled():
        # the distinct factors filled so far, with their keys and blocks
        out = {}
        for key, factors, taken in fills:
            out.setdefault(id(factors), (key, factors, []))[2].extend(taken)
        return list(out.values())

    monkeypatch.setattr(rhet.synth, "_fill_factors", counted)
    n, dt = 140_000, 2e-7  # 70 001 bins: two blocks
    for threads in (1, 2):
        monkeypatch.setattr(rhet.synth, "_thread_count",
                            lambda workers: threads)
        monkeypatch.setattr(rhet.synth, "_memo", (None, None))
        fills.clear()
        cold = synth_gaussian_trace(thermal_cfg, n * dt, dt, seed=9)
        warm = synth_gaussian_trace(thermal_cfg, n * dt, dt, seed=9)
        assert cold.samples.tobytes() == warm.samples.tobytes()
        (key, base, taken), = filled()
        assert key == (thermal_cfg, n, dt)
        assert sorted(taken) == [0, 65536]
        assert rhet.synth._memo[0] == key and rhet.synth._memo[1] is base
        for f in base:
            assert not f.flags.writeable
            with pytest.raises(ValueError):
                f[0] = 0.0
        for count, key in enumerate((
                (dataclasses.replace(thermal_cfg,
                                     kappa=2.0 * thermal_cfg.kappa), n, dt),
                (thermal_cfg, n + 1, dt),
                (thermal_cfg, n, 1.5 * dt)), start=2):
            cfg, m, step = key
            synth_gaussian_trace(cfg, m * step, step, seed=9)
            assert len(filled()) == count
            last_key, factors, taken = filled()[-1]
            assert last_key == key and sorted(taken) == [0, 65536]
            stored, other = rhet.synth._memo
            assert stored == key and other is factors
            assert not np.array_equal(other[0], base[0])


def test_fill_factors_keep_the_reference_bits_off_the_positive_bins(
        thermal_cfg, monkeypatch):
    # rows the model never gives: P(nu) zero, negative or NaN in places,
    # P(-nu) below |s_aa|^2 / P(nu); the fill must keep _serial_factors'
    # bits there too
    n, dt = 140_000, 2e-7
    h = n // 2 + 1
    rng = np.random.default_rng(8)
    p1 = rng.uniform(0.5, 2.0, h)
    p1[::7], p1[3::11], p1[5::13] = 0.0, -1e-3, np.nan
    p2 = rng.uniform(-0.1, 2.0, h)
    c = rng.standard_normal(h) + 1j * rng.standard_normal(h)
    rows = {}

    def crafted(cfg, nu):
        # the rows of the bins nu, by their place in the fftfreq grid
        k = np.abs(np.rint(nu * (n * dt) / TWO_PI)).astype(int)
        rows[k[0]] = p1[k], p2[k], c[k]
        return tuple(r.copy() for r in rows[k[0]])

    monkeypatch.setattr(rhet.synth, "_model_rows", crafted)
    # the caller's arrays hold junk before the fill
    got = np.full(h, 7.0), np.full(h, 7.0 + 7.0j), np.full(h, 7.0)
    with np.errstate(invalid="ignore"):
        rhet.synth._fill_factors(thermal_cfg, n, dt, got,
                                 iter(range(0, h, 65536)))
        scale = 0.5 / (n * dt)
        q1, q2, cc = (r * scale for r in (p1, p2, c))
        safe = np.where(q1 > 0, q1, 1.0)
        want = (np.sqrt(q1),
                np.where(q1 > 0, np.conj(cc) / np.sqrt(safe), 0.0),
                np.sqrt(np.maximum(
                    q2 - np.where(q1 > 0, np.abs(cc) ** 2 / safe, 0.0), 0.0)))
    assert sorted(rows) == [0, 65536]
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_synth_draws_no_unread_normals(thermal_cfg):
    # the fourth draw stops after the last positive bin, unless a random
    # walk's steps follow it in the stream
    for n in (4096, 4097, 140_001):
        for whole, count in ((False, 3 * n + (n + 1) // 2), (True, 4 * n)):
            rng = np.random.default_rng(5)
            rhet.synth._draw_normals(rng, np.empty(n, dtype=complex), whole)
            want = np.random.default_rng(5)
            want.standard_normal(count)
            assert rng.bit_generator.state == want.bit_generator.state


def test_synth_peak_allocation_is_bounded(thermal_cfg, monkeypatch):
    # a cold draw (factors not memoised) of 1e6 samples; the parent design
    # of the draw peaked at 31x the trace
    monkeypatch.setattr(rhet.synth, "_memo", (None, None))
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tr = synth_gaussian_trace(thermal_cfg, 0.2, 2e-7, seed=4)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert tr.n == 1_000_000
    assert peak <= 12 * tr.samples.nbytes


def test_synth_accepts_list_and_array_config_fields(thermal_cfg):
    # the memo compares configs; ExperimentConfig stores sequences as tuples
    loose = dataclasses.replace(thermal_cfg, modes=list(thermal_cfg.modes),
                                coupling=np.array(thermal_cfg.coupling))
    assert loose == thermal_cfg and hash(loose) == hash(thermal_cfg)
    n, dt = 256, 2e-7
    got = synth_gaussian_trace(loose, n * dt, dt, seed=3).samples
    want = synth_gaussian_trace(thermal_cfg, n * dt, dt, seed=3).samples
    assert got.tobytes() == want.tobytes()


def test_synth_runs_on_the_numpy1_fft_signature(thermal_cfg, monkeypatch):
    # numpy.fft.fft, ifft and rfft take no out= before NumPy 2.0; pyproject
    # allows 1.24
    n, dt = 128, 2e-7
    drift = PhaseSeries(times=np.linspace(0.0, n * dt, 9),
                        theta=0.2 * np.sin(np.arange(9.0)))

    def outputs():
        tr = synth_gaussian_trace(thermal_cfg, n * dt, dt, seed=5)
        return [tr.samples.tobytes(),
                rhet_spectrum(tr, -1.0, 0.3, segments=2).values.tobytes(),
                theta_map_fast(tr, -1.0, n_theta=4,
                               segments=2).spectra.tobytes(),
                complex_corr_spectrum(tr, segments=2).values.tobytes()] + [
                theta_map_fast(synth_gaussian_trace(thermal_cfg, n * dt, dt,
                                                    seed=5),
                               -1.0, n_theta=4, segments=4,
                               phase_correction=drift,
                               workers=w).spectra.tobytes() for w in (1, 2)]

    want = outputs()
    assert want[-1] == want[-2]
    for name in ("fft", "ifft", "rfft"):
        monkeypatch.setattr(np.fft, name, lambda a, n=None, axis=-1,
                            norm=None, fn=getattr(np.fft, name):
                            fn(a, n, axis, norm))
    assert outputs() == want
