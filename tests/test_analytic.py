"""Closed-form model: coefficients, susceptibilities, spectra, predictions.

The filter coefficients get an independent oracle (piecewise integration of
the square wave), the model gets its exact symmetries and bounds, and the
prediction layer gets the identities that the estimator acceptance tests
lean on.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhet import (ExperimentConfig, FilterSpec, GridError, MechMode,
                  TimeTrace, cavity_susceptibility, eval_filter,
                  field_spectra, filter_coefficients, filtered_autocorr,
                  heterodyne_psd, homodyne_psd, rhet_prediction)
from rhet.analytic import FieldSpectra
from rhet.core import TWO_PI


# ------------------------------------------------------------ coefficients

def test_filter_coefficients_fixed_points():
    assert filter_coefficients(1.0, 0) == 1.0
    assert filter_coefficients(-1.0, 0) == 0.0
    assert filter_coefficients(0.0, 0) == 0.5
    assert filter_coefficients(-1.0, 1) == pytest.approx(2.0 / np.pi, abs=1e-15)
    assert filter_coefficients(1.0, 1) == 0.0
    for k in (2, 4, 6):
        assert filter_coefficients(-0.7, k) == 0.0
    eps = 0.3
    assert filter_coefficients(eps, 3) == pytest.approx(
        -(1.0 - eps) / (3.0 * np.pi), abs=1e-15)
    arr = filter_coefficients(eps, np.arange(5))
    assert arr.shape == (5,)
    assert arr[0] == filter_coefficients(eps, 0)
    assert arr[3] == filter_coefficients(eps, 3)


def test_filter_coefficients_against_segment_integral():
    # independent oracle: integrate the square wave piecewise. F(psi) is +1
    # on psi in [-pi/2, pi/2] and eps on [pi/2, 3pi/2]; c_k is the cosine
    # overlap over one period.
    eps = -0.3
    for k in range(0, 7):
        if k == 0:
            want = (np.pi * 1.0 + np.pi * eps) / TWO_PI
        else:
            plus = (np.sin(k * np.pi / 2) - np.sin(-k * np.pi / 2)) / k
            rest = (np.sin(3 * k * np.pi / 2) - np.sin(k * np.pi / 2)) / k
            want = (plus + eps * rest) / TWO_PI
        assert filter_coefficients(eps, k) == pytest.approx(want, abs=1e-12)


def test_sampled_filter_reproduces_coefficients():
    # Riemann cross-check: averaging eval_filter against cos(k psi) over one
    # period recovers c_k (ties the time-domain filter to the coefficients)
    eps, phi0 = -0.3, 0.9
    omega = TWO_PI * 1.0e4
    f = FilterSpec(epsilon=eps, omega_beat=omega, phase_offset=phi0)
    n = 1 << 16
    t = (np.arange(n) + 0.5) * (np.pi / omega) / n  # one filter period
    vals = eval_filter(f, t)
    psi = 2.0 * omega * t - phi0
    assert np.mean(vals) == pytest.approx(filter_coefficients(eps, 0), abs=1e-3)
    for k in (1, 2, 3):
        ck = np.mean(vals * np.cos(k * psi))
        assert ck == pytest.approx(filter_coefficients(eps, k), abs=1e-3)


# ---------------------------------------------------------- susceptibilities

def test_cavity_susceptibility_values():
    # 1/(kappa - i(detuning + omega))
    assert cavity_susceptibility(0.0, 2.0, 0.0) == pytest.approx(0.5)
    v = cavity_susceptibility(1.0, 1.0, 0.0)
    assert v == pytest.approx((1.0 + 1.0j) / 2.0)
    assert np.angle(v) == pytest.approx(np.pi / 4)
    v = cavity_susceptibility(3.0, 1.0, -2.0)
    assert v == pytest.approx(1.0 / (1.0 - 1.0j))


# ------------------------------------------------------------ model spectra

def test_field_spectra_symmetries(thermal_cfg):
    nu = TWO_PI * np.linspace(-700e3, 700e3, 4001)
    fs = field_spectra(thermal_cfg, nu)
    assert np.all(np.isfinite(fs.s_adaga))
    assert np.all(fs.s_adaga > 0)
    # anomalous part is even in nu
    assert np.max(np.abs(fs.s_aa - fs.s_aa[::-1])) < 1e-12 * np.max(np.abs(fs.s_aa))
    # s_aadag(nu) = s_adaga(-nu) by stationarity
    assert np.array_equal(fs.s_aadag, fs.s_adaga[::-1]) or \
        np.max(np.abs(fs.s_aadag - fs.s_adaga[::-1])) < 1e-12 * np.max(fs.s_adaga)


def test_zero_coupling_leaves_exactly_the_shot_floor(thermal_cfg):
    cfg = dataclasses.replace(thermal_cfg, coupling=(0.0, 0.0), shot_floor=0.7)
    nu = TWO_PI * np.linspace(-700e3, 700e3, 1001)
    fs = field_spectra(cfg, nu)
    het = heterodyne_psd(fs, cfg.omega_beat)
    # the reflection coefficient has unit modulus at every detuning, so an
    # uncoupled cavity passes the imprecision floor through untouched
    assert np.max(np.abs(het.values - 0.7)) < 1e-12


def test_homodyne_three_point_envelope_identity(thermal_cfg):
    # S(theta) = A + Re[e^{-2i theta} B] exactly, so any angle reconstructs
    # from the 0/45/90 degree spectra
    nu = TWO_PI * np.linspace(320e3, 440e3, 801)
    fs = field_spectra(thermal_cfg, nu)
    s0 = homodyne_psd(fs, 0.0).values
    s45 = homodyne_psd(fs, np.pi / 4).values
    s90 = homodyne_psd(fs, np.pi / 2).values
    a = 0.5 * (s0 + s90)
    b = 0.5 * (s0 - s90) + 1j * (s45 - a)
    for th in np.linspace(0.1, 3.0, 7):
        direct = homodyne_psd(fs, th).values
        recon = a + np.real(np.exp(-2j * th) * b)
        assert np.max(np.abs(direct - recon)) < 1e-10 * np.max(np.abs(direct))


def test_heterodyne_psd_is_even(thermal_cfg):
    nu = TWO_PI * np.linspace(-700e3, 700e3, 2001)
    fs = field_spectra(thermal_cfg, nu)
    het = heterodyne_psd(fs, thermal_cfg.omega_beat)
    assert np.max(np.abs(het.values - het.values[::-1])) < \
        1e-12 * np.max(het.values)


def test_detached_spectra_raise_off_grid_and_config_reevaluates(thermal_cfg):
    nu = TWO_PI * np.linspace(370e3, 390e3, 501)  # too narrow for the shift
    fs = field_spectra(thermal_cfg, nu)
    detached = FieldSpectra(freqs=fs.freqs, s_aadag=fs.s_aadag,
                            s_adaga=fs.s_adaga, s_aa=fs.s_aa, config=None)
    with pytest.raises(GridError):
        heterodyne_psd(detached, thermal_cfg.omega_beat)
    # with the config attached the same call re-evaluates the model exactly
    het = heterodyne_psd(fs, thermal_cfg.omega_beat)
    wide = field_spectra(thermal_cfg, np.concatenate(
        [nu + thermal_cfg.omega_beat, nu - thermal_cfg.omega_beat]))
    direct = wide.s_aadag[: nu.size] + wide.s_adaga[nu.size:]
    assert np.max(np.abs(het.values - direct)) < 1e-12 * np.max(direct)


def test_ponderomotive_squeezing_requires_backaction():
    mode = MechMode(omega_m=TWO_PI * 378.16e3, gamma=TWO_PI * 4.56e3,
                    mass=3e-10, nbar=2.0)
    cfg = ExperimentConfig(kappa=TWO_PI * 1.3e6, detuning=-TWO_PI * 1e5,
                           modes=(mode,), coupling=(TWO_PI * 5e4,),
                           omega_beat=TWO_PI * 1e4, backaction_weight=1.0)
    nu = TWO_PI * np.linspace(300e3, 460e3, 2001)
    thetas = np.linspace(0.0, np.pi, 60, endpoint=False)
    fs = field_spectra(cfg, nu)
    smin = min(float(np.min(homodyne_psd(fs, th).values)) for th in thetas)
    assert smin < 1.0  # below the shot floor somewhere
    fs0 = field_spectra(dataclasses.replace(cfg, backaction_weight=0.0), nu)
    smin0 = min(float(np.min(homodyne_psd(fs0, th).values)) for th in thetas)
    assert smin0 >= 1.0 - 1e-12  # no squeezing without the feedback loop


def test_sideband_asymmetry_weights():
    # wide flat cavity, nbar=1: upper/lower thermal sideband weights are
    # nbar/(nbar+1) = 1/2
    mode = MechMode(omega_m=TWO_PI * 378.16e3, gamma=TWO_PI * 10.0,
                    mass=3e-10, nbar=1.0)
    cfg = ExperimentConfig(kappa=TWO_PI * 50e6, detuning=0.0, modes=(mode,),
                           coupling=(TWO_PI * 100.0,), omega_beat=TWO_PI * 1e4,
                           shot_floor=1e-9)
    fs = field_spectra(cfg, TWO_PI * np.array([-378.16e3, 378.16e3]))
    ratio = fs.s_adaga[1] / fs.s_adaga[0]
    assert ratio == pytest.approx(0.5, rel=0.05)


# ------------------------------------------------------------- predictions

def test_prediction_at_eps_plus_one_is_plain_heterodyne(thermal_cfg):
    nu = TWO_PI * np.linspace(-700e3, 700e3, 2001)
    fs = field_spectra(thermal_cfg, nu)
    het = heterodyne_psd(fs, thermal_cfg.omega_beat)
    for variant in ("tbar", "t0"):
        pred = rhet_prediction(fs, thermal_cfg.omega_beat, 0.91, 1.0,
                               variant=variant)
        assert np.max(np.abs(pred.values - het.values)) < \
            1e-14 * np.max(het.values)


def test_prediction_tbar_structure(thermal_cfg):
    # at eps=-1 the heterodyne part cancels and only the rotated anomalous
    # term with weight 2*c1 survives
    nu = TWO_PI * np.linspace(330e3, 430e3, 501)
    fs = field_spectra(thermal_cfg, nu)
    th = 0.27
    pred = rhet_prediction(fs, thermal_cfg.omega_beat, th, -1.0, variant="tbar")
    want = 2.0 * (2.0 / np.pi) * np.real(np.exp(-2j * th) * fs.s_aa)
    assert np.max(np.abs(pred.values - want)) < 1e-12 * np.max(np.abs(want))


def test_prediction_t0_features_sit_at_shifted_sidebands(thermal_cfg):
    # t0 places the correlation term at omega_m +- Omega, not at omega_m
    m1 = thermal_cfg.modes[0]
    om = thermal_cfg.omega_beat
    nu = TWO_PI * np.linspace(330e3, 430e3, 8001)
    fs = field_spectra(thermal_cfg, nu)
    pred = rhet_prediction(fs, om, 0.0, -1.0, variant="t0")

    def at(spec, target):
        return abs(spec.values[np.argmin(np.abs(spec.freqs - target))])

    assert at(pred, m1.omega_m + om) > 3.0 * at(pred, m1.omega_m)
    assert at(pred, m1.omega_m - om) > 3.0 * at(pred, m1.omega_m)


# ------------------------------------------------------- bounds, conventions

_pos = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    kappa_hz=st.floats(1e4, 1e8, **_pos),
    det_hz=st.floats(-2e6, 2e6, **_pos),
    om_hz=st.floats(1e4, 1e6, **_pos),
    gam_hz=st.floats(1.0, 1e3, **_pos),
    nbar=st.floats(0.0, 1e8, **_pos),
    g_hz=st.floats(0.0, 1e5, **_pos),
    w=st.floats(0.0, 1.0, **_pos),
)
def test_model_never_violates_cauchy_schwarz(kappa_hz, det_hz, om_hz, gam_hz,
                                             nbar, g_hz, w):
    cfg = ExperimentConfig(
        kappa=TWO_PI * kappa_hz, detuning=TWO_PI * det_hz,
        modes=(MechMode(omega_m=TWO_PI * om_hz, gamma=TWO_PI * gam_hz,
                        mass=1e-12, nbar=nbar),),
        coupling=(TWO_PI * g_hz,), omega_beat=TWO_PI * 1e4,
        backaction_weight=w)
    nu = TWO_PI * om_hz * np.linspace(-1.5, 1.5, 301)
    fs = field_spectra(cfg, nu)  # raises PhysicalityError on violation
    bound = fs.s_adaga * fs.s_adaga[::-1]
    assert np.all(np.abs(fs.s_aa) ** 2 <= bound * (1 + 1e-9) + 1e-300)


def test_sign_convention_calibration_passes():
    # A deterministic two-tone field with a known anomalous-correlation
    # phase chi, modulated at a known LO phase theta0, against a scan of
    # the filter phase offset. The response must peak at
    # phi0 = chi - 2 theta0, which pins both senses used across the package:
    # the filter phase adds to the LO phase (quadrature angle
    # theta_f + theta0), and the correlation term enters the filtered
    # spectrum as +2 c1 Re[e^{-i(phi0 + 2 theta0)} s_aa].
    omega = TWO_PI * 1.0e4
    om_m = 2.5 * omega
    chi = 0.6
    theta0 = 0.35
    # incommensurate sampling, so the square filter's discrete coefficients
    # match the continuous ones
    dt = (TWO_PI / omega) / 24.6180339887
    t = np.arange(40000) * dt
    a = 0.5 * (np.exp(-1j * om_m * t) + np.exp(1j * (om_m * t + chi)))
    ph = omega * t + theta0
    cur = 2 * np.real(a) * np.cos(ph) + 2 * np.imag(a) * np.sin(ph)
    trace = TimeTrace(samples=cur, dt=dt, omega_beat=omega,
                      theta_nominal=theta0)
    lags = np.arange(0, 30)
    phis = np.linspace(0.0, TWO_PI, 96, endpoint=False)
    resp = np.empty(phis.size)
    for i, p in enumerate(phis):
        f = FilterSpec(epsilon=-1.0, omega_beat=omega, phase_offset=p)
        ac = filtered_autocorr(trace, f, variant="tbar")
        # project the lag profile on cos(om_m tau): isolates the correlation
        resp[i] = np.mean(ac.values[lags] * np.cos(om_m * lags * dt))
    # the peak location from the phase of the scan's fundamental
    z = np.sum(resp * np.exp(1j * phis)) / phis.size
    measured = float(np.angle(z)) % TWO_PI
    expected = (chi - 2.0 * theta0) % TWO_PI
    err = (measured - expected + np.pi) % TWO_PI - np.pi
    assert abs(err) < 0.01
