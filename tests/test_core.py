"""Domain types: construction contracts and config validation."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhet import (ExperimentConfig, FilterSpec, MechMode, PhaseDriftSpec,
                  PhaseSeries, Spectrum, ThetaMap, TimeTrace,
                  default_thermal_config, validate_config)
from rhet.core import TWO_PI


def _one_mode_cfg(**overrides):
    base = dict(
        kappa=TWO_PI * 1.3e6,
        detuning=0.0,
        modes=(MechMode(omega_m=TWO_PI * 378.16e3, gamma=TWO_PI * 4.56e3,
                        mass=300e-12, nbar=1e6),),
        coupling=(TWO_PI * 25.0,),
        omega_beat=TWO_PI * 1.0e4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_default_config_is_error_free(thermal_cfg):
    problems = validate_config(thermal_cfg)
    assert not [p for p in problems if p.startswith("error")]
    assert len(thermal_cfg.modes) == 2
    assert len(thermal_cfg.coupling) == 2
    assert thermal_cfg.shot_floor == 1.0


def test_regime_advisory_fires_when_beat_is_close_to_linewidth(thermal_cfg):
    # Omega/2pi = 10 kHz sits below 5*gamma for both thermal modes; the
    # method still works (every agreement test passes) but the advisory
    # must flag the marginal separation.
    problems = validate_config(thermal_cfg)
    regime = [p for p in problems if "operating regime" in p]
    assert len(regime) == 2
    assert all(p.startswith("warning") for p in regime)


@pytest.mark.parametrize("overrides,needle", [
    (dict(kappa=-1.0), "kappa"),
    (dict(omega_beat=0.0), "omega_beat"),
    (dict(shot_floor=0.0), "shot_floor"),
    (dict(backaction_weight=-0.5), "backaction_weight"),
    (dict(modes=(), coupling=()), "at least one"),
    (dict(coupling=(1.0, 2.0)), "one entry per mode"),
    (dict(drift=PhaseDriftSpec(amplitude=-1.0)), "drift amplitude"),
    (dict(drift=PhaseDriftSpec(amplitude=0.1, kind="steps")), "drift kind"),
    (dict(drift=PhaseDriftSpec(amplitude=0.1, freq_hz=0.0)), "freq_hz"),
])
def test_validate_config_flags_errors(overrides, needle):
    problems = validate_config(_one_mode_cfg(**overrides))
    hits = [p for p in problems if p.startswith("error") and needle in p]
    assert hits, problems


@pytest.mark.parametrize("mode,needle", [
    (MechMode(omega_m=-1.0, gamma=1.0, mass=1.0, nbar=0.0), "omega_m"),
    (MechMode(omega_m=1e5, gamma=2e5, mass=1.0, nbar=0.0), "underdamped"),
    (MechMode(omega_m=1e5, gamma=1e3, mass=0.0, nbar=0.0), "mass"),
    (MechMode(omega_m=1e5, gamma=1e3, mass=1.0, nbar=-1.0), "nbar"),
])
def test_validate_config_flags_mode_errors(mode, needle):
    problems = validate_config(_one_mode_cfg(modes=(mode,)))
    hits = [p for p in problems if p.startswith("error") and needle in p]
    assert hits, problems


def test_validate_config_checks_sampling(thermal_cfg):
    # upper sideband ~554.78 kHz: dt=2e-7 is comfortable, dt=8e-7 folds,
    # dt=1e-6 cannot represent the band at all
    assert not [p for p in validate_config(thermal_cfg, dt=2e-7)
                if "Nyquist" in p or "sampling" in p]
    warn = validate_config(thermal_cfg, dt=8e-7)
    assert any(p.startswith("warning") and "Nyquist" in p for p in warn)
    err = validate_config(thermal_cfg, dt=1e-6)
    assert any(p.startswith("error") and "sampling too slow" in p for p in err)
    for bad in (0.0, -2e-7, np.inf, np.nan):
        assert "error: dt must be positive and finite" in \
            validate_config(thermal_cfg, dt=bad)
    # no mode frequency passes its bound: the sideband check still runs
    lone = _one_mode_cfg(modes=(MechMode(omega_m=np.nan, gamma=1e3,
                                         mass=1.0, nbar=0.0),))
    assert "error: mode 0: omega_m must be finite and positive" in \
        validate_config(lone, dt=2e-7)


def test_time_trace_contracts():
    tr = TimeTrace(samples=np.arange(5, dtype=float), dt=0.5, omega_beat=10.0)
    assert tr.n == 5
    assert tr.duration == pytest.approx(2.5)
    assert np.array_equal(tr.times(), 0.5 * np.arange(5))
    with pytest.raises(ValueError):
        TimeTrace(samples=np.array([1.0]), dt=0.5, omega_beat=10.0)
    with pytest.raises(ValueError):
        TimeTrace(samples=np.arange(5.0), dt=0.0, omega_beat=10.0)
    with pytest.raises(ValueError):
        TimeTrace(samples=np.arange(5.0), dt=0.5, omega_beat=-1.0)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        TimeTrace(samples=np.arange(5.0), dt=np.inf, omega_beat=10.0)
    with pytest.raises(ValueError, match="omega_beat must be positive and"):
        TimeTrace(samples=np.arange(5.0), dt=0.5, omega_beat=np.inf)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_time_trace_rejects_non_finite_samples(bad):
    samples = np.arange(5.0)
    samples[2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        TimeTrace(samples=samples, dt=0.5, omega_beat=10.0)


def test_phase_series_contracts():
    t = np.linspace(0.0, 1.0, 11)
    ps = PhaseSeries(times=t, theta=0.2 * t)
    assert ps.sample_at(np.array([-5.0, 0.5, 5.0])) == pytest.approx(
        [0.0, 0.1, 0.2])  # clamped at the ends
    with pytest.raises(ValueError):
        PhaseSeries(times=t, theta=np.zeros(7))
    with pytest.raises(ValueError):
        PhaseSeries(times=t[::-1], theta=0.0 * t)
    with pytest.raises(ValueError):
        PhaseSeries(times=np.array([0.0, 1.0]), theta=np.array([0.0, 4.0]))
    with pytest.raises(ValueError):
        PhaseSeries(times=np.array([0.0, 1.0]), theta=np.array([0.0, np.nan]))


def test_filter_spec_contracts():
    FilterSpec(epsilon=-1.0, omega_beat=1.0)
    FilterSpec(epsilon=1.0, omega_beat=1.0)
    with pytest.raises(ValueError):
        FilterSpec(epsilon=1.0000001, omega_beat=1.0)
    with pytest.raises(ValueError):
        FilterSpec(epsilon=-1.5, omega_beat=1.0)
    with pytest.raises(ValueError):
        FilterSpec(epsilon=0.0, omega_beat=0.0)
    with pytest.raises(ValueError, match="omega_beat must be positive and"):
        FilterSpec(epsilon=0.0, omega_beat=np.inf)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="filter phase must be finite"):
            FilterSpec(epsilon=0.0, omega_beat=1.0, phase_offset=bad)


def test_spectrum_contracts():
    f = np.array([1.0, 2.0, 3.0])
    s = Spectrum(freqs=f, values=np.array([1.0, 5.0, 2.0]))
    assert np.array_equal(s.band(1.5, 3.0), [False, True, True])
    with pytest.raises(ValueError):
        Spectrum(freqs=f[::-1], values=np.zeros(3))
    with pytest.raises(ValueError):
        Spectrum(freqs=f, values=np.zeros(4))
    with pytest.raises(ValueError):
        Spectrum(freqs=f, values=np.zeros(3), variance=np.zeros(2))


def test_spectrum_skips_the_order_check_only_for_its_own_grid():
    # every grid is checked, the memoised one and a read-only one alike
    from rhet.core import _spectrum_grid
    grid = _spectrum_grid(16, 1e-3)
    assert Spectrum(freqs=grid, values=np.zeros(16)).freqs is grid
    for f in (grid[::-1], np.array([1.0, 3.0, 2.0]), np.array([1.0, 1.0])):
        ro = f.copy()
        ro.flags.writeable = False
        for freqs in (f, ro):
            with pytest.raises(ValueError, match="strictly ascending"):
                Spectrum(freqs=freqs, values=np.zeros(f.size))


def test_theta_map_contracts():
    m = ThetaMap(thetas=np.arange(3.0), freqs=np.arange(4.0),
                 spectra=np.zeros((3, 4)))
    assert m.normalization == 1.0
    with pytest.raises(ValueError):
        ThetaMap(thetas=np.arange(3.0), freqs=np.arange(4.0),
                 spectra=np.zeros((4, 3)))
    with pytest.raises(ValueError):
        ThetaMap(thetas=np.arange(3.0), freqs=np.arange(4.0),
                 spectra=np.zeros((3, 4)), normalization=0.0)
    with pytest.raises(ValueError, match="normalization must be positive"):
        ThetaMap(thetas=np.arange(3.0), freqs=np.arange(4.0),
                 spectra=np.zeros((3, 4)), normalization=np.inf)


def test_spectrum_and_theta_map_reject_non_finite_frequencies():
    Spectrum(freqs=np.empty(0), values=np.empty(0))
    for f in ([np.nan], [np.inf], [-np.inf, 0.0], [0.0, np.inf],
              [-np.inf, 0.0, np.inf]):
        with pytest.raises(ValueError, match="freqs must be finite"):
            Spectrum(freqs=f, values=np.zeros(len(f)))
        with pytest.raises(ValueError, match="freqs must be finite"):
            ThetaMap(thetas=[0.0], freqs=f, spectra=np.zeros((1, len(f))))
    with pytest.raises(ValueError, match="freqs must be finite"):
        ThetaMap(thetas=[0.0], freqs=[2.0, np.nan, 1.0],
                 spectra=np.zeros((1, 3)))


_finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(
    kappa=st.floats(-1e7, 1e8, **_finite),
    detuning=st.floats(-1e7, 1e7, **_finite),
    omega_m=st.floats(-1e6, 1e7, **_finite),
    gamma=st.floats(-1e5, 1e6, **_finite),
    nbar=st.floats(-10.0, 1e9, **_finite),
    g=st.floats(-1e3, 1e6, **_finite),
    omega_beat=st.floats(-1e5, 1e6, **_finite),
    shot=st.floats(-1.0, 10.0, **_finite),
    w=st.floats(-1.0, 2.0, **_finite),
)
def test_validate_config_total_and_tagged(kappa, detuning, omega_m, gamma,
                                          nbar, g, omega_beat, shot, w):
    # validation never raises, and every finding carries a severity tag
    cfg = ExperimentConfig(
        kappa=kappa, detuning=detuning,
        modes=(MechMode(omega_m=omega_m, gamma=gamma, mass=1e-12, nbar=nbar),),
        coupling=(g,), omega_beat=omega_beat, shot_floor=shot,
        backaction_weight=w)
    problems = validate_config(cfg)
    assert all(p.startswith(("error: ", "warning: ")) for p in problems)
    if not problems:
        assert kappa > 0 and omega_beat > 0 and shot > 0


def test_config_is_frozen(thermal_cfg):
    with pytest.raises(dataclasses.FrozenInstanceError):
        thermal_cfg.kappa = 1.0
