"""Shared value types and configuration validation.

Every other module passes these objects around. They are plain dataclasses;
array payloads are treated as immutable by convention: nothing in the package
mutates a trace's samples, a spectrum, or a map after construction.

Units: angular frequencies (rad/s) everywhere in memory. File formats use Hz
and convert on the way in/out (see rhet.io).
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

TWO_PI = 2.0 * np.pi


class ConfigError(ValueError):
    """Invalid experiment configuration or config-file schema."""


class PhysicalityError(ValueError):
    """A model output violates a physical bound."""


class TraceFormatError(IOError):
    """Binary trace file is malformed or truncated."""


class GridError(ValueError):
    """Frequency grid does not cover what an operation needs."""


@dataclass(frozen=True)
class MechMode:
    """One mechanical resonance.

    omega_m : angular resonance frequency (rad/s)
    gamma   : FWHM damping rate (rad/s)
    mass    : effective mass (kg); kept in configs, no model output uses it
    nbar    : mean thermal occupancy (dimensionless)
    """

    omega_m: float
    gamma: float
    mass: float
    nbar: float


@dataclass(frozen=True)
class PhaseDriftSpec:
    """Slow local-oscillator phase drift riding on theta0.

    kind "sine": theta0 + amplitude*sin(2*pi*freq_hz*t)
    kind "walk": random walk scaled so the std of the endpoint drift over the
    trace duration equals `amplitude` (needs the synthesis seed).
    """

    amplitude: float = 0.0
    freq_hz: float = 25.0
    kind: str = "sine"


@dataclass(frozen=True)
class ExperimentConfig:
    """Cavity + mechanics + detection settings for the analytic model and
    the synthesizer.

    kappa             : cavity amplitude decay rate (rad/s); the cavity
                        response used throughout is 1/(kappa - i(detuning+omega))
    detuning          : laser-cavity detuning (rad/s)
    modes             : tuple of MechMode; a list is stored as a tuple
    coupling          : per-mode measurement-rate-like coupling g (rad/s);
                        thermal peak height above the floor scales as
                        2*kappa*g^2*|chi_c|^2 * 4*nbar/gamma
    omega_beat        : heterodyne beat frequency Omega (rad/s)
    theta0            : nominal LO phase (rad)
    drift             : PhaseDriftSpec
    shot_floor        : white imprecision floor in PSD units (1.0 = shot units)
    backaction_weight : 0 disables the radiation-pressure feedback loop,
                        1 enables it at full strength (correlated backaction)
    """

    kappa: float
    detuning: float
    modes: tuple
    coupling: tuple
    omega_beat: float
    theta0: float = 0.0
    drift: PhaseDriftSpec = field(default_factory=PhaseDriftSpec)
    shot_floor: float = 1.0
    backaction_weight: float = 0.0

    def __post_init__(self):  # hashable: rhet.synth memoises on the config
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "coupling", tuple(self.coupling))


@dataclass(eq=False)
class TimeTrace:
    """Sampled photocurrent plus the metadata needed to process it.

    samples is a read-only view: rhet.estimator memoises per-trace spectral
    streams in the private _bases field, and a writable payload could make
    them stale.
    """

    samples: np.ndarray
    dt: float
    omega_beat: float
    theta_nominal: float = 0.0
    label: str = ""
    _bases: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64).view()
        self.samples.flags.writeable = False
        if self.samples.ndim != 1 or self.samples.size < 2:
            raise ValueError("trace must be a 1-d array with at least 2 samples")
        if not np.isfinite(self.samples).all():
            raise ValueError("trace contains non-finite samples")
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if not 0 < self.omega_beat < np.inf:
            raise ValueError("omega_beat must be positive and finite")

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.n * self.dt

    def times(self) -> np.ndarray:
        return np.arange(self.n) * self.dt


@dataclass(eq=False)
class PhaseSeries:
    """Sampled phase-vs-time record (lock-in output, drift injection...).

    Contract: times strictly increasing, theta continuous in the unwrapped
    sense (no jump above pi between adjacent points). Both are read-only
    views, since a series keys the estimator's per-trace memo.
    """

    times: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64).view()
        self.theta = np.asarray(self.theta, dtype=np.float64).view()
        self.times.flags.writeable = self.theta.flags.writeable = False
        if self.times.ndim != 1 or self.times.shape != self.theta.shape:
            raise ValueError("times and theta must be 1-d arrays of equal length")
        if self.times.size < 2:
            raise ValueError("phase series needs at least 2 points")
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("theta contains non-finite values")
        if np.max(np.abs(np.diff(self.theta))) > np.pi:
            raise ValueError("theta jumps by more than pi between samples; unwrap first")

    def sample_at(self, t: np.ndarray) -> np.ndarray:
        """Linear interpolation, clamped at the ends."""
        return np.interp(t, self.times, self.theta)


@dataclass(eq=False)
class FilterSpec:
    """Periodic square weight applied to the autocorrelation.

    F = +1 where mod(psi + pi/2, 2*pi) <= pi and epsilon elsewhere, with
    psi = 2*omega_beat*t - phase_offset - d(t). The boundary samples belong
    to the +1 half-cycle (closed interval). d(t) is the optional
    dynamic_offset series added to the phase offset.
    """

    epsilon: float
    omega_beat: float
    phase_offset: float = 0.0
    dynamic_offset: Optional[PhaseSeries] = None

    def __post_init__(self):
        if not (-1.0 <= self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in [-1, 1]")
        if not np.isfinite(self.phase_offset):
            raise ValueError("filter phase must be finite")
        if not 0 < self.omega_beat < np.inf:
            raise ValueError("omega_beat must be positive and finite")


@lru_cache(maxsize=4)
def _spectrum_grid(n_fft: int, dt: float) -> np.ndarray:
    """Shifted two-sided angular-frequency grid, TWO_PI * fftshift(fftfreq)
    to the bit; read-only and shared by every spectrum on it."""
    grid = TWO_PI * (np.arange(-(n_fft // 2), n_fft - n_fft // 2)
                     * (1.0 / (n_fft * dt)))
    grid.flags.writeable = False
    return grid


@dataclass(eq=False)
class Spectrum:
    """One-dimensional spectrum on an ascending angular-frequency grid.

    values may be real (PSD-like) or complex (cross-correlation spectra).
    variance, when present, is the per-bin estimator variance (already
    divided by the number of averaged segments).
    """

    freqs: np.ndarray
    values: np.ndarray
    variance: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=np.float64)
        self.values = np.asarray(self.values)
        if self.freqs.ndim != 1 or self.values.shape != self.freqs.shape:
            raise ValueError("freqs and values must be 1-d arrays of equal length")
        f = self.freqs
        if not (f[1:] > f[:-1]).all():  # NaN compares false
            raise ValueError("freqs must be strictly ascending")
        # strictly ascending, so finite ends make every bin finite
        if self.freqs.size and not np.isfinite(self.freqs[[0, -1]]).all():
            raise ValueError("freqs must be finite")
        if self.variance is not None:
            self.variance = np.asarray(self.variance, dtype=np.float64)
            if self.variance.shape != self.freqs.shape:
                raise ValueError("variance shape mismatch")

    def band(self, lo: float, hi: float) -> np.ndarray:
        """Boolean mask selecting lo <= freq <= hi (rad/s, signed)."""
        return (self.freqs >= lo) & (self.freqs <= hi)


@dataclass(eq=False)
class ThetaMap:
    """Stack of spectra versus filter phase theta (rows: theta, cols: freq)."""

    thetas: np.ndarray
    freqs: np.ndarray
    spectra: np.ndarray
    normalization: float = 1.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.thetas = np.asarray(self.thetas, dtype=np.float64)
        self.freqs = np.asarray(self.freqs, dtype=np.float64)
        self.spectra = np.asarray(self.spectra, dtype=np.float64)
        if self.spectra.shape != (self.thetas.size, self.freqs.size):
            raise ValueError("spectra must have shape (n_theta, n_freq)")
        if not np.isfinite(self.freqs).all():
            raise ValueError("freqs must be finite")
        if not 0 < self.normalization < np.inf:
            raise ValueError("normalization must be positive and finite")


# The bound of each number in a config, by the object that holds it. Every
# bound asks for a finite number; _LOWEST holds its smallest legal value.
_NON_NEGATIVE, _POSITIVE = "finite and >= 0", "finite and positive"
_BOUNDS = {
    "config": dict(kappa=_POSITIVE, detuning="finite", omega_beat=_POSITIVE,
                   theta0="finite", shot_floor=_POSITIVE,
                   backaction_weight=_NON_NEGATIVE),
    "mode": dict(omega_m=_POSITIVE, gamma=_POSITIVE, mass=_POSITIVE,
                 nbar=_NON_NEGATIVE),
    "drift": dict(amplitude=_NON_NEGATIVE, freq_hz="finite"),
}
_LOWEST = {"finite": -np.finfo(float).max, _NON_NEGATIVE: 0.0,
           _POSITIVE: 5e-324}  # the smallest positive double


def validate_config(cfg: ExperimentConfig, dt: Optional[float] = None) -> list:
    """Return a list of 'error: ...' / 'warning: ...' strings; empty means
    the config satisfies every hard invariant and sits inside the method's
    operating regime. Passing dt also checks the sampling covers the
    modulated signal band.
    """
    out = []
    err = out.append
    held = [("", cfg, "config"), ("drift ", cfg.drift, "drift")]
    held += [(f"mode {k}: ", m, "mode") for k, m in enumerate(cfg.modes)]
    numbers = [(tag + name, getattr(obj, name), bound) for tag, obj, kind
               in held for name, bound in _BOUNDS[kind].items()]
    numbers += [(f"coupling {k}", g, _NON_NEGATIVE)
                for k, g in enumerate(cfg.coupling)]
    for name, x, bound in numbers:  # NaN fails every comparison
        if not _LOWEST[bound] <= x < np.inf:
            err(f"error: {name} must be {bound}")
    if len(cfg.modes) == 0:
        err("error: at least one mechanical mode required")
    if len(cfg.coupling) != len(cfg.modes):
        err("error: coupling must have one entry per mode")
    for k, mode in enumerate(cfg.modes):
        if 0 < mode.omega_m <= mode.gamma:
            err(f"error: mode {k}: gamma must be below omega_m (underdamped)")
        # operating regime of the method: gamma << Omega << omega_m
        if (cfg.omega_beat > 0 and mode.gamma > 0 and mode.omega_m > 0 and not
                5.0 * mode.gamma <= cfg.omega_beat <= mode.omega_m / 5.0):
            err(f"warning: mode {k}: omega_beat outside the gamma << Omega << "
                f"omega_m operating regime (want 5*gamma <= Omega <= omega_m/5)")
    d = cfg.drift
    if d.kind not in ("sine", "walk"):
        err(f"error: unknown drift kind {d.kind!r}")
    if d.amplitude > 0 and d.kind == "sine" and not (d.freq_hz > 0):
        err("error: drift freq_hz must be positive for sine drift")
    if dt is not None and not 0 < dt < np.inf:
        err("error: dt must be positive and finite")
    elif dt is not None and len(cfg.modes) and cfg.omega_beat > 0:
        top = max((m.omega_m for m in cfg.modes if m.omega_m > 0),
                  default=0.0) + cfg.omega_beat
        nyq = np.pi / dt
        if nyq <= top:
            err("error: sampling too slow, Nyquist below the upper sideband")
        elif nyq < 2.0 * top:
            err("warning: Nyquist under 2x the upper sideband; tails will fold")
    return out


def check_config(cfg: ExperimentConfig, dt: Optional[float] = None) -> list:
    """Raise one ConfigError holding every error validate_config finds,
    without their 'error: ' prefix; return its warnings."""
    problems = validate_config(cfg, dt=dt)
    errors = [p[len("error: "):] for p in problems if p.startswith("error")]
    if errors:
        raise ConfigError("; ".join(errors))
    return [p for p in problems if p.startswith("warning")]


@contextmanager
def _fits(what: str, count: float = 0):
    """Turn a count past any index (inf too), a MemoryError in the block or
    an OverflowError of a size into a ValueError: `what` (the count in its
    {}, %.3g from 1e15) does not fit in memory. It checks the count first."""
    try:
        if not count <= np.iinfo(np.intp).max:
            raise OverflowError
        yield
    except (MemoryError, OverflowError):
        n = f"{count:.0f}" if count < 1e15 else f"{count:.3g}"
        raise ValueError(what.format(n) + " does not fit in memory") from None


def default_thermal_config(detuning: float = -TWO_PI * 1.0e5) -> ExperimentConfig:
    """Two-mode membrane-style configuration used by the test suite and the
    demos. Occupancies and couplings put the thermal peaks roughly 13x and
    5x above the unit floor.
    """
    modes = (
        MechMode(omega_m=TWO_PI * 378.16e3, gamma=TWO_PI * 4.56e3, mass=300e-12, nbar=1.65e7),
        MechMode(omega_m=TWO_PI * 544.78e3, gamma=TWO_PI * 8.44e3, mass=180e-12, nbar=1.145e7),
    )
    return ExperimentConfig(
        kappa=TWO_PI * 1.3e6,
        detuning=detuning,
        modes=modes,
        coupling=(TWO_PI * 25.0, TWO_PI * 25.0),
        omega_beat=TWO_PI * 1.0e4,
        theta0=0.0,
        shot_floor=1.0,
        backaction_weight=0.0,
    )
