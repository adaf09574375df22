"""Closed-form field spectra and filtered-spectrum predictions.

The model is a classical Gaussian-noise description of a driven cavity with
thermally occupied mechanical modes read out in reflection:

    chi_c(nu)   = 1 / (kappa - i (Delta + nu))          cavity response
    chibar_m    = omega_m / (omega_m^2 - nu^2 - i gamma nu)   (dimensionless)
    P_q(nu)     = (nbar+1) L(nu+omega_m) + nbar L(nu-omega_m)
                  with L(u) = gamma / (u^2 + gamma^2/4)

Each mode contributes 2 kappa g^2 |chi_c|^2 P_q to the field's normal
spectrum s_adaga and -2 kappa g^2 chi_c(nu) chi_c(-nu) sqrt(P_q(nu) P_q(-nu))
to the anomalous spectrum s_aa. The white imprecision floor enters through
the reflection response R = 2 kappa chi_c - 1 and, when backaction_weight
w > 0, through the radiation-pressure loop V = sum_j 4i kappa w g_j^2 chi_c
chibar_m_j, which correlates the floor with itself across +-nu and produces
phase-dependent (squeezing-like) features. By construction the three spectra
form a valid Gram family, so |s_aa(nu)|^2 <= s_adaga(nu) s_adaga(-nu)
pointwise and the synthesizer can realize them exactly.

Frequency convention: s_X(w) = Int e^{+i w tau} <X+(t) X(t+tau)> dtau, so a
field component ~ e^{-i w0 t} carries s_adaga weight at +w0. Current
convention: i(t) = X cos(Om t + theta) + Y sin(Om t + theta) with X = 2 Re a,
Y = 2 Im a, giving S_het(w) = s_aadag(w + Om) + s_adaga(w - Om).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (TWO_PI, ExperimentConfig, FilterSpec, GridError,
                   MechMode, PhysicalityError, Spectrum)


def cavity_susceptibility(omega, kappa: float, detuning: float):
    """Cavity field response 1/(kappa - i(detuning + omega)).

    At detuning 0 and omega = kappa the phase is +pi/4.
    """
    omega = np.asarray(omega, dtype=float)
    return 1.0 / (kappa - 1j * (detuning + omega))


def _chibar(nu, mode: MechMode):
    # dimensionless mechanical response, unit DC gain
    om, gam = mode.omega_m, mode.gamma
    return om / (om * om - nu * nu - 1j * gam * nu)


def _lorentz(u, gam):
    return gam / (u * u + 0.25 * gam * gam)


def _model_rows(cfg: ExperimentConfig, nu: np.ndarray):
    """(s_adaga(nu), s_adaga(-nu), s_aa(nu)) for an array of angular
    frequencies: one pass forms the terms at +-nu that all three need.

    Each mode's Lorentzians L(nu + omega_m) and L(nu - omega_m) serve -nu
    too, as L(-nu - omega_m) and L(-nu + omega_m): (-nu) + omega_m is
    -(nu - omega_m) in IEEE arithmetic and u*u is even, so the bits are
    those of evaluating them at -nu. At backaction_weight 0, V is zero: alpha
    is R and the beta terms would add only zeros, so they are not formed."""
    cc = cavity_susceptibility(nu, cfg.kappa, cfg.detuning)
    ccm = cavity_susceptibility(-nu, cfg.kappa, cfg.detuning)
    cc2, ccm2 = np.abs(cc) ** 2, np.abs(ccm) ** 2
    # sums over modes; each becomes an array at its first update
    content = content_m = corr = V = Vm = 0.0
    w = cfg.backaction_weight
    for mode, g in zip(cfg.modes, cfg.coupling):
        gam, om, nb = mode.gamma, mode.omega_m, mode.nbar
        up, dn = _lorentz(nu + om, gam), _lorentz(nu - om, gam)
        pq = (nb + 1) * up + nb * dn
        pqm = (nb + 1) * dn + nb * up
        k2 = 2.0 * cfg.kappa * g * g
        content += k2 * cc2 * pq
        content_m += k2 * ccm2 * pqm
        corr -= k2 * cc * ccm * np.sqrt(pq * pqm)
        if w != 0.0:
            V += 4j * cfg.kappa * w * g * g * cc * _chibar(nu, mode)
            Vm += 4j * cfg.kappa * w * g * g * ccm * _chibar(-nu, mode)
    alpha = 2.0 * cfg.kappa * cc - 1.0  # R, then V chi_c + R
    alpham = 2.0 * cfg.kappa * ccm - 1.0
    half = 0.5 * cfg.shot_floor
    if w == 0.0:
        return (content + np.abs(alpha) ** 2 * half,
                content_m + np.abs(alpham) ** 2 * half, corr)
    alpha, alpham = V * cc + alpha, Vm * ccm + alpham
    beta = V * np.conj(ccm)
    betam = Vm * np.conj(cc)
    s_adaga = content + (np.abs(alpha) ** 2 + np.abs(beta) ** 2) * half
    s_aadag = content_m + (np.abs(alpham) ** 2 + np.abs(betam) ** 2) * half
    s_aa = corr + (alpham * beta + alpha * betam) * half
    return s_adaga, s_aadag, s_aa


@dataclass(eq=False)
class FieldSpectra:
    """Normal and anomalous field spectra on a common grid.

    s_aadag(nu) = s_adaga(-nu) holds exactly for stationary fields and is
    built in. `config` records the generating model; operations that need values off
    the grid (heterodyne shifting) re-evaluate the model exactly when it is
    present and fall back to interpolation otherwise.
    """

    freqs: np.ndarray
    s_aadag: np.ndarray
    s_adaga: np.ndarray
    s_aa: np.ndarray
    config: Optional[ExperimentConfig] = None

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=np.float64)
        n = self.freqs.shape
        for name in ("s_aadag", "s_adaga", "s_aa"):
            a = np.asarray(getattr(self, name))
            if a.shape != n:
                raise ValueError(f"{name} shape mismatch")
            setattr(self, name, a)


def field_spectra(cfg: ExperimentConfig, freqs) -> FieldSpectra:
    """Evaluate the model on an arbitrary grid (rad/s, need not be uniform
    or symmetric). Raises PhysicalityError if the Cauchy-Schwarz bound
    |s_aa(nu)|^2 <= s_adaga(nu) s_adaga(-nu) fails, which signals broken
    model inputs (NaN parameters and the like); the construction satisfies
    it identically otherwise.
    """
    nu = np.asarray(freqs, dtype=float)
    s_adaga, s_aadag, s_aa = _model_rows(cfg, nu)
    bound = s_adaga * s_aadag
    bad = np.abs(s_aa) ** 2 > bound * (1.0 + 1e-9) + 1e-300
    if np.any(bad):
        k = int(np.argmax(bad))
        raise PhysicalityError(
            f"anomalous spectrum exceeds Cauchy-Schwarz bound at "
            f"nu/2pi = {nu[k] / TWO_PI:.6g} Hz"
        )
    return FieldSpectra(freqs=nu, s_aadag=s_aadag, s_adaga=s_adaga, s_aa=s_aa,
                        config=cfg)


def _values_at(fs: FieldSpectra, nu: np.ndarray):
    """(s_adaga, s_aa) at arbitrary frequencies: exact re-evaluation when the
    config is attached, linear interpolation on the stored grid otherwise."""
    if fs.config is not None:
        return _model_rows(fs.config, nu)[::2]  # (s_adaga, s_aa)
    lo, hi = fs.freqs[0], fs.freqs[-1]
    if np.min(nu) < lo or np.max(nu) > hi:
        raise GridError(
            "field-spectra grid does not cover the shifted frequencies; "
            "evaluate on a wider grid or attach a config"
        )
    s_ad = np.interp(nu, fs.freqs, fs.s_adaga)
    s_aa = (np.interp(nu, fs.freqs, fs.s_aa.real)
            + 1j * np.interp(nu, fs.freqs, fs.s_aa.imag))
    return s_ad, s_aa


def homodyne_psd(fs: FieldSpectra, theta: float) -> Spectrum:
    """PSD of the theta quadrature: s_aadag + s_adaga + 2 Re[e^{-2i theta} s_aa]."""
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    vals = (fs.s_aadag + fs.s_adaga
            + 2.0 * np.real(np.exp(-2j * theta) * fs.s_aa))
    return Spectrum(freqs=fs.freqs, values=vals,
                    meta={"kind": "homodyne", "theta": float(theta)})


def heterodyne_psd(fs: FieldSpectra, omega_beat: float) -> Spectrum:
    """Beat-frequency PSD: S(w) = s_aadag(w + Om) + s_adaga(w - Om).

    Each field sideband appears twice, displaced by +-Om, and the
    anomalous correlations drop out entirely.
    """
    up, _ = _values_at(fs, -(fs.freqs + omega_beat))  # s_aadag(x) = s_adaga(-x)
    dn, _ = _values_at(fs, fs.freqs - omega_beat)
    return Spectrum(freqs=fs.freqs, values=up + dn,
                    meta={"kind": "heterodyne", "omega_beat": float(omega_beat)})


def filter_coefficients(epsilon: float, k):
    """Fourier coefficient c_k of the square filter: c_0 = (1+eps)/2,
    c_k = (1-eps) sin(k pi/2) / (k pi) for k >= 1 (so even k vanish and
    odd k alternate in sign)."""
    k = np.asarray(k)
    # sin(k pi/2) for integer k, without the float dust at even k
    quadrant = np.mod(k, 4)
    sin_half = np.where(quadrant == 1, 1.0, np.where(quadrant == 3, -1.0, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        ck = np.where(
            k == 0,
            (1.0 + epsilon) / 2.0,
            (1.0 - epsilon) * sin_half / np.where(k == 0, 1, k) / np.pi,
        )
    if ck.ndim == 0:
        return float(ck)
    return ck.astype(float)


def rhet_prediction(fs: FieldSpectra, omega_beat: float, theta: float,
                    epsilon: float, variant: str = "tbar") -> Spectrum:
    """Expected filtered spectrum.

    tbar:  c0 S_het(w) + 2 c1 Re[e^{-2i theta} s_aa(w)]
    t0:    c0 S_het(w) + c1 (Re[e^{-2i theta} s_aa(w - Om)]
                             + Re[e^{-2i theta} s_aa(-w - Om)])

    theta is the total quadrature angle in the field frame. When comparing
    with an estimate from a trace recorded at LO phase theta0 and filtered
    with phase parameter theta_f, pass theta = theta_f + theta0.

    The filter harmonics k >= 3 demodulate current content at 2k Om,
    which a stationary field does not have, so they contribute nothing.
    """
    if variant not in ("t0", "tbar"):
        raise ValueError("variant must be 't0' or 'tbar'")
    FilterSpec(epsilon=epsilon, omega_beat=omega_beat,
               phase_offset=2.0 * theta)  # checks theta and epsilon
    c0 = filter_coefficients(epsilon, 0)
    c1 = filter_coefficients(epsilon, 1)
    het = heterodyne_psd(fs, omega_beat).values
    rot = np.exp(-2j * theta)
    if variant == "tbar":
        corr = 2.0 * c1 * np.real(rot * fs.s_aa)
    else:
        _, up = _values_at(fs, fs.freqs - omega_beat)
        _, dn = _values_at(fs, -fs.freqs - omega_beat)
        corr = c1 * (np.real(rot * up) + np.real(rot * dn))
    vals = c0 * het + corr
    return Spectrum(freqs=fs.freqs, values=vals,
                    meta={"kind": "rhet_prediction", "variant": variant,
                          "epsilon": float(epsilon), "theta": float(theta),
                          "omega_beat": float(omega_beat)})
