"""Command-line front end.

Subcommands: synth, spectrum, map, analytic, compare. Exit codes: 0 ok
(or comparison passed), 1 comparison failed, 2 usage/config/compatibility
error, 3 I/O error. All outputs are deterministic for identical inputs and
flags; no timestamps are written.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys

import numpy as np

from . import __version__
from .analytic import (field_spectra, filter_coefficients, heterodyne_psd,
                       homodyne_psd, rhet_prediction)
from .core import TWO_PI, ConfigError, _fits, check_config
from .estimator import complex_corr_spectrum, rhet_spectrum, standard_psd
from .io import (CONFIG_SCHEMA_VERSION, TRACE_VERSION, _atomic_write,
                 compare_spectra, read_config, read_spectrum, read_trace,
                 write_map, write_spectrum, write_trace)
from .lockin import demodulate
from .mapper import theta_map_exact, theta_map_fast, normalize_map
from .synth import synth_gaussian_trace


def _band_arg(text):
    try:
        lo, hi = text.split(":")
        return (float(lo) * TWO_PI, float(hi) * TWO_PI)
    except ValueError:
        raise argparse.ArgumentTypeError("band must look like LO_HZ:HI_HZ")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads "-1e-05", "-inf" and "-nan" after an
    option as its value, like "-1.5", instead of as an unknown flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$",
            re.IGNORECASE)


def _build_parser():
    p = _Parser(
        prog="rhet",
        description="Beat-note filtered spectral analysis of photocurrent traces")
    p.add_argument("--version", action="version",
                   version=f"rhet {__version__} "
                           f"(trace format v{TRACE_VERSION}, "
                           f"config schema v{CONFIG_SCHEMA_VERSION})")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic photocurrent trace")
    s.add_argument("--config", required=True, help="experiment config JSON")
    s.add_argument("--out", required=True, help="output trace path")
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--duration", type=float, default=2.0, help="seconds")
    s.add_argument("--dt", type=float, default=2e-7, help="sample interval, s")
    s.add_argument("--drift-amp", type=float, default=None,
                   help="override drift amplitude (rad)")
    s.add_argument("--drift-freq", type=float, default=None,
                   help="override drift frequency (Hz)")
    s.add_argument("--pilot", type=float, default=0.0,
                   help="coherent beat-note pilot amplitude")

    s = sub.add_parser("spectrum", help="estimate a spectrum from a trace")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--mode", choices=("rhet", "welch", "cross"), default="rhet")
    s.add_argument("--epsilon", type=float, help="default -1")
    s.add_argument("--theta", type=float, help="default 0")
    s.add_argument("--variant", choices=("t0", "tbar"), help="default tbar")
    s.add_argument("--segments", type=int, default=64)
    s.add_argument("--max-lag", type=float, help="seconds")
    s.add_argument("--window", help="default rect")
    s.add_argument("--lockin", action="store_true", default=None,
                   help="demodulate the beat note and track LO drift")
    s.add_argument("--bandwidth", type=float,
                   help="lock-in bandwidth (Hz), default 200")

    s = sub.add_parser("map", help="filter-phase map of a trace")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--epsilon", type=float, default=0.0)
    s.add_argument("--thetas", type=int, default=800)
    s.add_argument("--variant", choices=("t0", "tbar"), default="tbar")
    s.add_argument("--segments", type=int, default=64)
    s.add_argument("--exact", action="store_true",
                   help="rerun the estimator per theta instead of the fast path")
    s.add_argument("--band", type=_band_arg, default=None, metavar="LO:HI",
                   help="restrict columns to LO..HI in Hz (signed)")
    s.add_argument("--normalize", choices=("none", "het"), default="none",
                   help="het: scale so the heterodyne peak in --band reads 1")
    s.add_argument("--format", choices=("csv", "npz"), default="csv")

    s = sub.add_parser("analytic", help="closed-form reference spectra")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--kind", choices=("homodyne", "heterodyne", "rhet"),
                   default="heterodyne")
    s.add_argument("--theta", type=float, help="default 0")
    s.add_argument("--epsilon", type=float, help="default -1")
    s.add_argument("--variant", choices=("t0", "tbar"), help="default tbar")
    s.add_argument("--fmax", type=float, default=None,
                   help="grid half-span in Hz (default 1.5x top sideband)")
    s.add_argument("--bins-per-gamma", type=float, default=20.0)

    s = sub.add_parser("compare", help="compare two spectrum files")
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.add_argument("--band", type=_band_arg, default=None, metavar="LO:HI")
    s.add_argument("--report", default=None, help="write JSON report here")
    s.add_argument("--max-rel-err", type=float, default=0.15)
    s.add_argument("--min-pearson", type=float, default=0.95)
    return p


# The flags only some modes read, with their defaults, keyed on the
# (argument, value) that selects the mode. A flag given where no selected
# mode reads it is a config error that names the modes which do.
_MODE_FLAGS = {
    "spectrum": {("mode", "rhet"): dict(epsilon=-1.0, theta=0.0,
                                        variant="tbar", max_lag=None,
                                        window="rect", lockin=False),
                 ("lockin", True): dict(bandwidth=200.0)},
    "analytic": {("kind", "homodyne"): dict(theta=0.0),
                 ("kind", "rhet"): dict(theta=0.0, epsilon=-1.0,
                                        variant="tbar")},
}


def _mode_flags(args) -> None:
    """Check args against _MODE_FLAGS and fill in the defaults."""
    rows = _MODE_FLAGS.get(args.command, {})
    for name in dict.fromkeys(n for flags in rows.values() for n in flags):
        modes = [m for m in rows if name in rows[m]]
        active = [m for m in modes if getattr(args, m[0]) == m[1]]
        if active and getattr(args, name) is None:
            setattr(args, name, rows[active[0]][name])
        elif not active and getattr(args, name) is not None:
            need = " or ".join(f"--{d}" + ("" if v is True else f" {v}")
                               for d, v in modes)
            raise ConfigError(f"--{name.replace('_', '-')} needs {need}")


def _cmd_synth(args) -> int:
    cfg = read_config(args.config)
    given = dict(amplitude=args.drift_amp, freq_hz=args.drift_freq)
    cfg = dataclasses.replace(cfg, drift=dataclasses.replace(
        cfg.drift, **{k: v for k, v in given.items() if v is not None}))
    trace = synth_gaussian_trace(cfg, args.duration, args.dt, args.seed,
                                 pilot_amplitude=args.pilot)
    with np.errstate(over="ignore"):
        rms = np.sqrt(np.mean(trace.samples ** 2))
    if not np.isfinite(rms):
        raise ValueError("the trace's power overflows, so no spectrum of it "
                         "would be finite")
    write_trace(args.out, trace)
    print(f"wrote {args.out}: {trace.n} samples, dt={trace.dt:g} s, "
          f"Omega/2pi={trace.omega_beat / TWO_PI:g} Hz, rms={rms:.4g}")
    return 0


def _cmd_spectrum(args) -> int:
    trace = read_trace(args.infile)
    if args.mode == "welch":
        spec = standard_psd(trace, segments=args.segments)
    elif args.mode == "cross":
        spec = complex_corr_spectrum(trace, segments=args.segments)
    else:
        series = (demodulate(trace, bandwidth_hz=args.bandwidth)
                  if args.lockin else None)
        spec = rhet_spectrum(trace, args.epsilon, args.theta,
                             variant=args.variant, segments=args.segments,
                             max_lag=args.max_lag, window=args.window,
                             phase_correction=series)
    write_spectrum(args.out, spec)
    print(f"wrote {args.out}: {spec.freqs.size} bins, "
          f"mode={args.mode}{' lockin' if args.lockin else ''}")
    return 0


def _cmd_map(args) -> int:
    trace = read_trace(args.infile)
    fn = theta_map_exact if args.exact else theta_map_fast
    m = fn(trace, args.epsilon, n_theta=args.thetas, variant=args.variant,
           segments=args.segments, band=args.band)
    if args.normalize == "het":
        c0 = filter_coefficients(args.epsilon, 0)
        if c0 <= 0:
            raise ConfigError(
                "cannot normalize to the heterodyne peak at epsilon=-1 "
                "(the heterodyne part cancels there)")
        welch = standard_psd(trace, segments=args.segments)
        vals = (welch.values if args.band is None
                else welch.values[welch.band(*args.band)])
        ref = float(np.max(vals) - np.median(vals))
        if ref <= 0:
            raise ConfigError("no heterodyne peak above the baseline in --band")
        m = normalize_map(m, c0 * ref)
    write_map(args.out, m, fmt=args.format)
    print(f"wrote {args.out}: {m.thetas.size} x {m.freqs.size} map "
          f"({'exact' if args.exact else 'fast'} path)")
    return 0


def _cmd_analytic(args) -> int:
    for flag, value in (("--fmax", args.fmax),
                        ("--bins-per-gamma", args.bins_per_gamma)):
        if value is not None and not 0 < value < np.inf:
            raise ConfigError(f"{flag} must be positive and finite")
    cfg = read_config(args.config)
    check_config(cfg)
    top = max(m.omega_m for m in cfg.modes) + cfg.omega_beat
    fmax = 1.5 * top / TWO_PI if args.fmax is None else args.fmax
    df = min(m.gamma for m in cfg.modes) / TWO_PI / args.bins_per_gamma
    n = np.ceil(fmax / df)
    with _fits("an analytic grid of {} bins", 2 * n + 1):
        freqs = TWO_PI * df * np.arange(-int(n), int(n) + 1)
        fs = field_spectra(cfg, freqs)
        if args.kind == "homodyne":
            spec = homodyne_psd(fs, args.theta)
        elif args.kind == "heterodyne":
            spec = heterodyne_psd(fs, cfg.omega_beat)
        else:
            spec = rhet_prediction(fs, cfg.omega_beat, args.theta + cfg.theta0,
                                   args.epsilon, variant=args.variant)
    write_spectrum(args.out, spec)
    print(f"wrote {args.out}: {args.kind}, {freqs.size} bins, "
          f"df={df:g} Hz")
    return 0


def _cmd_compare(args) -> int:
    a = read_spectrum(args.a)
    b = read_spectrum(args.b)
    report = compare_spectra(a, b, band=args.band,
                             max_rel_err=args.max_rel_err,
                             min_pearson=args.min_pearson)
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    if args.report:
        _atomic_write(args.report, lambda fh: fh.write(text.encode() + b"\n"))
    print(text)
    return 0 if report["pass"] else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"synth": _cmd_synth, "spectrum": _cmd_spectrum,
                "map": _cmd_map, "analytic": _cmd_analytic,
                "compare": _cmd_compare}
    # ConfigError and GridError are ValueErrors, TraceFormatError an OSError
    try:
        _mode_flags(args)
        return handlers[args.command](args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
