#!/usr/bin/env python3
"""Benchmark the phase-map estimators: fast harmonic path vs per-phase
exact path, and the fast path at each worker count (the transforms are
1-D and run on one thread, so the worker count should not change the time).

    python3 scripts/benchmark_map.py --duration 0.5
    python3 scripts/benchmark_map.py --duration 2.0 --thetas 800 --workers 1 2 4 8

Both paths read the trace's memoised stream basis; every timed run starts
from a fresh copy of the trace, so building the basis is inside the timing.
The exact path adds one rhet_spectrum call per phase (an O(n_freq) row for
tbar, a full t0 estimate for t0), so its cost grows linearly with --thetas.
The exact timing is extrapolated from two passes over a small probe grid
(basis build plus per-phase rows) unless --full-exact is given.
"""
import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from rhet import (default_thermal_config, synth_gaussian_trace,
                  theta_map_exact, theta_map_fast)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--duration", type=float, default=0.5,
                    help="trace length in seconds (2.0 -> 1e7 samples)")
    ap.add_argument("--dt", type=float, default=2e-7)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--thetas", type=int, default=800)
    ap.add_argument("--probe-thetas", type=int, default=8,
                    help="exact-path probe grid used for extrapolation")
    ap.add_argument("--segments", type=int, default=64)
    ap.add_argument("--epsilon", type=float, default=0.0)
    ap.add_argument("--variant", choices=("tbar", "t0"), default="tbar")
    ap.add_argument("--workers", type=int, nargs="+", default=[1],
                    help="worker counts to time for the fast path")
    ap.add_argument("--full-exact", action="store_true",
                    help="run the exact path on the full phase grid "
                    "(slow) instead of extrapolating")
    args = ap.parse_args(argv)

    cfg = default_thermal_config()
    m1 = cfg.modes[0]
    band = (m1.omega_m - cfg.omega_beat - 4 * m1.gamma,
            m1.omega_m + cfg.omega_beat + 4 * m1.gamma)

    print(f"host: {os.cpu_count()} cpu(s)")
    t0 = time.perf_counter()
    tr = synth_gaussian_trace(cfg, args.duration, args.dt, seed=args.seed)
    n = tr.samples.size
    print(f"trace: {n} samples ({time.perf_counter() - t0:.1f} s to build)")
    common = dict(epsilon=args.epsilon, variant=args.variant,
                  segments=args.segments, band=band)

    base = None
    for w in args.workers:
        t0 = time.perf_counter()
        mp = theta_map_fast(dataclasses.replace(tr), n_theta=args.thetas,
                            workers=w, **common)
        dt_fast = time.perf_counter() - t0
        note = ""
        if base is None:
            base = (dt_fast, mp.spectra)
        else:
            same = np.array_equal(mp.spectra, base[1])
            note = f"  speedup {base[0] / dt_fast:4.2f}x  " \
                   f"bit-identical={same}"
        print(f"fast  {args.thetas:4d} thetas  workers={w:<2d} "
              f"{dt_fast:8.2f} s{note}")

    if args.full_exact:
        t0 = time.perf_counter()
        me = theta_map_exact(dataclasses.replace(tr), n_theta=args.thetas,
                             **common)
        dt_exact = time.perf_counter() - t0
        print(f"exact {args.thetas:4d} thetas             {dt_exact:8.2f} s")
    else:
        probe = dataclasses.replace(tr)
        t0 = time.perf_counter()
        me = theta_map_exact(probe, n_theta=args.probe_thetas, **common)
        dt_first = time.perf_counter() - t0
        t0 = time.perf_counter()
        theta_map_exact(probe, n_theta=args.probe_thetas, **common)
        dt_probe = time.perf_counter() - t0
        # the first probe also built the basis that the second one reused
        dt_exact = (max(dt_first - dt_probe, 0.0)
                    + dt_probe * args.thetas / args.probe_thetas)
        print(f"exact {args.probe_thetas:4d} thetas             "
              f"{dt_first:8.2f} s  (-> ~{dt_exact:.1f} s at "
              f"{args.thetas} thetas)")
        mp = theta_map_fast(tr, n_theta=args.probe_thetas, workers=1,
                            **common)
        rms = np.sqrt(np.mean((mp.spectra - me.spectra) ** 2))
        rms /= np.sqrt(np.mean(me.spectra ** 2))
        print(f"fast-vs-exact RMS deviation on the probe grid: {rms:.2e}")

    print(f"fast-path advantage at {args.thetas} thetas: "
          f"~{dt_exact / base[0]:.0f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
