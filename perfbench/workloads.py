#!/usr/bin/env python3
"""The benchmark's three workloads, run in child processes of run.py.

    python3 perfbench/workloads.py setup  --workload W --seed N --workdir D
    python3 perfbench/workloads.py passes --workload W --seed N --workdir D \
        --seconds S --trace 0|1

`setup` imports rhet and writes the workload's inputs into the work
directory; run.py times it from outside. `passes` reads those inputs and
runs whole passes until `--seconds` have elapsed, checks every pass, and
prints one JSON line with the pass times and the checks' findings. With
`--trace 1` it does the set-up itself under tracing and alternates
untraced and traced passes. `--quick` shrinks every workload to a tiny
size and keeps all of its checks.
"""
import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import rhet  # noqa: E402
import rhet.cli  # noqa: E402
import refs  # noqa: E402
from tracing import OpFailed, Recorder, run_child  # noqa: E402

# The default config sits outside the operating regime that
# validate_config recommends, so synthesis warns on every call.
for _msg in (".*operating regime.*", ".*beat periods.*", ".*decay times.*"):
    warnings.filterwarnings("ignore", message=_msg, category=UserWarning)

DT = 2e-7
# 2*5**7, the segment length of the default `--duration 2 --segments 64`
# session; a 5-smooth length keeps every FFT on a fast size.
N_SEG = 156250
N_SEG_QUICK = 2 * 5 ** 6
N_THETA = 800
C0 = 0.5                      # filter_coefficients(0, 0): weight of Welch
DRIFT_AMP, DRIFT_HZ, PILOT = np.pi / 4, 25.0, 2500.0

PER_LAYER = (
    "synth.time_s", "synth.peak_alloc_mb",
    "estimator.tbar_s", "estimator.t0_s", "estimator.spectra",
    "estimator.peak_alloc_mb", "estimator.welch_s", "estimator.cross_s",
    "lockin.demodulate_s", "lockin.peak_alloc_mb",
    "mapper.fast_map_s", "mapper.quadratures", "mapper.peak_alloc_mb",
    "io.read_trace_s", "io.read_trace_alloc_mb", "io.write_map_s",
    "io.csv_write_s", "io.csv_read_s", "io.bytes_written_mb",
    "cli.import_s", "cli.spectrum_s", "cli.map_s", "cli.compare_s",
    "analytic.time_s", "trace.overhead_s",
)
# spans whose allocation peak feeds one of the metrics above
ALLOC_SPANS = ("synth.", "estimator.", "lockin.", "mapper.", "io.read_trace")

# Check tolerances; README.md gives the basis of each.
EXACT_REL = 1e-10     # program spectrum vs numpy periodogram
AFFINE_REL = 1e-12    # eps = 0 spectrum vs mean of the eps = +-1 spectra
MAP_REL = 1e-9        # map rows vs Welch and vs rhet_spectrum
Z_MAX = 6.0           # band-mean residual and Parseval, in standard errors
RMS_RATIO_MAX = 1.3   # RMS residual over RMS standard error
PHASE_RMS_MAX = 0.05  # rad, recovered LO phase vs injected drift
CROSS_REL = 0.05      # tbar peak vs (4/pi) Re[e^{-2i theta} C] peak


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def mode1_band(cfg):
    """Mode-1 band of acceptance criterion 4: omega_m +- (Omega + 4 gamma)."""
    m1 = cfg.modes[0]
    half = cfg.omega_beat + 4.0 * m1.gamma
    return m1.omega_m - half, m1.omega_m + half


class Checks:
    """Measured value of every check against its limit. `worst` keeps the
    largest value each check read over the run; `failed` lists every
    reading above its limit."""

    def __init__(self):
        self.worst = {}
        self.failed = []

    def le(self, name, value, limit):
        value = float(value)
        if name not in self.worst or not value <= self.worst[name][0]:
            self.worst[name] = [value, limit]
        if not value <= limit:
            self.failed.append(f"{name}: {value:.4g} above {limit:.4g}")

    def true(self, name, ok):
        self.le(name, 0.0 if ok else 1.0, 0.0)


class Workload:
    """Set-up, one pass, and the checks of one workload.

    run_pass raises OpFailed when a program call fails; the recorder has
    counted it. check_pass records its checks in self.checks; first is
    True for the first pass, whose outputs later passes must repeat
    exactly.
    """

    def __init__(self, workdir, seed, quick):
        self.dir = Path(workdir)
        self.seed = seed
        self.n_seg = N_SEG_QUICK if quick else N_SEG
        self.cfg = rhet.default_thermal_config()
        self.checks = Checks()
        self.first = None

    def load(self):
        pass

    def final_checks(self):
        pass


class Ensemble(Workload):
    """Seeded traces, the 12 criterion-4 spectra plus the eps = +1 tbar
    spectrum and Welch per trace, averaged and scored against the model."""

    SPECTRA = [(v, e, t) for v in ("tbar", "t0") for e in (-1.0, 0.0)
               for t in (0.0, np.pi / 4, np.pi / 2)] + [("tbar", 1.0, 0.0)]

    def __init__(self, workdir, seed, quick):
        super().__init__(workdir, seed, quick)
        self.traces, self.segments = 3, 2

    def setup(self, rec):
        rec.call("io.write_config", rhet.write_config,
                 self.dir / "config.json", self.cfg)
        seeds = np.random.SeedSequence(self.seed).generate_state(self.traces)
        (self.dir / "seeds.json").write_text(json.dumps(seeds.tolist()))

    def load(self):
        self.cfg = rhet.read_config(self.dir / "config.json")
        self.seeds = json.loads((self.dir / "seeds.json").read_text())
        self.grid = refs.spectrum_grid(self.n_seg, DT)
        lo, hi = mode1_band(self.cfg)
        self.band = (self.grid >= lo) & (self.grid <= hi)
        # 2 Omega in bins of the segment grid (625 at full size)
        self.pair_lag = round(2.0 * self.cfg.omega_beat * self.n_seg * DT
                              / refs.TWO_PI)
        fs = rhet.field_spectra(self.cfg, self.grid)
        self.het = rhet.heterodyne_psd(fs, self.cfg.omega_beat).values

    def run_pass(self, rec):
        S = self.segments
        per_trace = {}
        for s in self.seeds:
            trace = rec.call("synth.time", rhet.synth_gaussian_trace, self.cfg,
                             S * self.n_seg * DT, DT, seed=s)
            full = {}
            for v, e, t in self.SPECTRA:
                sp = rec.call("estimator." + v, rhet.rhet_spectrum, trace, e, t,
                              variant=v, segments=S)
                full[(v, e, t)] = np.real(sp.values)
            full["welch"] = rec.call("estimator.welch", rhet.standard_psd,
                                     trace, segments=S).values
            rec.count("estimator.spectra", len(full))
            with rec.paused():
                self.check_trace(trace.samples, full)
            for key, vals in full.items():
                per_trace.setdefault(key, []).append(vals[self.band])
        om = self.cfg.omega_beat
        fs = rec.call("analytic.time", rhet.field_spectra, self.cfg,
                      self.grid[self.band])
        scores = {}
        for key, rows in per_trace.items():
            if key == "welch":
                pred = rec.call("analytic.time", rhet.heterodyne_psd, fs, om)
            else:
                v, e, t = key
                pred = rec.call("analytic.time", rhet.rhet_prediction, fs, om,
                                t + self.cfg.theta0, e, variant=v)
            label = "Welch" if key == "welch" else \
                "%s eps=%+g theta=%.3f" % key
            scores[label] = refs.agreement(rows, pred.values, self.pair_lag)
        return scores

    def check_trace(self, samples, full):
        c = self.checks
        pgram = refs.periodogram(samples, DT, self.segments)
        plus = full[("tbar", 1.0, 0.0)]
        c.le("tbar eps=+1 vs numpy periodogram, rel",
             refs.max_rel_dev(plus, pgram), EXACT_REL)
        c.le("Welch vs numpy periodogram, rel",
             refs.max_rel_dev(full["welch"], pgram), EXACT_REL)
        for t in (0.0, np.pi / 4, np.pi / 2):
            # eps=+1 is the plain periodogram for either variant
            for v, ref_plus in (("tbar", plus), ("t0", pgram)):
                mix = 0.5 * (ref_plus + full[(v, -1.0, t)])
                c.le(f"{v} eps=0 vs mean of eps=+-1, rel",
                     refs.max_rel_dev(mix, full[(v, 0.0, t)]), AFFINE_REL)
        c.le("Parseval |z|", abs(refs.parseval_z(samples, self.het, DT)),
             Z_MAX)

    def check_pass(self, scores, first):
        for key, (z, ratio) in scores.items():
            self.checks.le(f"{key} vs model: |z| of band mean", abs(z),
                           Z_MAX)
            self.checks.le(f"{key} vs model: RMS ratio", ratio,
                           RMS_RATIO_MAX)
        if first:
            self.first = scores
        self.checks.true("pass repeats the first", scores == self.first)


class Imaging(Workload):
    """Drift-corrected single-shot imaging of a trace with a sine LO-phase
    drift and a pilot tone: read, demodulate, Welch, 800-theta fast map
    over the mode-1 band, normalise, write npz."""

    def __init__(self, workdir, seed, quick):
        super().__init__(workdir, seed, quick)
        self.segments = 16
        self.trace_path = self.dir / "trace.rht"
        self.map_path = self.dir / "map.npz"
        self.band = mode1_band(self.cfg)

    def setup(self, rec):
        cfg = dataclasses.replace(self.cfg, drift=rhet.PhaseDriftSpec(
            amplitude=DRIFT_AMP, freq_hz=DRIFT_HZ, kind="sine"))
        trace = rec.call("synth.time", rhet.synth_gaussian_trace, cfg,
                         self.segments * self.n_seg * DT, DT, seed=self.seed,
                         pilot_amplitude=PILOT)
        rec.call("io.write_trace", rhet.write_trace, self.trace_path, trace)

    def run_pass(self, rec):
        S = self.segments
        trace = rec.call("io.read_trace", rhet.read_trace, self.trace_path)
        series = rec.call("lockin.demodulate", rhet.demodulate, trace)
        welch = rec.call("estimator.welch", rhet.standard_psd, trace,
                         segments=S)
        rec.count("estimator.spectra")
        m = rec.call("mapper.fast_map", rhet.theta_map_fast, trace, 0.0,
                     n_theta=N_THETA, variant="tbar", segments=S,
                     band=self.band, phase_correction=series)
        rec.count("mapper.quadratures", m.thetas.size)
        vals = welch.values[welch.band(*self.band)]
        ref = C0 * (np.max(vals) - np.median(vals))
        m = rec.call("mapper.normalize", rhet.normalize_map, m, ref)
        rec.call("io.write_map", rhet.write_map, self.map_path, m, fmt="npz")
        rec.count("io.bytes_written_mb", self.map_path.stat().st_size / 1e6)
        return series, vals, m

    def check_pass(self, out, first):
        series, welch_band, m = out
        c = self.checks
        true = DRIFT_AMP * np.sin(2.0 * np.pi * DRIFT_HZ * series.times)
        c.le("recovered phase vs injected drift, rad RMS",
             np.sqrt(np.mean((series.theta - true) ** 2)), PHASE_RMS_MAX)
        avg = m.spectra.mean(axis=0) * m.normalization
        c.le("theta-average of map vs c0 x Welch, rel",
             refs.max_rel_dev(avg, C0 * welch_band), MAP_REL)
        with np.load(self.map_path, allow_pickle=False) as z:
            c.true("npz map reads back bit-identical",
                   np.array_equal(z["spectra"], m.spectra)
                   and np.array_equal(z["thetas"], m.thetas)
                   and np.array_equal(z["freqs_hz"], m.freqs / refs.TWO_PI)
                   and float(z["normalization"]) == m.normalization)
        if first:
            self.first = (series, m)
        c.true("pass repeats the first",
               np.array_equal(series.theta, self.first[0].theta)
               and np.array_equal(m.spectra, self.first[1].spectra))

    def final_checks(self):
        """Two map rows against rhet_spectrum with the same correction."""
        if self.first is None:
            return
        series, m = self.first
        trace = rhet.read_trace(self.trace_path)
        for k in (0, 1 + self.seed % (N_THETA - 1)):
            sp = rhet.rhet_spectrum(trace, 0.0, m.thetas[k], variant="tbar",
                                    segments=self.segments,
                                    phase_correction=series)
            ref = np.real(sp.values[sp.band(*self.band)])
            self.checks.le("map rows vs rhet_spectrum, rel",
                           refs.max_rel_dev(m.spectra[k] * m.normalization,
                                            ref), MAP_REL)


class Cli(Workload):
    """The session of the project README on a 1 s trace of 32 segments,
    each rhet command in its own process."""

    OUTPUTS = ("welch.csv", "tbar.csv", "cross.csv", "map.csv", "het.csv",
               "report.json")

    def __init__(self, workdir, seed, quick):
        super().__init__(workdir, seed, quick)
        self.segments = 32
        lo, hi = mode1_band(self.cfg)
        self.map_band = f"{lo / refs.TWO_PI!r}:{hi / refs.TWO_PI!r}"
        # The band of the README's map. Over 32 segments the Welch bins
        # scatter by 1/sqrt(32); across this band the expected Pearson
        # correlation with the model is 0.974, above compare's 0.95.
        self.compare_band = "300000:460000"
        self.rss = []

    def commands(self, d):
        t, seg = str(self.dir / "trace.rht"), str(self.segments)
        spec = ["spectrum", "--in", t, "--segments", seg, "--out"]
        return [
            ("cli.spectrum", spec + [f"{d}/welch.csv", "--mode", "welch"]),
            ("cli.spectrum", spec + [f"{d}/tbar.csv", "--mode", "rhet",
                                     "--variant", "tbar", "--epsilon", "-1",
                                     "--theta", "0"]),
            ("cli.spectrum", spec + [f"{d}/cross.csv", "--mode", "cross"]),
            ("cli.map", ["map", "--in", t, "--out", f"{d}/map.csv",
                         "--segments", seg, "--band", self.map_band,
                         "--format", "csv"]),
            ("cli.analytic", ["analytic", "--config",
                              str(self.dir / "config.json"),
                              "--out", f"{d}/het.csv", "--kind", "heterodyne"]),
            ("cli.compare", ["compare", "--a", f"{d}/welch.csv", "--b",
                             f"{d}/het.csv", "--band", self.compare_band,
                             "--report", f"{d}/report.json"]),
        ]

    def setup(self, rec):
        rec.call("io.write_config", rhet.write_config,
                 self.dir / "config.json", self.cfg)
        duration = self.segments * self.n_seg * DT
        argv = ["synth", "--config", str(self.dir / "config.json"),
                "--out", str(self.dir / "trace.rht"), "--seed", str(self.seed),
                "--duration", repr(duration)]
        with traced_cli(rec), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = rec.call("cli.synth", rhet.cli.main, argv)
        if rc != 0:
            raise RuntimeError(f"rhet synth exited with {rc}")

    def run_pass(self, rec):
        d = self.dir / "out"
        d.mkdir(exist_ok=True)
        peak = 0.0
        for name, argv in self.commands(d):
            rec.attempted += 1
            with rec.span(name):
                rc, _, rss = run_child(
                    [sys.executable, "-m", "rhet.cli"] + argv, CHILD_ENV,
                    self.dir / "cli.log")
            peak = max(peak, rss)
            if rc != 0:
                rec.failed += 1
                rec.errors.append(f"rhet {argv[0]}: exit code {rc}")
        if not rec.trace:
            self.rss.append(peak)
        if rec.failed:
            raise OpFailed("cli")
        if rec.trace:
            with rec.paused():
                self.replay(rec)
        return d

    def replay(self, rec):
        """Re-run the session in this process with spans around the calls
        rhet.cli makes into the other layers; its outputs go to replay/."""
        d = self.dir / "replay"
        d.mkdir(exist_ok=True)
        with traced_cli(rec), contextlib.redirect_stdout(io.StringIO()):
            for name, argv in self.commands(d):
                with rec.span(name + ".replay"):
                    rhet.cli.main(argv)

    def check_pass(self, d, first):
        c = self.checks
        digests = {f: sha256(d / f) for f in self.OUTPUTS}
        replay = self.dir / "replay"
        if replay.is_dir():
            c.true("in-process replay writes the same bytes",
                   all(sha256(replay / f) == h for f, h in digests.items()))
        if not first:
            c.true("pass repeats the first", digests == self.first)
            return
        self.first = digests
        report = json.loads((d / "report.json").read_text())
        c.true("rhet compare passes", report.get("pass") is True)
        samples, dt = refs.read_trace_file(self.dir / "trace.rht")
        pgram = refs.periodogram(samples, dt, self.segments)
        head, welch = refs.read_csv_table(d / "welch.csv")
        grid_hz = refs.spectrum_grid(pgram.size, dt) / refs.TWO_PI
        c.le("Welch CSV frequencies vs FFT grid, rel",
             refs.max_rel_dev(welch[:, 0], grid_hz), 1e-12)
        c.le("Welch CSV vs numpy periodogram, rel",
             refs.max_rel_dev(welch[:, head.index("value")], pgram), EXACT_REL)
        # tbar eps=-1, theta=0 against (4/pi) Re[C] at mode 1
        m1 = self.cfg.modes[0]
        _, tbar = refs.read_csv_table(d / "tbar.csv")
        _, cross = refs.read_csv_table(d / "cross.csv")
        f = tbar[:, 0] * refs.TWO_PI
        hw = 0.75 * m1.gamma
        a = refs.quad_peak(f, tbar[:, 1], m1.omega_m, hw)
        b = refs.quad_peak(f, 4.0 / np.pi * cross[:, 1], m1.omega_m, hw)
        c.le("tbar peak vs (4/pi) Re C peak at mode 1, rel",
             abs(a - b) / abs(b), CROSS_REL)
        # theta-average of the map is c0 x Welch on the map's columns
        mhead, rows = refs.read_csv_table(d / "map.csv")
        cols = np.array(mhead[1:], dtype=float)
        idx = np.searchsorted(welch[:, 0], cols)
        c.true("map CSV columns are Welch bins",
               np.array_equal(welch[idx, 0], cols))
        c.le("theta-average of map CSV vs c0 x Welch, rel",
             refs.max_rel_dev(rows[:, 1:].mean(axis=0), C0 * welch[idx, 1]),
             MAP_REL)


WORKLOADS = {"ensemble": Ensemble, "imaging": Imaging, "cli": Cli}

# rhet.cli's imported names and the span each call feeds.
_CLI_SPANS = {
    "read_trace": "io.read_trace", "standard_psd": "estimator.welch",
    "complex_corr_spectrum": "estimator.cross",
    "theta_map_fast": "mapper.fast_map", "write_spectrum": "io.csv_write",
    "read_spectrum": "io.csv_read", "field_spectra": "analytic.time",
    "heterodyne_psd": "analytic.time", "synth_gaussian_trace": "synth.time",
    "write_trace": "io.write_trace", "rhet_spectrum": None, "write_map": None,
}


def _span_name(fn_name, args, kwargs):
    if fn_name == "rhet_spectrum":
        return "estimator." + kwargs.get("variant", "tbar")
    if fn_name == "write_map":
        return "io.csv_write" if kwargs.get("fmt", "csv") == "csv" \
            else "io.write_map"
    return _CLI_SPANS[fn_name]


@contextlib.contextmanager
def traced_cli(rec):
    """Wrap the layer functions rhet.cli calls in spans of `rec`."""
    saved = {name: getattr(rhet.cli, name) for name in _CLI_SPANS}

    def wrap(fn_name, fn):
        def wrapper(*args, **kwargs):
            name = _span_name(fn_name, args, kwargs)
            with rec.span(name):
                out = fn(*args, **kwargs)
            if name.startswith("estimator."):
                rec.count("estimator.spectra")
            elif name == "mapper.fast_map":
                rec.count("mapper.quadratures", out.thetas.size)
            elif name in ("io.csv_write", "io.write_map"):
                rec.count("io.bytes_written_mb", os.path.getsize(args[0]) / 1e6)
            return out
        return wrapper

    try:
        for name, fn in saved.items():
            setattr(rhet.cli, name, wrap(name, fn))
        yield
    finally:
        for name, fn in saved.items():
            setattr(rhet.cli, name, fn)


def import_time(rec, log_path):
    """Wall time of a bare `import rhet.cli` in a child process."""
    with rec.span("cli.import"):
        rc, _, _ = run_child([sys.executable, "-c", "import rhet.cli"],
                             CHILD_ENV, log_path)
    if rc != 0:
        raise RuntimeError("import rhet.cli failed")


def run_passes(wl, seconds, trace):
    """Whole passes until `seconds` have elapsed (in trace mode, alternately
    untraced and traced, at least one of each). Returns the result dict."""
    result = {"pass_s": [], "traced_pass_s": [], "attempted": 0, "failed": 0,
              "errors": [], "per_pass": [], "spans": []}
    setup_rec = Recorder(trace, ALLOC_SPANS)
    if trace:
        wl.setup(setup_rec)
        for _ in range(3):
            import_time(setup_rec, wl.dir / "import.log")
    wl.load()
    deadline = time.perf_counter() + seconds
    k = 0
    peak_rss = None
    while True:
        traced = trace and k % 2 == 1
        rec = Recorder(traced, ALLOC_SPANS)
        start = time.perf_counter()
        try:
            out = wl.run_pass(rec)
        except OpFailed:
            out = None
        elapsed = time.perf_counter() - start - rec.excluded_s
        if not traced:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["traced_pass_s" if traced else "pass_s"].append(elapsed)
        result["attempted"] += rec.attempted
        result["failed"] += rec.failed
        result["errors"] += rec.errors
        if out is not None:
            wl.check_pass(out, first=wl.first is None)
        if traced:
            result["per_pass"].append(rec.layer_metrics(PER_LAYER))
            result["spans"].append(rec.spans)
        k += 1
        done = result["pass_s"] and (result["traced_pass_s"] or not trace)
        if done and time.perf_counter() >= deadline:
            break
    wl.final_checks()
    result["checks"] = wl.checks.worst
    result["problems"] = wl.checks.failed
    result["peak_rss_mb"] = statistics.median(wl.rss) \
        if isinstance(wl, Cli) else peak_rss
    if trace:
        result["layers"] = layer_summary(result, setup_rec)
        result["spans"].insert(0, setup_rec.spans)
    result["errors"] = sorted(set(result["errors"]))
    return result


def layer_summary(result, setup_rec):
    """Median over traced passes of each per-layer metric; a metric no pass
    produced comes from the traced set-up (synthesis and `import rhet.cli`
    on imaging and cli), else reads 0: the workload does not use it."""
    setup = setup_rec.layer_metrics(PER_LAYER)
    setup["cli.import_s"] = statistics.median(
        sp["end"] - sp["start"] for sp in setup_rec.spans
        if sp["name"] == "cli.import")
    out = {}
    for name in PER_LAYER:
        vals = [m[name] for m in result["per_pass"] if name in m]
        out[name] = statistics.median(vals) if vals else setup.get(name, 0.0)
    out["trace.overhead_s"] = (statistics.median(result["traced_pass_s"])
                               - statistics.median(result["pass_s"]))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("action", choices=("setup", "passes"))
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload](args.workdir, args.seed, args.quick)
    if args.action == "setup":
        wl.setup(Recorder(False))
        return 0
    result = run_passes(wl, args.seconds, bool(args.trace))
    result["versions"] = {"numpy": np.__version__, "scipy": scipy.__version__,
                          "rhet": rhet.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
