#!/usr/bin/env python3
"""rhet benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload ensemble|imaging|cli --seed N \
        --seconds S --trace 0|1 [--quick]

Run it from the root of a source checkout; it measures the package under
src/ as it stands, with no install step. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones: setup_s (median of
three timed set-ups, each a fresh process that imports rhet and writes the
workload's inputs), pass_s (median pass time) and peak_rss_mb (peak RSS of
the process or processes that run the passes). With --trace 1 they are the
per-layer ones, from spans around the calls into each layer. The line
before it holds the host facts; the run record in perfbench/runs/ holds
both, with every pass time and span. --quick runs a tiny size of the
workload with all of its checks. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import run_child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ensemble", "imaging", "cli")
SETUP_REPS = 3
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env():
    """Environment of every child: BLAS/OpenMP threads capped at the CPUs
    this process may use, rhet on its default single worker, and the
    package imported from src/."""
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = nproc
    env.pop("RHET_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def source_facts():
    """The commit measured (when the checkout is a git work tree) and a
    digest of the package sources, which identifies it either way."""
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rhet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return commit, digest.hexdigest()


def fail(msg, log=None):
    print(f"perfbench: {msg}", file=sys.stderr)
    if log is not None and log.exists():
        sys.stderr.write(log.read_text(errors="replace")[-4000:])
    return 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rhet" / "__init__.py").is_file():
        return fail(f"no rhet package under {ROOT / 'src'}; run from the "
                    "root of a source checkout")
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = HERE / "work" / run_id
    work.mkdir(parents=True)
    log = work / "children.log"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", str(work)] + (["--quick"] if args.quick else [])
    script = [sys.executable, str(HERE / "workloads.py")]
    try:
        setup_s = []
        if not args.trace:
            for _ in range(1 if args.quick else SETUP_REPS):
                rc, wall, _ = run_child(script + ["setup"] + common, env,
                                        log, deadline)
                if rc != 0:
                    return fail(f"set-up exited with code {rc}", log)
                setup_s.append(wall)
        out = work / "result.json"
        rc, _, _ = run_child(script + ["passes"] + common
                             + ["--seconds", str(args.seconds),
                                "--trace", str(args.trace)],
                             env, log, deadline, stdout=out)
        if rc != 0:
            return fail(f"workload exited with code {rc}", log)
        result = json.loads(out.read_text().splitlines()[-1])
    except TimeoutError:
        return fail(f"run exceeded {RUN_LIMIT_S:.0f} s", log)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in result["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "pass_s": {"value": statistics.median(result["pass_s"]),
                       "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    commit, src_digest = source_facts()
    host = {"cpus": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **result["versions"],
            "thread_caps": {v: env.get(v) for v in THREAD_VARS + ("RHET_THREADS",)},
            "commit": commit, "src_sha256": src_digest,
            "machine": platform.machine()}
    for line in result["errors"] + result["problems"]:
        print(f"perfbench: {line}", file=sys.stderr)
    summary = {"correct": not result["problems"],
               "attempted": result["attempted"], "failed": result["failed"],
               "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "quick": args.quick, "host": host, "setup_s": setup_s,
              **{k: result[k] for k in ("pass_s", "traced_pass_s", "checks",
                                        "errors", "problems", "spans")},
              **summary}
    runs = HERE / "runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("host " + json.dumps(host))
    print(json.dumps(summary))
    return 0


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
