"""Tests of the benchmark harness; each workload runs at its quick size.

    python3 -m pytest perfbench -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import refs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_checks_outputs_and_reports_every_metric(workload, trace):
    out = bench(ROOT, "--workload", workload, "--seed", "11", "--seconds",
                "1", "--trace", str(trace), "--quick")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in wanted}
    host = json.loads(out.stdout.splitlines()[-2].removeprefix("host "))
    assert {"cpus", "python", "numpy", "scipy", "thread_caps",
            "src_sha256"} <= set(host)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = bench(tmp_path, "--workload", "ensemble", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""


def test_periodogram_matches_its_definition():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(3 * 64)
    direct = [np.abs(np.sum(x[:64] * np.exp(-2j * np.pi * k * np.arange(64)
                                            / 64))) ** 2 for k in range(64)]
    one = refs.periodogram(x[:64], 0.5, 1)
    assert refs.max_rel_dev(one, np.fft.fftshift(direct) * 0.5 / 64) < 1e-12
    assert refs.periodogram(x, 0.5, 3).size == 64


def test_agreement_flags_a_biased_ensemble():
    rng = np.random.default_rng(1)
    truth = 1.0 + 10.0 / (1.0 + np.linspace(-5, 5, 2000) ** 2)
    est = truth * rng.exponential(size=(3, truth.size))
    z, ratio = refs.agreement(est, truth, 500)
    assert abs(z) < 4 and 0.8 < ratio < 1.2
    z, ratio = refs.agreement(1.1 * est, truth, 500)
    assert z > 6


def test_agreement_counts_paired_bins_once():
    # bins 1000 apart are copies: the band mean has half the independent
    # bins, and the standard error must say so
    rng = np.random.default_rng(3)
    zs = []
    for _ in range(200):
        half = rng.exponential(size=(3, 1000))
        zs.append(refs.agreement(np.hstack([half, half]), np.ones(2000),
                                 1000)[0])
    assert 0.8 < np.std(zs) < 1.25


def test_parseval_flags_a_wrong_mean_square():
    rng = np.random.default_rng(2)
    dt, n = 1e-3, 4096
    x = rng.standard_normal(8 * n)
    flat = np.full(n, dt)          # white, unit variance: S = sigma^2 dt
    assert abs(refs.parseval_z(x, flat, dt)) < 4
    assert refs.parseval_z(1.05 * x, flat, dt) > 6
