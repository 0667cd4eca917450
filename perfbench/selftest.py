"""Tests of the benchmark itself, kept out of the package's test suite:

    python3 -m pytest -q perfbench/selftest.py

Run from the root of a checkout.  They use the smoke sizes, so they take
about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_smoke_emits_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def _corrupt(path: Path):
    if path.suffix == ".npy":
        data = np.load(path)
        data.flat[0] += 1e-6
        np.save(path, data)
    elif path.suffix == ".csv":
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[-1].split(",")
        cells[2] = "0.5" if cells[2] != "0.5" else "0.25"  # recall
        lines[-1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        data = np.array(oracle.read_fqg1(path))
        data.flat[0] += 1e-6
        oracle.write_fqg1(path, data)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_corrupted_output_counts_as_failure(name, monkeypatch):
    workload = workloads.WORKLOADS[name]
    original = workload.check
    seen = []

    def check_corrupted(ctx, out):
        original(ctx, out)  # the real output passes
        _corrupt(out)
        seen.append(name)
        original(ctx, out)

    monkeypatch.setattr(workload, "check", check_corrupted)
    line = run.measure(ROOT, name, seed=2, seconds=0.0, trace=False, size="smoke")
    assert seen
    assert line["failed"] == line["attempted"] == 1
    assert line["correct"] is False


def test_self_time_subtracts_covered_child_time():
    spans = [
        {"id": 0, "name": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "b", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "c", "parent": 0, "start": 3.0, "end": 6.0},  # overlaps b
        {"id": 3, "name": "d", "parent": 1, "start": 2.0, "end": 3.0},
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 3.0, 1.0]


def test_trace_sums_posterior_mean_flops_and_nfe():
    line = run.measure(ROOT, "sample-pyr3", seed=3, seconds=0.0, trace=True, size="smoke")
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    size = workloads.SIZES["smoke"]
    steps = size["steps"] * size["pyr3_calls"]
    assert metrics["diffusion.nfe"] == steps
    assert metrics["analytic.posterior_mean.calls"] == 2 * steps
    # cond restricted to 4 of the 8 components, uncond over all 8
    flop = steps * 4 * size["pyr3_batch"] * (4 + 8) * 3072
    assert metrics["analytic.posterior_mean.gflop"] == pytest.approx(flop / 1e9)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable] + cmd[1:] + ["--workload", "sample-pyr3", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
