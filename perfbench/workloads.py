"""The four workloads: their pinned parameters, seeded inputs, child jobs and
output checks.

Every parameter is pinned here (or in ``sweep.cfg``) instead of relying on a
program default, so a later change to a default does not change the work a
workload does.  ``SIZES`` holds the per-run problem sizes; ``smoke`` shrinks
them so every workload and the traced pass run in seconds.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path

import numpy as np

import oracle

HERE = Path(__file__).resolve().parent

# tests/conftest.py::acceptance_spec
ACCEPTANCE = {
    "height": 32,
    "width": 32,
    "channels": 3,
    "centers": [[8.0, 8.0], [8.0, 24.0], [24.0, 8.0], [24.0, 24.0]],
    "blob_radius": 8.0,
    "blob_amplitude": 1.0,
    "texture_freq": 0.5,
    "texture_amplitude": 2e-4,
    "classes": 2,
    "noise_scale": 0.01,
    "class_center_weights": [[0.45, 0.3, 0.05, 0.2], [0.2, 0.05, 0.3, 0.45]],
    "blob_block": 2,
}
# 16 x 16 centers at 2 px pitch, 4 classes: 1024 components
MANY_MODES = dict(
    ACCEPTANCE,
    centers=[[r + 0.5, c + 0.5] for r in range(0, 32, 2) for c in range(0, 32, 2)],
    classes=4,
    class_center_weights=None,
)
SCHEDULE = {"sigma_min": 0.02, "sigma_max": 80.0, "rho": 7.0}
STEPS = 40
CONDITION = 0

# Per-run sizes; "smoke" is for the self-check, not for measurement.
# sample-pyr3 makes its 200 images as 8 sample() calls of 25: a batch of 25
# keeps the transform temporaries within a core's 2 MB L2, and on the shared
# host this was built on, one call of 200 (working set in the L3 other
# tenants share) ran 1.35x slower and varied 1.4x as much.
SIZES = {
    "full": {
        "pyr3_batch": 25,
        "pyr3_calls": 8,
        "manymodes_batch": 32,
        "manymodes_calls": 1,
        "sweep_samples": 50,
        "combine_items": 2000,
        "steps": STEPS,
    },
    "smoke": {
        "pyr3_batch": 3,
        "pyr3_calls": 2,
        "manymodes_batch": 2,
        "manymodes_calls": 1,
        "sweep_samples": 6,
        "combine_items": 8,
        "steps": 4,
    },
}

# float64-derived check tolerance: 2**20 ulp of a unit-sized value.  The
# oracle and the program sum in different orders; at this commit they agree
# to ~1e-13 after 40 guided ODE steps, three orders of magnitude inside it.
TOL = 2.0**20 * np.finfo(np.float64).eps

SWEEP_GRID = ((1.0, 1.0), (1.0, 3.0), (3.0, 3.0))  # (w_low, w_high)
SWEEP_COLUMNS = ["w_low", "w_high", "recall", "precision", "saturation", "low_energy", "high_energy"]
SWEEP_TAU = 1.662768775266122  # 3 * noise_scale * sqrt(3 * 32 * 32), pinned in sweep.cfg


class CheckFailed(Exception):
    """The program's output disagrees with the reference."""


def _close(name: str, got: np.ndarray, want: np.ndarray):
    if got.shape != want.shape:
        raise CheckFailed(f"{name}: shape {got.shape}, expected {want.shape}")
    if not np.all(np.isfinite(got)):
        raise CheckFailed(f"{name}: non-finite values")
    err = float(np.max(np.abs(got - want)))
    limit = TOL * max(1.0, float(np.max(np.abs(want))))
    if err > limit:
        raise CheckFailed(f"{name}: max abs error {err:.3e} > {limit:.3e}")


def _check_manifest(path: str, command: str):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"manifest {path}: {exc}") from exc
    if doc.get("command") != command:
        raise CheckFailed(f"manifest {path}: command {doc.get('command')!r}, expected {command!r}")


def _mixtures(spec: dict) -> tuple[oracle.Mixture, oracle.Mixture]:
    """(full mixture, class-CONDITION mixture)."""
    weights, means, labels = oracle.blob_texture_means(spec)
    full = oracle.Mixture(weights, means, spec["noise_scale"])
    return full, full.subset(labels == CONDITION)


class SampleWorkload:
    """Library ``sample()`` on a blob model: a few calls per run, each with
    its own seed derived from the benchmark seed."""

    suffix = ".npy"
    threads = 1

    def __init__(self, name, spec, transform, levels, scales, sampler, size_key):
        self.name = name
        self.spec = spec
        self.guidance = {
            "transform": transform,
            "levels": levels,
            "scales": list(scales),
            "weights": [1.0] * len(scales),
        }
        self.sampler = sampler
        self.size_key = size_key

    def prepare(self, seed: int, size: dict, work: Path) -> dict:
        batch = size[self.size_key + "_batch"]
        calls = size[self.size_key + "_calls"]
        seeds = [seed * calls + k for k in range(calls)]
        run = dict(SCHEDULE, steps=size["steps"], sampler=self.sampler, **self.guidance)
        full, cond = _mixtures(self.spec)
        reference = np.concatenate([oracle.guided_sample(cond, full, run, s, range(batch)) for s in seeds])
        tau = 3.0 * self.spec["noise_scale"] * np.sqrt(reference[0].size)
        return {
            "images": batch * calls,
            "params": dict(run, spec=self.spec, seeds=seeds, batch=batch, condition=CONDITION),
            "reference": reference,
            "modes": oracle.mode_counts(reference, cond, tau),
            "cond": cond,
            "tau": tau,
        }

    def job(self, ctx: dict, out: Path) -> dict:
        return {"mode": "lib", "params": dict(ctx["params"], out=str(out))}

    def output_files(self, out: Path) -> list[Path]:
        return [out]

    def check(self, ctx: dict, out: Path):
        try:
            got = np.load(out)
        except (OSError, ValueError, EOFError) as exc:
            raise CheckFailed(f"cannot read output: {exc}") from exc
        _close("samples", got, ctx["reference"])
        modes = oracle.mode_counts(got, ctx["cond"], ctx["tau"])
        if modes != ctx["modes"]:
            raise CheckFailed(f"mode counts/recall/precision {modes[1:]} != reference {ctx['modes'][1:]}")


class SweepWorkload:
    """``freqguide sweep`` over a 3-point (w_low, w_high) grid, 2 threads."""

    name = "sweep-cli"
    suffix = ".csv"
    threads = 2  # FREQGUIDE_THREADS
    ready_at = "sample"

    def prepare(self, seed: int, size: dict, work: Path) -> dict:
        samples = size["sweep_samples"]
        full, cond = _mixtures(ACCEPTANCE)
        rows = []
        for w_low, w_high in SWEEP_GRID:
            run = dict(
                SCHEDULE,
                steps=size["steps"],
                sampler="euler",
                transform="pyramid",
                levels=1,
                scales=[w_high, w_low],
                weights=[1.0, 1.0],
            )
            out = oracle.guided_sample(cond, full, run, seed, range(samples))
            _, recall, precision = oracle.mode_counts(out, cond, SWEEP_TAU)
            low, high = oracle.energy_shares(out, "pyramid", 1)
            rows.append((recall, precision, oracle.saturation(out, cond), low, high))
        argv = [
            "sweep",
            "--config", str(HERE / "sweep.cfg"),
            "--seed", str(seed),
            "--steps", str(size["steps"]),
            "--set", f"sweep.samples={samples}",
            "--grid", ",".join(f"{lo:g}:{hi:g}" for lo, hi in SWEEP_GRID),
        ]  # fmt: skip
        return {"images": samples * len(SWEEP_GRID), "argv": argv, "rows": rows}

    def job(self, ctx: dict, out: Path) -> dict:
        return {"mode": "cli", "argv": ctx["argv"] + ["--out", str(out)], "ready_at": self.ready_at}

    def output_files(self, out: Path) -> list[Path]:
        return [out, Path(str(out) + ".manifest.json")]

    def check(self, ctx: dict, out: Path):
        try:
            with open(out, newline="", encoding="utf-8") as fh:
                table = list(csv.reader(fh))
        except (OSError, ValueError, csv.Error) as exc:
            raise CheckFailed(f"cannot read output: {exc}") from exc
        if not table or table[0] != SWEEP_COLUMNS:
            raise CheckFailed(f"CSV header {table[:1]} != {SWEEP_COLUMNS}")
        body = table[1:]
        if len(body) != len(SWEEP_GRID):
            raise CheckFailed(f"{len(body)} CSV rows, expected {len(SWEEP_GRID)}")
        for row, point, want in zip(body, SWEEP_GRID, ctx["rows"]):
            if len(row) != len(SWEEP_COLUMNS):
                raise CheckFailed(f"CSV row {row} has {len(row)} cells")
            if row[:2] != [format(v, ".17g") for v in point]:
                raise CheckFailed(f"grid cells {row[:2]} != {point}")
            try:
                values = [float(cell) for cell in row[2:]]
            except ValueError as exc:
                raise CheckFailed(f"CSV row {row}: {exc}") from exc
            if values[:2] != list(want[:2]):
                raise CheckFailed(f"point {point}: recall/precision {values[:2]} != {list(want[:2])}")
            _close(f"point {point} saturation/energy", np.array(values[2:]), np.array(want[2:]))
        _check_manifest(str(out) + ".manifest.json", "sweep")


class CombineWorkload:
    """``freqguide combine`` on two dumped FQG1 prediction tensors."""

    name = "combine-fqg"
    suffix = ".fqg"
    threads = 1
    ready_at = "freqcfg_combine"
    levels = 2
    scales = (3.0, 2.0, 1.5)
    weights = (0.5, 0.5, 1.0)

    def prepare(self, seed: int, size: dict, work: Path) -> dict:
        """cond/uncond predictions of the acceptance model at the middle
        sigma of the 40-step karras grid, for noisy draws from the model."""
        n = size["combine_items"]
        full, cond = _mixtures(ACCEPTANCE)
        gen = np.random.default_rng(seed)
        picks = gen.choice(len(full.weights), size=n, p=full.weights)
        x = full.flat[picks] + ACCEPTANCE["noise_scale"] * gen.standard_normal((n, full.flat.shape[1]))
        sigma = float(oracle.karras_sigmas(**SCHEDULE, steps=STEPS)[STEPS // 2])
        z = x + sigma * gen.standard_normal(x.shape)
        shape = (n,) + tuple(full.image_shape)
        d_c = cond.posterior_mean(z, sigma).reshape(shape)
        d_u = full.posterior_mean(z, sigma).reshape(shape)
        paths = {"cond": work / "cond.fqg", "uncond": work / "uncond.fqg"}
        oracle.write_fqg1(paths["cond"], d_c)
        oracle.write_fqg1(paths["uncond"], d_u)
        reference = oracle.band_cfg(d_c, d_u, "pyramid", self.levels, self.scales, self.weights)
        argv = [
            "combine",
            "--cond", str(paths["cond"]),
            "--uncond", str(paths["uncond"]),
            "--transform", "pyramid",
            "--levels", str(self.levels),
            "--scales", ",".join(f"{s:g}" for s in self.scales),
            "--parallel-weights", ",".join(f"{w:g}" for w in self.weights),
        ]  # fmt: skip
        return {"images": n, "argv": argv, "reference": reference}

    def job(self, ctx: dict, out: Path) -> dict:
        return {"mode": "cli", "argv": ctx["argv"] + ["--out", str(out)], "ready_at": self.ready_at}

    def output_files(self, out: Path) -> list[Path]:
        return [out, Path(str(out) + ".manifest.json")]

    def check(self, ctx: dict, out: Path):
        try:
            got = oracle.read_fqg1(out)
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"cannot read output: {exc}") from exc
        _close("combined", got, ctx["reference"])
        _check_manifest(str(out) + ".manifest.json", "combine")


WORKLOADS = {
    w.name: w
    for w in (
        SampleWorkload(
            "sample-pyr3", ACCEPTANCE, "pyramid", 3, (3.0, 2.0, 1.5, 1.0), "euler", "pyr3"
        ),
        SampleWorkload(
            "sample-manymodes", MANY_MODES, "haar", 1, (3.0, 1.5), "heun", "manymodes"
        ),
        SweepWorkload(),
        CombineWorkload(),
    )
}


def remove_outputs(workload, out: Path):
    for path in workload.output_files(out):
        if os.path.exists(path):
            os.unlink(path)
