"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are pinned here, not configurable.
"""

import csv
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_SCHEDULE, smoothed, spearman

from freqguide import (
    BandNormRecord,
    DenoiserPair,
    GuidanceConfig,
    NormRecorder,
    SampleRunConfig,
    Tensor4,
    TransformKind,
    band_energy_fraction,
    crossover_step,
    degrade,
    freqcfg_combine,
    freqcfg_combine_bands,
    guided_denoise,
    initial_noise,
    inverse_bands,
    make_denoiser_pair,
    mode_report,
    posterior_mean,
    project,
    read_tensor,
    sample,
    transform_bands,
    write_tensor,
)
from freqguide import IsotropicGaussianMixture, NoiseSchedule

rng = np.random.default_rng(2024)

BOTH_TRANSFORMS = (TransformKind.pyramid(1), TransformKind.haar())


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} {name}: {detail}"


def test_c01_perfect_reconstruction():
    start = time.perf_counter()
    worst = 0.0
    for _ in range(4):
        x = Tensor4(rng.uniform(-10.0, 10.0, (1, 3, 64, 64)))
        for kind in (*(TransformKind.pyramid(n) for n in (1, 2, 3)), TransformKind.haar()):
            rec = inverse_bands(transform_bands(x, kind), kind)
            worst = max(worst, float(np.abs(rec.data - x.data).max()))
    elapsed = time.perf_counter() - start
    report(
        1,
        "perfect reconstruction",
        worst < 1e-9 and elapsed < 1.0,
        f"max abs err {worst:.2e}, {elapsed:.2f}s",
    )


def test_c02_cfg_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        d_c = rng.uniform(-3.0, 3.0, (1, 3, 32, 32))
        d_u = rng.uniform(-3.0, 3.0, (1, 3, 32, 32))
        for w in (0.0, 1.0, 2.0, 7.5):
            ref = d_u + w * (d_c - d_u)  # plain CFG
            for kind in BOTH_TRANSFORMS:
                cfg = GuidanceConfig(transform=kind, scales=(w,) * kind.band_count)
                got = freqcfg_combine(d_c, d_u, cfg)
                worst = max(worst, float(np.abs(got - ref).max()))
    elapsed = time.perf_counter() - start
    report(
        2,
        "uniform-scale equivalence with plain CFG",
        worst < 1e-8 and elapsed < 5.0,
        f"max abs err {worst:.2e}, {elapsed:.2f}s",
    )


def test_c03_projection_identities():
    worst_sum = worst_dot = worst_neutral = 0.0
    for _ in range(50):
        v0 = Tensor4(rng.uniform(-2.0, 2.0, (3, 2, 16, 16)))
        v1 = Tensor4(rng.uniform(-2.0, 2.0, (3, 2, 16, 16)))
        par, orth = project(v0, v1)
        worst_sum = max(worst_sum, float(np.abs(par.data + orth.data - v0.data).max()))
        for i in range(v0.dims[0]):
            dot = abs(float(np.sum(orth.data[i] * v1.data[i])))
            bound = np.linalg.norm(v0.data[i]) * np.linalg.norm(v1.data[i])
            worst_dot = max(worst_dot, dot / bound)
    # parallel_weights = 1 must be indistinguishable from skipping projection
    kind = TransformKind.pyramid(1)
    for _ in range(10):
        d_c = Tensor4(rng.uniform(-2.0, 2.0, (2, 3, 32, 32)))
        d_u = Tensor4(rng.uniform(-2.0, 2.0, (2, 3, 32, 32)))
        scales = (3.0, 0.5)
        with_proj = freqcfg_combine(
            d_c.data, d_u.data, GuidanceConfig(transform=kind, scales=scales, parallel_weights=(1.0, 1.0))
        )
        bands_c = transform_bands(d_c, kind)
        bands_u = transform_bands(d_u, kind)
        no_proj = inverse_bands(
            [
                Tensor4(c.data + (s - 1.0) * (c.data - u.data))
                for c, u, s in zip(bands_c, bands_u, scales)
            ],
            kind,
        )
        worst_neutral = max(worst_neutral, float(np.abs(with_proj - no_proj.data).max()))
    ok = worst_sum < 1e-12 and worst_dot < 1e-10 and worst_neutral < 1e-10
    report(
        3,
        "projection identities",
        ok,
        f"sum {worst_sum:.2e}, dot {worst_dot:.2e}, neutrality {worst_neutral:.2e}",
    )


def test_c04_band_locality():
    # checked on band coefficients: a unit scale leaves its band untouched.
    # (the pyramid is overcomplete, so re-decomposing the reconstructed output
    # mixes bands; haar is orthogonal and is additionally checked end to end)
    worst_low = worst_high = worst_haar = 0.0
    for kind in BOTH_TRANSFORMS:
        for _ in range(10):
            d_c = Tensor4(rng.uniform(-2.0, 2.0, (2, 3, 32, 32)))
            d_u = Tensor4(rng.uniform(-2.0, 2.0, (2, 3, 32, 32)))
            bands_c = transform_bands(d_c, kind)
            guided = freqcfg_combine_bands(
                d_c, d_u, GuidanceConfig(transform=kind, scales=(4.0, 1.0))
            )
            worst_low = max(worst_low, float(np.abs(guided[-1].data - bands_c[-1].data).max()))
            guided = freqcfg_combine_bands(
                d_c, d_u, GuidanceConfig(transform=kind, scales=(1.0, 4.0))
            )
            for got, ref in zip(guided[:-1], bands_c[:-1]):
                worst_high = max(worst_high, float(np.abs(got.data - ref.data).max()))
    haar = TransformKind.haar()
    for _ in range(10):
        d_c = Tensor4(rng.uniform(-2.0, 2.0, (1, 3, 32, 32)))
        d_u = Tensor4(rng.uniform(-2.0, 2.0, (1, 3, 32, 32)))
        out = freqcfg_combine(d_c.data, d_u.data, GuidanceConfig(transform=haar, scales=(4.0, 1.0)))
        out_ll = transform_bands(Tensor4(out), haar)[-1]
        c_ll = transform_bands(d_c, haar)[-1]
        worst_haar = max(worst_haar, float(np.abs(out_ll.data - c_ll.data).max()))
    ok = worst_low < 1e-9 and worst_high < 1e-9 and worst_haar < 1e-9
    report(
        4,
        "band locality of per-band scales",
        ok,
        f"residual {worst_low:.2e}, details {worst_high:.2e}, haar end-to-end {worst_haar:.2e}",
    )


def test_c05_sampler_accuracy():
    start = time.perf_counter()
    mu, s, sigma_max = 0.7, 2.0, 10.0
    shape = (1, 4, 4)
    mix = IsotropicGaussianMixture(
        weights=np.array([1.0]), means=np.full((1,) + shape, mu), scale=s
    )
    pair = make_denoiser_pair(mix, [0])
    sched = NoiseSchedule.karras(0.01, sigma_max, 7.0)

    def endpoint_error(sampler, steps):
        run = SampleRunConfig(
            steps=steps, schedule=sched, seed=7, batch=4, shape=shape, sampler=sampler
        )
        out = sample(pair, run)
        z0 = initial_noise(7, 4, shape, sigma_max)
        exact = mu + (z0.data - mu) * s / np.sqrt(sigma_max**2 + s**2)
        return float(np.linalg.norm(out.data - exact) / np.linalg.norm(exact))

    heun64 = endpoint_error("heun", 64)
    euler_ratio = endpoint_error("euler", 128) / endpoint_error("euler", 64)
    heun_ratio = endpoint_error("heun", 128) / heun64
    elapsed = time.perf_counter() - start
    ok = (
        heun64 < 1e-3
        and 0.4 <= euler_ratio <= 0.6
        and 0.18 <= heun_ratio <= 0.33
        and elapsed < 10.0
    )
    report(
        5,
        "sampler accuracy on the closed-form endpoint",
        ok,
        f"heun64 {heun64:.2e}, euler ratio {euler_ratio:.3f}, heun ratio {heun_ratio:.3f}, {elapsed:.1f}s",
    )


def _trend_run(pair, mix, scales, batch, seed=0, steps=40, recorder=None, condition=0):
    run = SampleRunConfig(
        steps=steps,
        schedule=ACCEPTANCE_SCHEDULE,
        seed=seed,
        batch=batch,
        shape=mix.image_shape,
        guidance=GuidanceConfig(transform=TransformKind.haar(), scales=scales),
        condition=condition,
        sampler="euler",
    )
    return sample(pair, run, recorder=recorder)


def test_c06_diversity_trend(blob_model):
    start = time.perf_counter()
    spec, mix, labels, pair = blob_model
    target = mix.restricted(np.flatnonzero(labels == 0))
    tau = 3.0 * spec.noise_scale * np.sqrt(mix.dim)

    def point(w_low, w_high):
        out = _trend_run(pair, mix, (w_high, w_low), batch=500)
        return mode_report(out, target, tau)

    base = point(1.0, 1.0)
    high_only = point(1.0, 3.0)
    both = point(3.0, 3.0)
    elapsed = time.perf_counter() - start
    recall_drop = high_only.recall - both.recall
    precision_drop = base.precision - high_only.precision
    ok = recall_drop >= 0.05 and precision_drop <= 0.02 and elapsed < 120.0
    report(
        6,
        "low-band guidance drives the diversity loss",
        ok,
        f"recall {high_only.recall:.2f}->{both.recall:.2f}, "
        f"precision {base.precision:.3f}->{high_only.precision:.3f}, {elapsed:.0f}s",
    )


def test_c07_band_norm_dynamics(blob_model):
    _, mix, labels, pair = blob_model
    recorder = NormRecorder()
    _trend_run(pair, mix, (2.0, 2.0), batch=16, recorder=recorder)
    low = np.array([r.low_norm for r in recorder.records])
    high = np.array([r.high_norm for r in recorder.records])
    rho_high = spearman(smoothed(high))
    rho_low = spearman(smoothed(low))
    # exhaustive-scan oracle for the crossover, on real and random records
    brute = min(range(len(low)), key=lambda i: (abs(low[i] - high[i]), i))
    cross_ok = crossover_step(recorder.records) == brute
    for _ in range(20):
        lo = rng.uniform(0, 3, 15)
        hi = rng.uniform(0, 3, 15)
        records = [
            BandNormRecord(step=i, sigma=1.0, low_norm=a, high_norm=b)
            for i, (a, b) in enumerate(zip(lo, hi))
        ]
        oracle = min(range(15), key=lambda i: (abs(lo[i] - hi[i]), i))
        cross_ok = cross_ok and crossover_step(records) == oracle
    ok = rho_high > 0.0 and rho_low < 0.0 and cross_ok
    report(
        7,
        "band-norm dynamics and crossover",
        ok,
        f"spearman high {rho_high:.2f}, low {rho_low:.2f}, crossover oracle {cross_ok}",
    )


def test_c08_autoguidance_keeps_low_band_strong(blob_model):
    _, mix, labels, pair = blob_model
    recorder_cfg = NormRecorder()
    _trend_run(pair, mix, (2.0, 2.0), batch=16, recorder=recorder_cfg)

    mean_norm = float(
        np.mean(np.linalg.norm(mix.means.reshape(mix.n_components, -1), axis=1))
    )
    degraded = degrade(mix, jitter_scale=0.1 * mean_norm, inflate_factor=1.5, seed=1)
    auto_pair = DenoiserPair(
        cond=pair.cond, uncond=lambda z, s: posterior_mean(z, s, degraded)
    )
    recorder_auto = NormRecorder()
    _trend_run(auto_pair, mix, (2.0, 2.0), batch=16, recorder=recorder_auto)

    def last_quartile_ratio(recorder):
        low = np.array([r.low_norm for r in recorder.records])
        q = len(low) // 4
        return float(np.min(low[-q:]) / np.max(low))

    cfg_ratio = last_quartile_ratio(recorder_cfg)
    auto_ratio = last_quartile_ratio(recorder_auto)
    report(
        8,
        "autoguidance keeps the low band strong late",
        auto_ratio > cfg_ratio,
        f"auto {auto_ratio:.3f} vs cfg {cfg_ratio:.2e}",
    )


def test_c09_process_boundary_fidelity(tmp_path):
    # library call vs CLI subprocess on the same dumped tensors, plus
    # byte-identical reruns of every command
    d_c = Tensor4(rng.uniform(-2.0, 2.0, (2, 1, 16, 16)))
    d_u = Tensor4(rng.uniform(-2.0, 2.0, (2, 1, 16, 16)))
    pc, pu = str(tmp_path / "c.fqg"), str(tmp_path / "u.fqg")
    write_tensor(pc, d_c)
    write_tensor(pu, d_u)
    round_trip_exact = read_tensor(pc).data.tobytes() == d_c.data.tobytes()

    def run(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "freqguide", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    out = str(tmp_path / "guided.fqg")
    run(["combine", "--cond", pc, "--uncond", pu, "--w-low", "1.5", "--w-high", "4.0", "--out", out])
    lib = freqcfg_combine(
        d_c.data, d_u.data, GuidanceConfig(transform=TransformKind.pyramid(1), scales=(4.0, 1.5))
    )
    combine_exact = read_tensor(out).data.tobytes() == lib.tobytes()

    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "mixture.kind = blob\nmixture.height = 16\nmixture.width = 16\n"
        "mixture.channels = 1\nmixture.centers = 5:5,11:11\nmixture.blob_radius = 8\n"
        "mixture.texture_amplitude = 0.001\nmixture.classes = 2\n"
        "schedule.sigma_max = 20\nsample.steps = 5\nsample.batch = 2\nsample.condition = 0\n"
        "guidance.transform = haar\nguidance.scales = 2,1.5\nsweep.samples = 4\n"
    )
    commands = {
        "sample": ["sample", "--config", str(cfg_path), "--out", str(tmp_path / "s.fqg")],
        "combine": [
            "combine", "--cond", pc, "--uncond", pu, "--w-low", "2", "--w-high", "3",
            "--out", str(tmp_path / "comb.fqg"),
        ],
        "analyze-norms": ["analyze-norms", "--config", str(cfg_path), "--out", str(tmp_path / "n.csv")],
        "sweep": ["sweep", "--config", str(cfg_path), "--grid", "1:1,2:3", "--out", str(tmp_path / "w.csv")],
        "gen-data": ["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "data")],
    }
    rerun_identical = True
    for argv in commands.values():
        run(argv)
        first = {p.name: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}
        run(argv)
        second = {p.name: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}
        rerun_identical = rerun_identical and first == second
    ok = round_trip_exact and combine_exact and rerun_identical
    report(
        9,
        "process-boundary fidelity",
        ok,
        f"round-trip {round_trip_exact}, combine {combine_exact}, reruns {rerun_identical}",
    )


def test_c10_zero_band_ablation(blob_model):
    # each ablation is evaluated at a sampling state where the band it keeps
    # carries live guidance signal: early for the low band (position still
    # unresolved), late for the high band (texture still ambiguous)
    _, mix, labels, pair = blob_model
    kind = TransformKind.haar()
    guidance = GuidanceConfig(transform=kind, scales=(2.0, 2.0))
    steps = 40
    sigmas = ACCEPTANCE_SCHEDULE.grid(steps)
    z = initial_noise(0, 8, mix.image_shape, float(sigmas[0])).data
    states = {}
    for i in range(steps):
        s_cur, s_next = float(sigmas[i]), float(sigmas[i + 1])
        if i in (2, 35):
            states[i] = (z.copy(), s_cur)
        x0 = guided_denoise(z, s_cur, pair, guidance, condition=0)
        z = z + (s_next - s_cur) * (z - x0) / s_cur

    def update_fractions(state_key, scales):
        z_state, sigma = states[state_key]
        d_c = pair.cond(z_state, sigma, 0)
        d_u = pair.uncond(z_state, sigma)
        guided = freqcfg_combine(d_c, d_u, GuidanceConfig(transform=kind, scales=scales))
        update = Tensor4(guided - d_c)
        return band_energy_fraction(update, kind)

    low_frac, _ = update_fractions(2, (0.0, 3.0))  # keep only low-band guidance
    _, high_frac = update_fractions(35, (3.0, 0.0))  # keep only high-band guidance
    ok = low_frac > 0.7 and high_frac > 0.7
    report(
        10,
        "zeroed-band updates route energy to the kept band",
        ok,
        f"low-band share {low_frac:.3f}, high-band share {high_frac:.3f}",
    )
