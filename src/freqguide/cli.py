"""Experiment command line: data generation, sampling, offline combination of
dumped predictions, band-norm analysis, and guidance-scale sweeps.

Every command is a pure function of (config, flags, seed): reruns produce
byte-identical artifacts.  Manifests therefore carry no timestamps.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import json
import os
import sys

import numpy as np

from . import __version__
from .analytic import (
    BlobTextureSpec,
    IsotropicGaussianMixture,
    blob_mixture_from_spec,
    class_labels,
    degrade,
    make_denoiser_pair,
    posterior_mean,
)
from .config import Config, parse_floats
from .diffusion import NoiseSchedule, SampleRunConfig, sample
from .errors import ConfigError, FreqGuideError, ShapeError, UsageError
from .frequency import TransformKind, check_fit
from .guidance import DenoiserPair, GuidanceConfig, NormRecorder, crossover_step, freqcfg_combine
from .metrics import band_energy_fraction, default_tau, mode_report, saturation_proxy
from .tensor import Tensor4, atomic_write_bytes, read_tensor, write_csv, write_tensor

EXIT_CODES = {"usage": 2, "config": 3, "shape": 4, "format": 5, "domain": 6, "io": 7, "error": 1}

# every key some command reads; any other key in a config is a typo
CONFIG_KEYS = frozenset(
    f"{section}.{name}"
    for section, names in (
        ("mixture", "kind height width channels centers blob_radius blob_amplitude texture_freq "
         "texture_amplitude classes noise_scale class_center_weights blob_block mean_value"),
        ("schedule", "kind sigma_min sigma_max rho"),
        ("sample", "steps seed batch sampler condition"),
        ("guidance", "transform levels scales w_low w_high parallel_weights interval"),
        ("autoguide", "enabled jitter jitter_rel inflate seed"),
        ("sweep", "samples tau"),
    )
    for name in names.split()
)


# ---------------------------------------------------------------------------
# config -> objects


def _parse_rows(
    raw: str, sep: str, width: int, error: type[FreqGuideError], name: str
) -> tuple[tuple[float, ...], ...]:
    """``raw`` as ``sep``-separated rows of ``width`` ':'-separated numbers,
    each row read by ``parse_floats``; a bad row raises ``error`` naming ``name``."""
    rows = []
    for row in raw.split(sep):
        try:
            values = parse_floats(row, ":")
        except ValueError as exc:
            raise error(f"{name!r}: {row!r} in {raw!r} is not a ':'-separated list of numbers") from exc
        if len(values) != width:
            raise error(f"{name!r}: {row!r} in {raw!r} must have {width} ':'-separated numbers")
        rows.append(values)
    return tuple(rows)


def build_blob_spec(cfg: Config) -> BlobTextureSpec:
    centers = _parse_rows(
        cfg.get_str("mixture.centers", "8:8,8:24,24:8,24:24"), ",", 2, ConfigError, "mixture.centers"
    )
    weights = cfg.get_str("mixture.class_center_weights", None)
    if weights is not None:
        weights = _parse_rows(weights, ";", len(centers), ConfigError, "mixture.class_center_weights")
    return BlobTextureSpec(
        height=cfg.get_int("mixture.height", 32),
        width=cfg.get_int("mixture.width", 32),
        channels=cfg.get_int("mixture.channels", 3),
        centers=centers,
        blob_radius=cfg.get_float("mixture.blob_radius", 8.0),
        blob_amplitude=cfg.get_float("mixture.blob_amplitude", 1.0),
        texture_freq=cfg.get_float("mixture.texture_freq", 0.5),
        texture_amplitude=cfg.get_float("mixture.texture_amplitude", 0.02),
        n_classes=cfg.get_int("mixture.classes", 2),
        noise_scale=cfg.get_float("mixture.noise_scale", 0.05),
        class_center_weights=weights,
        blob_block=cfg.get_int("mixture.blob_block", 1),
    )


def build_model(cfg: Config):
    """Returns (mixture, labels) from the mixture.* section."""
    kind = cfg.get_str("mixture.kind", "blob")
    if kind == "blob":
        spec = build_blob_spec(cfg)
        return blob_mixture_from_spec(spec), class_labels(spec)
    if kind == "single":
        shape = (
            cfg.get_int("mixture.channels", 1),
            cfg.get_int("mixture.height", 8),
            cfg.get_int("mixture.width", 8),
        )
        mean = np.full((1,) + shape, cfg.get_float("mixture.mean_value", 0.0))
        mix = IsotropicGaussianMixture(
            weights=np.array([1.0]),
            means=mean,
            scales=np.array([cfg.get_float("mixture.noise_scale", 1.0)]),
        )
        return mix, np.array([0])
    raise ConfigError(f"mixture.kind must be blob or single, got {kind!r}")


def build_schedule(cfg: Config) -> NoiseSchedule:
    kind = cfg.get_str("schedule.kind", "karras")
    sigma_max = cfg.get_float("schedule.sigma_max", 10.0)
    if kind == "linear":
        return NoiseSchedule.linear(sigma_max)
    if kind == "karras":
        return NoiseSchedule.karras(
            sigma_min=cfg.get_float("schedule.sigma_min", 0.02),
            sigma_max=sigma_max,
            rho=cfg.get_float("schedule.rho", 7.0),
        )
    raise ConfigError(f"schedule.kind must be linear or karras, got {kind!r}")


def _build_transform(cfg: Config, image_shape) -> TransformKind | None:
    name = cfg.get_str("guidance.transform", "none")
    if name == "none":
        return None
    if name == "haar":
        kind = TransformKind.haar()
    elif name == "pyramid":
        levels = cfg.get_int("guidance.levels", 1)
        if levels < 1:
            raise ConfigError(f"guidance.levels must be >= 1, got {levels}")
        kind = TransformKind.pyramid(levels)
    else:
        raise ConfigError(f"guidance.transform must be pyramid, haar or none, got {name!r}")
    try:
        check_fit(kind, *image_shape[1:])
    except ShapeError as exc:
        raise ConfigError(str(exc)) from exc
    return kind


def build_guidance(cfg: Config, image_shape, required: bool = False) -> GuidanceConfig | None:
    transform = _build_transform(cfg, image_shape)
    if transform is None:
        if required:
            raise ConfigError("this command needs guidance.transform = pyramid or haar")
        for name in ("scales", "w_low", "w_high", "parallel_weights", "interval"):
            if cfg.has(f"guidance.{name}"):
                raise ConfigError(f"guidance.{name} given but guidance.transform = none")
        return None
    has_scales = cfg.has("guidance.scales")
    has_pair = cfg.has("guidance.w_low") or cfg.has("guidance.w_high")
    if has_scales and has_pair:
        raise ConfigError("give either guidance.scales or guidance.w_low/w_high, not both")
    if has_pair:
        if transform.band_count != 2:
            raise ConfigError("guidance.w_low/w_high need a 2-band transform (levels = 1)")
        scales = (cfg.get_float("guidance.w_high", 1.0), cfg.get_float("guidance.w_low", 1.0))
    elif has_scales:
        scales = cfg.get_floats("guidance.scales")
    else:
        scales = (1.0,) * transform.band_count
    weights = cfg.get_floats("guidance.parallel_weights", None)
    interval = cfg.get_floats("guidance.interval", None, sep=":")
    if interval is not None and len(interval) != 2:
        raise ConfigError("guidance.interval must look like t_start:t_end")
    try:
        return GuidanceConfig(
            transform=transform, scales=scales, parallel_weights=weights, interval=interval
        )
    except UsageError as exc:
        raise ConfigError(str(exc)) from exc


def build_pair(cfg: Config, mix: IsotropicGaussianMixture, labels) -> DenoiserPair:
    pair = make_denoiser_pair(mix, labels)
    if not cfg.get_bool("autoguide.enabled", False):
        return pair
    has_abs = cfg.has("autoguide.jitter")
    has_rel = cfg.has("autoguide.jitter_rel")
    if has_abs and has_rel:
        raise ConfigError("give either autoguide.jitter or autoguide.jitter_rel, not both")
    if has_rel:
        mean_norm = float(np.mean(np.sqrt(np.sum(mix.means.reshape(mix.n_components, -1) ** 2, axis=1))))
        jitter = cfg.get_float("autoguide.jitter_rel") * mean_norm
    else:
        jitter = cfg.get_float("autoguide.jitter", 0.0)
    degraded = degrade(
        mix,
        jitter_scale=jitter,
        inflate_factor=cfg.get_float("autoguide.inflate", 1.5),
        seed=cfg.get_int("autoguide.seed", 1),
    )
    return DenoiserPair(cond=pair.cond, uncond=lambda z, s: posterior_mean(z, s, degraded))


def _parse_condition(raw: str) -> int | None:
    if raw.lower() in ("null", "none", ""):
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"sample.condition must be an integer or 'null', got {raw!r}") from exc


def build_run(cfg: Config, image_shape, guidance: GuidanceConfig | None) -> SampleRunConfig:
    try:
        return SampleRunConfig(
            steps=cfg.get_int("sample.steps", 40),
            schedule=build_schedule(cfg),
            seed=cfg.get_int("sample.seed", 0),
            batch=cfg.get_int("sample.batch", 8),
            shape=tuple(image_shape),
            guidance=guidance,
            condition=_parse_condition(cfg.get_str("sample.condition", "null")),
            sampler=cfg.get_str("sample.sampler", "heun"),
        )
    except UsageError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# manifests


def write_manifest(path, command: str, cfg_values: dict, seed: int | None, outputs, extra=None):
    doc = {
        "command": command,
        "config": {k: str(v) for k, v in sorted(cfg_values.items())},
        "outputs": [str(p) for p in outputs],
        "seed": seed,
        "version": __version__,
    }
    if extra:
        doc.update(extra)
    atomic_write_bytes(path, (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8"))


def _load_config(args) -> Config:
    cfg = Config.from_path(args.config)
    cfg.apply_overrides(args.set or [])
    for key, flag in (
        ("sample.steps", "steps"),
        ("sample.seed", "seed"),
        ("sample.batch", "batch"),
        ("sample.sampler", "sampler"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            cfg.values[key] = str(value)
    for key in sorted(set(cfg.values) - CONFIG_KEYS):
        near = difflib.get_close_matches(key, CONFIG_KEYS, n=1)
        hint = f"; did you mean {near[0]!r}?" if near else ""
        raise ConfigError(f"{cfg.source}: unknown config key {key!r}{hint}")
    return cfg


# ---------------------------------------------------------------------------
# commands


def cmd_sample(args) -> int:
    cfg = _load_config(args)
    mix, labels = build_model(cfg)
    guidance = build_guidance(cfg, mix.image_shape)
    run = build_run(cfg, mix.image_shape, guidance)
    pair = build_pair(cfg, mix, labels)
    out = sample(pair, run)
    write_tensor(args.out, out)
    write_manifest(args.out + ".manifest.json", "sample", cfg.resolved(), run.seed, [args.out])
    return 0


def cmd_combine(args) -> int:
    d_c = read_tensor(args.cond)
    d_u = read_tensor(args.uncond)
    if args.scales is None and args.w_low is None and args.w_high is None:
        raise UsageError("give --scales or --w-low/--w-high")
    given = {
        "guidance.transform": args.transform,
        "guidance.levels": args.levels,
        "guidance.scales": args.scales,
        "guidance.w_low": args.w_low,
        "guidance.w_high": args.w_high,
        "guidance.parallel_weights": args.parallel_weights,
    }
    cfg = Config({k: str(v) for k, v in given.items() if v is not None}, source="combine flags")
    try:
        guidance = build_guidance(cfg, d_c.dims[1:])
    except ConfigError as exc:
        raise UsageError(str(exc)) from exc
    result = freqcfg_combine(d_c, d_u, guidance)
    write_tensor(args.out, result)
    flags = {
        "combine.cond": args.cond,
        "combine.uncond": args.uncond,
        "combine.transform": guidance.transform.kind,
        "combine.levels": guidance.transform.levels,
        "combine.scales": ",".join(format(s, ".17g") for s in guidance.scales),
        "combine.parallel_weights": ",".join(format(w, ".17g") for w in guidance.weights),
    }
    write_manifest(args.out + ".manifest.json", "combine", flags, None, [args.out])
    return 0


def cmd_analyze_norms(args) -> int:
    cfg = _load_config(args)
    mix, labels = build_model(cfg)
    guidance = build_guidance(cfg, mix.image_shape, required=True)
    run = build_run(cfg, mix.image_shape, guidance)
    pair = build_pair(cfg, mix, labels)
    recorder = NormRecorder()
    sample(pair, run, recorder=recorder)
    rows = [(r.step, r.t, r.sigma, r.low_norm, r.high_norm) for r in recorder.records]
    write_csv(args.out, ["step", "t", "sigma", "low_norm", "high_norm"], rows)
    crossover = crossover_step(recorder.records)
    print(f"crossover_step={crossover}")
    write_manifest(
        args.out + ".manifest.json",
        "analyze-norms",
        cfg.resolved(),
        run.seed,
        [args.out],
        extra={"crossover_step": crossover},
    )
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    mix, labels = build_model(cfg)
    # without a transform, sweep guides a one-level pyramid
    default = Config({"guidance.transform": "pyramid"})
    base = build_guidance(cfg, mix.image_shape) or build_guidance(default, mix.image_shape)
    if base.transform.band_count != 2:
        raise ConfigError("sweep needs a 2-band transform (guidance.levels = 1)")
    run = build_run(cfg, mix.image_shape, base)
    try:
        run = dataclasses.replace(run, batch=cfg.get_int("sweep.samples", 500))
    except UsageError as exc:
        raise ConfigError(f"sweep.samples: {exc}") from exc
    if run.condition is None and not cfg.get_bool("autoguide.enabled", False):
        raise ConfigError(
            "sweep needs a class in sample.condition: with a null condition and autoguide off, "
            "d_c = d_u and every grid point gives the same row"
        )
    pair = build_pair(cfg, mix, labels)
    if run.condition is None:
        target = mix
    else:
        target = mix.restricted(np.flatnonzero(np.asarray(labels) == run.condition))
    tau = cfg.get_float("sweep.tau", None)
    if tau is None:
        tau = default_tau(mix)
    elif not 0 < tau < np.inf:
        raise ConfigError(f"sweep.tau must be a positive finite number, got {tau}")
    points = _parse_rows(args.grid, ",", 2, UsageError, "--grid")

    def run_point(point):
        w_low, w_high = point
        guidance = dataclasses.replace(base, scales=(w_high, w_low))
        out = sample(pair, dataclasses.replace(run, guidance=guidance))
        report = mode_report(out, target, tau)
        low_frac, high_frac = band_energy_fraction(out, base.transform)
        return (
            w_low,
            w_high,
            report.recall,
            report.precision,
            saturation_proxy(out, target),
            low_frac,
            high_frac,
        )

    write_csv(
        args.out,
        ["w_low", "w_high", "recall", "precision", "saturation", "low_energy", "high_energy"],
        [run_point(point) for point in points],
    )
    write_manifest(
        args.out + ".manifest.json",
        "sweep",
        cfg.resolved(),
        run.seed,
        [args.out],
        extra={"grid": [[p[0], p[1]] for p in points]},
    )
    return 0


def cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    if cfg.get_str("mixture.kind", "blob") != "blob":
        raise ConfigError("gen-data needs mixture.kind = blob")
    spec = build_blob_spec(cfg)
    mix = blob_mixture_from_spec(spec)
    labels = class_labels(spec)
    os.makedirs(args.out, exist_ok=True)
    outputs = []
    lines = []
    for idx in range(mix.n_components):
        name = f"mean_{idx:03d}.fqg"
        path = os.path.join(args.out, name)
        write_tensor(path, Tensor4(mix.means[idx][None]))
        outputs.append(path)
        lines.append(f"component.{idx}.weight = {format(float(mix.weights[idx]), '.17g')}")
        lines.append(f"component.{idx}.scale = {format(float(mix.scales[idx]), '.17g')}")
        lines.append(f"component.{idx}.class = {int(labels[idx])}")
        lines.append(f"component.{idx}.mean_file = {name}")
    spec_path = os.path.join(args.out, "mixture.txt")
    header = [
        f"mixture.components = {mix.n_components}",
        f"mixture.channels = {spec.channels}",
        f"mixture.height = {spec.height}",
        f"mixture.width = {spec.width}",
    ]
    atomic_write_bytes(spec_path, ("\n".join(header + lines) + "\n").encode("utf-8"))
    outputs.append(spec_path)
    write_manifest(
        os.path.join(args.out, "manifest.json"), "gen-data", cfg.resolved(), None, outputs
    )
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqguide",
        description="Per-frequency-band guidance scales for diffusion ODE sampling.",
    )
    parser.add_argument("--version", action="version", version=f"freqguide {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
        p.add_argument("--steps", type=int, help="override sample.steps")
        p.add_argument("--seed", type=int, help="override sample.seed")
        p.add_argument("--batch", type=int, help="override sample.batch")
        p.add_argument("--sampler", choices=["euler", "heun"], help="override sample.sampler")

    p = sub.add_parser("sample", help="sample a batch and write an FQG1 tensor")
    add_config_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("combine", help="combine dumped cond/uncond predictions")
    p.add_argument("--cond", required=True)
    p.add_argument("--uncond", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--transform", choices=["pyramid", "haar"], default="pyramid")
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--w-low", type=float, dest="w_low")
    p.add_argument("--w-high", type=float, dest="w_high")
    p.add_argument("--scales", help="comma list, high to low frequency")
    p.add_argument("--parallel-weights", dest="parallel_weights", help="comma list")
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("analyze-norms", help="record per-band guidance norms over a run")
    add_config_args(p)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_analyze_norms)

    p = sub.add_parser("sweep", help="metrics over a (w_low, w_high) grid")
    add_config_args(p)
    p.add_argument("--grid", required=True, help="comma list of w_low:w_high points")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen-data", help="write mixture definition and mean images")
    add_config_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FreqGuideError as exc:
        print(f"freqguide: error [{exc.category}]: {exc}", file=sys.stderr)
        return EXIT_CODES.get(exc.category, 1)
    except OSError as exc:
        print(f"freqguide: error [io]: {exc}", file=sys.stderr)
        return EXIT_CODES["io"]


if __name__ == "__main__":
    sys.exit(main())
