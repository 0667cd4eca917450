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
import math
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
from .errors import ConfigError, DomainError, FreqGuideError, ShapeError, UsageError
from .frequency import TransformKind, check_fit
from .guidance import DenoiserPair, GuidanceConfig, NormRecorder, crossover_step, freqcfg_combine
from .metrics import band_energy_fraction, default_tau, mode_report, saturation_proxy
from .tensor import (
    MAX_ARRAY_VALUES, Tensor4, TensorReader, atomic_write_bytes, blocks, tensor_writer, write_csv, write_tensor,
)

EXIT_CODES = {"usage": 2, "config": 3, "shape": 4, "format": 5, "domain": 6, "io": 7, "error": 1}

# the mixture.* keys only one mixture.kind reads; the other kind rejects them
KIND_KEYS = {
    "blob": "centers blob_radius blob_amplitude texture_freq texture_amplitude classes class_center_weights blob_block",
    "single": "mean_value",
}
# every key some command reads; any other key in a config is a typo
CONFIG_KEYS = frozenset(
    f"{section}.{name}"
    for section, names in (
        ("mixture", "kind height width channels noise_scale " + " ".join(KIND_KEYS.values())),
        ("schedule", "kind sigma_min sigma_max rho"),
        ("sample", "steps seed batch sampler condition"),
        ("guidance", "transform levels scales w_low w_high parallel_weights interval"),
        ("autoguide", "enabled jitter jitter_rel inflate seed"),
        ("sweep", "samples tau"),
    )
    for name in names.split()
)
IMAGE_KEYS = ("mixture.channels", "mixture.height", "mixture.width")


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


def _given(cfg: Config, section: str) -> str:
    """The ``section.*`` keys ``cfg`` gives, as ``key = value``, for an error message."""
    return ", ".join(f"{key} = {value}" for key, value in cfg.resolved().items() if key.startswith(section + "."))


def _check_sizes(sizes: dict) -> None:
    """A ``ConfigError`` naming the keys of ``sizes`` unless each value is
    at least 1 and an array of their product of float64 values, at most
    ``MAX_ARRAY_VALUES``, could be addressed."""
    if min(sizes.values()) < 1 or math.prod(sizes.values()) > MAX_ARRAY_VALUES:
        named = " x ".join(f"{key} = {n}" for key, n in sizes.items())
        raise ConfigError(f"{named}: each must be >= 1 and their product at most 2**44 float64 values (128 TiB)")


def build_blob_spec(cfg: Config, shape: tuple) -> BlobTextureSpec:
    centers = _parse_rows(
        cfg.get_str("mixture.centers", "8:8,8:24,24:8,24:24"), ",", 2, ConfigError, "mixture.centers"
    )
    weights = cfg.get_str("mixture.class_center_weights", None)
    if weights is not None:
        weights = _parse_rows(weights, ";", len(centers), ConfigError, "mixture.class_center_weights")
    return BlobTextureSpec(
        channels=shape[0],
        height=shape[1],
        width=shape[2],
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
    """Returns (mixture, labels) from the mixture.* section; a key that only
    the other mixture kind reads is a ``ConfigError``, and so are image
    sizes ``_check_sizes`` rejects."""
    kind = cfg.get_str("mixture.kind", "blob")
    if kind not in KIND_KEYS:
        raise ConfigError(f"mixture.kind must be blob or single, got {kind!r}")
    for name in KIND_KEYS["single" if kind == "blob" else "blob"].split():
        if cfg.has(f"mixture.{name}"):
            raise ConfigError(f"mixture.{name} given but mixture.kind = {kind}")
    c, h, w = (3, 32, 32) if kind == "blob" else (1, 8, 8)
    shape = (cfg.get_int("mixture.channels", c), cfg.get_int("mixture.height", h), cfg.get_int("mixture.width", w))
    _check_sizes(dict(zip(IMAGE_KEYS, shape)))
    if kind == "blob":
        spec = build_blob_spec(cfg, shape)
        return blob_mixture_from_spec(spec), class_labels(spec)
    mean = np.full((1,) + shape, cfg.get_float("mixture.mean_value", 0.0))
    scale = cfg.get_float("mixture.noise_scale", 1.0)
    return IsotropicGaussianMixture(weights=np.array([1.0]), means=mean, scale=scale), np.array([0])


def build_schedule(cfg: Config) -> NoiseSchedule:
    kind = cfg.get_str("schedule.kind", "karras")
    sigma_max = cfg.get_float("schedule.sigma_max", 10.0)
    if kind == "linear":
        for name in ("sigma_min", "rho"):
            if cfg.has(f"schedule.{name}"):
                raise ConfigError(f"schedule.{name} given but schedule.kind = linear")
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
    if name not in ("pyramid", "haar"):
        raise ConfigError(f"guidance.transform must be pyramid, haar or none, got {name!r}")
    levels = cfg.get_int("guidance.levels", 1)
    try:
        kind = TransformKind(name, levels)
    except UsageError as exc:
        raise ConfigError(f"guidance.levels = {levels}: {exc}") from exc
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
        for name in ("levels", "scales", "w_low", "w_high", "parallel_weights", "interval"):
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
    try:
        return GuidanceConfig(transform=transform, scales=scales, parallel_weights=weights)
    except UsageError as exc:
        raise ConfigError(str(exc)) from exc


def build_pair(cfg: Config, pair: DenoiserPair) -> DenoiserPair:
    """``make_denoiser_pair``'s ``pair``, or with autoguide.* its cond
    against a degraded copy of its mixture (a ``ConfigError`` if ``degrade`` rejects it)."""
    mix = pair.mix
    if not cfg.get_bool("autoguide.enabled", False):
        for name in ("jitter", "jitter_rel", "inflate", "seed"):
            if cfg.has(f"autoguide.{name}"):
                raise ConfigError(f"autoguide.{name} given but autoguide.enabled = false")
        return pair
    has_abs = cfg.has("autoguide.jitter")
    has_rel = cfg.has("autoguide.jitter_rel")
    if has_abs and has_rel:
        raise ConfigError("give either autoguide.jitter or autoguide.jitter_rel, not both")
    if has_rel:
        norms = [np.sqrt(np.sum(c.reshape(len(c), -1) ** 2, axis=1)) for _, c in mix.mean_chunks()]
        mean_norm = float(np.mean(np.concatenate(norms)))
        jitter = cfg.get_float("autoguide.jitter_rel") * mean_norm
    else:
        jitter = cfg.get_float("autoguide.jitter", 0.0)
    inflate, seed = cfg.get_float("autoguide.inflate", 1.5), cfg.get_int("autoguide.seed", 1)
    try:
        degraded = degrade(mix, jitter_scale=jitter, inflate_factor=inflate, seed=seed)
    except UsageError as exc:
        raise ConfigError(f"autoguide.seed: {exc}") from exc
    except DomainError as exc:
        raise ConfigError(f"{_given(cfg, 'autoguide')}: {exc}") from exc
    return DenoiserPair(cond=pair.cond, uncond=lambda z, s: posterior_mean(z, s, degraded))


def _parse_condition(raw: str) -> int | None:
    if raw.lower() in ("null", "none", ""):
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"sample.condition must be an integer or 'null', got {raw!r}") from exc


def build_run(cfg: Config, image_shape, guidance: GuidanceConfig | None) -> SampleRunConfig:
    """The run of the sample.* and schedule.* sections (a ``ConfigError`` for
    values the library rejects), gated to the sigmas of the steps i with
    t_end <= 1 - i/steps <= t_start by ``guidance.interval``, which must open one."""
    batch = cfg.get_int("sample.batch", 8)
    _check_sizes({"sample.batch": batch, **dict(zip(IMAGE_KEYS, image_shape))})
    try:
        run = SampleRunConfig(
            steps=cfg.get_int("sample.steps", 40),
            schedule=build_schedule(cfg),
            seed=cfg.get_int("sample.seed", 0),
            batch=batch,
            shape=tuple(image_shape),
            guidance=guidance,
            condition=_parse_condition(cfg.get_str("sample.condition", "null")),
            sampler=cfg.get_str("sample.sampler", "heun"),
        )
        sigmas = run.schedule.grid(run.steps)
    except UsageError as exc:
        raise ConfigError(str(exc)) from exc
    except DomainError as exc:
        raise ConfigError(f"{_given(cfg, 'schedule')}: {exc}") from exc
    if not cfg.has("guidance.interval"):
        return run
    interval = cfg.get_floats("guidance.interval", sep=":")
    valid = len(interval) == 2 and 0.0 <= interval[1] < interval[0] <= 1.0
    opened = [s for i, s in enumerate(sigmas[:-1]) if valid and interval[1] <= 1.0 - i / run.steps <= interval[0]]
    if not opened:
        raise ConfigError(f"guidance.interval = {cfg.get_str('guidance.interval')} must be t_start:t_end with "
                          f"0 <= t_end < t_start <= 1 and open a step of sample.steps = {run.steps}")
    return dataclasses.replace(run, guidance=dataclasses.replace(guidance, interval=(opened[0], opened[-1])))


def _require_guidance_signal(cfg: Config, run: SampleRunConfig, labels, command: str, consequence: str) -> None:
    """A ``ConfigError`` for a run whose guidance difference is zero: with
    autoguide off, d_c = d_u when the condition is null or its class, by
    ``labels``, holds every component."""
    if not cfg.get_bool("autoguide.enabled", False) and (run.condition is None or (labels == run.condition).all()):
        raise ConfigError(
            f"{command} needs a class in sample.condition that is not the whole mixture: with a null condition "
            f"or a class of every component, and autoguide off, d_c = d_u and {consequence}"
        )


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
    pair = build_pair(cfg, make_denoiser_pair(mix, labels))
    out = sample(pair, run)
    write_tensor(args.out, out)
    write_manifest(args.out + ".manifest.json", "sample", cfg.resolved(), run.seed, [args.out])
    return 0


def cmd_combine(args) -> int:
    with TensorReader(args.cond) as cond, TensorReader(args.uncond) as uncond:
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
            guidance = build_guidance(cfg, cond.dims[1:])
        except ConfigError as exc:
            raise UsageError(str(exc)) from exc
        if cond.dims != uncond.dims:
            raise ShapeError(f"dims mismatch: {cond.dims} vs {uncond.dims}")
        # freqcfg_combine is batch-invariant, so the blocks give the bytes of one whole-batch call
        with tensor_writer(args.out, cond.dims) as append:
            for items in blocks(cond.dims[0], cond.dims[1:]):
                d_c, d_u = cond.read(items.start, items.stop), uncond.read(items.start, items.stop)
                append(Tensor4(freqcfg_combine(d_c.data, d_u.data, guidance), checked=True))
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
    _require_guidance_signal(cfg, run, labels, "analyze-norms", "every guidance norm is zero")
    guided = sum(map(run.guidance.active_at, run.schedule.grid(run.steps)[:-1]))
    if guided < 2:
        raise ConfigError(
            f"analyze-norms needs at least 2 guided steps; guidance.interval = "
            f"{cfg.get_str('guidance.interval', 'none')} opens the gate on {guided} of sample.steps = {run.steps}"
        )
    pair = build_pair(cfg, make_denoiser_pair(mix, labels))
    recorder = NormRecorder()
    sample(pair, run, recorder=recorder)
    crossover = crossover_step(recorder.records)
    rows = [(r.step, 1.0 - r.step / run.steps, r.sigma, r.low_norm, r.high_norm) for r in recorder.records]
    write_csv(args.out, ["step", "t", "sigma", "low_norm", "high_norm"], rows)
    print(f"crossover_step={crossover}")
    extra = {"crossover_step": crossover}
    write_manifest(args.out + ".manifest.json", "analyze-norms", cfg.resolved(), run.seed, [args.out], extra=extra)
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
    samples = cfg.get_int("sweep.samples", 500)
    _check_sizes({"sweep.samples": samples, **dict(zip(IMAGE_KEYS, mix.image_shape))})
    run = dataclasses.replace(run, batch=samples)
    _require_guidance_signal(cfg, run, labels, "sweep", "every grid point gives the same row")
    mixture_pair = make_denoiser_pair(mix, labels)
    pair = build_pair(cfg, mixture_pair)
    target = mix if run.condition is None else mixture_pair.class_mixture(run.condition)
    tau = cfg.get_float("sweep.tau", None)
    if tau is None:
        tau = default_tau(mix)
    elif not 0 < tau < np.inf:
        raise ConfigError(f"sweep.tau must be a positive finite number, got {tau}")
    points = _parse_rows(args.grid, ",", 2, UsageError, "--grid")

    def run_point(point):
        w_low, w_high = point
        guidance = dataclasses.replace(run.guidance, scales=(w_high, w_low))
        out = sample(pair, dataclasses.replace(run, guidance=guidance))
        report = mode_report(out, target, tau)
        low_frac, high_frac = band_energy_fraction(out, base.transform)
        return w_low, w_high, report.recall, report.precision, saturation_proxy(out, target), low_frac, high_frac

    columns = ["w_low", "w_high", "recall", "precision", "saturation", "low_energy", "high_energy"]
    write_csv(args.out, columns, [run_point(point) for point in points])
    extra = {"grid": [[p[0], p[1]] for p in points]}
    write_manifest(args.out + ".manifest.json", "sweep", cfg.resolved(), run.seed, [args.out], extra=extra)
    return 0


def cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    if cfg.get_str("mixture.kind", "blob") != "blob":
        raise ConfigError("gen-data needs mixture.kind = blob")
    mix, labels = build_model(cfg)
    channels, height, width = mix.image_shape
    os.makedirs(args.out, exist_ok=True)
    outputs = []
    lines = []
    means = (mean for _, chunk in mix.mean_chunks() for mean in chunk)
    for idx, mean in enumerate(means):
        name = f"mean_{idx:03d}.fqg"
        path = os.path.join(args.out, name)
        write_tensor(path, Tensor4(mean[None]))
        outputs.append(path)
        lines.append(f"component.{idx}.weight = {format(float(mix.weights[idx]), '.17g')}")
        lines.append(f"component.{idx}.scale = {format(mix.scale, '.17g')}")
        lines.append(f"component.{idx}.class = {int(labels[idx])}")
        lines.append(f"component.{idx}.mean_file = {name}")
    spec_path = os.path.join(args.out, "mixture.txt")
    header = [
        f"mixture.components = {mix.n_components}",
        f"mixture.channels = {channels}",
        f"mixture.height = {height}",
        f"mixture.width = {width}",
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

    def add_config_args(p, overrides=("steps", "seed", "batch", "sampler")):
        """--config, --set and the ``sample.*`` override flags the command reads."""
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
        for name in overrides:
            kwargs = {"choices": ["euler", "heun"]} if name == "sampler" else {"type": int}
            p.add_argument(f"--{name}", help=f"override sample.{name}", **kwargs)

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
    add_config_args(p, ("steps", "seed", "sampler"))
    p.add_argument("--grid", required=True, help="comma list of w_low:w_high points")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen-data", help="write mixture definition and mean images")
    add_config_args(p, ())
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
