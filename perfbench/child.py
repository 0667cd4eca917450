"""One workload run in a fresh process: ``python child.py JOB.json``.

The job file says whether to call the library (``sample()``) or the command
line (``python -m freqguide`` via runpy), where to put the output, and
whether to trace.  The child writes a small report: the CLOCK_MONOTONIC
instant at which the first sampler or combine call could begin (the end of
set-up), and, when traced, the span sidecar.
"""

from __future__ import annotations

import dataclasses
import json
import runpy
import sys

from tracing import Recorder, clock, install


def run_library(params: dict, marks: dict):
    import numpy as np

    from freqguide import analytic, diffusion, frequency, guidance

    spec_args = params["spec"]
    spec = analytic.BlobTextureSpec(
        height=spec_args["height"],
        width=spec_args["width"],
        channels=spec_args["channels"],
        centers=tuple(tuple(c) for c in spec_args["centers"]),
        blob_radius=spec_args["blob_radius"],
        blob_amplitude=spec_args["blob_amplitude"],
        texture_freq=spec_args["texture_freq"],
        texture_amplitude=spec_args["texture_amplitude"],
        n_classes=spec_args["classes"],
        noise_scale=spec_args["noise_scale"],
        class_center_weights=None
        if spec_args["class_center_weights"] is None
        else tuple(tuple(row) for row in spec_args["class_center_weights"]),
        blob_block=spec_args["blob_block"],
    )
    mix = analytic.blob_mixture_from_spec(spec)
    pair = analytic.make_denoiser_pair(mix, analytic.class_labels(spec))
    if params["transform"] == "haar":
        transform = frequency.TransformKind.haar()
    else:
        transform = frequency.TransformKind.pyramid(params["levels"])
    run = diffusion.SampleRunConfig(
        steps=params["steps"],
        schedule=diffusion.NoiseSchedule.karras(
            sigma_min=params["sigma_min"], sigma_max=params["sigma_max"], rho=params["rho"]
        ),
        seed=params["seeds"][0],
        batch=params["batch"],
        shape=spec.image_shape,
        guidance=guidance.GuidanceConfig(
            transform=transform,
            scales=tuple(params["scales"]),
            parallel_weights=tuple(params["weights"]),
            interval=None,
        ),
        condition=params["condition"],
        sampler=params["sampler"],
    )
    marks["ready"] = clock()
    outs = [diffusion.sample(pair, dataclasses.replace(run, seed=seed)).data for seed in params["seeds"]]
    np.save(params["out"], np.concatenate(outs))
    return 0


def run_cli(argv: list[str], ready_at: str, marks: dict):
    from freqguide import cli

    original = getattr(cli, ready_at)

    def first_call(*args, **kwargs):
        marks.setdefault("ready", clock())
        return original(*args, **kwargs)

    setattr(cli, ready_at, first_call)
    sys.argv = ["freqguide"] + argv
    try:
        runpy.run_module("freqguide", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def peak_rss_kb() -> int | None:
    """High-water RSS of this process image.  getrusage's ru_maxrss would also
    count the parent's pages, which a vfork-spawned child holds until exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    recorder = None
    if job["spans"] is not None:
        recorder = Recorder()
        install(recorder)
    marks: dict = {}
    code = 1
    try:
        if job["mode"] == "lib":
            code = run_library(job["params"], marks)
        else:
            code = run_cli(job["argv"], job["ready_at"], marks)
    finally:
        if recorder is not None:
            recorder.write(job["spans"])
        with open(job["report"], "w", encoding="utf-8") as fh:
            json.dump({"ready": marks.get("ready"), "exit": code, "peak_rss_kb": peak_rss_kb()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
