"""The determinism contract that README's "Determinism" section states.

Thread counts are fixed when a process starts, so the rerun checks run the
command line in fresh processes.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import acceptance_spec

from freqguide import GuidanceConfig, TransformKind, freqcfg_combine

# the acceptance blob model (tests/conftest.py::acceptance_spec)
ACCEPTANCE = """
mixture.kind = blob
mixture.centers = 8:8,8:24,24:8,24:24
mixture.texture_amplitude = 2e-4
mixture.noise_scale = 0.01
mixture.class_center_weights = 0.45:0.3:0.05:0.2;0.2:0.05:0.3:0.45
mixture.blob_block = 2
schedule.sigma_max = 80
sample.condition = 0
guidance.transform = pyramid
guidance.scales = 3,1.5
"""

# 16 x 16 centers and 4 classes: 1024 components, large enough for
# multithreaded BLAS products
MANY_MODES = """
mixture.kind = blob
mixture.centers = {centers}
mixture.classes = 4
mixture.texture_amplitude = 2e-4
mixture.noise_scale = 0.01
schedule.sigma_max = 80
sample.condition = 1
guidance.transform = haar
guidance.scales = 3,1.5
""".format(centers=",".join(f"{r + 0.5}:{c + 0.5}" for r in range(0, 32, 2) for c in range(0, 32, 2)))

HAAR_GUIDANCE = "guidance.transform = haar\nguidance.scales = 3,1.5\n"
BATCH_INVARIANT = {
    "acceptance": ACCEPTANCE,
    "acceptance_autoguided": ACCEPTANCE + "autoguide.enabled = true\n",  # the band path
    "many_modes_haar": MANY_MODES,
    "many_modes_pyramid2_unit_weights": MANY_MODES.replace(
        HAAR_GUIDANCE, "guidance.transform = pyramid\nguidance.levels = 2\nguidance.scales = 3,2,1.5\n"
    ),
}
assert HAAR_GUIDANCE in MANY_MODES


def run_cli(tmp_path, name, env_var, value, argv):
    """Outputs of ``freqguide argv --out <file>`` run with ``env_var=value``."""
    out = tmp_path / f"{name}-{value}"
    env = dict(os.environ, **{env_var: value})
    proc = subprocess.run(
        [sys.executable, "-m", "freqguide", *argv, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    manifest = out.with_name(out.name + ".manifest.json").read_text().replace(out.name, "OUT")
    return out.read_bytes(), manifest


# 4: GitHub's hosted runners have 4 vCPUs, and OpenBLAS may split a product's
# updates differently there
THREADS = ("1", "2", "4")
SAMPLE_RUNS = {
    "acceptance": (ACCEPTANCE, ("--steps", "10", "--batch", "16", "--sampler", "euler")),
    # the 32-row pyramid(3) union: the widest QR of a span's frame, (3072, 32)
    "acceptance_pyramid3": (
        ACCEPTANCE.replace("guidance.scales = 3,1.5\n", "guidance.levels = 3\nguidance.scales = 3,2,1.5,1\n"),
        ("--steps", "10", "--batch", "25", "--sampler", "euler"),
    ),
    # 3 blocks of items (29, 28, 28) on the dense path
    "acceptance_blocks": (ACCEPTANCE, ("--steps", "6", "--batch", "85", "--sampler", "heun")),
    "many_modes": (MANY_MODES, ("--steps", "6", "--batch", "32", "--sampler", "heun")),
}


@pytest.mark.parametrize("name", sorted(SAMPLE_RUNS))
def test_sample_rerun_identical_across_blas_threads(tmp_path, name):
    config, flags = SAMPLE_RUNS[name]
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(config)
    argv = ("sample", "--config", str(cfg), "--seed", "5", *flags)
    one, *others = (run_cli(tmp_path, name, "OPENBLAS_NUM_THREADS", n, argv) for n in THREADS)
    assert all(other == one for other in others)


@pytest.mark.parametrize("model", sorted(BATCH_INVARIANT))
@pytest.mark.parametrize("threads", ["1", "2"])
def test_sample_is_batch_invariant(tmp_path, threads, model):
    """Every product of the denoisers, of the span and of the band path is
    per item, so on the dense acceptance model (in the span, and
    autoguided on the band path) and on the factored many-mode model items
    0-2 have the same bytes in a batch of 3 and in a batch of 64."""
    cfg = tmp_path / "model.cfg"
    cfg.write_text(BATCH_INVARIANT[model])
    outs = []
    for batch in ("3", "64"):
        argv = ("sample", "--config", str(cfg), "--seed", "5", "--steps", "6", "--batch", batch)
        outs.append(run_cli(tmp_path, f"batch{batch}", "OPENBLAS_NUM_THREADS", threads, argv)[0])
    header, item = 22, 3 * 32 * 32 * 8  # FQG1: the header, then the items in order
    assert outs[1][header : header + 3 * item] == outs[0][header:]


def test_sweep_rerun_identical_across_blas_threads(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(ACCEPTANCE.replace("guidance.scales = 3,1.5\n", "sweep.samples = 12\n"))
    argv = ("sweep", "--config", str(cfg), "--steps", "8", "--grid", "1:1,1:3,3:3")
    one, *others = (run_cli(tmp_path, "sweep", "OPENBLAS_NUM_THREADS", n, argv) for n in THREADS)
    assert all(other == one for other in others)


# 100 items of 3 x 32 x 32: three image blocks, one block of states in the span
SPAN_WALK = """
import hashlib, sys
from freqguide import *
from freqguide.span import Span
spec = {spec!r}
pair = make_denoiser_pair(blob_mixture_from_spec(spec), class_labels(spec))
cfg = GuidanceConfig(transform=TransformKind.pyramid(3), scales=(3.0, 2.0, 1.5, 1.0), interval=(0.8, 0.3))
run = SampleRunConfig(steps=8, schedule=NoiseSchedule.karras(0.02, 80.0), seed=5, batch=100, shape=spec.image_shape,
                      guidance=cfg, condition=0, sampler="heun")
walked = sample(pair, run).data.tobytes()
Span.item_values = 3 * 32 * 32  # the span walked one image block at a time
print(hashlib.sha256(walked).hexdigest(), walked == sample(pair, run).data.tobytes())
"""


def test_span_walk_is_the_walk_of_its_image_blocks():
    """A batch walked once in the span has the bytes of its image blocks
    walked one after another, at 1, 2 and 4 BLAS threads alike."""
    script = SPAN_WALK.format(spec=acceptance_spec())
    outs = []
    for threads in THREADS:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(filter(None, sys.path)))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout.split())
    assert all(out == outs[0] for out in outs) and outs[0][1] == "True"


@pytest.mark.parametrize(
    "kind, weights",
    [
        (TransformKind.pyramid(2), None),  # unit weights
        (TransformKind.pyramid(2), (0.5, 1.0, 1.5)),  # parallel terms p_0, p_2
        (TransformKind.haar(), None),
        (TransformKind.haar(), (0.5, 1.5)),
    ],
)
def test_combine_is_batch_invariant(kind, weights):
    gen = np.random.default_rng(3)
    d_c, d_u = (gen.uniform(-2, 2, (64, 3, 32, 32)) for _ in range(2))
    scales = (3.0, 1.5, 0.5)[-kind.band_count :]
    cfg = GuidanceConfig(transform=kind, scales=scales, parallel_weights=weights)
    whole = freqcfg_combine(d_c, d_u, cfg)
    for chunk in (1, 7):
        for start in range(0, 64, chunk):
            part = slice(start, start + chunk)
            got = freqcfg_combine(d_c[part], d_u[part], cfg)
            assert got.tobytes() == whole[part].tobytes()
