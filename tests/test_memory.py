"""Memory: freed blocks stay in the heap, and a guided step holds a bounded
number of image-sized arrays.  Every intermediate is a new array, so a
result of a public call is never overwritten by a later call."""

import ctypes
import hashlib
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import ACCEPTANCE_SCHEDULE, acceptance_spec, per_block, three_blocks

from freqguide import (
    GuidanceConfig,
    SampleRunConfig,
    Tensor4,
    TransformKind,
    blob_mixture_from_spec,
    class_labels,
    freqcfg_combine,
    make_denoiser_pair,
    posterior_mean,
    sample,
    saturation_proxy,
)
from freqguide import tensor
from freqguide.tensor import BLOCK_VALUES, blocks

rng = np.random.default_rng(11)

COMBINE_CONFIGS = {
    "unit-pyramid3": GuidanceConfig(transform=TransformKind.pyramid(3), scales=(3.0, 2.0, 1.5, 1.0)),
    "weighted-pyramid2": GuidanceConfig(
        transform=TransformKind.pyramid(2), scales=(3.0, 2.0, 1.5), parallel_weights=(0.5, 0.5, 1.0)
    ),
    "weighted-haar": GuidanceConfig(
        transform=TransformKind.haar(), scales=(4.0, 0.5), parallel_weights=(0.25, 1.5)
    ),
}


def rand(dims):
    return rng.uniform(-2.0, 2.0, dims)


def factored_model():
    """A small blob mixture on separable factors: 16 centers, 4 classes."""
    spec = replace(
        acceptance_spec(),
        centers=tuple((r, c) for r in (4.0, 12.0, 20.0, 28.0) for c in (4.0, 12.0, 20.0, 28.0)),
        n_classes=4,
        class_center_weights=None,
    )
    mix = blob_mixture_from_spec(spec)
    assert mix.table is None
    return mix, make_denoiser_pair(mix, class_labels(spec))


def dense_model():
    spec = acceptance_spec()
    mix = blob_mixture_from_spec(spec)
    assert mix.table is not None
    return mix, make_denoiser_pair(mix, class_labels(spec))


def traced_peak(call) -> int:
    """The peak of traced memory, in bytes, while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not has_mallopt(), reason="the C library has no mallopt")
# a block's temporaries, and an array of four blocks, as a run's output
@pytest.mark.parametrize("values", [BLOCK_VALUES, 4 * BLOCK_VALUES], ids=["block", "four-blocks"])
def test_freed_blocks_stay_in_the_heap(values):
    # a fresh interpreter, so no earlier test has moved glibc's thresholds;
    # without the allocator policy this read 2272 and 4585 (glibc 2.36,
    # 2-vCPU Xeon)
    script = f"""
import resource
import numpy as np
import freqguide

def rounds(n):
    for _ in range(n):
        arrays = [np.empty({values}) for _ in range(8)]
        for arr in arrays:
            arr.fill(1.0)
        del arrays

rounds(2)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
rounds(50)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, check=True)
    assert int(done.stdout) <= 300


class NoMallopt:
    """A C library without glibc's ``mallopt``."""


def no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [lambda name: NoMallopt(), no_c_library], ids=["no-mallopt", "no-c-library"])
def test_policy_does_nothing_without_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(tensor.ctypes, "CDLL", cdll)
    assert tensor._keep_freed_blocks() is None


class TestCombine:
    @pytest.mark.parametrize("cfg", COMBINE_CONFIGS.values(), ids=COMBINE_CONFIGS)
    def test_blocks_match_the_whole_call(self, cfg):
        # combine's three blocks of 3 x 32 x 32 items, the larger first
        batch = three_blocks((3, 32, 32))
        d_c, d_u = rand((batch, 3, 32, 32)), rand((batch, 3, 32, 32))
        whole = freqcfg_combine(d_c, d_u, cfg)
        for items in blocks(batch, (3, 32, 32)):
            part = slice(items.start, items.stop)
            chunk = freqcfg_combine(d_c[part], d_u[part], cfg)
            assert chunk.tobytes() == whole[part].tobytes()

    @pytest.mark.parametrize("cfg", COMBINE_CONFIGS.values(), ids=COMBINE_CONFIGS)
    def test_public_result_keeps_its_bytes(self, cfg):
        d_c, d_u = rand((2, 3, 32, 32)), rand((2, 3, 32, 32))
        first = freqcfg_combine(d_c, d_u, cfg)
        kept = first.tobytes()
        for _ in range(2):
            freqcfg_combine(rand((2, 3, 32, 32)), rand((2, 3, 32, 32)), cfg)
        assert first.tobytes() == kept

    @pytest.mark.parametrize("name", ["weighted-pyramid2", "weighted-haar"])
    def test_weighted_combine_peaks_below_five_image_sized_arrays(self, name):
        # Δ, then the guided output; band 0 of d_c, then its parallel term;
        # band 0 of Δ, then the correction; the down-steps and left products
        # (4.57 and 4.21 arrays)
        dims = (4, 3, 32, 32)
        d_c, d_u = rand(dims), rand(dims)
        peak = traced_peak(lambda: freqcfg_combine(d_c, d_u, COMBINE_CONFIGS[name]))
        assert peak < 5 * np.prod(dims) * 8


class TestPosterior:
    @pytest.mark.parametrize("model", [dense_model, factored_model], ids=["dense", "factored"])
    def test_public_result_keeps_its_bytes(self, model):
        mix, pair = model()
        z = rand((3,) + mix.image_shape)
        first = [pair.cond(z, 0.5, 0), pair.uncond(z, 0.5)]
        kept = [t.tobytes() for t in first]
        for _ in range(2):
            z = rand((3,) + mix.image_shape)
            pair.cond(z, 0.5, 0)
            pair.uncond(z, 0.5)
        assert [t.tobytes() for t in first] == kept


class TestSample:
    CASES = {
        # in the span: the output, which the noise is drawn in, and the image
        # of the noise's span coordinates that the projection takes off it
        # (2.03 arrays)
        "component-dense": (
            dense_model, GuidanceConfig(transform=TransformKind.pyramid(2), scales=(3.0, 2.0, 1.5)), 3
        ),
        # in image space a guided Heun step holds the state, its drift and the
        # Euler state while the corrector evaluates, plus that evaluation's
        # own arrays: both denoiser outputs, then the weighted combine (9.32)
        "band-path-weighted": (dense_model, COMBINE_CONFIGS["weighted-pyramid2"], 10),
        # in the span, with the coordinates' image one plane for every
        # channel, then its scaled copy (1.72 arrays)
        "component-factored": (
            factored_model, GuidanceConfig(transform=TransformKind.haar(), scales=(3.0, 1.5)), 2.5
        ),
    }

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES)
    def test_heun_block_peak_in_image_sized_arrays(self, case):
        model, guidance, arrays = case
        mix, pair = model()
        run = SampleRunConfig(
            steps=3, schedule=ACCEPTANCE_SCHEDULE, seed=4, batch=per_block(mix.image_shape), shape=mix.image_shape,
            guidance=guidance, condition=1, sampler="heun",
        )
        assert len(blocks(run.batch, run.shape)) == 1
        sample(pair, run)  # builds the pair's cached basis outside the trace
        peak = traced_peak(lambda: sample(pair, run))
        assert peak < arrays * run.batch * mix.dim * 8

    def test_span_batch_of_three_blocks_peaks_below_one_and_a_half_outputs(self):
        """Three image blocks drawn and made in the output, one walk of their
        states: 1.37 outputs (1.45 MB for 43 items at 2**16) where each
        block's own noise and its copy into the output peaked at 1.69."""
        mix, pair = dense_model()
        run = SampleRunConfig(
            steps=6, schedule=ACCEPTANCE_SCHEDULE, seed=4, batch=three_blocks(mix.image_shape), shape=mix.image_shape,
            guidance=GuidanceConfig(transform=TransformKind.pyramid(3), scales=(3.0, 2.0, 1.5, 1.0)),
            condition=1, sampler="heun",
        )
        assert len(blocks(run.batch, run.shape)) == 3
        sample(pair, run)  # builds the pair's span outside the trace
        peak = traced_peak(lambda: sample(pair, run))
        assert peak < 1.45 * run.batch * mix.dim * 8

    def test_public_result_keeps_its_bytes(self):
        mix, pair = dense_model()
        run = SampleRunConfig(
            steps=4, schedule=ACCEPTANCE_SCHEDULE, seed=1, batch=2, shape=mix.image_shape,
            guidance=COMBINE_CONFIGS["unit-pyramid3"], condition=0, sampler="euler",
        )
        first = sample(pair, run)
        kept = first.data.tobytes()
        sample(pair, replace(run, seed=2))
        assert first.data.tobytes() == kept


def test_saturation_proxy_peaks_below_three_quarters_of_its_input():
    """One channel at a time: 0.67 of the 500-item batch, where a transposed
    copy of the batch peaked at 2.00 (23.4 MiB)."""
    mix = blob_mixture_from_spec(acceptance_spec())
    samples = Tensor4(rng.normal(size=(500,) + mix.image_shape))
    peak = traced_peak(lambda: saturation_proxy(samples, mix))
    assert peak < 0.75 * samples.data.nbytes, f"{peak / samples.data.nbytes:.2f} outputs"


def posterior_bytes(model) -> bytes:
    """The posterior mean under a class subset and under the whole mixture
    at three noise levels."""
    mix, pair = model()
    subset = pair.class_mixture(1)
    noise = np.random.default_rng(5)
    out = b""
    for sigma in (3.0, 0.3, 0.05):
        z = noise.uniform(-2.0, 2.0, (5,) + mix.image_shape)
        out += posterior_mean(z, sigma, subset).tobytes() + posterior_mean(z, sigma, mix).tobytes()
    return out


SAMPLE_CASES = {
    "euler-pyramid3-dense": (
        dense_model,
        GuidanceConfig(transform=TransformKind.pyramid(3), scales=(3.0, 2.0, 1.5, 1.0), interval=(20.0, 0.5)),
        "euler",
    ),
    # three image blocks drawn, projected and made in place in one output,
    # walked as one block in the span
    "heun-pyramid1-dense-three-blocks": (
        dense_model,
        GuidanceConfig(transform=TransformKind.pyramid(1), scales=(3.0, 1.5), interval=(10.0, 1.0)),
        "heun",
        three_blocks((3, 32, 32)),
    ),
    "heun-pyramid2-weighted-dense": (
        dense_model,
        GuidanceConfig(
            transform=TransformKind.pyramid(2), scales=(3.0, 2.0, 1.5),
            parallel_weights=(0.5, 0.5, 1.0), interval=(30.0, 0.3),
        ),
        "heun",
    ),
    "heun-haar-factored": (
        factored_model,
        GuidanceConfig(transform=TransformKind.haar(), scales=(3.0, 1.5), interval=(10.0, 1.0)),
        "heun",
    ),
}


def gated_run(name) -> SampleRunConfig:
    model, guidance, sampler, *batch = SAMPLE_CASES[name]
    mix, _ = model()
    return SampleRunConfig(
        steps=10, schedule=ACCEPTANCE_SCHEDULE, seed=4, batch=batch[0] if batch else 3, shape=mix.image_shape,
        guidance=guidance, condition=1, sampler=sampler,
    )


def sample_bytes(name) -> bytes:
    _, pair = SAMPLE_CASES[name][0]()
    return sample(pair, gated_run(name)).data.tobytes()


PERTURBED = {
    "posterior-dense": lambda: posterior_bytes(dense_model),
    "posterior-factored": lambda: posterior_bytes(factored_model),
    **{f"sample-{name}": (lambda name=name: sample_bytes(name)) for name in SAMPLE_CASES},
}


@pytest.fixture(scope="module")
def perturbed_digests() -> dict:
    """The SHA-256 of each ``PERTURBED`` case, computed in a fresh
    interpreter whose glibc fills every allocation with a byte pattern other
    than this process's, so an np.empty array read before it is written
    gives other bytes there than here.  numpy serves arrays under 1 KiB from
    its own cache, which the pattern does not reach."""
    script = (
        "import hashlib, test_memory\n"
        "for name, case in test_memory.PERTURBED.items():\n"
        "    print(name, hashlib.sha256(case()).hexdigest())\n"
    )
    byte = "90" if os.environ.get("MALLOC_PERTURB_") == "165" else "165"
    env = dict(os.environ, MALLOC_PERTURB_=byte, PYTHONPATH=os.pathsep.join(filter(None, sys.path)))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return dict(line.split() for line in done.stdout.splitlines())


@pytest.mark.skipif(not has_mallopt(), reason="MALLOC_PERTURB_ is glibc's")
@pytest.mark.parametrize("name", PERTURBED)
def test_perturbed_heap_gives_the_same_bytes(perturbed_digests, name):
    if name.startswith("sample-"):
        # the gate opens and closes again: shut, open, shut over the steps
        run = gated_run(name.removeprefix("sample-"))
        gates = [run.guidance.active_at(s) for s in run.schedule.grid(run.steps)[:-1]]
        assert not gates[0] and any(gates) and not gates[-1]
    assert hashlib.sha256(PERTURBED[name]()).hexdigest() == perturbed_digests[name]
