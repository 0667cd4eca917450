import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from freqguide import (
    BlobTextureSpec,
    DenoiserPair,
    NoiseSchedule,
    SampleRunConfig,
    blob_mixture_from_spec,
    class_labels,
    guidance,
    make_denoiser_pair,
    sample,
)
from freqguide import tensor
from freqguide.span import Span, span_of


def acceptance_spec() -> BlobTextureSpec:
    """Blob-texture model used by the trend checks.

    Class-conditional center weights skew each class toward different blob
    positions (the class carries global-structure information), while the
    per-class grating orientation carries the high-frequency identity.  The
    block-constant blobs and Nyquist gratings split exactly between the Haar
    ll and detail bands.  Alternating per-center grating phases make the
    early, position-ambiguous texture guidance nearly cancel so the
    high-band guidance norm grows as positions resolve.
    """
    return BlobTextureSpec(
        height=32,
        width=32,
        channels=3,
        centers=((8.0, 8.0), (8.0, 24.0), (24.0, 8.0), (24.0, 24.0)),
        blob_radius=8.0,
        blob_amplitude=1.0,
        texture_freq=0.5,
        texture_amplitude=2e-4,
        n_classes=2,
        noise_scale=0.01,
        class_center_weights=((0.45, 0.3, 0.05, 0.2), (0.2, 0.05, 0.3, 0.45)),
        blob_block=2,
    )


ACCEPTANCE_SCHEDULE = NoiseSchedule.karras(sigma_min=0.02, sigma_max=80.0, rho=7.0)
# a guidance window (sigma_hi, sigma_lo) that leaves the first and last steps
# of an ACCEPTANCE_SCHEDULE run of 3 to 12 steps unguided
SIGMA_WINDOW = (20.0, 0.5)


def assert_partly_gated(run: SampleRunConfig) -> None:
    """``run``'s guidance window opens some of its steps but not all, each
    read at its start sigma_i, so a gated case stays gated."""
    gates = [run.guidance.active_at(s) for s in run.schedule.grid(run.steps)[:-1]]
    assert any(gates) and not all(gates), gates


@pytest.fixture(scope="session")
def blob_model():
    spec = acceptance_spec()
    mix = blob_mixture_from_spec(spec)
    labels = class_labels(spec)
    pair = make_denoiser_pair(mix, labels)
    return spec, mix, labels, pair


def spearman(series: np.ndarray) -> float:
    """Rank correlation of a series against its index."""
    order = np.argsort(series, kind="stable")
    ranks = np.empty(len(series))
    ranks[order] = np.arange(len(series))
    idx = np.arange(len(series))
    rc = np.corrcoef(ranks, idx)[0, 1]
    return float(rc)


def smoothed(series: np.ndarray, window: int = 5) -> np.ndarray:
    return np.convolve(series, np.ones(window) / window, mode="valid")


def fqg1_bytes(values, code=0, ndim=4, magic=b"FQG1") -> bytes:
    """README's FQG1 layout: magic, dtype code, ndim, four uint32 dims, then
    the payload.  Unlike ``write_tensor``, it takes non-finite values and
    writes malformed headers."""
    dtype = "<f8" if code == 0 else "<f4"
    return struct.pack("<4sBB4I", magic, code, ndim, *values.shape) + values.astype(dtype).tobytes()


def per_block(item_shape) -> int:
    """Items of ``item_shape`` in a full ``tensor.blocks`` block."""
    return tensor.BLOCK_VALUES // math.prod(item_shape)


def three_blocks(item_shape) -> int:
    """The fewest items of ``item_shape`` that ``tensor.blocks`` splits into
    three blocks of unequal sizes, the larger first."""
    batch = 2 * per_block(item_shape) + 1
    return batch + (batch % 3 == 0)


def spy_combine_batches(monkeypatch) -> list:
    """The batch size of each later ``freqcfg_combine`` call by the band
    path, in call order."""
    batches = []
    real = guidance.freqcfg_combine

    def spy(d_c, d_u, cfg):
        batches.append(len(d_c))
        return real(d_c, d_u, cfg)

    monkeypatch.setattr(guidance, "freqcfg_combine", spy)
    return batches


def all_means(mix) -> np.ndarray:
    """All (K, C, H, W) means of any mixture, from ``mix.mean_chunks()``:
    only a mixture given its means has ``means``."""
    return np.concatenate([chunk for _, chunk in mix.mean_chunks()])


def assert_endpoints_match_the_band_path(
    monkeypatch, pair, spec, cfg, sampler, conditions=(0, 1), steps=12, batch=6
):
    """``sample`` runs of ``pair`` under ``cfg`` (None: unguided), for each
    of ``conditions``, gated by ``SIGMA_WINDOW`` and not, step in the
    span of the pair's predictions, and each endpoint is within 1e-12 of
    the image-space loop of a pair of its two callables (the band path),
    relative to that endpoint's largest value.  Fewer steps would not do:
    6 Heun steps of the many-mode model meet near-tied neighbours at
    σ ≈ 0.1 with so coarse a step that last-bit differences grow to 6e-12,
    where 12 steps keep them within 2e-14."""
    assert span_of(pair, cfg, spec.image_shape) is not None
    blocks = []
    reconstruct = Span.reconstruct

    def spy(span, u, noise):
        blocks.append(len(noise))
        return reconstruct(span, u, noise)

    monkeypatch.setattr(Span, "reconstruct", spy)
    band = DenoiserPair(cond=pair.cond, uncond=pair.uncond)
    for condition in conditions:
        for interval in (None,) if cfg is None else (None, SIGMA_WINDOW):
            run = SampleRunConfig(
                steps=steps, schedule=ACCEPTANCE_SCHEDULE, seed=4, batch=batch, shape=spec.image_shape,
                guidance=cfg and replace(cfg, interval=interval), condition=condition, sampler=sampler,
            )
            if interval:
                assert_partly_gated(run)
            del blocks[:]
            got = sample(pair, run).data
            assert sum(blocks) == batch  # every block ended in the span
            want = sample(band, run).data
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
