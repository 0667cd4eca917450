"""Reference implementation the benchmark checks the program's outputs against.

It shares no code with ``freqguide``: the band transforms are written as
per-axis matrices (X -> A_h X A_w^T) instead of padded 5-tap loops, so a
change to the program's transform code cannot hide behind the same bug
here.  What it must agree with are the program's documented conventions:

- posterior mean of an isotropic Gaussian mixture under z = x + sigma * eps;
- Laplacian pyramid with the Burt-Adelson binomial kernel and reflect
  boundaries (border pixel not repeated), down = blur then keep even
  rows/cols, up = zero-stuff, blur with gain 2 per axis, crop;
- single-level orthonormal Haar with the three detail bands stacked on
  channels;
- per-band CFG: band_c + (s - 1) * (w * parallel + orthogonal), where the
  band difference is split against the conditional band per batch item;
- euler / heun probability-flow ODE on the karras grid, heun without a
  corrector on the final step to sigma = 0;
- initial noise sigma_max * eps with one Philox stream keyed by
  (seed << 64) + item per batch item;
- FQG1 files: "<4sBB4I" header (magic, dtype code, ndim, dims), then
  little-endian row-major float64.
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache

import numpy as np

FQG1_HEADER = struct.Struct("<4sBB4I")
_BINOMIAL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


# ---------------------------------------------------------------------------
# models


def blob_texture_means(spec: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(weights (K,), means (K, C, H, W), class label (K,)) of a blob+texture
    mixture; component order is center-major, class-minor."""
    c, h, w = spec["channels"], spec["height"], spec["width"]
    block = spec["blob_block"]
    n_classes = spec["classes"]
    centers = spec["centers"]
    ccw = spec.get("class_center_weights")
    yy = block * (np.arange(h // block)[:, None] + 0.5) - 0.5
    xx = block * (np.arange(w // block)[None, :] + 0.5) - 0.5
    means, weights, labels = [], [], []
    for j, (cy, cx) in enumerate(centers):
        bump = spec["blob_amplitude"] * np.exp(
            -((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * spec["blob_radius"] ** 2)
        )
        blob = np.repeat(np.repeat(bump, block, axis=0), block, axis=1)
        for k in range(n_classes):
            axis_len = w if k % 2 == 0 else h
            wave = spec["texture_amplitude"] * np.cos(
                2.0 * math.pi * spec["texture_freq"] * np.arange(axis_len) + math.pi * (j % 2)
            )
            texture = wave[None, :] if k % 2 == 0 else wave[:, None]
            means.append(np.broadcast_to(blob + texture, (c, h, w)))
            center_weight = 1.0 / len(centers) if ccw is None else ccw[k][j]
            weights.append(center_weight / n_classes)
            labels.append(k)
    weights = np.array(weights)
    return weights / weights.sum(), np.stack(means).astype(np.float64), np.array(labels)


def _sq_dist(a: np.ndarray, b: np.ndarray, b_sq: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a (B, D) and b (K, D),
    given b_sq, the squared norms of b's rows."""
    return (a**2).sum(axis=1)[:, None] - 2.0 * a @ b.T + b_sq[None, :]


class Mixture:
    """Isotropic mixture with flattened means, all components at one scale."""

    def __init__(self, weights, means, scale: float):
        self.weights = np.asarray(weights, dtype=np.float64) / np.sum(weights)
        self.image_shape = means.shape[1:]
        self.flat = means.reshape(means.shape[0], -1)
        self.sq_norms = (self.flat**2).sum(axis=1)
        self.scale = float(scale)

    def subset(self, mask) -> "Mixture":
        means = self.flat[mask].reshape((-1,) + tuple(self.image_shape))
        return Mixture(self.weights[mask], means, self.scale)

    def posterior_mean(self, zf: np.ndarray, sigma: float) -> np.ndarray:
        """E[x | z] for flattened z (B, D)."""
        var = self.scale**2 + sigma**2
        d = self.flat.shape[1]
        sq = _sq_dist(zf, self.flat, self.sq_norms)
        logits = np.log(self.weights)[None, :] - 0.5 * (d * math.log(2.0 * math.pi * var) + sq / var)
        logits -= logits.max(axis=1, keepdims=True)
        resp = np.exp(logits)
        resp /= resp.sum(axis=1, keepdims=True)
        return (self.scale**2 / var) * zf + (sigma**2 / var) * (resp @ self.flat)


# ---------------------------------------------------------------------------
# band transforms


@lru_cache(maxsize=None)
def _blur_matrix(n: int) -> np.ndarray:
    mat = np.zeros((n, n))
    for i in range(n):
        for tap, weight in zip(range(-2, 3), _BINOMIAL):
            j = i + tap
            if j < 0:
                j = -j
            elif j >= n:
                j = 2 * (n - 1) - j
            mat[i, j] += weight
    return mat


@lru_cache(maxsize=None)
def _down_matrix(n: int) -> np.ndarray:
    return _blur_matrix(n)[::2, :]


@lru_cache(maxsize=None)
def _up_matrix(target: int, n: int) -> np.ndarray:
    return (2.0 * _blur_matrix(2 * n))[:target, ::2]


def _pyr_down(x):
    return _down_matrix(x.shape[2]) @ x @ _down_matrix(x.shape[3]).T


def _pyr_up(x, target_hw):
    (th, tw), (h, w) = target_hw, x.shape[2:]
    return _up_matrix(th, h) @ x @ _up_matrix(tw, w).T


def analyze(x: np.ndarray, transform: str, levels: int) -> list[np.ndarray]:
    """Bands ordered high to low frequency; the last is the residual / ll."""
    if transform == "haar":
        a, b = x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2]
        c, d = x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2]
        details = np.concatenate([a - b + c - d, a + b - c - d, a - b - c + d], axis=1) * 0.5
        return [details, (a + b + c + d) * 0.5]
    bands, g = [], x
    for _ in range(levels):
        down = _pyr_down(g)
        bands.append(g - _pyr_up(down, g.shape[2:]))
        g = down
    return bands + [g]


def synthesize(bands: list[np.ndarray], transform: str) -> np.ndarray:
    if transform == "haar":
        details, ll = bands
        ch = ll.shape[1]
        lh, hl, hh = details[:, :ch], details[:, ch : 2 * ch], details[:, 2 * ch :]
        b, c, h, w = ll.shape
        out = np.empty((b, c, 2 * h, 2 * w))
        out[:, :, 0::2, 0::2] = (ll + lh + hl + hh) * 0.5
        out[:, :, 0::2, 1::2] = (ll - lh + hl - hh) * 0.5
        out[:, :, 1::2, 0::2] = (ll + lh - hl - hh) * 0.5
        out[:, :, 1::2, 1::2] = (ll - lh - hl + hh) * 0.5
        return out
    g = bands[-1]
    for band in reversed(bands[:-1]):
        g = band + _pyr_up(g, band.shape[2:])
    return g


def band_cfg(d_c, d_u, transform: str, levels: int, scales, weights) -> np.ndarray:
    guided = []
    for band_c, band_u, scale, weight in zip(
        analyze(d_c, transform, levels), analyze(d_u, transform, levels), scales, weights
    ):
        diff = band_c - band_u
        flat_c = band_c.reshape(band_c.shape[0], -1)
        dot = (diff.reshape(diff.shape[0], -1) * flat_c).sum(axis=1)
        sq = (flat_c * flat_c).sum(axis=1)
        coef = np.where(sq > 0.0, dot / np.where(sq > 0.0, sq, 1.0), 0.0)
        parallel = coef[:, None, None, None] * band_c
        guided.append(band_c + (scale - 1.0) * (weight * parallel + (diff - parallel)))
    return synthesize(guided, transform)


# ---------------------------------------------------------------------------
# sampler


def karras_sigmas(sigma_min: float, sigma_max: float, rho: float, steps: int) -> np.ndarray:
    ramp = np.arange(steps) / (steps - 1)
    lo, hi = sigma_min ** (1.0 / rho), sigma_max ** (1.0 / rho)
    return np.append((hi + ramp * (lo - hi)) ** rho, 0.0)


def item_noise(seed: int, item: int, shape) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=(int(seed) << 64) + int(item)))
    return gen.standard_normal(shape)


def guided_sample(cond: Mixture, uncond: Mixture, run: dict, seed: int, items) -> np.ndarray:
    """ODE samples for the given batch item indices, shape (len(items), C, H, W)."""
    shape = tuple(cond.image_shape)
    sigmas = karras_sigmas(run["sigma_min"], run["sigma_max"], run["rho"], run["steps"])
    z = sigmas[0] * np.stack([item_noise(seed, i, shape).ravel() for i in items])
    full = (len(items),) + shape

    def x0(zf, sigma):
        d_c = cond.posterior_mean(zf, sigma).reshape(full)
        d_u = uncond.posterior_mean(zf, sigma).reshape(full)
        out = band_cfg(d_c, d_u, run["transform"], run["levels"], run["scales"], run["weights"])
        return out.reshape(zf.shape)

    for s_cur, s_next in zip(sigmas[:-1], sigmas[1:]):
        drift = (z - x0(z, s_cur)) / s_cur
        z_euler = z + (s_next - s_cur) * drift
        if run["sampler"] == "euler" or s_next == 0.0:
            z = z_euler
        else:
            drift_next = (z_euler - x0(z_euler, s_next)) / s_next
            z = z + (s_next - s_cur) * 0.5 * (drift + drift_next)
    return z.reshape(full)


# ---------------------------------------------------------------------------
# metrics


def mode_counts(samples: np.ndarray, target: Mixture, tau: float) -> tuple[list[int], float, float]:
    """(per-mode hit counts, recall, precision) by nearest mean within tau."""
    flat = samples.reshape(samples.shape[0], -1)
    dist = np.sqrt(np.maximum(_sq_dist(flat, target.flat, target.sq_norms), 0.0))
    nearest = dist.argmin(axis=1)
    within = dist[np.arange(len(flat)), nearest] <= tau
    counts = np.bincount(nearest[within], minlength=target.flat.shape[0])
    return [int(c) for c in counts], float(np.mean(counts > 0)), float(np.mean(within))


def energy_shares(x: np.ndarray, transform: str, levels: int) -> tuple[float, float]:
    energies = [float((b**2).sum()) for b in analyze(x, transform, levels)]
    low, high = energies[-1], sum(energies[:-1])
    denom = float((x**2).sum()) if transform == "haar" else low + high
    return low / denom, high / denom


def saturation(samples: np.ndarray, reference: Mixture) -> float:
    ch = samples.shape[1]
    s = np.moveaxis(samples, 1, 0).reshape(ch, -1)
    means = reference.flat.reshape((-1,) + tuple(reference.image_shape))
    m = np.moveaxis(means, 1, 0).reshape(ch, means.shape[0], -1)
    r_mean = (reference.weights[None, :, None] * m).sum(axis=1).mean(axis=1)
    r_sq = (reference.weights[None, :, None] * m**2).sum(axis=1).mean(axis=1)
    r_std = np.sqrt(np.maximum(r_sq - r_mean**2, 0.0))
    gaps = 0.5 * (np.abs(s.mean(axis=1) - r_mean) + np.abs(s.std(axis=1) - r_std))
    return float(gaps.mean())


# ---------------------------------------------------------------------------
# FQG1 files


def write_fqg1(path, array: np.ndarray):
    array = np.ascontiguousarray(array, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(FQG1_HEADER.pack(b"FQG1", 0, 4, *array.shape))
        fh.write(array.tobytes())


def read_fqg1(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < FQG1_HEADER.size:
        raise ValueError(f"{path}: {len(blob)} bytes, shorter than the FQG1 header")
    magic, code, ndim, *dims = FQG1_HEADER.unpack_from(blob, 0)
    if magic != b"FQG1" or code != 0 or ndim != 4:
        raise ValueError(f"{path}: not a float64 FQG1 tensor")
    expected = FQG1_HEADER.size + 8 * int(np.prod(dims))
    if len(blob) != expected:
        raise ValueError(f"{path}: {len(blob)} bytes, expected {expected}")
    return np.frombuffer(blob, dtype="<f8", offset=FQG1_HEADER.size).reshape(dims)
