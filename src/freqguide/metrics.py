"""Desk-scale evaluation: mode coverage (recall proxy), mode proximity
(precision proxy), band energy shares, and a channel-statistics saturation
proxy."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import IsotropicGaussianMixture, _sq_dists
from .errors import UsageError
from .frequency import TransformKind, transform_bands
from .tensor import Tensor4, blocks


@dataclass(frozen=True)
class ModeReport:
    counts: tuple[int, ...]  # per-mode hits within radius tau
    recall: float  # fraction of modes with at least one hit
    precision: float  # fraction of samples within tau of some mode
    tau: float


def default_tau(mix: IsotropicGaussianMixture) -> float:
    # a Euclidean 3-sigma ball in D dims has radius ~ 3 * s * sqrt(D); the
    # per-coordinate radius 3 * s would contain essentially no within-mode mass
    return 3.0 * mix.scale * float(np.sqrt(mix.dim))


def mode_report(samples: Tensor4, mix: IsotropicGaussianMixture, tau: float) -> ModeReport:
    """Nearest-mode assignment by Euclidean distance on flattened images."""
    if not tau > 0:
        raise UsageError(f"tau must be > 0, got {tau}")
    if samples.dims[1:] != mix.image_shape:
        raise UsageError(f"sample shape {samples.dims[1:]} != mixture shape {mix.image_shape}")
    _, sq = _sq_dists(samples.data.reshape(samples.dims[0], -1), mix)
    dist = np.sqrt(np.maximum(sq, 0.0))
    nearest = dist.argmin(axis=1)
    within = dist[np.arange(dist.shape[0]), nearest] <= tau
    counts = np.bincount(nearest[within], minlength=mix.n_components)
    return ModeReport(
        counts=tuple(int(c) for c in counts),
        recall=float(np.mean(counts > 0)),
        precision=float(np.mean(within)),
        tau=float(tau),
    )


def band_energy_fraction(x: Tensor4, transform: TransformKind) -> tuple[float, float]:
    """(low, high) squared-norm shares: residual band vs all detail bands.

    Haar shares are relative to the input energy (orthonormal, so they sum to
    1); pyramid bands are not orthogonal, so shares are relative to the sum of
    band energies instead of implying a Parseval identity.  Energies are
    summed over ``tensor.blocks`` of items, so the bands of the whole batch
    never exist at once.
    """
    haar = transform.kind == "haar"
    energies, total = np.zeros(transform.band_count), 0.0
    for items in blocks(x.dims[0], x.dims[1:]):
        part = x.data[items.start : items.stop]
        energies += [float(np.sum(b.data**2)) for b in transform_bands(Tensor4(part, checked=True), transform)]
        total += float(np.sum(part**2)) if haar else 0.0
    low = float(energies[-1])
    high = float(energies[:-1].sum())
    denom = total if haar else low + high
    if denom == 0.0:
        return (0.0, 0.0)
    return (low / denom, high / denom)


def saturation_proxy(samples: Tensor4, reference: IsotropicGaussianMixture) -> float:
    """Mean absolute gap between per-channel (mean, std) of the samples and of
    the weight-averaged mixture means, averaged over channels.  The samples
    are copied a channel at a time and the means' weighted sums walk
    ``reference.mean_chunks()``, so neither is held whole."""
    if samples.dims[1:] != reference.image_shape:
        raise UsageError(
            f"sample shape {samples.dims[1:]} != mixture shape {reference.image_shape}"
        )
    channels = samples.dims[1]
    planes = (np.ascontiguousarray(samples.data[:, c]) for c in range(channels))
    s_mean, s_std = np.array([(plane.mean(), plane.std()) for plane in planes]).T
    r_mean, r_sq = np.zeros(channels), np.zeros(channels)
    for items, chunk in reference.mean_chunks():
        m = chunk.transpose(1, 0, 2, 3).reshape(channels, len(chunk), -1)
        w = reference.weights[items.start : items.stop]
        r_mean += np.einsum("k,ckd->c", w, m)
        r_sq += np.einsum("k,ckd->c", w, m**2)
    pixels = math.prod(reference.image_shape[1:])
    r_mean /= pixels
    r_sq /= pixels
    r_std = np.sqrt(np.maximum(r_sq - r_mean**2, 0.0))
    return float(np.mean(0.5 * (np.abs(s_mean - r_mean) + np.abs(s_std - r_std))))
