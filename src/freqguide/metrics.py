"""Desk-scale evaluation: mode coverage (recall proxy), mode proximity
(precision proxy), band energy shares, and a channel-statistics saturation
proxy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import IsotropicGaussianMixture
from .errors import UsageError
from .frequency import TransformKind, transform_bands
from .tensor import Tensor4


@dataclass(frozen=True)
class ModeReport:
    counts: tuple[int, ...]  # per-mode hits within radius tau
    recall: float  # fraction of modes with at least one hit
    precision: float  # fraction of samples within tau of some mode
    tau: float


def default_tau(mix: IsotropicGaussianMixture) -> float:
    # a Euclidean 3-sigma ball in D dims has radius ~ 3 * s * sqrt(D); the
    # per-coordinate radius 3 * s would contain essentially no within-mode mass
    return 3.0 * float(mix.scales.max()) * float(np.sqrt(mix.dim))


def mode_report(samples: Tensor4, mix: IsotropicGaussianMixture, tau: float) -> ModeReport:
    """Nearest-mode assignment by Euclidean distance on flattened images."""
    if not tau > 0:
        raise UsageError(f"tau must be > 0, got {tau}")
    if samples.dims[1:] != mix.image_shape:
        raise UsageError(f"sample shape {samples.dims[1:]} != mixture shape {mix.image_shape}")
    flat = samples.data.reshape(samples.dims[0], -1)
    sq = np.einsum("bd,bd->b", flat, flat)[:, None] - 2.0 * flat @ mix.flat.T + mix.sq_norms[None, :]
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
    band energies instead of implying a Parseval identity.
    """
    bands = transform_bands(x, transform)
    energies = [float(np.sum(b.data**2)) for b in bands]
    low = energies[-1]
    high = sum(energies[:-1])
    denom = float(np.sum(x.data**2)) if transform.kind == "haar" else low + high
    if denom == 0.0:
        return (0.0, 0.0)
    return (low / denom, high / denom)


def saturation_proxy(samples: Tensor4, reference: IsotropicGaussianMixture) -> float:
    """Mean absolute gap between per-channel (mean, std) of the samples and of
    the weight-averaged mixture means, averaged over channels."""
    if samples.dims[1:] != reference.image_shape:
        raise UsageError(
            f"sample shape {samples.dims[1:]} != mixture shape {reference.image_shape}"
        )
    channels = samples.dims[1]
    s = samples.data.transpose(1, 0, 2, 3).reshape(channels, -1)
    s_mean = s.mean(axis=1)
    s_std = s.std(axis=1)
    m = reference.means.transpose(1, 0, 2, 3).reshape(channels, reference.n_components, -1)
    w = reference.weights
    r_mean = np.einsum("k,ckd->c", w, m) / m.shape[2]
    r_sq = np.einsum("k,ckd->c", w, m**2) / m.shape[2]
    r_std = np.sqrt(np.maximum(r_sq - r_mean**2, 0.0))
    return float(np.mean(0.5 * (np.abs(s_mean - r_mean) + np.abs(s_std - r_std))))
