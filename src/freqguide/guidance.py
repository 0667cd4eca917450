"""Per-band CFG (plain CFG is its uniform-scale case) with projection
weighting, interval gating, and per-band norm diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError, ShapeError, UsageError
from .frequency import TransformKind, analyze, low_pass_chain, synthesize, up_step
from .tensor import Tensor4


@dataclass(frozen=True)
class GuidanceConfig:
    """Per-band guidance scales ordered high to low frequency.

    ``scales`` has one entry per band of ``transform`` (detail levels then
    residual for the pyramid; detail group then ll for haar).
    ``parallel_weights`` reweight the component of each band difference
    parallel to the conditional band; 1.0 leaves the difference untouched.
    ``interval`` optionally gates guidance to t in [t_end, t_start], where
    ``sample`` passes the step fraction t = 1 - i/steps.
    """

    transform: TransformKind
    scales: tuple[float, ...]
    parallel_weights: tuple[float, ...] | None = None
    interval: tuple[float, float] | None = None

    def __post_init__(self):
        scales = tuple(float(s) for s in self.scales)
        object.__setattr__(self, "scales", scales)
        if len(scales) != self.transform.band_count:
            raise UsageError(
                f"{len(scales)} scales for a {self.transform.band_count}-band transform"
            )
        if not all(np.isfinite(scales)):
            raise UsageError("scales must be finite")
        if self.parallel_weights is not None:
            weights = tuple(float(w) for w in self.parallel_weights)
            object.__setattr__(self, "parallel_weights", weights)
            if len(weights) != len(scales):
                raise UsageError("parallel_weights length must match scales")
            if not all(np.isfinite(weights)):
                raise UsageError("parallel_weights must be finite")
        if self.interval is not None:
            t_start, t_end = (float(v) for v in self.interval)
            object.__setattr__(self, "interval", (t_start, t_end))
            if not (0.0 <= t_end < t_start <= 1.0):
                raise UsageError(f"interval needs 0 <= t_end < t_start <= 1, got {self.interval}")

    @property
    def weights(self) -> tuple[float, ...]:
        if self.parallel_weights is None:
            return (1.0,) * len(self.scales)
        return self.parallel_weights

    def active_at(self, t: float) -> bool:
        if self.interval is None:
            return True
        t_start, t_end = self.interval
        return t_end <= t <= t_start


@dataclass(frozen=True)
class DenoiserPair:
    """Conditional and unconditional x0-prediction callables.

    ``cond(z, sigma, condition)`` and ``uncond(z, sigma)`` must return
    tensors matching ``z``; ``uncond`` may come from a degraded model.
    """

    cond: object
    uncond: object

    def both(self, z: Tensor4, sigma: float, condition=None) -> tuple[Tensor4, Tensor4]:
        """(cond, uncond) at one noise level; a pair whose two predictions
        share work overrides this, as a neural model runs one doubled batch."""
        return self.cond(z, sigma, condition), self.uncond(z, sigma)


@dataclass(frozen=True)
class BandNormRecord:
    step: int
    t: float
    sigma: float
    low_norm: float
    high_norm: float


@dataclass
class NormRecorder:
    """Collects one BandNormRecord per guided step; owned by a single run."""

    records: list[BandNormRecord] = field(default_factory=list)

    def observe(self, step: int, t: float, sigma: float, delta: np.ndarray, kind: TransformKind):
        """Record, for sampler step ``step``, the norm of the residual band of
        the guidance difference ``delta`` = d_c - d_u and the norm of all its
        detail bands concatenated."""
        norms = [float(np.sqrt(np.einsum("i,i->", b.ravel(), b.ravel()))) for b in analyze(delta, kind)]
        high = float(np.sqrt(sum(n**2 for n in norms[:-1])))
        self.records.append(BandNormRecord(step=step, t=t, sigma=sigma, low_norm=norms[-1], high_norm=high))


def _parallel(v0: np.ndarray, v1: np.ndarray) -> np.ndarray:
    a = v0.reshape(v0.shape[0], -1)
    b = v1.reshape(v1.shape[0], -1)
    dot = np.einsum("ij,ij->i", a, b)
    sq = np.einsum("ij,ij->i", b, b)
    coef = np.divide(dot, sq, out=np.zeros_like(dot), where=sq > 0.0)
    return coef[:, None, None, None] * v1


def project(v0: Tensor4, v1: Tensor4) -> tuple[Tensor4, Tensor4]:
    """Split v0 into components parallel and orthogonal to v1, per batch item.

    Items with a zero v1 get parallel = 0, orthogonal = v0.
    """
    if v0.dims != v1.dims:
        raise ShapeError(f"dims mismatch: {v0.dims} vs {v1.dims}")
    parallel = _parallel(v0.data, v1.data)
    return Tensor4(parallel), Tensor4(v0.data - parallel)


def _finite(arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise DomainError("guided output overflows float64; reduce the guidance scales")
    return arr


def freqcfg_combine_bands(d_c: Tensor4, d_u: Tensor4, cfg: GuidanceConfig) -> list[Tensor4]:
    """Guided band coefficients: band_c + (scale - 1) * reweighted(band_c - band_u)."""
    if d_c.dims != d_u.dims:
        raise ShapeError(f"dims mismatch: {d_c.dims} vs {d_u.dims}")
    bands_c = analyze(d_c.data, cfg.transform)
    bands_u = analyze(d_u.data, cfg.transform)
    guided = []
    with np.errstate(over="ignore", invalid="ignore"):
        for band_c, band_u, scale, weight in zip(bands_c, bands_u, cfg.scales, cfg.weights):
            diff = band_c - band_u
            reweighted = diff + (weight - 1.0) * _parallel(diff, band_c)
            guided.append(Tensor4(_finite(band_c + (scale - 1.0) * reweighted)))
    return guided


def freqcfg_combine(d_c: Tensor4, d_u: Tensor4, cfg: GuidanceConfig) -> Tensor4:
    """Per-band CFG; raises ``DomainError`` when the guided output overflows.

    With unit parallel weights, linearity gives a closed form in the
    transform's down/up steps D and U.  With Δ = d_c - d_u, G_k = D^k Δ and
    c_k = s_k - s_{k-1}:

        out = d_c + (s_0 - 1) Δ + U(c_1 G_1 + U(c_2 G_2 + ... + U(c_N G_N)))

    Only weights != 1 take the band-space path: decompose both inputs,
    reweight each band difference (``freqcfg_combine_bands``), reconstruct.
    """
    if d_c.dims != d_u.dims:
        raise ShapeError(f"dims mismatch: {d_c.dims} vs {d_u.dims}")
    s, kind = cfg.scales, cfg.transform
    with np.errstate(over="ignore", invalid="ignore"):
        if any(w != 1.0 for w in cfg.weights):
            bands = freqcfg_combine_bands(d_c, d_u, cfg)
            return Tensor4(_finite(synthesize([b.data for b in bands], kind)))
        delta = d_c.data - d_u.data
        g = low_pass_chain(delta, kind)
        correction = 0.0
        for k in range(len(g) - 1, 0, -1):
            correction = up_step(correction + (s[k] - s[k - 1]) * g[k], g[k - 1].shape[2:], kind)
        return Tensor4(_finite(d_c.data + (s[0] - 1.0) * delta + correction))


def guided_denoise(
    z: Tensor4,
    sigma: float,
    t: float,
    pair: DenoiserPair,
    cfg: GuidanceConfig,
    condition=None,
    recorder: NormRecorder | None = None,
    step: int = 0,
) -> Tensor4:
    """One guided x0 prediction; returns the bare conditional output when the
    interval gate is closed.  Appends a band-norm record for sampler step
    ``step`` per guided call."""
    if sigma <= 0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    if not cfg.active_at(t):
        return pair.cond(z, sigma, condition)
    d_c, d_u = pair.both(z, sigma, condition)
    if recorder is not None:
        recorder.observe(step, t, sigma, d_c.data - d_u.data, cfg.transform)
    return freqcfg_combine(d_c, d_u, cfg)


def crossover_step(records: Sequence[BandNormRecord]) -> int:
    """Step whose |low_norm - high_norm| is smallest (ties go to the earlier
    step)."""
    if len(records) < 2:
        raise UsageError(f"need at least 2 records, got {len(records)}")
    gaps = np.array([r.low_norm - r.high_norm for r in records])
    return int(records[int(np.argmin(np.abs(gaps)))].step)
