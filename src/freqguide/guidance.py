"""Per-band CFG (plain CFG is its uniform-scale case) with projection
weighting, interval gating, and per-band norm diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError, ShapeError, UsageError
from .frequency import TransformKind, analyze, chain_band, low_pass_chain, step_matrices, up_step
from .tensor import Tensor4, finite


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
        scales = self._floats("scales")
        if len(scales) != self.transform.band_count:
            raise UsageError(f"{len(scales)} scales for a {self.transform.band_count}-band transform")
        if not all(np.isfinite(scales)):
            raise UsageError("scales must be finite")
        if self.parallel_weights is not None:
            weights = self._floats("parallel_weights")
            if len(weights) != len(scales):
                raise UsageError("parallel_weights length must match scales")
            if not all(np.isfinite(weights)):
                raise UsageError("parallel_weights must be finite")
        if self.interval is not None:
            interval = self._floats("interval")
            if len(interval) != 2 or not (0.0 <= interval[1] < interval[0] <= 1.0):
                raise UsageError(f"interval needs 0 <= t_end < t_start <= 1, got {interval}")

    def _floats(self, name: str) -> tuple[float, ...]:
        """Field ``name`` as a tuple of floats, set in place."""
        try:
            values = tuple(float(v) for v in getattr(self, name))
        except (TypeError, ValueError):
            raise UsageError(f"{name} must be numbers, got {getattr(self, name)!r}") from None
        object.__setattr__(self, name, values)
        return values

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

    ``cond(z, sigma, condition)`` and ``uncond(z, sigma)`` take a
    (B, C, H, W) float64 array ``z`` and return a float64 array of its
    shape; neither they nor their callers write to ``z`` or a prediction.
    ``uncond`` may come from a degraded model.  ``guided`` is one guided
    prediction.
    """

    cond: object
    uncond: object

    def both(self, z: np.ndarray, sigma: float, condition=None) -> tuple[np.ndarray, np.ndarray]:
        """(cond, uncond) at one noise level; a pair whose two predictions
        share work overrides this, as a neural model runs one doubled batch."""
        return self.cond(z, sigma, condition), self.uncond(z, sigma)

    def guided(self, z: np.ndarray, sigma: float, condition, cfg: GuidanceConfig) -> np.ndarray:
        """The per-band CFG prediction under ``cfg``: ``freqcfg_combine`` of
        ``both``.  Raises ``DomainError`` when it overflows."""
        d_c, d_u = self.both(z, sigma, condition)
        return freqcfg_combine(d_c, d_u, cfg)


@dataclass(frozen=True)
class BandNormRecord:
    step: int
    t: float
    sigma: float
    low_norm: float
    high_norm: float


@dataclass
class NormRecorder:
    """Collects the band norms of the guidance difference per guided step;
    owned by a single run.

    ``sums`` maps each observed sampler step to its (t, sigma) and the
    squared norm of each band, summed over every observation of that step,
    so the blocks of items of one run add into the same entries."""

    sums: dict[int, tuple[float, float, list[float]]] = field(default_factory=dict, repr=False)

    def observe(self, step: int, t: float, sigma: float, delta: np.ndarray, kind: TransformKind):
        """Add, for sampler step ``step``, the squared norm of each band of
        the guidance difference ``delta`` = d_c - d_u."""
        sq = [float(np.einsum("i,i->", b.ravel(), b.ravel())) for b in analyze(delta, kind)]
        total = self.sums.setdefault(step, (t, sigma, [0.0] * len(sq)))[2]
        for j, v in enumerate(sq):
            total[j] += v

    @property
    def records(self) -> list[BandNormRecord]:
        """One record per observed step, in the order first observed: the
        norm of the residual band and the norm of all detail bands
        concatenated, each the square root of its summed squares."""
        out = []
        for step, (t, sigma, sq) in self.sums.items():
            norms = [float(np.sqrt(v)) for v in sq]
            high = float(np.sqrt(sum(n**2 for n in norms[:-1])))
            out.append(BandNormRecord(step=step, t=t, sigma=sigma, low_norm=norms[-1], high_norm=high))
        return out


def _parallel(v0: np.ndarray, v1: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    a = v0.reshape(v0.shape[0], -1)
    b = v1.reshape(v1.shape[0], -1)
    dot = np.einsum("ij,ij->i", a, b)
    sq = np.einsum("ij,ij->i", b, b)
    coef = np.divide(dot, sq, out=np.zeros_like(dot), where=sq > 0.0)
    return np.multiply(coef[:, None, None, None], v1, out=out)


def project(v0: Tensor4, v1: Tensor4) -> tuple[Tensor4, Tensor4]:
    """Split v0 into components parallel and orthogonal to v1, per batch item.

    Items with a zero v1 get parallel = 0, orthogonal = v0.
    """
    if v0.dims != v1.dims:
        raise ShapeError(f"dims mismatch: {v0.dims} vs {v1.dims}")
    parallel = _parallel(v0.data, v1.data)
    return Tensor4(parallel), Tensor4(v0.data - parallel)


def _finite(arr: np.ndarray) -> np.ndarray:
    return finite(arr, "guided output overflows float64; reduce the guidance scales")


def freqcfg_combine_bands(d_c: Tensor4, d_u: Tensor4, cfg: GuidanceConfig) -> list[Tensor4]:
    """Guided band coefficients band_c + (scale - 1) * reweighted(band_c - band_u),
    each checked finite.  Their ``inverse_bands`` is the band-space reference
    that ``freqcfg_combine`` equals."""
    if d_c.dims != d_u.dims:
        raise ShapeError(f"dims mismatch: {d_c.dims} vs {d_u.dims}")
    bands = zip(analyze(d_c.data, cfg.transform), analyze(d_u.data, cfg.transform))
    guided = []
    with np.errstate(over="ignore", invalid="ignore"):
        for (band_c, band_u), scale, weight in zip(bands, cfg.scales, cfg.weights):
            diff = band_c - band_u
            reweighted = diff + (weight - 1.0) * _parallel(diff, band_c)
            guided.append(Tensor4(_finite(band_c + (scale - 1.0) * reweighted), checked=True))
    return guided


def _parallel_terms(c: np.ndarray, g: list[np.ndarray], cfg: GuidanceConfig) -> dict:
    """{k: p_k = (s_k - 1)(w_k - 1) par(b_k, bc_k)} over the bands with w_k != 1.
    b_k is band k of Δ read off its low-pass chain ``g``, bc_k that of ``c`` =
    d_c.  p_k is computed in the array of bc_k, which no later band reads."""
    kind, bands = cfg.transform, [k for k, w in enumerate(cfg.weights) if w != 1.0]
    gc = low_pass_chain(c, kind) if bands else []
    terms = {}
    for k in bands:
        band_c = chain_band(gc, k, kind)
        par = _parallel(chain_band(g, k, kind), band_c, out=band_c)
        terms[k] = np.multiply((cfg.scales[k] - 1.0) * (cfg.weights[k] - 1.0), par, out=par)
    return terms


def freqcfg_combine(d_c: np.ndarray, d_u: np.ndarray, cfg: GuidanceConfig) -> np.ndarray:
    """Per-band CFG of two (B, C, H, W) float64 arrays, as a new array;
    raises ``ShapeError`` unless they are 4-D of one shape, and
    ``DomainError`` when the guided output is not finite.

    Both transforms are linear, so per-band CFG is a recursion over the
    transform's down/up steps D and U.  With Δ = d_c - d_u, G_k = D^k Δ,
    c_k = s_k - s_{k-1} and p_k the parallel-weight term of band k
    (``_parallel_terms``; zero for unit weights):

        out = d_c + (s_0 - 1) Δ + p_0 + U(c_1 G_1 + p_1 + U(... + U(c_N G_N + p_N)))

    This equals ``inverse_bands(freqcfg_combine_bands(...))``.
    """
    if d_c.ndim != 4 or d_c.shape != d_u.shape:
        raise ShapeError(f"need two (B, C, H, W) arrays of one shape, got {d_c.shape} and {d_u.shape}")
    s, kind = cfg.scales, cfg.transform
    steps = step_matrices(kind, *d_c.shape[2:])
    with np.errstate(over="ignore", invalid="ignore"):
        # Δ, then the guided output
        out = np.subtract(d_c, d_u)
        g = low_pass_chain(out, kind)
        p = _parallel_terms(d_c, g, cfg)
        correction = 0.0
        for k in range(len(g) - 1, 0, -1):
            term = np.multiply(s[k] - s[k - 1], g[k], out=g[k])
            if k in p:
                np.add(term, p[k], out=term)
            correction = up_step(np.add(correction, term, out=term), steps[k - 1])
        np.multiply(s[0] - 1.0, out, out=out)
        np.add(d_c, out, out=out)
        if 0 in p:
            np.add(out, p[0], out=out)
        return _finite(np.add(out, correction, out=out))


def operator(cfg: GuidanceConfig) -> np.ndarray:
    """Per-band CFG at unit parallel weights as d_c + M·Δ,
    M = (s_0 - 1)·I + Σ_k c_k·P_k, c_k = s_k - s_{k-1}, where P_k =
    P_{h,k} ⊗ P_{w,k} applies U^k D^k to every plane
    (``frequency.low_pass_operators``): the gains [s_0 - 1, c_1, …, c_N]."""
    s = np.array(cfg.scales)
    return np.concatenate([s[:1] - 1.0, np.diff(s)])


def guided_denoise(
    z: np.ndarray,
    sigma: float,
    t: float,
    pair: DenoiserPair,
    cfg: GuidanceConfig,
    condition=None,
    recorder: NormRecorder | None = None,
    step: int | None = 0,
) -> np.ndarray:
    """One guided x0 prediction; returns the bare conditional output when the
    interval gate is closed, and ``pair.guided`` otherwise.  Given a
    ``recorder`` it takes the band path, ``freqcfg_combine`` of
    ``pair.both``, and records the difference d_c - d_u under sampler step
    ``step`` (nothing when ``step`` is None)."""
    if sigma <= 0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    if not cfg.active_at(t):
        return pair.cond(z, sigma, condition)
    if recorder is None:
        return pair.guided(z, sigma, condition, cfg)
    d_c, d_u = pair.both(z, sigma, condition)
    if step is not None:
        recorder.observe(step, t, sigma, d_c - d_u, cfg.transform)
    return freqcfg_combine(d_c, d_u, cfg)


def crossover_step(records: Sequence[BandNormRecord]) -> int:
    """Step whose |low_norm - high_norm| is smallest (ties go to the earlier
    step)."""
    if len(records) < 2:
        raise UsageError(f"need at least 2 records, got {len(records)}")
    gaps = np.array([r.low_norm - r.high_norm for r in records])
    return int(records[int(np.argmin(np.abs(gaps)))].step)
