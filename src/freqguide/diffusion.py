"""Noise schedules and deterministic probability-flow ODE samplers.

Guidance is applied to x0 predictions and only then converted to ODE drift;
with the score written through the posterior mean, the flow reduces to
dz/dsigma = (z - x0hat) / sigma, integrated from sigma_max down to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError
from .guidance import DenoiserPair, GuidanceConfig, NormRecorder, guided_denoise
from .span import span_of
from .tensor import Tensor4, blocks, finite, philox

_MAX_SEED = 2**63


@dataclass(frozen=True)
class NoiseSchedule:
    """A step grid of noise levels from sigma_max down to an exact 0.

    ``linear``: evenly spaced, sigma_max * (1 - i/steps).
    ``karras``: rho-spaced from sigma_max to sigma_min over the first
    ``steps`` points, then 0.

    The ``t`` that ``sample`` hands to guidance at step i (the interval gate,
    the norm records), Heun's corrector included, is the step fraction
    1 - i/steps.  It is not an
    argument of the schedule; the noise level of step i is ``grid(steps)[i]``.
    """

    kind: str
    sigma_max: float
    sigma_min: float = 0.0
    rho: float = 7.0

    def __post_init__(self):
        if self.kind not in ("linear", "karras"):
            raise UsageError(f"unknown schedule kind {self.kind!r}")
        if not all(math.isfinite(v) for v in (self.sigma_max, self.sigma_min, self.rho)):
            raise DomainError("sigma_max, sigma_min and rho must be finite")
        if self.sigma_max <= 0:
            raise DomainError("sigma_max must be > 0")
        if self.kind == "karras":
            if not 0 < self.sigma_min < self.sigma_max:
                raise DomainError("karras schedule needs 0 < sigma_min < sigma_max")
            if self.rho < 1:
                raise DomainError("rho must be >= 1")

    @classmethod
    def linear(cls, sigma_max: float) -> "NoiseSchedule":
        return cls("linear", sigma_max)

    @classmethod
    def karras(cls, sigma_min: float, sigma_max: float, rho: float = 7.0) -> "NoiseSchedule":
        return cls("karras", sigma_max, sigma_min, rho)

    def grid(self, steps: int) -> np.ndarray:
        """Strictly decreasing sigma_0 > ... > sigma_{steps} with a final exact 0."""
        if steps < 1:
            raise UsageError("steps must be >= 1")
        if self.kind == "linear":
            out = self.sigma_max * (1.0 - np.arange(steps + 1) / steps)
            out[-1] = 0.0
            return out
        if steps == 1:
            return np.array([self.sigma_max, 0.0])
        lo, hi = self.sigma_min ** (1 / self.rho), self.sigma_max ** (1 / self.rho)
        sigmas = (hi + np.arange(steps) / (steps - 1) * (lo - hi)) ** self.rho
        return np.concatenate([sigmas, [0.0]])


@dataclass(frozen=True)
class SampleRunConfig:
    steps: int
    schedule: NoiseSchedule
    seed: int
    batch: int
    shape: tuple[int, int, int]  # channels, height, width
    guidance: GuidanceConfig | None = None
    condition: int | None = None
    sampler: str = "heun"

    def __post_init__(self):
        if self.steps < 1:
            raise UsageError("steps must be >= 1")
        if self.batch < 1:
            raise UsageError("batch must be >= 1")
        if not 0 <= self.seed < _MAX_SEED:
            raise UsageError(f"seed must be in [0, {_MAX_SEED})")
        if self.sampler not in ("euler", "heun"):
            raise UsageError(f"unknown sampler {self.sampler!r}")
        if len(self.shape) != 3 or min(self.shape) < 1:
            raise UsageError(f"shape must be (channels, height, width), got {self.shape}")


def _noise(seed: int, items: range, shape: tuple, sigma_max: float, out: np.ndarray | None = None) -> np.ndarray:
    """sigma_max * eps for ``items``, made in ``out`` when given: item i's
    eps is the standard normal draw of the counter-based stream keyed by
    (seed << 64) + i, so batch size and blocking never perturb it.  Raises
    ``UsageError`` when an item leaves [0, 2**64), where it would key
    another (seed, item) stream, or a key leaves [0, 2**128), and
    ``DomainError`` when sigma_max * eps overflows float64."""
    eps = np.empty((len(items),) + tuple(shape)) if out is None else out
    for item, row in zip(items, eps):
        if not 0 <= item < 2**64:
            raise UsageError(f"item {item} is outside [0, 2**64)")
        philox((int(seed) << 64) + item).standard_normal(shape, out=row)
    with np.errstate(over="ignore"):
        z = np.multiply(sigma_max, eps, out=eps)
    return finite(z, f"initial noise sigma_max * eps overflows float64 at sigma_max={sigma_max:g}")


def initial_noise(seed: int, batch: int, shape: tuple, sigma_max: float, *, first: int = 0) -> Tensor4:
    """sigma_max * eps for items first..first+batch-1, one stream per item
    (``_noise``)."""
    return Tensor4(_noise(seed, range(first, first + batch), shape, sigma_max), checked=True)


def sample(pair: DenoiserPair, run: SampleRunConfig, recorder: NormRecorder | None = None) -> Tensor4:
    """Integrate the guided ODE from sigma_max to 0; deterministic per seed.

    Heun uses an Euler predictor plus trapezoidal corrector, except for the
    final step to sigma = 0 which stays plain Euler (the corrector would need
    a denoiser evaluation at zero noise).  The corrector of step i
    evaluates at sigma_{i+1} but with the guidance gate of the step's start
    t_i, so each step runs under one gate state.  ``recorder`` gets one record per
    step whose guidance gate is open, under that sampler step i; a run given
    one takes the band path at every guided evaluation, the corrector's
    included (``guided_denoise``).

    When ``span.span_of`` gives the span of the pair's predictions and no
    ``recorder`` is given, ``sample`` steps the coordinates u of the items
    in that span (``span.Span``): each ``tensor.blocks`` block of images,
    at most ``BLOCK_VALUES`` values per image-sized array, draws its noise
    in its rows of the output and projects it there, leaving z_⊥; every
    item then walks the steps in blocks of ``Span.item_values``-sized
    items, one block for most batches; each image block's endpoints are
    then made in place.  If a coordinate or endpoint is not finite, the
    batch runs again in image space, where the error a user sees is raised.
    In image space each image block runs through every step, observing
    into ``recorder``, which sums each step's band norms; a batch of one
    block returns its final state as is, otherwise each block's state is
    copied into one new output.  The state is a new float64 array each
    step, and every other array of a step is released once it is used;
    only the endpoints are wrapped, in one ``Tensor4``.
    """
    sigmas = run.schedule.grid(run.steps)
    ts = 1.0 - np.arange(run.steps + 1) / run.steps

    def denoise(p, z: np.ndarray, sigma: float, i: int, step: int | None) -> np.ndarray:
        if run.guidance is None:
            return p.cond(z, sigma, run.condition)
        return guided_denoise(
            z, sigma, float(ts[i]), p, run.guidance, condition=run.condition, recorder=recorder, step=step
        )

    def drift(z: np.ndarray, x0: np.ndarray, sigma: float) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.subtract(z, x0)
            out /= sigma
        return out

    def checked(state: np.ndarray, sigma: float) -> np.ndarray:
        return finite(state, f"sampler state overflows float64 at sigma={sigma:g}; reduce the scales")

    def advance(p, z: np.ndarray, i: int) -> np.ndarray:
        s_cur, s_next = float(sigmas[i]), float(sigmas[i + 1])
        d_cur = drift(z, denoise(p, z, s_cur, i, step=i), s_cur)
        corrector = run.sampler == "heun" and s_next > 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            # the corrector needs the drift itself, a plain Euler step only (s_next - s_cur)·drift
            z_euler = checked(z + np.multiply(s_next - s_cur, d_cur, out=None if corrector else d_cur), s_next)
        if not corrector:
            return z_euler
        # corrector never records: one band-norm record per step
        d_next = drift(z_euler, denoise(p, z_euler, s_next, i, step=None), s_next)
        with np.errstate(over="ignore", invalid="ignore"):
            d_next = np.add(d_cur, d_next, out=d_next)
            return checked(z + np.multiply((s_next - s_cur) * 0.5, d_next, out=d_next), s_next)

    def integrate(p, z: np.ndarray) -> np.ndarray:
        for i in range(run.steps):
            z = advance(p, z, i)
        return z

    images, sigma_max = blocks(run.batch, run.shape), float(sigmas[0])

    def in_span(span) -> np.ndarray:
        out, u = np.empty((run.batch,) + run.shape), np.empty((run.batch,) + span.mix.image_shape)
        for items in images:
            rows = slice(items.start, items.stop)
            u[rows] = span.project(_noise(run.seed, items, run.shape, sigma_max, out[rows]))
        for items in blocks(run.batch, (span.item_values,)):
            rows = slice(items.start, items.stop)
            u[rows] = integrate(span.block(len(items), run.condition), u[rows])
        for items in images:
            rows = slice(items.start, items.stop)
            span.reconstruct(u[rows], out[rows])
        return out

    def endpoints() -> np.ndarray:
        span = None if recorder is not None else span_of(pair, run.guidance, run.shape)
        if span is not None:
            try:
                return in_span(span)
            except DomainError:
                pass  # image space raises the error a user sees
        if len(images) == 1:
            return integrate(pair, _noise(run.seed, images[0], run.shape, sigma_max))
        out = np.empty((run.batch,) + run.shape)
        for items in images:
            out[items.start : items.stop] = integrate(pair, _noise(run.seed, items, run.shape, sigma_max))
        return out

    return Tensor4(endpoints(), checked=True)
