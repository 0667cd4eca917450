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
from .tensor import Tensor4

_MAX_SEED = 2**63


@dataclass(frozen=True)
class NoiseSchedule:
    """A step grid of noise levels from sigma_max down to an exact 0.

    ``linear``: evenly spaced, sigma_max * (1 - i/steps).
    ``karras``: rho-spaced from sigma_max to sigma_min over the first
    ``steps`` points, then 0.

    The ``t`` that ``sample`` hands to guidance at step i (the interval gate,
    the norm records) is the step fraction 1 - i/steps.  It is not an
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


def item_noise(seed: int, item: int, shape: tuple[int, int, int]) -> np.ndarray:
    """Standard normal draw from the counter-based stream keyed by (seed, item)."""
    gen = np.random.Generator(np.random.Philox(key=(int(seed) << 64) + int(item)))
    return gen.standard_normal(shape)


def initial_noise(seed: int, batch: int, shape: tuple[int, int, int], sigma_max: float) -> Tensor4:
    """sigma_max * eps with one RNG stream per batch item, so batch size never
    perturbs an item's noise."""
    eps = np.stack([item_noise(seed, i, shape) for i in range(batch)])
    return Tensor4(sigma_max * eps)


def sample(pair: DenoiserPair, run: SampleRunConfig, recorder: NormRecorder | None = None) -> Tensor4:
    """Integrate the guided ODE from sigma_max to 0; deterministic per seed.

    Heun uses an Euler predictor plus trapezoidal corrector, except for the
    final step to sigma = 0 which stays plain Euler (the corrector would need
    a denoiser evaluation at zero noise).  ``recorder`` gets one record per
    step whose guidance gate is open, under that sampler step i.
    """
    sigmas = run.schedule.grid(run.steps)
    ts = 1.0 - np.arange(run.steps + 1) / run.steps

    def denoise(z: Tensor4, i: int, rec) -> Tensor4:
        sigma = float(sigmas[i])
        if run.guidance is None:
            return pair.cond(z, sigma, run.condition)
        return guided_denoise(
            z, sigma, float(ts[i]), pair, run.guidance, condition=run.condition, recorder=rec, step=i
        )

    def finite(state: np.ndarray, sigma: float) -> np.ndarray:
        if not np.isfinite(state).all():
            raise DomainError(f"sampler state overflows float64 at sigma={sigma:g}; reduce the scales")
        return state

    z = initial_noise(run.seed, run.batch, run.shape, float(sigmas[0])).data
    for i in range(run.steps):
        s_cur, s_next = float(sigmas[i]), float(sigmas[i + 1])
        x0 = denoise(Tensor4(z), i, recorder).data
        with np.errstate(over="ignore", invalid="ignore"):
            drift = (z - x0) / s_cur
            z_euler = finite(z + (s_next - s_cur) * drift, s_next)
        if run.sampler == "euler" or s_next == 0.0:
            z = z_euler
        else:
            # corrector never records: one band-norm record per step
            x0_next = denoise(Tensor4(z_euler), i + 1, None).data
            with np.errstate(over="ignore", invalid="ignore"):
                drift_next = (z_euler - x0_next) / s_next
                z = finite(z + (s_next - s_cur) * 0.5 * (drift + drift_next), s_next)
    return Tensor4(z)
