"""Closed-form denoisers from isotropic Gaussian mixtures, plus a synthetic
blob+texture image family whose position information is low-frequency and
whose class texture is high-frequency.

These replace neural denoisers: the posterior mean under the mixture is the
exact x0 prediction at every noise level, so sampler- and guidance-level
claims can be tested without approximation error.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, ShapeError, UsageError
from .guidance import DenoiserPair
from .tensor import Tensor4

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class IsotropicGaussianMixture:
    """Components (weight, mean image, isotropic scale); weights sum to 1.

    Construction also caches read-only per-component constants that every
    denoiser call needs: ``flat`` (the (K, D) view of ``means``),
    ``sq_norms`` (‖m_k‖²) and ``log_weights``.  A mixture made by
    ``restricted`` records its ``parent`` and the ``indices`` it took, so
    ``posterior_mean`` can evaluate it together with the parent.

    When the means are sums of fewer shared images than there are
    components, ``atoms`` (A, D) and a 0/1 ``incidence`` (K, A) with
    ``incidence @ atoms == flat`` let ``posterior_mean`` work through the A
    atoms instead of the K means; otherwise both are None.
    """

    weights: np.ndarray  # (K,)
    means: np.ndarray  # (K, C, H, W)
    scales: np.ndarray  # (K,)
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)
    log_weights: np.ndarray = field(init=False, repr=False, compare=False)
    parent: "IsotropicGaussianMixture | None" = field(default=None, init=False, repr=False, compare=False)
    indices: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    atoms: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    incidence: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        means = np.ascontiguousarray(self.means, dtype=np.float64)
        scales = np.ascontiguousarray(self.scales, dtype=np.float64)
        if weights.ndim != 1 or means.ndim != 4 or scales.ndim != 1:
            raise ShapeError("weights (K,), means (K,C,H,W), scales (K,) required")
        k = weights.shape[0]
        if means.shape[0] != k or scales.shape[0] != k or k < 1:
            raise ShapeError("component counts disagree")
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(means)) and np.all(np.isfinite(scales))):
            raise DomainError("non-finite mixture parameters")
        if np.any(weights <= 0):
            raise DomainError("weights must be positive")
        if np.any(scales <= 0):
            raise DomainError("scales must be positive")
        weights = weights / weights.sum()
        flat = means.reshape(k, -1)
        self._freeze({
            "weights": weights,
            "means": means,
            "scales": scales,
            "flat": flat,
            "sq_norms": np.einsum("kd,kd->k", flat, flat),
            "log_weights": np.log(weights),
        })

    def _freeze(self, arrays: dict) -> None:
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def _keep_atoms(self, atoms: np.ndarray, incidence: np.ndarray) -> None:
        """Record shared atoms, given ``incidence @ atoms == flat``; kept only
        when there are fewer atoms than components, where they save work."""
        if atoms.shape[0] < self.n_components:
            self._freeze({"atoms": atoms, "incidence": incidence})

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return self.means.shape[1:]

    @property
    def dim(self) -> int:
        c, h, w = self.image_shape
        return c * h * w

    def restricted(self, indices) -> "IsotropicGaussianMixture":
        idx = np.array(indices, dtype=int)  # a copy: the caller may reuse theirs
        if idx.size == 0:
            raise ConfigError("component subset is empty")
        sub = IsotropicGaussianMixture(
            weights=self.weights[idx], means=self.means[idx], scales=self.scales[idx]
        )
        sub._freeze({"indices": idx})
        object.__setattr__(sub, "parent", self)
        if self.atoms is not None:
            sub._freeze({"atoms": self.atoms, "incidence": self.incidence[idx]})
        return sub


def _dots(zf: np.ndarray, mix: IsotropicGaussianMixture) -> np.ndarray:
    """z_b · m_k as (B, K)."""
    if mix.atoms is None:
        return zf @ mix.flat.T
    return (zf @ mix.atoms.T) @ mix.incidence.T


def _weighted_means(w: np.ndarray, mix: IsotropicGaussianMixture) -> np.ndarray:
    """Σ_k w_bk m_k as (B, D)."""
    if mix.atoms is None:
        return w @ mix.flat
    return (w @ mix.incidence) @ mix.atoms


def _from_distances(
    zf: np.ndarray, sq_dist: np.ndarray, sigma: float, mix: IsotropicGaussianMixture
) -> np.ndarray:
    """Posterior mean (B, D) under ``mix`` given ‖z_b - m_k‖² as (B, K)."""
    var = mix.scales**2 + sigma**2  # (K,)
    logits = mix.log_weights[None, :] - 0.5 * (
        mix.dim * (LOG_2PI + np.log(var))[None, :] + sq_dist / var[None, :]
    )
    logits -= logits.max(axis=1, keepdims=True)
    resp = np.exp(logits)
    resp /= resp.sum(axis=1, keepdims=True)
    z_coef = resp @ (mix.scales**2 / var)  # (B,)
    out = _weighted_means(resp * (sigma**2 / var)[None, :], mix)  # (B, D)
    out += z_coef[:, None] * zf
    if not np.isfinite(out).all():
        raise DomainError(f"posterior mean overflows float64 at sigma={sigma:g}")
    return out


def posterior_mean(
    z: Tensor4, sigma: float, mix: IsotropicGaussianMixture, subset=None
) -> Tensor4 | tuple[Tensor4, Tensor4]:
    """Exact E[x | z] under z = x + sigma * eps, x ~ mix.

    Responsibilities are computed in log space with max subtraction so tiny
    sigma against distant components stays finite.  At sigma = 0 returns z.

    ``subset``, a mixture made by ``mix.restricted(...)``, makes the call
    return ``(E under subset, E under mix)`` from one distance pass: the
    subset's distances are columns of the full (B, K) distance matrix, the
    way a neural CFG step evaluates both predictions in one doubled batch.
    Raises ``DomainError`` when ‖z‖² or the output overflows float64.
    """
    if sigma < 0:
        raise DomainError(f"sigma must be >= 0, got {sigma}")
    if z.dims[1:] != mix.image_shape:
        raise ShapeError(f"z image shape {z.dims[1:]} != mixture shape {mix.image_shape}")
    if subset is not None and subset.parent is not mix:
        raise UsageError("subset must be a mixture restricted from mix")
    if sigma == 0.0:
        return z if subset is None else (z, z)
    zf = z.data.reshape(z.dims[0], -1)  # (B, D)
    with np.errstate(over="ignore", invalid="ignore"):
        z_sq = np.einsum("bd,bd->b", zf, zf)
        if not np.isfinite(z_sq).all():
            raise DomainError(f"|z|^2 overflows float64 at sigma={sigma:g}; reduce the scales")
        sq_dist = z_sq[:, None] - 2.0 * _dots(zf, mix) + mix.sq_norms[None, :]  # (B, K)
        full = Tensor4(_from_distances(zf, sq_dist, sigma, mix).reshape(z.dims))
        if subset is None:
            return full
        part = _from_distances(zf, sq_dist[:, subset.indices], sigma, subset)
    return Tensor4(part.reshape(z.dims)), full


@dataclass(frozen=True, eq=False)
class _MixturePair(DenoiserPair):
    """Pair from one mixture whose ``both`` shares a single distance pass.

    A class's restricted mixture is built the first time that class is asked
    for and kept in ``by_class``; the lock makes that check-then-build
    atomic, so callers may share one pair across their own threads.
    """

    mix: IsotropicGaussianMixture
    labels: np.ndarray
    classes: tuple
    by_class: dict = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def class_mixture(self, condition) -> IsotropicGaussianMixture:
        if condition not in self.classes:
            raise ConfigError(f"unknown class {condition}; have {list(self.classes)}")
        with self.lock:
            if condition not in self.by_class:
                self.by_class[condition] = self.mix.restricted(np.flatnonzero(self.labels == condition))
            return self.by_class[condition]

    def both(self, z: Tensor4, sigma: float, condition=None) -> tuple[Tensor4, Tensor4]:
        if condition is None:
            d_u = posterior_mean(z, sigma, self.mix)
            return d_u, d_u
        return posterior_mean(z, sigma, self.mix, subset=self.class_mixture(condition))


def make_denoiser_pair(mix: IsotropicGaussianMixture, labels) -> DenoiserPair:
    """cond = posterior mean under the class-restricted renormalized mixture;
    uncond = posterior mean under the full mixture.  ``labels`` assigns one
    class id per component; a null condition selects the full mixture.
    ``both`` evaluates cond and uncond from one shared distance pass."""
    labels = np.asarray(labels, dtype=int)
    if labels.shape != (mix.n_components,):
        raise ConfigError(f"labels must cover all {mix.n_components} components")

    def cond(z: Tensor4, sigma: float, condition=None) -> Tensor4:
        if condition is None:
            return posterior_mean(z, sigma, mix)
        return posterior_mean(z, sigma, pair.class_mixture(condition))

    def uncond(z: Tensor4, sigma: float) -> Tensor4:
        return posterior_mean(z, sigma, mix)

    classes = tuple(np.unique(labels).tolist())
    pair = _MixturePair(cond=cond, uncond=uncond, mix=mix, labels=labels, classes=classes)
    return pair


def degrade(
    mix: IsotropicGaussianMixture, jitter_scale: float, inflate_factor: float, seed: int
) -> IsotropicGaussianMixture:
    """Deliberately worsened mixture: means jittered by seeded Gaussian noise,
    scales inflated; weights untouched."""
    if jitter_scale < 0:
        raise DomainError("jitter_scale must be >= 0")
    if inflate_factor < 1:
        raise DomainError("inflate_factor must be >= 1")
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    means = mix.means + jitter_scale * gen.standard_normal(mix.means.shape)
    return IsotropicGaussianMixture(
        weights=mix.weights, means=means, scales=mix.scales * inflate_factor
    )


@dataclass(frozen=True)
class BlobTextureSpec:
    """Recipe for mixture means blob(center_j) + texture(center_j, class_k).

    The blob is a broad Gaussian bump (position = global structure); the
    texture is a Nyquist-rate grating whose orientation alternates per class
    and whose phase alternates per center.  ``class_center_weights`` optionally
    skews each class toward particular centers (rows sum to 1); by default the
    component weights form the uniform Cartesian product.
    """

    height: int = 32
    width: int = 32
    channels: int = 3
    centers: tuple[tuple[float, float], ...] = ((8.0, 8.0), (8.0, 24.0), (24.0, 8.0), (24.0, 24.0))
    blob_radius: float = 8.0
    blob_amplitude: float = 1.0
    texture_freq: float = 0.5
    texture_amplitude: float = 0.02
    n_classes: int = 2
    noise_scale: float = 0.05
    class_center_weights: tuple[tuple[float, ...], ...] | None = None
    blob_block: int = 1

    def __post_init__(self):
        for name in ("blob_radius", "blob_amplitude", "texture_freq", "texture_amplitude", "noise_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if min(self.height, self.width, self.channels) < 1:
            raise ConfigError("image dims must be positive")
        if not self.centers:
            raise ConfigError("need at least one blob center")
        for cy, cx in self.centers:
            if not (0 <= cy < self.height and 0 <= cx < self.width):
                raise ConfigError(f"center ({cy}, {cx}) outside {self.height}x{self.width}")
        if self.blob_radius < 8:
            raise ConfigError("blob_radius must be >= 8 px")
        if not 0.25 <= self.texture_freq <= 0.5:
            raise ConfigError("texture_freq must be in [0.25, 0.5] cycles/px")
        if self.n_classes < 1:
            raise ConfigError("n_classes must be >= 1")
        if self.noise_scale <= 0:
            raise ConfigError("noise_scale must be > 0")
        if self.blob_block < 1:
            raise ConfigError("blob_block must be >= 1")
        if self.height % self.blob_block or self.width % self.blob_block:
            raise ConfigError("blob_block must divide the image dims")
        if self.class_center_weights is not None:
            ccw = tuple(tuple(float(v) for v in row) for row in self.class_center_weights)
            object.__setattr__(self, "class_center_weights", ccw)
            if len(ccw) != self.n_classes:
                raise ConfigError("class_center_weights needs one row per class")
            for row in ccw:
                if len(row) != len(self.centers):
                    raise ConfigError("class_center_weights rows must match center count")
                if not all(0 < v < math.inf for v in row) or abs(sum(row) - 1.0) > 1e-9:
                    raise ConfigError("each class_center_weights row must be finite, positive and sum to 1")

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return (self.channels, self.height, self.width)

    def blob_image(self, center) -> np.ndarray:
        return np.broadcast_to(self._blob_planes([center])[0], self.image_shape).copy()

    def _blob_planes(self, centers) -> np.ndarray:
        """(len(centers), H, W) bumps, one per center, shared by all channels."""
        # blob_block > 1 evaluates the bump at block centers and duplicates
        # pixels, pinning the blob exactly inside the block-average subspace
        cy, cx = np.asarray(centers, dtype=np.float64).T[:, :, None, None]
        block = self.blob_block
        yy = block * (np.arange(self.height // block, dtype=np.float64)[:, None] + 0.5) - 0.5
        xx = block * (np.arange(self.width // block, dtype=np.float64)[None, :] + 0.5) - 0.5
        bump = self.blob_amplitude * np.exp(
            -((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * self.blob_radius**2)
        )
        return bump.repeat(block, axis=1).repeat(block, axis=2)

    def texture_image(self, center_index: int, class_index: int) -> np.ndarray:
        phase = math.pi * (center_index % 2)
        if class_index % 2 == 0:
            coord = np.arange(self.width, dtype=np.float64)[None, :]
        else:
            coord = np.arange(self.height, dtype=np.float64)[:, None]
        wave = self.texture_amplitude * np.cos(2.0 * math.pi * self.texture_freq * coord + phase)
        grid = np.broadcast_to(wave, (self.height, self.width))
        return np.broadcast_to(grid, self.image_shape).copy()

    def mean_image(self, center_index: int, class_index: int) -> np.ndarray:
        return self.blob_image(self.centers[center_index]) + self.texture_image(
            center_index, class_index
        )

    def center_weights(self, class_index: int) -> np.ndarray:
        if self.class_center_weights is None:
            n = len(self.centers)
            return np.full(n, 1.0 / n)
        return np.array(self.class_center_weights[class_index], dtype=np.float64)


def class_labels(spec: BlobTextureSpec) -> np.ndarray:
    """Class id per mixture component, matching blob_mixture_from_spec order
    (component index = center_index * n_classes + class_index)."""
    return np.tile(np.arange(spec.n_classes), len(spec.centers))


def blob_mixture_from_spec(spec: BlobTextureSpec) -> IsotropicGaussianMixture:
    """Cartesian (center x class) mixture with deterministic means and the
    spec noise scale on every component.

    Mean (j, k) is ``spec.mean_image(j, k)``; the blob depends only on the
    center and the texture only on (center parity, class), so each is built
    once and the sums are broadcast into place.  The J blobs and the
    min(2, J)·C textures are also the mixture's atoms (kept when they number
    fewer than the J·C components): row j·C + k of the incidence matrix
    picks blob j and texture (j mod 2, k).
    """
    n_centers, n_classes = len(spec.centers), spec.n_classes
    n_parities = min(2, n_centers)
    blobs = np.broadcast_to(
        spec._blob_planes(spec.centers)[:, None], (n_centers,) + spec.image_shape
    )  # (J, C, H, W)
    textures = np.stack(
        [[spec.texture_image(p, k) for k in range(n_classes)] for p in range(n_parities)]
    )  # (P, classes, C, H, W)
    means = np.empty((n_centers, n_classes) + spec.image_shape)
    for parity in range(n_parities):
        np.add(blobs[parity::2, None], textures[parity], out=means[parity::2])
    weights = np.stack([spec.center_weights(k) for k in range(n_classes)], axis=1) / n_classes
    k = n_centers * n_classes
    mix = IsotropicGaussianMixture(
        weights=weights.reshape(-1),
        means=means.reshape((-1,) + spec.image_shape),
        scales=np.full(k, spec.noise_scale),
    )
    rows = np.arange(k)
    center, cls = np.divmod(rows, n_classes)
    incidence = np.zeros((k, n_centers + n_parities * n_classes))
    incidence[rows, center] = 1.0
    incidence[rows, n_centers + (center % 2) * n_classes + cls] = 1.0
    atoms = np.concatenate([blobs.reshape(n_centers, -1), textures.reshape(n_parities * n_classes, -1)])
    mix._keep_atoms(atoms, incidence)
    return mix

