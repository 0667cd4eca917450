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
from .tensor import Tensor4, blocks, philox

LOG_2PI = math.log(2.0 * math.pi)
# below this np.exp returns a subnormal, which is slow to compute and which a
# responsibility sum of at least 1 rounds away: such logits become exp(-inf) = 0
EXP_FLOOR = -708.0


@dataclass(frozen=True, eq=False)
class IsotropicGaussianMixture:
    """Components (weight, mean image, isotropic scale); weights sum to 1.

    Every mixture is read-only *atoms*, which the subsets that
    ``restricted`` makes share, plus its own ``cells`` (K, T): mean k is the
    sum of the atoms ``cells[k, :]``.  A mixture given its ``means`` keeps
    them, and its atoms are their (K, D) rows ``table``, one cell per
    component.  A mixture may instead be defined by separable factors, row
    profiles ``rows`` (nr, H) and column profiles ``cols`` (nq, W): atom
    r·nq + q is the plane outer(rows[r], cols[q]) in every channel, and
    each component has T = 2 cells (``_factor_means``).  ``posterior_mean``
    works through the atoms, so it never builds a factored mixture's means,
    and its ``sq_norms`` come from means built a chunk of components at a
    time.  Only a mixture given its means has ``means``; every reader of
    the means of any mixture walks ``mean_chunks()``.

    Construction also caches read-only per-component constants that every
    denoiser call needs: ``sq_norms`` (‖m_k‖²), ``log_weights``,
    ``image_shape`` and ``dim``.  Mixtures that share their atoms, such as
    a mixture and its subsets at any depth, can be evaluated together
    (``posterior_mean``'s ``subset``).  Two mixtures are equal only when
    they are the same object.
    """

    weights: np.ndarray  # (K,)
    means: np.ndarray = field(repr=False)  # (K, C, H, W); only on a mixture given them
    scales: np.ndarray  # (K,)
    sq_norms: np.ndarray = field(init=False, repr=False)
    log_weights: np.ndarray = field(init=False, repr=False)
    image_shape: tuple[int, int, int] = field(init=False, repr=False)
    dim: int = field(init=False, repr=False)
    cells: np.ndarray = field(init=False, repr=False)  # (K, T) atom numbers
    # the atoms: the (A, D) rows of the means a dense mixture was given, or the factors
    table: np.ndarray | None = field(default=None, init=False, repr=False)
    rows: np.ndarray | None = field(default=None, init=False, repr=False)
    cols: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        means = np.ascontiguousarray(self.means, dtype=np.float64)
        self._set_components(self.weights, self.scales, means.shape)
        self._freeze({
            "means": means,
            "table": means.reshape(len(means), -1),
            "cells": np.arange(len(means))[:, None],
            "sq_norms": _sq_norms(means),
        })

    @classmethod
    def _from_factors(cls, weights, scales, factors: dict, channels: int):
        """A mixture of ``channels``-channel means defined by the separable
        ``factors`` (``rows``, ``cols``, ``cells``)."""
        mix = object.__new__(cls)
        rows, cols, cells = factors["rows"], factors["cols"], factors["cells"]
        mix._set_components(weights, scales, (len(cells), channels, rows.shape[1], cols.shape[1]))
        mix._freeze(factors)
        mix._freeze({"sq_norms": np.concatenate([_sq_norms(chunk) for _, chunk in mix.mean_chunks()])})
        return mix

    def _set_components(self, weights, scales, shape: tuple) -> None:
        """Checks and freezes ``weights`` (normalized), ``scales``,
        ``log_weights``, ``image_shape`` and ``dim`` for means of ``shape``."""
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        scales = np.ascontiguousarray(scales, dtype=np.float64)
        if weights.ndim != 1 or len(shape) != 4 or scales.ndim != 1:
            raise ShapeError("weights (K,), means (K,C,H,W), scales (K,) required")
        k = weights.shape[0]
        if shape[0] != k or scales.shape[0] != k or k < 1:
            raise ShapeError("component counts disagree")
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(scales))):
            raise DomainError("non-finite mixture parameters")
        if np.any(weights <= 0):
            raise DomainError("weights must be positive")
        if np.any(scales <= 0):
            raise DomainError("scales must be positive")
        weights = weights / weights.sum()
        self._freeze({"weights": weights, "scales": scales, "log_weights": np.log(weights)})
        object.__setattr__(self, "image_shape", tuple(shape[1:]))
        object.__setattr__(self, "dim", math.prod(shape[1:]))

    def _freeze(self, arrays: dict) -> None:
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def mean_chunks(self):
        """(items, chunk) for each ``tensor.blocks`` range ``items`` of
        components, where chunk holds their new (n, C, H, W) means, gathered
        from ``table`` or built from the factors, so this never builds the
        whole means."""
        for items in blocks(self.n_components, self.image_shape):
            cells = self.cells[items.start : items.stop]
            if self.table is None:
                chunk = _factor_means(self.rows, self.cols, cells, self.image_shape[0])
            else:
                chunk = self.table[cells[:, 0]].reshape((len(cells),) + self.image_shape)
            yield items, chunk

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def n_atoms(self) -> int:
        return len(self.table) if self.table is not None else len(self.rows) * len(self.cols)

    def restricted(self, indices) -> "IsotropicGaussianMixture":
        """The renormalized mixture of the components at ``indices``, in that
        order.  It shares this mixture's atoms and takes the weights, scales,
        ‖m_k‖² and ``cells`` of the components it keeps.  It copies no
        means."""
        idx = _integers(indices, "component index")  # a copy: the caller may reuse theirs
        if idx.size == 0:
            raise ConfigError("component subset is empty")
        outside = idx[(idx < 0) | (idx >= self.n_components)]
        if outside.size:
            raise ConfigError(f"component index {outside[0]} outside 0..{self.n_components - 1}")
        values, counts = np.unique(idx, return_counts=True)
        if counts.max() > 1:
            raise ConfigError(f"component index {values[counts > 1][0]} given more than once")
        sub = object.__new__(type(self))
        sub._set_components(self.weights[idx], self.scales[idx], (len(idx),) + self.image_shape)
        sub._freeze({"cells": self.cells[idx], "sq_norms": self.sq_norms[idx]})
        for atoms in ("table", "rows", "cols"):
            object.__setattr__(sub, atoms, getattr(self, atoms))
        return sub


def _factor_means(rows: np.ndarray, cols: np.ndarray, cells: np.ndarray, channels: int) -> np.ndarray:
    """New (n, C, H, W) means of the n components with (n, T) ``cells``:
    every channel is the sum, in cell order, of the planes
    rows[r][:, None] * cols[q][None, :] of cells r·nq + q.  Each element is
    its own sum, so means built in any grouping of components have the same
    bytes."""
    r, q = np.divmod(cells, len(cols))
    planes = rows[r[:, 0], :, None] * cols[q[:, 0], None, :]
    for t in range(1, cells.shape[1]):
        planes += rows[r[:, t], :, None] * cols[q[:, t], None, :]
    return np.repeat(planes[:, None], channels, axis=1)


def _sq_norms(means: np.ndarray) -> np.ndarray:
    """‖m_k‖² of (k, C, H, W) ``means``; a ``DomainError`` if any is non-finite."""
    if not np.all(np.isfinite(means)):
        raise DomainError("non-finite mixture parameters")
    flat = means.reshape(len(means), -1)
    return np.einsum("kd,kd->k", flat, flat)


def _integers(values, what: str) -> np.ndarray:
    """``values`` as a new int array; a ``ConfigError`` names the first one
    that is not an integer."""
    arr = np.array(values)
    if arr.dtype.kind == "f":
        bad = arr[~(np.isfinite(arr) & (np.round(arr) == arr))]
    elif arr.dtype.kind in "iu":
        bad = arr[:0]
    else:
        bad = arr.reshape(-1)
    if bad.size:
        raise ConfigError(f"{what} must be an integer, got {bad.flat[0].item()!r}")
    return arr.astype(int, copy=False)


def _weights(
    sq_dist: np.ndarray, noise_var: np.float64, mix: IsotropicGaussianMixture
) -> tuple[np.ndarray, np.ndarray]:
    """Given ‖z_b - m_k‖² as (B, K) and the noise variance σ², the (B, K)
    weights w and (B,) z_coef of the posterior mean Σ_k w_bk m_k + z_coef_b z_b
    under ``mix``."""
    var = mix.scales**2 + noise_var  # (K,)
    logits = mix.log_weights[None, :] - 0.5 * (
        mix.dim * (LOG_2PI + np.log(var))[None, :] + sq_dist / var[None, :]
    )
    logits -= logits.max(axis=1, keepdims=True)
    logits[logits < EXP_FLOOR] = -np.inf
    resp = np.exp(logits)
    resp /= resp.sum(axis=1, keepdims=True)
    # a per-item sum, unlike a (B, K) GEMV, gives each item the same bytes at any batch
    return resp * (noise_var / var)[None, :], np.einsum("bk,k->b", resp, mix.scales**2 / var)


def _atom_dots(zf: np.ndarray, mix: IsotropicGaussianMixture) -> np.ndarray:
    """z_b · atom_a as (B, A) for flat (B, D) ``zf``: against the rows of
    ``table``, or for plane (r, q), entry (r, q) of rows · (Σ_c z_bc) · colsᵀ.
    One product per item, so an item's dots do not depend on the batch."""
    if mix.table is not None:
        return np.matmul(zf[:, None], mix.table.T)[:, 0]
    z = zf.reshape((len(zf),) + mix.image_shape)
    return (mix.rows @ z.sum(axis=1) @ mix.cols.T).reshape(len(zf), -1)


def _sq_dists(zf: np.ndarray, *sides: IsotropicGaussianMixture) -> tuple:
    """‖z_b‖² as (B,), then ‖z_b − m_k‖² as (B, K) under each of ``sides``,
    mixtures that share their atoms, from one pass of atom dots: z_b · m_k
    is the sum of the dots of z_b with the atoms ``cells[k]``.  ``take``,
    unlike fancy indexing, gathers C-ordered rows, so ``_weights`` sums
    every side's rows in one order."""
    z_sq = np.einsum("bd,bd->b", zf, zf)
    atom_dots = _atom_dots(zf, sides[0])
    dists = []
    for side in sides:
        dots = atom_dots.take(side.cells[:, 0], axis=1)
        for t in range(1, side.cells.shape[1]):
            dots += atom_dots.take(side.cells[:, t], axis=1)
        dists.append(z_sq[:, None] - 2.0 * dots + side.sq_norms[None, :])
    return (z_sq, *dists)


def _side_weights(zf: np.ndarray, sigma: float, sides: list) -> list:
    """(w, z_coef) of ``_weights`` for each of ``sides``, mixtures that
    share their atoms, at noise level ``sigma``: the prelude of every
    denoiser step.  Raises ``DomainError`` when ‖z‖² or σ² overflows
    float64; the caller ignores numpy's overflow warnings."""
    noise_var = np.float64(sigma) ** 2  # a Python float raises OverflowError past 1.3e154
    z_sq, *dists = _sq_dists(zf, *sides)
    if not np.isfinite(z_sq).all():
        raise DomainError(f"|z|^2 overflows float64 at sigma={sigma:g}; reduce the scales")
    if not np.isfinite(noise_var):
        raise DomainError(f"sigma^2 overflows float64 at sigma={sigma:g}")
    return [_weights(d, noise_var, side) for d, side in zip(dists, sides)]


def _atom_index(cells: np.ndarray, b: int, n_atoms: int) -> np.ndarray:
    """``_to_atoms``' flat (T, b, K) bincount index for a batch of ``b``
    items under a mixture with ``cells``: entry (t, i, k) is
    i·n_atoms + cells[k, t]."""
    return (np.ascontiguousarray(cells.T)[:, None, :] + np.arange(0, b * n_atoms, n_atoms)[:, None]).ravel()


def _to_atoms(w: np.ndarray, index: np.ndarray, n_atoms: int) -> np.ndarray:
    """The (B, K) component weights ``w`` as (B, n_atoms) weights on the
    atoms: entry (b, a) sums w_bk over the components k with a cell a, at
    the positions ``index`` (``_atom_index`` of their cells and B).
    bincount adds each item's terms in the same order whatever the batch."""
    b = len(w)
    grid = np.bincount(index, np.concatenate([w.ravel()] * (len(index) // w.size)), minlength=b * n_atoms)
    return grid.reshape(b, n_atoms)


def _atom_product(coef: np.ndarray, basis, z_coef: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``coef`` (B, T·A), weights on T blocks of A atoms, times ``basis``,
    plus z_coef_b·z_b, for (B, C, H, W) ``z``: one product per item with a
    dense (T·A, D) basis.  Factors (left, right) of n lifts of the planes
    read block t of an item as an (nr, nq) grid G_t, and every channel gets
    the plane left·[G_0·right_0; G_{T-1}·right_1; …].  T = n = 1 for the
    posterior mean, T = 2 for a guided step."""
    b, c = z.shape[:2]
    if isinstance(basis, np.ndarray):
        flat = np.matmul(coef[:, None], basis)[:, 0]
        flat += z_coef[:, None] * z.reshape(b, -1)
        return flat.reshape(z.shape)
    left, right = basis
    n, nq, width = right.shape
    grids = coef.reshape(b, -1, left.shape[1] // n, nq)
    lifted = np.empty((b, n, grids.shape[2], width))
    np.matmul(grids[:, 0], right[0], out=lifted[:, 0])
    np.matmul(grids[:, 1:], right[1:], out=lifted[:, 1:])
    channels = z_coef[:, None, None] * z.reshape(b, c, -1)
    channels += (left @ lifted.reshape(b, -1, width)).reshape(b, 1, -1)
    return channels.reshape(z.shape)


def _checked(out: np.ndarray, sigma: float) -> Tensor4:
    if not np.isfinite(out).all():
        raise DomainError(f"posterior mean overflows float64 at sigma={sigma:g}")
    return Tensor4(out, checked=True)


def posterior_mean(
    z: Tensor4, sigma: float, mix: IsotropicGaussianMixture, subset=None
) -> Tensor4 | tuple[Tensor4, Tensor4]:
    """Exact E[x | z] under z = x + sigma * eps, x ~ mix.

    Responsibilities are computed in log space with max subtraction so tiny
    sigma against distant components stays finite.  At sigma = 0 returns z.

    ``subset``, a mixture that shares the atoms of ``mix`` (any
    ``restricted`` subset, at any depth, or ``mix`` itself), makes the call
    return ``(E under subset, E under mix)`` from one pass of atom dots,
    the way a neural CFG step evaluates both predictions in one doubled
    batch.  Raises ``DomainError`` when ‖z‖², σ² or the output overflows
    float64.
    """
    if sigma < 0:
        raise DomainError(f"sigma must be >= 0, got {sigma}")
    if z.dims[1:] != mix.image_shape:
        raise ShapeError(f"z image shape {z.dims[1:]} != mixture shape {mix.image_shape}")
    if subset is not None and any(getattr(subset, a) is not getattr(mix, a) for a in ("table", "rows", "cols")):
        raise UsageError("subset must share the atoms of mix")
    if sigma == 0.0:
        return z if subset is None else (z, z)
    sides = [mix] if subset is None else [mix, subset]
    b, a = z.dims[0], mix.n_atoms
    atoms = mix.table if mix.table is not None else (mix.rows.T, mix.cols[None])
    with np.errstate(over="ignore", invalid="ignore"):
        outs = [
            _atom_product(_to_atoms(w, _atom_index(side.cells, b, a), a), atoms, z_coef, z.data)
            for (w, z_coef), side in zip(_side_weights(z.data.reshape(b, -1), sigma, sides), sides)
        ]
        full, *part = (_checked(out, sigma) for out in outs)
    return full if subset is None else (part[0], full)


def _lifted_basis(mix: IsotropicGaussianMixture, terms: list) -> np.ndarray | tuple | None:
    """[atoms; L·atoms] over the A atoms of ``mix``, where L =
    Σ_k c_k·P_{h,k} ⊗ P_{w,k} applies the ``terms`` of ``guidance.operator``
    to every plane; None when a part is not finite.

    For a dense ``mix`` this is the (2A, D) array [table; L·table], lifted an
    atom at a time so that the build holds no other array of its size.  For
    a factored one it is the lifted factors of its planes outer(rows[r],
    cols[q]): ``left`` (H, (N+1)·nr), [rowsᵀ | c_1·P_{h,1}·rowsᵀ | …], and
    ``right`` (N+1, nq, W), [cols; cols·P_{w,1}ᵀ; …]."""
    with np.errstate(over="ignore", invalid="ignore"):
        if mix.table is None:
            left = np.hstack([mix.rows.T] + [c * (p_h @ mix.rows.T) for c, p_h, _ in terms])
            parts = (left, np.stack([mix.cols] + [mix.cols @ p_w.T for _, _, p_w in terms]))
        else:
            basis = np.concatenate([mix.table, mix.table])
            for planes, lifted in zip(mix.table.reshape((-1,) + mix.image_shape), basis[len(mix.table) :]):
                lifted[:] = sum(c * (p_h @ planes @ p_w.T) for c, p_h, p_w in terms).ravel()
            parts = (basis,)
    if not all(np.isfinite(part).all() for part in parts):
        return None
    return parts if len(parts) > 1 else parts[0]


@dataclass(frozen=True, eq=False)
class _MixturePair(DenoiserPair):
    """Pair from one mixture whose ``both`` shares a single pass of atom
    dots.  ``by_class`` maps each class id to its subset of ``mix``, built
    with the pair and sharing its atoms.  ``spans`` keeps the
    ``span.Span`` of the last guidance ``span.span_of`` was asked for; the
    lock guards only it, so callers may share one pair across threads.
    """

    mix: IsotropicGaussianMixture
    by_class: dict
    spans: dict = field(default_factory=dict, repr=False)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def class_mixture(self, condition) -> IsotropicGaussianMixture:
        try:
            return self.by_class[condition]
        except (KeyError, TypeError):
            raise ConfigError(f"unknown class {condition}; have {list(self.by_class)}") from None

    def both(self, z: Tensor4, sigma: float, condition=None) -> tuple[Tensor4, Tensor4]:
        if condition is None:
            d_u = posterior_mean(z, sigma, self.mix)
            return d_u, d_u
        return posterior_mean(z, sigma, self.mix, subset=self.class_mixture(condition))


def make_denoiser_pair(mix: IsotropicGaussianMixture, labels) -> DenoiserPair:
    """cond = posterior mean under the class-restricted renormalized mixture;
    uncond = posterior mean under the full mixture.  ``labels`` assigns one
    class id per component; a null condition selects the full mixture.
    Every class's subset (``restricted``, which copies no means) is built
    here.  ``both`` evaluates cond and uncond from one pass of atom dots,
    and its cond has the bytes of ``cond`` alone."""
    labels = _integers(labels, "class label")
    if labels.shape != (mix.n_components,):
        raise ConfigError(f"labels must cover all {mix.n_components} components")
    by_class = {c: mix.restricted(np.flatnonzero(labels == c)) for c in np.unique(labels).tolist()}

    def cond(z: Tensor4, sigma: float, condition=None) -> Tensor4:
        return posterior_mean(z, sigma, mix if condition is None else pair.class_mixture(condition))

    def uncond(z: Tensor4, sigma: float) -> Tensor4:
        return posterior_mean(z, sigma, mix)

    pair = _MixturePair(cond=cond, uncond=uncond, mix=mix, by_class=by_class)
    return pair


def degrade(
    mix: IsotropicGaussianMixture, jitter_scale: float, inflate_factor: float, seed: int
) -> IsotropicGaussianMixture:
    """Deliberately worsened mixture: means jittered by seeded Gaussian noise,
    scales inflated; weights untouched; a seed outside [0, 2**128) is a ``UsageError``."""
    if jitter_scale < 0:
        raise DomainError("jitter_scale must be >= 0")
    if inflate_factor < 1:
        raise DomainError("inflate_factor must be >= 1")
    gen = philox(int(seed))
    # a chunk at a time: consecutive draws from one stream are the one whole draw
    means = np.empty((mix.n_components,) + mix.image_shape)
    for items, chunk in mix.mean_chunks():
        noise = gen.standard_normal(chunk.shape)
        np.add(chunk, np.multiply(jitter_scale, noise, out=noise), out=means[items.start : items.stop])
    return IsotropicGaussianMixture(
        weights=mix.weights, means=means, scales=mix.scales * inflate_factor
    )


@dataclass(frozen=True)
class BlobTextureSpec:
    """Parameters of mixture means blob(center_j) + texture(center_j, class_k).

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

    def _bump_profiles(self, coords, size: int) -> np.ndarray:
        """(len(coords), size) unit 1-D bumps centred at ``coords``; the blob
        at (cy, cx) is blob_amplitude · outer(profile(cy), profile(cx))."""
        # blob_block > 1 evaluates the bump at block centers and duplicates
        # pixels, pinning the blob exactly inside the block-average subspace
        block = self.blob_block
        centers = block * (np.arange(size // block, dtype=np.float64) + 0.5) - 0.5
        offsets = centers[None, :] - np.asarray(coords)[:, None]
        profile = np.exp(-(offsets**2) / (2.0 * self.blob_radius**2))
        return profile.repeat(block, axis=1)

    def _wave(self, parity: int, size: int) -> np.ndarray:
        """The grating along an axis of ``size`` px for centers of ``parity``."""
        coord = np.arange(size, dtype=np.float64)
        return self.texture_amplitude * np.cos(
            2.0 * math.pi * self.texture_freq * coord + math.pi * parity
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

    Each channel of mean (j, k) is blob_j + texture(j mod 2, k), two rank-1
    planes; ``_separable_factors`` gives the row and column profiles and
    the cells of every mean, and ``_factor_means`` is the one definition of
    the means they make.  When the J blobs and the min(2, J)·C textures
    number fewer than the J·C components, the mixture keeps only the factors;
    otherwise it is built from its means and carries no factors.
    """
    n_centers, n_classes = len(spec.centers), spec.n_classes
    factors = _separable_factors(spec)
    weights = np.stack([spec.center_weights(k) for k in range(n_classes)], axis=1) / n_classes
    weights = weights.reshape(-1)
    scales = np.full(len(weights), spec.noise_scale)
    if n_centers + min(2, n_centers) * n_classes < len(weights):
        return IsotropicGaussianMixture._from_factors(weights, scales, factors, spec.channels)
    means = _factor_means(**factors, channels=spec.channels)
    return IsotropicGaussianMixture(weights=weights, means=means, scales=scales)


def _separable_factors(spec: BlobTextureSpec) -> dict:
    """``rows``, ``cols`` and ``cells`` of the blob mixture's means.

    ``rows`` holds the bump of each distinct center row (amplitude
    included), a ones row and the grating of each center parity along y;
    ``cols`` the same along x, with unit bumps.  Component j·C + k has two
    cells: its blob outer(bump(c_y), bump(c_x)), and its texture
    outer(1, grating(j mod 2)) for even k or outer(grating(j mod 2), 1) for
    odd k.
    """
    n_centers, n_classes = len(spec.centers), spec.n_classes
    parities = range(min(2, n_centers))
    cy, cx = np.asarray(spec.centers, dtype=np.float64).T
    ys, row_of = np.unique(cy, return_inverse=True)
    xs, col_of = np.unique(cx, return_inverse=True)
    rows = np.vstack([
        spec.blob_amplitude * spec._bump_profiles(ys, spec.height),
        np.ones(spec.height),
        *(spec._wave(p, spec.height) for p in parities),
    ])
    cols = np.vstack([
        spec._bump_profiles(xs, spec.width),
        np.ones(spec.width),
        *(spec._wave(p, spec.width) for p in parities),
    ])
    nq = len(cols)
    center, cls = np.divmod(np.arange(n_centers * n_classes), n_classes)
    parity = center % 2
    texture = np.where(
        cls % 2 == 0, len(ys) * nq + len(xs) + 1 + parity, (len(ys) + 1 + parity) * nq + len(xs)
    )
    cells = np.stack([row_of[center] * nq + col_of[center], texture], axis=1)
    return {"rows": rows, "cols": cols, "cells": cells}
