"""Frequency transforms: binomial blur, Laplacian pyramid, single-level Haar DWT.

Both transforms are linear, separable and exactly invertible, which is what
lets a per-band guidance update commute with decomposition/reconstruction.
Every step is one engine, ``A_h @ x @ A_wᵀ`` on each (batch, channel) plane,
with read-only per-axis matrices built once per size (``lru_cache``):

* blur ``B_n``: the 5-tap binomial kernel with the reflect boundary (border
  pixel not repeated) built in, so band norms carry no edge energy;
* pyramid down ``D_n = B_n[::2]`` and up ``U_{n,m} = (2·B_{2m})[:n, ::2]``,
  a gain-2 blur of the zero-stuffed 2m grid cropped to n, so odd sizes keep
  that grid's boundary;
* Haar ``[L; H]``: pair sums over pair differences, so one call yields the
  four subbands as quadrants.

``analyze``/``synthesize`` are ``transform_bands``/``inverse_bands`` on raw
arrays; ``low_pass_chain`` and ``up_step`` are the down/up steps alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, UsageError
from .tensor import Tensor4

# Burt-Adelson binomial kernel; sums to 1.
BLUR_KERNEL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


@dataclass(frozen=True)
class TransformKind:
    """Which decomposition a guidance config operates on."""

    kind: str
    levels: int = 1

    def __post_init__(self):
        if self.kind not in ("pyramid", "haar"):
            raise UsageError(f"unknown transform kind {self.kind!r}")
        if self.levels < 1:
            raise UsageError("levels must be >= 1")
        if self.kind == "haar" and self.levels != 1:
            raise UsageError("haar transform is single-level")

    @classmethod
    def pyramid(cls, levels: int = 1) -> "TransformKind":
        return cls("pyramid", levels)

    @classmethod
    def haar(cls) -> "TransformKind":
        return cls("haar")

    @property
    def band_count(self) -> int:
        # detail bands then residual for the pyramid; (lh|hl|hh, ll) for haar
        return self.levels + 1 if self.kind == "pyramid" else 2


# ---------------------------------------------------------------------------
# the engine


def _frozen(mat: np.ndarray) -> np.ndarray:
    mat = np.ascontiguousarray(mat)
    mat.flags.writeable = False
    return mat


@functools.lru_cache(maxsize=None)
def _blur_matrix(n: int) -> np.ndarray:
    mat = np.zeros((n, n))
    for i in range(n):
        for tap, weight in zip(range(-2, 3), BLUR_KERNEL):
            j = abs(i + tap)  # reflect about both border pixels
            mat[i, j if j < n else 2 * (n - 1) - j] += weight
    return _frozen(mat)


@functools.lru_cache(maxsize=None)
def _down_matrix(n: int) -> np.ndarray:
    return _frozen(_blur_matrix(n)[::2])


@functools.lru_cache(maxsize=None)
def _up_matrix(n: int, m: int) -> np.ndarray:
    return _frozen(2.0 * _blur_matrix(2 * m)[:n, ::2])


@functools.lru_cache(maxsize=None)
def _haar(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    # the orthonormal 2-D gain (1/sqrt2)^2 = 1/2 rides on the row matrix, so
    # every product is exact and flat 2x2 blocks give exactly zero details
    rows, cols = ([np.kron(np.eye(n // 2), [1.0, sign]) for sign in (1.0, -1.0)] for n in (h, w))
    return _frozen(0.5 * np.vstack(rows)), _frozen(np.vstack(cols))


def _apply(arr: np.ndarray, a_h: np.ndarray, a_w: np.ndarray) -> np.ndarray:
    return a_h @ arr @ a_w.T


def _down(arr: np.ndarray) -> np.ndarray:
    h, w = arr.shape[2:]
    return _apply(arr, _down_matrix(h), _down_matrix(w))


def _up(arr: np.ndarray, target_hw) -> np.ndarray:
    h, w = arr.shape[2:]
    th, tw = int(target_hw[0]), int(target_hw[1])
    if th not in (2 * h, 2 * h - 1) or tw not in (2 * w, 2 * w - 1):
        raise ShapeError(f"up-step target {th}x{tw} incompatible with input {h}x{w}")
    if h < 3 or w < 3:
        raise ShapeError(f"blur needs spatial dims >= 5, got {2 * h}x{2 * w}")
    return _apply(arr, _up_matrix(th, h), _up_matrix(tw, w))


def max_pyramid_levels(height: int, width: int) -> int:
    side = min(height, width)
    levels = 0
    while side / 2 ** (levels + 1) >= 4:
        levels += 1
    return levels


def check_fit(kind: TransformKind, height: int, width: int):
    """Raise ``ShapeError`` unless ``kind`` can decompose height x width
    images: Haar needs even sides, a pyramid a coarsest band of 4+ pixels."""
    if kind.kind == "haar":
        if height % 2 or width % 2:
            raise ShapeError(f"haar transform needs even spatial dims, got {height}x{width}")
    elif kind.levels > max_pyramid_levels(height, width):
        raise ShapeError(
            f"{kind.levels} levels infeasible for {height}x{width}; "
            f"max feasible is {max_pyramid_levels(height, width)}"
        )


def low_pass_chain(arr: np.ndarray, kind: TransformKind) -> list[np.ndarray]:
    """[x, D x, ..., D^N x]: the N down-steps of ``kind`` on a raw array.

    D is blur-then-decimate (ceil(H/2) x ceil(W/2)) for the pyramid and the ll
    analysis for Haar.  Raises the ``check_fit`` error for sizes ``kind``
    cannot decompose.
    """
    h, w = arr.shape[2:]
    check_fit(kind, h, w)
    if kind.kind == "haar":
        a_h, a_w = _haar(h, w)
        return [arr, _apply(arr, a_h[: h // 2], a_w[: w // 2])]
    chain = [arr]
    for _ in range(kind.levels):
        chain.append(_down(chain[-1]))
    return chain


def up_step(arr: np.ndarray, target_hw, kind: TransformKind) -> np.ndarray:
    """U, the synthesis partner of one down-step: for the pyramid a gain-2
    blur of the zero-stuffed double grid cropped to ``target_hw``, for Haar
    ll-only synthesis (whose U D is the 2x2 block mean)."""
    if kind.kind == "pyramid":
        return _up(arr, target_hw)
    h, w = arr.shape[2:]
    a_h, a_w = _haar(*target_hw)
    return _apply(arr, a_h[:h].T, a_w[:w].T)


def _split3(details: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    c = details.shape[1] // 3
    return details[:, :c], details[:, c : 2 * c], details[:, 2 * c :]


def analyze(arr: np.ndarray, kind: TransformKind) -> list[np.ndarray]:
    """``transform_bands`` on a raw array."""
    if kind.kind == "pyramid":
        g = low_pass_chain(arr, kind)
        return [g[i] - _up(g[i + 1], g[i].shape[2:]) for i in range(kind.levels)] + [g[-1]]
    h, w = arr.shape[2:]
    check_fit(kind, h, w)
    y = _apply(arr, *_haar(h, w))
    h2, w2 = h // 2, w // 2
    details = np.concatenate([y[:, :, :h2, w2:], y[:, :, h2:, :w2], y[:, :, h2:, w2:]], axis=1)
    return [details, y[:, :, :h2, :w2]]


def synthesize(bands: list[np.ndarray], kind: TransformKind) -> np.ndarray:
    """``inverse_bands`` on raw arrays."""
    if len(bands) != kind.band_count:
        raise ShapeError(f"expected {kind.band_count} bands, got {len(bands)}")
    *details, g = bands
    if kind.kind == "pyramid":
        for band in reversed(details):
            if band.shape[:2] != g.shape[:2]:
                raise ShapeError(f"band dims {band.shape} inconsistent with residual chain {g.shape}")
            g = band + _up(g, band.shape[2:])
        return g
    b, c, h, w = g.shape
    if details[0].shape != (b, 3 * c, h, w):
        raise ShapeError(f"haar detail stack {details[0].shape} does not fit ll {g.shape}")
    lh, hl, hh = _split3(details[0])
    a_h, a_w = _haar(2 * h, 2 * w)
    return _apply(np.block([[g, lh], [hl, hh]]), a_h.T, a_w.T)


def transform_bands(x: Tensor4, kind: TransformKind) -> list[Tensor4]:
    """Decompose into bands ordered high to low frequency; last entry is the
    pyramid residual (or ll).  Haar is orthonormal (L = (1, 1)/√2,
    H = (1, -1)/√2, stride 2); its detail band stacks lh, hl, hh along
    channels, C channels each."""
    return [Tensor4(b) for b in analyze(x.data, kind)]


def inverse_bands(bands: list[Tensor4], kind: TransformKind) -> Tensor4:
    return Tensor4(synthesize([b.data for b in bands], kind))
