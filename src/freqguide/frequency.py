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

The step table ``step_matrices`` is the one place these are chosen: per
size, (D_h, D_w, U_h, U_w) for each of the N down/up steps.  Every band
operation reads it: ``low_pass_chain``, ``up_step`` and ``chain_band`` (the
band path of guidance), ``low_pass_operators`` (U^k D^k per axis, for
``guidance.operator``) and pyramid ``synthesize``.  ``analyze``/``synthesize``
are ``transform_bands``/``inverse_bands`` on raw arrays, the band-space
reference.
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
        if isinstance(self.levels, bool) or not isinstance(self.levels, (int, np.integer)):
            raise UsageError(f"levels must be an integer, got {self.levels!r}")
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


def _down_matrix(n: int) -> np.ndarray:
    return _frozen(_blur_matrix(n)[::2])


def _up_matrix(n: int, m: int) -> np.ndarray:
    return _frozen(2.0 * _blur_matrix(2 * m)[:n, ::2])


@functools.lru_cache(maxsize=None)
def _haar(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    # the orthonormal 2-D gain (1/sqrt2)^2 = 1/2 rides on the row matrix, so
    # every product is exact and flat 2x2 blocks give exactly zero details
    rows, cols = ([np.kron(np.eye(n // 2), [1.0, sign]) for sign in (1.0, -1.0)] for n in (h, w))
    return _frozen(0.5 * np.vstack(rows)), _frozen(np.vstack(cols))


def _apply(arr: np.ndarray, a_h: np.ndarray, a_w: np.ndarray) -> np.ndarray:
    """A_h @ arr @ A_wᵀ."""
    return np.matmul(a_h, arr) @ a_w.T


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


@functools.lru_cache(maxsize=None)
def step_matrices(kind: TransformKind, height: int, width: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The step table: (D_h, D_w, U_h, U_w) for each of the N steps of
    ``kind`` on height x width images.  Step k takes D^k x to D^{k+1} x as
    D_h @ x @ D_wᵀ and back as U_h @ y @ U_wᵀ: ``_down_matrix`` and
    ``_up_matrix`` for the pyramid, Haar's ll rows and their transposes.
    Raises the ``check_fit`` error for sizes ``kind`` cannot decompose."""
    check_fit(kind, height, width)
    if kind.kind == "haar":
        d_h, d_w = (a[: n // 2] for a, n in zip(_haar(height, width), (height, width)))
        return ((d_h, d_w, d_h.T, d_w.T),)
    steps = []
    for _ in range(kind.levels):
        d_h, d_w = _down_matrix(height), _down_matrix(width)
        steps.append((d_h, d_w, _up_matrix(height, len(d_h)), _up_matrix(width, len(d_w))))
        height, width = len(d_h), len(d_w)
    return tuple(steps)


def low_pass_chain(arr: np.ndarray, kind: TransformKind) -> list[np.ndarray]:
    """[x, D x, ..., D^N x]: the N down-steps of ``kind`` on a raw array.

    D is blur-then-decimate (ceil(H/2) x ceil(W/2)) for the pyramid and the ll
    analysis for Haar.  Raises the ``check_fit`` error for sizes ``kind``
    cannot decompose.
    """
    chain = [arr]
    for d_h, d_w, _, _ in step_matrices(kind, *arr.shape[2:]):
        chain.append(_apply(chain[-1], d_h, d_w))
    return chain


def up_step(arr: np.ndarray, step: tuple) -> np.ndarray:
    """U, the synthesis partner of the down-step ``step`` (an entry of
    ``step_matrices``): for the pyramid a gain-2 blur of the zero-stuffed
    double grid cropped to the finer size, for Haar ll-only synthesis (whose
    U D is the 2x2 block mean)."""
    _, _, u_h, u_w = step
    return _apply(arr, u_h, u_w)


def low_pass_operators(kind: TransformKind, height: int, width: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """[(P_{h,k}, P_{w,k}) for k = 1..N]: the k down-steps of ``kind``
    followed by k ``up_step``s, U^k D^k, act on every (height, width) plane
    x as P_{h,k} @ x @ P_{w,k}ᵀ.  Built from the step table; Haar's
    P_{h,1} ⊗ P_{w,1} is the 2x2 block mean.  Raises the ``check_fit`` error
    for sizes ``kind`` cannot decompose."""
    down = up = (np.eye(height), np.eye(width))
    ops = []
    for d_h, d_w, u_h, u_w in step_matrices(kind, height, width):
        down, up = (d_h @ down[0], d_w @ down[1]), (up[0] @ u_h, up[1] @ u_w)
        ops.append((up[0] @ down[0], up[1] @ down[1]))
    return ops


def chain_band(chain: list[np.ndarray], k: int, kind: TransformKind) -> np.ndarray:
    """Band k of x from its ``low_pass_chain`` [x, D x, ..., D^N x]:
    D^k x - U D^{k+1} x as a new array, and D^N x itself for k = N.  For
    Haar, band 0 is the image-space detail (I - U D) x, the synthesis of the
    lh/hl/hh coefficients."""
    if k == len(chain) - 1:
        return chain[k]
    up = up_step(chain[k + 1], step_matrices(kind, *chain[0].shape[2:])[k])
    return np.subtract(chain[k], up, out=up)


def analyze(arr: np.ndarray, kind: TransformKind) -> list[np.ndarray]:
    """``transform_bands`` on a raw array."""
    if kind.kind == "pyramid":
        g = low_pass_chain(arr, kind)
        return [chain_band(g, k, kind) for k in range(len(g))]
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
        steps = step_matrices(kind, *details[0].shape[2:])
        d_h, d_w, _, _ = steps[-1]
        sizes = [(len(u_h), len(u_w)) for _, _, u_h, u_w in steps] + [(len(d_h), len(d_w))]
        if [band.shape for band in bands] != [details[0].shape[:2] + size for size in sizes]:
            raise ShapeError(f"band dims {[band.shape for band in bands]} do not chain from {details[0].shape}")
        for i in reversed(range(len(details))):
            up = up_step(g, steps[i])
            g = np.add(details[i], up, out=up)
        return g
    b, c, h, w = g.shape
    if details[0].shape != (b, 3 * c, h, w):
        raise ShapeError(f"haar detail stack {details[0].shape} does not fit ll {g.shape}")
    lh, hl, hh = np.split(details[0], 3, axis=1)
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
