"""The span of a mixture pair's predictions, in whose coordinates
``diffusion.sample`` integrates the guided ODE (README, "Sampling in the
span of the predictions")."""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .analytic import (
    IsotropicGaussianMixture, _atom_basis, _atom_index, _atom_product, _checked, _lifted_basis, _MixturePair,
    _side_weights, _to_atoms,
)
from .frequency import low_pass_operators
from .guidance import DenoiserPair, GuidanceConfig, operator
from .tensor import finite


def span_of(pair: DenoiserPair, cfg: GuidanceConfig | None, shape: tuple) -> Span | None:
    """The ``Span`` of ``pair`` under ``cfg``'s transform (None: unguided)
    for items of ``shape``, kept in ``pair.spans`` for the last transform
    asked for: one span serves every scale and gate state of a transform.
    None unless ``pair`` is ``make_denoiser_pair``'s, ``shape`` is its
    mixture's, every parallel weight is 1 and the lifted atoms are finite."""
    if not isinstance(pair, _MixturePair) or any(w != 1.0 for w in (cfg.weights if cfg else ())):
        return None
    if shape != pair.mix.image_shape:
        return None
    with pair.lock:
        if (key := cfg and cfg.transform) not in pair.spans:
            pair.spans.clear()
            ops = low_pass_operators(cfg.transform, *shape[1:]) if cfg else []
            pair.spans[key] = Span.of(pair.mix, pair.by_class, ops)
        return pair.spans[key]


def _row_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the rows of ``a``, as many as
    ``np.linalg.matrix_rank``'s rule counts with each row scaled to a
    largest entry of 1.  LAPACK's QR of the scaled matrix's long side,
    then the SVD of its k x k triangle, k = min(a.shape): a wide ``a`` is
    Rᵀ·Qᵀ, whose right singular vectors are Rᵀ's carried back by Qᵀ; a
    tall one is Q·R, whose are R's.  The SVD of the whole scaled matrix
    left rows at the rank bound out of the span by 1.2e-14, this 9.1e-15."""
    peak = np.abs(a).max(axis=1, keepdims=True)
    unit = np.divide(a, peak, out=np.zeros(a.shape), where=peak > 0)
    wide = a.shape[0] <= a.shape[1]
    q, r = np.linalg.qr(unit.T if wide else unit)
    _, s, vt = np.linalg.svd(r.T if wide else r)
    keep = s > s.max() * max(a.shape) * np.finfo(np.float64).eps
    return vt[keep] @ q.T if wide else vt[keep]


@dataclass(frozen=True, eq=False)
class Span:
    """The coordinates in which ``sample`` steps a mixture pair under one
    transform.  ``q`` is an orthonormal basis of the span of
    [atoms; P_1·atoms; …; P_N·atoms], P_k = U^k D^k of the transform: (r, D)
    rows, or for factored atoms (Q_h, Q_w) on the unit channel mean.  An
    item's state u, its z in the frame [Q | z_⊥/‖z_⊥‖], is a (1, 2, r + 1)
    or (1, r_h + 1, r_w + 1) plane: the coordinates in [:-1, :-1], ‖z_⊥‖ in
    its last corner.  ``mix``, ``by_class`` and ``basis`` are the pair's in
    these coordinates.  ``block`` binds the span to a block's ``side`` and
    each side's ``_to_atoms`` index; ``guided`` then weighs the N + 1
    blocks of the basis by [c_c + (s_0 - 1)·Δc | c_1·Δc | … | c_N·Δc]
    (``guidance.operator``'s gains), and ``cond`` weighs the atoms by c_c."""

    q: np.ndarray | tuple
    mix: IsotropicGaussianMixture
    by_class: dict
    basis: np.ndarray | tuple
    side: IsotropicGaussianMixture | None = None
    index: list | None = None
    class_mixture = _MixturePair.class_mixture

    @classmethod
    def of(cls, mix: IsotropicGaussianMixture, by_class: dict, ops: list) -> "Span | None":
        """The span under the ``frequency.low_pass_operators`` ``ops``, or None."""
        if (basis := _lifted_basis(mix, ops)) is None:
            return None
        if isinstance(basis, np.ndarray):
            q = _row_space(basis)
            coords = np.zeros((len(basis), 2, len(q) + 1))
            coords[:, 0, :-1] = basis @ q.T
            coords, shape = coords.reshape(len(basis), -1), coords.shape[1:]
        else:
            (left, right), channels = basis, math.sqrt(mix.image_shape[0])
            q = (_row_space(left.T).T, _row_space(right.reshape(-1, right.shape[-1])))
            coords = (np.pad(channels * q[0].T @ left, ((0, 1), (0, 0))),
                      np.pad(right @ q[1].T, ((0, 0), (0, 0), (0, 1))))
            shape = (len(coords[0]), coords[1].shape[2])
        del basis  # the kept arrays are copied last, into the holes the build left
        q = tuple(part.copy() for part in q) if isinstance(q, tuple) else q.copy()
        for arr in (*q, *coords) if isinstance(coords, tuple) else (q, coords):
            arr.flags.writeable = False
        atoms = ({"table": coords[: mix.n_atoms]} if mix.table is not None
                 else {"rows": coords[0][:, : len(mix.rows)].T, "cols": coords[1][0]})
        moved = [copy.copy(m) for m in (mix, *by_class.values())]
        for m, (name, value) in itertools.product(moved, dict(atoms, image_shape=(1,) + shape).items()):
            object.__setattr__(m, name, value)  # the same cells, weights, scale, ‖m_k‖² and dim
        return cls(q, moved[0], dict(zip(by_class, moved[1:])), coords)

    @property
    def item_values(self) -> int:
        """The most values an item has in any array of a step: the state,
        the (T·K) ``_to_atoms`` index, the guided coefficients and, for
        factored atoms, the lifted grids.  ``sample`` walks the span in
        ``tensor.blocks`` of items of this size."""
        if isinstance(self.basis, np.ndarray):
            widths = (len(self.basis),)
        else:
            left, right = self.basis
            widths = (left.shape[1] * right.shape[1], left.shape[1] * right.shape[2])
        return max(math.prod(self.mix.image_shape), self.mix.cells.size, *widths)

    def _add_image(self, g: np.ndarray, z: np.ndarray):
        """Add to ``z`` the images of its items' span coordinates ``g``."""
        if isinstance(self.q, np.ndarray):
            z += np.matmul(g, self.q).reshape(z.shape)
        else:
            z += (self.q[0] @ g @ self.q[1])[:, None] / math.sqrt(z.shape[1])

    def project(self, noise: np.ndarray) -> np.ndarray:
        """The states u of the (B, C, H, W) ``noise``, which is left holding
        each item's unit z_⊥ (or 0); ``DomainError`` when one is not finite."""
        u, flat = np.zeros((len(noise),) + self.mix.image_shape), noise.reshape(len(noise), -1)
        with np.errstate(over="ignore", invalid="ignore"):
            if isinstance(self.q, np.ndarray):
                u[:, 0, :-1, :-1] = np.matmul(flat[:, None], self.q.T)
            else:
                u[:, 0, :-1, :-1] = self.q[0].T @ noise.sum(axis=1) @ self.q[1].T / math.sqrt(noise.shape[1])
            self._add_image(-u[:, 0, :-1, :-1], noise)
            norm = u[:, 0, -1, -1] = np.sqrt(np.einsum("bd,bd->b", flat, flat))
            np.divide(flat, norm[:, None], out=flat, where=norm[:, None] > 0)
        return finite(u, "span coordinates overflow float64")

    def reconstruct(self, u: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """The images of the states ``u``, made in the ``noise`` that
        ``project`` left; ``DomainError`` when one is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            noise *= u[:, :, -1:, -1:]
            self._add_image(u[:, 0, :-1, :-1], noise)
        return finite(noise, "sampler state overflows float64")

    def block(self, b: int, condition) -> "Span":
        side = self.mix if condition is None else self.class_mixture(condition)
        return replace(self, side=side, index=[_atom_index(m.cells, b, self.mix.n_atoms) for m in (self.mix, side)])

    def cond(self, u: np.ndarray, sigma: float, condition=None) -> np.ndarray:
        return self._predict(u, sigma, [self.side], None)

    def guided(self, u: np.ndarray, sigma: float, condition, cfg: GuidanceConfig) -> np.ndarray:
        return self._predict(u, sigma, [self.mix, self.side], operator(cfg))

    def _predict(self, u: np.ndarray, sigma: float, sides: list, gains: np.ndarray | None) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            weights = _side_weights(u.reshape(len(u), -1), sigma, sides)
            c = [_to_atoms(w, i, self.mix.n_atoms) for (w, _), i in zip(weights, self.index[-len(sides) :])]
            if gains is None:
                coef, basis = c[0], _atom_basis(self.mix)
            else:
                coef = (c[1] - c[0])[:, None] * gains[:, None]
                coef[:, 0] += c[1]
                coef, basis = coef.reshape(len(coef), -1), self.basis
            return _checked(_atom_product(coef, basis, weights[-1][1], u), sigma)
