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
    IsotropicGaussianMixture, _atom_index, _atom_product, _checked, _lifted_basis, _MixturePair, _side_weights,
    _to_atoms,
)
from .errors import DomainError
from .guidance import DenoiserPair, GuidanceConfig, operator
from .tensor import Tensor4


def span_of(pair: DenoiserPair, cfg: GuidanceConfig | None, shape: tuple) -> Span | None:
    """The ``Span`` of ``pair`` under ``cfg`` (None: unguided, L = 0) for
    items of ``shape``, kept in ``pair.spans`` for the last guidance asked
    for; None unless ``pair`` is ``make_denoiser_pair``'s, ``shape`` is its
    mixture's, the components share one scale, every parallel weight is 1
    and [atoms; L·atoms] is finite."""
    if not isinstance(pair, _MixturePair) or any(w != 1.0 for w in (cfg.weights if cfg else ())):
        return None
    mix = pair.mix
    if shape != mix.image_shape or np.any(mix.scales != mix.scales[0]):
        return None
    with pair.lock:
        if (key := cfg and (cfg.transform, cfg.scales)) not in pair.spans:
            pair.spans.clear()
            terms = operator(cfg, *shape[1:])[1] if cfg else [(0.0, np.eye(shape[1]), np.eye(shape[2]))]
            pair.spans[key] = Span.of(mix, pair.by_class, terms)
        return pair.spans[key]


def _row_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the rows of ``a``, as many as
    ``np.linalg.matrix_rank``'s rule counts with each row scaled to a
    largest entry of 1: one-sided Jacobi (Hestenes 1958) in round-robin
    rounds, on [aᵀ | I] for a tall ``a``; a row below the rule's bound
    turns no more.  Plain numpy: LAPACK would page 1 MB of code into RSS."""
    eps, (rows, cols), peak = np.finfo(np.float64).eps, a.shape, np.abs(a).max(axis=1, keepdims=True)
    tall, m = rows > cols, min(rows, cols) + min(rows, cols) % 2
    x, d = np.zeros((m, rows + cols if tall else cols)), rows if tall else cols  # d: the columns dotted
    if tall:
        np.divide(a.T, peak.T, out=x[:cols, :rows], where=peak.T > 0)
        x[:cols, rows:] = np.eye(cols)
    else:
        np.divide(a, peak, out=x[:rows], where=peak > 0)
    floor = np.einsum("ij,ij->i", x[:, :d], x[:, :d]).max() * (max(a.shape) * eps) ** 2
    order, rounds = np.arange(m), []
    for _ in range(m - 1):  # a sweep turns every pair once, in rounds of disjoint pairs
        rounds.append((order[: m // 2], order[: m // 2 - 1 : -1]))
        order = np.concatenate([order[:1], order[-1:], order[1:-1]])
    quiet = 0
    for r in range(64 * (m - 1)):  # 64 sweeps at most; ten or so reach rounding level
        if quiet == m - 1:  # a whole sweep turned no pair
            break
        i, j = rounds[r % (m - 1)]
        xi, xj = x[i], x[j]
        alpha, beta, gamma = (np.einsum("ij,ij->i", v[:, :d], w[:, :d]) for v, w in ((xi, xi), (xj, xj), (xi, xj)))
        turn = (np.abs(gamma) > eps * np.sqrt(alpha * beta)) & (np.minimum(alpha, beta) > floor)
        if not turn.any():
            quiet += 1
            continue
        quiet, zeta = 0, (beta - alpha)[turn] / (2.0 * gamma[turn])
        tan = (np.copysign(1.0, zeta) / (np.abs(zeta) + np.hypot(1.0, zeta)))[:, None]
        cos, xi, xj = 1.0 / np.hypot(1.0, tan), xi[turn], xj[turn]
        x[i[turn]], x[j[turn]] = cos * (xi - tan * xj), cos * (tan * xi + xj)
    s = np.sqrt(np.einsum("ij,ij->i", x[:, :d], x[:, :d]))
    keep = s > s.max() * max(a.shape) * eps
    return x[keep, d:] if tall else x[keep] / s[keep, None]


@dataclass(frozen=True, eq=False)
class Span:
    """The coordinates in which ``sample`` steps a mixture pair.  ``q`` is
    an orthonormal basis of the span of [atoms; L·atoms]: (r, D) rows, or
    for factored atoms (Q_h, Q_w) on the unit channel mean.  An item's state
    u, its z in the frame [Q | z_⊥/‖z_⊥‖], is a (1, 2, r + 1) or
    (1, r_h + 1, r_w + 1) plane: the coordinates in [:-1, :-1], ‖z_⊥‖ in
    its last corner.  ``mix``, ``by_class`` and ``basis`` are the pair's in
    these coordinates.  ``block`` binds the span to a block's ``side`` and
    each side's ``_to_atoms`` index; ``guided`` then weighs [atoms; L·atoms]
    by [c_c + (s_0 - 1)·Δc | Δc] and ``cond`` by [c_c | 0]."""

    q: np.ndarray | tuple
    mix: IsotropicGaussianMixture
    by_class: dict
    basis: np.ndarray | tuple
    side: IsotropicGaussianMixture | None = None
    index: list | None = None
    class_mixture = _MixturePair.class_mixture

    @classmethod
    def of(cls, mix: IsotropicGaussianMixture, by_class: dict, terms: list) -> "Span | None":
        """The span under the ``guidance.operator`` ``terms``, or None."""
        if (basis := _lifted_basis(mix, terms)) is None:
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
            object.__setattr__(m, name, value)  # the same cells, weights, scales, ‖m_k‖² and dim
        return cls(q, moved[0], dict(zip(by_class, moved[1:])), coords)

    def _add_image(self, g: np.ndarray, z: np.ndarray):
        """Add to ``z`` the images of its items' span coordinates ``g``."""
        if isinstance(self.q, np.ndarray):
            z += np.matmul(g, self.q).reshape(z.shape)
        else:
            z += (self.q[0] @ g @ self.q[1])[:, None] / math.sqrt(z.shape[1])

    def project(self, noise: np.ndarray) -> Tensor4:
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
        if not np.isfinite(u).all():
            raise DomainError("span coordinates overflow float64")
        return Tensor4(u, checked=True)

    def reconstruct(self, u: Tensor4, noise: np.ndarray) -> Tensor4:
        """The images of the states ``u``, made in the ``noise`` that
        ``project`` left; ``DomainError`` when one is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            noise *= u.data[:, :, -1:, -1:]
            self._add_image(u.data[:, 0, :-1, :-1], noise)
        if not np.isfinite(noise).all():
            raise DomainError("sampler state overflows float64")
        return Tensor4(noise, checked=True)

    def block(self, b: int, condition) -> "Span":
        side = self.mix if condition is None else self.class_mixture(condition)
        return replace(self, side=side, index=[_atom_index(m.cells, b, self.mix.n_atoms) for m in (self.mix, side)])

    def cond(self, u: Tensor4, sigma: float, condition=None) -> Tensor4:
        return self._predict(u, sigma, [self.side], 0.0)

    def guided(self, u: Tensor4, sigma: float, condition, cfg: GuidanceConfig) -> Tensor4:
        return self._predict(u, sigma, [self.mix, self.side], cfg.scales[0] - 1.0)

    def _predict(self, u: Tensor4, sigma: float, sides: list, shift: float) -> Tensor4:
        with np.errstate(over="ignore", invalid="ignore"):
            weights = _side_weights(u.data.reshape(u.dims[0], -1), sigma, sides)
            c = [_to_atoms(w, i, self.mix.n_atoms) for (w, _), i in zip(weights, self.index[-len(sides) :])]
            coef = np.hstack([c[-1] + shift * (c[-1] - c[0]), c[-1] - c[0]])
            return _checked(_atom_product(coef, self.basis, weights[-1][1], u.data), sigma)
