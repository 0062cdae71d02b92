"""Dominant-weight k-way image mixing with additive isotropic Laplace noise.

A mixed pseudo-image targets one label: the anchor image (drawn from the
target class) always receives the largest weight, the label is never mixed,
and iid Laplace noise is added per pixel. Output pixels are never clamped,
so the noise distribution stays untouched.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .datasets import ClientDataset

DOMINANT_LOW = 0.5
DOMINANT_HIGH = 0.75


class MixupError(ValueError):
    pass


class InsufficientLabel(MixupError):
    pass


class InsufficientPool(MixupError):
    pass


class WeightMode(enum.Enum):
    SIMPLEX_SORTED = "simplex_sorted"
    DOMINANT_UNIFORM = "dominant_uniform"


@dataclass(frozen=True)
class DpMixConfig:
    k: int = 4
    sigma: float = 50.0
    weight_mode: WeightMode = WeightMode.DOMINANT_UNIFORM

    def validate(self) -> None:
        if self.k < 2:
            raise MixupError(f"mix width k must be >= 2, got {self.k}")
        if not np.isfinite(self.sigma) or self.sigma < 0:
            raise MixupError(f"sigma must be finite and >= 0, got {self.sigma}")


def sample_weight_matrix(k: int, mode: WeightMode, rng: np.random.Generator,
                         n: int) -> np.ndarray:
    """Draw n weight vectors at once: each row is k convex weights, sorted
    non-increasing.

    SimplexSorted: uniform on the probability simplex (normalized exponentials),
    sorted descending. DominantUniform: first entry ~ U[0.5, 0.75], remainder a
    scaled uniform simplex draw sorted descending among itself.
    """
    if k < 1:
        raise MixupError(f"k must be >= 1, got {k}")
    if k == 1:
        return np.ones((n, 1), dtype=np.float64)
    if mode is WeightMode.SIMPLEX_SORTED:
        gaps = rng.standard_exponential((n, k))
        w = gaps / gaps.sum(axis=1, keepdims=True)
        return -np.sort(-w, axis=1)
    if mode is WeightMode.DOMINANT_UNIFORM:
        w0 = rng.uniform(DOMINANT_LOW, DOMINANT_HIGH, size=n)
        gaps = rng.standard_exponential((n, k - 1))
        rest = gaps / gaps.sum(axis=1, keepdims=True) * (1.0 - w0)[:, None]
        rest = -np.sort(-rest, axis=1)
        return np.concatenate([w0[:, None], rest], axis=1)
    raise MixupError(f"unknown weight mode {mode!r}")


def sample_laplace(d: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """iid Laplace(0, sigma) coordinates via the inverse CDF.

    eta_i = -sigma * sign(u) * ln(1 - 2|u|) with u ~ U(-1/2, 1/2).
    """
    if sigma < 0:
        raise MixupError(f"sigma must be >= 0, got {sigma}")
    return _laplace(rng.random(d), sigma)


def _laplace(uniform: np.ndarray, sigma: float) -> np.ndarray:
    """`sample_laplace`'s noise from its U[0, 1) draws, elementwise."""
    u = uniform - 0.5
    # u = -0.5 has probability 2^-53; the clamp keeps log finite without
    # disturbing the distribution.
    inner = np.maximum(1.0 - 2.0 * np.abs(u), np.finfo(np.float64).tiny)
    return -sigma * np.sign(u) * np.log(inner)


@dataclass(frozen=True)
class MixRecord:
    """Audit record of one mix: which source images, with which weights."""

    anchor_index: int
    filler_indices: tuple[int, ...]
    weights: np.ndarray


def mix_block(source: ClientDataset, target_label: int, cfg: DpMixConfig,
              rngs: Sequence[np.random.Generator], *,
              weights: Sequence[float] | None = None,
              record: list[MixRecord] | None = None) -> np.ndarray:
    """One k-way mixed pseudo-image for `target_label` per stream:
    (len(rngs), H, W, Ch) float32.

    Row i is `dp_labelhide(source, target_label, cfg, rngs[i])`, bit for
    bit: each stream makes that call's draws in its order (anchor, fillers,
    weights, then the noise's uniforms), and the arithmetic then runs once
    over the block, elementwise as for one image. The anchor is drawn
    uniformly from the target class and takes the largest weight; the other
    k-1 images are drawn without replacement from the rest of the source
    (any label). The label is never mixed: the caller labels the images
    `target_label`. `weights` overrides sampling for every row (tests and
    calibration); `record`, when given, receives an audit entry per row.
    """
    cfg.validate()
    k = cfg.k
    anchors = np.flatnonzero(source.labels == target_label)
    if anchors.size == 0:
        raise InsufficientLabel(
            f"client {source.client_id} holds no example with label {target_label}")
    if len(source) < k:
        raise InsufficientPool(
            f"client {source.client_id} holds {len(source)} examples, need {k}")
    if weights is not None:
        forced = np.asarray(weights, dtype=np.float64)
        if (forced.shape != (k,) or np.any(forced < 0) or abs(float(forced.sum()) - 1.0) > 1e-9
                or np.any(np.diff(forced) > 0)):
            raise MixupError(f"forced weights must be {k} non-negative weights summing "
                             f"to 1, sorted non-increasing; got {forced}")

    n = len(rngs)
    shape = source.pixels.shape[1:]
    picks = np.empty((k, n), dtype=np.int64)        # anchor, then fillers, per row
    w = np.empty((k, n), dtype=np.float64)
    uniform = np.empty((n, math.prod(shape)), dtype=np.float64)
    for i, rng in enumerate(rngs):
        anchor = anchors[rng.integers(anchors.size)]
        # a choice among the other len(source) - 1 indices, as over
        # np.delete(np.arange(len(source)), anchor)
        fillers = rng.choice(len(source) - 1, size=k - 1, replace=False)
        picks[0, i], picks[1:, i] = anchor, fillers + (fillers >= anchor)
        w[:, i] = (sample_weight_matrix(k, cfg.weight_mode, rng, 1)[0]
                   if weights is None else forced)
        if cfg.sigma > 0:
            rng.random(out=uniform[i])

    rows = source.pixels[picks]                     # (k, n, H, W, Ch)
    weight32 = w.astype(np.float32).reshape(k, n, *(1,) * len(shape))
    # Accumulate in float32, term by term, so the sigma=0 output is bitwise
    # reproducible by a plain loop oracle.
    mixed = np.zeros((n, *shape), dtype=np.float32)
    for weight, row in zip(weight32, rows):
        mixed += weight * row
    if cfg.sigma > 0:
        with np.errstate(over="ignore"):   # an overflow is reported below
            mixed += _laplace(uniform, cfg.sigma).astype(np.float32).reshape(mixed.shape)
        if not np.isfinite(mixed).all():
            raise MixupError(f"sigma {cfg.sigma} noises a pixel past the float32 range")

    if record is not None:
        record += [MixRecord(int(picks[0, i]), tuple(int(j) for j in picks[1:, i]),
                             w[:, i].copy()) for i in range(n)]
    return mixed


def dp_labelhide(source: ClientDataset, target_label: int, cfg: DpMixConfig,
                 rng: np.random.Generator, *, weights: Sequence[float] | None = None,
                 record: list[MixRecord] | None = None) -> np.ndarray:
    """Produce one k-way mixed (H, W, Ch) float32 pseudo-image for
    `target_label`: `mix_block` over the one stream `rng`, whose `weights`
    and `record` these are.
    """
    return mix_block(source, target_label, cfg, [rng], weights=weights, record=record)[0]
