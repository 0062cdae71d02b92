"""Dominant-weight k-way image mixing with additive isotropic Laplace noise.

A mixed pseudo-image targets one label: the anchor image (drawn from the
target class) always receives the largest weight, the label is never mixed,
and iid Laplace noise is added per pixel. Output pixels are never clamped,
so the noise distribution stays untouched.
"""

from __future__ import annotations

import enum
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
    u = rng.random(d) - 0.5
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


def dp_labelhide(source: ClientDataset, target_label: int, cfg: DpMixConfig,
                 rng: np.random.Generator, *, weights: Sequence[float] | None = None,
                 record: list[MixRecord] | None = None) -> np.ndarray:
    """Produce one k-way mixed (H, W, Ch) float32 pseudo-image for `target_label`.

    The anchor is drawn uniformly from the target class and takes the largest
    weight; the other k-1 images are drawn without replacement from the rest
    of the source (any label). The label is never mixed: the caller labels the
    image `target_label`. `weights` overrides sampling (tests and calibration);
    `record`, when given, receives an audit entry for the selection.
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

    anchor = int(anchors[rng.integers(anchors.size)])
    pool = np.delete(np.arange(len(source)), anchor)
    fillers = rng.choice(pool, size=k - 1, replace=False)

    if weights is None:
        w = sample_weight_matrix(k, cfg.weight_mode, rng, 1)[0]
    else:
        w = np.asarray(weights, dtype=np.float64)
        if (w.shape != (k,) or np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1e-9
                or np.any(np.diff(w) > 0)):
            raise MixupError(f"forced weights must be {k} non-negative weights summing "
                             f"to 1, sorted non-increasing; got {w}")

    rows = source.pixels[[anchor, *fillers]]
    # Accumulate in float32, term by term, so the sigma=0 output is bitwise
    # reproducible by a plain loop oracle.
    mixed = np.zeros(rows.shape[1:], dtype=np.float32)
    for wi, row in zip(w, rows):
        mixed += np.float32(wi) * row
    if cfg.sigma > 0:
        eta = sample_laplace(mixed.size, cfg.sigma, rng).reshape(mixed.shape)
        mixed = mixed + eta.astype(np.float32)

    if record is not None:
        record.append(MixRecord(anchor, tuple(int(i) for i in fillers), w.copy()))
    return mixed
