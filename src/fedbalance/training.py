"""FedAvg training over client datasets with small hand-differentiated models.

Models are a flat float32 parameter vector plus a layer schema (Dense,
Conv3x3, MaxPool2, ReLU, terminal Softmax). Forward/backward are written
directly in numpy and are dtype-generic so gradient checks can run on 64-bit
shadow parameters. Every shuffle and participation draw flows through named
seed streams, which makes full runs reproducible bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .datasets import ClientDataset
from .seeding import rng_for


class TrainingError(ValueError):
    pass


class ShapeMismatch(TrainingError):
    pass


class NonFiniteGradient(TrainingError):
    pass


class SchemaMismatch(TrainingError):
    pass


class NonFiniteParam(TrainingError):
    pass


@dataclass(frozen=True)
class Dense:
    in_features: int
    out_features: int


@dataclass(frozen=True)
class Conv3x3:
    in_channels: int
    out_channels: int


@dataclass(frozen=True)
class MaxPool2:
    pass


@dataclass(frozen=True)
class ReLU:
    pass


@dataclass(frozen=True)
class Softmax:
    pass


Layer = Union[Dense, Conv3x3, MaxPool2, ReLU, Softmax]


def _weight_shape(layer: Layer) -> tuple[int, ...] | None:
    """(in, out) for Dense, (3, 3, in, out) for Conv3x3, None for layers
    without parameters; the bias is as long as the last dimension."""
    if isinstance(layer, Dense):
        return (layer.in_features, layer.out_features)
    if isinstance(layer, Conv3x3):
        return (3, 3, layer.in_channels, layer.out_channels)
    return None


def layer_param_count(layer: Layer) -> int:
    shape = _weight_shape(layer)
    return 0 if shape is None else math.prod(shape) + shape[-1]


def schema_param_count(schema: Sequence[Layer]) -> int:
    return sum(layer_param_count(layer) for layer in schema)


@dataclass
class ModelParams:
    """Layer schema plus the flat parameter vector backing it."""

    schema: tuple[Layer, ...]
    flat: np.ndarray

    def copy(self) -> "ModelParams":
        return ModelParams(self.schema, self.flat.copy())


def _param_views(schema: Sequence[Layer], flat: np.ndarray) -> list[tuple | None]:
    """Per-layer (W, b) views into the flat vector; None for parameterless layers."""
    views: list[tuple | None] = []
    offset = 0
    for layer in schema:
        shape = _weight_shape(layer)
        if shape is None:
            views.append(None)
            continue
        n_w = math.prod(shape)
        views.append((flat[offset:offset + n_w].reshape(shape),
                      flat[offset + n_w:offset + n_w + shape[-1]]))
        offset += n_w + shape[-1]
    if offset != flat.size:
        raise SchemaMismatch(f"flat vector holds {flat.size} params, schema needs {offset}")
    return views


def init_model(schema: Sequence[Layer], seed: int, dtype=np.float32) -> ModelParams:
    """Glorot-uniform weights, zero biases; deterministic under seed."""
    schema = tuple(schema)
    flat = np.zeros(schema_param_count(schema), dtype=dtype)
    rng = np.random.default_rng(seed)
    for view in _param_views(schema, flat):
        if view is None:
            continue
        w, b = view
        taps = math.prod(w.shape[:-2])   # 1 for Dense, 9 for Conv3x3
        limit = math.sqrt(6.0 / (taps * w.shape[-2] + taps * w.shape[-1]))
        w[...] = rng.uniform(-limit, limit, size=w.shape).astype(dtype)
        b[...] = 0
    return ModelParams(schema, flat)


@functools.lru_cache(maxsize=16)
def _pool_rows(b: int, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices into a batch's (B*H*W, C) pixel rows for 2x2 max pooling.

    `gather` lists every window's pixel at corner (0,0), then at (0,1),
    (1,0) and (1,1): a raveled (4, B, H//2, W//2) array. `scatter` gives each
    pixel's place in `gather`, or `gather.size` for an odd last row or
    column, which no window covers. They depend only on the shape, so they
    are cached, and read-only.
    """
    h2, w2 = h // 2, w // 2
    corner = np.arange(2).reshape(2, 1, 1, 1) * w + np.arange(2).reshape(1, 2, 1, 1)
    window = np.arange(h2).reshape(h2, 1) * (2 * w) + np.arange(w2) * 2
    per_image = (corner + window).reshape(4, 1, h2 * w2)
    gather = (per_image + (np.arange(b) * (h * w)).reshape(1, b, 1)).ravel()
    scatter = np.full(b * h * w, gather.size)
    scatter[gather] = np.arange(gather.size)
    gather.flags.writeable = False
    scatter.flags.writeable = False
    return gather, scatter


def _pool_forward(x: np.ndarray):
    # One `take` of whole C-float pixel rows copies out the four corners; a
    # strided copy per corner would move them C floats at a time.
    # A corner replaces the running winner only when strictly larger, so ties
    # go to the first maximum in corner order (argmax's rule). The output is
    # selected bitwise, so it is the winning element itself, sign of zero
    # included (NaN inputs aside, where argmax would pick the first NaN).
    b, h, w, c = x.shape
    gather, _ = _pool_rows(b, h, w)
    corners = np.take(x.reshape(-1, c), gather, axis=0).reshape(4, b, h // 2, w // 2, c)
    bits = np.dtype(f"u{x.itemsize}")
    out = corners[0].copy()
    out_bits = out.view(bits)
    winner = np.zeros(out.shape, dtype=np.int8)
    for k, corner in enumerate(corners[1:], start=1):
        larger = corner > out
        out_bits ^= (out_bits ^ corner.view(bits)) & -larger.astype(bits)
        np.maximum(winner, larger * np.int8(k), out=winner)
    return out, (x.shape, winner)


def _pool_backward(dout: np.ndarray, cache) -> np.ndarray:
    # Each corner's masked share of dout fills its block of a corner-major
    # buffer whose extra last row stays zero; one `take` through `scatter`
    # then puts every pixel row in place, an uncovered pixel reading zeros.
    (b, h, w, c), winner = cache
    _, scatter = _pool_rows(b, h, w)
    bits = np.dtype(f"u{dout.itemsize}")
    dout_bits = np.ascontiguousarray(dout).view(bits)
    shares = np.zeros((4 * math.prod(winner.shape[:3]) + 1, c), dtype=bits)
    blocks = shares[:-1].reshape(4, *winner.shape)
    for k in range(4):
        np.bitwise_and(dout_bits, -(winner == k).astype(bits), out=blocks[k])
    return np.take(shares, scatter, axis=0).view(dout.dtype).reshape(b, h, w, c)


def _conv_taps(h: int, w: int):
    """For each 3x3 tap dy*3+dx, the output rows/cols whose shifted source
    pixel lies inside an (h, w) image, and those source rows/cols."""
    for dy in range(3):
        for dx in range(3):
            y0, y1 = max(0, 1 - dy), min(h, h + 1 - dy)
            x0, x1 = max(0, 1 - dx), min(w, w + 1 - dx)
            yield (dy * 3 + dx, (slice(y0, y1), slice(x0, x1)),
                   (slice(y0 + dy - 1, y1 + dy - 1), slice(x0 + dx - 1, x1 + dx - 1)))


def _im2col(x: np.ndarray) -> np.ndarray:
    """(B, H, W, C) -> (B*H*W, 9*C) patch matrix for same-padded 3x3 convs.

    With several channels, one copy of a zero-padded batch's 3x3 windows in
    (B, H, W, dy, dx, C) order moves runs of 3*C floats. With one channel
    those runs would be 3 floats, so nine clipped tap copies, each moving runs
    of W pixels, stay faster. At batch 128 on a 2-core x86 VM: 10x10x1 takes
    ~170 us as taps against ~300-400 us as a window copy; 5x5x8 takes
    ~100-180 us as a window copy against ~220-270 us as taps.
    """
    b, h, w, c = x.shape
    if c == 1:
        cols = np.zeros((b, h, w, 9, c), dtype=x.dtype)
        for tap, (oy, ox), (sy, sx) in _conv_taps(h, w):
            cols[:, oy, ox, tap, :] = x[:, sy, sx, :]
        return cols.reshape(b * h * w, 9 * c)
    padded = np.zeros((b, h + 2, w + 2, c), dtype=x.dtype)
    padded[:, 1:-1, 1:-1, :] = x
    windows = sliding_window_view(padded, (3, 3), axis=(1, 2))   # (B, H, W, C, 3, 3)
    return np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3)).reshape(
        b * h * w, 9 * c)


def _conv_forward(x: np.ndarray, cols: np.ndarray, w: np.ndarray,
                  bias: np.ndarray) -> np.ndarray:
    # The bias is tiled once per pixel and added over whole-image rows: one
    # inner loop per image rather than one per pixel, same bits.
    b, h, width, c_in = x.shape
    c_out = w.shape[-1]
    out = (cols @ w.reshape(9 * c_in, c_out)).reshape(b, h * width * c_out)
    out += np.tile(bias, h * width)
    return out.reshape(b, h, width, c_out)


def _conv_input_grad(dout: np.ndarray, w: np.ndarray) -> np.ndarray:
    """col2im of dout @ W^T; each input pixel sums its taps in dy, dx order.

    One GEMM gives every tap's block, with the bits of one GEMM per tap.
    Each block is then added in one run over the flat pixel axis, shifted by
    its tap's offset. Its entries whose source pixel lies outside the image
    would land on a neighbouring row or image, so they are zeroed first:
    adding +0.0 to a sum that started at +0.0 changes no bit, since such a
    sum is never -0.0.
    """
    b, h, width, c_out = dout.shape
    c_in = w.shape[2]
    n = b * h * width
    dcols = (dout.reshape(n, c_out) @ w.reshape(9 * c_in, c_out).T).reshape(n, 9, c_in)
    grad = np.zeros((n, c_in), dtype=dout.dtype)
    for tap in range(9):
        dy, dx = divmod(tap, 3)
        block = np.take(dcols, tap, axis=1)     # a contiguous (N, C_in) copy
        pixels = block.reshape(b, h, width, c_in)
        if dy != 1:
            pixels[:, 0 if dy == 0 else -1] = 0
        if dx != 1:
            pixels[:, :, 0 if dx == 0 else -1] = 0
        shift = (dy - 1) * width + dx - 1
        if shift >= 0:
            grad[shift:] += block[:n - shift]
        else:
            grad[:shift] += block[-shift:]
    return grad.reshape(b, h, width, c_in)


_GEMM_Q = 448   # the K rows per block of OpenBLAS's sgemm drivers (see below)


def _weight_grad(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a.T @ b, with the bits OpenBLAS's threaded driver gives.

    Of the model's products, only this one, whose inner dimension K runs
    over the batch's rows, changes bits with the BLAS thread count. Both
    drivers add K in blocks of 448 rows and halve a remainder of 449-895
    rows, but the threaded driver rounds that half up to an integer and the
    serial one to a multiple of 8 (K = 2,900 ends blocks at 2570 against
    2576). Where OpenBLAS takes its blocked threaded path (M*N*K > 10**6,
    except outputs of at most 16 x 24, which take one pass that no thread
    count changes), one GEMM per block in the threaded driver's order,
    summed in that order, gives its bits at any thread count. The sizes are
    those of the pinned build (numpy 2.4.6's OpenBLAS 0.3.31, SkylakeX core);
    `test_weight_grad_at_one_thread_matches_the_two_thread_product` checks
    them there.
    """
    k, m = a.shape
    n = b.shape[1]
    if m * n * k <= 1_000_000 or (m <= 16 and n <= 24):
        return a.T @ b
    out = None
    start = 0
    while start < k:
        rows = k - start
        if rows >= 2 * _GEMM_Q:
            rows = _GEMM_Q
        elif rows > _GEMM_Q:
            rows = (rows + 1) // 2
        block = a[start:start + rows].T @ b[start:start + rows]
        if out is None:
            out = block
        else:
            out += block
        start += rows
    return out


def patch_rows(x: np.ndarray, dtype) -> np.ndarray:
    """Each image's layer-0 `_im2col` rows, cast to `dtype`, as one
    (N, H*W*9*C) row per image.

    `_im2col` only copies pixels, so the patch rows of a batch `x[idx]` are
    `patch_rows(x, dtype)[idx]`, bit for bit.
    """
    n, h, w, c = x.shape
    return _im2col(np.asarray(x, dtype=dtype)).reshape(n, h * w * 9 * c)


def forward(params: ModelParams, x: np.ndarray,
            patches: np.ndarray | None = None) -> tuple[np.ndarray, list]:
    """Run the schema over a batch of inputs; returns (logits, cache).

    Dense layers flatten whatever rank they receive; Conv3x3 expects
    (batch, H, W, channels). The terminal Softmax marker is a no-op here;
    loss and gradients use it through softmax_cross_entropy. `patches`, when
    given, are the batch's `patch_rows` in the parameters' dtype and stand in
    for layer 0's `_im2col`.
    """
    views = _param_views(params.schema, params.flat)
    act = np.asarray(x, dtype=params.flat.dtype)
    cache: list = []
    for i, (layer, view) in enumerate(zip(params.schema, views)):
        if isinstance(layer, Dense):
            flat_in = act.reshape(act.shape[0], -1)
            if flat_in.shape[1] != layer.in_features:
                raise ShapeMismatch(
                    f"Dense expects {layer.in_features} features, got {flat_in.shape[1]}")
            w, b = view
            cache.append((act.shape, flat_in))
            act = flat_in @ w + b
        elif isinstance(layer, Conv3x3):
            if act.ndim != 4 or act.shape[3] != layer.in_channels:
                raise ShapeMismatch(
                    f"Conv3x3 expects (B,H,W,{layer.in_channels}), got {act.shape}")
            w, b = view
            if i or patches is None:
                cols = _im2col(act)
            else:
                cols = patches.reshape(-1, 9 * layer.in_channels)
            cache.append(cols)
            act = _conv_forward(act, cols, w, b)
        elif isinstance(layer, MaxPool2):
            act, pool_cache = _pool_forward(act)
            cache.append(pool_cache)
        elif isinstance(layer, ReLU):
            cache.append(act > 0)
            act = np.maximum(act, 0)
        elif isinstance(layer, Softmax):
            cache.append(None)
        else:
            raise SchemaMismatch(f"unknown layer {layer!r}")
    return act, cache


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its gradient w.r.t. the logits."""
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = -log_probs[np.arange(n), labels].mean()
    dlogits = np.exp(log_probs)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return float(loss), dlogits


def loss_and_grad(params: ModelParams, x: np.ndarray, labels: np.ndarray,
                  patches: np.ndarray | None = None):
    """One forward/backward pass: (mean cross-entropy, flat gradient)."""
    logits, cache = forward(params, x, patches)
    loss, delta = softmax_cross_entropy(logits, labels)
    return loss, _backward_from_delta(params, delta, cache)


def _backward_from_delta(params: ModelParams, delta: np.ndarray,
                         cache: list) -> np.ndarray:
    views = _param_views(params.schema, params.flat)
    grad_flat = np.zeros_like(params.flat)
    grad_views = _param_views(params.schema, grad_flat)
    # The input gradient of layer 0 would be discarded, so it is not computed.
    for i in range(len(params.schema) - 1, -1, -1):
        layer = params.schema[i]
        if isinstance(layer, Dense):
            in_shape, flat_in = cache[i]
            w, _ = views[i]
            gw, gb = grad_views[i]
            gw[...] = _weight_grad(flat_in, delta)
            gb[...] = delta.sum(axis=0)
            if i:
                delta = (delta @ w.T).reshape(in_shape)
        elif isinstance(layer, Conv3x3):
            w, _ = views[i]
            gw, gb = grad_views[i]
            dout2d = delta.reshape(-1, w.shape[-1])
            gw[...] = _weight_grad(cache[i], dout2d).reshape(w.shape)
            # einsum adds the rows in order, as sum(axis=0) does, but runs
            # one inner loop over the whole array rather than one per row.
            gb[...] = np.einsum("nc->c", dout2d)
            if i:
                delta = _conv_input_grad(delta, w)
        elif isinstance(layer, MaxPool2):
            delta = _pool_backward(delta, cache[i])
        elif isinstance(layer, ReLU):
            delta = delta * cache[i]
        elif isinstance(layer, Softmax):
            continue
    return grad_flat


@dataclass
class OptState:
    """Adam moments and hyperparameters for one flat parameter vector."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float32))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float32))
    step: int = 0

    @classmethod
    def fresh(cls, n_params: int, lr: float = 0.001, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8,
              dtype=np.float32) -> "OptState":
        return cls(lr, beta1, beta2, eps,
                   np.zeros(n_params, dtype=dtype), np.zeros(n_params, dtype=dtype), 0)


def adam_step(flat: np.ndarray, grads: np.ndarray, opt: OptState) -> np.ndarray:
    """Standard bias-corrected Adam update; mutates opt, returns new params."""
    if not np.all(np.isfinite(grads)):
        raise NonFiniteGradient("gradient contains NaN or Inf")
    if flat.shape != grads.shape:
        raise ShapeMismatch(f"params {flat.shape} vs grads {grads.shape}")
    opt.step += 1
    opt.m = opt.beta1 * opt.m + (1.0 - opt.beta1) * grads
    opt.v = opt.beta2 * opt.v + (1.0 - opt.beta2) * grads * grads
    m_hat = opt.m / (1.0 - opt.beta1 ** opt.step)
    v_hat = opt.v / (1.0 - opt.beta2 ** opt.step)
    return flat - np.asarray(opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps),
                             dtype=flat.dtype)


def fedavg_aggregate(client_params: Sequence[ModelParams],
                     weights: Sequence[float]) -> ModelParams:
    """Elementwise weighted mean of client parameter vectors.

    Accumulates in float64 so the result stays inside the elementwise convex
    hull of the inputs after the cast back to the parameter dtype.
    """
    if not client_params:
        raise SchemaMismatch("no client params to aggregate")
    schema = client_params[0].schema
    for p in client_params[1:]:
        if p.schema != schema:
            raise SchemaMismatch("client schemas differ")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (len(client_params),):
        raise SchemaMismatch(f"{len(client_params)} clients vs weights {w.shape}")
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-6:
        raise TrainingError(f"weights must be nonnegative and sum to 1, got {w}")
    w = w / w.sum()
    acc = np.zeros(client_params[0].flat.size, dtype=np.float64)
    for wi, p in zip(w, client_params):
        if not np.all(np.isfinite(p.flat)):
            raise NonFiniteParam("client parameters contain NaN or Inf")
        acc += wi * p.flat.astype(np.float64)
    return ModelParams(schema, acc.astype(client_params[0].flat.dtype))


def _chunk_bounds(n: int, size: int) -> list[int]:
    """Boundaries 0, size, 2*size, ..., n of evaluation chunks.

    A one-image remainder joins the chunk before it (129 images at size 128
    make one chunk): a one-image forward goes through gemv, whose logits may
    differ in their last bits from the same image's inside a batch.
    """
    bounds = list(range(0, n, size)) + [n]
    if len(bounds) > 2 and n - bounds[-2] == 1:
        del bounds[-2]
    return bounds


# Images per evaluation forward: a desk training batch, so the forward cache
# is no larger than a training step's. Keep it fixed: under OpenBLAS's Haswell
# kernels a forward's logits depend on its row count, and so would the outputs.
EVAL_CHUNK = 128


def count_correct(params: ModelParams, x: np.ndarray, labels: np.ndarray,
                  bounds: Sequence[int], patches: np.ndarray | None = None) -> int:
    """Correct top-1 predictions over the chunks [bounds[i], bounds[i+1]);
    `patches` are x's `patch_rows`, when built."""
    correct = 0
    for start, stop in zip(bounds, bounds[1:]):
        logits, _ = forward(params, x[start:stop],
                            None if patches is None else patches[start:stop])
        correct += int((logits.argmax(axis=1) == labels[start:stop]).sum())
    return correct


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 128
    local_epochs: int = 1
    participation_fraction: float = 1.0
    seed: int = 0


@dataclass(frozen=True)
class RoundReport:
    round_index: int
    test_accuracy: float
    client_losses: tuple[float, ...]
    mean_train_loss: float


def local_train(global_params: ModelParams, x: np.ndarray, y: np.ndarray,
                cfg: TrainConfig, rng: np.random.Generator,
                patches: np.ndarray | None = None) -> tuple[ModelParams, float]:
    """Local epochs of Adam on images `x` (scaled to [0, 1]) and labels `y`
    from fresh optimizer state; returns (params, mean loss). `patches` are
    x's `patch_rows`, when built."""
    params = global_params.copy()
    opt = OptState.fresh(params.flat.size, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps,
                         dtype=params.flat.dtype)
    n = len(y)
    losses = []
    for _ in range(cfg.local_epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            rows = None if patches is None else np.take(patches, idx, axis=0)
            loss, grad = loss_and_grad(params, x[idx], y[idx], rows)
            params.flat = adam_step(params.flat, grad, opt)
            losses.append(loss)
    return params, float(np.mean(losses)) if losses else 0.0


def run_round(global_params: ModelParams, clients: Sequence[ClientDataset],
              test_pixels: np.ndarray, test_labels: np.ndarray, cfg: TrainConfig,
              round_index: int) -> tuple[ModelParams, RoundReport]:
    """One communication round: broadcast, local training, weighted averaging.

    `clients` and `test_pixels` hold unscaled pixels. Aggregation weights are
    proportional to each participant's local dataset size (pseudo-images
    included). Local training and evaluation run in the worker processes of
    `fedbalance.workers`, which are sent the clients and the test set once and
    keep scaled copies, so no array may change in place between rounds (an
    `add` rebinds them, and is dealt again). Participants are drawn and
    averaged in client-id order, and each client's shuffle stream is derived
    from (seed, round, client id), so neither the order of `clients` nor the
    order in which workers finish changes a result.
    """
    from . import workers

    clients = sorted(clients, key=lambda c: c.client_id)
    if cfg.participation_fraction < 1.0:
        n_pick = max(1, math.ceil(cfg.participation_fraction * len(clients)))
        pick_rng = rng_for(cfg.seed, "participation", round_index)
        chosen = sorted(pick_rng.choice(len(clients), size=n_pick, replace=False))
        participants = [clients[i] for i in chosen]
    else:
        participants = clients

    pool = workers.pool()
    pool.deal(clients, test_pixels, test_labels,
              (global_params.schema, global_params.flat.dtype))
    trained = pool.train(global_params, cfg, round_index,
                         [c.client_id for c in participants])
    losses = [trained[c.client_id][1] for c in participants]
    sizes = np.array([len(c) for c in participants], dtype=np.float64)
    new_global = fedavg_aggregate(
        [ModelParams(global_params.schema, trained[c.client_id][0]) for c in participants],
        sizes / sizes.sum())
    accuracy = pool.count_correct(new_global) / len(test_labels)
    report = RoundReport(round_index, accuracy, tuple(losses), float(np.mean(losses)))
    return new_global, report


def build_model(name: str, input_dims: tuple[int, int, int],
                num_classes: int) -> tuple[Layer, ...]:
    """Schemas for the three desk-scale models: logreg, mlp, cnn."""
    h, w, ch = input_dims
    flat = h * w * ch
    if name == "logreg":
        return (Dense(flat, num_classes), Softmax())
    if name == "mlp":
        return (Dense(flat, 256), ReLU(), Dense(256, num_classes), Softmax())
    if name == "cnn":
        h2, w2 = h // 2, w // 2
        h4, w4 = h2 // 2, w2 // 2
        return (Conv3x3(ch, 8), MaxPool2(), ReLU(),
                Conv3x3(8, 16), MaxPool2(), ReLU(),
                Dense(h4 * w4 * 16, num_classes), Softmax())
    raise TrainingError(f"unknown model {name!r}; pick logreg, mlp, or cnn")
