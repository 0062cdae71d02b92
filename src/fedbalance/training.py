"""FedAvg training over client datasets with small hand-differentiated models.

Models are a flat float32 parameter vector plus a layer schema (Dense,
Conv3x3, MaxPool2, ReLU, terminal Softmax). Forward/backward are written
directly in numpy and are dtype-generic so gradient checks can run on 64-bit
shadow parameters; a step plan settles, once per batch size, each layer's
dispatch, parameter views and buffers. Every shuffle and participation draw
flows through named seed streams, which makes full runs reproducible bit for
bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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


class WorkerDied(TrainingError):
    """A worker process ended, or its pipe broke, before it replied."""


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


class _Pool:
    """2x2 max pooling of (B, H, W, C) batches of one shape and dtype, into
    buffers made once.

    One `take` of whole C-float pixel rows copies out the four corners; a
    strided copy per corner would move them C floats at a time. A corner
    replaces the running winner only when strictly larger, so ties go to the
    first maximum in corner order (argmax's rule). The output is selected
    bitwise, so it is the winning element itself, sign of zero included (NaN
    inputs aside, where argmax would pick the first NaN). The cache is the
    int8 winner index per output element.

    Backward writes each corner's masked share of dout into its block of a
    corner-major buffer whose extra last row stays zero; one `take` through
    `scatter` then puts every pixel row in place, an uncovered pixel reading
    zeros.
    """

    def __init__(self, shape: tuple[int, ...], dtype):
        b, h, w, c = shape
        self.gather, self.scatter = _pool_rows(b, h, w)
        bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
        out_shape = (b, h // 2, w // 2, c)
        # The corners that forward copies out and the shares that backward
        # writes take turns in one buffer, whose last row no one writes.
        self.shares = np.empty((4 * math.prod(out_shape[:3]) + 1, c), dtype=bits)
        self.shares[-1] = 0
        self.blocks = self.shares[:-1].reshape(4, *out_shape)
        self.corners = self.blocks.view(dtype)
        self.out = np.empty(out_shape, dtype=dtype)
        self.out_bits = self.out.view(bits)
        self.larger = np.empty(out_shape, dtype=bool)
        self.mask = np.empty(out_shape, dtype=bits)
        self.diff = np.empty(out_shape, dtype=bits)
        self.winner = np.empty(out_shape, dtype=np.int8)
        self.dx = np.empty(shape, dtype=dtype)
        self.dx_rows = self.dx.view(bits).reshape(-1, c)

    def forward(self, x: np.ndarray):
        x.reshape(-1, x.shape[-1]).take(self.gather, axis=0, mode="clip",
                                        out=self.corners.reshape(-1, x.shape[-1]))
        np.copyto(self.out, self.corners[0])
        self.winner.fill(0)
        for k in range(1, 4):
            np.greater(self.corners[k], self.out, out=self.larger)
            np.negative(self.larger, dtype=self.mask.dtype, out=self.mask)
            np.bitwise_xor(self.out_bits, self.blocks[k], out=self.diff)
            self.diff &= self.mask
            self.out_bits ^= self.diff
            np.maximum(self.winner, self.larger * np.int8(k), out=self.winner)
        return self.out, self.winner

    def backward(self, dout: np.ndarray, winner: np.ndarray) -> np.ndarray:
        dout_bits = np.ascontiguousarray(dout).view(self.mask.dtype)
        for k in range(4):
            np.equal(winner, k, out=self.larger)
            np.negative(self.larger, dtype=self.mask.dtype, out=self.mask)
            np.bitwise_and(dout_bits, self.mask, out=self.blocks[k])
        self.shares.take(self.scatter, axis=0, out=self.dx_rows, mode="clip")
        return self.dx


def _conv_taps(h: int, w: int):
    """For each 3x3 tap dy*3+dx, the output rows/cols whose shifted source
    pixel lies inside an (h, w) image, and those source rows/cols."""
    for dy in range(3):
        for dx in range(3):
            y0, y1 = max(0, 1 - dy), min(h, h + 1 - dy)
            x0, x1 = max(0, 1 - dx), min(w, w + 1 - dx)
            yield (dy * 3 + dx, (slice(y0, y1), slice(x0, x1)),
                   (slice(y0 + dy - 1, y1 + dy - 1), slice(x0 + dx - 1, x1 + dx - 1)))


class _Im2col:
    """(B, H, W, C) -> (B*H*W, 9*C) patch matrix for same-padded 3x3 convs,
    for batches of one shape and dtype, into a buffer made once.

    With several channels, one copy of a zero-padded batch's 3x3 windows in
    (B, H, W, dy, dx, C) order moves runs of 3*C floats. With one channel
    those runs would be 3 floats, so nine clipped tap copies, each moving runs
    of W pixels, stay faster. At batch 128 on a 2-core x86 VM: 10x10x1 takes
    ~170 us as taps against ~300-400 us as a window copy; 5x5x8 takes
    ~100-180 us as a window copy against ~220-270 us as taps. The padding,
    and the patch entries no tap covers, are zeroed once and never written.
    """

    def __init__(self, shape: tuple[int, ...], dtype):
        b, h, w, c = shape
        cols = (np.zeros if c == 1 else np.empty)((b, h, w, 9, c), dtype=dtype)
        self.cols = cols.reshape(b * h * w, 9 * c)
        if c == 1:
            self.taps = [(cols[:, oy, ox, tap, :], (slice(None), sy, sx))
                         for tap, (oy, ox), (sy, sx) in _conv_taps(h, w)]
        else:
            padded = np.zeros((b, h + 2, w + 2, c), dtype=dtype)
            self.taps = []
            self.interior = padded[:, 1:-1, 1:-1, :]
            self.windows = sliding_window_view(padded, (3, 3), axis=(1, 2)).transpose(
                0, 1, 2, 4, 5, 3)                          # (B, H, W, dy, dx, C)
            self.window_cols = cols.reshape(b, h, w, 3, 3, c)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.taps:
            for dst, src in self.taps:
                dst[...] = x[src]
        else:
            self.interior[...] = x
            np.copyto(self.window_cols, self.windows)
        return self.cols


class _ConvInputGrad:
    """col2im of dout @ W^T for (B, H, W, C_out) douts of one shape and
    dtype, into buffers made once; each input pixel sums its taps in dy, dx
    order.

    One GEMM gives every tap's block, with the bits of one GEMM per tap.
    Each block is then added in one run over the flat pixel axis, shifted by
    its tap's offset. Its entries whose source pixel lies outside the image
    would land on a neighbouring row or image, so they are zeroed first:
    adding +0.0 to a sum that started at +0.0 changes no bit, since such a
    sum is never -0.0.
    """

    def __init__(self, shape: tuple[int, ...], c_in: int, dtype,
                 dcols: np.ndarray | None = None):
        b, h, width, c_out = shape
        n = b * h * width
        self.dout_shape = (n, c_out)
        self.dcols = np.empty((n, 9 * c_in), dtype=dtype) if dcols is None else dcols
        self.dcol_taps = self.dcols.reshape(n, 9, c_in)
        self.grad = np.empty((b, h, width, c_in), dtype=dtype)
        grad = self.grad.reshape(n, c_in)
        self.block = block = np.empty((n, c_in), dtype=dtype)
        pixels = block.reshape(b, h, width, c_in)
        self.taps = []
        for tap in range(9):
            dy, dx = divmod(tap, 3)
            edges = []
            if dy != 1:
                edges.append(pixels[:, 0 if dy == 0 else -1])
            if dx != 1:
                edges.append(pixels[:, :, 0 if dx == 0 else -1])
            shift = (dy - 1) * width + dx - 1
            if shift >= 0:
                self.taps.append((tap, edges, grad[shift:], block[:n - shift]))
            else:
                self.taps.append((tap, edges, grad[:shift], block[-shift:]))

    def __call__(self, dout: np.ndarray, kernel: np.ndarray) -> np.ndarray:
        np.matmul(dout.reshape(self.dout_shape), kernel.T, out=self.dcols)
        self.grad.fill(0)
        for tap, edges, dst, src in self.taps:
            self.dcol_taps.take(tap, axis=1, out=self.block, mode="clip")
            for edge in edges:
                edge.fill(0)
            dst += src
        return self.grad


_GEMM_Q = 448   # the K rows per block of OpenBLAS's sgemm drivers (see below)


@functools.lru_cache(maxsize=64)
def _gemm_blocks(k: int) -> tuple[slice, ...]:
    """The K row blocks of OpenBLAS's threaded sgemm driver, in its order."""
    blocks = []
    start = 0
    while start < k:
        rows = k - start
        if rows >= 2 * _GEMM_Q:
            rows = _GEMM_Q
        elif rows > _GEMM_Q:
            rows = (rows + 1) // 2
        blocks.append(slice(start, start + rows))
        start += rows
    return tuple(blocks)


def _weight_grad(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a.T @ b, with the bits OpenBLAS's threaded driver gives; into `out`
    when given.

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
        return np.matmul(a.T, b, out=out)
    first, *rest = _gemm_blocks(k)
    out = np.matmul(a[first].T, b[first], out=out)
    for rows in rest:
        out += a[rows].T @ b[rows]
    return out


# The layer steps of a plan. Each is made for one input shape, with views of
# its parameters and of its gradient; `forward` returns its output buffer and
# what its `backward` needs, and `backward` writes the layer's gradient and
# returns the input gradient (None for layer 0, whose input gradient would be
# discarded).

class _DenseStep:
    def __init__(self, layer: Dense, view, grad_view, shape, first: bool):
        batch, features = shape[0], math.prod(shape[1:])
        if features != layer.in_features:
            raise ShapeMismatch(f"Dense expects {layer.in_features} features, got {features}")
        self.in_shape, self.flat_shape = shape, (batch, features)
        self.w, self.b = view
        self.out = np.empty((batch, layer.out_features), dtype=self.w.dtype)
        self.gw, self.gb = grad_view
        self.din = None if first else np.empty(self.flat_shape, dtype=self.w.dtype)

    def forward(self, act: np.ndarray):
        flat_in = act.reshape(self.flat_shape)
        np.matmul(flat_in, self.w, out=self.out)
        self.out += self.b
        return self.out, flat_in

    def backward(self, delta: np.ndarray, flat_in: np.ndarray):
        _weight_grad(flat_in, delta, out=self.gw)
        np.sum(delta, axis=0, out=self.gb)
        if self.din is None:
            return None
        np.matmul(delta, self.w.T, out=self.din)
        return self.din.reshape(self.in_shape)


class _ConvStep:
    """The bias is tiled once per pixel and added over whole-image rows: one
    inner loop per image rather than one per pixel, same bits. The tile is
    refreshed from the bias on every forward, since training moves it."""

    def __init__(self, layer: Conv3x3, view, grad_view, shape, first: bool):
        if len(shape) != 4 or shape[3] != layer.in_channels:
            raise ShapeMismatch(
                f"Conv3x3 expects (B,H,W,{layer.in_channels}), got {shape}")
        b, h, w, c_in = shape
        c_out = layer.out_channels
        weights, self.bias = view
        dtype = weights.dtype
        self.kernel = weights.reshape(9 * c_in, c_out)
        self.im2col = _Im2col(shape, dtype)
        self.out = np.empty((b, h, w, c_out), dtype=dtype)
        self.out_pixels = self.out.reshape(b * h * w, c_out)
        self.out_images = self.out.reshape(b, h * w * c_out)
        self.tile = np.empty(h * w * c_out, dtype=dtype)
        self.tile_pixels = self.tile.reshape(h * w, c_out)
        gw, self.gbias = grad_view
        self.gkernel = gw.reshape(9 * c_in, c_out)
        # With several input channels the window copy rewrites the whole
        # patch matrix, so once the weight gradient has read it, the input
        # gradient's GEMM may write over it.
        self.input_grad = None if first else _ConvInputGrad(
            self.out.shape, c_in, dtype, self.im2col.cols if c_in > 1 else None)

    def forward(self, act: np.ndarray):
        cols = self.im2col(act)
        np.matmul(cols, self.kernel, out=self.out_pixels)
        self.tile_pixels[...] = self.bias
        self.out_images += self.tile
        return self.out, cols

    def backward(self, delta: np.ndarray, cols: np.ndarray):
        dout = delta.reshape(self.out_pixels.shape)
        _weight_grad(cols, dout, out=self.gkernel)
        # einsum adds the rows in order, as sum(axis=0) does, but runs one
        # inner loop over the whole array rather than one per row.
        np.einsum("nc->c", dout, out=self.gbias)
        return None if self.input_grad is None else self.input_grad(delta, self.kernel)


class _ReluStep:
    def __init__(self, shape, dtype):
        self.out = np.empty(shape, dtype=dtype)
        self.mask = np.empty(shape, dtype=bool)
        self.din = np.empty(shape, dtype=dtype)

    def forward(self, act: np.ndarray):
        np.greater(act, 0, out=self.mask)
        np.maximum(act, 0, out=self.out)
        return self.out, self.mask

    def backward(self, delta: np.ndarray, mask: np.ndarray):
        return np.multiply(delta, mask, out=self.din)


class _StepPlan:
    """One forward/backward implementation of a schema, settled for batches
    of `batch` inputs of shape `in_shape` in the parameters' dtype.

    Built once, it holds the per-layer steps in order (the terminal Softmax
    marker is a no-op and gets none), the views of `params.flat` and of its
    own gradient vector, and every buffer a step writes: the gathered batch,
    the layer outputs, the patch buffers, the bias tiles, the pool indices
    and the gradient buffers. A step therefore allocates nearly nothing and
    runs no per-layer dispatch, and `params.flat` may change in place
    between steps (Adam does). Training and evaluation run the same plans.
    Each call overwrites the arrays the previous one returned.
    """

    def __init__(self, params: ModelParams, batch: int, in_shape: tuple[int, ...]):
        dtype = params.flat.dtype
        views = _param_views(params.schema, params.flat)
        self.grad = np.zeros_like(params.flat)
        grad_views = _param_views(params.schema, self.grad)
        shape = (batch, *in_shape)
        self.dtype, self.steps = dtype, []
        for i, (layer, view, grad_view) in enumerate(zip(params.schema, views, grad_views)):
            if isinstance(layer, Dense):
                step = _DenseStep(layer, view, grad_view, shape, first=i == 0)
            elif isinstance(layer, Conv3x3):
                step = _ConvStep(layer, view, grad_view, shape, first=i == 0)
            elif isinstance(layer, MaxPool2):
                step = _Pool(shape, dtype)
            elif isinstance(layer, ReLU):
                step = _ReluStep(shape, dtype)
            elif isinstance(layer, Softmax):
                continue
            else:
                raise SchemaMismatch(f"unknown layer {layer!r}")
            self.steps.append(step)
            shape = step.out.shape
        self.inputs = np.empty((batch, *in_shape), dtype=dtype)   # the gathered batch

    def forward(self, x: np.ndarray):
        """(logits, cache) of a batch."""
        act, cache = np.asarray(x, dtype=self.dtype), []
        for step in self.steps:
            act, saved = step.forward(act)
            cache.append(saved)
        return act, cache

    def backward(self, delta: np.ndarray, cache: list) -> np.ndarray:
        """The flat gradient, from the loss gradient w.r.t. the logits."""
        for step, saved in zip(reversed(self.steps), reversed(cache)):
            delta = step.backward(delta, saved)
        return self.grad

    def loss_and_grad(self, x, labels):
        logits, cache = self.forward(x)
        loss, delta = softmax_cross_entropy(logits, labels)
        return loss, self.backward(delta, cache)


class _Plans(dict):
    """Step plans of one model and input shape by batch size, each built on
    first use."""

    def __init__(self, params: ModelParams, in_shape: tuple[int, ...]):
        super().__init__()
        self.params, self.in_shape = params, in_shape

    def __missing__(self, batch: int) -> _StepPlan:
        plan = self[batch] = _StepPlan(self.params, batch, self.in_shape)
        return plan


def forward(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Run the schema over a batch of inputs; returns (logits, cache).

    Dense layers flatten whatever rank they receive; Conv3x3 expects
    (batch, H, W, channels). The terminal Softmax marker is a no-op here;
    loss and gradients use it through softmax_cross_entropy. The cache holds
    one entry per layer step, layer 0's patch matrix first for a CNN.
    """
    return _StepPlan(params, len(x), np.shape(x)[1:]).forward(x)


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


def loss_and_grad(params: ModelParams, x: np.ndarray, labels: np.ndarray):
    """One forward/backward pass: (mean cross-entropy, flat gradient)."""
    return _StepPlan(params, len(x), np.shape(x)[1:]).loss_and_grad(x, labels)


@dataclass
class OptState:
    """Adam's moments and step count for one flat parameter vector; its
    hyperparameters are the `TrainConfig`'s."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def fresh(cls, n_params: int, dtype=np.float32) -> "OptState":
        return cls(np.zeros(n_params, dtype=dtype), np.zeros(n_params, dtype=dtype))


def adam_step(flat: np.ndarray, grads: np.ndarray, opt: OptState,
              cfg: TrainConfig) -> np.ndarray:
    """Standard bias-corrected Adam update with `cfg`'s lr, beta1, beta2 and
    eps, in place: moves `flat`, `opt.m` and `opt.v` and returns `flat`.

    Each operation is the one of `flat - lr * m_hat / (sqrt(v_hat) + eps)`
    with `m = beta1 * m + (1 - beta1) * g` and `v = beta2 * v + (1 - beta2)
    * g * g`, in that order, written into the arrays it updates or into two
    scratch vectors, so the bits are those of the expression.
    """
    if not np.isfinite(grads).all():
        raise NonFiniteGradient("gradient contains NaN or Inf")
    if flat.shape != grads.shape:
        raise ShapeMismatch(f"params {flat.shape} vs grads {grads.shape}")
    opt.step += 1
    m, v = opt.m, opt.v
    scaled = np.multiply(grads, 1.0 - cfg.beta1)
    m *= cfg.beta1
    m += scaled
    np.multiply(grads, 1.0 - cfg.beta2, out=scaled)
    scaled *= grads
    v *= cfg.beta2
    v += scaled
    step = np.divide(m, 1.0 - cfg.beta1 ** opt.step, out=scaled)    # m_hat
    step *= cfg.lr
    denom = np.divide(v, 1.0 - cfg.beta2 ** opt.step)               # v_hat
    np.sqrt(denom, out=denom)
    denom += cfg.eps
    step /= denom
    flat -= step
    return flat


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


def count_correct(params: ModelParams, x: np.ndarray, labels: np.ndarray) -> int:
    """Correct top-1 predictions over `EVAL_CHUNK`-image chunks of `x`.
    One step plan serves every chunk of a size."""
    plans = _Plans(params, np.shape(x)[1:])
    bounds = _chunk_bounds(len(labels), EVAL_CHUNK)
    correct = 0
    for start, stop in zip(bounds, bounds[1:]):
        logits, _ = plans[stop - start].forward(x[start:stop])
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
                cfg: TrainConfig, rng: np.random.Generator) -> tuple[ModelParams, float]:
    """Local epochs of Adam on images `x` (scaled to [0, 1]) and labels `y`
    from fresh optimizer state; returns (params, mean loss).

    Each batch size (the full one, and a ragged last batch) gets one step
    plan, built on first use over the trained copy's flat vector, which
    `adam_step` then moves in place. A batch gathers its images into the
    plan's input buffer.
    """
    params = global_params.copy()
    opt = OptState.fresh(params.flat.size, params.flat.dtype)
    x = np.asarray(x, dtype=params.flat.dtype)
    plans = _Plans(params, x.shape[1:])
    n = len(y)
    losses = []
    for _ in range(cfg.local_epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            plan = plans[len(idx)]
            loss, grad = plan.loss_and_grad(
                x.take(idx, axis=0, out=plan.inputs, mode="clip"), y.take(idx))
            adam_step(params.flat, grad, opt, cfg)
            losses.append(loss)
    return params, float(np.mean(losses)) if losses else 0.0


def run_round(global_params: ModelParams, clients: Sequence[ClientDataset],
              test_pixels: np.ndarray, test_labels: np.ndarray, cfg: TrainConfig,
              round_index: int) -> tuple[ModelParams, RoundReport]:
    """One communication round: broadcast, local training, weighted averaging.

    `clients` and `test_pixels` hold unscaled pixels. Aggregation weights are
    proportional to each participant's local dataset size (pseudo-images
    included). Local training and evaluation run in the worker processes of
    `fedbalance.workers`, which are sent the clients and the test set once,
    whatever the model, and keep scaled copies, so no array may change in
    place between rounds (a client whose arrays are rebound is dealt again).
    Participants are drawn and averaged in client-id order, and each
    client's shuffle stream is derived from (seed, round, client id), so
    neither the order of `clients` nor the order in which workers finish
    changes a result.
    """
    from . import workers

    clients = sorted(clients, key=lambda c: c.client_id)
    n_pick = max(1, math.ceil(cfg.participation_fraction * len(clients)))
    chosen = sorted(rng_for(cfg.seed, "participation", round_index).choice(
        len(clients), size=n_pick, replace=False))
    participants = [clients[i] for i in chosen]

    pool = workers.pool()
    pool.deal(clients, test_pixels, test_labels)
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
