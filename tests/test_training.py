import hashlib
import json
import math
import sys

import numpy as np
import pytest

from helpers import (child_digests, conv_forward, finite_difference_worst,
                     gradient_check_cases, load_bench_module, min_pool_gap,
                     pool_corners, toy_clients)

from fedbalance.datasets import make_toy_dataset
from fedbalance.seeding import rng_for
from fedbalance.training import (Conv3x3, Dense, MaxPool2, ModelParams,
                                 NonFiniteGradient, NonFiniteParam, OptState,
                                 ReLU, SchemaMismatch,
                                 ShapeMismatch, Softmax, TrainConfig, adam_step,
                                 build_model, fedavg_aggregate,
                                 forward, init_model, local_train, loss_and_grad,
                                 run_round, schema_param_count,
                                 softmax_cross_entropy)
from fedbalance.training import (_chunk_bounds, _conv_taps, _ConvInputGrad,
                                 _Im2col, _Pool, _StepPlan)


class TestForward:
    def test_zero_params_give_uniform_logits(self):
        schema = (Dense(4, 5), Softmax())
        params = ModelParams(schema, np.zeros(schema_param_count(schema),
                                              dtype=np.float32))
        x = np.random.default_rng(0).random((8, 4)).astype(np.float32)
        logits, _ = forward(params, x)
        assert np.all(logits == 0.0)
        loss, _ = softmax_cross_entropy(logits, np.zeros(8, dtype=np.int64))
        assert loss == pytest.approx(math.log(5), rel=1e-6)

    def test_hand_computed_dense(self):
        schema = (Dense(1, 2), Softmax())
        params = ModelParams(schema, np.array([2.0, -1.0, 0.5, 0.25],
                                              dtype=np.float32))
        logits, _ = forward(params, np.array([[3.0]], dtype=np.float32))
        # W = [[2, -1]], b = [0.5, 0.25]: logits = [6.5, -2.75]
        assert np.allclose(logits, [[6.5, -2.75]])

    def test_batch_of_128_has_finite_loss(self):
        pixels, labels = make_toy_dataset(13, 10, (10, 10, 1), seed=0)
        schema = build_model("cnn", (10, 10, 1), 10)
        params = init_model(schema, 1)
        loss, grad = loss_and_grad(params, pixels[:128] / 255.0, labels[:128])
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))

    def test_shape_mismatch(self):
        params = init_model((Dense(4, 2), Softmax()), 0)
        with pytest.raises(ShapeMismatch):
            forward(params, np.zeros((3, 5), dtype=np.float32))
        conv = init_model(build_model("cnn", (8, 8, 3), 4), 0)
        with pytest.raises(ShapeMismatch):
            forward(conv, np.zeros((2, 8, 8, 1), dtype=np.float32))


class TestMaxPool2:
    # One hand-built 2x2 window per channel, listed in corner order (0,0),
    # (0,1), (1,0), (1,1), with the expected winning corner.
    WINDOWS = [
        ([2.0, 2.0, 2.0, 2.0], 0),        # all four equal
        ([1.0, 5.0, 0.0, 5.0], 1),        # tie between corners 1 and 3
        ([0.0, 3.0, 3.0, 1.0], 1),        # tie between corners 1 and 2
        ([-0.0, 0.0, -1.0, -1.0], 0),     # -0.0 first against +0.0
        ([-1.0, 0.0, -2.0, -0.0], 1),     # +0.0 first against -0.0
    ]

    def pool_input(self, dtype):
        # 3x3 input: the odd last row and column hold a large value that a
        # pool which failed to crop them would pick.
        x = np.full((1, 3, 3, len(self.WINDOWS)), 99.0, dtype=dtype)
        for c, (values, _) in enumerate(self.WINDOWS):
            x[0, :2, :2, c] = np.array(values, dtype=dtype).reshape(2, 2)
        return x

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_returns_first_maximum_element(self, dtype):
        x = self.pool_input(dtype)
        out, _ = _Pool(x.shape, dtype).forward(x)
        assert out.shape == (1, 1, 1, len(self.WINDOWS))
        for c, (values, first) in enumerate(self.WINDOWS):
            got = out[0, 0, 0, c]
            assert got == values[first]
            assert np.signbit(got) == np.signbit(values[first]), c

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_routes_gradient_to_the_winner(self, dtype):
        x = self.pool_input(dtype)
        pool = _Pool(x.shape, dtype)
        _, winner = pool.forward(x)
        dout = np.arange(1.0, len(self.WINDOWS) + 1, dtype=dtype).reshape(1, 1, 1, -1)
        dx = pool.backward(dout, winner)
        assert dx.shape == x.shape and dx.dtype == dtype
        expected = np.zeros_like(x)
        for c, (_, first) in enumerate(self.WINDOWS):
            expected[0, first // 2, first % 2, c] = dout[0, 0, 0, c]
        assert np.array_equal(dx, expected)
        # the cropped row and column get exactly +0.0
        assert not np.signbit(dx[0, 2, :, :]).any()
        assert not np.signbit(dx[0, :, 2, :]).any()


class TestBackward:
    def test_finite_difference_all_layer_types(self):
        for name, schema, x, y, seed in gradient_check_cases():
            worst, gap = finite_difference_worst(schema, x, y, seed, n_coords=200)
            # precondition: no pool argmax can flip inside the probe interval
            assert gap > 0.008, f"{name}: pool gap {gap} too small for h=1e-3"
            assert worst < 1e-4, f"{name}: max relative error {worst}"

    def test_duplicated_example_matches_single(self):
        schema = (Dense(6, 3), Softmax())
        params = init_model(schema, 2)
        x1 = np.random.default_rng(3).random((1, 6)).astype(np.float32)
        y1 = np.array([1])
        _, g_single = loss_and_grad(params, x1, y1)
        _, g_dup = loss_and_grad(params, np.repeat(x1, 4, axis=0),
                                 np.repeat(y1, 4))
        assert np.allclose(g_single, g_dup, atol=1e-7)

    def test_relu_gates_dead_units(self):
        # zero input + negative bias: ReLU output is identically zero, so
        # the first layer's weight gradient must vanish
        schema = (Dense(4, 3), ReLU(), Dense(3, 2), Softmax())
        params = init_model(schema, 4)
        flat = params.flat.copy()
        n_w1 = 4 * 3
        flat[n_w1:n_w1 + 3] = -1.0        # first-layer biases negative
        params = ModelParams(schema, flat)
        x = np.zeros((4, 4), dtype=np.float32)
        y = np.array([0, 1, 0, 1])
        _, grad = loss_and_grad(params, x, y)
        assert np.all(grad[:n_w1] == 0.0)


def pinned_cnn_batch(dtype):
    """CNN params and a 12-image batch with constant images and exact ties in
    the first pool's windows (every zero-input region gives conv output = bias)."""
    rng = np.random.default_rng(11)
    x = rng.random((12, 10, 10, 1))
    x[0] = 0.0
    x[1] = 0.5
    x[2] = -0.0
    x[3, ::2] = -0.0
    x[4] = np.repeat(np.repeat(rng.random((5, 5, 1)), 2, axis=0), 2, axis=1)
    params = init_model(build_model("cnn", (10, 10, 1), 10), 3, dtype=dtype)
    params.flat += np.random.default_rng(4).normal(
        0, 0.1, params.flat.size).astype(dtype)
    return params, x.astype(dtype), np.arange(12) % 10


# (loss.hex(), SHA-256 of the gradient bytes) per dtype
PINNED_CNN_GRADS = {
    "float32": ("0x1.3288ce0000000p+1",
                "c17caf8dc2c9863b53dbb27d40b83f531a200167828c36275662df5cca508d06"),
    "float64": ("0x1.3288cd2857fb3p+1",
                "bf84393bc092c13ff9ad60954a0bc4b67be90b3ddf3b0dda0ec810950e4465f1"),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cnn_loss_and_grad_match_pinned_digests(dtype):
    params, x, y = pinned_cnn_batch(dtype)
    assert min_pool_gap(params, x) == 0.0     # the batch exercises pool ties
    loss, grad = loss_and_grad(params, x, y)
    assert grad.dtype == dtype
    got = (loss.hex(), hashlib.sha256(grad.tobytes()).hexdigest())
    assert got == PINNED_CNN_GRADS[np.dtype(dtype).name]


# Ragged last batches around the desk batch size of 128.
ORACLE_BATCHES = (1, 2, 7, 100, 116, 127, 128, 129)


def signed_zero_normals(rng, shape, dtype):
    """Standard normals of which about a quarter are +0.0 and a quarter -0.0."""
    a = rng.standard_normal(shape).astype(dtype)
    a[rng.random(shape) < 0.25] = 0.0
    a[rng.random(shape) < 0.33] = -0.0
    return a


def conv_input_grad_reference(dout, w):
    """col2im as one (B*H*W, 9*C_in) GEMM whose tap columns are added through
    strided views, in dy, dx order."""
    b, h, width, c_out = dout.shape
    c_in = w.shape[2]
    dcols = dout.reshape(-1, c_out) @ w.reshape(9 * c_in, c_out).T
    dcols = dcols.reshape(b, h, width, 9, c_in)
    dx = np.zeros((b, h, width, c_in), dtype=dout.dtype)
    for tap, (oy, ox), (sy, sx) in _conv_taps(h, width):
        dx[:, sy, sx, :] += dcols[:, oy, ox, tap, :]
    return dx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_input_grad_matches_one_gemm_reference(dtype):
    # Signed zeros in dout and w make some taps' contributions -0.0 or +0.0,
    # and 1-pixel-wide images put every tap on an edge.
    rng = np.random.default_rng(5)
    for h, width, c_in in ((5, 5, 8), (6, 3, 3), (1, 1, 3), (2, 7, 2), (4, 1, 8)):
        w = signed_zero_normals(rng, (3, 3, c_in, 16), dtype)
        for batch in ORACLE_BATCHES:
            dout = signed_zero_normals(rng, (batch, h, width, 16), dtype)
            got = _ConvInputGrad(dout.shape, c_in, dtype)(dout, w.reshape(9 * c_in, 16))
            assert got.tobytes() == conv_input_grad_reference(dout, w).tobytes()


def im2col_reference(x):
    """Nine clipped tap copies into a zeroed (B, H, W, 9, C) patch array."""
    b, h, w, c = x.shape
    cols = np.zeros((b, h, w, 9, c), dtype=x.dtype)
    for tap, (oy, ox), (sy, sx) in _conv_taps(h, w):
        cols[:, oy, ox, tap, :] = x[:, sy, sx, :]
    return cols.reshape(b * h * w, 9 * c)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c_in", [1, 3, 8])
def test_im2col_matches_tap_loop_reference(dtype, c_in):
    rng = np.random.default_rng(7)
    for h, width in ((10, 10), (5, 5), (6, 3), (1, 1)):
        for batch in ORACLE_BATCHES:
            x = signed_zero_normals(rng, (batch, h, width, c_in), dtype)
            assert _Im2col(x.shape, dtype)(x).tobytes() == im2col_reference(x).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c_in", [1, 3, 8])
def test_conv_bias_add_matches_broadcast_reference(dtype, c_in):
    rng = np.random.default_rng(8)
    for c_out in (8, 16):
        w = signed_zero_normals(rng, (3, 3, c_in, c_out), dtype)
        bias = signed_zero_normals(rng, (c_out,), dtype)
        for batch in ORACLE_BATCHES:
            x = signed_zero_normals(rng, (batch, 5, 5, c_in), dtype)
            expected = _Im2col(x.shape, dtype)(x) @ w.reshape(9 * c_in, c_out)
            expected += bias
            got = conv_forward(x, w, bias)
            assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c_in", [1, 3, 8])
def test_conv_bias_grad_matches_row_sum_reference(dtype, c_in):
    # A one-conv schema: the backward pass writes the weight and bias
    # gradients and computes no input gradient.
    rng = np.random.default_rng(9)
    for c_out in (8, 10, 16):
        params = init_model((Conv3x3(c_in, c_out),), 0, dtype=dtype)
        for batch in ORACLE_BATCHES:
            x = signed_zero_normals(rng, (batch, 5, 5, c_in), dtype)
            delta = signed_zero_normals(rng, (batch, 5, 5, c_out), dtype)
            # channel 0 is a large head then ones, whose sum only an in-order
            # add rounds back to the head; channel 1 is all -0.0
            head_then_ones = np.ones(delta.shape[:3], dtype=dtype)
            head_then_ones.flat[0] = 1e8 if dtype == np.float32 else 1e17
            delta[..., 0] = head_then_ones
            delta[..., 1] = -0.0
            cols = _Im2col(x.shape, dtype)(x)
            grad = _StepPlan(params, batch, x.shape[1:]).backward(delta, [cols])
            expected = delta.reshape(-1, c_out).sum(axis=0)
            assert grad[-c_out:].tobytes() == expected.tobytes()


def pool_forward_reference(x):
    """Max pool over strided corner copies: a later corner wins only when
    strictly larger, selected bitwise."""
    corners = [np.ascontiguousarray(c) for c in pool_corners(x)]
    bits = np.dtype(f"u{x.itemsize}")
    out = corners[0]
    winner = np.zeros(out.shape, dtype=np.int8)
    for k, corner in enumerate(corners[1:], start=1):
        larger = corner > out
        out.view(bits)[...] ^= (out.view(bits) ^ corner.view(bits)) & -larger.astype(bits)
        np.maximum(winner, larger * np.int8(k), out=winner)
    return out, winner


def pool_backward_reference(dout, winner, in_shape):
    """dout's bits written through each corner's strided view where it won."""
    bits = np.dtype(f"u{dout.itemsize}")
    dx = np.zeros(in_shape, dtype=dout.dtype)
    for k, corner in enumerate(pool_corners(dx)):
        corner[...] = (dout.view(bits) & -(winner == k).astype(bits)).view(dout.dtype)
    return dx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pool_matches_strided_corner_reference(dtype):
    # Values rounded to halves make exact ties, signed zeros among them.
    rng = np.random.default_rng(10)
    for h, width, c in ((10, 10, 8), (5, 5, 16), (3, 3, 2), (1, 1, 4), (6, 7, 3)):
        for batch in ORACLE_BATCHES:
            x = np.round(signed_zero_normals(rng, (batch, h, width, c), dtype) * 2) / 2
            pool = _Pool(x.shape, dtype)
            out, winner = pool.forward(x)
            ref_out, ref_winner = pool_forward_reference(x)
            assert out.tobytes() == ref_out.tobytes()
            assert winner.tobytes() == ref_winner.tobytes()
            dout = signed_zero_normals(rng, out.shape, dtype)
            assert (pool.backward(dout, winner).tobytes()
                    == pool_backward_reference(dout, winner, x.shape).tobytes())


BLAS_THREADS = (1, 2, 3, 4)
THREAD_BATCHES = (1, 2, 7, 100, 116, 120, 127, 128, 129, 256)
GRADIENT_DIGEST_SCRIPT = """
import hashlib, sys
import numpy as np
from fedbalance.training import build_model, init_model, loss_and_grad
rng = np.random.default_rng(12)
x = rng.random((256, 10, 10, 1)).astype(np.float32)
y = np.arange(256) % 10
params = init_model(build_model("cnn", (10, 10, 1), 10), 3)
for batch in map(int, sys.argv[1:]):
    _, grad = loss_and_grad(params, x[:batch], y[:batch])
    print(batch, hashlib.sha256(grad.tobytes()).hexdigest())
"""


@pytest.fixture(scope="module")
def gradient_digests_by_blas_threads():
    """{threads: {batch: digest}} of desk-shaped CNN gradients, each thread
    count in its own child process (OpenBLAS reads it at load time)."""
    batches = [str(b) for b in THREAD_BATCHES]
    return child_digests(GRADIENT_DIGEST_SCRIPT, {
        threads: (batches, {"OPENBLAS_NUM_THREADS": str(threads)})
        for threads in BLAS_THREADS})


@pytest.mark.parametrize("batch", [str(b) for b in THREAD_BATCHES])
def test_gradient_bytes_do_not_depend_on_blas_threads(
        batch, gradient_digests_by_blas_threads):
    assert len({gradient_digests_by_blas_threads[t][batch] for t in BLAS_THREADS}) == 1


# (M, N, rows per image) of each weight-gradient product a.T @ b, with a of
# (K, M) and b of (K, N): both convs of the cnn at 10x10x1, 28x28x1 and
# 32x32x3 (K = batch * pixels), then the Dense layers of logreg, mlp and the
# cnn at those sizes (K = batch).
CONV_PRODUCTS = [(9, 8, 100), (72, 16, 25), (9, 8, 784), (72, 16, 196),
                 (27, 8, 1024), (72, 16, 256)]
DENSE_PRODUCTS = [(m, n, 1) for m, n in (
    (100, 10), (100, 256), (256, 10), (400, 10), (784, 10), (784, 256),
    (3072, 10), (3072, 256), (1024, 10))]
WEIGHT_GRAD_SCRIPT = """
import hashlib, sys
import numpy as np
from fedbalance.training import _weight_grad
blocked = sys.argv[1] == "blocked"
rng = np.random.default_rng(4)
for spec in sys.argv[2:]:
    m, n, ks = spec.split(":")
    ks = list(map(int, ks.split(",")))
    a = rng.random((max(ks), int(m)), dtype=np.float32) - 0.5
    b = rng.random((max(ks), int(n)), dtype=np.float32) - 0.5
    for k in ks:
        out = _weight_grad(a[:k], b[:k]) if blocked else a[:k].T @ b[:k]
        print(f"{m}x{n}x{k}", hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest())
"""


def test_weight_grad_at_one_thread_matches_the_two_thread_product(monkeypatch):
    # The pinned outputs were made by a plain a.T @ b at two BLAS threads; the
    # workers run `_weight_grad` at one. Its block sizes are OpenBLAS's on
    # the pinned build, so elsewhere the product may differ in its last bits.
    monkeypatch.setitem(sys.modules, "tracer", load_bench_module("tracer"))
    run = load_bench_module("run")
    pinned = json.loads(run.GOLDEN.read_text())["environment"]
    here = {"numpy": np.__version__, "blas_core": run._openblas()[1]}
    if here != pinned:
        pytest.skip(f"the block sizes are those of OpenBLAS under {pinned}, not {here}")
    batches = (1, 2, 7, 100, 116, 127, 128, 129, 256)
    specs = [f"{m}:{n}:" + ",".join(str(per * b) for b in batches)
             for m, n, per in CONV_PRODUCTS]
    specs += [f"{m}:{n}:128,1000" for m, n, _ in DENSE_PRODUCTS]
    digests = child_digests(WEIGHT_GRAD_SCRIPT, {
        mode: ([mode, *specs], {"OPENBLAS_NUM_THREADS": threads})
        for mode, threads in (("blocked", "1"), ("plain", "2"))})
    assert len(digests["plain"]) == 9 * len(CONV_PRODUCTS) + 2 * len(DENSE_PRODUCTS)
    assert {s for s, d in digests["plain"].items() if digests["blocked"][s] != d} == set()


@pytest.mark.parametrize("dims", [(10, 10, 1), (12, 12, 3)])
@pytest.mark.parametrize("model", ["cnn", "mlp", "logreg"])
def test_logits_match_across_evaluation_chunk_sizes(model, dims):
    params = init_model(build_model(model, dims, 10), 2)
    # 129 images leave a one-image remainder at chunk sizes 128 and 64
    for n_images in (1000, 129):
        x = np.random.default_rng(6).random((n_images, *dims)).astype(np.float32)

        def chunked_logits(size):
            bounds = _chunk_bounds(len(x), size)
            return np.concatenate([forward(params, x[start:stop])[0]
                                   for start, stop in zip(bounds, bounds[1:])])

        whole = forward(params, x)[0].tobytes()
        for size in (64, 128, 512):
            assert chunked_logits(size).tobytes() == whole, (n_images, size)


def test_evaluation_chunks_never_hold_one_image():
    assert _chunk_bounds(129, 128) == [0, 129]
    assert _chunk_bounds(257, 128) == [0, 128, 257]
    assert _chunk_bounds(1000, 128)[-2:] == [896, 1000]
    assert _chunk_bounds(130, 128) == [0, 128, 130]
    assert _chunk_bounds(1, 128) == [0, 1]


# (loss.hex(), SHA-256 of the trained flat vector) of `local_train` at batch
# 128 over two epochs, per (model, dims, images): 129 and 255
# images end each epoch on a batch of 1 and of 127, so a step that keeps
# anything sized by one batch into the next would change these bytes.
PINNED_LOCAL_TRAIN = {
    ("cnn", (10, 10, 1), 129): (
        "0x1.25bab88000000p+1",
        "35c314ca2c61d94f4a4ffc74a50c71917f5304b2398160a183a390e5ec648521"),
    ("cnn", (10, 10, 1), 255): (
        "0x1.2760ac8000000p+1",
        "95acd35268963a7b1d7093846d16b592af4b46f1513fa47f2e11a4ecf0cc9d96"),
    ("cnn", (5, 5, 3), 129): (
        "0x1.1e6f778000000p+1",
        "a3fcc6ce4ffe96699b5cfa3349ad6722029c5931b24621d1067937a68b78c3c1"),
    ("cnn", (5, 5, 3), 255): (
        "0x1.2959798000000p+1",
        "cbd246172be33db9a1c0a4696b6fa499fa1514d5925d69717e6d2761384bb4c9"),
    ("mlp", (10, 10, 1), 129): (
        "0x1.24faa08000000p+1",
        "20962e3f7cc686c4747574422c0dcf65e7f6597cd8b7d95b161e803b71d9fd7c"),
    ("mlp", (10, 10, 1), 255): (
        "0x1.2b02350000000p+1",
        "d9b5cb825d82d01eeb602f837de53b0d24055b5331b6aee81cfde2ae71c42a91"),
    ("logreg", (10, 10, 1), 129): (
        "0x1.493f110000000p+1",
        "fd0f616343b3312bd40bdc32c25900ff5e2bb0d97e265b12be325778b68dc8bb"),
    ("logreg", (10, 10, 1), 255): (
        "0x1.409d6b8000000p+1",
        "c90a49842063b144a479966689332d8a89c90888d872296cdd39a52814d5eb5b"),
}


@pytest.mark.parametrize("model, dims", [
    ("cnn", (10, 10, 1)), ("cnn", (5, 5, 3)), ("mlp", (10, 10, 1)), ("logreg", (10, 10, 1))])
@pytest.mark.parametrize("n_images", [129, 255])
def test_local_train_on_ragged_batches_matches_pinned_digests(model, dims, n_images):
    rng = np.random.default_rng(13)
    x = rng.random((n_images, *dims)).astype(np.float32)
    y = rng.integers(0, 10, n_images)
    params = init_model(build_model(model, dims, 10), 7)
    trained, loss = local_train(params, x, y, TrainConfig(batch_size=128, local_epochs=2),
                                rng_for(0, "shuffle", 1, 2))
    got = (loss.hex(), hashlib.sha256(trained.flat.tobytes()).hexdigest())
    assert got == PINNED_LOCAL_TRAIN[model, dims, n_images]


@pytest.mark.parametrize("schema, in_shape", [
    (build_model("cnn", (10, 10, 1), 10), (10, 10, 1)),
    (build_model("cnn", (5, 5, 3), 10), (5, 5, 3)),
    (build_model("mlp", (4, 4, 2), 10), (4, 4, 2)),
    # a one-channel conv after layer 0 takes the tap-copy im2col, whose
    # uncovered patch entries must stay zero from step to step
    ((Conv3x3(1, 1), ReLU(), Conv3x3(1, 2), MaxPool2(), Dense(8, 10), Softmax()),
     (4, 4, 1)),
])
def test_a_reused_step_plan_gives_a_fresh_plans_bytes(schema, in_shape):
    params = init_model(schema, 3)
    plan = _StepPlan(params, 8, in_shape)
    rng = np.random.default_rng(14)
    for _ in range(3):
        x = signed_zero_normals(rng, (8, *in_shape), np.float32)
        y = rng.integers(0, 10, 8)
        loss, grad = plan.loss_and_grad(x, y)
        fresh_loss, fresh_grad = loss_and_grad(params, x, y)
        assert (loss, grad.tobytes()) == (fresh_loss, fresh_grad.tobytes())


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        flat = np.array([1.0, -2.0, 3.0], dtype=np.float32)
        opt = OptState.fresh(3)
        out = adam_step(flat, np.zeros(3, dtype=np.float32), opt, TrainConfig())
        assert np.array_equal(out, flat)
        assert opt.step == 1

    @pytest.mark.parametrize("cfg", [
        TrainConfig(), TrainConfig(lr=0.05, beta1=0.8, beta2=0.99, eps=1e-6)],
        ids=["defaults", "non-default"])
    def test_three_step_recurrence_oracle(self, cfg):
        # hand-rolled Adam on one scalar with constant gradient 1
        lr, b1, b2, eps = cfg.lr, cfg.beta1, cfg.beta2, cfg.eps
        p, m, v = 0.5, 0.0, 0.0
        expected = []
        for t in range(1, 4):
            m = b1 * m + (1 - b1) * 1.0
            v = b2 * v + (1 - b2) * 1.0
            p -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
            expected.append(p)
        flat = np.array([0.5], dtype=np.float64)
        opt = OptState.fresh(1, dtype=np.float64)
        got = []
        for _ in range(3):
            flat = adam_step(flat, np.ones(1), opt, cfg)
            got.append(float(flat[0]))
        assert np.allclose(got, expected, rtol=1e-12)

    def test_determinism(self):
        def run():
            flat = np.ones(4, dtype=np.float32)
            opt = OptState.fresh(4)
            rng = np.random.default_rng(0)
            for _ in range(5):
                flat = adam_step(flat, rng.normal(size=4).astype(np.float32), opt,
                                 TrainConfig())
            return flat
        assert np.array_equal(run(), run())

    def test_non_finite_gradient_rejected(self):
        opt = OptState.fresh(2)
        with pytest.raises(NonFiniteGradient):
            adam_step(np.ones(2, dtype=np.float32),
                      np.array([1.0, np.nan], dtype=np.float32), opt, TrainConfig())


class TestFedAvgAggregate:
    def test_identical_models_fixed_point(self):
        schema = (Dense(2, 2), Softmax())
        model = init_model(schema, 0)
        out = fedavg_aggregate([model, model.copy(), model.copy()],
                               [0.2, 0.3, 0.5])
        assert np.array_equal(out.flat, model.flat)

    def test_midpoint_hand_checked(self):
        schema = (Dense(1, 2), Softmax())
        a = ModelParams(schema, np.array([1, 2, 3, 4], dtype=np.float32))
        b = ModelParams(schema, np.array([3, 0, 1, 0], dtype=np.float32))
        out = fedavg_aggregate([a, b], [0.5, 0.5])
        assert out.flat.tolist() == [2.0, 1.0, 2.0, 2.0]

    def test_degenerate_weights(self):
        schema = (Dense(1, 2), Softmax())
        a = init_model(schema, 1)
        b = init_model(schema, 2)
        out = fedavg_aggregate([a, b], [1.0, 0.0])
        assert np.array_equal(out.flat, a.flat)

    def test_schema_mismatch(self):
        a = init_model((Dense(1, 2), Softmax()), 0)
        b = init_model((Dense(2, 2), Softmax()), 0)
        with pytest.raises(SchemaMismatch):
            fedavg_aggregate([a, b], [0.5, 0.5])

    def test_non_finite_param(self):
        schema = (Dense(1, 2), Softmax())
        a = init_model(schema, 0)
        bad = a.copy()
        bad.flat[0] = np.inf
        with pytest.raises(NonFiniteParam):
            fedavg_aggregate([a, bad], [0.5, 0.5])

    def test_convex_hull(self):
        schema = (Dense(3, 2), Softmax())
        models = [init_model(schema, s) for s in range(5)]
        for m in models:
            m.flat += np.random.default_rng(10).normal(size=m.flat.size).astype(np.float32)
        w = np.random.default_rng(11).dirichlet(np.ones(5))
        out = fedavg_aggregate(models, w)
        stack = np.stack([m.flat for m in models])
        assert np.all(out.flat >= stack.min(axis=0))
        assert np.all(out.flat <= stack.max(axis=0))


class TestRunRound:
    def test_single_client_equals_centralized(self):
        # centralized oracle: same shuffle streams, plain Adam loop
        clients = toy_clients(1, 12)
        test_pixels, test_labels = clients[0].pixels, clients[0].labels
        cfg = TrainConfig(batch_size=16, seed=3)
        schema = build_model("mlp", (6, 6, 1), 4)
        fed = init_model(schema, 7)
        central = fed.copy()
        for rnd in range(5):
            fed, _ = run_round(fed, clients, test_pixels, test_labels, cfg, rnd)
            central, _ = local_train(central, test_pixels / 255.0, test_labels, cfg,
                                     rng_for(cfg.seed, "shuffle", rnd, 0))
            rel = np.abs(fed.flat - central.flat) / np.maximum(np.abs(central.flat), 1e-8)
            assert rel.max() < 1e-6

    def test_aggregate_stays_in_convex_hull(self):
        clients = toy_clients(4, 8)
        cfg = TrainConfig(batch_size=8, seed=1)
        schema = build_model("logreg", (6, 6, 1), 4)
        params = init_model(schema, 0)
        trained = []
        for c in clients:
            p, _ = local_train(params, c.pixels / 255.0, c.labels, cfg,
                               rng_for(cfg.seed, "shuffle", 0, c.client_id))
            trained.append(p)
        sizes = np.array([len(c) for c in clients], dtype=np.float64)
        out = fedavg_aggregate(trained, sizes / sizes.sum())
        stack = np.stack([p.flat for p in trained])
        assert np.all(out.flat >= stack.min(axis=0) - 1e-7)
        assert np.all(out.flat <= stack.max(axis=0) + 1e-7)

    def test_200_round_report_sequence(self):
        clients = toy_clients(2, 6, num_classes=3, dims=(4, 4, 1))
        cfg = TrainConfig(batch_size=8, seed=5)
        params = init_model(build_model("logreg", (4, 4, 1), 3), 2)
        reports = []
        for rnd in range(200):
            params, report = run_round(params, clients, clients[0].pixels,
                                       clients[0].labels, cfg, rnd)
            reports.append(report)
        assert len(reports) == 200
        assert reports[-1].round_index == 199
        assert all(0.0 <= r.test_accuracy <= 1.0 for r in reports)

    def test_partial_participation(self):
        clients = toy_clients(5, 6, num_classes=3, dims=(4, 4, 1))
        cfg = TrainConfig(batch_size=8, seed=2, participation_fraction=0.4)
        params = init_model(build_model("logreg", (4, 4, 1), 3), 1)
        _, report = run_round(params, clients, clients[0].pixels, clients[0].labels,
                              cfg, 0)
        assert len(report.client_losses) == 2   # ceil(0.4 * 5)

    def test_training_learns_toy_task(self):
        clients = toy_clients(2, 30)
        cfg = TrainConfig(batch_size=32, seed=6)
        params = init_model(build_model("mlp", (6, 6, 1), 4), 3)
        for rnd in range(30):
            params, report = run_round(params, clients, clients[0].pixels,
                                       clients[0].labels, cfg, rnd)
        assert report.test_accuracy > 0.9

