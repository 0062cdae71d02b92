"""Shared fixtures and oracles for the training tests and the acceptance suite,
and a loader for the benchmark modules whose hooks the fast suite guards."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import fedbalance
from fedbalance.datasets import ClientDataset, make_toy_dataset
from fedbalance.training import (Conv3x3, Dense, MaxPool2, ReLU, forward,
                                 init_model, loss_and_grad,
                                 softmax_cross_entropy, training_arrays)
from fedbalance.training import (_conv_forward, _im2col, _param_views,
                                 _pool_forward)


def pool_corners(x):
    """The four strided views of 2x2 windows, in (0,0), (0,1), (1,0), (1,1)
    order; an odd last row or column is cropped."""
    h2, w2 = x.shape[1] // 2, x.shape[2] // 2
    return [x[:, dy:h2 * 2:2, dx:w2 * 2:2, :] for dy in (0, 1) for dx in (0, 1)]


def min_pool_gap(params, x):
    """Smallest top-2 gap over every max-pool window the forward pass sees.

    Central differences at h=1e-3 are only trustworthy when no pool argmax
    can flip inside the probe interval; callers assert a floor on this gap.
    """
    act = np.asarray(x, dtype=params.flat.dtype)
    views = _param_views(params.schema, params.flat)
    gaps = [np.inf]
    for layer, view in zip(params.schema, views):
        if isinstance(layer, Dense):
            act = act.reshape(act.shape[0], -1) @ view[0] + view[1]
        elif isinstance(layer, Conv3x3):
            cols = _im2col(act)
            act = _conv_forward(act, cols, view[0], view[1])
        elif isinstance(layer, MaxPool2):
            windows = np.stack(pool_corners(act), axis=-1)
            top2 = np.sort(windows, axis=-1)[..., 2:]
            gaps.append(float((top2[..., 1] - top2[..., 0]).min()))
            act, _ = _pool_forward(act)
        elif isinstance(layer, ReLU):
            act = np.maximum(act, 0)
    return min(gaps)


def finite_difference_worst(schema, x, y, params_seed, n_coords=None, h=1e-3):
    """Max relative error between analytic and central-difference gradients.

    Runs on 64-bit shadow parameters. Returns (worst_error, min_pool_gap).
    """
    params = init_model(schema, params_seed, dtype=np.float64)
    params.flat += np.random.default_rng(params_seed + 1).normal(
        0, 0.15, params.flat.size)
    x = np.asarray(x, dtype=np.float64)
    gap = min_pool_gap(params, x)
    _, grad = loss_and_grad(params, x, y)
    if n_coords is None or n_coords >= params.flat.size:
        coords = np.arange(params.flat.size)
    else:
        coords = np.random.default_rng(params_seed + 2).choice(
            params.flat.size, size=n_coords, replace=False)
    worst = 0.0
    for c in coords:
        saved = params.flat[c]
        params.flat[c] = saved + h
        up, _ = softmax_cross_entropy(forward(params, x)[0], y)
        params.flat[c] = saved - h
        down, _ = softmax_cross_entropy(forward(params, x)[0], y)
        params.flat[c] = saved
        fd = (up - down) / (2 * h)
        worst = max(worst, abs(fd - grad[c]) / max(abs(fd), abs(grad[c]), 1e-8))
    return worst, gap


def gradient_check_cases():
    """(name, schema, x, y, params_seed) covering every layer type."""
    from fedbalance.training import Softmax
    rng = np.random.default_rng(0)
    x_flat = rng.random((6, 8, 8, 2))
    y_flat = rng.integers(0, 4, 6)
    rng_cnn = np.random.default_rng(5)
    x_cnn = rng_cnn.random((4, 6, 6, 2)) * 2.0
    y_cnn = rng_cnn.integers(0, 3, 4)
    return [
        ("dense", (Dense(128, 4), Softmax()), x_flat, y_flat, 3),
        ("mlp", (Dense(128, 16), ReLU(), Dense(16, 4), Softmax()),
         x_flat, y_flat, 3),
        ("cnn", (Conv3x3(2, 3), MaxPool2(), ReLU(),
                 Conv3x3(3, 4), MaxPool2(), ReLU(), Dense(4, 3), Softmax()),
         x_cnn, y_cnn, 105),
    ]


def real_client(client_id, pixels, labels, num_classes):
    """A ClientDataset holding the given rows as real examples."""
    return ClientDataset(client_id, num_classes, pixels, labels,
                         np.zeros(len(labels), dtype=np.int8))


def toy_clients(n_clients, per_class, num_classes=4, dims=(6, 6, 1), seed=0):
    """Training arrays of `n_clients` clients sharing a shuffled toy set of
    `per_class * n_clients` images per class."""
    pixels, labels = make_toy_dataset(per_class * n_clients, num_classes, dims, seed=seed)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(labels))
    chunks = np.array_split(order, n_clients)
    return [training_arrays(real_client(i, pixels[chunk], labels[chunk], num_classes))
            for i, chunk in enumerate(chunks)]


def load_bench_module(name):
    """`benchmarks/<name>.py`, loaded by path without editing it."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def child_env(**settings):
    """The environment for a child Python that imports this fedbalance, with
    `settings` added (OpenBLAS reads its thread count at load time)."""
    paths = [str(Path(fedbalance.__file__).resolve().parents[1]),
             *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths), **settings}


def child_digests(script, runs, timeout=300):
    """{name: {key: digest}} from `script`, which prints `key digest` lines,
    run at once in one child Python per `runs` entry {name: (args, settings)};
    `settings` are environment variables for `child_env`."""
    children = {name: subprocess.Popen([sys.executable, "-c", script, *args],
                                       env=child_env(**settings), text=True,
                                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                for name, (args, settings) in runs.items()}
    digests = {}
    for name, child in children.items():
        out, err = child.communicate(timeout=timeout)
        assert child.returncode == 0, err
        digests[name] = dict(line.split() for line in out.splitlines())
    return digests
