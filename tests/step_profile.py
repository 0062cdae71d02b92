"""Timings of the loops the workers spend their time in: the desk CNN
training step, its evaluation, and the building of one bounty's mixups. A
report only; it asserts nothing and no test collects it.

    PYTHONPATH=src python3 tests/step_profile.py [--repeats 40]

It runs in one process under the workers' settings (`workers._ENV`: one
BLAS thread and their glibc malloc thresholds), re-executing itself once to
set them. A worker round is `local_train` over five desk-shaped clients
(1,140 images of 10x10x1 each, 9 steps of at most 128 images, the CNN), as
one of the two workers of a desk cell trains them; its median time is
printed per round and per step, with the Python-level calls per step that
cProfile counts over one round. Then each layer step's forward and backward,
the softmax cross-entropy and the Adam update are timed inside further
rounds, and their medians are printed per step, with the rest of the step
(the batch gather and the loop) as the remainder. An evaluate request is `count_correct` over
a 500-image 10x10x1 test slice, in chunks of `EVAL_CHUNK` (128) images. A
bounty is one `serve_bounty` of 60 mixups (k = 4, sigma = 50) from a
600-image client, a desk requester's ask of the one peer holding the label.
Last comes the process's peak RSS (`ru_maxrss`), which holds what a worker
of a desk cell holds plus the profile's own arrays.
"""

import argparse
import collections
import contextlib
import cProfile
import os
import pstats
import resource
import statistics
import sys
import time
from unittest import mock

from fedbalance import workers

if any(os.environ.get(key) != value for key, value in workers._ENV.items()):
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **workers._ENV})

import numpy as np  # noqa: E402

from fedbalance.datasets import ClientDataset  # noqa: E402
from fedbalance.mixing import DpMixConfig  # noqa: E402
from fedbalance.protocol import serve_bounty  # noqa: E402
from fedbalance import training  # noqa: E402
from fedbalance.seeding import rng_for  # noqa: E402
from fedbalance.training import (EVAL_CHUNK, Softmax, TrainConfig,  # noqa: E402
                                 build_model, count_correct, init_model, local_train)

CLIENTS, IMAGES, DIMS = 5, 1140, (10, 10, 1)
TEST_IMAGES = 500


def median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def layer_split(schema, worker_round, repeats: int) -> dict[str, float]:
    """{part: median seconds per round} over `repeats` runs of `worker_round`
    with each layer step's forward and backward, `softmax_cross_entropy` and
    `adam_step` timed; "round" is the whole round's."""
    names, seen = [], collections.Counter()
    for layer in schema:
        if not isinstance(layer, Softmax):   # the plan makes no step for it
            seen[type(layer).__name__] += 1
            names.append(f"{type(layer).__name__} {seen[type(layer).__name__]}")
    spent = collections.Counter()

    def timed(fn, part=None):
        # Timed at class level, by the step's name, so that no plan holds a
        # reference cycle that would keep its buffers alive until a collection.
        def run(*args):
            start = time.perf_counter()
            out = fn(*args)
            spent[part or f"{args[0].profile_name} {fn.__name__}"] += time.perf_counter() - start
            return out
        return run

    build_plan = training._StepPlan.__init__

    def build_named_plan(plan, *args):
        build_plan(plan, *args)
        for name, step in zip(names, plan.steps):
            step.profile_name = name

    rounds = collections.defaultdict(list)
    with contextlib.ExitStack() as patches:
        patches.enter_context(mock.patch.object(training._StepPlan, "__init__", build_named_plan))
        for cls in (training._DenseStep, training._ConvStep, training._Pool, training._ReluStep):
            for method in (cls.forward, cls.backward):
                patches.enter_context(mock.patch.object(cls, method.__name__, timed(method)))
        for part in ("softmax_cross_entropy", "adam_step"):
            patches.enter_context(
                mock.patch.object(training, part, timed(getattr(training, part), part)))
        worker_round()
        for _ in range(repeats):
            spent.clear()
            timed(worker_round, "round")()
            for part, seconds in spent.items():
                rounds[part].append(seconds)
    return {part: statistics.median(times) for part, times in rounds.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=40, help="timed runs of each")
    repeats = parser.parse_args().repeats

    rng = np.random.default_rng(0)
    params = init_model(build_model("cnn", DIMS, 10), 1)
    clients = []
    for cid in range(CLIENTS):
        x = rng.random((IMAGES, *DIMS)).astype(np.float32)
        clients.append((cid, x, rng.integers(0, 10, IMAGES)))
    cfg = TrainConfig(batch_size=128)
    steps = CLIENTS * -(-IMAGES // cfg.batch_size)

    def worker_round():
        for cid, x, y in clients:
            local_train(params, x, y, cfg, rng_for(0, "shuffle", 0, cid))

    worker_round()                                  # warm the caches
    round_ms = median_ms(worker_round, repeats)
    profile = cProfile.Profile()
    profile.runcall(worker_round)
    calls = pstats.Stats(profile).total_calls
    print(f"worker round: {CLIENTS} clients, {steps} steps, median of {repeats}")
    print(f"  {round_ms:.1f} ms per round, {1e3 * round_ms / steps:.0f} us per step, "
          f"{calls / steps:.0f} Python-level calls per step")

    split = layer_split(params.schema, worker_round, repeats)
    step_ms = {part: 1e3 * seconds / steps for part, seconds in split.items()}
    total = step_ms.pop("round")
    print(f"inside a worker round, ms per step (medians of {repeats} timed rounds)")
    for part, ms in step_ms.items():
        print(f"  {part:<22} {ms:.3f}")
    print(f"  {'rest':<22} {total - sum(step_ms.values()):.3f} of {total:.3f}")

    test_rng = np.random.default_rng(1)
    test_x = test_rng.random((TEST_IMAGES, *DIMS))  # float64, as a worker scales it
    test = (test_x, test_rng.integers(0, 10, TEST_IMAGES))

    def evaluate():
        return count_correct(params, *test)

    evaluate()
    eval_ms = median_ms(evaluate, repeats)
    print(f"evaluate: {TEST_IMAGES} images in chunks of {EVAL_CHUNK}, median of {repeats}")
    print(f"  {eval_ms:.2f} ms per request")

    pixels = (rng.random((600, *DIMS)) * 255).astype(np.float32)
    responder = ClientDataset(1, 10, pixels, np.full(600, 3, dtype=np.int64),
                              np.zeros(600, dtype=np.int8))
    mix_cfg = DpMixConfig(k=4, sigma=50.0)

    def bounty():
        return serve_bounty(responder, 3, 60, mix_cfg, rng_for(0, "serve", 3, 1))

    n = len(bounty().samples)
    bounty_ms = median_ms(bounty, repeats)
    print(f"bounty: {n} mixups, median of {repeats}")
    print(f"  {bounty_ms:.2f} ms per bounty, {1e3 * bounty_ms / n:.1f} us per mixup")
    # Linux reports ru_maxrss in KiB.
    print(f"peak RSS: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")


if __name__ == "__main__":
    main()
