"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The trend criteria (9, 10)
train real desk-scale federated runs and take a few minutes, so they carry
the `slow` marker; everything else finishes in seconds.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from helpers import finite_difference_worst, gradient_check_cases, real_client

from fedbalance import protocol
from fedbalance.datasets import ClientDataset, LabeledImage, Provenance, make_toy_dataset
from fedbalance.experiments import ExperimentConfig, grid_cells, run_experiment, run_grid
from fedbalance.mixing import (DpMixConfig, WeightMode, dp_labelhide,
                               sample_laplace, sample_weight_matrix)
from fedbalance.noisegen import (GeneratorConfig, generate, init_generator,
                                 power_spectrum_slope)
from fedbalance.protocol import (NaturalNoiseSource, ProtocolTrace, Topology,
                                 run_balance, serve_bounty)
from fedbalance.seeding import rng_for
from fedbalance.training import (TrainConfig, build_model, fedavg_aggregate,
                                 init_model, local_train, run_round,
                                 training_arrays)


def ok(number, name, detail=""):
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number} ({name}): PASS{suffix}")


def test_criterion_01_weight_sampler_suite():
    started = time.time()
    draws = 100_000
    for mode in (WeightMode.SIMPLEX_SORTED, WeightMode.DOMINANT_UNIFORM):
        for k in (2, 4, 8):
            w = sample_weight_matrix(k, mode, rng_for(1, "acc1", mode.value, k),
                                     draws)
            assert np.all(w >= 0.0)
            assert np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-9)
            assert np.all(np.diff(w, axis=1) <= 0.0)
            if mode is WeightMode.DOMINANT_UNIFORM:
                ks = stats.kstest(w[:, 0], "uniform", args=(0.5, 0.25))
                assert ks.pvalue > 0.01
    elapsed = time.time() - started
    assert elapsed < 10.0
    ok(1, "weight sampler suite", f"{elapsed:.1f}s")


def test_criterion_02_laplace_suite():
    started = time.time()
    eta = sample_laplace(1_000_000, 50.0, rng_for(2, "acc2"))
    abs_mean = float(np.abs(eta).mean())
    mean = float(eta.mean())
    assert 49.5 <= abs_mean <= 50.5
    assert -0.5 <= mean <= 0.5
    zeros = sample_laplace(10_000, 0.0, rng_for(2, "acc2-zero"))
    assert np.all(zeros == 0.0)
    elapsed = time.time() - started
    assert elapsed < 10.0
    ok(2, "laplace suite", f"E|eta|={abs_mean:.3f} mean={mean:.4f} {elapsed:.1f}s")


def _img(values, label):
    return LabeledImage(np.array(values, dtype=np.float32).reshape(2, 2, 1), label)


def test_criterion_03_mixup_oracle_bitwise():
    forced = [0.55, 0.25, 0.15, 0.05]
    cfg = DpMixConfig(k=4, sigma=0.0)

    # fixture A: the three fillers are identical, so the oracle needs no
    # knowledge of the selection order
    anchor = _img([1.5, 2.5, 3.5, 4.5], 1)
    filler = _img([10.0, 20.0, 30.0, 40.0], 0)
    client_a = ClientDataset.from_images(0, [anchor, filler, filler, filler], 2)
    out = dp_labelhide(client_a, 1, cfg, rng_for(3, "acc3a"), weights=forced)
    expected = np.zeros((2, 2, 1), dtype=np.float32)
    for w, img in zip(forced, [anchor, filler, filler, filler]):
        expected += np.float32(w) * img.pixels
    assert out.dtype == np.float32
    assert np.array_equal(out, expected)

    # fixture B: distinct images, selection captured through the audit record
    client_b = ClientDataset.from_images(
        0, [_img([0, 1, 2, 3], 0), _img([9, 8, 7, 6], 1),
            _img([5, 5, 5, 5], 2), _img([2, 4, 6, 8], 3)], 4)
    record = []
    out_b = dp_labelhide(client_b, 2, cfg, rng_for(3, "acc3b"), weights=forced,
                         record=record)
    (rec,) = record
    expected_b = np.zeros((2, 2, 1), dtype=np.float32)
    for w, idx in zip(forced, [rec.anchor_index, *rec.filler_indices]):
        expected_b += np.float32(w) * client_b.examples[idx].pixels
    assert np.array_equal(out_b, expected_b)
    ok(3, "mixup oracle equivalence", "bit-for-bit in float32")


def _noise_source(seed):
    state = init_generator(GeneratorConfig(out_dims=(4, 4, 1), base_resolution=4,
                                           channels_per_scale=4, seed=seed))
    return NaturalNoiseSource(state, seed)


def test_criterion_04_protocol_conservation(monkeypatch):
    served = []

    def recording_serve(*args, **kwargs):
        served.append(serve_bounty(*args, **kwargs))
        return served[-1]

    monkeypatch.setattr(protocol, "serve_bounty", recording_serve)
    rng = np.random.default_rng(44)
    scenarios = 0
    while scenarios < 200:
        alpha = float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0, rng.random()]))
        deficit = int(rng.integers(1, 41))
        capacity = float(rng.choice([0.0, 0.25, 0.6, 1.0]))
        n_peers = int(rng.integers(1, 4))
        peer_stock = [int(rng.integers(0, 30)) for _ in range(n_peers)]
        star = bool(rng.integers(2))

        def image(label, i):
            return LabeledImage(np.full((4, 4, 1), float(i), dtype=np.float32), label)

        requester = ClientDataset.from_images(0, [image(0, i) for i in range(6)], 2)
        peers = {}
        for p, stock in enumerate(peer_stock, start=1):
            examples = ([image(1, i) for i in range(stock)]
                        + [image(0, i) for i in range(4)])
            peers[p] = ClientDataset.from_images(p, examples, 2)
        if star:
            topology = Topology.star()
        else:
            edges = [(0, p) for p in peers if rng.integers(2)]
            topology = Topology.peers(edges) if edges else Topology.star()

        trace = ProtocolTrace()
        served.clear()
        before = len(requester)
        run_balance(requester, [(1, deficit)], alpha, topology, peers,
                    DpMixConfig(k=3, sigma=1.0), _noise_source(scenarios),
                    np.random.default_rng(scenarios), capacity_fraction=capacity,
                    deadline=2, trace=trace)
        added = requester.examples[before:]
        mixed = [ex for ex in added if ex.provenance is Provenance.MIXUP]
        assert len(added) == deficit
        assert all(ex.label == 1 for ex in added)
        assert len(mixed) <= math.ceil(alpha * deficit)
        assert all(ex.provenance in (Provenance.MIXUP, Provenance.NATURAL_NOISE)
                   for ex in added)
        # With deadline 2 every served mixup arrives (a response goes back over
        # the request's edge); the requester keeps up to what it asked for,
        # ahead of the natural-noise backfill.
        arrived = sum(len(resp.samples) for resp in served)
        assert len(mixed) == min(arrived, math.ceil(alpha * deficit))
        assert [ex.provenance for ex in added] == (
            [Provenance.MIXUP] * len(mixed)
            + [Provenance.NATURAL_NOISE] * (deficit - len(mixed)))
        if alpha == 0.0:
            assert trace.request_count() == 0
        scenarios += 1
    ok(4, "protocol conservation", "200 randomized scenarios")


def test_criterion_05_spectral_property():
    started = time.time()
    slopes = []
    for i in range(100):
        state = init_generator(GeneratorConfig(out_dims=(32, 32, 3), seed=i))
        img = generate(state, rng_for(5, "acc5", i))
        slopes.append(power_spectrum_slope(img))
    slopes = np.array(slopes)
    frac = float((slopes <= -0.5).mean())
    assert frac >= 0.95

    rng = np.random.default_rng(55)
    controls = [power_spectrum_slope(rng.uniform(0, 255, (32, 32, 1)))
                for _ in range(50)]
    control_mean = abs(float(np.mean(controls)))
    assert control_mean < 0.3
    elapsed = time.time() - started
    assert elapsed < 60.0
    ok(5, "spectral property",
       f"{frac:.0%} slopes<=-0.5, mean={slopes.mean():.2f}, "
       f"white noise |mean slope|={control_mean:.3f}, {elapsed:.0f}s")


def test_criterion_06_gradient_correctness():
    details = []
    for name, schema, x, y, seed in gradient_check_cases():
        worst, gap = finite_difference_worst(schema, x, y, seed, n_coords=200)
        assert gap > 0.008, f"{name}: pool gap {gap} too small for h=1e-3 probe"
        assert worst < 1e-4, f"{name}: max relative error {worst}"
        details.append(f"{name}={worst:.1e}")
    ok(6, "gradient correctness", " ".join(details))


def test_criterion_07_fedavg_degeneracy():
    pixels, labels = make_toy_dataset(12, 4, (6, 6, 1), seed=7)
    client = training_arrays(real_client(0, pixels, labels, 4))
    cfg = TrainConfig(batch_size=16, seed=70)
    schema = build_model("mlp", (6, 6, 1), 4)
    fed = init_model(schema, 7)
    central = fed.copy()
    for rnd in range(5):
        fed, _ = run_round(fed, [client], client.x, client.y, cfg, rnd)
        central, _ = local_train(central, client, cfg,
                                 rng_for(cfg.seed, "shuffle", rnd, 0))
        rel = np.abs(fed.flat - central.flat) / np.maximum(np.abs(central.flat),
                                                           1e-8)
        assert rel.max() < 1e-6

    # multi-client: aggregation stays in the elementwise convex hull
    chunks = np.array_split(np.arange(len(labels)), 4)
    clients = [training_arrays(real_client(i, pixels[chunk], labels[chunk], 4))
               for i, chunk in enumerate(chunks)]
    params = init_model(schema, 8)
    trained = []
    for c in clients:
        p, _ = local_train(params, c, cfg, rng_for(cfg.seed, "shuffle", 0,
                                                   c.client_id))
        trained.append(p)
    sizes = np.array([len(c) for c in clients], dtype=np.float64)
    out = fedavg_aggregate(trained, sizes / sizes.sum())
    stack = np.stack([p.flat for p in trained])
    assert np.all(out.flat >= stack.min(axis=0))
    assert np.all(out.flat <= stack.max(axis=0))
    ok(7, "fedavg degeneracy", "5-round trajectory match + convex hull")


def test_criterion_08_grid_determinism(tmp_path):
    cfg = ExperimentConfig(dataset="toy", toy_classes=4, toy_per_class=12,
                           toy_test_per_class=6, toy_dims=(8, 8, 1),
                           num_clients=4, model="logreg", rounds=2,
                           batch_size=8, seed=11, k=3, sigma=2.0,
                           grid_classes_per_client=(1, 2),
                           grid_supplement_pct=(0.0, 10.0),
                           grid_mix_fraction=(0.0, 1.0))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    summary_a = run_grid(cfg, str(out_a))
    summary_b = run_grid(cfg, str(out_b))
    assert Path(summary_a).read_bytes() == Path(summary_b).read_bytes()
    for cell in grid_cells(cfg):
        from fedbalance.experiments import cell_dirname
        for name in ("metrics.csv", "summary.csv"):
            pa = out_a / "cells" / cell_dirname(cell) / name
            pb = out_b / "cells" / cell_dirname(cell) / name
            assert pa.read_bytes() == pb.read_bytes()
    ok(8, "grid determinism", "byte-identical CSVs across two runs")


# ---------------------------------------------------------------------------
# Desk-scale trend reproduction. One shared config, results cached across the
# two criteria so the C=1 baselines are trained once.

DESK = ExperimentConfig(dataset="toy", toy_classes=10, toy_per_class=600,
                        toy_test_per_class=100, toy_dims=(10, 10, 1),
                        toy_jitter=16, num_clients=10, scheme="class_skew",
                        classes_per_client=1, model="cnn", rounds=50,
                        batch_size=128, local_epochs=1, k=4, sigma=50.0,
                        mix_fraction=1.0, supplement_pct=0.0)

_DESK_CACHE = {}


def desk_accuracy(seed, classes_per_client, supplement_pct, mix_fraction):
    key = (seed, classes_per_client, supplement_pct, mix_fraction)
    if key not in _DESK_CACHE:
        cfg = replace(DESK, seed=seed, classes_per_client=classes_per_client,
                      supplement_pct=supplement_pct, mix_fraction=mix_fraction)
        _DESK_CACHE[key] = run_experiment(cfg).final_accuracy
    return _DESK_CACHE[key]


@pytest.mark.slow
def test_criterion_09_desk_scale_trends():
    started = time.time()
    seeds = (0, 1, 2)
    passes = 0
    rows = []
    for seed in seeds:
        base = desk_accuracy(seed, 1, 0.0, 1.0)
        mix = desk_accuracy(seed, 1, 10.0, 1.0)
        nat = desk_accuracy(seed, 1, 10.0, 0.0)
        iid = desk_accuracy(seed, 10, 0.0, 1.0)
        conditions = (base < 0.40, mix - base >= 0.20, nat - base >= 0.10,
                      iid > 0.90)
        rows.append(f"seed {seed}: base={base:.3f} mix={mix:.3f} "
                    f"nat={nat:.3f} iid={iid:.3f} -> {sum(conditions)}/4")
        if all(conditions):
            passes += 1
    elapsed = time.time() - started
    print("\n" + "\n".join(rows))
    assert passes >= 2, rows
    assert elapsed < 1800.0
    ok(9, "desk-scale trend reproduction",
       f"{passes}/3 seeds, {elapsed / 60:.1f} min")


@pytest.mark.slow
def test_criterion_10_skew_monotonicity():
    seeds = (0, 1, 2)
    monotone = 0
    rows = []
    for seed in seeds:
        accs = [desk_accuracy(seed, c, 0.0, 1.0) for c in (1, 2, 3)]
        rows.append(f"seed {seed}: C=1,2,3 -> "
                    + "/".join(f"{a:.3f}" for a in accs))
        if accs[0] < accs[1] < accs[2]:
            monotone += 1
    print("\n" + "\n".join(rows))
    assert monotone >= 2, rows
    ok(10, "skew monotonicity", f"{monotone}/3 seeds monotone in C")
