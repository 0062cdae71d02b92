import csv
import gc
import hashlib
import os
import sys
import time
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from fedbalance.datasets import Provenance
from fedbalance.experiments import (ConfigError, ExperimentConfig,
                                    balance_clients, build_partition_spec,
                                    cell_dirname, config_tag, grid_cells,
                                    load_config, load_dataset, prepare_clients,
                                    run_experiment, run_grid, write_client_files)
from fedbalance import datasets, experiments, serialization, workers
from fedbalance.serialization import write_trace
from fedbalance.training import NonFiniteGradient
from helpers import load_bench_module


TINY = ExperimentConfig(dataset="toy", toy_classes=4, toy_per_class=12,
                        toy_test_per_class=6, toy_dims=(8, 8, 1),
                        num_clients=4, classes_per_client=1, model="logreg",
                        rounds=2, batch_size=8, seed=0)

CONFIG_TEXT = """\
[dataset]
kind = toy
toy_classes = 4
toy_per_class = 12
toy_test_per_class = 6
toy_dims = 8x8x1

[partition]
scheme = class_skew
classes_per_client = 1
num_clients = 4

[balance]
supplement_pct = 10
mix_fraction = 0.75
k = 3
sigma = 5
topology = star

[train]
model = logreg
rounds = 2
batch_size = 8

[run]
seed = 42
"""


class TestConfig:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(CONFIG_TEXT)
        cfg = load_config(str(path))
        assert cfg.dataset == "toy"
        assert cfg.toy_dims == (8, 8, 1)
        assert cfg.supplement_pct == 10.0
        assert cfg.mix_fraction == 0.75
        assert cfg.k == 3
        assert cfg.seed == 42

    def test_seed_override(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(CONFIG_TEXT)
        assert load_config(str(path), seed_override=7).seed == 7

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[train]\nmodle = cnn\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/exp.cfg")

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            replace(TINY, supplement_pct=150.0).validate()
        with pytest.raises(ConfigError):
            replace(TINY, mix_fraction=1.5).validate()
        with pytest.raises(ConfigError):
            replace(TINY, dataset="mnist", data_path="").validate()
        with pytest.raises(ConfigError):
            replace(TINY, topology="0-1-2").validate()
        with pytest.raises(ConfigError):
            replace(TINY, model="resnet").validate()

    def test_tags(self):
        assert config_tag(replace(TINY, supplement_pct=0), 4) == "No Supplement"
        assert config_tag(replace(TINY, classes_per_client=4), 4) == "IID"
        tag = config_tag(replace(TINY, supplement_pct=10, mix_fraction=0.75), 4)
        assert tag == "75% Mixup/ 25% Natural (10% Supplement)"


class TestBalancePhase:
    def test_split_fractions_per_deficit(self):
        cfg = replace(TINY, toy_per_class=40, supplement_pct=10,
                      mix_fraction=0.75, k=3)
        train, test, dims, nc = load_dataset(cfg)
        clients = datasets.partition(train, build_partition_spec(cfg))
        balance_clients(clients, cfg, dims)
        # every client held 40 of one class; 10% supplement = 4 per missing
        # label, split ceil(0.75*4)=3 mixups + 1 noise image
        for client in clients:
            own = int(np.argmax(client.label_histogram == 40))
            for label in range(nc):
                added = [ex for ex in client.examples if ex.label == label
                         and ex.provenance is not Provenance.REAL]
                if label == own:
                    assert added == []
                    continue
                mixed = sum(ex.provenance is Provenance.MIXUP for ex in added)
                noise = sum(ex.provenance is Provenance.NATURAL_NOISE
                            for ex in added)
                assert (mixed, noise) == (3, 1)

    def test_the_target_rounds_up(self):
        # 30% of a 7-image peak is 2.1 images: each missing label gets 3.
        cfg = replace(TINY, toy_per_class=7, supplement_pct=30, mix_fraction=0)
        train, dims, _ = experiments.load_train(cfg)
        clients = datasets.partition(train, build_partition_spec(cfg))
        assert [sorted(c.label_histogram) for c in clients] == [[0, 0, 0, 7]] * 4
        balance_clients(clients, cfg, dims)
        assert [sorted(c.label_histogram) for c in clients] == [[3, 3, 3, 7]] * 4

    def test_supplement_zero_skips_balance(self, tmp_path):
        result = run_experiment(replace(TINY, supplement_pct=0),
                                str(tmp_path / "out"))
        assert result.tag == "No Supplement"
        assert sorted(os.listdir(tmp_path / "out")) == [
            "metrics.csv", "model.ckpt", "partition_manifest.csv", "summary.csv"]


# SHA-256 of everything the balance phase produces for PINNED_BALANCE: the
# three CSVs, then each client's pixels / 255 (x) and label (y) bytes, the
# arrays a training worker keeps, and its provenance codes (p), which no
# output file holds. Balancing does no BLAS matmul, so these pin the
# partition, mixup, trim and noise bytes independently of the model. A
# change to any of them must be explained.
PINNED_BALANCE = replace(TINY, classes_per_client=2, supplement_pct=50,
                         mix_fraction=0.5)
PINNED_DIGESTS = {
    "partition_manifest.csv":
        "d6f391632e28599bd4b7e27e5b84d20a192c6815463fa5133cc6fe56ae45c3c4",
    "balance_manifest.csv":
        "b17a214b2286263067b77b9901cc495d45c1e3f576c110169515e83e70aee855",
    "trace.csv": "766b44207a27d09d1076c98e4f25cab7e07a3cb16c84c9971b351c5e9c8f3d7b",
    "client0.x": "19ad914b63c60e46e9aade0bb4d054a090aeeab18d1ebfb97a9f33c19e687976",
    "client0.y": "86e197b876e9cab2d4014ba5aa73233ea914740f1174938f3a4bf0a792d40d6a",
    "client0.p": "fd9e66e9a06e3c6434cd317725cf91dc3a3b7df0b4414e7c7633875e51aa0beb",
    "client1.x": "623f743459e4798187aa4c9d62356beaa3f2f876367268c974f5f6ac2b9fbca3",
    "client1.y": "7eda9cf43bec11d725096dc74b28b373fc2a2dedce57b3377868ca1923062fce",
    "client1.p": "fd9e66e9a06e3c6434cd317725cf91dc3a3b7df0b4414e7c7633875e51aa0beb",
    "client2.x": "818e16ce27b59e0f7c7438c4c75fb450ce83530c621dc5ed41cf44ffaf09d7f1",
    "client2.y": "86e197b876e9cab2d4014ba5aa73233ea914740f1174938f3a4bf0a792d40d6a",
    "client2.p": "fd9e66e9a06e3c6434cd317725cf91dc3a3b7df0b4414e7c7633875e51aa0beb",
    "client3.x": "c7e843323d05e17b6b6004013a0061893b23210b716b570969a4a897d896ea62",
    "client3.y": "7eda9cf43bec11d725096dc74b28b373fc2a2dedce57b3377868ca1923062fce",
    "client3.p": "fd9e66e9a06e3c6434cd317725cf91dc3a3b7df0b4414e7c7633875e51aa0beb",
}


def test_balance_outputs_match_pinned_digests(tmp_path):
    cfg = PINNED_BALANCE
    train, _, dims, _ = load_dataset(cfg)
    clients = datasets.partition(train, build_partition_spec(cfg))
    serialization.write_csv(str(tmp_path / "partition_manifest.csv"),
                            serialization.manifest_rows(clients))
    records = balance_clients(clients, cfg, dims)
    serialization.write_csv(str(tmp_path / "balance_manifest.csv"),
                            serialization.manifest_rows(clients))
    write_trace(str(tmp_path / "trace.csv"), records)

    # the fixture exercises every balance path: 32 mixups served, 16 kept
    # after the trim, 8 natural-noise images backfilled
    assert sum(r[5] for r in records if r[1] == "response") == 32
    added = [ex.provenance for c in clients for ex in c.examples]
    assert (added.count(Provenance.MIXUP), added.count(Provenance.NATURAL_NOISE)) == (16, 8)

    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("partition_manifest.csv", "balance_manifest.csv", "trace.csv")}
    for client in clients:
        for field, array in (("x", client.pixels / 255.0), ("y", client.labels),
                             ("p", client.provenance)):
            digests[f"client{client.client_id}.{field}"] = hashlib.sha256(
                array.tobytes()).hexdigest()
    assert digests == PINNED_DIGESTS


def test_balance_clients_holds_no_client_s_old_and_new_pixels_together(monkeypatch):
    # Every planned client's old pixels are gone before any reply is read,
    # and each balanced client holds the reply's own arrays: the main
    # process concatenates nothing.
    cfg = PINNED_BALANCE
    train, dims, _ = experiments.load_train(cfg)
    clients = datasets.partition(train, build_partition_spec(cfg))
    del train
    old = [weakref.ref(client.pixels) for client in clients]
    alive, replies = [], []
    balance, collect = workers.Pool.balance, workers.Pool._collect

    def checking_collect(self, requests):
        alive.append(sum(ref() is not None for ref in old))
        return collect(self, requests)

    def recording_balance(self, *args):
        replies.append(balance(self, *args))
        return replies[-1]

    monkeypatch.setattr(workers.Pool, "_collect", checking_collect)
    monkeypatch.setattr(workers.Pool, "balance", recording_balance)
    balance_clients(clients, cfg, dims)
    assert alive == [0]
    assert sorted(replies[0]) == [0, 1, 2, 3]
    for client in clients:
        pixels, labels, provenance, _ = replies[0][client.client_id]
        assert client.pixels is pixels
        assert client.labels is labels
        assert client.provenance is provenance


def file_digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def test_prepared_client_files_match_pinned_digests(tmp_path):
    # The partition rows are taken before the balance and written after it,
    # with the balanced manifest and the trace, by one helper.
    prepared = prepare_clients(PINNED_BALANCE)
    write_client_files(str(tmp_path), prepared)
    digests = file_digests(tmp_path)
    for client in prepared.clients:
        for field, array in (("x", client.pixels / 255.0), ("y", client.labels),
                             ("p", client.provenance)):
            digests[f"client{client.client_id}.{field}"] = hashlib.sha256(
                array.tobytes()).hexdigest()
    assert digests == PINNED_DIGESTS


def test_unbalanced_client_files_hold_the_partition_alone(tmp_path):
    write_client_files(str(tmp_path), prepare_clients(PINNED_BALANCE), balanced=False)
    assert file_digests(tmp_path) == {
        "partition_manifest.csv": PINNED_DIGESTS["partition_manifest.csv"]}


def test_prepare_clients_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    prepared = prepare_clients(PINNED_BALANCE)
    assert prepared.records and prepared.partition_rows
    assert os.listdir(tmp_path) == []


def test_bench_tracer_hook_still_counts_kept_mixups():
    # benchmarks/tracer.py counts kept mixups from the provenance column of
    # the clients `balance_clients` was given, read through
    # `ClientDataset.examples`; a change that breaks that hook fails here.
    tracer = load_bench_module("tracer")
    cfg = PINNED_BALANCE
    train, _, dims, _ = load_dataset(cfg)
    clients = datasets.partition(train, build_partition_spec(cfg))
    recorder = tracer.Tracer()
    recorder.install(["experiments.balance_clients"], tracer.HOOKS)
    try:
        experiments.balance_clients(clients, cfg, dims)
    finally:
        recorder.restore()
    assert recorder.counts["mixing.kept"] == 16


def test_bench_setup_path_still_runs(tmp_path, monkeypatch):
    # benchmarks/run.py times config load -> load_dataset -> partition ->
    # init_model under the tracer's phase wrappers in every untraced run; a
    # rename on that path would fail each such run, and fails here first.
    tracer = load_bench_module("tracer")
    monkeypatch.setitem(sys.modules, "tracer", tracer)   # run.py imports it by name
    run = load_bench_module("run")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(CONFIG_TEXT.replace("model = logreg", "model = cnn"))
    recorder = tracer.Tracer()
    recorder.install(tracer.PHASES)
    try:
        with recorder.span("setup"):
            assert run.measure_setup(cfg_path, True) > 0
    finally:
        recorder.restore()
    assert [span[1] for span in recorder.spans] == [
        "setup", "experiments.load_dataset", "datasets.partition"]
    assert experiments.load_dataset is load_dataset


class TestRunExperiment:
    def test_smoke_two_rounds(self, tmp_path):
        started = time.time()
        out = tmp_path / "run"
        result = run_experiment(replace(TINY, supplement_pct=10), str(out))
        assert time.time() - started < 60
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "round,global_test_acc,mean_train_loss"
        assert len(lines) == 3            # header + 2 rounds
        assert (out / "summary.csv").exists()
        assert (out / "model.ckpt").exists()
        assert (out / "trace.csv").exists()
        assert len(result.reports) == 2

    def test_metrics_csv_has_one_header_and_a_row_per_round(self, tmp_path):
        run_experiment(replace(TINY, rounds=3), str(tmp_path))
        rows = list(csv.reader((tmp_path / "metrics.csv").read_text().splitlines()))
        assert rows[0] == ["round", "global_test_acc", "mean_train_loss"]
        assert [row[0] for row in rows[1:]] == ["0", "1", "2"]
        assert all(len(row) == 3 for row in rows)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = replace(TINY, supplement_pct=20, mix_fraction=0.5)
        a, b = tmp_path / "a", tmp_path / "b"
        run_experiment(cfg, str(a))
        run_experiment(cfg, str(b))
        for name in ("metrics.csv", "summary.csv", "model.ckpt",
                     "partition_manifest.csv", "balance_manifest.csv",
                     "trace.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    @pytest.mark.parametrize("supplement_pct", [0, 50])
    def test_a_diverging_run_writes_nothing(self, tmp_path, supplement_pct):
        # Every file, the client files included, is written after the last
        # round, so a run whose training diverges leaves no `out_dir`.
        out = tmp_path / "out"
        cfg = replace(TINY, rounds=3, lr=1e38, supplement_pct=supplement_pct)
        with pytest.raises(NonFiniteGradient):
            run_experiment(cfg, str(out))
        assert not out.exists()

    def test_training_holds_one_copy_of_the_images(self, monkeypatch):
        # By round 0 the loaded training pixels and each client's pre-balance
        # pixels are released. Every round is given the balanced clients
        # themselves and the loaded test pixels, all unscaled: the training
        # workers scale their own copies, and the main process makes none.
        freed, loaded = [], {}
        load_test, partition = experiments.load_test, datasets.partition
        run_round = experiments.run_round

        def recording_load_test(cfg):
            test = load_test(cfg)
            loaded["test"] = weakref.ref(test[0])
            return test

        def recording_partition(dataset, spec):
            clients = partition(dataset, spec)
            freed.append(weakref.ref(dataset[0]))
            freed.extend(weakref.ref(c.pixels) for c in clients)
            loaded["clients"] = [weakref.ref(c) for c in clients]
            return clients

        rounds = []

        def checking_run_round(params, clients, test_pixels, *args):
            gc.collect()
            rounds.append((sum(ref() is not None for ref in freed),
                           [c.client_id for c, ref in zip(clients, loaded["clients"])
                            if c is ref()],
                           test_pixels is loaded["test"](),
                           min(a.max() for a in [test_pixels, *(c.pixels for c in clients)]) > 1))
            return run_round(params, clients, test_pixels, *args)

        monkeypatch.setattr(experiments, "load_test", recording_load_test)
        monkeypatch.setattr(datasets, "partition", recording_partition)
        monkeypatch.setattr(experiments, "run_round", checking_run_round)
        run_experiment(replace(TINY, supplement_pct=50, mix_fraction=0.5))
        assert len(freed) == 1 + TINY.num_clients
        assert rounds == [(0, list(range(TINY.num_clients)), True, True)] * TINY.rounds


class TestGrid:
    def test_cell_count_cross_product(self):
        cfg = replace(TINY, grid_classes_per_client=(1, 2, 3),
                      grid_supplement_pct=(10.0, 20.0, 100.0),
                      grid_mix_fraction=(0.0, 0.25, 0.5, 0.75, 1.0))
        assert len(grid_cells(cfg)) == 45

    def test_cell_seeds_differ_but_data_seed_shared(self):
        cfg = replace(TINY, grid_classes_per_client=(1, 2))
        cells = grid_cells(cfg)
        assert cells[0].seed != cells[1].seed
        assert all(c.data_seed == cfg.seed for c in cells)

    @pytest.mark.parametrize("axes, written", [
        ({"supplement_pct": 0}, 4),
        ({"supplement_pct": 50, "mix_fraction": 0.5}, 6),
    ], ids=["no-supplement", "balanced"])
    def test_single_cell_grid_equals_run_experiment(self, tmp_path, axes, written):
        cfg = replace(TINY, **axes)
        run_grid(cfg, str(tmp_path / "grid"))
        (cell,) = grid_cells(cfg)
        run_experiment(cell, str(tmp_path / "solo"))
        cell_dir = tmp_path / "grid" / "cells" / cell_dirname(cell)
        solo_files = sorted((tmp_path / "solo").iterdir())
        assert len(solo_files) == written
        for path in solo_files:
            assert (cell_dir / path.name).read_bytes() == path.read_bytes(), path.name

    def test_resume_recomputes_only_missing_cell(self, tmp_path):
        cfg = replace(TINY, grid_classes_per_client=(1, 2),
                      grid_mix_fraction=(0.0, 1.0), supplement_pct=10)
        out = tmp_path / "grid"
        run_grid(cfg, str(out))
        cells = grid_cells(cfg)
        kept = out / "cells" / cell_dirname(cells[0]) / "summary.csv"
        removed_dir = out / "cells" / cell_dirname(cells[-1])
        mtime_before = kept.stat().st_mtime_ns
        os.remove(removed_dir / "summary.csv")
        run_grid(cfg, str(out))
        assert kept.stat().st_mtime_ns == mtime_before
        assert (removed_dir / "summary.csv").exists()

    def test_toy_fingerprint_holds_the_config_fields_alone(self, tmp_path):
        run_grid(TINY, str(tmp_path))
        (cell,) = grid_cells(TINY)
        path = tmp_path / "cells" / cell_dirname(cell) / "config.csv"
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows == [[f.name, repr(getattr(cell, f.name))] for f in fields(cell)]

    def test_resume_recomputes_cells_after_config_change(self, tmp_path):
        cfg = replace(TINY, grid_mix_fraction=(0.0, 1.0), supplement_pct=10,
                      rounds=2, sigma=2.0)
        out = tmp_path / "grid"
        run_grid(cfg, str(out))
        summaries = [out / "cells" / cell_dirname(c) / "summary.csv"
                     for c in grid_cells(cfg)]
        mtimes = [p.stat().st_mtime_ns for p in summaries]
        run_grid(cfg, str(out))
        assert [p.stat().st_mtime_ns for p in summaries] == mtimes

        changed = replace(cfg, rounds=5, sigma=9.0)
        resumed = run_grid(changed, str(out))
        assert all(p.stat().st_mtime_ns != m for p, m in zip(summaries, mtimes))
        rows = list(csv.DictReader(Path(resumed).read_text().splitlines()))
        assert [(r["rounds"], r["sigma"]) for r in rows] == [("5", "9")] * 2
        clean = run_grid(changed, str(tmp_path / "clean"))
        assert Path(resumed).read_bytes() == Path(clean).read_bytes()

    def test_resume_after_interrupted_cell(self, tmp_path, monkeypatch):
        cfg = replace(TINY, grid_classes_per_client=(1, 2),
                      grid_mix_fraction=(0.0, 1.0), supplement_pct=10)
        cells = grid_cells(cfg)
        calls = []
        save_checkpoint = serialization.save_checkpoint

        class Interrupted(Exception):
            pass

        def interrupted_save(*args):
            calls.append(args)
            if len(calls) == 2:
                raise Interrupted
            save_checkpoint(*args)

        out = tmp_path / "grid"
        monkeypatch.setattr(serialization, "save_checkpoint", interrupted_save)
        with pytest.raises(Interrupted):
            run_grid(cfg, str(out))
        monkeypatch.undo()
        first, second = (out / "cells" / cell_dirname(c) for c in cells[:2])
        assert (first / "summary.csv").exists()
        assert not (second / "summary.csv").exists()
        assert not (out / "summary.csv").exists()

        resumed = run_grid(cfg, str(out))
        uninterrupted = run_grid(cfg, str(tmp_path / "clean"))
        assert Path(resumed).read_bytes() == Path(uninterrupted).read_bytes()
        assert sorted(os.listdir(out)) == ["cells", "summary.csv"]
        # Every file of every cell, config.csv included, as if never interrupted.
        resumed_files, clean_files = ({str(p.relative_to(root)): p.read_bytes()
                                       for p in sorted((root / "cells").glob("*/*"))}
                                      for root in (out, tmp_path / "clean"))
        assert resumed_files == clean_files
        assert {name.split("/")[-1] for name in resumed_files} == {
            "config.csv", "partition_manifest.csv", "balance_manifest.csv", "trace.csv",
            "metrics.csv", "model.ckpt", "summary.csv"}

    def test_grid_summary_rows(self, tmp_path):
        cfg = replace(TINY, grid_classes_per_client=(1, 2),
                      grid_mix_fraction=(0.0, 1.0), supplement_pct=10)
        summary = run_grid(cfg, str(tmp_path / "grid"))
        lines = Path(summary).read_text().strip().splitlines()
        assert len(lines) == 1 + 4


class TestDirichletMode:
    def test_dirichlet_partition_runs(self, tmp_path):
        cfg = replace(TINY, scheme="dirichlet", concentration=0.5,
                      supplement_pct=10, mix_fraction=0.5)
        result = run_experiment(cfg, str(tmp_path / "out"))
        assert len(result.reports) == TINY.rounds

    def test_empty_clients_sit_out(self, tmp_path):
        # this draw leaves several of the 12 clients with no examples at all
        cfg = replace(TINY, scheme="dirichlet", concentration=0.05,
                      num_clients=12, supplement_pct=10, mix_fraction=0.5)
        train, _, _, _ = load_dataset(cfg)
        sizes = [len(c) for c in datasets.partition(train, build_partition_spec(cfg))]
        assert 0 in sizes
        out = tmp_path / "out"
        result = run_experiment(cfg, str(out))
        # empty clients keep their zero rows in both manifests (they request
        # nothing) and never train
        for name in ("partition_manifest.csv", "balance_manifest.csv"):
            rows = [line.split(",") for line in (out / name).read_text().splitlines()[1:]]
            assert len(rows) == 12 * 4
            for cid, size in enumerate(sizes):
                if size == 0:
                    assert all(int(r[2]) == 0 for r in rows if int(r[0]) == cid)
        for report in result.reports:
            assert len(report.client_losses) == 12 - sizes.count(0)
            assert report.mean_train_loss == pytest.approx(np.mean(report.client_losses))
