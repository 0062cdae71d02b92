import ast
import configparser
import csv
import hashlib
import io
import itertools
import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import encode_cifar10, encode_idx

from fedbalance import datasets, experiments, serialization, workers
from fedbalance.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from fedbalance.datasets import LabeledImage, Provenance, make_toy_dataset

CONFIG_TEXT = """\
[dataset]
kind = toy
toy_classes = 3
toy_per_class = 9
toy_test_per_class = 4
toy_dims = 8x8x1

[partition]
scheme = class_skew
classes_per_client = 1
num_clients = 3

[balance]
supplement_pct = 20
mix_fraction = 0.5
k = 3
sigma = 2

[train]
model = logreg
rounds = 2
batch_size = 8

[run]
seed = 1
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG_TEXT)
    return str(path)


def test_partition_writes_manifest(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["partition", "--config", config_path, "--out", str(out)]) == EXIT_OK
    rows = list(csv.reader((out / "partition_manifest.csv").read_text().splitlines()))
    assert rows[0] == ["client_id", "label", "count"]
    assert len(rows) == 1 + 3 * 3


def test_balance_writes_trace_and_manifests(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["balance", "--config", config_path, "--out", str(out)]) == EXIT_OK
    assert (out / "partition_manifest.csv").exists()
    assert (out / "balance_manifest.csv").exists()
    assert (out / "trace.csv").exists()


def test_balance_without_a_supplement_records_the_partition_and_an_empty_trace(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG_TEXT.replace("supplement_pct = 20", "supplement_pct = 0"))
    out = tmp_path / "out"
    assert main(["balance", "--config", str(path), "--out", str(out)]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == [
        "balance_manifest.csv", "partition_manifest.csv", "trace.csv"]
    assert ((out / "balance_manifest.csv").read_bytes()
            == (out / "partition_manifest.csv").read_bytes())
    assert (out / "trace.csv").read_bytes() == b"round,msg_type,src,dst,label,count\r\n"


def test_train_runs_pipeline(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["train", "--config", config_path, "--out", str(out)]) == EXIT_OK
    assert (out / "metrics.csv").exists()
    printed = capsys.readouterr().out
    assert "final=" in printed


def _config_text(*settings, base=CONFIG_TEXT):
    """`base` with each (section, key, value) set."""
    parser = configparser.ConfigParser()
    parser.read_string(base)
    for section, key, value in settings:
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)
    text = io.StringIO()
    parser.write(text)
    return text.getvalue()


DEGENERATE_CONFIGS = {
    "noise-wavelet_bank-bogus": _config_text(("noise", "wavelet_bank", "bogus")),
    "noise-channels_per_scale-0": _config_text(("noise", "channels_per_scale", "0")),
    "noise-base_resolution-0": _config_text(("noise", "base_resolution", "0")),
    "dataset-toy_classes-0": _config_text(("dataset", "toy_classes", "0")),
    "dataset-toy_jitter--1": _config_text(("dataset", "toy_jitter", "-1")),
    "dataset-subset_per_class--1": _config_text(("dataset", "subset_per_class", "-1")),
    "run-timing-true": _config_text(("run", "timing", "true")),
    "run-timing-false": _config_text(("run", "timing", "false")),
    "dataset-toy_jitter-9223372036854775808": _config_text(
        ("dataset", "toy_jitter", "9223372036854775808")),
    "train-lr-nan": _config_text(("train", "lr", "nan")),
    "train-lr-0": _config_text(("train", "lr", "0")),
    "train-eps-inf": _config_text(("train", "eps", "inf")),
    "train-beta1-1": _config_text(("train", "beta1", "1")),
    "train-beta2--0.1": _config_text(("train", "beta2", "-0.1")),
    "balance-k-1": _config_text(("balance", "k", "1")),
    "balance-sigma--1": _config_text(("balance", "sigma", "-1")),
    "balance-sigma-nan": _config_text(("balance", "sigma", "nan")),
    "dataset-toy_per_class-0": _config_text(("dataset", "toy_per_class", "0")),
    "dataset-toy_test_per_class-0": _config_text(("dataset", "toy_test_per_class", "0")),
    "dataset-toy_dims-0x0x1": _config_text(("dataset", "toy_dims", "0x0x1")),
    "cnn-toy_dims-3x3x1": _config_text(("train", "model", "cnn"),
                                       ("dataset", "toy_dims", "3x3x1")),
    "repeated-key": CONFIG_TEXT.replace("kind = toy\n", "kind = toy\nkind = toy\n"),
    "no-section-header": "garbage\n",
    "stray-percent": CONFIG_TEXT.replace("kind = toy\n", "kind = toy%\n"),
    "partition-classes_per_client-0": _config_text(("partition", "classes_per_client", "0")),
    "partition-classes_per_client--1": _config_text(("partition", "classes_per_client", "-1")),
    "partition-classes_per_client-4": _config_text(("partition", "classes_per_client", "4")),
    "partition-num_clients-2": _config_text(("partition", "num_clients", "2")),
    "class_skew-concentration-nan": _config_text(("partition", "concentration", "nan")),
    "class_skew-concentration-inf": _config_text(("partition", "concentration", "inf")),
    **{f"dirichlet-concentration-{value}": _config_text(
        ("partition", "scheme", "dirichlet"), ("partition", "concentration", value))
       for value in ("0", "-1", "nan", "inf", "1e308")},
    "bogus-section": _config_text(("bogus", "key", "1")),
    # each label's one example for its three holders
    "class_skew-toy_per_class-1-classes_per_client-3": _config_text(
        ("dataset", "toy_per_class", "1"), ("partition", "classes_per_client", "3")),
}


@pytest.mark.parametrize("text", DEGENERATE_CONFIGS.values(), ids=DEGENERATE_CONFIGS)
def test_degenerate_config_exits_2(tmp_path, capsys, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_leaky_slope_is_named(tmp_path, capsys, value):
    # With mix_fraction = 0 every supplement is natural noise, which a
    # non-finite slope would turn into NaN images.
    path = tmp_path / "exp.cfg"
    path.write_text(_config_text(("balance", "mix_fraction", "0"),
                                 ("noise", "leaky_slope", value)))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "leaky_slope" in capsys.readouterr().err


def test_grid_runs(config_path, tmp_path):
    out = tmp_path / "grid"
    assert main(["grid", "--config", config_path, "--out", str(out)]) == EXIT_OK
    assert (out / "summary.csv").exists()


def grid_files(out):
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}


@pytest.mark.parametrize("damage", [
    lambda raw: b"\xff\xfe\x00junk",
    lambda raw: b"",
    lambda raw: b"\x00" * len(raw),
    lambda raw: raw[:len(raw) // 2],
    lambda raw: b'"' + raw,
], ids=["not-utf8", "empty", "nul", "truncated", "unterminated-quote"])
def test_grid_reruns_a_cell_whose_fingerprint_is_damaged(config_path, tmp_path, damage):
    out = tmp_path / "grid"
    assert main(["grid", "--config", config_path, "--out", str(out)]) == EXIT_OK
    (fingerprint,) = out.glob("cells/*/config.csv")
    fingerprint.write_bytes(damage(fingerprint.read_bytes()))
    assert main(["grid", "--config", config_path, "--out", str(out)]) == EXIT_OK
    fresh = tmp_path / "fresh"
    assert main(["grid", "--config", config_path, "--out", str(fresh)]) == EXIT_OK
    assert grid_files(out) == grid_files(fresh)


@pytest.mark.parametrize("key, values", [("supplement_pct", "10,200"),
                                         ("supplement_pct", "10,nan"),
                                         ("mix_fraction", "0.5,nan"),
                                         ("mix_fraction", "0.5,inf"),
                                         ("classes_per_client", "1,0")])
def test_grid_validates_every_cell_before_running_any(tmp_path, capsys, key, values):
    path = tmp_path / "exp.cfg"
    path.write_text(_config_text(("grid", key, values)))
    out = tmp_path / "grid"
    assert main(["grid", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    assert not list(out.rglob("summary.csv"))


def test_gen_noise_and_spectrum(tmp_path):
    noise_dir = tmp_path / "noise"
    assert main(["gen-noise", "--out", str(noise_dir), "--count", "3",
                 "--height", "16", "--width", "16", "--channels", "1",
                 "--seed", "4", "--ppm"]) == EXIT_OK
    files = serialization.list_tensor_images(str(noise_dir))
    assert len(files) == 3
    assert (noise_dir / "noise_00000.ppm").exists()

    out_csv = tmp_path / "slopes.csv"
    assert main(["spectrum", "--in", str(noise_dir), "--out", str(out_csv)]) == EXIT_OK
    rows = list(csv.reader(out_csv.read_text().splitlines()))
    assert rows[0] == ["image_id", "slope"]
    assert len(rows) == 4
    for _, slope in rows[1:]:
        float(slope)


# SHA-256 over (file name, file bytes) of every .timg file, in name order
PINNED_GEN_NOISE = "d3a9e34200892ddbd8b68b249c0ccf124dc8e7bada15a6fdba7ca0f371501330"


def test_gen_noise_files_match_pinned_digest(tmp_path):
    out = tmp_path / "noise"
    assert main(["gen-noise", "--out", str(out), "--count", "20", "--height", "32",
                 "--width", "32", "--channels", "3", "--seed", "4"]) == EXIT_OK
    paths = sorted(out.glob(f"*{serialization.TENSOR_SUFFIX}"))
    assert len(paths) == 20
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    assert digest.hexdigest() == PINNED_GEN_NOISE


def test_mix_from_tensor_directory(tmp_path):
    pool = tmp_path / "pool"
    pool.mkdir()
    pixels, labels = make_toy_dataset(3, 3, (8, 8, 1), seed=0)
    for i, (p, y) in enumerate(zip(pixels, labels)):
        serialization.save_tensor_image(
            str(pool / f"img_{i:03d}{serialization.TENSOR_SUFFIX}"),
            LabeledImage(p, int(y)))
    out = tmp_path / "mixed"
    assert main(["mix", "--in", str(pool), "--out", str(out), "--label", "1",
                 "--count", "4", "--k", "3", "--sigma", "1.0"]) == EXIT_OK
    mixed = [serialization.load_tensor_image(p)
             for p in serialization.list_tensor_images(str(out))]
    assert len(mixed) == 4
    assert all(m.label == 1 for m in mixed)
    assert all(m.provenance is Provenance.MIXUP for m in mixed)


def write_toy_pool(pool, dims=(8, 8, 1)):
    """Nine toy images, three of each of labels 0-2, as tensor files."""
    pool.mkdir()
    pixels, labels = make_toy_dataset(3, 3, dims, seed=0)
    for i, (p, y) in enumerate(zip(pixels, labels)):
        serialization.save_tensor_image(
            str(pool / f"img_{i:03d}{serialization.TENSOR_SUFFIX}"), LabeledImage(p, int(y)))


# SHA-256 over (file name, file bytes) of every file, in name order
PINNED_MIX = "91b34c6ac3c640cc4db023a48d7cc1b77ce6bfec98161efc0d8d82bd11036ea4"


def test_mix_files_match_pinned_digest(tmp_path):
    # 20 mixups span more than one block of NOISE_BLOCK streams.
    write_toy_pool(tmp_path / "pool")
    out = tmp_path / "mixed"
    assert main(["mix", "--in", str(tmp_path / "pool"), "--out", str(out), "--label", "1",
                 "--count", "20", "--k", "3", "--sigma", "50", "--seed", "4",
                 "--ppm"]) == EXIT_OK
    paths = sorted(out.iterdir())
    assert len(paths) == 40
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    assert digest.hexdigest() == PINNED_MIX


@pytest.mark.parametrize("args, message", [
    (["--label", "5"], "config error: client 0 holds no example with label 5"),
    (["--label", "1", "--k", "1"], "config error: mix width k must be >= 2, got 1"),
    (["--label", "1", "--sigma", "1e38"], "config error: sigma 1e+38 noises a pixel"),
    (["--label", "1", "--count", "-3"], "config error: --count must be >= 0, got -3"),
], ids=["label-not-in-pool", "k-1", "sigma-past-float32", "negative-count"])
def test_a_failing_mix_prints_one_line_and_leaves_no_out(tmp_path, capsys, args, message):
    write_toy_pool(tmp_path / "pool")
    out = tmp_path / "mixed"
    assert main(["mix", "--in", str(tmp_path / "pool"), "--out", str(out), "--count", "20",
                 *args]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not out.exists()


def test_gen_noise_ppm_of_two_channels_exits_3_writing_nothing(tmp_path, capsys):
    # It used to leave noise_00000.timg and an empty noise_00000.ppm.
    out = tmp_path / "noise"
    assert main(["gen-noise", "--out", str(out), "--count", "2", "--height", "8",
                 "--width", "8", "--channels", "2", "--ppm"]) == EXIT_IO
    assert "PPM export supports 1 or 3 channels, got 2" in capsys.readouterr().err
    assert not out.exists()


def test_a_failing_gen_noise_prints_one_line_and_leaves_no_out(tmp_path, capsys):
    # A 1x1 image is constant, so the first block fails; it used to leave an
    # empty --out.
    out = tmp_path / "noise"
    assert main(["gen-noise", "--out", str(out), "--count", "3", "--height", "1",
                 "--width", "1", "--channels", "1"]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "config error: generator produced a constant image twice in a row"]
    assert not out.exists()
    assert main(["gen-noise", "--out", str(out), "--count", "0"]) == EXIT_OK
    assert list(out.iterdir()) == []


def test_gen_noise_of_a_negative_count_exits_2_and_leaves_no_out(tmp_path, capsys):
    # It used to exit 0 and leave an empty --out.
    out = tmp_path / "noise"
    assert main(["gen-noise", "--out", str(out), "--count", "-3"]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "config error: --count must be >= 0, got -3"]
    assert not out.exists()


# Image commands over inputs they cannot use. {empty} holds no .timg file;
# {noise8} and {noise4} hold two unlabeled gen-noise images, 8x8 and 4x4.
UNUSABLE_IMAGE_INPUTS = {
    "mix-of-no-timg": (["mix", "--in", "{empty}", "--label", "0"], "no .timg files under"),
    "spectrum-of-no-timg": (["spectrum", "--in", "{empty}"], "no .timg files under"),
    "mix-of-unlabeled-noise": (["mix", "--in", "{noise8}", "--label", "0"],
                               "carry no labels; cannot mix"),
    "spectrum-of-4x4-noise": (["spectrum", "--in", "{noise4}"],
                              "not enough populated radial bins for a fit"),
    "gen-noise-height-0": (["gen-noise", "--height", "0"], "bad output dims (0, 32, 3)"),
}


@pytest.mark.parametrize("args, message", UNUSABLE_IMAGE_INPUTS.values(),
                         ids=UNUSABLE_IMAGE_INPUTS)
def test_an_unusable_image_input_exits_2_with_one_line_and_no_out(tmp_path, capsys,
                                                                  args, message):
    dirs = {"empty": tmp_path / "empty"}
    dirs["empty"].mkdir()
    for side in (8, 4):
        dirs[f"noise{side}"] = tmp_path / f"noise{side}"
        assert main(["gen-noise", "--out", str(dirs[f"noise{side}"]), "--count", "2",
                     "--height", str(side), "--width", str(side),
                     "--channels", "1"]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([arg.format(**dirs) for arg in args] + ["--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and message in err[0]
    assert not out.exists()


def test_mix_ppm_of_a_two_channel_pool_exits_3_writing_nothing(tmp_path, capsys):
    pool = tmp_path / "pool"
    pool.mkdir()
    pixels, labels = make_toy_dataset(3, 3, (8, 8, 2), seed=0)
    for i, (p, y) in enumerate(zip(pixels, labels)):
        serialization.save_tensor_image(
            str(pool / f"img_{i:03d}{serialization.TENSOR_SUFFIX}"), LabeledImage(p, int(y)))
    out = tmp_path / "mixed"
    assert main(["mix", "--in", str(pool), "--out", str(out), "--label", "1",
                 "--count", "2", "--k", "3", "--ppm"]) == EXIT_IO
    assert "PPM export supports 1 or 3 channels, got 2" in capsys.readouterr().err
    assert not out.exists()


def test_mix_with_a_laplace_scale_past_float32_exits_2(tmp_path, capsys):
    # It used to write mixups with infinite pixels and exit 0.
    pool = tmp_path / "pool"
    pool.mkdir()
    pixels, labels = make_toy_dataset(3, 3, (8, 8, 1), seed=0)
    for i, (p, y) in enumerate(zip(pixels, labels)):
        serialization.save_tensor_image(
            str(pool / f"img_{i:03d}{serialization.TENSOR_SUFFIX}"), LabeledImage(p, int(y)))
    out = tmp_path / "mixed"
    assert main(["mix", "--in", str(pool), "--out", str(out), "--label", "1",
                 "--count", "4", "--k", "3", "--sigma", "1e38"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: sigma 1e+38 ")
    assert not out.exists()


def test_mix_rejects_a_pool_of_mixed_image_sizes(tmp_path, capsys):
    pool = tmp_path / "pool"
    pool.mkdir()
    for name, dims, label in (("a", (4, 4, 1), 0), ("b", (5, 4, 1), 1), ("c", (4, 4, 1), 1)):
        serialization.save_tensor_image(str(pool / f"{name}{serialization.TENSOR_SUFFIX}"),
                                        LabeledImage(np.zeros(dims, np.float32), label))
    assert main(["mix", "--in", str(pool), "--out", str(tmp_path / "m"),
                 "--label", "0", "--k", "2"]) == EXIT_IO
    assert f"b{serialization.TENSOR_SUFFIX}: dims differ" in capsys.readouterr().err


def test_spectrum_rejects_a_non_finite_pixel(tmp_path, capsys):
    # It used to write the slope "nan" and exit 0, and then, with a good
    # file before the bad one, a CSV of the header and the good file's row.
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    pixels = np.random.default_rng(0).random((8, 8, 1)).astype(np.float32) * 255
    bad = pixels.copy()
    bad[3, 4, 0] = np.inf
    out = tmp_path / "s.csv"
    for name, image in (("b", bad), ("a", pixels)):
        serialization.save_tensor_image(str(in_dir / f"{name}{serialization.TENSOR_SUFFIX}"),
                                        LabeledImage(image, 0))
        assert main(["spectrum", "--in", str(in_dir), "--out", str(out)]) == EXIT_IO
        assert (f"b{serialization.TENSOR_SUFFIX}: the payload holds a non-finite pixel"
                in capsys.readouterr().err)
        assert not out.exists()


def test_mix_rejects_a_pool_holding_a_nan_image(tmp_path, capsys):
    # It used to write NaN mixups and exit 0.
    pool = tmp_path / "pool"
    pool.mkdir()
    pixels, labels = make_toy_dataset(3, 3, (8, 8, 1), seed=0)
    images = [*zip(pixels, labels), (np.full((8, 8, 1), np.nan, np.float32), 1)]
    for i, (p, y) in enumerate(images):
        serialization.save_tensor_image(
            str(pool / f"img_{i:03d}{serialization.TENSOR_SUFFIX}"), LabeledImage(p, int(y)))
    out = tmp_path / "mixed"
    assert main(["mix", "--in", str(pool), "--out", str(out), "--label", "1",
                 "--count", "4", "--k", "3"]) == EXIT_IO
    assert "img_009.timg: the payload holds a non-finite pixel" in capsys.readouterr().err
    assert not out.exists()


def test_a_config_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    # It used to die with a UnicodeDecodeError traceback (exit 1).
    path = tmp_path / "exp.cfg"
    path.write_bytes(b"[run]\nseed = 1\n# \xff\xfe")
    assert main(["partition", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {path}: ")


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[train]\nmodel = resnet\n")
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert main(["train", "--config", "/missing.cfg", "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_io_error_exit_code(tmp_path, config_path):
    cfg = tmp_path / "mnist.cfg"
    cfg.write_text("[dataset]\nkind = mnist\npath = /nonexistent-dir\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_IO


@pytest.mark.parametrize("command", ["partition", "balance", "train", "grid"])
def test_an_out_that_is_a_file_exits_3_before_any_data_loads(tmp_path, capsys, monkeypatch,
                                                             command):
    # `train` used to run every round and only then fail to make --out, and a
    # real-data `grid` to load both splits for its digest first.
    write_mnist_dir(tmp_path / "mnist", False)
    cfg = tmp_path / "mnist.cfg"
    cfg.write_text(f"[dataset]\nkind = mnist\npath = {tmp_path / 'mnist'}\n"
                   "[partition]\nclasses_per_client = 2\nnum_clients = 5\n"
                   "[balance]\nsupplement_pct = 50\n"
                   "[train]\nmodel = logreg\nrounds = 1\nbatch_size = 8\n")
    out = tmp_path / "out"
    out.write_text("kept")
    called = []

    def recording(module, name):
        real = getattr(module, name)

        def call(*args):
            called.append(name)
            return real(*args)
        monkeypatch.setattr(module, name, call)

    recording(experiments, "prepare_clients")
    recording(datasets, "load_mnist_dir")
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_IO
    assert capsys.readouterr().err.splitlines() == [
        f"i/o error: [Errno 17] File exists: '{out}'"]
    assert called == []
    assert out.read_text() == "kept"


def write_mnist_dir(directory, truncate_test_images, test_images=10, train_images=40,
                    seed=8):
    """MNIST IDX files: `train_images` training and `test_images` test images
    of 28x28 with pixels drawn from `seed`, four per class in training by
    default; optionally the test-image file loses its last 100 bytes. Files
    already in `directory` are overwritten."""
    rng = np.random.default_rng(seed)
    directory.mkdir(exist_ok=True)
    for prefix, n in (("train", train_images), ("t10k", test_images)):
        images = encode_idx(rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8))
        if prefix == "t10k" and truncate_test_images:
            images = images[:-100]
        (directory / f"{prefix}-images-idx3-ubyte").write_bytes(images)
        (directory / f"{prefix}-labels-idx1-ubyte").write_bytes(
            encode_idx(np.arange(n, dtype=np.uint8) % 10))


def one_cell_grid_config(tmp_path, kind, data):
    cfg = tmp_path / f"{kind}.cfg"
    cfg.write_text(f"[dataset]\nkind = {kind}\npath = {data}\n"
                   "[train]\nmodel = logreg\nrounds = 1\n")
    return str(cfg)


def assert_resumed_grid_matches_a_fresh_one(tmp_path, cfg, change_data):
    """Run the grid, call `change_data`, run it again in the same directory:
    its files must be those of a fresh grid on the changed data."""
    out = tmp_path / "grid"
    assert main(["grid", "--config", cfg, "--out", str(out)]) == EXIT_OK
    change_data()
    assert main(["grid", "--config", cfg, "--out", str(out)]) == EXIT_OK
    fresh = tmp_path / "fresh"
    assert main(["grid", "--config", cfg, "--out", str(fresh)]) == EXIT_OK
    assert grid_files(out) == grid_files(fresh)


def test_grid_reruns_a_cell_whose_data_files_changed(tmp_path):
    data = tmp_path / "mnist"
    write_mnist_dir(data, False, test_images=50, train_images=200)
    assert_resumed_grid_matches_a_fresh_one(
        tmp_path, one_cell_grid_config(tmp_path, "mnist", data),
        lambda: write_mnist_dir(data, False, test_images=50, train_images=200, seed=9))


@pytest.mark.parametrize("name", ["train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                                  "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"])
def test_grid_reruns_a_cell_when_one_mnist_file_changed(tmp_path, name):
    data = tmp_path / "mnist"
    write_mnist_dir(data, False, test_images=50, train_images=200)
    n = 200 if name.startswith("train") else 50
    if "images" in name:
        changed = encode_idx(np.random.default_rng(9).integers(
            0, 256, size=(n, 28, 28), dtype=np.uint8))
    else:   # the same labels, shifted by one class
        changed = encode_idx((np.arange(n, dtype=np.uint8) + 1) % 10)
    assert_resumed_grid_matches_a_fresh_one(
        tmp_path, one_cell_grid_config(tmp_path, "mnist", data),
        lambda: (data / name).write_bytes(changed))


def cifar10_batch(n, seed):
    pixels = np.random.default_rng(seed).integers(0, 256, size=(n, 32, 32, 3))
    return encode_cifar10(pixels, np.arange(n) % 10)


def write_cifar10_dir(directory):
    """Five training batches of 40 images and a test batch of 50."""
    directory.mkdir()
    for b in range(1, 6):
        (directory / f"data_batch_{b}.bin").write_bytes(cifar10_batch(40, b))
    (directory / "test_batch.bin").write_bytes(cifar10_batch(50, 6))


def test_grid_reruns_a_cell_whose_cifar10_test_batch_changed(tmp_path):
    data = tmp_path / "cifar10"
    write_cifar10_dir(data)
    assert_resumed_grid_matches_a_fresh_one(
        tmp_path, one_cell_grid_config(tmp_path, "cifar10", data),
        lambda: (data / "test_batch.bin").write_bytes(cifar10_batch(50, 7)))


@pytest.mark.parametrize("kind, write, load", [
    ("mnist", lambda d: write_mnist_dir(d, False, test_images=50, train_images=200),
     datasets.load_mnist_dir),
    ("cifar10", write_cifar10_dir, datasets.load_cifar10_dir)])
def test_grid_data_digest_is_sha256_of_train_then_test_pixels_and_labels(
        tmp_path, kind, write, load):
    # Hashed in place, not through `tobytes()`; CIFAR-10's pixels are not
    # C-contiguous, so they cannot be hashed as they are loaded.
    data = tmp_path / kind
    write(data)
    out = tmp_path / "grid"
    assert main(["grid", "--config", one_cell_grid_config(tmp_path, kind, data),
                 "--out", str(out)]) == EXIT_OK
    (fingerprint,) = out.glob("cells/*/config.csv")
    digest = hashlib.sha256()
    for split in ("train", "test"):
        for array in load(str(data), split):
            digest.update(array.tobytes())
    assert list(csv.reader(fingerprint.read_text().splitlines()))[-1] == [
        "data_sha256", digest.hexdigest()]
    assert load(str(data), "train")[0].flags.c_contiguous == (kind == "mnist")


def test_grid_reuses_a_cell_whose_data_files_are_unchanged(tmp_path, monkeypatch):
    data = tmp_path / "mnist"
    write_mnist_dir(data, False, test_images=50, train_images=200)
    cfg = one_cell_grid_config(tmp_path, "mnist", data)
    out = tmp_path / "grid"
    assert main(["grid", "--config", cfg, "--out", str(out)]) == EXIT_OK
    (fingerprint,) = out.glob("cells/*/config.csv")
    assert list(csv.reader(fingerprint.read_text().splitlines()))[-1][0] == "data_sha256"
    before = grid_files(out)
    ran = []
    monkeypatch.setattr(experiments, "run_experiment", lambda *args: ran.append(args))
    assert main(["grid", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert ran == []
    assert grid_files(out) == before


# SHA-256 of the pixels, then the labels, that subset_per_class = 4 keeps of
# 45 training images at data seed 3
PINNED_SUBSET = "010893961a144f339d034c5ed560f647217c6956ce0749c49d5e375afdfc8dcf"


def test_subset_per_class_keeps_each_label_s_rows_in_dataset_order(tmp_path):
    # 45 images: labels 0-4 hold five each, labels 5-9 four.
    write_mnist_dir(tmp_path / "mnist", False, train_images=45)
    pixels, labels = datasets.load_mnist_dir(str(tmp_path / "mnist"), "train")
    index = {row.tobytes(): i for i, row in enumerate(pixels)}
    base = experiments.ExperimentConfig(dataset="mnist", data_path=str(tmp_path / "mnist"),
                                        classes_per_client=2, num_clients=5, seed=3)
    for k in (4, 6):
        (sub_pixels, sub_labels), _, _ = experiments.load_train(
            replace(base, subset_per_class=k))
        assert sub_labels.tolist() == sorted(sub_labels.tolist())
        for label in range(10):
            rows = [index[row.tobytes()] for row in sub_pixels[sub_labels == label]]
            assert len(rows) == min(k, 5 if label < 5 else 4)
            assert rows == sorted(rows) and all(labels[i] == label for i in rows)
    cfg = replace(base, subset_per_class=4, grid_classes_per_client=(1, 2),
                  grid_supplement_pct=(0, 50))
    picks = [experiments.load_train(cell)[0] for cell in [cfg, *experiments.grid_cells(cfg)]]
    assert len({cell.seed for cell in experiments.grid_cells(cfg)}) == 4
    digests = {hashlib.sha256(p.tobytes() + y.tobytes()).hexdigest() for p, y in picks}
    assert digests == {PINNED_SUBSET}
    other, _, _ = experiments.load_train(replace(cfg, seed=4))
    assert other[0].tobytes() != picks[0][0].tobytes()

    path = tmp_path / "mnist.cfg"
    path.write_text(f"[dataset]\nkind = mnist\npath = {tmp_path / 'mnist'}\n"
                    "subset_per_class = 4\n"
                    "[partition]\nclasses_per_client = 2\nnum_clients = 5\n"
                    "[train]\nmodel = logreg\nrounds = 1\nbatch_size = 8\n[run]\nseed = 3\n")
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--out", str(out)]) == EXIT_OK
    manifest = list(csv.DictReader((out / "partition_manifest.csv").read_text().splitlines()))
    assert sum(int(row["count"]) for row in manifest) == 40


def test_only_train_reads_the_test_split(tmp_path):
    outputs = {}
    for truncate in (False, True):
        data = tmp_path / f"mnist-{truncate}"
        write_mnist_dir(data, truncate)
        cfg = tmp_path / f"mnist-{truncate}.cfg"
        cfg.write_text(f"[dataset]\nkind = mnist\npath = {data}\n"
                       "[partition]\nclasses_per_client = 2\nnum_clients = 5\n"
                       "[balance]\nsupplement_pct = 50\nmix_fraction = 0.5\n"
                       "k = 2\nsigma = 2\n"
                       "[train]\nmodel = logreg\nrounds = 1\nbatch_size = 8\n")
        for command in ("partition", "balance"):
            out = tmp_path / f"{command}-{truncate}"
            assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            outputs[command, truncate] = {p.name: p.read_bytes() for p in out.iterdir()}
        train_rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")])
        assert train_rc == (EXIT_IO if truncate else EXIT_OK)
    assert outputs["partition", True] == outputs["partition", False]
    assert outputs["balance", True] == outputs["balance", False]
    assert set(outputs["balance", True]) == {
        "partition_manifest.csv", "balance_manifest.csv", "trace.csv"}


@pytest.mark.parametrize("split, name, tensor", [
    ("train", "train-images-idx3-ubyte", np.zeros((40, 14, 28), np.uint8)),
    ("test", "t10k-images-idx3-ubyte", np.zeros((10, 28, 27), np.uint8)),
    ("train", "train-labels-idx1-ubyte", np.r_[np.arange(39) % 10, 200].astype(np.uint8)),
    ("test", "t10k-labels-idx1-ubyte", np.r_[np.arange(9), 10].astype(np.uint8)),
], ids=["train-14x28", "test-28x27", "train-label-200", "test-label-10"])
def test_mnist_images_not_28x28_or_labels_above_9_exit_3(tmp_path, capsys, split, name,
                                                        tensor):
    # They used to crash in training (other dims) or exit 2 with a
    # partition error (labels).
    write_mnist_dir(tmp_path / "mnist", False)
    (tmp_path / "mnist" / name).write_bytes(encode_idx(tensor))
    cfg = tmp_path / "mnist.cfg"
    cfg.write_text(f"[dataset]\nkind = mnist\npath = {tmp_path / 'mnist'}\n"
                   "[partition]\nnum_clients = 10\n[train]\nmodel = logreg\nrounds = 1\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_IO
    assert f"the {split} split is not (28, 28, 1) images" in capsys.readouterr().err


def test_empty_test_split_exits_3(tmp_path, capsys):
    write_mnist_dir(tmp_path / "mnist", False, test_images=0)
    cfg = tmp_path / "mnist.cfg"
    cfg.write_text(f"[dataset]\nkind = mnist\npath = {tmp_path / 'mnist'}\n"
                   "[partition]\nclasses_per_client = 2\nnum_clients = 5\n"
                   "[train]\nmodel = logreg\nrounds = 1\nbatch_size = 8\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == EXIT_IO
    assert "the test split holds no images" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["partition", "train"])
def test_empty_training_split_exits_3(tmp_path, capsys, command):
    # It used to exit 2 with a partition error: classes_per_client must be in [1, 0].
    write_mnist_dir(tmp_path / "mnist", False, train_images=0)
    cfg = tmp_path / "mnist.cfg"
    cfg.write_text(f"[dataset]\nkind = mnist\npath = {tmp_path / 'mnist'}\n"
                   "[partition]\nclasses_per_client = 2\nnum_clients = 5\n"
                   "[train]\nmodel = logreg\nrounds = 1\nbatch_size = 8\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "t")]) == EXIT_IO
    assert "the train split holds no images" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("header, payload", [
    (b"not json", bytes(4 * 16)),
    (b"[4, 4, 1]", bytes(4 * 16)),
    (b'{"label": 1}', bytes(4 * 16)),
    (b'{"dims": [4, "4", 1]}', bytes(4 * 16)),
    (b'{"dims": [4, 4]}', bytes(4 * 16)),
    (b'{"dims": [4, 4, 1], "label": "one"}', bytes(4 * 16)),
    (b'{"dims": [4, 4, 1], "provenance": "x"}', bytes(4 * 16)),
    # 2**64 pixels: a product that wraps around to 0 would accept the empty payload
    (b'{"dims": [4294967296, 4294967296, 1]}', b""),
], ids=["not-json", "not-object", "no-dims", "str-dim", "two-dims", "str-label",
        "unknown-provenance", "overflowing-dims"])
def test_malformed_tensor_header_exits_3(tmp_path, header, payload):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    (in_dir / f"bad{serialization.TENSOR_SUFFIX}").write_bytes(header + b"\n" + payload)
    out_csv = str(tmp_path / "slopes.csv")
    assert main(["spectrum", "--in", str(in_dir), "--out", out_csv]) == EXIT_IO
    assert main(["mix", "--in", str(in_dir), "--out", str(tmp_path / "m"),
                 "--label", "0"]) == EXIT_IO


@pytest.mark.parametrize("header", [b"\x00garbage", b"[]", b'{"dims": [1]}',
                                    b'{"schema": [["dense", 2, 2], 7]}'],
                         ids=["not-json", "not-object", "no-schema", "bad-layer"])
def test_malformed_checkpoint_header_raises_format_error(tmp_path, header):
    path = tmp_path / "model.ckpt"
    path.write_bytes(header + b"\n" + bytes(24))
    with pytest.raises(serialization.FormatError):
        serialization.load_checkpoint(str(path))


# Layer sizes that are not positive ints, or the wrong number of them. The
# first four used to raise a bare TypeError while sizing the payload; the next
# four loaded, with a payload sized to match (none at all for the last two).
BAD_LAYER_SIZES = {
    "conv-null": '["conv3x3", null, 16]',
    "conv-str": '["conv3x3", "a", 8]',
    "conv-object": '["conv3x3", {}, 16]',
    "dense-list": '["dense", 64, [1]]',
    "dense-bool": '["dense", true, 10]',
    "dense-float": '["dense", 1.0, 10]',
    "dense-negative": '["dense", -1, -10]',
    "dense-zero": '["dense", 0, 0]',
    "dense-one-size": '["dense", 3]',
}


@pytest.mark.parametrize("layer", BAD_LAYER_SIZES.values(), ids=BAD_LAYER_SIZES)
def test_checkpoint_layer_sizes_must_be_positive_ints(tmp_path, layer):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b'{"schema": [' + layer.encode() + b', ["softmax"]]}\n' + bytes(44))
    with pytest.raises(serialization.FormatError, match="bad layer entry"):
        serialization.load_checkpoint(str(path))


def test_tensor_image_round_trip(tmp_path):
    img = LabeledImage(np.linspace(-5, 300, 48, dtype=np.float32).reshape(4, 4, 3),
                       2, Provenance.MIXUP)
    path = str(tmp_path / f"x{serialization.TENSOR_SUFFIX}")
    serialization.save_tensor_image(path, img)
    back = serialization.load_tensor_image(path)
    assert np.array_equal(back.pixels, img.pixels)
    assert back.label == 2
    assert back.provenance is Provenance.MIXUP


def test_ppm_clamps_only_at_export(tmp_path):
    pixels = np.array([[[-20.0], [270.0]], [[10.0], [128.0]]], dtype=np.float32)
    path = tmp_path / "img.pgm"
    serialization.save_ppm(str(path), pixels)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    assert list(raw[-4:]) == [0, 255, 10, 128]


def test_checkpoint_round_trip(tmp_path):
    from fedbalance.training import ModelParams, build_model, init_model
    params = init_model(build_model("cnn", (8, 8, 1), 4), seed=3)
    path = str(tmp_path / "model.ckpt")
    serialization.save_checkpoint(path, params)
    with open(path, "rb") as fh:
        assert fh.readline() == (
            b'{"schema": [["conv3x3", 1, 8], ["maxpool2"], ["relu"], ["conv3x3", 8, 16], '
            b'["maxpool2"], ["relu"], ["dense", 64, 4], ["softmax"]]}\n')
    back = serialization.load_checkpoint(path)
    assert back.schema == params.schema
    assert np.array_equal(back.flat, params.flat)
    with pytest.raises(serialization.FormatError):
        serialization.save_checkpoint(path, ModelParams((object(),), params.flat))


def test_write_csv_that_fails_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old,bytes\r\n")

    def rows():
        yield ["a", 1]
        raise RuntimeError("row 2")

    with pytest.raises(RuntimeError, match="row 2"):
        serialization.write_csv(str(path), rows())
    assert path.read_bytes() == b"old,bytes\r\n"
    # A rename that fails (the target is a directory) removes the temp file.
    (tmp_path / "dir").mkdir()
    with pytest.raises(OSError):
        serialization.write_csv(str(tmp_path / "dir"), [["a", 1]])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "out.csv"]


def _writes_a_file(call: ast.Call) -> bool:
    """A builtin `open` in a write, append, create or update mode, or `os.replace`."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[1:2]
        mode = modes[0] if modes else ast.Constant("r")
        return not isinstance(mode, ast.Constant) or bool(set(mode.value) & set("wax+"))
    return (isinstance(func, ast.Attribute) and func.attr == "replace"
            and isinstance(func.value, ast.Name) and func.value.id == "os")


def test_only_serialization_writes_files():
    # Every output goes through serialization._write_file, so each file
    # appears whole or not at all. The workers' os.fdopen of their reply
    # pipe opens no file.
    package = pathlib.Path(serialization.__file__).parent
    writes = {path.name: [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                          if isinstance(node, ast.Call) and _writes_a_file(node)]
              for path in sorted(package.glob("*.py"))}
    assert {name for name, lines in writes.items() if lines} == {"serialization.py"}
    assert len(writes["serialization.py"]) == 2   # one open, one os.replace


FUZZ_BASE = """\
[dataset]
kind = toy
toy_classes = 3
toy_per_class = 6
toy_test_per_class = 2
toy_dims = 6x6x1

[partition]
classes_per_client = 1
num_clients = 3

[balance]
supplement_pct = 50
mix_fraction = 0.5
k = 2

[train]
rounds = 1
batch_size = 4
"""
FUZZ_VALUES = ("0", "-1", "nan", "inf", "1e38", "", "abc")
FUZZ_CASES = [(scheme, section, key, value)
              for scheme in ("class_skew", "dirichlet")
              for section, keys in experiments._SECTIONS.items() for key in keys
              for value in FUZZ_VALUES]


@pytest.mark.parametrize("scheme, section, key, value", FUZZ_CASES,
                         ids=["-".join(case) for case in FUZZ_CASES])
def test_every_key_at_a_boundary_value_exits_0_or_2(tmp_path, capsys, scheme,
                                                      section, key, value):
    # The full product, not a sample: every config key at every boundary
    # value, over a tiny toy base of either scheme. A traceback fails here.
    path = tmp_path / "exp.cfg"
    path.write_text(_config_text(("partition", "scheme", scheme), (section, key, value),
                                 base=FUZZ_BASE))
    out = tmp_path / "out"
    command = "grid" if section == "grid" else "train"
    code = main([command, "--config", str(path), "--out", str(out)])
    assert code in (EXIT_OK, EXIT_CONFIG), capsys.readouterr().err
    if code == EXIT_OK:
        if command == "grid":
            rows = list(csv.DictReader((out / "summary.csv").read_text().splitlines()))
            numbers = [row[f] for row in rows for f in ("final_accuracy", "best_accuracy")]
        else:
            rows = list(csv.DictReader((out / "metrics.csv").read_text().splitlines()))
            numbers = [row[f] for row in rows for f in ("global_test_acc", "mean_train_loss")]
        assert numbers and all(math.isfinite(float(n)) for n in numbers)


# Values a key may take in a sub-second toy run, drawn alongside FUZZ_VALUES.
VALID_VALUES = {
    ("dataset", "kind"): st.sampled_from(["toy", "mnist", "cifar10"]),
    ("dataset", "path"): st.just("no-such-directory"),
    ("dataset", "subset_per_class"): st.integers(0, 3).map(str),
    ("dataset", "toy_classes"): st.integers(1, 5).map(str),
    ("dataset", "toy_per_class"): st.integers(1, 8).map(str),
    ("dataset", "toy_test_per_class"): st.integers(1, 4).map(str),
    ("dataset", "toy_dims"): st.tuples(st.integers(1, 8), st.integers(1, 8),
                                       st.integers(1, 3)).map(lambda d: "x".join(map(str, d))),
    ("dataset", "toy_jitter"): st.integers(0, 20).map(str),
    ("partition", "classes_per_client"): st.integers(1, 4).map(str),
    ("partition", "concentration"): st.floats(0.01, 10).map(repr),
    ("partition", "num_clients"): st.integers(1, 6).map(str),
    ("balance", "supplement_pct"): st.floats(0, 100).map(repr),
    ("balance", "mix_fraction"): st.floats(0, 1).map(repr),
    ("balance", "k"): st.integers(2, 5).map(str),
    ("balance", "sigma"): st.floats(0, 100).map(repr),
    ("balance", "deadline"): st.integers(1, 4).map(str),
    ("balance", "capacity_fraction"): st.floats(0, 1).map(repr),
    ("balance", "topology"): st.just("star") | st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=4).map(
            lambda edges: ",".join(f"{a}-{b}" for a, b in edges)),
    ("noise", "base_resolution"): st.integers(1, 6).map(str),
    ("noise", "channels_per_scale"): st.integers(1, 8).map(str),
    ("noise", "wavelet_bank"): st.sampled_from(["oriented_gabor", "haar"]),
    ("noise", "leaky_slope"): st.floats(-1, 1).map(repr),
    ("train", "rounds"): st.integers(1, 2).map(str),
    ("train", "batch_size"): st.integers(1, 16).map(str),
    ("train", "local_epochs"): st.integers(1, 2).map(str),
    ("train", "lr"): st.floats(1e-4, 1).map(repr),
    ("train", "beta1"): st.floats(0, 0.999).map(repr),
    ("train", "beta2"): st.floats(0, 0.999).map(repr),
    ("train", "eps"): st.floats(1e-8, 1e-2).map(repr),
    ("train", "participation_fraction"): st.floats(0.1, 1).map(repr),
    ("run", "seed"): st.integers(0, 1000).map(str),
}


def train_configs(value):
    """(scheme, model, 2-4 ((section, key), `value(key)`) pairs) of a toy config."""
    return st.tuples(
        st.sampled_from(["class_skew", "dirichlet"]), st.sampled_from(["logreg", "mlp", "cnn"]),
        st.lists(st.sampled_from(sorted(VALID_VALUES)), min_size=2, max_size=4,
                 unique=True).flatmap(
            lambda keys: st.tuples(*(st.tuples(st.just(key), value(key)) for key in keys))))


def write_train_config(path, config):
    scheme, model, values = config
    path.write_text(_config_text(("partition", "scheme", scheme), ("train", "model", model),
                                 *((section, key, value) for (section, key), value in values),
                                 base=FUZZ_BASE))


def test_whole_train_configs_exit_0_2_or_3_and_a_failure_writes_nothing(tmp_path, capfd):
    # Fresh workers inherit this test's captured stderr, so a line a worker
    # prints is counted too; they are closed again before the capture ends.
    workers.pool().close()
    runs = itertools.count()

    @settings(deadline=None, max_examples=100)
    @given(config=train_configs(lambda key: VALID_VALUES[key] | st.sampled_from(FUZZ_VALUES)))
    def run_train(config):
        path = tmp_path / "exp.cfg"
        write_train_config(path, config)
        out = tmp_path / f"out{next(runs)}"
        capfd.readouterr()
        code = main(["train", "--config", str(path), "--out", str(out)])
        err = capfd.readouterr().err
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_IO), err
        if code != EXIT_OK:
            assert err.count("\n") == 1 and err.endswith("\n"), err
            assert not out.exists()
        else:
            assert err == ""
            rows = list(csv.DictReader((out / "metrics.csv").read_text().splitlines()))
            numbers = [row[f] for row in rows for f in ("global_test_acc", "mean_train_loss")]
            assert numbers and all(math.isfinite(float(n)) for n in numbers)

    try:
        run_train()
    finally:
        workers.pool().close()


def test_whole_train_configs_write_the_same_files_with_one_or_two_workers(tmp_path,
                                                                           monkeypatch):
    runs = itertools.count()

    @settings(deadline=None, max_examples=5)
    @given(config=train_configs(VALID_VALUES.__getitem__))
    def run_train(config):
        path = tmp_path / "exp.cfg"
        write_train_config(path, config)
        outputs = []
        for n in (1, 2):
            monkeypatch.setattr(workers, "_usable_cores", lambda: n)
            out = tmp_path / f"out{next(runs)}"
            code = main(["train", "--config", str(path), "--out", str(out)])
            files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
            outputs.append((code, files))
        assert outputs[0] == outputs[1]

    try:
        run_train()
    finally:
        workers.pool().close()
