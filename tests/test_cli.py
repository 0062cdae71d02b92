import configparser
import csv
import hashlib
import io
import math

import numpy as np
import pytest

from fedbalance import experiments, serialization
from fedbalance.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from fedbalance.datasets import (LabeledImage, Provenance, encode_idx,
                                 make_toy_dataset)

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
    "train-lr-nan": _config_text(("train", "lr", "nan")),
    "train-lr-0": _config_text(("train", "lr", "0")),
    "train-eps-inf": _config_text(("train", "eps", "inf")),
    "train-beta1-1": _config_text(("train", "beta1", "1")),
    "train-beta2--0.1": _config_text(("train", "beta2", "-0.1")),
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
    # It used to write the slope "nan" and exit 0.
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    pixels = np.random.default_rng(0).random((8, 8, 1)).astype(np.float32) * 255
    pixels[3, 4, 0] = np.inf
    serialization.save_tensor_image(str(in_dir / f"a{serialization.TENSOR_SUFFIX}"),
                                    LabeledImage(pixels, 0))
    assert main(["spectrum", "--in", str(in_dir), "--out", str(tmp_path / "s.csv")]) == EXIT_IO
    assert "non-finite pixel" in capsys.readouterr().err


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


def write_mnist_dir(directory, truncate_test_images, test_images=10, train_images=40):
    """MNIST IDX files: `train_images` training and `test_images` test images
    of 28x28, four per class in training by default; optionally the
    test-image file loses its last 100 bytes."""
    rng = np.random.default_rng(8)
    directory.mkdir()
    for prefix, n in (("train", train_images), ("t10k", test_images)):
        images = encode_idx(rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8))
        if prefix == "t10k" and truncate_test_images:
            images = images[:-100]
        (directory / f"{prefix}-images-idx3-ubyte").write_bytes(images)
        (directory / f"{prefix}-labels-idx1-ubyte").write_bytes(
            encode_idx(np.arange(n, dtype=np.uint8) % 10))


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


# Layer sizes that are not positive ints. The first four used to raise a bare
# TypeError while sizing the payload; the rest loaded, with a payload sized to
# match (none at all for the last two).
BAD_LAYER_SIZES = {
    "conv-null": '["conv3x3", null, 16]',
    "conv-str": '["conv3x3", "a", 8]',
    "conv-object": '["conv3x3", {}, 16]',
    "dense-list": '["dense", 64, [1]]',
    "dense-bool": '["dense", true, 10]',
    "dense-float": '["dense", 1.0, 10]',
    "dense-negative": '["dense", -1, -10]',
    "dense-zero": '["dense", 0, 0]',
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
FUZZ_VALUES = ("0", "-1", "nan", "inf", "", "abc")
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
