"""Mutation fuzz of the file readers and of the CLI commands that read files.

Each case starts from valid files, rewrites one key of a JSON header or not,
then flips, cuts, inserts or deletes bytes. A reader must load the result or
raise its own error (`FormatError`, `DatasetError`). A command must exit 3
whenever a reader rejects one of its files, and otherwise 0, or 2 for content
it cannot use (a constant image for `spectrum`, too few examples of a label
for `train`); a traceback fails here. The example counts keep the whole file
to a few seconds.
"""

import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import encode_cifar10, encode_idx

from fedbalance import serialization
from fedbalance.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from fedbalance.datasets import DatasetError, LabeledImage, parse_cifar10, parse_idx
from fedbalance.training import build_model, init_model

FUZZ = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

# One byte edit, (kind, position, bytes); a position wraps around the data.
# Mostly xor, which keeps the length, so that more mutants get past the
# size checks.
EDITS = st.lists(st.tuples(st.sampled_from(["xor"] * 5 + ["cut", "insert", "delete"]),
                           st.integers(0, 2**16), st.binary(min_size=1, max_size=4)),
                 max_size=3)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**66, 2**66) | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=8)
# Dims of any shape, or of the 64 pixels the fuzzed images hold.
DIMS = (st.lists(st.integers(-1, 70), max_size=4)
        | st.sampled_from([[8, 8, 1], [4, 4, 4], [1, 1, 64], [64, 1, 1], [2, 32, 1]]))
LAYERS = st.lists(st.lists(st.sampled_from(["dense", "conv3x3", "maxpool2", "relu",
                                            "softmax", "x"]) | st.integers(-1, 80) | JSON,
                           max_size=4), max_size=4)
# (header key, new value); None leaves the header alone, `...` deletes the key.
TIMG_HEADER = st.none() | st.tuples(st.sampled_from(["dims", "label", "provenance", "x"]),
                                    DIMS | JSON | st.just(...))
CKPT_HEADER = st.none() | st.tuples(st.sampled_from(["schema", "x"]),
                                    LAYERS | JSON | st.just(...))


def edit(data: bytes, edits) -> bytes:
    for kind, pos, blob in edits:
        at = pos % (len(data) + 1)
        if kind == "xor" and data:
            at %= len(data)
            data = data[:at] + bytes([data[at] ^ (blob[0] or 1)]) + data[at + 1:]
        elif kind == "cut":
            data = data[:at]
        elif kind == "insert":
            data = data[:at] + blob + data[at:]
        elif kind == "delete":
            data = data[:at] + data[at + len(blob):]
    return data


def mutate(data: bytes, header_edit, edits) -> bytes:
    """`data`, a JSON header line and its payload, with the header edit and
    then the byte edits applied."""
    if header_edit is not None:
        line, payload = data.split(b"\n", 1)
        header = json.loads(line)
        key, value = header_edit
        if value is ...:
            header.pop(key, None)
        else:
            header[key] = value
        data = json.dumps(header).encode() + b"\n" + payload
    return edit(data, edits)


def tensor_bytes(tmp_path, pixels, label) -> bytes:
    path = str(tmp_path / f"valid{serialization.TENSOR_SUFFIX}")
    serialization.save_tensor_image(path, LabeledImage(pixels, label))
    with open(path, "rb") as fh:
        return fh.read()


def toy_pixels(i, dims=(8, 8, 1)):
    return np.random.default_rng(i).integers(0, 256, dims).astype(np.float32)


@settings(FUZZ, max_examples=150)
@given(header_edit=TIMG_HEADER, edits=EDITS)
def test_load_tensor_image_loads_or_raises_format_error(tmp_path, header_edit, edits):
    path = tmp_path / f"fuzz{serialization.TENSOR_SUFFIX}"
    path.write_bytes(mutate(tensor_bytes(tmp_path, toy_pixels(0), 3), header_edit, edits))
    try:
        image = serialization.load_tensor_image(str(path))
    except serialization.FormatError:
        return
    assert image.pixels.dtype == np.float32 and image.pixels.ndim == 3
    assert np.isfinite(image.pixels).all()


@settings(FUZZ, max_examples=150)
@given(header_edit=CKPT_HEADER, edits=EDITS)
def test_load_checkpoint_loads_or_raises_format_error(tmp_path, header_edit, edits):
    path = tmp_path / "model.ckpt"
    serialization.save_checkpoint(str(path), init_model(build_model("mlp", (4, 4, 1), 3), 0))
    path.write_bytes(mutate(path.read_bytes(), header_edit, edits))
    try:
        params = serialization.load_checkpoint(str(path))
    except serialization.FormatError:
        return
    assert params.flat.dtype == np.float32


@settings(FUZZ, max_examples=150)
@given(images=st.booleans(), edits=EDITS)
def test_parse_idx_loads_or_raises_dataset_error(images, edits):
    rng = np.random.default_rng(1)
    tensor = rng.integers(0, 256, (3, 5, 4) if images else (7,), dtype=np.uint8)
    try:
        parsed, meta = parse_idx(edit(encode_idx(tensor), edits))
    except DatasetError:
        return
    assert parsed.shape == meta["dims"] and parsed.dtype == np.uint8


@settings(FUZZ, max_examples=100)
@given(edits=EDITS)
def test_parse_cifar10_loads_or_raises_dataset_error(edits):
    rng = np.random.default_rng(2)
    pixels = rng.integers(0, 256, (2, 32, 32, 3))
    try:
        parsed, labels = parse_cifar10(edit(encode_cifar10(pixels, np.array([3, 9])), edits))
    except DatasetError:
        return
    assert parsed.shape == (len(labels), 32, 32, 3) and labels.max(initial=0) < 10


def mix_and_spectrum(tmp_path, victim, header_edit, edits):
    """(spectrum's and mix's exit codes, whether `load_tensor_image` rejects
    a file, whether the images' dims differ) over a pool of four 8x8 images
    whose `victim` got the edits; each exit-0 output is checked to be finite."""
    pool = tmp_path / "pool"
    pool.mkdir(exist_ok=True)
    for old in pool.iterdir():
        old.unlink()
    for i, label in enumerate([0, 0, 1, 1]):
        data = tensor_bytes(tmp_path, toy_pixels(i), label)
        if i == victim:
            data = mutate(data, header_edit, edits)
        (pool / f"img_{i}{serialization.TENSOR_SUFFIX}").write_bytes(data)
    try:
        shapes = {serialization.load_tensor_image(path).pixels.shape
                  for path in serialization.list_tensor_images(str(pool))}
        rejected = False
    except serialization.FormatError:
        shapes, rejected = set(), True

    slopes = tmp_path / "slopes.csv"
    spectrum = main(["spectrum", "--in", str(pool), "--out", str(slopes)])
    if spectrum == EXIT_OK:
        rows = slopes.read_text().splitlines()[1:]
        assert len(rows) == 4 and all(np.isfinite(float(r.split(",")[1])) for r in rows)
    mixed = tmp_path / "mixed"
    mix = main(["mix", "--in", str(pool), "--out", str(mixed), "--label", "0",
                "--count", "2", "--k", "3"])
    if mix == EXIT_OK:
        for path in serialization.list_tensor_images(str(mixed)):
            assert np.isfinite(serialization.load_tensor_image(path).pixels).all()
    return spectrum, mix, rejected, len(shapes) > 1


def test_mix_and_spectrum_on_the_unmutated_pool_exit_0(tmp_path):
    assert mix_and_spectrum(tmp_path, 0, None, []) == (EXIT_OK, EXIT_OK, False, False)


@settings(FUZZ, max_examples=60)
@given(victim=st.integers(0, 3), header_edit=TIMG_HEADER, edits=EDITS)
def test_mix_and_spectrum_exit_0_2_or_3_on_a_mutated_image(tmp_path, capsys, victim,
                                                            header_edit, edits):
    spectrum, mix, rejected, dims_differ = mix_and_spectrum(tmp_path, victim, header_edit,
                                                            edits)
    err = capsys.readouterr().err
    # `mix` also rejects a pool of mixed dims as a format error.
    for code, io_error in ((spectrum, rejected), (mix, rejected or dims_differ)):
        assert (code == EXIT_IO) if io_error else code in (EXIT_OK, EXIT_CONFIG), err


MNIST_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
               "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def train_on_mnist(tmp_path, victim, edits):
    """(exit code, whether `parse_idx` rejects the victim file) of a one-round
    `train` on a 40-image MNIST directory whose `victim` file got `edits`."""
    data = tmp_path / "mnist"
    data.mkdir(exist_ok=True)
    rng = np.random.default_rng(3)
    for name in MNIST_FILES:
        n = 40 if name.startswith("train") else 10
        tensor = (rng.integers(0, 256, (n, 28, 28), dtype=np.uint8) if "images" in name
                  else np.arange(n, dtype=np.uint8) % 10)
        raw = encode_idx(tensor)
        (data / name).write_bytes(edit(raw, edits) if name == victim else raw)
    try:
        parse_idx((data / victim).read_bytes())
        rejected = False
    except DatasetError:
        rejected = True
    cfg = tmp_path / "mnist.cfg"
    cfg.write_text(f"[dataset]\nkind = mnist\npath = {data}\n"
                   "[partition]\nclasses_per_client = 2\nnum_clients = 5\n"
                   "[balance]\nsupplement_pct = 50\nmix_fraction = 0.5\nk = 2\n"
                   "[train]\nmodel = logreg\nrounds = 1\nbatch_size = 8\n")
    return main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]), rejected


def test_train_on_the_unmutated_mnist_directory_exits_0(tmp_path):
    assert train_on_mnist(tmp_path, MNIST_FILES[0], []) == (EXIT_OK, False)


@settings(FUZZ, max_examples=25)
@given(victim=st.sampled_from(MNIST_FILES), edits=EDITS)
def test_train_on_a_mutated_mnist_directory_exits_0_2_or_3(tmp_path, capsys, victim, edits):
    code, rejected = train_on_mnist(tmp_path, victim, edits)
    err = capsys.readouterr().err
    assert (code == EXIT_IO) if rejected else code in (EXIT_OK, EXIT_CONFIG, EXIT_IO), err
