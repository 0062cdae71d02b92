import hashlib
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import encode_cifar10, encode_idx

from fedbalance.datasets import (BadMagic, BadRecordLength, ClientDataset,
                                 DatasetError, DimensionOverflow, InfeasibleSpec,
                                 LabeledImage, LabelOutOfRange, PartitionSpec,
                                 TruncatedFile, load_cifar10_dir, load_mnist_dir,
                                 make_toy_dataset, parse_cifar10, parse_idx,
                                 partition, toy_templates)
from fedbalance.seeding import derive_seed
from fedbalance.serialization import manifest_rows, write_csv


def idx_bytes(magic, dims, payload):
    return struct.pack(f">I{len(dims)}I", magic, *dims) + payload


class TestParseIdx:
    def test_label_file_hand_decoded(self):
        # 14-byte fixture: magic + count + ten label bytes, decoded by hand
        labels = bytes([3, 1, 4, 1, 5, 9, 2, 6, 5, 3])
        data = idx_bytes(0x00000801, (10,), labels)
        tensor, meta = parse_idx(data)
        assert tensor.shape == (10,)
        assert tensor.tolist() == [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
        assert meta["magic"] == 0x00000801

    def test_image_file_dims(self):
        payload = bytes(range(2 * 3 * 4))
        tensor, meta = parse_idx(idx_bytes(0x00000803, (2, 3, 4), payload))
        assert tensor.shape == (2, 3, 4)
        assert tensor[1, 2, 3] == 23
        assert meta["dims"] == (2, 3, 4)

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            parse_idx(idx_bytes(0x00000703, (1, 1, 1), b"\x00"))

    def test_truncated_header(self):
        with pytest.raises(TruncatedFile):
            parse_idx(b"\x00\x00")
        with pytest.raises(TruncatedFile):
            parse_idx(struct.pack(">I", 0x00000803) + b"\x00\x00")

    def test_truncated_payload(self):
        with pytest.raises(TruncatedFile):
            parse_idx(idx_bytes(0x00000801, (10,), bytes(9)))
        with pytest.raises(TruncatedFile):
            parse_idx(idx_bytes(0x00000801, (10,), bytes(11)))

    def test_dimension_overflow(self):
        with pytest.raises(DimensionOverflow):
            parse_idx(idx_bytes(0x00000803, (2**31 - 1, 2**20, 2**20), b""))

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        tensor = rng.integers(0, 256, size=(5, 4, 4), dtype=np.uint8)
        raw = encode_idx(tensor)
        parsed, _ = parse_idx(raw)
        assert encode_idx(parsed) == raw
        assert np.array_equal(parsed, tensor)

    @pytest.mark.skipif(
        not os.path.exists(os.path.join(
            os.environ.get("FEDBALANCE_MNIST_DIR", "data"),
            "train-images-idx3-ubyte")),
        reason="real MNIST files not present")
    def test_real_mnist_training_file(self):
        import hashlib
        path = os.path.join(os.environ.get("FEDBALANCE_MNIST_DIR", "data"),
                            "train-images-idx3-ubyte")
        with open(path, "rb") as fh:
            raw = fh.read()
        tensor, _ = parse_idx(raw)
        assert tensor.shape == (60000, 28, 28)
        # published MD5 of the decompressed standard MNIST training images
        assert hashlib.md5(raw).hexdigest() == "6bbc9ace898e44ae57da46a324031adb"


class TestParseCifar10:
    def test_zero_record(self):
        pixels, labels = parse_cifar10(bytes(3073))
        assert labels.tolist() == [0]
        assert pixels.shape == (1, 32, 32, 3)
        assert pixels.dtype == np.float32
        assert pixels.max() == 0

    def test_two_records_hand_decoded(self):
        rec1 = bytes([3]) + bytes([10] * 1024 + [20] * 1024 + [30] * 1024)
        rec2 = bytes([7]) + bytes([1] * 3072)
        pixels, labels = parse_cifar10(rec1 + rec2)
        assert labels.tolist() == [3, 7]
        # channel-planar layout: R then G then B
        assert pixels[0, 0, 0].tolist() == [10.0, 20.0, 30.0]
        assert pixels[0, 31, 31].tolist() == [10.0, 20.0, 30.0]
        assert np.all(pixels[1] == 1.0)

    def test_bad_record_length(self):
        with pytest.raises(BadRecordLength):
            parse_cifar10(bytes(3072))

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange, match="offset 3073"):
            parse_cifar10(bytes(3073) + bytes([10]) + bytes(3072))

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        raw = b"".join(bytes([int(rng.integers(0, 10))]) + bytes(
            rng.integers(0, 256, 3072, dtype=np.uint8)) for _ in range(3))
        assert encode_cifar10(*parse_cifar10(raw)) == raw


class TestLoadDirectories:
    def test_mnist_idx_files(self, tmp_path):
        rng = np.random.default_rng(2)
        images = rng.integers(0, 256, size=(5, 3, 4), dtype=np.uint8)
        labels = np.array([3, 1, 4, 1, 5], dtype=np.uint8)
        for split in ("train", "t10k"):
            (tmp_path / f"{split}-images-idx3-ubyte").write_bytes(encode_idx(images))
            (tmp_path / f"{split}-labels-idx1-ubyte").write_bytes(encode_idx(labels))
        train_x, train_y = load_mnist_dir(str(tmp_path), "train")
        test_x, test_y = load_mnist_dir(str(tmp_path), "test")
        assert train_x.shape == (5, 3, 4, 1) and train_x.dtype == np.float32
        assert np.array_equal(train_x[..., 0], images)
        assert train_y.dtype == np.int64 and train_y.tolist() == labels.tolist()
        assert np.array_equal(test_x, train_x) and np.array_equal(test_y, train_y)

        (tmp_path / "t10k-labels-idx1-ubyte").write_bytes(encode_idx(labels[:4]))
        with pytest.raises(DatasetError, match="5 images vs 4 labels"):
            load_mnist_dir(str(tmp_path), "test")
        # each split reads only its own two files
        assert np.array_equal(load_mnist_dir(str(tmp_path), "train")[0], train_x)

    def test_cifar10_batches_concatenate(self, tmp_path):
        for i, name in enumerate([f"data_batch_{b}.bin" for b in range(1, 6)]
                                 + ["test_batch.bin"]):
            (tmp_path / name).write_bytes(bytes([i]) + bytes([i] * 3072))
        train_x, train_y = load_cifar10_dir(str(tmp_path), "train")
        test_x, test_y = load_cifar10_dir(str(tmp_path), "test")
        assert train_x.shape == (5, 32, 32, 3)
        assert train_y.tolist() == [0, 1, 2, 3, 4]
        assert np.all(train_x[3] == 3.0)
        assert test_y.tolist() == [5] and np.all(test_x == 5.0)


class TestToyDataset:
    def test_counts_and_labels(self):
        pixels, labels = make_toy_dataset(1, 2, (8, 8, 1), seed=0)
        assert pixels.shape == (2, 8, 8, 1) and pixels.dtype == np.float32
        assert labels.tolist() == [0, 1] and labels.dtype == np.int64
        assert not np.array_equal(pixels[0], pixels[1])

    def test_determinism(self):
        a = make_toy_dataset(3, 4, (8, 8, 1), seed=7)
        b = make_toy_dataset(3, 4, (8, 8, 1), seed=7)
        assert a[0].tobytes() == b[0].tobytes()
        assert np.array_equal(a[1], b[1])

    def test_nearest_template_classifier_is_perfect(self):
        # brute-force oracle: L2 distance to each noiseless template
        pixels, labels = make_toy_dataset(100, 4, (8, 8, 1), seed=11)
        templates = toy_templates(4, (8, 8, 1))
        dists = ((templates[None] - pixels[:, None]) ** 2).sum(axis=(2, 3, 4))
        assert np.array_equal(dists.argmin(axis=1), labels)

    def test_pixels_are_integer_valued_in_range(self):
        pixels, _ = make_toy_dataset(5, 3, (6, 6, 1), seed=2)
        assert pixels.min() >= 0 and pixels.max() <= 255
        assert np.array_equal(pixels, np.rint(pixels))


# SHA-256 of (pixel bytes, label bytes) per make_toy_dataset call: the desk
# train set of seed 0, an odd 3-channel shape, and a jitter-free set.
PINNED_TOY = {
    (600, 10, (10, 10, 1), derive_seed(0, "toy-train"), 16): (
        "752db7435ba9e6f110c44f812bded03b3362e1cc53a03e28c196770239c65566",
        "8c68ab395f0f981d48f4c72a1c9d336742159c522f96cc3fdb2037b95c2ad1ba"),
    (7, 5, (9, 11, 3), 3, 16): (
        "a7dda7a17d26a363320f745e34034f2912a881f0650c23e2bb4edde596eac6c2",
        "14260c6d19131977bb23abfe9dffdb0300a6311f70a7b2d9ca2812501edd9ae6"),
    (4, 3, (5, 6, 1), 9, 0): (
        "7994ce906699024deb9147ce6bf18fa844a0305f0a4f33e62e217bbf89618c85",
        "5664ee91a9289943f6b968bac7b7d35ad321fe7c6ff70cc91c8d20139c9c6afe"),
}


@pytest.mark.parametrize("args", list(PINNED_TOY), ids=["desk", "rgb-odd", "jitter-0"])
def test_toy_dataset_matches_pinned_digests(args):
    n_per_class, num_classes, dims, seed, jitter = args
    pixels, labels = make_toy_dataset(n_per_class, num_classes, dims, seed, jitter=jitter)
    assert (hashlib.sha256(pixels.tobytes()).hexdigest(),
            hashlib.sha256(labels.tobytes()).hexdigest()) == PINNED_TOY[args]


def global_histogram(data, num_classes):
    return np.bincount(data[1], minlength=num_classes)


def tagged(data):
    """The dataset with each example's index written into its first pixel."""
    pixels, labels = data
    pixels = pixels.copy()
    pixels[:, 0, 0, 0] = np.arange(len(labels))
    return pixels, labels


def tags(client):
    return client.pixels[:, 0, 0, 0].astype(np.int64)


class TestPartitionClassSkew:
    def test_ten_clients_c1_covers_all_labels(self):
        data = make_toy_dataset(30, 10, (6, 6, 1), seed=0)
        clients = partition(data, PartitionSpec.class_skew(1, 10, seed=5))
        held = sorted(int(np.flatnonzero(c.label_histogram)[0]) for c in clients)
        assert held == list(range(10))
        for c in clients:
            assert (c.label_histogram > 0).sum() == 1

    def test_single_client_gets_everything(self):
        data = make_toy_dataset(10, 4, (6, 6, 1), seed=0)
        clients = partition(data, PartitionSpec.class_skew(4, 1, seed=1))
        assert len(clients) == 1
        assert np.array_equal(clients[0].pixels, data[0])
        assert np.array_equal(clients[0].labels, data[1])
        assert np.all(clients[0].provenance == 0)

    def test_support_is_exactly_c(self):
        data = make_toy_dataset(40, 10, (6, 6, 1), seed=3)
        for c_classes in (1, 2, 3):
            clients = partition(data, PartitionSpec.class_skew(c_classes, 10, seed=9))
            for client in clients:
                assert (client.label_histogram > 0).sum() == c_classes

    def test_conservation_and_disjointness(self):
        data = tagged(make_toy_dataset(25, 8, (6, 6, 1), seed=4))
        clients = partition(data, PartitionSpec.class_skew(2, 8, seed=2))
        seen = np.concatenate([tags(c) for c in clients])
        assert np.array_equal(np.sort(seen), np.arange(len(data[1])))
        for c in clients:
            # rows keep dataset order and their own labels
            assert np.all(np.diff(tags(c)) > 0)
            assert np.array_equal(c.labels, data[1][tags(c)])
        total = sum(c.label_histogram for c in clients)
        assert np.array_equal(total, global_histogram(data, 8))

    def test_infeasible_specs(self):
        data = make_toy_dataset(5, 4, (6, 6, 1), seed=0)
        with pytest.raises(InfeasibleSpec):
            partition(data, PartitionSpec.class_skew(5, 10, seed=0))   # C > N
        with pytest.raises(InfeasibleSpec):
            partition(data, PartitionSpec.class_skew(1, 2, seed=0))    # labels w/o holder
        with pytest.raises(InfeasibleSpec):
            partition(data, PartitionSpec.dirichlet(0.0, 4, seed=0))   # bad concentration

    def test_determinism(self):
        data = tagged(make_toy_dataset(20, 6, (6, 6, 1), seed=8))
        a = partition(data, PartitionSpec.class_skew(2, 6, seed=3))
        b = partition(data, PartitionSpec.class_skew(2, 6, seed=3))
        for ca, cb in zip(a, b):
            assert np.array_equal(tags(ca), tags(cb))


def oracle_dirichlet_histograms(num_examples_per_label, concentration, num_clients,
                                num_classes, seed):
    """Independent re-derivation of the per-client label histograms."""
    rng = np.random.default_rng(seed)
    hist = np.zeros((num_clients, num_classes), dtype=np.int64)
    for label in range(num_classes):
        n = num_examples_per_label[label]
        p = rng.dirichlet(np.full(num_clients, concentration))
        raw = p * n
        counts = np.floor(raw).astype(np.int64)
        short = n - counts.sum()
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
        rng.permutation(n)  # consumed by the shuffling step
        hist[:, label] = counts
    return hist


class TestPartitionDirichlet:
    def test_conservation_and_oracle_match(self):
        data = make_toy_dataset(30, 5, (6, 6, 1), seed=1)
        spec = PartitionSpec.dirichlet(0.05, 20, seed=77)
        clients = partition(data, spec)
        total = sum(c.label_histogram for c in clients)
        assert np.array_equal(total, global_histogram(data, 5))
        oracle = oracle_dirichlet_histograms([30] * 5, 0.05, 20, 5, seed=77)
        got = np.stack([c.label_histogram for c in clients])
        assert np.array_equal(got, oracle)

    @pytest.mark.parametrize("concentration, n_clients",
                             [(float("inf"), 3), (1e308, 3), (5e307, 10)])
    def test_unusable_concentration_is_infeasible(self, concentration, n_clients):
        # 1e308 and 5e307 pass validation, but their gamma draws overflow.
        data = make_toy_dataset(4, 3, (4, 4, 1), seed=0)
        with pytest.raises(InfeasibleSpec):
            partition(data, PartitionSpec.dirichlet(concentration, n_clients, seed=0))

    @settings(max_examples=20, deadline=None)
    @given(conc=st.sampled_from([0.05, 0.5, 5.0]),
           n_clients=st.integers(2, 12), seed=st.integers(0, 10_000))
    def test_conservation_property(self, conc, n_clients, seed):
        data = make_toy_dataset(11, 4, (4, 4, 1), seed=0)
        clients = partition(data, PartitionSpec.dirichlet(conc, n_clients, seed))
        total = sum(c.label_histogram for c in clients)
        assert np.array_equal(total, global_histogram(data, 4))


def test_manifest_csv(tmp_path):
    data = make_toy_dataset(6, 3, (4, 4, 1), seed=0)
    clients = partition(data, PartitionSpec.class_skew(1, 3, seed=0))
    path = tmp_path / "manifest.csv"
    write_csv(str(path), manifest_rows(clients))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "client_id,label,count"
    assert len(lines) == 1 + 3 * 3
    counts = sum(int(line.split(",")[2]) for line in lines[1:])
    assert counts == len(data[1])


def test_client_dataset_histogram_recomputed():
    pixels, labels = make_toy_dataset(4, 3, (4, 4, 1), seed=0)
    client = ClientDataset.from_images(
        0, [LabeledImage(p, int(y)) for p, y in zip(pixels, labels)], 3)
    assert client.label_histogram.tolist() == [4, 4, 4]
    # rebinding the labels, as balance_clients does, changes the histogram
    client.labels = client.labels[4:]
    assert client.label_histogram.tolist() == [0, 4, 4]
