"""Dataset ingestion, synthesis, and label-skewed client partitioning.

Real datasets are read from their on-disk binary formats (IDX for MNIST-style
files, 3073-byte records for CIFAR-10 batches). A synthetic "toy" dataset with
class-specific blob templates stands in when no files are available, so the
full pipeline runs with zero downloads.

Labeled sets are column-wise: loaders return `(pixels, labels)` pairs of an
(N, H, W, Ch) float32 array and an (N,) int64 array.
"""

from __future__ import annotations

import enum
import math
import os
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
CIFAR10_RECORD_BYTES = 3073
CIFAR10_CLASSES = 10

# Dimension sanity caps for IDX headers; anything larger is a corrupt header,
# not a real dataset.
_MAX_IDX_DIM = 2**31 - 1
_MAX_IDX_ELEMENTS = 2**40


class DatasetError(ValueError):
    """Base class for dataset parsing and partitioning failures."""


class BadMagic(DatasetError):
    pass


class TruncatedFile(DatasetError):
    pass


class DimensionOverflow(DatasetError):
    pass


class BadRecordLength(DatasetError):
    pass


class LabelOutOfRange(DatasetError):
    pass


class InfeasibleSpec(DatasetError):
    pass


class Provenance(enum.Enum):
    REAL = "real"
    MIXUP = "mixup"
    NATURAL_NOISE = "natural_noise"


# ClientDataset.provenance stores each example's index into this tuple.
PROVENANCES = tuple(Provenance)


@dataclass
class LabeledImage:
    """One example: an (H, W, Ch) float32 pixel tensor plus a class label.

    Real images carry integer-valued pixels in [0, 255]; pseudo-images may be
    arbitrary reals (additive noise is not clamped).
    """

    pixels: np.ndarray
    label: int
    provenance: Provenance = Provenance.REAL


@dataclass
class ClientDataset:
    """A client's local multiset of examples, stored column-wise.

    `pixels` is (N, H, W, Ch) float32, `labels` (N,) int64 and `provenance`
    (N,) int8 codes into PROVENANCES. Nothing grows a client in place:
    `balance_clients` rebinds it to the arrays `run_balance` builds anew.
    """

    client_id: int
    num_classes: int
    pixels: np.ndarray
    labels: np.ndarray
    provenance: np.ndarray

    @classmethod
    def from_images(cls, client_id: int, images: Sequence[LabeledImage],
                    num_classes: int) -> "ClientDataset":
        return cls(client_id, num_classes,
                   np.stack([im.pixels for im in images]).astype(np.float32, copy=False),
                   np.array([im.label for im in images], dtype=np.int64),
                   np.array([PROVENANCES.index(im.provenance) for im in images],
                            dtype=np.int8))

    @property
    def label_histogram(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)

    @property
    def examples(self) -> tuple[LabeledImage, ...]:
        """Read-only row view: one LabeledImage per example, pixels shared."""
        return tuple(LabeledImage(p, int(y), PROVENANCES[c])
                     for p, y, c in zip(self.pixels, self.labels, self.provenance))

    def __len__(self) -> int:
        return len(self.labels)


class Scheme(enum.Enum):
    CLASS_SKEW = "class_skew"
    DIRICHLET = "dirichlet"


@dataclass(frozen=True)
class PartitionSpec:
    scheme: Scheme
    num_clients: int
    seed: int
    classes_per_client: int | None = None   # C, class-skew only
    concentration: float | None = None      # dirichlet only

    @classmethod
    def class_skew(cls, c: int, num_clients: int, seed: int) -> "PartitionSpec":
        return cls(Scheme.CLASS_SKEW, num_clients, seed, classes_per_client=c)

    @classmethod
    def dirichlet(cls, concentration: float, num_clients: int, seed: int) -> "PartitionSpec":
        return cls(Scheme.DIRICHLET, num_clients, seed, concentration=concentration)

    def validate(self, num_classes: int) -> None:
        if self.num_clients < 1:
            raise InfeasibleSpec("num_clients must be >= 1")
        if self.scheme is Scheme.CLASS_SKEW:
            c = self.classes_per_client
            if c is None or not (1 <= c <= num_classes):
                raise InfeasibleSpec(f"classes_per_client must be in [1, {num_classes}], got {c}")
            if self.num_clients * c < num_classes:
                raise InfeasibleSpec(
                    f"{self.num_clients} clients x {c} classes leave labels with no holder")
        elif self.scheme is Scheme.DIRICHLET:
            if self.concentration is None or not (0 < self.concentration < math.inf):
                raise InfeasibleSpec(
                    f"concentration must be finite and > 0, got {self.concentration}")


def parse_idx(data: bytes) -> tuple[np.ndarray, dict]:
    """Decode an IDX byte sequence (big-endian, unsigned 8-bit payload).

    Supports the two magics used by MNIST-style files: 0x00000803 (3-D image
    tensors) and 0x00000801 (1-D label vectors). Returns the decoded tensor
    and a metadata dict with the magic and dims.
    """
    if len(data) < 4:
        raise TruncatedFile(f"IDX header needs 4 bytes, got {len(data)}")
    magic = struct.unpack(">I", data[:4])[0]
    if magic == IDX_IMAGE_MAGIC:
        ndim = 3
    elif magic == IDX_LABEL_MAGIC:
        ndim = 1
    else:
        raise BadMagic(f"unsupported IDX magic 0x{magic:08x}")
    header_len = 4 + 4 * ndim
    if len(data) < header_len:
        raise TruncatedFile(f"IDX header needs {header_len} bytes, got {len(data)}")
    dims = struct.unpack(f">{ndim}I", data[4:header_len])
    if any(d > _MAX_IDX_DIM for d in dims):
        raise DimensionOverflow(f"IDX dimension too large: {dims}")
    count = math.prod(dims)
    if count > _MAX_IDX_ELEMENTS:
        raise DimensionOverflow(f"IDX element count too large: {count}")
    payload = data[header_len:]
    if len(payload) != count:
        raise TruncatedFile(f"IDX payload holds {len(payload)} bytes, header promises {count}")
    tensor = np.frombuffer(payload, dtype=np.uint8).reshape(dims)
    return tensor, {"magic": magic, "dims": dims}


def parse_cifar10(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Decode CIFAR-10 binary batch records (1 label byte + 3072 planar pixels)."""
    if len(data) % CIFAR10_RECORD_BYTES != 0:
        raise BadRecordLength(
            f"{len(data)} bytes is not a multiple of {CIFAR10_RECORD_BYTES}")
    records = np.frombuffer(data, dtype=np.uint8).reshape(-1, CIFAR10_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    bad = np.flatnonzero(labels >= CIFAR10_CLASSES)
    if bad.size:
        raise LabelOutOfRange(f"label byte {labels[bad[0]]} at record offset "
                              f"{bad[0] * CIFAR10_RECORD_BYTES}")
    planes = records[:, 1:].reshape(-1, 3, 32, 32)
    return planes.transpose(0, 2, 3, 1).astype(np.float32), labels


_MNIST_FILES = {
    "train_images": ("train-images-idx3-ubyte", "train-images.idx3-ubyte"),
    "train_labels": ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte"),
    "test_images": ("t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte"),
    "test_labels": ("t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte"),
}


def _find_file(directory: str, candidates: tuple[str, ...]) -> str:
    for name in candidates:
        path = os.path.join(directory, name)
        if os.path.exists(path):
            return path
    raise FileNotFoundError(f"none of {candidates} found under {directory}")


def load_mnist_dir(directory: str, split: str) -> tuple[np.ndarray, np.ndarray]:
    """Load one split ("train" or "test") of the standard MNIST IDX files as
    (pixels, labels); the other split's files are not read."""
    tensors = []
    for kind in ("images", "labels"):
        with open(_find_file(directory, _MNIST_FILES[f"{split}_{kind}"]), "rb") as fh:
            tensors.append(parse_idx(fh.read())[0])
    pixels, labels = tensors
    if pixels.shape[0] != labels.shape[0]:
        raise DatasetError(f"{pixels.shape[0]} images vs {labels.shape[0]} labels")
    return pixels[..., None].astype(np.float32), labels.astype(np.int64)


_CIFAR10_FILES = {
    "train": tuple(f"data_batch_{i}.bin" for i in range(1, 6)),
    "test": ("test_batch.bin",),
}


def load_cifar10_dir(directory: str, split: str) -> tuple[np.ndarray, np.ndarray]:
    """Load one split of the CIFAR-10 binary batches as (pixels, labels):
    data_batch_{1..5}.bin for "train", test_batch.bin for "test"."""
    batches = []
    for name in _CIFAR10_FILES[split]:
        with open(os.path.join(directory, name), "rb") as fh:
            batches.append(parse_cifar10(fh.read()))
    if len(batches) == 1:
        return batches[0]
    return tuple(np.concatenate(column) for column in zip(*batches))


def toy_templates(num_classes: int, dims: tuple[int, int, int]) -> np.ndarray:
    """Noiseless class templates: one Gaussian blob per class, centers on a grid.

    Returns an array of shape (num_classes, H, W, Ch).
    """
    h, w, ch = dims
    cols = math.ceil(math.sqrt(num_classes))
    rows = math.ceil(num_classes / cols)
    sigma = max(0.8, min(h, w) / 8.0)
    yy, xx = np.mgrid[0:h, 0:w]
    templates = np.zeros((num_classes, h, w, ch), dtype=np.float64)
    for y in range(num_classes):
        r, c = divmod(y, cols)
        cy = (r + 0.5) * h / rows
        cx = (c + 0.5) * w / cols
        blob = 255.0 * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma**2))
        templates[y] = blob[..., None]
    return templates


def make_toy_dataset(n_per_class: int, num_classes: int, dims: tuple[int, int, int],
                     seed: int, jitter: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Synthesize a linearly separable dataset: class template + bounded jitter.

    Pixels are integer-valued in [0, 255] (these stand in for real files), and
    output is byte-for-byte deterministic under the seed. Examples are ordered
    by label.
    """
    if n_per_class < 1:
        raise DatasetError(f"n_per_class must be >= 1, got {n_per_class}")
    templates = toy_templates(num_classes, dims)
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), n_per_class)
    pixels = np.empty((num_classes, n_per_class, *dims), dtype=np.float32)
    # Bounded integer draws consume the stream value by value, so one draw per
    # class block yields the same jitter as one draw per image; a whole-set
    # draw would too, but holds int64 and float64 copies of every image.
    for template, block in zip(templates, pixels):
        noise = rng.integers(-jitter, jitter + 1, size=block.shape)
        block[...] = np.clip(np.rint(template + noise), 0, 255)
    return pixels.reshape(labels.size, *dims), labels


def _even_split_sizes(total: int, parts: int) -> list[int]:
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def _largest_remainder_counts(total: int, proportions: np.ndarray) -> np.ndarray:
    """Apportion `total` items to match `proportions` exactly (sum preserved)."""
    raw = proportions * total
    counts = np.floor(raw).astype(np.int64)
    short = total - int(counts.sum())
    if short > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def partition(dataset: tuple[np.ndarray, np.ndarray],
              spec: PartitionSpec) -> list[ClientDataset]:
    """Split a `(pixels, labels)` dataset across clients under C-class label
    skew or Dirichlet skew.

    Class skew: labels are assigned round-robin over a seeded shuffle so every
    client holds exactly C distinct labels, and each label's examples are split
    evenly (±1) among the clients holding it. Dirichlet: each label's examples
    are apportioned by a Dir(concentration) draw over clients.

    The union of client examples is always exactly the input dataset, and each
    client keeps its examples in dataset order.
    """
    pixels, labels = dataset
    label_counts = np.bincount(labels)
    num_classes = label_counts.size
    spec.validate(num_classes)
    rng = np.random.default_rng(spec.seed)
    by_label = np.split(np.argsort(labels, kind="stable"), np.cumsum(label_counts)[:-1])

    owner = np.empty(labels.size, dtype=np.int64)   # receiving client per example
    if spec.scheme is Scheme.CLASS_SKEW:
        c = spec.classes_per_client
        shuffled = rng.permutation(num_classes)
        holders: list[list[int]] = [[] for _ in range(num_classes)]
        for slot in range(spec.num_clients * c):
            holders[int(shuffled[slot % num_classes])].append(slot // c)
        for label, idxs in enumerate(by_label):
            owners = holders[label]
            if len(idxs) < len(owners):
                raise InfeasibleSpec(
                    f"label {label} has {len(idxs)} examples for {len(owners)} holders")
            order = rng.permutation(len(idxs))
            owner[idxs[order]] = np.repeat(owners, _even_split_sizes(len(idxs), len(owners)))
    else:
        alpha = np.full(spec.num_clients, spec.concentration, dtype=np.float64)
        for idxs in by_label:
            proportions = rng.dirichlet(alpha)
            if not math.isclose(proportions.sum(), 1.0):   # gamma draws overflowed
                raise InfeasibleSpec(f"concentration {spec.concentration} overflows the draw")
            counts = _largest_remainder_counts(len(idxs), proportions)
            order = rng.permutation(len(idxs))
            owner[idxs[order]] = np.repeat(np.arange(spec.num_clients), counts)

    members = (np.flatnonzero(owner == cid) for cid in range(spec.num_clients))
    return [ClientDataset(cid, num_classes, pixels[idx], labels[idx],
                          np.zeros(idx.size, dtype=np.int8))
            for cid, idx in enumerate(members)]
