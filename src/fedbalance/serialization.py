"""Every file fedbalance writes, and the tensor and checkpoint readers.

Each writer builds its file's bytes in memory and `_write_file` renames them
into place through `<path>.tmp`, so a file appears whole or not at all.

Tensor image files are a single JSON header line (dims, label, provenance)
followed by the raw pixel buffer as little-endian 32-bit floats. Checkpoints
use the same layout with the layer schema in the header. PPM/PGM export
clamps to [0, 255] at write time only; stored tensors keep their raw values.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
from typing import Iterable, Sequence

import numpy as np

from . import training
from .datasets import ClientDataset, LabeledImage, Provenance

TENSOR_SUFFIX = ".timg"


class FormatError(ValueError):
    pass


def _write_file(path: str, data: bytes) -> None:
    """Write `data` to `<path>.tmp`, then rename it onto `path`."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:   # `path` keeps what it held, and no temp file is left
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_csv(path: str, rows: Iterable[Sequence]) -> None:
    """Write `rows` as UTF-8 CSV; a row that fails to format writes nothing."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    _write_file(path, text.getvalue().encode("utf-8"))


def manifest_rows(clients: Sequence[ClientDataset]) -> list[list]:
    """A partition manifest's CSV rows: (client_id, label, count) per client
    and label, after a header."""
    rows: list[list] = [["client_id", "label", "count"]]
    for client in clients:
        hist = client.label_histogram
        rows += ([client.client_id, label, int(hist[label])]
                 for label in range(client.num_classes))
    return rows


def write_partition_manifest(clients: Sequence[ClientDataset], path: str) -> None:
    """Export per-client label counts as CSV (client_id, label, count)."""
    write_csv(path, manifest_rows(clients))


def write_trace(path: str, records: Iterable[tuple]) -> None:
    """Write `protocol.Record`s as `trace.csv`, one row per delivered message."""
    write_csv(path, [["round", "msg_type", "src", "dst", "label", "count"], *records])


def _header_and_floats(header: dict, values: np.ndarray) -> bytes:
    """The JSON header line, then `values` as little-endian float32."""
    return (json.dumps(header).encode("ascii") + b"\n"
            + np.ascontiguousarray(values, dtype="<f4").tobytes())


def save_tensor_image(path: str, image: LabeledImage) -> None:
    h, w, c = image.pixels.shape
    header = {
        "dims": [h, w, c],
        "label": int(image.label) if image.label >= 0 else None,
        "provenance": image.provenance.value,
    }
    _write_file(path, _header_and_floats(header, image.pixels))


def _read_header(path: str, fh) -> dict:
    """The JSON object on the first line of a tensor or checkpoint file."""
    try:
        header = json.loads(fh.readline())
    except ValueError as exc:     # JSONDecodeError or UnicodeDecodeError
        raise FormatError(f"{path}: header is not JSON") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object")
    return header


def load_tensor_image(path: str) -> LabeledImage:
    with open(path, "rb") as fh:
        header = _read_header(path, fh)
        raw = fh.read()
    dims = header.get("dims")
    if (not isinstance(dims, list) or len(dims) != 3
            or not all(type(d) is int and d > 0 for d in dims)):
        raise FormatError(f"{path}: dims must be three positive integers, got {dims!r}")
    label = header.get("label")
    if label is not None and type(label) is not int:
        raise FormatError(f"{path}: label must be an integer or null, got {label!r}")
    try:
        provenance = Provenance(header.get("provenance", "real"))
    except ValueError as exc:
        raise FormatError(f"{path}: unknown provenance") from exc
    count = math.prod(dims)   # a Python int: an int64 product could wrap around
    if len(raw) != 4 * count:
        raise FormatError(f"{path}: expected {4 * count} payload bytes, got {len(raw)}")
    pixels = np.frombuffer(raw, dtype="<f4").reshape(dims).astype(np.float32)
    if not np.isfinite(pixels).all():
        raise FormatError(f"{path}: the payload holds a non-finite pixel")
    return LabeledImage(pixels, -1 if label is None else label, provenance)


def check_ppm_channels(channels: int) -> None:
    if channels not in (1, 3):
        raise FormatError(f"PPM export supports 1 or 3 channels, got {channels}")


def save_ppm(path: str, pixels: np.ndarray) -> None:
    """Binary PPM (3-channel) or PGM (1-channel) preview, clamped to [0, 255]."""
    h, w, c = pixels.shape
    check_ppm_channels(c)
    data = np.clip(np.rint(pixels), 0, 255).astype(np.uint8)
    magic = "P6" if c == 3 else "P5"
    _write_file(path, f"{magic}\n{w} {h}\n255\n".encode("ascii") + data.tobytes())


_LAYER_NAMES = {
    "dense": training.Dense,
    "conv3x3": training.Conv3x3,
    "maxpool2": training.MaxPool2,
    "relu": training.ReLU,
    "softmax": training.Softmax,
}
_LAYER_TYPES = {cls: name for name, cls in _LAYER_NAMES.items()}


def _layer_to_json(layer) -> list:
    if type(layer) not in _LAYER_TYPES:
        raise FormatError(f"unknown layer {layer!r}")
    return [_LAYER_TYPES[type(layer)], *dataclasses.astuple(layer)]


def _layer_from_json(entry: Sequence) -> object:
    try:
        name, *sizes = entry
        layer = _LAYER_NAMES[name]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad layer entry {entry!r}") from exc
    # As for `dims` in load_tensor_image: a bool is not a size.
    if not all(type(size) is int and size > 0 for size in sizes):
        raise FormatError(f"bad layer entry {entry!r}: sizes must be positive integers")
    try:
        return layer(*sizes)
    except TypeError as exc:      # the wrong number of sizes
        raise FormatError(f"bad layer entry {entry!r}") from exc


def save_checkpoint(path: str, params: training.ModelParams) -> None:
    header = {"schema": [_layer_to_json(layer) for layer in params.schema]}
    _write_file(path, _header_and_floats(header, params.flat))


def load_checkpoint(path: str) -> training.ModelParams:
    with open(path, "rb") as fh:
        header = _read_header(path, fh)
        raw = fh.read()
    if not isinstance(header.get("schema"), list):
        raise FormatError(f"{path}: header has no schema list")
    schema = tuple(_layer_from_json(e) for e in header["schema"])
    expected = training.schema_param_count(schema)
    if len(raw) != 4 * expected:
        raise FormatError(f"{path}: {len(raw)} payload bytes for {expected} params")
    flat = np.frombuffer(raw, dtype="<f4").astype(np.float32)
    return training.ModelParams(schema, flat)


def list_tensor_images(directory: str) -> list[str]:
    names = sorted(n for n in os.listdir(directory) if n.endswith(TENSOR_SUFFIX))
    return [os.path.join(directory, n) for n in names]
