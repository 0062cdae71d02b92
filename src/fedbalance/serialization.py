"""File formats: tensor images, PPM previews, model checkpoints, metrics CSV.

Tensor image files are a single JSON header line (dims, label, provenance)
followed by the raw pixel buffer as little-endian 32-bit floats. Checkpoints
use the same layout with the layer schema in the header. PPM/PGM export
clamps to [0, 255] at write time only; stored tensors keep their raw values.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from typing import Sequence

import numpy as np

from . import training
from .datasets import LabeledImage, Provenance

TENSOR_SUFFIX = ".timg"


class FormatError(ValueError):
    pass


def save_tensor_image(path: str, image: LabeledImage) -> None:
    h, w, c = image.pixels.shape
    header = {
        "dims": [h, w, c],
        "label": int(image.label) if image.label >= 0 else None,
        "provenance": image.provenance.value,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("ascii") + b"\n")
        fh.write(np.ascontiguousarray(image.pixels, dtype="<f4").tobytes())


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


def save_ppm(path: str, pixels: np.ndarray) -> None:
    """Binary PPM (3-channel) or PGM (1-channel) preview, clamped to [0, 255]."""
    h, w, c = pixels.shape
    data = np.clip(np.rint(pixels), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        if c == 3:
            fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
            fh.write(data.tobytes())
        elif c == 1:
            fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
            fh.write(data[..., 0].tobytes())
        else:
            raise FormatError(f"PPM export supports 1 or 3 channels, got {c}")


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
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("ascii") + b"\n")
        fh.write(np.ascontiguousarray(params.flat, dtype="<f4").tobytes())


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
