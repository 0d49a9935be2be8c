"""Raster data model and bit-exact file I/O.

Covers the NPY (v1.0) array format used for image chips and labels, binary
PGM export of edge maps (plain 2D uint8 arrays), and the JSON corpus manifest
that ties them together. `read_stack` is the one reader of image chips: it
checks the HxWx12 layout for `load_scene` and for `detect` alike, and
`check_samples` checks the samples' values.
"""

from __future__ import annotations

import ast
import json
import math
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    BandCountError,
    CorpusError,
    FormatError,
    IoError,
    LabelError,
    SampleError,
    ShapeError,
    UnsupportedDtype,
    UnsupportedLayout,
)


class BandName(Enum):
    """The 12 spectral bands, in canonical (results-table) order."""

    COASTAL_AEROSOL = "CoastalAerosol"
    BLUE = "Blue"
    GREEN = "Green"
    RED = "Red"
    RED_EDGE_1 = "RedEdge1"
    RED_EDGE_2 = "RedEdge2"
    RED_EDGE_3 = "RedEdge3"
    NIR = "NIR"
    RED_EDGE_4 = "RedEdge4"
    WATER_VAPOUR = "WaterVapour"
    SWIR_1 = "SWIR1"
    SWIR_2 = "SWIR2"

    @property
    def display(self) -> str:
        """Human-readable name, e.g. 'Coastal Aerosol'."""
        out = []
        for i, ch in enumerate(self.value):
            if i:
                prev = self.value[i - 1]
                if (ch.isupper() and prev.islower()) or (ch.isdigit() and prev.isalpha()):
                    out.append(" ")
            out.append(ch)
        return "".join(out)


def check_samples(samples) -> np.ndarray:
    """Band samples as float64 planes (..., H, W), each at least 3x3, finite and non-negative."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim < 2 or min(samples.shape[-2:]) < 3:
        raise ShapeError(f"band must be at least 3x3, got {samples.shape[-2:]}")
    if not np.isfinite(samples).all():
        raise SampleError("band samples must be finite")
    if (samples < 0).any():
        raise SampleError("band samples must be non-negative")
    return samples


@dataclass(frozen=True)
class LabelMask:
    """Binary land(0)/water(1) segmentation mask."""

    values: np.ndarray  # 2D uint8 in {0, 1}

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 2:
            raise ShapeError(f"label must be 2D, got shape {values.shape}")
        if not ((values == 0) | (values == 1)).all():
            raise LabelError("label values must be strictly binary {0, 1}")
        object.__setattr__(self, "values", values.astype(np.uint8))


@dataclass(frozen=True)
class Scene:
    """An aligned 12-band stack plus its binary land/water label.

    `stack` has shape (12, H, W), band i being the i-th `BandName`, and is
    validated here once; every later stage takes plain arrays.
    """

    id: str
    stack: np.ndarray  # (12, H, W) float64, row-major
    label: LabelMask

    def __post_init__(self):
        stack = check_samples(self.stack)
        object.__setattr__(self, "stack", stack)
        if stack.ndim != 3 or len(stack) != 12:
            raise BandCountError(f"scene {self.id}: expected 12 bands, got shape {stack.shape}")
        shape = self.label.values.shape
        if stack.shape[1:] != shape:
            raise ShapeError(f"scene {self.id}: band shape {stack.shape[1:]} != label shape {shape}")


# ---------------------------------------------------------------------------
# NPY v1.0
# ---------------------------------------------------------------------------

_NPY_MAGIC = b"\x93NUMPY"

# descr string -> numpy dtype (little-endian / byte-order-free only)
_SUPPORTED_DESCRS = {
    "|u1": np.uint8,
    "<u1": np.uint8,
    "<u2": np.uint16,
    "<f4": np.float32,
    "<f8": np.float64,
}

_DTYPE_TO_DESCR = {
    np.dtype(np.uint8): "|u1",
    np.dtype(np.uint16): "<u2",
    np.dtype(np.float32): "<f4",
    np.dtype(np.float64): "<f8",
}


def read_npy(path) -> np.ndarray:
    """Read a 2D or 3D array from an NPY v1.0 file.

    Supports little-endian u8/u16/f32/f64 in C (row-major) order only.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc

    if len(data) < 10 or data[:6] != _NPY_MAGIC:
        raise FormatError(f"{path}: not an NPY file (bad magic)")
    major, minor = data[6], data[7]
    if (major, minor) != (1, 0):
        raise FormatError(f"{path}: unsupported NPY version {major}.{minor}")
    (header_len,) = struct.unpack("<H", data[8:10])
    header_end = 10 + header_len
    if len(data) < header_end:
        raise FormatError(f"{path}: truncated NPY header")
    try:
        header = ast.literal_eval(data[10:header_end].decode("latin1"))
    except (ValueError, SyntaxError, TypeError) as exc:  # TypeError: an unhashable key
        raise FormatError(f"{path}: malformed NPY header") from exc
    if not isinstance(header, dict) or not {"descr", "fortran_order", "shape"} <= set(header):
        raise FormatError(f"{path}: NPY header missing required keys")

    if header["fortran_order"]:
        raise UnsupportedLayout(f"{path}: Fortran-ordered arrays are not supported")
    descr = header["descr"]
    if not isinstance(descr, str) or descr not in _SUPPORTED_DESCRS:
        raise UnsupportedDtype(f"{path}: unsupported dtype {descr!r}")
    shape = header["shape"]
    if not isinstance(shape, tuple) or len(shape) not in (2, 3):
        raise FormatError(f"{path}: expected a 2D or 3D array, got shape {shape!r}")
    # bool is an int subclass, but True is no dimension
    if any(type(s) is not int or s < 0 for s in shape):
        raise FormatError(f"{path}: shape entries must be non-negative ints, got {shape!r}")

    dtype = np.dtype(_SUPPORTED_DESCRS[descr]).newbyteorder("<")
    count = math.prod(shape)
    payload = data[header_end:]
    if len(payload) != count * dtype.itemsize:
        raise FormatError(
            f"{path}: NPY payload is {len(payload)} bytes, "
            f"shape {shape} of {descr} needs {count * dtype.itemsize}"
        )
    array = np.frombuffer(payload, dtype=dtype, count=count).reshape(shape)
    return array.astype(dtype.newbyteorder("="))


def write_npy(array: np.ndarray, path) -> None:
    """Write a 2D or 3D array as NPY v1.0; round-trips bit-exact through read_npy."""
    if np.ndim(array) not in (2, 3):
        raise ValueError(f"expected a 2D or 3D array, got shape {np.shape(array)}")
    array = np.ascontiguousarray(array)
    if array.size == 0:
        raise ValueError("refusing to write an empty array")
    if array.dtype not in _DTYPE_TO_DESCR:
        raise UnsupportedDtype(f"cannot write dtype {array.dtype}")
    descr = _DTYPE_TO_DESCR[array.dtype]
    shape = ", ".join(str(s) for s in array.shape)
    header = f"{{'descr': {descr!r}, 'fortran_order': False, 'shape': ({shape}), }}"
    # pad with spaces so magic + version + length + header is 64-byte aligned
    unpadded = len(_NPY_MAGIC) + 2 + 2 + len(header) + 1
    header = header + " " * (-unpadded % 64) + "\n"
    try:
        with open(path, "wb") as fh:
            fh.write(_NPY_MAGIC)
            fh.write(bytes((1, 0)))
            fh.write(struct.pack("<H", len(header)))
            fh.write(header.encode("latin1"))
            fh.write(array.astype(array.dtype.newbyteorder("<")).tobytes(order="C"))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_pgm(values: np.ndarray, path) -> None:
    """Write a 2D uint8 edge map as a binary (P5) PGM image, maxval 255."""
    if values.ndim != 2 or values.dtype != np.uint8:
        raise ValueError(f"PGM needs a 2D uint8 array, got {values.ndim}D {values.dtype}")
    height, width = values.shape
    header = f"P5\n{width} {height}\n255\n"
    try:
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.write(values.tobytes(order="C"))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Manifest and scene loading
# ---------------------------------------------------------------------------


def load_manifest(path) -> list[dict]:
    """Load a corpus manifest, returning entries with paths resolved.

    Manifest schema: {"band_order": [12 canonical names],
    "images": [{"id", "image", "label"}, ...]}, paths relative to the file.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise CorpusError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CorpusError(f"manifest {path} is not valid JSON: {exc}") from exc

    expected = [b.value for b in BandName]
    if doc.get("band_order") != expected:
        raise CorpusError(f"manifest {path}: band_order must be {expected}")
    images = doc.get("images")
    if not isinstance(images, list):
        raise CorpusError(f"manifest {path}: missing 'images' list")

    base = path.parent
    entries = []
    seen = set()
    for raw in images:
        if not (
            isinstance(raw, dict)
            and {"id", "image", "label"} <= set(raw)
            and isinstance(raw["image"], str)
            and isinstance(raw["label"], str)
        ):
            raise CorpusError(f"manifest {path}: malformed image entry {raw!r}")
        image_id = str(raw["id"])
        if image_id in seen:
            raise CorpusError(f"manifest {path}: duplicate image id {image_id!r}")
        seen.add(image_id)
        entries.append(
            {
                "id": image_id,
                "image": str(base / raw["image"]),
                "label": str(base / raw["label"]),
            }
        )
    return entries


def _resample_nearest(array: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbor resample of the last two axes of an array to the given (H, W)."""
    in_h, in_w = array.shape[-2:]
    out_h, out_w = shape
    rows = np.minimum((np.arange(out_h) * in_h // out_h), in_h - 1)
    cols = np.minimum((np.arange(out_w) * in_w // out_w), in_w - 1)
    return array[..., rows[:, None], cols]


def read_stack(path, name) -> np.ndarray:
    """The (12, H, W) band planes of an HxWx12 image NPY, in the file's dtype.

    The one reader of image chips: an array that is not 3-D, has an empty
    plane, or does not carry 12 bands on its last axis is rejected here,
    with `name` (a scene id or a path) leading the message.
    """
    image = read_npy(path)
    if image.ndim != 3 or 0 in image.shape[:2]:
        raise ShapeError(f"{name}: image must be HxWx12, got shape {image.shape}")
    if image.shape[2] != 12:
        raise BandCountError(f"{name}: expected 12 bands on the last axis, got {image.shape[2]}")
    return np.moveaxis(image, 2, 0)


def load_scene(entry: dict) -> Scene:
    """Load one manifest entry into a Scene with a (12, H, W) band stack.

    The label is read first, so a bad label is reported before a bad image.
    Band planes whose shape differs from the label are resampled to the
    label grid with nearest-neighbor interpolation.
    """
    try:
        label = LabelMask(read_npy(entry["label"]))
    except (LabelError, ShapeError) as exc:
        raise type(exc)(f"{entry['id']}: {exc}") from exc

    stack = read_stack(entry["image"], entry["id"]).astype(np.float64, order="C")
    if stack.shape[1:] != label.values.shape:
        stack = _resample_nearest(stack, label.values.shape)
    return Scene(id=entry["id"], stack=stack, label=label)
