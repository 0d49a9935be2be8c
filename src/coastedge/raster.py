"""Raster data model and bit-exact file I/O.

Covers the NPY (v1.0) array format used for image chips and labels, binary
PGM export of edge maps, and the JSON corpus manifest that ties them together.
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

    @classmethod
    def from_string(cls, name: str) -> "BandName":
        for member in cls:
            if member.value == name:
                return member
        valid = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown band name {name!r}; expected one of: {valid}")

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


@dataclass(frozen=True)
class Band:
    """One grayscale raster plane as read from a chip, with its band identity.

    Built only where samples enter the toolkit; every later stage takes
    `samples`, a plain 2D float64 array, as validated here.
    """

    name: BandName
    samples: np.ndarray  # 2D float64, row-major

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 2:
            raise ShapeError(f"band samples must be 2D, got shape {samples.shape}")
        if samples.shape[0] < 3 or samples.shape[1] < 3:
            raise ShapeError(f"band must be at least 3x3, got {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("band samples must be finite")
        if np.any(samples < 0):
            raise ValueError("band samples must be non-negative")


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

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class EdgeMap:
    """8-bit edge image: binary for Canny/reference, magnitude for gradients."""

    values: np.ndarray  # 2D uint8
    kind: str = "binary"  # "binary" | "magnitude"

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 2:
            raise ShapeError(f"edge map must be 2D, got shape {values.shape}")
        if values.dtype != np.uint8:
            if np.any(values < 0) or np.any(values > 255):
                raise ValueError("edge map values must be within 0..255")
            values = values.astype(np.uint8)
        if self.kind not in ("binary", "magnitude"):
            raise ValueError(f"bad edge map kind {self.kind!r}")
        if self.kind == "binary" and not ((values == 0) | (values == 255)).all():
            raise ValueError("binary edge map must only contain 0 and 255")
        object.__setattr__(self, "values", values)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Scene:
    """An aligned 12-band stack plus its binary land/water label."""

    id: str
    bands: dict  # BandName -> Band
    label: LabelMask

    def __post_init__(self):
        missing = [b for b in BandName if b not in self.bands]
        if missing:
            raise BandCountError(f"scene {self.id}: missing bands {missing}")
        if len(self.bands) != 12:
            raise BandCountError(f"scene {self.id}: expected 12 bands, got {len(self.bands)}")
        shape = (self.label.height, self.label.width)
        for name, band in self.bands.items():
            if band.samples.shape != shape:
                raise ShapeError(
                    f"scene {self.id}: band {name.value} shape {band.samples.shape} "
                    f"!= label shape {shape}"
                )


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
    except (ValueError, SyntaxError) as exc:
        raise FormatError(f"{path}: malformed NPY header") from exc
    if not isinstance(header, dict) or not {"descr", "fortran_order", "shape"} <= set(header):
        raise FormatError(f"{path}: NPY header missing required keys")

    if header["fortran_order"]:
        raise UnsupportedLayout(f"{path}: Fortran-ordered arrays are not supported")
    descr = header["descr"]
    if descr not in _SUPPORTED_DESCRS:
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
    """Write an array as NPY v1.0; round-trips bit-exact through read_npy."""
    array = np.ascontiguousarray(array)
    if array.size == 0:
        raise ValueError("refusing to write an empty array")
    if array.dtype not in _DTYPE_TO_DESCR:
        raise UnsupportedDtype(f"cannot write dtype {array.dtype}")
    descr = _DTYPE_TO_DESCR[array.dtype]
    shape = ", ".join(str(s) for s in array.shape)
    if array.ndim == 1:
        shape += ","
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


def write_pgm(edge_map: EdgeMap, path) -> None:
    """Write an edge map as a binary (P5) PGM image, maxval 255."""
    values = edge_map.values
    header = f"P5\n{edge_map.width} {edge_map.height}\n255\n"
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
        if not isinstance(raw, dict) or not {"id", "image", "label"} <= set(raw):
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
    """Nearest-neighbor resample of a 2D array to the given (H, W)."""
    in_h, in_w = array.shape
    out_h, out_w = shape
    rows = np.minimum((np.arange(out_h) * in_h // out_h), in_h - 1)
    cols = np.minimum((np.arange(out_w) * in_w // out_w), in_w - 1)
    return array[np.ix_(rows, cols)]


def load_scene(entry: dict) -> Scene:
    """Load one manifest entry into a Scene with 12 named bands.

    Band planes whose shape differs from the label are resampled to the
    label grid with nearest-neighbor interpolation.
    """
    image = read_npy(entry["image"])
    label_arr = read_npy(entry["label"])
    if label_arr.ndim != 2:
        raise ShapeError(f"{entry['id']}: label must be 2D, got shape {label_arr.shape}")
    try:
        label = LabelMask(label_arr)
    except LabelError as exc:
        raise LabelError(f"{entry['id']}: {exc}") from exc

    if image.ndim != 3:
        raise ShapeError(f"{entry['id']}: image must be HxWx12, got shape {image.shape}")
    if image.shape[2] != 12:
        raise BandCountError(
            f"{entry['id']}: expected 12 bands on the last axis, got {image.shape[2]}"
        )

    target = (label.height, label.width)
    bands = {}
    for i, name in enumerate(BandName):
        plane = image[:, :, i].astype(np.float64)
        if plane.shape != target:
            plane = _resample_nearest(plane, target)
        bands[name] = Band(name=name, samples=plane)
    return Scene(id=entry["id"], bands=bands, label=label)
