"""Seeded synthetic coastline scene generator.

Produces 12-band scenes with an analytically known land/water boundary so
the whole benchmark can run without any external dataset. The stream is
fully determined by the seed (numpy PCG64), so corpora regenerate
bit-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import IoError, ParamError
from .raster import BandName, LabelMask, Scene, write_file, write_npy

# (land, water) raw intensities per band, loosely sentinel-2 flavored:
# water bright in the short wavelengths, land bright in NIR/SWIR
CLASS_MEANS = {
    BandName.COASTAL_AEROSOL: (1900.0, 1500.0),
    BandName.BLUE: (1800.0, 1450.0),
    BandName.GREEN: (1900.0, 1300.0),
    BandName.RED: (2100.0, 1000.0),
    BandName.RED_EDGE_1: (2300.0, 900.0),
    BandName.RED_EDGE_2: (2600.0, 750.0),
    BandName.RED_EDGE_3: (2800.0, 650.0),
    BandName.NIR: (3200.0, 450.0),
    BandName.RED_EDGE_4: (3000.0, 500.0),
    BandName.WATER_VAPOUR: (2500.0, 800.0),
    BandName.SWIR_1: (2900.0, 300.0),
    BandName.SWIR_2: (2600.0, 250.0),
}

BOUNDARY_KINDS = ("halfplane", "sinusoid", "blob")

DEVELOPMENT_INTENSITY = 8000.0


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic scene."""

    size: int = 256
    seed: int = 0
    boundary: str = "sinusoid"
    sinusoid_amplitude: float = 20.0
    sinusoid_period: float = 64.0
    noise_sigma: float = 100.0
    contrast: float = 1.0
    development_count: int = 0
    development_size: int = 8

    def __post_init__(self):
        if self.size < 16:
            raise ParamError("scene size must be >= 16")
        if self.boundary not in BOUNDARY_KINDS:
            raise ParamError(f"bad boundary kind {self.boundary!r}")
        if self.noise_sigma < 0:
            raise ParamError("noise_sigma must be >= 0")
        if not 0 < self.contrast <= 1:
            raise ParamError("contrast must be in (0, 1]")
        if self.development_count < 0 or self.development_size < 1:
            raise ParamError("bad development settings")
        if self.development_count > 0:
            # a rectangle's top row is drawn from [0, size - development_size);
            # a blob scene draws its corner inside the central square of side
            # 2 * (size // 6), less development_size
            room = 2 * (self.size // 6) if self.boundary == "blob" else self.size
            if self.development_size >= room:
                raise ParamError(
                    f"development_size {self.development_size} does not fit a "
                    f"{self.boundary} scene of size {self.size}: it must be below {room}"
                )


def boundary_columns(spec: SynthSpec) -> np.ndarray:
    """First water column per row (land strictly left). Halfplane/sinusoid only."""
    n = spec.size
    if spec.boundary == "halfplane":
        return np.full(n, n // 2, dtype=np.int64)
    if spec.boundary == "sinusoid":
        rows = np.arange(n)
        cols = n // 2 + spec.sinusoid_amplitude * np.sin(
            2.0 * np.pi * rows / spec.sinusoid_period
        )
        return np.clip(np.round(cols).astype(np.int64), 1, n - 1)
    raise ParamError("blob boundary has no per-row column representation")


def make_label(spec: SynthSpec) -> LabelMask:
    """Analytic land(0)/water(1) mask for the requested boundary shape."""
    n = spec.size
    if spec.boundary == "blob":
        rows, cols = np.mgrid[0:n, 0:n]
        radius = n / 3.0
        land = (rows - n / 2.0) ** 2 + (cols - n / 2.0) ** 2 <= radius**2
        return LabelMask(np.where(land, 0, 1).astype(np.uint8))
    first_water = boundary_columns(spec)
    cols = np.arange(n)
    return LabelMask((cols[None, :] >= first_water[:, None]).astype(np.uint8))


def _development_rectangles(spec: SynthSpec, rng: np.random.Generator) -> list[tuple]:
    """(row, col) top-left corners of land-side rectangles near the boundary."""
    n, size = spec.size, spec.development_size
    rects = []
    if spec.boundary == "blob":
        # inside the land disk, near its center
        for _ in range(spec.development_count):
            r = int(rng.integers(n // 2 - n // 6, n // 2 + n // 6 - size))
            c = int(rng.integers(n // 2 - n // 6, n // 2 + n // 6 - size))
            rects.append((r, c))
        return rects
    first_water = boundary_columns(spec)
    min_land = int(first_water.min())
    for _ in range(spec.development_count):
        r = int(rng.integers(0, n - size))
        gap = int(rng.integers(2, 6))
        c = min(int(first_water[r]), min_land) - gap - size
        rects.append((r, max(c, 0)))
    return rects


def generate_scene(spec: SynthSpec) -> Scene:
    """Generate one scene; identical specs produce bit-identical scenes."""
    label = make_label(spec)
    land = label.values == 0
    rng = np.random.default_rng(np.random.PCG64(spec.seed))
    rects = _development_rectangles(spec, rng)

    # band by band, so temporaries stay one plane in size
    stack = np.empty((len(BandName),) + land.shape)
    for name, plane in zip(BandName, stack):
        land_mean, water_mean = CLASS_MEANS[name]
        mid = 0.5 * (land_mean + water_mean)
        land_mean = mid + (land_mean - mid) * spec.contrast
        water_mean = mid + (water_mean - mid) * spec.contrast
        samples = np.where(land, land_mean, water_mean)
        if spec.noise_sigma > 0:
            samples = samples + rng.normal(0.0, spec.noise_sigma, samples.shape)
        for r, c in rects:
            block = (slice(r, r + spec.development_size), slice(c, c + spec.development_size))
            samples[block] = np.where(
                land[block], DEVELOPMENT_INTENSITY, samples[block]
            )
        plane[...] = np.clip(np.round(samples), 0.0, 65535.0)
    return Scene(id=f"synth_{spec.seed:06d}", stack=stack, label=label)


def generate_corpus(n: int, base_spec: SynthSpec, out_dir) -> Path:
    """Write n scenes (seeds base..base+n-1) as NPY pairs plus a manifest.

    Returns the manifest path.
    """
    if n < 1:
        raise ParamError("corpus size must be >= 1")
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out_dir}: {exc}") from exc

    entries = []
    for i in range(n):
        spec = replace(base_spec, seed=base_spec.seed + i)
        scene = generate_scene(spec)
        stack = np.moveaxis(scene.stack, 0, -1).astype(np.uint16, order="C")
        image_file = f"{scene.id}_image.npy"
        label_file = f"{scene.id}_label.npy"
        write_npy(stack, out_dir / image_file)
        write_npy(scene.label.values, out_dir / label_file)
        entries.append({"id": scene.id, "image": image_file, "label": label_file})

    manifest = {
        "band_order": [b.value for b in BandName],
        "images": entries,
    }
    manifest_path = out_dir / "manifest.json"
    write_file(manifest_path, json.dumps(manifest, indent=2) + "\n")
    return manifest_path
