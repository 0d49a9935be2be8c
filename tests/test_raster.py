"""Raster model and file I/O tests."""

import json
import struct

import numpy as np
import pytest

from coastedge.errors import (
    BandCountError,
    CorpusError,
    FormatError,
    LabelError,
    ShapeError,
    UnsupportedDtype,
    UnsupportedLayout,
)
from coastedge.raster import (
    Band,
    BandName,
    EdgeMap,
    LabelMask,
    Scene,
    load_manifest,
    load_scene,
    read_npy,
    write_npy,
    write_pgm,
)

CANONICAL_NAMES = [
    "CoastalAerosol", "Blue", "Green", "Red", "RedEdge1", "RedEdge2",
    "RedEdge3", "NIR", "RedEdge4", "WaterVapour", "SWIR1", "SWIR2",
]


class TestBandName:
    def test_canonical_order(self):
        assert [b.value for b in BandName] == CANONICAL_NAMES

    def test_from_string_unknown(self):
        with pytest.raises(ValueError, match="CoastalAerosol"):
            BandName.from_string("Ultraviolet")

    def test_display_names(self):
        assert BandName.COASTAL_AEROSOL.display == "Coastal Aerosol"
        assert BandName.RED_EDGE_1.display == "Red Edge 1"
        assert BandName.NIR.display == "NIR"


class TestDomainTypes:
    def test_band_too_small(self):
        with pytest.raises(ShapeError):
            Band(BandName.BLUE, np.zeros((2, 5)))

    def test_band_negative(self):
        samples = np.zeros((4, 4))
        samples[1, 1] = -3
        with pytest.raises(ValueError):
            Band(BandName.BLUE, samples)

    def test_band_non_finite(self):
        samples = np.zeros((4, 4))
        samples[0, 0] = np.inf
        with pytest.raises(ValueError):
            Band(BandName.BLUE, samples)

    def test_label_must_be_binary(self):
        values = np.zeros((4, 4), dtype=np.uint8)
        values[2, 2] = 2
        with pytest.raises(LabelError):
            LabelMask(values)

    def test_binary_edge_map_rejects_gray(self):
        values = np.zeros((4, 4), dtype=np.uint8)
        values[1, 1] = 100
        with pytest.raises(ValueError):
            EdgeMap(values, kind="binary")
        EdgeMap(values, kind="magnitude")  # fine as magnitude

    def test_scene_requires_matching_shapes(self, clean_scene):
        bands = dict(clean_scene.bands)
        bands[BandName.BLUE] = Band(BandName.BLUE, np.zeros((8, 8)))
        with pytest.raises(ShapeError):
            Scene(id="x", bands=bands, label=clean_scene.label)


def _npy_bytes(shape: str, payload: bytes) -> bytes:
    """An NPY v1.0 file of u1 elements with a hand-written shape entry."""
    header = f"{{'descr': '|u1', 'fortran_order': False, 'shape': {shape}, }}"
    header += " " * (-(len(header) + 11) % 64) + "\n"
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header)) + header.encode() + payload


class TestNpy:
    def test_zero_u16(self, tmp_path):
        path = tmp_path / "z.npy"
        np.save(path, np.zeros((4, 4), dtype=np.uint16))
        out = read_npy(path)
        assert out.shape == (4, 4)
        assert out.dtype == np.uint16
        assert (out == 0).all()

    def test_band_stack_from_numpy_writer(self, tmp_path, rng):
        path = tmp_path / "stack.npy"
        stack = rng.integers(0, 10000, size=(2, 2, 12)).astype(np.uint16)
        np.save(path, stack)
        out = read_npy(path)
        assert out.shape == (2, 2, 12)
        np.testing.assert_array_equal(out, stack)

    def test_fortran_order_rejected(self, tmp_path):
        path = tmp_path / "f.npy"
        np.save(path, np.asfortranarray(np.arange(12, dtype=np.uint16).reshape(3, 4)))
        with pytest.raises(UnsupportedLayout):
            read_npy(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.npy"
        path.write_bytes(b"NOTNPY" + b"\x00" * 64)
        with pytest.raises(FormatError):
            read_npy(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v2.npy"
        np.save(path, np.zeros((3, 3), dtype=np.uint8))
        data = bytearray(path.read_bytes())
        data[6] = 2  # major version
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            read_npy(path)

    def test_unsupported_dtype(self, tmp_path):
        path = tmp_path / "i4.npy"
        np.save(path, np.zeros((3, 3), dtype=np.int32))
        with pytest.raises(UnsupportedDtype):
            read_npy(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.npy"
        np.save(path, np.zeros((8, 8), dtype=np.float64))
        data = path.read_bytes()
        path.write_bytes(data[:-32])
        with pytest.raises(FormatError):
            read_npy(path)

    @pytest.mark.parametrize(
        "shape, payload",
        [
            ("(-1, 4)", 32),  # numpy's reshape would infer (8, 4)
            ("(2.0, 4)", 8),
            ("(True, 4)", 4),
            ("[2, 4]", 8),
            ("(2, 4)", 9),  # one trailing byte
            ("(2, 4)", 7),
        ],
    )
    def test_strict_shape_and_payload_length(self, tmp_path, shape, payload):
        path = tmp_path / "bad.npy"
        path.write_bytes(_npy_bytes(shape, b"\x01" * payload))
        with pytest.raises(FormatError):
            read_npy(path)

    def test_exact_handmade_file_reads(self, tmp_path):
        path = tmp_path / "ok.npy"
        path.write_bytes(_npy_bytes("(2, 4)", bytes(range(8))))
        np.testing.assert_array_equal(read_npy(path), np.arange(8).reshape(2, 4))

    def test_1d_rejected(self, tmp_path):
        path = tmp_path / "one.npy"
        np.save(path, np.arange(5, dtype=np.uint8))
        with pytest.raises(FormatError):
            read_npy(path)

    def test_roundtrip_identity_pattern(self, tmp_path):
        array = np.eye(3, dtype=np.float32) * 7
        path = tmp_path / "id.npy"
        write_npy(array, path)
        out = read_npy(path)
        assert out.dtype == array.dtype
        np.testing.assert_array_equal(out, array)

    def test_written_file_readable_by_numpy(self, tmp_path, rng):
        array = rng.integers(0, 65535, size=(17, 9)).astype(np.uint16)
        path = tmp_path / "np.npy"
        write_npy(array, path)
        np.testing.assert_array_equal(np.load(path), array)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.float32, np.float64])
    def test_roundtrip_random(self, tmp_path, rng, dtype):
        for i in range(20):
            shape = tuple(rng.integers(2, 9, size=int(rng.integers(2, 4))))
            if np.issubdtype(dtype, np.integer):
                array = rng.integers(0, np.iinfo(dtype).max, size=shape).astype(dtype)
            else:
                array = rng.normal(size=shape).astype(dtype)
            path = tmp_path / f"r{dtype.__name__}_{i}.npy"
            write_npy(array, path)
            out = read_npy(path)
            assert out.dtype == array.dtype
            np.testing.assert_array_equal(out, array)

    def test_header_is_64_byte_aligned(self, tmp_path):
        path = tmp_path / "a.npy"
        write_npy(np.zeros((5, 5), dtype=np.uint8), path)
        data = path.read_bytes()
        (header_len,) = struct.unpack("<H", data[8:10])
        assert (10 + header_len) % 64 == 0
        assert data[10 + header_len - 1 : 10 + header_len] == b"\n"


class TestPgm:
    def test_exact_bytes(self, tmp_path):
        edge = EdgeMap(np.array([[0, 255], [255, 0]], dtype=np.uint8), kind="binary")
        path = tmp_path / "e.pgm"
        write_pgm(edge, path)
        assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0])

    def test_zero_payload(self, tmp_path):
        edge = EdgeMap(np.zeros((3, 3), dtype=np.uint8), kind="binary")
        path = tmp_path / "z.pgm"
        write_pgm(edge, path)
        data = path.read_bytes()
        header = b"P5\n3 3\n255\n"
        assert data == header + b"\x00" * 9

    def test_size_is_header_plus_pixels(self, tmp_path, rng):
        values = rng.integers(0, 256, size=(13, 29)).astype(np.uint8)
        edge = EdgeMap(values, kind="magnitude")
        path = tmp_path / "m.pgm"
        write_pgm(edge, path)
        header = f"P5\n29 13\n255\n"
        assert path.stat().st_size == len(header) + 13 * 29


def _write_pair(tmp_path, image, label, name="chip"):
    image_path = tmp_path / f"{name}_image.npy"
    label_path = tmp_path / f"{name}_label.npy"
    write_npy(image, image_path)
    write_npy(label, label_path)
    return {"id": name, "image": str(image_path), "label": str(label_path)}


class TestLoadScene:
    def test_basic(self, tmp_path, rng):
        image = rng.integers(0, 10000, size=(16, 16, 12)).astype(np.uint16)
        label = rng.integers(0, 2, size=(16, 16)).astype(np.uint8)
        scene = load_scene(_write_pair(tmp_path, image, label))
        assert len(scene.bands) == 12
        np.testing.assert_array_equal(
            scene.bands[BandName.COASTAL_AEROSOL].samples, image[:, :, 0]
        )

    def test_non_binary_label(self, tmp_path, rng):
        image = rng.integers(0, 100, size=(8, 8, 12)).astype(np.uint16)
        label = np.full((8, 8), 2, dtype=np.uint8)
        with pytest.raises(LabelError, match="^chip: "):
            load_scene(_write_pair(tmp_path, image, label))

    def test_wrong_band_count(self, tmp_path, rng):
        image = rng.integers(0, 100, size=(8, 8, 11)).astype(np.uint16)
        label = np.zeros((8, 8), dtype=np.uint8)
        with pytest.raises(BandCountError):
            load_scene(_write_pair(tmp_path, image, label))

    def test_resamples_to_label_grid(self, tmp_path, rng):
        image = rng.integers(0, 100, size=(16, 16, 12)).astype(np.uint16)
        label = rng.integers(0, 2, size=(8, 8)).astype(np.uint8)
        scene = load_scene(_write_pair(tmp_path, image, label))
        band = scene.bands[BandName.BLUE]
        assert band.samples.shape == (8, 8)
        # nearest-neighbor: no new intensity values
        assert set(np.unique(band.samples)) <= set(np.unique(image[:, :, 1]).astype(float))


class TestManifest:
    def test_roundtrip(self, small_corpus):
        entries = load_manifest(small_corpus)
        assert len(entries) == 4
        scene = load_scene(entries[0])
        assert scene.id == entries[0]["id"]

    def test_bad_band_order(self, tmp_path):
        doc = {"band_order": CANONICAL_NAMES[::-1], "images": []}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CorpusError):
            load_manifest(path)

    def test_malformed_entry(self, tmp_path):
        doc = {"band_order": CANONICAL_NAMES, "images": [{"id": "x"}]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CorpusError):
            load_manifest(path)

    def test_duplicate_ids_rejected(self, small_corpus, tmp_path):
        doc = json.loads(small_corpus.read_text())
        doc["images"].append(doc["images"][0])
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CorpusError, match="duplicate image id"):
            load_manifest(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{nope")
        with pytest.raises(CorpusError):
            load_manifest(path)
