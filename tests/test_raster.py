"""Raster model and file I/O tests."""

import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coastedge.errors import (
    BandCountError,
    CorpusError,
    FormatError,
    IoError,
    LabelError,
    ShapeError,
    UnsupportedDtype,
    UnsupportedLayout,
)
from coastedge.raster import (
    BandName,
    LabelMask,
    Scene,
    _band_planes,
    check_samples,
    load_manifest,
    load_scene,
    read_band,
    read_file,
    read_npy,
    write_file,
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

    def test_display_names(self):
        assert BandName.COASTAL_AEROSOL.display == "Coastal Aerosol"
        assert BandName.RED_EDGE_1.display == "Red Edge 1"
        assert BandName.NIR.display == "NIR"


class TestDomainTypes:
    def test_band_too_small(self):
        with pytest.raises(ShapeError, match=r"at least 3x3, got \(2, 5\)"):
            check_samples(np.zeros((2, 5)))
        with pytest.raises(ShapeError, match=r"at least 3x3, got \(4, 2\)"):
            check_samples(np.zeros((12, 4, 2)))

    def test_band_negative(self):
        samples = np.zeros((12, 4, 4))
        samples[7, 1, 1] = -3
        with pytest.raises(ValueError, match="non-negative"):
            check_samples(samples)
        with pytest.raises(ValueError, match="non-negative"):
            check_samples(samples[7])

    def test_band_non_finite(self):
        samples = np.zeros((12, 4, 4))
        samples[11, 0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            check_samples(samples)
        with pytest.raises(ValueError, match="finite"):
            check_samples(samples[11])

    def test_label_must_be_binary(self):
        values = np.zeros((4, 4), dtype=np.uint8)
        values[2, 2] = 2
        with pytest.raises(LabelError):
            LabelMask(values)

    def test_scene_requires_matching_shapes(self, clean_scene):
        with pytest.raises(ShapeError):
            Scene(id="x", stack=np.zeros((12, 8, 8)), label=clean_scene.label)
        with pytest.raises(BandCountError):
            Scene(id="x", stack=clean_scene.stack[:11], label=clean_scene.label)


def _npy_file(header: str, payload: bytes) -> bytes:
    """An NPY v1.0 file with a hand-written header dict."""
    header += " " * (-(len(header) + 11) % 64) + "\n"
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header)) + header.encode() + payload


def _npy_bytes(shape: str, payload: bytes) -> bytes:
    """An NPY v1.0 file of u1 elements with a hand-written shape entry."""
    return _npy_file(f"{{'descr': '|u1', 'fortran_order': False, 'shape': {shape}, }}", payload)


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

    def test_read_is_a_read_only_little_endian_view(self, tmp_path):
        # each caller casts the view once; none writes into the file's bytes
        path = tmp_path / "v.npy"
        write_npy(np.arange(6, dtype=np.uint16).reshape(2, 3), path)
        out = read_npy(path)
        assert not out.flags.writeable
        assert out.dtype.str == "<u2"
        with pytest.raises(ValueError):
            out[0, 0] = 1

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

    @pytest.mark.parametrize(
        "header",
        [
            "{'descr': ['<u2'], 'fortran_order': False, 'shape': (2, 4), }",
            "{[1]: 2}",
            "{'descr': '|u1', 'fortran_order': False, }",
            "['descr', 'fortran_order', 'shape']",
            "{'descr': '|u1', 'fortran_order': False, 'shape': (2, 4), ",
        ],
        ids=["list-descr", "unhashable-key", "missing-shape", "not-a-dict", "unclosed"],
    )
    def test_malformed_header(self, tmp_path, header):
        path = tmp_path / "bad.npy"
        path.write_bytes(_npy_file(header, b"\x01" * 16))
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

    @pytest.mark.parametrize("shape", [(), (5,), (2, 2, 2, 2)])
    def test_other_ranks_refused_before_the_file_is_opened(self, tmp_path, shape):
        path = tmp_path / "rank.npy"
        with pytest.raises(ValueError, match="2D or 3D"):
            write_npy(np.zeros(shape, dtype=np.uint8), path)
        assert not path.exists()

    # each example overwrites the one file it writes, so a shared tmp_path is fine
    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        hnp.arrays(
            st.sampled_from([np.uint8, np.uint16, np.float32, np.float64]),
            hnp.array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=7),
        )
    )
    def test_roundtrip_property(self, tmp_path, array):
        # every value of every dtype, NaN payloads, infinities and -0.0 included
        path = tmp_path / "p.npy"
        write_npy(array, path)
        out = read_npy(path)
        assert (out.dtype, out.shape) == (array.dtype, array.shape)
        assert out.tobytes() == array.tobytes()

    def test_header_is_64_byte_aligned(self, tmp_path):
        path = tmp_path / "a.npy"
        write_npy(np.zeros((5, 5), dtype=np.uint8), path)
        data = path.read_bytes()
        (header_len,) = struct.unpack("<H", data[8:10])
        assert (10 + header_len) % 64 == 0
        assert data[10 + header_len - 1 : 10 + header_len] == b"\n"


class TestPgm:
    def test_exact_bytes(self, tmp_path):
        edge = np.array([[0, 255], [255, 0]], dtype=np.uint8)
        path = tmp_path / "e.pgm"
        write_pgm(edge, path)
        assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0])

    def test_zero_payload(self, tmp_path):
        edge = np.zeros((3, 3), dtype=np.uint8)
        path = tmp_path / "z.pgm"
        write_pgm(edge, path)
        data = path.read_bytes()
        header = b"P5\n3 3\n255\n"
        assert data == header + b"\x00" * 9

    def test_size_is_header_plus_pixels(self, tmp_path, rng):
        values = rng.integers(0, 256, size=(13, 29)).astype(np.uint8)
        path = tmp_path / "m.pgm"
        write_pgm(values, path)
        header = f"P5\n29 13\n255\n"
        assert path.stat().st_size == len(header) + 13 * 29

    def test_rejects_other_than_2d_uint8(self, tmp_path):
        path = tmp_path / "x.pgm"
        for values in (np.zeros((3, 3)), np.zeros((2, 3, 3), dtype=np.uint8)):
            with pytest.raises(ValueError, match="2D uint8"):
                write_pgm(values, path)
        assert not path.exists()


def _write_pair(tmp_path, image, label, name="chip"):
    image_path = tmp_path / f"{name}_image.npy"
    label_path = tmp_path / f"{name}_label.npy"
    write_npy(image, image_path)
    write_npy(label, label_path)
    return {"id": name, "image": str(image_path), "label": str(label_path)}


def band_or_fault(read, path):
    """The float64 NIR band `read` gives for `path`, or the class and message of its fault."""
    try:
        return read(path)
    except Exception as exc:
        return type(exc), str(exc)


class TestReadBand:
    """`read_band` gives the band and faults of `load_scene`'s stack read, casting one band from the file's bytes."""

    @staticmethod
    def from_stack(path):
        return check_samples(_band_planes(read_npy(path), path)[list(BandName).index(BandName.NIR)])

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.float32, np.float64])
    def test_band_of_the_stack(self, tmp_path, rng, dtype):
        path = tmp_path / "chip.npy"
        write_npy((rng.random((9, 7, 12)) * 200).astype(dtype), path)
        band = read_band(path, BandName.NIR)
        assert band.dtype == np.float64 and band.flags.c_contiguous and band.flags.writeable
        assert band.tobytes() == self.from_stack(path).tobytes()

    @pytest.mark.parametrize(
        "data",
        [
            b"NOTNPY" + b"\x00" * 64,
            _npy_file("{'descr': ['<u2'], 'fortran_order': False, 'shape': (2, 4), }", b"\x01" * 16),
            _npy_bytes("(2, 4)", bytes(8)),
            _npy_bytes("(2, 2, 12)", bytes(47)),
            _npy_bytes("(2, 2, 11)", bytes(44)),
            _npy_bytes("(0, 5, 12)", b""),
            _npy_bytes("(2, 5, 12)", bytes(120)),
        ],
        ids=["bad-magic", "list-descr", "2d", "short-payload", "11-bands", "no-rows", "too-small"],
    )
    def test_faults_of_the_stack(self, tmp_path, data):
        path = tmp_path / "bad.npy"
        path.write_bytes(data)
        expected = band_or_fault(self.from_stack, path)
        assert isinstance(expected, tuple)
        assert band_or_fault(lambda p: read_band(p, BandName.NIR), path) == expected

    def test_other_bands_are_not_copied(self, tmp_path, rng):
        path = tmp_path / "chip.npy"
        write_npy(rng.integers(0, 4000, size=(256, 256, 12)).astype(np.uint16), path)
        read_band(path, BandName.NIR)
        tracemalloc.start()
        try:
            band = read_band(path, BandName.NIR)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the file's bytes and the float64 band, with room for the samples'
        # checks; a cast copy of the whole stack alone would take 1.5 MiB more
        assert peak < path.stat().st_size + 2 * band.nbytes


class TestLoadScene:
    def test_basic(self, tmp_path, rng):
        image = rng.integers(0, 10000, size=(16, 16, 12)).astype(np.uint16)
        label = rng.integers(0, 2, size=(16, 16)).astype(np.uint8)
        scene = load_scene(_write_pair(tmp_path, image, label))
        assert scene.stack.shape == (12, 16, 16) and scene.stack.dtype == np.float64
        assert scene.stack.flags.c_contiguous
        np.testing.assert_array_equal(scene.stack, np.moveaxis(image, 2, 0))

    def test_non_binary_label(self, tmp_path, rng):
        image = rng.integers(0, 100, size=(8, 8, 12)).astype(np.uint16)
        label = np.full((8, 8), 2, dtype=np.uint8)
        with pytest.raises(LabelError, match="^chip: "):
            load_scene(_write_pair(tmp_path, image, label))

    def test_3d_label(self, tmp_path, rng):
        image = rng.integers(0, 100, size=(8, 8, 12)).astype(np.uint16)
        label = np.zeros((8, 8, 1), dtype=np.uint8)
        with pytest.raises(ShapeError, match="^chip: label must be 2D"):
            load_scene(_write_pair(tmp_path, image, label))

    def test_wrong_band_count(self, tmp_path, rng):
        image = rng.integers(0, 100, size=(8, 8, 11)).astype(np.uint16)
        label = np.zeros((8, 8), dtype=np.uint8)
        with pytest.raises(BandCountError):
            load_scene(_write_pair(tmp_path, image, label))

    def test_label_off_the_image_grid(self, tmp_path, rng):
        image = rng.integers(0, 100, size=(16, 16, 12)).astype(np.uint16)
        label = np.zeros((8, 8), dtype=np.uint8)
        with pytest.raises(ShapeError, match=r"^scene chip: band shape \(16, 16\) != label shape \(8, 8\)$"):
            load_scene(_write_pair(tmp_path, image, label))


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

    def test_empty_image_list(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"band_order": CANONICAL_NAMES, "images": []}))
        with pytest.raises(CorpusError, match=r"manifest .*m\.json: 'images' is empty"):
            load_manifest(path)

    def test_malformed_entry(self, tmp_path):
        path = tmp_path / "m.json"
        for entry in (
            {"id": "x"},
            {"id": "x", "image": 5, "label": "x_label.npy"},
            {"id": "x", "image": None, "label": "x_label.npy"},
            {"id": "x", "image": "x_image.npy", "label": ["x_label.npy"]},
        ):
            path.write_text(json.dumps({"band_order": CANONICAL_NAMES, "images": [entry]}))
            with pytest.raises(CorpusError, match="malformed image entry"):
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

    @pytest.mark.parametrize("text", ["[1, 2]", '"x"', "null"])
    def test_not_a_json_object(self, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        with pytest.raises(CorpusError, match="expected a JSON object"):
            load_manifest(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b"\xff\xfe\xfa")
        with pytest.raises(CorpusError, match="not valid JSON"):
            load_manifest(path)

    def test_unreadable_is_io_error(self, tmp_path):
        with pytest.raises(IoError, match="cannot read .*nope.json"):
            load_manifest(tmp_path / "nope.json")


class TestFileBoundary:
    def test_parts_written_in_order_str_as_utf8(self, tmp_path):
        path = tmp_path / "f"
        write_file(path, "± ", b"\x00\xff", "x")
        assert read_file(path) == b"\xc2\xb1 \x00\xffx"

    def test_os_faults_are_io_errors(self, tmp_path):
        with pytest.raises(IoError, match="cannot read"):
            read_file(tmp_path)
        with pytest.raises(IoError, match="cannot write"):
            write_file(tmp_path / "no-such-dir" / "f", b"")
