"""Command-line interface tests, driven through main() with explicit argv."""

import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import coastedge
from coastedge import cli
from coastedge.cli import _canny_params, _metric_params, _preprocess_spec, build_parser, main
from coastedge.edgedetect import ALGORITHMS, CannyParams, derive_reference, detect
from coastedge.metrics import MetricParams, PreparedReference
from coastedge.preprocess import PreprocessSpec, run_pipeline
from coastedge.raster import BandName, LabelMask, read_band, read_npy, write_npy


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def corpus_dir(tmp_path, capsys):
    out = tmp_path / "corpus"
    code, stdout, _ = run(
        capsys, "synth", "--n", "3", "--size", "32", "--seed", "10",
        "--boundary", "halfplane", "--noise-sigma", "150",
        "--out-dir", str(out),
    )
    assert code == 0
    assert stdout.strip().endswith("manifest.json")
    return out


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    """Report directories of `evaluate --experiment all` on a tiny corpus."""
    base = tmp_path_factory.mktemp("evaluated")
    assert main([
        "synth", "--n", "2", "--size", "32", "--seed", "10", "--boundary", "halfplane",
        "--noise-sigma", "150", "--out-dir", str(base / "corpus"),
    ]) == 0
    assert main([
        "evaluate", "--manifest", str(base / "corpus" / "manifest.json"),
        "--experiment", "all", "--out-dir", str(base / "out"),
    ]) == 0
    return base / "out"


def copy_run(run_dir, dest, names=("records.csv", "provenance.json")):
    dest.mkdir()
    for name in names:
        shutil.copy(run_dir / name, dest / name)
    return dest


class TestFlagDefaults:
    @pytest.mark.parametrize(
        "argv",
        [
            ["detect", "--input", "x.npy", "--band", "NIR", "--out", "e.pgm"],
            ["evaluate", "--manifest", "m.json", "--out-dir", "r"],
        ],
        ids=["detect", "evaluate"],
    )
    def test_no_flags_give_the_parameter_defaults(self, argv):
        args = build_parser(argv).parse_args(argv)
        # detect alone takes the variant flags; evaluate's grids set the variant
        variant = {"equalize": args.equalize, "noise_reduction": args.noise} if argv[0] == "detect" else {}
        assert _preprocess_spec(args, **variant) == PreprocessSpec()
        assert _canny_params(args) == CannyParams()
        assert _metric_params(args) == MetricParams()


class TestSynth:
    def test_creates_manifest_and_chips(self, corpus_dir):
        doc = json.loads((corpus_dir / "manifest.json").read_text())
        assert len(doc["images"]) == 3
        assert len(doc["band_order"]) == 12
        for entry in doc["images"]:
            assert (corpus_dir / entry["image"]).exists()
            assert (corpus_dir / entry["label"]).exists()

    def test_zero_scenes_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "synth", "--n", "0", "--out-dir", str(tmp_path / "x")
        )
        assert code == 1
        assert err != ""

    @pytest.mark.parametrize("boundary, room", [("halfplane", 16), ("sinusoid", 16), ("blob", 4)])
    def test_development_rectangle_must_fit(self, tmp_path, capsys, boundary, room):
        # at size 16 a rectangle must be smaller than `room`: the scene side,
        # or for a blob 2 * (16 // 6), the side of its central square
        argv = ["synth", "--n", "1", "--size", "16", "--boundary", boundary, "--development", "1"]
        code, _, _ = run(capsys, *argv, "--development-size", str(room - 1), "--out-dir", str(tmp_path / "ok"))
        assert code == 0
        code, _, err = run(capsys, *argv, "--development-size", str(room), "--out-dir", str(tmp_path / "x"))
        assert code == 1
        assert err == (
            f"error: development_size {room} does not fit a {boundary} scene of size 16: "
            f"it must be below {room}\n"
        )
        assert not (tmp_path / "x").exists()


def list_descr(npy: bytes) -> bytes:
    """A u2 NPY file whose header gives its descr as a list, at the same header length."""
    assert b"'descr': '<u2', " in npy
    return npy.replace(b"'descr': '<u2', ", b"'descr':['<u2'],", 1)


def empty_chip(path):
    """A readable uint16 NPY image chip of shape (0, 5, 12): no rows, no samples."""
    write_npy(np.zeros((1, 5, 12), dtype=np.uint16), path)
    data = path.read_bytes()
    header_end = 10 + int.from_bytes(data[8:10], "little")
    assert b"'shape': (1, 5, 12)" in data[:header_end]
    path.write_bytes(data[:header_end].replace(b"'shape': (1, 5, 12)", b"'shape': (0, 5, 12)"))


class TestDetect:
    def test_writes_pgm(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "edges.pgm"
        code, stdout, _ = run(
            capsys, "detect",
            "--input", str(corpus_dir / "synth_000010_image.npy"),
            "--band", "NIR", "--algorithm", "canny", "--out", str(out),
        )
        assert code == 0 and stdout == ""
        assert out.read_bytes().startswith(b"P5\n32 32\n255\n")

    def test_npy_output_and_metrics_line(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "edges.npy"
        code, stdout, _ = run(
            capsys, "detect",
            "--input", str(corpus_dir / "synth_000010_image.npy"),
            "--label", str(corpus_dir / "synth_000010_label.npy"),
            "--band", "SWIR1", "--algorithm", "sobel",
            "--out", str(out), "--format", "npy",
        )
        assert code == 0
        values = stdout.strip().split(",")
        assert len(values) == 4
        assert all(float(v) == float(v) for v in values)  # parseable, not nan
        edges = read_npy(out)
        assert edges.shape == (32, 32) and edges.dtype == np.uint8

    def test_variant_flags_choose_the_preprocessing(self, corpus_dir, tmp_path, capsys):
        image, out = corpus_dir / "synth_000010_image.npy", tmp_path / "edges.npy"
        code, _, _ = run(
            capsys, "detect", "--input", str(image), "--band", "NIR",
            "--out", str(out), "--format", "npy", "--no-equalize", "--noise", "closing",
        )
        assert code == 0
        spec = PreprocessSpec(equalize=False, noise_reduction="closing")
        expected = detect(run_pipeline(read_band(image, BandName.NIR), spec), "canny")
        np.testing.assert_array_equal(read_npy(out), expected)

    def test_unknown_band_lists_names(self, corpus_dir, tmp_path, capsys):
        code, _, err = run(
            capsys, "detect",
            "--input", str(corpus_dir / "synth_000010_image.npy"),
            "--band", "Thermal", "--out", str(tmp_path / "x.pgm"),
        )
        assert code == 1
        assert "CoastalAerosol" in err

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "detect", "--input", str(tmp_path / "nope.npy"),
            "--band", "Blue", "--out", str(tmp_path / "x.pgm"),
        )
        assert code == 2
        assert err != ""

    def test_malformed_npy_shape_is_usage_error(self, corpus_dir, tmp_path, capsys):
        path = corpus_dir / "synth_000010_image.npy"
        data = path.read_bytes()
        path.write_bytes(data.replace(b"'shape': (32,", b"'shape': (32.,", 1))
        code, _, err = run(
            capsys, "detect", "--input", str(path),
            "--band", "Blue", "--out", str(tmp_path / "x.pgm"),
        )
        assert code == 1
        assert "shape entries must be non-negative ints" in err

    def test_list_descr_is_usage_error(self, corpus_dir, tmp_path, capsys):
        path = corpus_dir / "synth_000010_image.npy"
        path.write_bytes(list_descr(path.read_bytes()))
        code, _, err = run(
            capsys, "detect", "--input", str(path),
            "--band", "Blue", "--out", str(tmp_path / "x.pgm"),
        )
        assert code == 1
        assert err.startswith("error: ") and "unsupported dtype ['<u2']" in err

    @pytest.mark.parametrize(
        "shape, message",
        [
            ((32, 32), "image must be HxWx12, got shape (32, 32)"),
            ((32, 32, 11), "expected 12 bands on the last axis, got 11"),
            ((0, 5, 12), "image must be HxWx12, got shape (0, 5, 12)"),
        ],
        ids=["2d", "11_bands", "no_rows"],
    )
    def test_input_not_an_image_stack_is_usage_error(self, tmp_path, capsys, shape, message):
        path = tmp_path / "image.npy"
        if 0 in shape:
            empty_chip(path)
        else:
            write_npy(np.zeros(shape, dtype=np.uint16), path)
        out = tmp_path / "x.pgm"
        code, _, err = run(capsys, "detect", "--input", str(path), "--band", "Blue", "--out", str(out))
        assert code == 1
        assert err == f"error: {path}: {message}\n"
        assert not out.exists()

    def test_non_finite_samples_are_usage_error(self, tmp_path, capsys):
        path = tmp_path / "image.npy"
        image = np.ones((8, 8, 12), dtype=np.float32)
        image[2, 3, 1] = np.nan
        write_npy(image, path)
        code, _, err = run(capsys, "detect", "--input", str(path), "--band", "Blue", "--out", str(tmp_path / "x.pgm"))
        assert code == 1
        assert err == "error: band samples must be finite\n"

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "detect", "--band", "Blue")
        assert code == 1

    def test_bad_metric_flag_is_usage_error(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "edges.pgm"
        code, stdout, err = run(
            capsys, "detect",
            "--input", str(corpus_dir / "synth_000010_image.npy"),
            "--label", str(corpus_dir / "synth_000010_label.npy"),
            "--band", "NIR", "--out", str(out), "--ssim-sigma", "0",
        )
        assert code == 1 and stdout == ""
        assert "ssim_sigma must be > 0" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "label, message",
        [
            (np.full((32, 32), 2, dtype=np.uint8), "label values must be strictly binary {0, 1}"),
            (np.zeros((16, 32), dtype=np.uint8), "label shape (16, 32) != band shape (32, 32)"),
            (np.zeros((32, 32, 2), dtype=np.uint8), "label must be 2D, got shape (32, 32, 2)"),
        ],
        ids=["non_binary", "other_shape", "3d"],
    )
    def test_bad_label_is_usage_error_before_output(
        self, corpus_dir, tmp_path, capsys, label, message
    ):
        label_path = tmp_path / "label.npy"
        write_npy(label, label_path)
        out = tmp_path / "edges.pgm"
        code, stdout, err = run(
            capsys, "detect",
            "--input", str(corpus_dir / "synth_000010_image.npy"),
            "--label", str(label_path),
            "--band", "NIR", "--out", str(out),
        )
        assert code == 1 and stdout == ""
        assert err == f"error: {label_path}: {message}\n"  # each label fault names the file
        assert not out.exists()

    @pytest.mark.parametrize("algorithm", ["canny", "sobel"])
    def test_memory_peak_of_scored_call(self, tmp_path, capsys, algorithm):
        # Above the heap-trim threshold a long-lived process is left with,
        # every call faults its freed heap back in. A 256² call scores SSIM and
        # UQI on two threads, so its peak depends on how they interleave: the
        # highest of 5 warm calls is checked (about 9 MiB over 50 calls).
        code, _, _ = run(
            capsys, "synth", "--n", "1", "--size", "256", "--seed", "1000",
            "--noise-sigma", "300", "--out-dir", str(tmp_path),
        )
        assert code == 0
        argv = [
            "detect",
            "--input", str(tmp_path / "synth_001000_image.npy"),
            "--label", str(tmp_path / "synth_001000_label.npy"),
            "--band", "NIR", "--algorithm", algorithm, "--out", str(tmp_path / "e.pgm"),
        ]
        assert run(capsys, *argv)[0] == 0  # first call: lazy imports and caches
        peaks = []
        for _ in range(5):
            tracemalloc.start()
            try:
                code, _, _ = run(capsys, *argv)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert max(peaks) <= 10 * 2**20


@pytest.fixture()
def chip16(tmp_path, capsys):
    """`detect --label` argv, less `--out`, on a 16-pixel chip: a 17-pixel window does not fit."""
    out = tmp_path / "chip16"
    code, _, _ = run(
        capsys, "synth", "--n", "1", "--size", "16", "--seed", "0",
        "--noise-sigma", "300", "--out-dir", str(out),
    )
    assert code == 0
    return [
        "detect", "--input", str(out / "synth_000000_image.npy"),
        "--label", str(out / "synth_000000_label.npy"), "--band", "NIR",
    ]


def slow_derive_reference(label, canny_params):
    """The reference, late: a thread left running by `main` would still be alive."""
    time.sleep(0.2)
    return derive_reference(label, canny_params)


class TestReferenceThread:
    """`detect --label` builds its reference on a second thread; errors show in the serial order."""

    def test_band_fault_wins_over_reference_fault(self, chip16, tmp_path, capsys):
        out = tmp_path / "edges.pgm"
        code, stdout, err = run(
            capsys, *chip16, "--out", str(out), "--gaussian-kernel", "17", "--ssim-window", "17",
        )
        assert (code, stdout) == (1, "")
        assert err == "error: kernel 17 larger than image (16, 16)\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--ssim-window", "17"], "image (16, 16) smaller than SSIM window 17"),
            (["--uqi-window", "17"], "image (16, 16) smaller than UQI window 17"),
            (["--uqi-window", "17", "--ssim-window", "17"], "image (16, 16) smaller than SSIM window 17"),
        ],
        ids=["ssim", "uqi", "both"],
    )
    def test_reference_fault_after_output(self, chip16, tmp_path, capsys, flags, message):
        out = tmp_path / "edges.pgm"
        code, stdout, err = run(capsys, *chip16, "--out", str(out), *flags)
        assert (code, stdout) == (1, "")
        assert err == f"error: {message}\n"
        assert out.read_bytes().startswith(b"P5\n16 16\n255\n")

    def test_bug_in_reference_escapes_main(self, chip16, tmp_path, monkeypatch):
        def broken_derive_reference(label, canny_params):
            raise RuntimeError("bug in derive_reference")

        monkeypatch.setattr(cli, "derive_reference", broken_derive_reference)
        out = tmp_path / "edges.pgm"
        with pytest.raises(RuntimeError, match="bug in derive_reference"):
            main([*chip16, "--out", str(out)])
        assert out.exists()

    @pytest.mark.parametrize(
        "flags, expected",
        [
            ([], 0),
            (["--gaussian-kernel", "17"], 1),
            (["--ssim-window", "17"], 1),
            (["--gaussian-kernel", "17", "--ssim-window", "17"], 1),
        ],
        ids=["scored", "band_fault", "reference_fault", "both_faults"],
    )
    def test_no_thread_outlives_main(self, chip16, tmp_path, capsys, monkeypatch, flags, expected):
        monkeypatch.setattr(cli, "derive_reference", slow_derive_reference)
        before = threading.active_count()
        code, _, _ = run(capsys, *chip16, "--out", str(tmp_path / "edges.pgm"), *flags)
        assert code == expected
        assert threading.active_count() == before


class TestEvaluate:
    def test_table1_reports_and_stdout(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "report"
        code, stdout, _ = run(
            capsys, "evaluate", "--manifest", str(corpus_dir / "manifest.json"),
            "--experiment", "table1", "--out-dir", str(out),
        )
        assert code == 0
        assert stdout.startswith("| Band |")
        for name in ("records.csv", "aggregates.csv", "table1.md", "provenance.json"):
            assert (out / name).exists()

    def test_all_uses_subdirectories(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "report_all"
        code, _, _ = run(
            capsys, "evaluate", "--manifest", str(corpus_dir / "manifest.json"),
            "--experiment", "all", "--out-dir", str(out), "--workers", "2",
        )
        assert code == 0
        assert (out / "table1" / "table1.md").exists()
        assert (out / "equalization_ablation" / "fig5_equalization.csv").exists()
        assert (out / "noise_ablation" / "fig6_noise.csv").exists()

    @pytest.mark.parametrize(
        "flags", [["--equalize"], ["--no-equalize"], ["--noise", "closing"]], ids=["eq", "no-eq", "noise"]
    )
    def test_variant_flags_are_refused(self, corpus_dir, tmp_path, capsys, flags):
        # every grid sets equalization and noise reduction for each variant
        out = tmp_path / "r"
        code, stdout, err = run(
            capsys, "evaluate", "--manifest", str(corpus_dir / "manifest.json"),
            "--out-dir", str(out), *flags,
        )
        assert code == 1 and stdout == ""
        assert f"unrecognized arguments: {' '.join(flags)}" in err
        assert not out.exists()

    def test_corrupt_chip_gives_partial_exit(self, corpus_dir, tmp_path, capsys):
        (corpus_dir / "synth_000011_image.npy").write_bytes(b"junk")
        code, _, err = run(
            capsys, "evaluate", "--manifest", str(corpus_dir / "manifest.json"),
            "--experiment", "table1", "--out-dir", str(tmp_path / "r"),
        )
        assert code == 3
        assert "failed" in err
        assert (tmp_path / "r" / "records.csv").exists()

    def test_malformed_npy_header_gives_error_records(self, corpus_dir, tmp_path, capsys):
        path = corpus_dir / "synth_000011_image.npy"
        path.write_bytes(list_descr(path.read_bytes()))
        code, _, err = run(
            capsys, "evaluate", "--manifest", str(corpus_dir / "manifest.json"),
            "--experiment", "table1", "--out-dir", str(tmp_path / "r"),
        )
        assert code == 3
        assert "48 cell(s) failed in table1" in err
        with open(tmp_path / "r" / "records.csv", newline="") as fh:
            failed = [row for row in csv.DictReader(fh) if row["error"]]
        assert len(failed) == 48
        assert {row["image_id"] for row in failed} == {"synth_000011"}
        assert all(row["error"].startswith("UnsupportedDtype: ") for row in failed)

    def test_too_small_chip_error_records(self, tmp_path, capsys):
        # a 4x4 chip is too small for the 5-wide Gaussian blur of preprocessing
        # and of Canny: every cell is an error record naming the band's (H, W)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        rng = np.random.default_rng(4)
        write_npy(rng.integers(0, 4000, size=(4, 4, 12)).astype(np.uint16), corpus / "c_image.npy")
        write_npy(np.repeat([[0, 0, 1, 1]], 4, axis=0).astype(np.uint8), corpus / "c_label.npy")
        (corpus / "manifest.json").write_text(json.dumps({
            "band_order": [b.value for b in BandName],
            "images": [{"id": "c", "image": "c_image.npy", "label": "c_label.npy"}],
        }))
        out = tmp_path / "r"
        code, _, err = run(
            capsys, "evaluate", "--manifest", str(corpus / "manifest.json"),
            "--experiment", "all", "--out-dir", str(out),
        )
        assert code == 3
        message = "KernelTooLarge: kernel 5 larger than image (4, 4)"
        grids = {
            "table1": (ALGORITHMS, ["eq=on,noise=gaussian"]),
            "equalization_ablation": (["canny"], ["eq=on,noise=gaussian", "eq=off,noise=gaussian"]),
            "noise_ablation": (["canny"], ["eq=on,noise=none", "eq=on,noise=gaussian", "eq=on,noise=closing"]),
        }
        for kind, (algorithms, tags) in grids.items():
            with open(out / kind / "records.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            assert rows == [
                ["c", band.value, algorithm, tag, "", "", "", "", message]
                for band in BandName
                for algorithm in algorithms
                for tag in tags
            ], kind
        assert "48 cell(s) failed in table1" in err

    def test_chip_without_rows_gives_shape_error_records(self, tmp_path, capsys):
        # an image of no rows fails its layout check, before its grid meets the label's
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        empty_chip(corpus / "c_image.npy")
        write_npy(np.repeat([[0, 0, 1, 1]], 4, axis=0).astype(np.uint8), corpus / "c_label.npy")
        (corpus / "manifest.json").write_text(json.dumps({
            "band_order": [b.value for b in BandName],
            "images": [{"id": "c", "image": "c_image.npy", "label": "c_label.npy"}],
        }))
        out = tmp_path / "r"
        code, _, err = run(
            capsys, "evaluate", "--manifest", str(corpus / "manifest.json"),
            "--experiment", "table1", "--out-dir", str(out),
        )
        assert code == 3
        assert "48 cell(s) failed in table1" in err
        with open(out / "records.csv", newline="") as fh:
            errors = {row["error"] for row in csv.DictReader(fh)}
        assert errors == {"ShapeError: c: image must be HxWx12, got shape (0, 5, 12)"}

    def test_negative_samples_give_sample_error_records(self, corpus_dir, tmp_path, capsys):
        # a data fault, so error records and exit 3, not a stopped run
        path = corpus_dir / "synth_000011_image.npy"
        image = read_npy(path).astype(np.float32)
        image[0, 0, 5] = -1.0
        write_npy(image, path)
        out = tmp_path / "r"
        code, _, err = run(
            capsys, "evaluate", "--manifest", str(corpus_dir / "manifest.json"),
            "--experiment", "table1", "--out-dir", str(out),
        )
        assert code == 3
        assert "48 cell(s) failed in table1" in err
        with open(out / "records.csv", newline="") as fh:
            errors = {(row["image_id"], row["error"]) for row in csv.DictReader(fh) if row["error"]}
        assert errors == {("synth_000011", "SampleError: band samples must be non-negative")}

    def test_duplicate_manifest_ids_are_io_error(self, corpus_dir, tmp_path, capsys):
        manifest = corpus_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["images"][1]["id"] = doc["images"][0]["id"]
        manifest.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "evaluate", "--manifest", str(manifest),
            "--experiment", "table1", "--out-dir", str(tmp_path / "r"),
        )
        assert code == 2
        assert "duplicate image id" in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--ssim-sigma", "0"), ("--uqi-window", "0"), ("--ssim-window", "4"), ("--uqi-window", "-2")],
    )
    def test_bad_metric_flag_is_usage_error(self, corpus_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "r"
        code, _, err = run(
            capsys, "evaluate", "--manifest", str(corpus_dir / "manifest.json"),
            "--experiment", "table1", "--out-dir", str(out), flag, value,
        )
        assert code == 1
        assert err.startswith("error: ") and flag[2:].replace("-", "_") in err
        assert not (out / "records.csv").exists()

    @pytest.mark.parametrize("value", [5, None, ["synth_000010_image.npy"]], ids=["int", "null", "list"])
    def test_non_string_image_path_is_io_error(self, corpus_dir, tmp_path, capsys, value):
        manifest = corpus_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["images"][1]["image"] = value
        manifest.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "evaluate", "--manifest", str(manifest),
            "--experiment", "table1", "--out-dir", str(tmp_path / "r"),
        )
        assert code == 2
        assert "malformed image entry" in err and doc["images"][1]["id"] in err

    def test_missing_manifest_is_io_error(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "evaluate", "--manifest", str(tmp_path / "nope.json"),
            "--out-dir", str(tmp_path / "r"),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"[1, 2]", "expected a JSON object"),
            (b"\xff\xfe\xfa", "not valid JSON"),
            (json.dumps({"band_order": [b.value for b in BandName], "images": []}).encode(), "'images' is empty"),
        ],
        ids=["list", "not-utf8", "empty"],
    )
    def test_malformed_manifest_is_io_error(self, tmp_path, capsys, data, message):
        manifest = tmp_path / "m.json"
        manifest.write_bytes(data)
        code, _, err = run(
            capsys, "evaluate", "--manifest", str(manifest), "--out-dir", str(tmp_path / "r"),
        )
        assert code == 2
        assert err.startswith("error: ") and message in err

    def test_table_is_utf8_in_any_locale(self, evaluated, tmp_path):
        # an ASCII locale with no coercion to UTF-8: stdout is the UTF-8
        # table, as in table1.md, and no encoding error follows the reports
        expected = (evaluated / "table1" / "table1.md").read_bytes()
        assert "±".encode() in expected
        out = tmp_path / "report"
        proc = fresh_python(
            "-m", "coastedge.cli", "evaluate",
            "--manifest", str(evaluated.parent / "corpus" / "manifest.json"),
            "--experiment", "table1", "--out-dir", str(out),
            LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout.encode() == expected + b"\n"
        assert (out / "table1.md").read_bytes() == expected

    def test_table_goes_to_a_text_only_stdout(self, evaluated, tmp_path):
        # an in-process caller may redirect stdout to a stream with no `buffer`
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([
                "evaluate", "--manifest", str(evaluated.parent / "corpus" / "manifest.json"),
                "--experiment", "table1", "--out-dir", str(tmp_path / "report"),
            ])
        assert code == 0
        expected = (evaluated / "table1" / "table1.md").read_text(encoding="utf-8")
        assert stdout.getvalue() == expected + "\n"
        assert (tmp_path / "report" / "table1.md").read_text(encoding="utf-8") == expected


def water_everywhere(shape):
    return np.ones(shape, np.uint8)


def water_in_last_column(shape):
    label = np.zeros(shape, np.uint8)
    label[:, -1] = 1
    return label


def water_in_one_corner(shape):
    label = np.zeros(shape, np.uint8)
    label[-1, -1] = 1
    return label


# each label with the rows and columns of its 32x32 reference's coastline box:
# none, one clamped at the last column, and one pixel's (11x11, each side
# clamped or widened by 10)
LABELS = {
    "all_water": (water_everywhere, None),
    "last_column": (water_in_last_column, (slice(0, 32), slice(20, 32))),
    "corner_pixel": (water_in_one_corner, (slice(21, 32), slice(21, 32))),
}


@pytest.fixture(scope="module", params=[None, *LABELS.values()], ids=["corpus", *LABELS])
def labelled_table1(request, evaluated, tmp_path_factory):
    """(corpus directory, table1 records) of `evaluate` on the corpus with its own labels or the given ones."""
    corpus = evaluated.parent / "corpus"
    if request.param is None:
        return corpus, evaluated / "table1" / "records.csv"
    make_label, box = request.param
    base = tmp_path_factory.mktemp(make_label.__name__)
    shutil.copytree(corpus, base / "corpus")
    for label in (base / "corpus").glob("*_label.npy"):
        values = make_label(read_npy(label).shape)
        reference = PreparedReference(derive_reference(LabelMask(values)))
        assert (reference.box and reference.box[:2]) == box
        write_npy(values, label)
    assert main([
        "evaluate", "--manifest", str(base / "corpus" / "manifest.json"),
        "--experiment", "table1", "--out-dir", str(base / "out"),
    ]) == 0
    return base / "corpus", base / "out" / "records.csv"


class TestDetectMatchesEvaluate:
    def test_metrics_line_is_the_table1_record(self, labelled_table1, tmp_path, capsys):
        # `detect --label` and `evaluate` score one cell alike: same reader,
        # same reference, same digits; also where the reference's coastline
        # box is empty, clamped at the border or narrower than both windows
        corpus, records = labelled_table1
        with open(records, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 12 * len(ALGORITHMS)
        for row in rows:
            code, stdout, _ = run(
                capsys, "detect",
                "--input", str(corpus / f"{row['image_id']}_image.npy"),
                "--label", str(corpus / f"{row['image_id']}_label.npy"),
                "--band", row["band"], "--algorithm", row["algorithm"],
                "--out", str(tmp_path / "edges.pgm"),
            )
            assert code == 0
            assert stdout == ",".join(row[m] for m in ("rmse", "psnr", "ssim", "uqi")) + "\n", row


class TestGridMismatch:
    def test_both_commands_refuse_a_label_off_the_chip_grid(self, corpus_dir, tmp_path, capsys):
        # one 32x32 chip and one 16x16 label: nothing is resampled, in either command
        image = corpus_dir / "synth_000010_image.npy"
        label = tmp_path / "label16.npy"
        write_npy(np.repeat([[0] * 8 + [1] * 8], 16, axis=0).astype(np.uint8), label)
        out = tmp_path / "edges.pgm"
        code, stdout, err = run(
            capsys, "detect", "--input", str(image), "--label", str(label),
            "--band", "NIR", "--out", str(out),
        )
        assert code == 1 and stdout == ""
        assert err == f"error: {label}: label shape (16, 16) != band shape (32, 32)\n"
        assert not out.exists()

        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "band_order": [b.value for b in BandName],
            "images": [{"id": "c", "image": str(image), "label": str(label)}],
        }))
        reports = tmp_path / "r"
        code, _, err = run(
            capsys, "evaluate", "--manifest", str(manifest),
            "--experiment", "all", "--out-dir", str(reports),
        )
        assert code == 3
        assert "48 cell(s) failed in table1" in err
        for kind, cells in (("table1", 48), ("equalization_ablation", 24), ("noise_ablation", 36)):
            with open(reports / kind / "records.csv", newline="") as fh:
                errors = [row["error"] for row in csv.DictReader(fh)]
            assert errors == ["ShapeError: scene c: band shape (32, 32) != label shape (16, 16)"] * cells


class TestReport:
    def test_reaggregation_is_byte_identical(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "report"
        code, _, _ = run(
            capsys, "evaluate", "--manifest", str(corpus_dir / "manifest.json"),
            "--experiment", "table1", "--out-dir", str(out),
        )
        assert code == 0
        rebuilt = tmp_path / "rebuilt.csv"
        code, _, _ = run(
            capsys, "report", "--records", str(out / "records.csv"),
            "--format", "csv", "--out", str(rebuilt),
        )
        assert code == 0
        assert rebuilt.read_bytes() == (out / "aggregates.csv").read_bytes()

    def test_markdown_output(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "report"
        run(
            capsys, "evaluate", "--manifest", str(corpus_dir / "manifest.json"),
            "--experiment", "table1", "--out-dir", str(out),
        )
        table = tmp_path / "table.md"
        code, _, _ = run(
            capsys, "report", "--records", str(out / "records.csv"),
            "--format", "markdown", "--out", str(table),
        )
        assert code == 0
        lines = table.read_text().strip().split("\n")
        assert len(lines) == 14 and lines[0].startswith("| Band |")

    def test_plotdata_output(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "report"
        run(
            capsys, "evaluate", "--manifest", str(corpus_dir / "manifest.json"),
            "--experiment", "equalization", "--out-dir", str(out),
        )
        plot = tmp_path / "plot.csv"
        code, _, _ = run(
            capsys, "report", "--records", str(out / "records.csv"),
            "--format", "plotdata", "--out", str(plot),
        )
        assert code == 0
        assert plot.read_bytes() == (out / "fig5_equalization.csv").read_bytes()

    def test_missing_records_is_io_error(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "report", "--records", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    # table1 csv and equalization plotdata are test_reaggregation_is_byte_identical
    # and test_plotdata_output
    @pytest.mark.parametrize(
        "kind, fmt, name",
        [
            ("table1", "markdown", "table1.md"),
            ("equalization_ablation", "csv", "aggregates.csv"),
            ("noise_ablation", "csv", "aggregates.csv"),
            ("noise_ablation", "plotdata", "fig6_noise.csv"),
        ],
    )
    def test_same_bytes_as_evaluate(self, evaluated, tmp_path, capsys, kind, fmt, name):
        out = tmp_path / "report.out"
        code, _, _ = run(
            capsys, "report", "--records", str(evaluated / kind / "records.csv"),
            "--format", fmt, "--out", str(out),
        )
        assert code == 0
        assert out.read_bytes() == (evaluated / kind / name).read_bytes()

    @pytest.mark.parametrize(
        "kind, fmt",
        [
            ("table1", "plotdata"),
            ("equalization_ablation", "markdown"),
            ("noise_ablation", "markdown"),
        ],
    )
    def test_format_evaluate_does_not_write_is_usage_error(
        self, evaluated, tmp_path, capsys, kind, fmt
    ):
        out = tmp_path / "report.out"
        code, _, err = run(
            capsys, "report", "--records", str(evaluated / kind / "records.csv"),
            "--format", fmt, "--out", str(out),
        )
        assert code == 1
        assert f"a {kind} run has no {fmt} report" in err
        assert not out.exists()

    def test_missing_provenance_is_io_error(self, evaluated, tmp_path, capsys):
        run_dir = copy_run(evaluated / "table1", tmp_path / "run", names=("records.csv",))
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "report", "--records", str(run_dir / "records.csv"), "--out", str(out),
        )
        assert code == 2
        assert "provenance.json" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("experiment", "table2", "unknown experiment kind 'table2'"),
            ("algorithms", ["canny"], "algorithms ['canny'] is not the table1 grid's"),
            (
                "preprocess_variants",
                ["eq=off,noise=gaussian"],
                "preprocess_variants ['eq=off,noise=gaussian'] is not the table1 grid's",
            ),
        ],
        ids=["experiment", "algorithms", "preprocess_variants"],
    )
    def test_provenance_outside_grid_is_usage_error(
        self, evaluated, tmp_path, capsys, key, value, message
    ):
        run_dir = copy_run(evaluated / "table1", tmp_path / "run")
        provenance = json.loads((run_dir / "provenance.json").read_text())
        provenance[key] = value
        (run_dir / "provenance.json").write_text(json.dumps(provenance))
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "report", "--records", str(run_dir / "records.csv"), "--out", str(out),
        )
        assert code == 1
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, code, message",
        [("provenance.json", 1, "is not valid JSON"), ("records.csv", 2, "records CSV is not UTF-8")],
    )
    def test_text_file_not_utf8(self, evaluated, tmp_path, capsys, name, code, message):
        run_dir = copy_run(evaluated / "table1", tmp_path / "run")
        (run_dir / name).write_bytes(b"\xff\xfe\xfa")
        out = tmp_path / "x.csv"
        got, _, err = run(
            capsys, "report", "--records", str(run_dir / "records.csv"), "--out", str(out),
        )
        assert got == code
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_bytes_do_not_depend_on_the_locale(self, evaluated, tmp_path):
        # an ASCII locale with no coercion to UTF-8: the report is still UTF-8
        expected = (evaluated / "table1" / "table1.md").read_bytes()
        assert "±".encode() in expected
        out = tmp_path / "table1.md"
        proc = fresh_python(
            "-m", "coastedge.cli", "report", "--records", str(evaluated / "table1" / "records.csv"),
            "--format", "markdown", "--out", str(out),
            LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
        )
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == expected

    def test_line_the_csv_module_cannot_split_is_io_error(self, evaluated, tmp_path, capsys):
        run_dir = copy_run(evaluated / "table1", tmp_path / "run")
        header = (run_dir / "records.csv").read_bytes().splitlines(keepends=True)[0]
        (run_dir / "records.csv").write_bytes(header + b"x" * 200_000 + b"\r\n")
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "report", "--records", str(run_dir / "records.csv"), "--out", str(out),
        )
        assert code == 2
        assert err == f"error: {run_dir / 'records.csv'}: row 2: field larger than field limit (131072)\n"
        assert not out.exists()

    @pytest.mark.parametrize("column", [4, 5, 6, 7], ids=["rmse", "psnr", "ssim", "uqi"])
    def test_non_numeric_metric_is_io_error(self, evaluated, tmp_path, capsys, column):
        run_dir = copy_run(evaluated / "table1", tmp_path / "run")
        with open(run_dir / "records.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[5][column] = "abc"
        with open(run_dir / "records.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "report", "--records", str(run_dir / "records.csv"), "--out", str(out),
        )
        assert code == 2
        assert f"{run_dir / 'records.csv'}: row 6: " in err and "'abc'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "column, value",
        [(1, "Thermal"), (2, "laplace"), (3, "eq=off,noise=gaussian")],
        ids=["band", "algorithm", "preprocess"],
    )
    def test_record_outside_grid_is_usage_error(
        self, evaluated, tmp_path, capsys, column, value
    ):
        run_dir = copy_run(evaluated / "table1", tmp_path / "run")
        with open(run_dir / "records.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[-1][column] = value
        with open(run_dir / "records.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "report", "--records", str(run_dir / "records.csv"), "--out", str(out),
        )
        assert code == 1
        assert value in err and "is outside the table1 grid" in err
        assert not out.exists()


# A fresh interpreter where importing scipy, or any of its modules, raises.
BLOCK_SCIPY = """
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} imported at run time")
        return None


sys.meta_path.insert(0, BlockScipy())
"""

RUN_WITHOUT_SCIPY = BLOCK_SCIPY + """
from pathlib import Path

from coastedge.cli import main

base = Path(sys.argv[1])
corpus = base / "corpus"
steps = [
    ["synth", "--n", "1", "--size", "32", "--seed", "10", "--noise-sigma", "150",
     "--out-dir", str(corpus)],
    ["detect", "--input", str(corpus / "synth_000010_image.npy"),
     "--label", str(corpus / "synth_000010_label.npy"), "--band", "NIR",
     "--algorithm", "canny", "--out", str(base / "edges.pgm")],
    ["evaluate", "--manifest", str(corpus / "manifest.json"), "--experiment", "noise",
     "--out-dir", str(base / "noise")],
]
for argv in steps:
    code = main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
"""

LIST_SCIPY_MODULES = """
import sys

import coastedge.cli

print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


# modules that only `evaluate`, `report` or `synth` runs
BATCH_MODULES = ("coastedge.harness", "coastedge.synth", "concurrent.futures", "hashlib", "csv")

LIST_BATCH_MODULES = f"""
import sys

import coastedge.cli

coastedge.cli.build_parser(["detect", "--input", "x.npy", "--band", "NIR", "--out", "e.pgm"])
print([name for name in {BATCH_MODULES!r} if name in sys.modules])
"""


def fresh_python(*args, **env):
    """Run a fresh interpreter that imports this checkout's coastedge, with `env` set."""
    src = str(Path(coastedge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True, text=True, timeout=300,
    )


class TestNoScipyAtRunTime:
    """scipy is a test-only dependency: the commands run with its import blocked."""

    def test_synth_detect_and_closing_evaluate_run_with_scipy_blocked(self, tmp_path):
        proc = fresh_python("-c", RUN_WITHOUT_SCIPY, str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "edges.pgm").exists()
        with open(tmp_path / "noise" / "records.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert not any(row["error"] for row in rows)
        assert "eq=on,noise=closing" in {row["preprocess"] for row in rows}

    def test_import_loads_no_scipy_module(self):
        proc = fresh_python("-c", LIST_SCIPY_MODULES)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestImportOnlyWhatDetectRuns:
    """Every command is a fresh process: `detect` loads no batch machinery."""

    def test_import_loads_no_batch_module(self):
        proc = fresh_python("-c", LIST_BATCH_MODULES)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
