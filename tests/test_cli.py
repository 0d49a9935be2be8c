"""Command-line interface tests, driven through main() with explicit argv."""

import csv
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import coastedge
from coastedge.cli import main
from coastedge.edgedetect import ALGORITHMS
from coastedge.raster import BandName, read_npy, write_npy


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
            (np.full((32, 32), 2, dtype=np.uint8), "strictly binary"),
            (np.zeros((16, 32), dtype=np.uint8), "label shape (16, 32) != band shape (32, 32)"),
        ],
        ids=["non_binary", "other_shape"],
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
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("algorithm", ["canny", "sobel"])
    def test_memory_peak_of_scored_call(self, tmp_path, capsys, algorithm):
        # Above the heap-trim threshold a long-lived process is left with,
        # every call faults its freed heap back in; 256² calls peak at 9.4 MiB.
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
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 10 * 2**20


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
        # resampling an image of no rows to the label grid had nothing to index
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


class TestDetectMatchesEvaluate:
    def test_metrics_line_is_the_table1_record(self, evaluated, tmp_path, capsys):
        # `detect --label` and `evaluate` score one cell alike: same reader,
        # same reference, same digits
        corpus = evaluated.parent / "corpus"
        with open(evaluated / "table1" / "records.csv", newline="") as fh:
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

print([name for name in {BATCH_MODULES!r} if name in sys.modules])
"""


def fresh_python(*args):
    """Run a fresh interpreter that imports this checkout's coastedge."""
    src = str(Path(coastedge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
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
