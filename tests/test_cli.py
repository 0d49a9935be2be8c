"""Command-line interface tests, driven through main() with explicit argv."""

import csv
import json
import tracemalloc

import numpy as np
import pytest

from coastedge.cli import main
from coastedge.raster import read_npy


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

    def test_missing_manifest_is_io_error(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "evaluate", "--manifest", str(tmp_path / "nope.json"),
            "--out-dir", str(tmp_path / "r"),
        )
        assert code == 2


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
