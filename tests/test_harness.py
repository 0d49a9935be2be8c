"""Experiment harness tests: reference derivation, grids, reports."""

import csv
import math

import numpy as np
import pytest

from coastedge import harness
from coastedge.edgedetect import CannyParams
from coastedge.errors import ParamError
from coastedge.harness import (
    AGGREGATE_COLUMNS,
    RECORD_COLUMNS,
    ExperimentSpec,
    aggregate_records,
    corpus_hash,
    derive_reference,
    dump_band_edges,
    emit_report,
    format_mean_std,
    markdown_table,
    read_records_csv,
    run_cell,
    run_experiment,
    write_records_csv,
)
from coastedge.metrics import MetricParams, PreparedReference
from coastedge.preprocess import PreprocessSpec, run_pipeline
from coastedge.raster import BandName, LabelMask
from coastedge.synth import SynthSpec, generate_corpus, generate_scene


class TestDeriveReference:
    def test_uniform_label_has_no_edges(self):
        reference = derive_reference(LabelMask(np.ones((16, 16), dtype=np.uint8)))
        assert (reference.values == 0).all()

    def test_halfplane_label_gives_vertical_line(self):
        values = np.zeros((16, 16), dtype=np.uint8)
        values[:, 8:] = 1
        reference = derive_reference(LabelMask(values))
        cols = np.nonzero(reference.values.any(axis=0))[0]
        assert len(cols) >= 1 and set(cols) <= {7, 8}
        assert (reference.values[:, cols] == 255).all()

    def test_every_edge_pixel_touches_opposite_class(self, noisy_scene):
        label = noisy_scene.label
        reference = derive_reference(label)
        padded = np.pad(label.values, 1, mode="edge")
        on = np.nonzero(reference.values)
        assert len(on[0]) > 0
        for r, c in zip(*on):
            window = padded[r : r + 3, c : c + 3]
            assert (window != label.values[r, c]).any()


def nir_cell(scene, algorithm, spec=PreprocessSpec(), canny_params=CannyParams(), reference=None):
    """run_cell on the NIR band, preprocessed by `spec`, against the scene's reference."""
    if reference is None:
        reference = derive_reference(scene.label, canny_params)
    processed = run_pipeline(scene.bands[BandName.NIR].samples, spec)
    return run_cell(
        scene, BandName.NIR, algorithm, spec, canny_params, MetricParams(), reference, processed
    )


class TestRunCell:
    def test_clean_cell_has_metrics(self, noisy_scene):
        record = nir_cell(noisy_scene, "canny")
        assert record.error == ""
        assert record.image_id == noisy_scene.id
        assert math.isfinite(record.rmse)
        assert -1.0 <= record.ssim <= 1.0

    def test_perfect_cell_has_infinite_psnr(self, clean_scene):
        # a scene whose band is the label itself reproduces the reference
        record = nir_cell(
            clean_scene,
            "canny",
            PreprocessSpec(equalize=False, noise_reduction="none"),
            CannyParams(smoothing=False),
        )
        assert record.error == ""
        assert record.rmse == 0.0 and record.psnr == math.inf

    def test_preprocessed_band_and_prepared_reference(self, noisy_scene):
        plain = derive_reference(noisy_scene.label)
        prepared = PreparedReference(plain, MetricParams())
        for algorithm in ("canny", "sobel"):
            shared = nir_cell(noisy_scene, algorithm, reference=prepared)
            assert shared == nir_cell(noisy_scene, algorithm, reference=plain)
            assert shared.error == ""

    def test_failure_is_isolated(self, noisy_scene):
        bad_params = CannyParams(smooth_kernel_size=101)  # larger than the scene
        record = nir_cell(noisy_scene, "canny", canny_params=bad_params)
        assert record.error.startswith("KernelTooLarge: ")
        assert math.isnan(record.rmse)


class TestFaultIsolation:
    def test_toolkit_bug_propagates(self, small_corpus, monkeypatch):
        def broken_detect(band, algorithm, params):
            raise TypeError("a bug, not a data fault")

        monkeypatch.setattr(harness, "detect", broken_detect)
        with pytest.raises(TypeError, match="a bug"):
            run_experiment(small_corpus, ExperimentSpec.for_kind("table1"))

    def test_preprocess_fault_gives_one_record_per_algorithm(self, tmp_path):
        manifest = generate_corpus(1, SynthSpec(size=24, seed=3, noise_sigma=100), tmp_path)
        spec = ExperimentSpec.for_kind("table1", base=PreprocessSpec(gaussian_kernel_size=31))
        result = run_experiment(manifest, spec)
        assert len(result.records) == 12 * 4
        assert all(r.error.startswith("KernelTooLarge: ") for r in result.records)


class TestExperimentSpec:
    def test_table1_grid(self):
        spec = ExperimentSpec.for_kind("table1")
        assert spec.algorithms == ("canny", "sobel", "scharr", "prewitt")
        assert spec.variant_tags == ["eq=on,noise=gaussian"]

    def test_equalization_grid(self):
        spec = ExperimentSpec.for_kind("equalization_ablation")
        assert spec.algorithms == ("canny",)
        assert spec.variant_tags == ["eq=on,noise=gaussian", "eq=off,noise=gaussian"]

    def test_noise_grid(self):
        spec = ExperimentSpec.for_kind("noise_ablation")
        assert spec.variant_tags == [
            "eq=on,noise=none", "eq=on,noise=gaussian", "eq=on,noise=closing"
        ]

    def test_validation(self):
        with pytest.raises(ParamError):
            ExperimentSpec(kind="table7")
        with pytest.raises(ParamError):
            ExperimentSpec(kind="table1", algorithms=("roberts",))
        with pytest.raises(ParamError):
            ExperimentSpec(kind="table1", worker_count=0)


class TestRunExperiment:
    def test_table1_shapes(self, small_corpus):
        result = run_experiment(small_corpus, ExperimentSpec.for_kind("table1"))
        # 4 images x 12 bands x 4 algorithms x 1 variant
        assert len(result.records) == 4 * 12 * 4
        # 12 bands x 4 algorithms x 4 metrics
        assert len(result.aggregate_rows) == 12 * 4 * 4
        assert result.provenance["n_errors"] == 0
        assert result.provenance["n_images"] == 4
        assert all(r["n_included"] + r["n_excluded"] == 4 for r in result.aggregate_rows)

    def test_records_canonically_sorted(self, small_corpus):
        result = run_experiment(small_corpus, ExperimentSpec.for_kind("table1"))
        bands = [b.value for b in BandName]
        keys = [
            (r.image_id, bands.index(r.band_name), ["canny", "sobel", "scharr", "prewitt"].index(r.algorithm))
            for r in result.records
        ]
        assert keys == sorted(keys)

    def test_ablation_shapes(self, small_corpus):
        result = run_experiment(small_corpus, ExperimentSpec.for_kind("noise_ablation"))
        assert len(result.records) == 4 * 12 * 1 * 3
        assert len(result.aggregate_rows) == 12 * 1 * 4 * 3

    def test_worker_count_does_not_change_results(self, small_corpus, tmp_path):
        serial = run_experiment(small_corpus, ExperimentSpec.for_kind("table1"))
        parallel = run_experiment(
            small_corpus, ExperimentSpec.for_kind("table1", worker_count=2)
        )
        assert serial.records == parallel.records
        assert serial.aggregate_rows == parallel.aggregate_rows
        serial_path, parallel_path = tmp_path / "s.csv", tmp_path / "p.csv"
        write_records_csv(serial.records, serial_path)
        write_records_csv(parallel.records, parallel_path)
        assert serial_path.read_bytes() == parallel_path.read_bytes()

    def test_broken_image_yields_error_records(self, tmp_path):
        manifest = generate_corpus(
            2, SynthSpec(size=24, seed=90, noise_sigma=100), tmp_path
        )
        (tmp_path / "synth_000091_image.npy").write_bytes(b"garbage")
        result = run_experiment(manifest, ExperimentSpec.for_kind("table1"))
        errors = [r for r in result.records if r.error]
        assert len(errors) == 12 * 4
        assert all(r.image_id == "synth_000091" for r in errors)
        assert result.provenance["n_errors"] == 12 * 4
        # aggregates still exist from the surviving image
        assert all(r["n_included"] == 1 for r in result.aggregate_rows)


class TestCorpusHash:
    def test_stable_and_sensitive(self, tmp_path):
        manifest = generate_corpus(1, SynthSpec(size=24, seed=5), tmp_path / "c")
        first = corpus_hash(manifest)
        assert first == corpus_hash(manifest)
        with open(tmp_path / "c" / "synth_000005_label.npy", "ab") as fh:
            fh.write(b"\x00")
        assert corpus_hash(manifest) != first

    def test_covers_file_contents(self, tmp_path):
        # same seed and file sizes, different pixel noise
        hashes = [
            corpus_hash(generate_corpus(2, SynthSpec(size=24, seed=5, noise_sigma=sigma), tmp_path / str(sigma)))
            for sigma in (100.0, 200.0)
        ]
        assert hashes[0] != hashes[1]


class TestFormatting:
    def test_mean_std_examples(self):
        assert format_mean_std(13.24, 2.1) == "13.2 ± 2"
        assert format_mean_std(14.0, 0.37) == "14 ± 0.4"
        assert format_mean_std(0.8123, 0.096) == "0.8 ± 0.1"
        assert format_mean_std(5.0, 0.0) == "5 ± 0"
        assert format_mean_std(math.inf, 1.0) == "n/a"

    def test_markdown_table_layout(self, small_corpus):
        result = run_experiment(small_corpus, ExperimentSpec.for_kind("table1"))
        table = markdown_table(result.aggregate_rows)
        lines = table.strip().split("\n")
        assert len(lines) == 2 + 12
        assert lines[0].startswith("| Band | Canny PSNR | Canny SSIM |")
        assert lines[2].startswith("| Coastal Aerosol |")
        assert "±" in lines[2]


class TestCsvRoundTrip:
    def test_records_round_trip_exactly(self, small_corpus, tmp_path):
        result = run_experiment(small_corpus, ExperimentSpec.for_kind("table1"))
        path = tmp_path / "records.csv"
        write_records_csv(result.records, path)
        recovered = read_records_csv(path)
        assert recovered == result.records
        # and re-aggregating the recovered records matches exactly
        assert aggregate_records(recovered, result.spec) == result.aggregate_rows

    def test_empty_experiment_writes_header_only(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv([], path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [list(RECORD_COLUMNS)]


class TestEmitReport:
    def test_table1_outputs(self, small_corpus, tmp_path):
        result = run_experiment(small_corpus, ExperimentSpec.for_kind("table1"))
        written = emit_report(result, tmp_path / "out")
        names = sorted(p.name for p in written)
        assert names == ["aggregates.csv", "provenance.json", "records.csv", "table1.md"]
        with open(tmp_path / "out" / "aggregates.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(AGGREGATE_COLUMNS)
        assert len(rows) == 1 + 12 * 4 * 4

    def test_ablation_plotdata(self, small_corpus, tmp_path):
        result = run_experiment(small_corpus, ExperimentSpec.for_kind("equalization_ablation"))
        written = emit_report(result, tmp_path / "out")
        plot = tmp_path / "out" / "fig5_equalization.csv"
        assert plot in written
        with open(plot, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["band", "eq=on,noise=gaussian", "eq=off,noise=gaussian"]
        assert len(rows) == 13
        assert all(len(row) == 3 for row in rows)


class TestDumpBandEdges:
    def test_writes_all_bands(self, tmp_path):
        scene = generate_scene(SynthSpec(size=24, seed=2, noise_sigma=100))
        paths = dump_band_edges(scene, "canny", PreprocessSpec(), tmp_path / "edges")
        assert len(paths) == 12
        assert paths[0].name == "00_CoastalAerosol.pgm"
        assert paths[7].name == "07_NIR.pgm"
        assert all(p.exists() for p in paths)
