"""Experiment harness tests: reference derivation, grids, reports."""

import csv
import json
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coastedge import edgedetect, harness
from coastedge.edgedetect import ALGORITHMS, CannyParams, derive_reference, detect
from coastedge.errors import IoError, ParamError
from coastedge.harness import (
    AGGREGATE_COLUMNS,
    GRIDS,
    RECORD_COLUMNS,
    ExperimentSpec,
    aggregate_records,
    corpus_hash,
    emit_report,
    format_mean_std,
    markdown_table,
    read_records_csv,
    run_cell,
    run_experiment,
    run_experiments,
    write_records_csv,
)
from coastedge.metrics import MetricParams, PreparedReference
from coastedge.preprocess import PreprocessSpec, run_pipeline
from coastedge.raster import BandName, LabelMask, load_manifest, load_scene, write_npy
from coastedge.synth import SynthSpec, generate_corpus, generate_scene


class TestDeriveReference:
    def test_harness_holds_the_edgedetect_function(self):
        # benchmark tracing looks the reference up as harness.derive_reference
        assert harness.derive_reference is edgedetect.derive_reference

    def test_uniform_label_has_no_edges(self):
        reference = derive_reference(LabelMask(np.ones((16, 16), dtype=np.uint8)))
        assert (reference == 0).all()

    def test_halfplane_label_gives_vertical_line(self):
        values = np.zeros((16, 16), dtype=np.uint8)
        values[:, 8:] = 1
        reference = derive_reference(LabelMask(values))
        cols = np.nonzero(reference.any(axis=0))[0]
        assert len(cols) >= 1 and set(cols) <= {7, 8}
        assert (reference[:, cols] == 255).all()

    def test_every_edge_pixel_touches_opposite_class(self, noisy_scene):
        label = noisy_scene.label
        reference = derive_reference(label)
        padded = np.pad(label.values, 1, mode="edge")
        on = np.nonzero(reference)
        assert len(on[0]) > 0
        for r, c in zip(*on):
            window = padded[r : r + 3, c : c + 3]
            assert (window != label.values[r, c]).any()


NIR = list(BandName).index(BandName.NIR)


def nir_cell(scene, algorithm, spec=PreprocessSpec(), canny_params=CannyParams()):
    """run_cell on the NIR band's edges after `spec`, against the scene's prepared reference."""
    reference = PreparedReference(derive_reference(scene.label, canny_params), MetricParams())
    edges = detect(run_pipeline(scene.stack[NIR], spec), algorithm, canny_params)
    return run_cell((scene.id, BandName.NIR.value, algorithm, spec.tag), reference, edges)


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
        spec = PreprocessSpec(noise_reduction="closing")
        for algorithm in ("canny", "sobel"):
            record = nir_cell(noisy_scene, algorithm, spec)
            assert (record.band_name, record.algorithm, record.preprocess_tag) == ("NIR", algorithm, spec.tag)
            assert record.error == ""

    def test_failure_is_isolated(self, noisy_scene):
        # a reference prepared for windows larger than the scene
        reference = PreparedReference(derive_reference(noisy_scene.label), MetricParams(ssim_window=101))
        edges = detect(run_pipeline(noisy_scene.stack[NIR], PreprocessSpec()), "sobel")
        key = (noisy_scene.id, "NIR", "sobel", PreprocessSpec().tag)
        record = run_cell(key, reference, edges)
        assert record.error == "WindowError: image (64, 64) smaller than SSIM window 101"
        assert math.isnan(record.rmse)


@st.composite
def small_chip_cases(draw):
    """An experiment grid with kernels and windows from the range their
    validators accept, up to 9, a 12-band chip with sides of 3 to 10 and a
    seed for its samples and label."""
    odd = st.integers(1, 4).map(lambda n: 2 * n + 1)
    spec = ExperimentSpec.for_kind(
        draw(st.sampled_from(list(GRIDS))),
        base=PreprocessSpec(gaussian_kernel_size=draw(odd), closing_element=draw(odd)),
        canny_params=CannyParams(smoothing=draw(st.booleans()), smooth_kernel_size=draw(odd)),
        metric_params=MetricParams(ssim_window=draw(odd), uqi_window=draw(st.integers(2, 9))),
    )
    shape = (draw(st.integers(3, 10)), draw(st.integers(3, 10)))
    return spec, shape, draw(st.integers(0, 2**32 - 1))


class TestFaultIsolation:
    @settings(max_examples=60, deadline=None)
    @given(small_chip_cases())
    def test_chip_smaller_than_a_window_gives_window_errors(self, case):
        # a cell fails exactly when the chip is smaller than a kernel or
        # window it uses, with KernelTooLarge or WindowError and nothing else
        spec, shape, seed = case
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as tmp:
            entry = {"id": "c", "image": f"{tmp}/image.npy", "label": f"{tmp}/label.npy"}
            write_npy(rng.integers(0, 4000, size=shape + (12,)).astype(np.uint16), entry["image"])
            write_npy(rng.integers(0, 2, size=shape).astype(np.uint8), entry["label"])
            records = harness._scene_records(entry, [spec])
        assert len(records) == 12 * len(spec.algorithms) * len(spec.preprocess_variants)
        side, metric = min(shape), spec.metric_params
        for record in records:
            kernels = []
            if record.preprocess_tag.endswith("noise=gaussian"):
                kernels.append(spec.preprocess_variants[0].gaussian_kernel_size)
            if record.algorithm == "canny" and spec.canny_params.smoothing:
                kernels.append(spec.canny_params.smooth_kernel_size)
            if max(kernels, default=0) > side:
                expected = "KernelTooLarge"
            elif max(metric.ssim_window, metric.uqi_window) > side:
                expected = "WindowError"
            else:
                expected = ""
            assert record.error.partition(":")[0] == expected, record

    def test_toolkit_bug_propagates(self, small_corpus, monkeypatch):
        # only a CoastEdgeError is a data fault: numpy's own ValueError is a bug too
        for bug in (TypeError("a bug, not a data fault"), ValueError("operands could not be broadcast")):

            def broken_detect(band, algorithm, params):
                raise bug

            monkeypatch.setattr(harness, "detect", broken_detect)
            with pytest.raises(type(bug), match=str(bug)):
                run_experiment(small_corpus, ExperimentSpec.for_kind("table1"))

    def test_preprocess_fault_gives_one_record_per_algorithm(self, tmp_path):
        manifest = generate_corpus(1, SynthSpec(size=24, seed=3, noise_sigma=100), tmp_path)
        spec = ExperimentSpec.for_kind("table1", base=PreprocessSpec(gaussian_kernel_size=31))
        result = run_experiment(manifest, spec)
        assert len(result.records) == 12 * 4
        assert all(r.error.startswith("KernelTooLarge: ") for r in result.records)


def independence_scene(tmp_path, size=48):
    """A noisy scene whose stack holds a constant band, an all-zero band, and
    a band whose strong edge runs over another band's weak one, on disk."""
    scene = generate_scene(SynthSpec(size=size, seed=21, boundary="halfplane", noise_sigma=300.0))
    stack = scene.stack.copy()
    stack[0] = 500.0
    stack[1] = 0.0
    stack[2] = 0.0
    stack[2][:, size // 2 :] = 4000.0
    stack[3] = 0.0
    stack[3][:, size // 5 :] = 4000.0
    stack[3][:, size // 2 :] += 1200.0
    entry = {"id": scene.id, "image": "image.npy", "label": "label.npy"}
    write_npy(np.moveaxis(stack, 0, -1).astype(np.uint16), tmp_path / "image.npy")
    write_npy(scene.label.values, tmp_path / "label.npy")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"band_order": [b.value for b in BandName], "images": [entry]}))
    return manifest


class TestBandIndependence:
    """Every stage treats each band of a stack on its own: a band in a stack
    or chunk gives what it gives alone, as a 1-band stack."""

    @pytest.mark.parametrize("size", [48, 64])
    def test_planes_equal_one_band_stacks(self, tmp_path, size):
        manifest = independence_scene(tmp_path, size)
        scene = load_scene(load_manifest(manifest)[0])
        per_chunk = max(1, harness._CHUNK_PIXELS // size**2)
        if size == 48:  # the harness splits the 12 bands into chunks of unequal size
            assert 12 % per_chunk
        chunks = [scene.stack, scene.stack[:per_chunk], scene.stack[per_chunk:]]
        variants = {v for kind in GRIDS for v in ExperimentSpec.for_kind(kind).preprocess_variants}
        for variant in variants:
            alone = [run_pipeline(scene.stack[i : i + 1], variant) for i in range(12)]
            processed = [run_pipeline(chunk, variant) for chunk in chunks]
            np.testing.assert_array_equal(processed[0], np.concatenate(alone))
            np.testing.assert_array_equal(np.concatenate(processed[1:]), processed[0])
            for algorithm in ALGORITHMS:
                edges = detect(processed[0], algorithm)
                for i, plane in enumerate(alone):
                    np.testing.assert_array_equal(edges[i], detect(plane, algorithm)[0])
                chunked = [detect(p, algorithm) for p in processed[1:]]
                np.testing.assert_array_equal(np.concatenate(chunked), edges)

    def test_records_equal_one_band_runs(self, tmp_path):
        manifest = independence_scene(tmp_path)
        scene = load_scene(load_manifest(manifest)[0])
        reference = PreparedReference(derive_reference(scene.label), MetricParams())
        for kind in GRIDS:
            spec = ExperimentSpec.for_kind(kind)
            expected = []
            for i, band in enumerate(BandName):
                for algorithm in spec.algorithms:
                    for variant in spec.preprocess_variants:
                        edges = detect(run_pipeline(scene.stack[i : i + 1], variant), algorithm)
                        key = (scene.id, band.value, algorithm, variant.tag)
                        expected.append(run_cell(key, reference, edges[0]))
            records = run_experiment(manifest, spec).records
            assert records == expected, kind
            assert not any(r.error for r in records)

    def test_detection_fault_gives_one_record_per_band(self, tmp_path):
        manifest = independence_scene(tmp_path)
        spec = ExperimentSpec.for_kind("table1", canny_params=CannyParams(smooth_kernel_size=51))
        records = run_experiment(manifest, spec).records
        failed = [r for r in records if r.error]
        assert [r.band_name for r in failed] == [b.value for b in BandName]
        assert all(r.algorithm == "canny" for r in failed)
        assert {r.error for r in failed} == {"KernelTooLarge: kernel 51 larger than image (48, 48)"}


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

    @pytest.mark.parametrize("scenes, workers, pool_size", [(4, 8, 4), (4, 2, 2), (1, 2, None)])
    def test_pool_has_no_more_workers_than_scenes(
        self, small_corpus, tmp_path, monkeypatch, scenes, workers, pool_size
    ):
        sizes = []

        class RecordingPool:
            """Runs the map in this process and records the pool size asked for."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        manifest = json.loads(small_corpus.read_text())
        manifest["images"] = load_manifest(small_corpus)[:scenes]  # absolute paths
        trimmed = tmp_path / "manifest.json"
        trimmed.write_text(json.dumps(manifest))
        monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        result = run_experiment(trimmed, ExperimentSpec.for_kind("noise_ablation", worker_count=workers))
        assert sizes == ([] if pool_size is None else [pool_size])
        assert len(result.records) == scenes * 12 * 3

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


class TestOnePass:
    """`run_experiments` scores several grids in one pass over the corpus."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_equals_one_run_per_spec(self, small_corpus, workers):
        specs = [ExperimentSpec.for_kind(kind, worker_count=workers) for kind in GRIDS]
        together = run_experiments(small_corpus, specs)
        assert [r.spec for r in together] == specs
        for result, spec in zip(together, specs):
            alone = run_experiment(small_corpus, spec)
            assert result.records == alone.records
            assert result.aggregate_rows == alone.aggregate_rows
            assert result.provenance == alone.provenance

    def test_shared_work_is_done_once(self, small_corpus, monkeypatch):
        entries = load_manifest(small_corpus)
        per_chunk = max(1, harness._CHUNK_PIXELS // load_scene(entries[0]).label.values.size)
        chunks = -(-12 // per_chunk)
        calls = {"load_scene": 0, "run_pipeline": 0, "run_cell": 0}
        for name in calls:
            original = getattr(harness, name)

            def counted(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(harness, name, counted)
        run_experiments(small_corpus, [ExperimentSpec.for_kind(kind) for kind in GRIDS])
        scenes = len(entries)
        # 4 variants, eq=on,noise=gaussian being in all three grids, not 6; and
        # 7 cells a band (table1's 4, 1 more of the equalization ablation's and
        # 2 more of the noise ablation's), not 9
        assert calls == {"load_scene": scenes, "run_pipeline": scenes * chunks * 4, "run_cell": scenes * 12 * 7}

    def test_mixed_parameters_are_refused(self, small_corpus):
        specs = [
            ExperimentSpec.for_kind("table1"),
            ExperimentSpec.for_kind("noise_ablation", canny_params=CannyParams(low_threshold=30.0)),
        ]
        with pytest.raises(ParamError, match="share every parameter"):
            run_experiments(small_corpus, specs)


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
        # a mean that rounds to zero prints 0, never -0
        assert format_mean_std(-0.04, 0.01) == "0 ± 0.01"
        assert format_mean_std(-0.0, 0.0) == "0 ± 0"
        assert format_mean_std(-0.26, 0.01) == "-0.3 ± 0.01"

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
        emit_report(result, tmp_path / "out")
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert names == ["aggregates.csv", "provenance.json", "records.csv", "table1.md"]
        with open(tmp_path / "out" / "aggregates.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(AGGREGATE_COLUMNS)
        assert len(rows) == 1 + 12 * 4 * 4

    def test_ablation_plotdata(self, small_corpus, tmp_path):
        result = run_experiment(small_corpus, ExperimentSpec.for_kind("equalization_ablation"))
        emit_report(result, tmp_path / "out")
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert names == ["aggregates.csv", "fig5_equalization.csv", "provenance.json", "records.csv"]
        plot = tmp_path / "out" / "fig5_equalization.csv"
        with open(plot, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["band", "eq=on,noise=gaussian", "eq=off,noise=gaussian"]
        assert len(rows) == 13
        assert all(len(row) == 3 for row in rows)

    def test_provenance_names_the_preprocessing_params(self, small_corpus, tmp_path):
        base = PreprocessSpec(equalize=False, noise_reduction="none", gaussian_kernel_size=7, closing_element=5)
        result = run_experiment(small_corpus, ExperimentSpec.for_kind("noise_ablation", base=base))
        emit_report(result, tmp_path / "out")
        provenance = json.loads((tmp_path / "out" / "provenance.json").read_text())
        # each variant's own equalization and noise reduction, with the base's sizes
        assert provenance["preprocess_params"] == [
            {"equalize": True, "noise_reduction": noise, "gaussian_kernel_size": 7,
             "gaussian_sigma": 1.0, "closing_element": 5}
            for noise in ("none", "gaussian", "closing")
        ]  # fmt: skip
        assert provenance["preprocess_variants"] == result.spec.variant_tags

    @pytest.mark.parametrize("name", ["provenance.json", "table1.md"])
    def test_unwritable_file_is_io_error(self, small_corpus, tmp_path, name):
        result = run_experiment(small_corpus, ExperimentSpec.for_kind("table1"))
        (tmp_path / "out" / name).mkdir(parents=True)
        with pytest.raises(IoError, match=f"cannot write .*{name}"):
            emit_report(result, tmp_path / "out")
