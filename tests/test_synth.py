"""Synthetic scene generator tests."""

import numpy as np
import pytest

from coastedge.edgedetect import CannyParams, canny
from coastedge.errors import ParamError
from coastedge.raster import BandName, load_manifest, load_scene
from coastedge.synth import (
    CLASS_MEANS,
    DEVELOPMENT_INTENSITY,
    SynthSpec,
    boundary_columns,
    generate_corpus,
    generate_scene,
    make_label,
)

NIR = list(BandName).index(BandName.NIR)


class TestSpecValidation:
    def test_bad_boundary(self):
        with pytest.raises(ParamError):
            SynthSpec(boundary="spiral")

    def test_bad_size(self):
        with pytest.raises(ParamError):
            SynthSpec(size=8)

    def test_bad_contrast(self):
        with pytest.raises(ParamError):
            SynthSpec(contrast=0.0)
        with pytest.raises(ParamError):
            SynthSpec(contrast=1.5)

    def test_negative_noise(self):
        with pytest.raises(ParamError):
            SynthSpec(noise_sigma=-1.0)

    def test_spec_is_hashable(self):
        # a frozen spec of plain values: equal specs hash alike
        assert hash(SynthSpec(size=32, seed=4)) == hash(SynthSpec(size=32, seed=4))


class TestLabels:
    def test_halfplane_split(self):
        spec = SynthSpec(size=32, boundary="halfplane")
        label = make_label(spec)
        assert (label.values[:, :16] == 0).all()
        assert (label.values[:, 16:] == 1).all()

    def test_sinusoid_matches_columns(self):
        spec = SynthSpec(size=64, boundary="sinusoid", sinusoid_amplitude=10)
        label = make_label(spec)
        first_water = boundary_columns(spec)
        for row in range(64):
            found = np.nonzero(label.values[row])[0][0]
            assert found == first_water[row]

    def test_blob_is_binary_with_both_classes(self):
        label = make_label(SynthSpec(size=48, boundary="blob"))
        assert set(np.unique(label.values)) == {0, 1}


class TestGenerateScene:
    def test_deterministic(self):
        spec = SynthSpec(size=32, seed=9, noise_sigma=200)
        a = generate_scene(spec)
        b = generate_scene(spec)
        assert a.id == b.id == "synth_000009"
        assert a.stack.shape == (12, 32, 32)
        np.testing.assert_array_equal(a.stack, b.stack)

    def test_seed_changes_noise(self):
        a = generate_scene(SynthSpec(size=32, seed=1, noise_sigma=200))
        b = generate_scene(SynthSpec(size=32, seed=2, noise_sigma=200))
        assert (a.stack[NIR] != b.stack[NIR]).any()

    def test_zero_noise_class_means(self):
        spec = SynthSpec(size=32, seed=0, boundary="halfplane", noise_sigma=0)
        scene = generate_scene(spec)
        land = scene.label.values == 0
        for name, samples in zip(BandName, scene.stack):
            land_mean, water_mean = CLASS_MEANS[name]
            assert (samples[land] == land_mean).all()
            assert (samples[~land] == water_mean).all()

    def test_contrast_compresses_about_midpoint(self):
        full = generate_scene(
            SynthSpec(size=32, boundary="halfplane", noise_sigma=0, contrast=1.0)
        )
        half = generate_scene(
            SynthSpec(size=32, boundary="halfplane", noise_sigma=0, contrast=0.5)
        )
        nir_full = full.stack[NIR]
        nir_half = half.stack[NIR]
        mid = 0.5 * (3200.0 + 450.0)
        gap_full = nir_full.max() - nir_full.min()
        gap_half = nir_half.max() - nir_half.min()
        assert abs(gap_half - 0.5 * gap_full) <= 1.0
        assert abs(nir_half.mean() - mid) <= 1.0

    def test_development_rectangles_on_land(self):
        spec = SynthSpec(
            size=64, seed=3, boundary="sinusoid", noise_sigma=0,
            development_count=3, development_size=6,
        )
        scene = generate_scene(spec)
        samples = scene.stack[list(BandName).index(BandName.BLUE)]
        bright = samples == DEVELOPMENT_INTENSITY
        assert bright.sum() >= 3 * 6 * 6 * 0.5  # rectangles may overlap
        assert (scene.label.values[bright] == 0).all()

    def test_values_in_raw16_range(self):
        scene = generate_scene(SynthSpec(size=32, seed=4, noise_sigma=3000))
        assert scene.stack.min() >= 0 and scene.stack.max() <= 65535
        np.testing.assert_array_equal(scene.stack, np.round(scene.stack))

    def test_zero_noise_canny_tracks_boundary(self):
        from coastedge.preprocess import PreprocessSpec, run_pipeline

        spec = SynthSpec(size=48, seed=0, boundary="halfplane", noise_sigma=0)
        scene = generate_scene(spec)
        band = run_pipeline(scene.stack[NIR], PreprocessSpec(equalize=False, noise_reduction="none"))
        edge = canny(band, CannyParams(smoothing=False))
        cols = np.nonzero(edge.any(axis=0))[0]
        boundary = boundary_columns(spec)[0]
        assert len(cols) >= 1
        assert all(abs(c - boundary) <= 1 for c in cols)


class TestGenerateCorpus:
    def test_layout_and_loadability(self, tmp_path):
        spec = SynthSpec(size=24, seed=40, noise_sigma=100)
        manifest_path = generate_corpus(3, spec, tmp_path / "corpus")
        entries = load_manifest(manifest_path)
        assert [e["id"] for e in entries] == [
            "synth_000040", "synth_000041", "synth_000042"
        ]
        scene = load_scene(entries[1])
        regenerated = generate_scene(SynthSpec(size=24, seed=41, noise_sigma=100))
        np.testing.assert_array_equal(scene.stack, regenerated.stack)
        np.testing.assert_array_equal(scene.label.values, regenerated.label.values)

    def test_regeneration_is_byte_identical(self, tmp_path):
        spec = SynthSpec(size=24, seed=7, noise_sigma=150)
        first = generate_corpus(2, spec, tmp_path / "a")
        second = generate_corpus(2, spec, tmp_path / "b")
        for name in sorted(p.name for p in first.parent.iterdir()):
            assert (first.parent / name).read_bytes() == (
                second.parent / name
            ).read_bytes(), name

    def test_zero_count_rejected(self, tmp_path):
        with pytest.raises(ParamError):
            generate_corpus(0, SynthSpec(size=24), tmp_path)
