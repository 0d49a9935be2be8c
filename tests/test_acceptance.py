"""End-to-end acceptance suite.

Each test prints one ``criterion N (...): PASS/FAIL`` line. Criterion 5
needs a real 98-chip satellite corpus and is skipped unless the
COASTEDGE_SWED_MANIFEST environment variable points at its manifest.
"""

import contextlib
import os
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

from coastedge.edgedetect import KERNELS, CannyParams, _separable_gradients, canny_debug, derive_reference
from coastedge.harness import ExperimentSpec, run_experiment
from coastedge.metrics import psnr, rmse, ssim, uqi
from coastedge.preprocess import PreprocessSpec, run_pipeline
from coastedge.raster import BandName, load_manifest, load_scene
from coastedge.synth import SynthSpec, generate_corpus, generate_scene

from oracles import GRADIENT_KERNELS, convolve2d_loops, psnr_direct, rmse_direct, ssim_direct, uqi_direct

WORKERS = min(4, os.cpu_count() or 1)


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except Exception:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def corpus(tmp_factory, name: str, n: int, spec: SynthSpec):
    return generate_corpus(n, spec, tmp_factory.mktemp(name))


def mean_psnr_by_band(result, metric="psnr"):
    return {
        (r["band"], r["algorithm"], r["preprocess"]): r["mean"]
        for r in result.aggregate_rows
        if r["metric"] == metric
    }


def test_criterion_1_oracle_equivalence(rng):
    start = time.monotonic()
    with criterion(1, "oracle equivalence"):
        for _ in range(200):
            size = int(rng.integers(12, 33))
            a = rng.integers(0, 256, size=(size, size)).astype(float)
            b = rng.integers(0, 256, size=(size, size)).astype(float)
            assert abs(rmse(a, b) - rmse_direct(a, b)) < 1e-9
            assert abs(psnr(a, b) - psnr_direct(a, b)) < 1e-9
            assert abs(ssim(a, b) - ssim_direct(a, b)) < 1e-6
            assert abs(uqi(a, b) - uqi_direct(a, b)) < 1e-6
        for _ in range(200):
            size = int(rng.integers(12, 33))
            image = np.abs(rng.normal(size=(size, size))) * 200
            for name, matrix in GRADIENT_KERNELS.items():
                gx, gy = _separable_gradients(image, KERNELS[name])
                np.testing.assert_allclose(gx, convolve2d_loops(image, matrix), atol=1e-9)
                np.testing.assert_allclose(gy, convolve2d_loops(image, matrix.T), atol=1e-9)
        assert time.monotonic() - start < 30


def test_criterion_2_canny_structure():
    from scipy import ndimage

    start = time.monotonic()
    params = CannyParams()
    with criterion(2, "canny structural invariants"):
        for seed in range(100):
            sigma = (0.0, 100.0, 300.0, 600.0)[seed % 4]
            boundary = "halfplane" if seed % 2 == 0 else "sinusoid"
            spec = SynthSpec(
                size=48, seed=seed, boundary=boundary,
                sinusoid_amplitude=6.0, sinusoid_period=24.0, noise_sigma=sigma,
            )
            scene = generate_scene(spec)
            band = run_pipeline(scene.stack[list(BandName).index(BandName.NIR)], PreprocessSpec())
            edge, debug = canny_debug(band, params)
            on = edge == 255

            assert np.isin(edge, (0, 255)).all()
            assert (debug["normalized_magnitude"][on] >= params.low_threshold).all()
            labels, count = ndimage.label(on, structure=np.ones((3, 3)))
            strong_labels = set(np.unique(labels[debug["strong"]]))
            assert all(lbl in strong_labels for lbl in range(1, count + 1))

            if sigma == 0.0:
                label = scene.label.values
                transition = np.zeros_like(label, dtype=bool)
                padded = np.pad(label, 1, mode="edge")
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        shifted = padded[1 + dr : 49 + dr, 1 + dc : 49 + dc]
                        transition |= shifted != label
                near_boundary = ndimage.binary_dilation(
                    transition, structure=np.ones((3, 3))
                )
                assert on.sum() > 0
                assert near_boundary[on].all()
        assert time.monotonic() - start < 60


def test_criterion_3_reference_invariant(tmp_path):
    with criterion(3, "reference derivation invariant"):
        manifest = generate_corpus(
            6, SynthSpec(size=64, seed=300, boundary="sinusoid", noise_sigma=200.0), tmp_path
        )
        scenes = [load_scene(entry) for entry in load_manifest(manifest)]
        scenes.append(generate_scene(SynthSpec(size=64, seed=306, boundary="blob")))
        scenes.append(generate_scene(SynthSpec(size=64, seed=307, boundary="halfplane")))
        for scene in scenes:
            label = scene.label.values
            reference = derive_reference(scene.label)
            on = np.nonzero(reference)
            assert len(on[0]) > 0
            padded = np.pad(label, 1, mode="edge")
            for r, c in zip(*on):
                window = padded[r : r + 3, c : c + 3]
                assert (window != label[r, c]).any()


def test_criterion_4_directional_reproduction(tmp_path_factory):
    start = time.monotonic()
    bands = [b.value for b in BandName]
    with criterion(4, "directional reproduction"):
        # (a) per-algorithm mean SSIM ordering on a moderate-noise corpus
        manifest = corpus(
            tmp_path_factory, "ord",
            50, SynthSpec(size=128, seed=0, boundary="halfplane", noise_sigma=600.0),
        )
        result = run_experiment(
            manifest, ExperimentSpec.for_kind("table1", worker_count=WORKERS)
        )
        mean_ssim = {
            algo: statistics.fmean(
                r.ssim for r in result.records if r.algorithm == algo and not r.error
            )
            for algo in ("canny", "sobel", "scharr", "prewitt")
        }
        assert 0.5 <= mean_ssim["canny"] <= 0.8
        assert mean_ssim["canny"] > mean_ssim["prewitt"]
        assert mean_ssim["prewitt"] > mean_ssim["sobel"]
        assert mean_ssim["prewitt"] > mean_ssim["scharr"]

        # (b) equalization helps low-contrast scenes in >= 10 of 12 bands
        manifest = corpus(
            tmp_path_factory, "eq",
            50, SynthSpec(
                size=128, seed=100, boundary="sinusoid", contrast=0.15,
                development_count=3, noise_sigma=20.0,
            ),
        )
        result = run_experiment(
            manifest, ExperimentSpec.for_kind("equalization_ablation", worker_count=WORKERS)
        )
        cells = mean_psnr_by_band(result)
        wins = sum(
            cells[(b, "canny", "eq=on,noise=gaussian")]
            >= cells[(b, "canny", "eq=off,noise=gaussian")]
            for b in bands
        )
        assert wins >= 10

        # (c) gaussian blur beats no noise reduction in >= 10 of 12 bands
        manifest = corpus(
            tmp_path_factory, "noise",
            50, SynthSpec(size=128, seed=200, boundary="halfplane", noise_sigma=1000.0),
        )
        result = run_experiment(
            manifest, ExperimentSpec.for_kind("noise_ablation", worker_count=WORKERS)
        )
        cells = mean_psnr_by_band(result)
        wins = sum(
            cells[(b, "canny", "eq=on,noise=gaussian")]
            > cells[(b, "canny", "eq=on,noise=none")]
            for b in bands
        )
        assert wins >= 10

        assert time.monotonic() - start < 300


@pytest.mark.skipif(
    not os.environ.get("COASTEDGE_SWED_MANIFEST"),
    reason="set COASTEDGE_SWED_MANIFEST to the satellite test-set manifest to run",
)
def test_criterion_5_satellite_corpus():
    manifest = os.environ["COASTEDGE_SWED_MANIFEST"]
    bands = [b.value for b in BandName]
    with criterion(5, "satellite corpus reproduction"):
        result = run_experiment(
            manifest, ExperimentSpec.for_kind("table1", worker_count=WORKERS)
        )
        ssim_cells = mean_psnr_by_band(result, metric="ssim")
        psnr_cells = mean_psnr_by_band(result, metric="psnr")
        tag = "eq=on,noise=gaussian"

        # (a) canny best SSIM everywhere; prewitt best PSNR with canny second
        for band in bands:
            canny_ssim = ssim_cells[(band, "canny", tag)]
            assert all(
                canny_ssim > ssim_cells[(band, algo, tag)]
                for algo in ("sobel", "scharr", "prewitt")
            )
        prewitt_mean = statistics.fmean(psnr_cells[(b, "prewitt", tag)] for b in bands)
        canny_mean = statistics.fmean(psnr_cells[(b, "canny", tag)] for b in bands)
        others = [
            statistics.fmean(psnr_cells[(b, algo, tag)] for b in bands)
            for algo in ("sobel", "scharr")
        ]
        assert prewitt_mean > canny_mean > max(others)

        # (b) CoastalAerosol and WaterVapour rank top-2 by SSIM per algorithm
        for algo in ("canny", "sobel", "scharr", "prewitt"):
            ranked = sorted(bands, key=lambda b: ssim_cells[(b, algo, tag)], reverse=True)
            assert set(ranked[:2]) == {"CoastalAerosol", "WaterVapour"}

        # (c) canny / CoastalAerosol cell values near the published ones
        assert abs(psnr_cells[("CoastalAerosol", "canny", tag)] - 13.2) <= 3.0
        assert abs(ssim_cells[("CoastalAerosol", "canny", tag)] - 0.8) <= 0.15


def test_criterion_6_worker_determinism(tmp_path):
    with criterion(6, "worker-count determinism"):
        cli = [sys.executable, "-m", "coastedge.cli"]
        corpus_dir = tmp_path / "corpus"
        subprocess.run(
            cli + [
                "synth", "--n", "4", "--size", "48", "--seed", "400",
                "--noise-sigma", "250", "--out-dir", str(corpus_dir),
            ],
            check=True, capture_output=True,
        )
        outputs = {}
        for workers in ("1", "8"):
            out_dir = tmp_path / f"w{workers}"
            proc = subprocess.run(
                cli + [
                    "evaluate", "--manifest", str(corpus_dir / "manifest.json"),
                    "--experiment", "table1", "--workers", workers,
                    "--out-dir", str(out_dir),
                ],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs[workers] = (
                (out_dir / "records.csv").read_bytes(),
                (out_dir / "aggregates.csv").read_bytes(),
            )
        assert outputs["1"] == outputs["8"]
