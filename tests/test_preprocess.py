"""Preprocessing transform tests."""

import numpy as np
import pytest

from coastedge.errors import KernelTooLarge, ParamError
from coastedge.preprocess import (
    PreprocessSpec,
    blur_array,
    equalize_histogram,
    gaussian_blur,
    gaussian_kernel_1d,
    morphological_closing,
    run_pipeline,
    scale_minmax,
    window_sums,
)

from oracles import blur_loops, closing_loops, equalize_loops, window_sums_loops


def band_of(values):
    return np.asarray(values, dtype=np.float64)


def random_scaled8(rng, shape=(16, 16)):
    return band_of(rng.integers(0, 256, size=shape))


class TestScaleMinmax:
    def test_endpoints_and_midpoint(self):
        samples = np.zeros((3, 3))
        samples[0, 0] = 0
        samples[1, 1] = 5000
        samples[2, 2] = 10000
        out = scale_minmax(band_of(samples))
        assert out[0, 0] == 0
        assert out[1, 1] == 128  # round-half-up of 127.5
        assert out[2, 2] == 255
        assert out.dtype == np.float64

    def test_constant_maps_to_zero(self):
        out = scale_minmax(band_of(np.full((5, 5), 777.0)))
        assert (out == 0).all()

    def test_random_hits_both_endpoints(self, rng):
        for _ in range(20):
            samples = rng.integers(0, 60000, size=(9, 9)).astype(float)
            if samples.min() == samples.max():
                continue
            out = scale_minmax(band_of(samples))
            assert out.min() == 0
            assert out.max() == 255
            assert (out >= 0).all() and (out <= 255).all()


class TestEqualizeHistogram:
    def test_constant_unchanged(self):
        band = band_of(np.full((4, 4), 42.0))
        out = equalize_histogram(band)
        np.testing.assert_array_equal(out, band)

    def test_two_level_image(self):
        # cdf(0) = 8 = cdf_min -> 0; cdf(255) = 16 -> 255
        samples = np.concatenate([np.zeros(8), np.full(8, 255.0)]).reshape(4, 4)
        out = equalize_histogram(band_of(samples))
        np.testing.assert_array_equal(out, samples)

    def test_remap_is_monotone(self, rng):
        for _ in range(10):
            band = random_scaled8(rng)
            out = equalize_histogram(band)
            order = np.argsort(band.ravel(), kind="stable")
            remapped = out.ravel()[order]
            assert (np.diff(remapped) >= -1e-12).all()

    def test_skewed_image_gains_contrast(self, rng):
        # dark-skewed image: equalization must spread mass over the full range
        for _ in range(10):
            samples = np.clip(rng.exponential(8.0, size=(32, 32)), 0, 255).round()
            band = band_of(samples)
            out = equalize_histogram(band)
            assert out.std() > band.std()
            assert out.max() == 255


    def test_stack_matches_loop_oracle(self, rng):
        # one bincount serves the stack; each plane must equal its own 256-bin remap
        planes = [
            rng.integers(0, 256, size=(9, 11)),
            rng.integers(100, 103, size=(9, 11)),  # three occupied levels
            np.clip(rng.exponential(8.0, size=(9, 11)), 0, 255).round(),
            np.full((9, 11), 255.0),  # constant: unchanged
            np.zeros((9, 11)),
            np.where(rng.random((9, 11)) < 0.5, 0.0, 255.0),
        ]
        stack = band_of(planes)
        out = equalize_histogram(stack)
        assert out.shape == stack.shape and out.dtype == np.float64
        for plane, got in zip(stack, out):
            np.testing.assert_array_equal(got, equalize_loops(plane))
            np.testing.assert_array_equal(equalize_histogram(plane), got)


class TestGaussianBlur:
    def test_kernel_normalized(self):
        for size, sigma in ((3, 1.0), (5, 1.0), (11, 2.5)):
            assert abs(gaussian_kernel_1d(size, sigma).sum() - 1.0) < 1e-12

    def test_constant_preserved(self):
        band = band_of(np.full((9, 9), 99.0))
        out = gaussian_blur(band, 5, 1.0)
        assert (out == 99).all()

    def test_impulse_center_weight(self):
        samples = np.zeros((9, 9))
        samples[4, 4] = 255.0
        out = gaussian_blur(band_of(samples), 3, 1.0)
        w = np.exp(np.array([-0.5, 0.0, -0.5]))
        w0 = (w / w.sum())[1]
        assert out[4, 4] == np.floor(255.0 * w0 * w0 + 0.5)

    def test_mean_preserved_within_one_level(self, rng):
        for _ in range(10):
            band = random_scaled8(rng)
            out = gaussian_blur(band, 5, 1.0)
            assert abs(out.mean() - band.mean()) <= 1.0

    def test_commutes_with_transpose(self, rng):
        band = random_scaled8(rng, (12, 12))
        out = gaussian_blur(band, 5, 1.2)
        out_t = gaussian_blur(band_of(band.T), 5, 1.2)
        np.testing.assert_array_equal(out.T, out_t)

    def test_tiny_sigma_is_a_one_hot_blur(self, rng):
        # the outer taps' exponents overflow to -inf: weight 0, no warning
        band = random_scaled8(rng, (12, 12))
        np.testing.assert_array_equal(blur_array(band, 5, 1e-160), band)

    def test_kernel_too_large(self):
        with pytest.raises(KernelTooLarge):
            gaussian_blur(band_of(np.zeros((3, 3))), 5, 1.0)
        # a stack's message names the plane's (H, W), as a single band's does
        with pytest.raises(KernelTooLarge, match=r"^kernel 5 larger than image \(4, 6\)$"):
            gaussian_blur(band_of(np.zeros((12, 4, 6))), 5, 1.0)

    @pytest.mark.parametrize("size, sigma", [(3, 0.8), (5, 1.0), (7, 2.5), (9, 1.4)])
    def test_stack_matches_loop_oracle(self, rng, size, sigma):
        stack = band_of(rng.integers(0, 256, size=(3, 10, 13)))
        out = blur_array(stack, size, sigma)
        for plane, got in zip(stack, out):
            np.testing.assert_allclose(got, blur_loops(plane, size, sigma), rtol=0, atol=1e-9)
            assert blur_array(plane, size, sigma).tobytes() == got.tobytes()


def layouts(values):
    """The same values C-ordered, F-ordered and as a strided view into a bigger array."""
    base = np.zeros(values.shape[:-2] + (2 * values.shape[-2], 3 * values.shape[-1]))
    strided = base[..., 1::2, ::3]
    strided[...] = values
    return np.ascontiguousarray(values), np.asfortranarray(values), strided


class TestWindowSums:
    @pytest.mark.parametrize("planes", [(), (1,), (6,), (12,)], ids=["2d", "1", "6", "12"])
    @pytest.mark.parametrize("k", range(2, 14))
    def test_byte_identical_to_loop_oracle(self, rng, planes, k):
        # every size with at least two windows along the last axis (W == k
        # is the documented exception), on real values, where order matters
        kernels = [rng.random(k), np.ones(k)]
        if k % 2:
            kernels.append(gaussian_kernel_1d(k, rng.uniform(0.3, 3.0)))
        for h in range(k, k + 6):
            for w in range(k + 1, k + 7):
                values = rng.normal(size=planes + (h, w)) * 100.0
                for kernel in kernels:
                    want = window_sums_loops(values, kernel)
                    for layout in layouts(values):
                        got = window_sums(layout, kernel)
                        assert got.shape == want.shape
                        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [5, 11])
    def test_chip_sized_stack(self, rng, k):
        values = rng.integers(0, 256, size=(6, 64, 64)).astype(float) ** 2
        kernel = gaussian_kernel_1d(k, 1.5)
        assert window_sums(values, kernel).tobytes() == window_sums_loops(values, kernel).tobytes()

    def test_integer_sums_exact_at_width_k(self, rng):
        # the W == k exception changes nothing where every partial sum is exact
        values = rng.integers(0, 256, size=(3, 20, 8)).astype(float)
        np.testing.assert_array_equal(
            window_sums(values, np.ones(8)), window_sums_loops(values, np.ones(8))
        )


class TestMorphologicalClosing:
    def test_constant_unchanged(self):
        band = band_of(np.full((6, 6), 40.0))
        np.testing.assert_array_equal(morphological_closing(band), band)

    def test_fills_dark_speck(self):
        samples = np.full((7, 7), 255.0)
        samples[3, 3] = 0.0
        out = morphological_closing(band_of(samples), 3)
        assert out[3, 3] == 255

    def test_idempotent(self, rng):
        for _ in range(10):
            band = random_scaled8(rng)
            once = morphological_closing(band, 3)
            twice = morphological_closing(once, 3)
            np.testing.assert_array_equal(once, twice)

    def test_extensive(self, rng):
        band = random_scaled8(rng)
        out = morphological_closing(band, 3)
        assert (out >= band).all()

    def test_commutes_with_transpose(self, rng):
        band = random_scaled8(rng, (10, 14))
        out = morphological_closing(band, 3)
        out_t = morphological_closing(band_of(band.T), 3)
        np.testing.assert_array_equal(out.T, out_t)

    @pytest.mark.parametrize("size", (3, 5, 7))
    def test_matches_loop_oracle(self, rng, size):
        samples = rng.integers(0, 256, size=(11, 13)).astype(float)
        out = morphological_closing(band_of(samples), size)
        np.testing.assert_array_equal(out, closing_loops(samples, size))


class TestPipeline:
    def test_scale_only(self, rng):
        band = band_of(rng.integers(0, 10000, size=(8, 8)))
        spec = PreprocessSpec(equalize=False, noise_reduction="none")
        np.testing.assert_array_equal(
            run_pipeline(band, spec), scale_minmax(band)
        )

    def test_matches_manual_composition(self, rng):
        band = band_of(rng.integers(0, 10000, size=(12, 12)))
        spec = PreprocessSpec(equalize=True, noise_reduction="gaussian")
        manual = gaussian_blur(equalize_histogram(scale_minmax(band)), 5, 1.0)
        np.testing.assert_array_equal(run_pipeline(band, spec), manual)

    def test_closing_variant(self, rng):
        band = band_of(rng.integers(0, 10000, size=(12, 12)))
        spec = PreprocessSpec(equalize=True, noise_reduction="closing")
        manual = morphological_closing(equalize_histogram(scale_minmax(band)), 3)
        np.testing.assert_array_equal(run_pipeline(band, spec), manual)

    def test_spec_validation(self):
        with pytest.raises(ParamError):
            PreprocessSpec(gaussian_kernel_size=4)
        for sigma in (0.0, -1.0, float("nan"), 1e-170):
            with pytest.raises(ParamError, match="gaussian_sigma"):
                PreprocessSpec(gaussian_sigma=sigma)
        with pytest.raises(ParamError):
            PreprocessSpec(closing_element=2)
        with pytest.raises(ParamError):
            PreprocessSpec(noise_reduction="median")

    def test_tags(self):
        assert PreprocessSpec().tag == "eq=on,noise=gaussian"
        assert PreprocessSpec(equalize=False, noise_reduction="none").tag == "eq=off,noise=none"
