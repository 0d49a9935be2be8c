"""Preprocessing transform tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coastedge.errors import KernelTooLarge, ParamError
from coastedge.preprocess import (
    PreprocessSpec,
    blur_array,
    equalize_histogram,
    gaussian_blur,
    gaussian_kernel_1d,
    morphological_closing,
    pad_edges,
    run_pipeline,
    scale_minmax,
    transposed_window_sums,
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
        # every size from one window along each axis (W == k too), on real
        # values, where order matters
        kernels = [rng.random(k), np.ones(k)]
        if k % 2:
            kernels.append(gaussian_kernel_1d(k, rng.uniform(0.3, 3.0)))
        for h in range(k, k + 6):
            for w in range(k, k + 7):
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

    @pytest.mark.parametrize("planes", [(), (6,)], ids=["2d", "6"])
    @pytest.mark.parametrize("k", [2, 5, 8, 11])
    def test_transposed_entry_point_keeps_the_bits(self, rng, planes, k):
        # a caller's own C-ordered transposed copy gives window_sums' bits
        kernels = [rng.random(k), np.ones(k)]
        if k % 2:
            kernels.append(gaussian_kernel_1d(k, 1.5))
        for h, w in ((k, k + 1), (k + 3, k + 5), (24, 31)):
            values = rng.normal(size=planes + (h, w)) * 100.0
            transposed = np.ascontiguousarray(values.swapaxes(-1, -2))
            for kernel in kernels:
                got = transposed_window_sums(transposed, kernel)
                assert got.tobytes() == window_sums(values, kernel).tobytes()
                assert got.tobytes() == window_sums_loops(values, kernel).tobytes()

    @pytest.mark.parametrize("k", [2, 5, 11])
    def test_view_with_an_offset_keeps_the_bits(self, rng, k):
        # a C-ordered view that starts inside its buffer: rows of a bigger
        # plane, and a slice of a 12-plane stack
        big = rng.normal(size=(2 * k + 4, k + 6)) * 100.0
        stack = rng.normal(size=(12, k + 6, k + 3)) * 100.0
        for transposed in (big[1:], big[3:-2], stack[1:], stack[5:9]):
            assert transposed.flags.c_contiguous and transposed.base is not None
            image = transposed.swapaxes(-1, -2)
            for kernel in (rng.random(k), np.ones(k)):
                got = transposed_window_sums(transposed, kernel)
                assert got.tobytes() == window_sums_loops(image, kernel).tobytes()

    @pytest.mark.parametrize("planes", [(), (3,)], ids=["2d", "3"])
    @pytest.mark.parametrize("k", [2, 5, 8])
    def test_window_as_long_as_the_plane_gives_one_window(self, rng, planes, k):
        # one window along the rows, the columns or both
        for shape in ((k, k + 4), (k + 4, k), (k, k)):
            values = rng.integers(0, 256, size=planes + shape).astype(float)
            got = window_sums(values, np.ones(k))
            assert got.shape == planes + (shape[0] - k + 1, shape[1] - k + 1)
            np.testing.assert_array_equal(got, window_sums_loops(values, np.ones(k)))

    @pytest.mark.parametrize("k", range(2, 18))
    def test_plane_zero_outside_a_box_sums_as_its_crop(self, rng, k):
        # a window of zeros sums to +0, and one with a nonzero sample lies in
        # the box widened by k - 1, where it adds the same taps in the same
        # order: zeros with the crop's sums at the crop's outputs are the
        # plane's sums, byte for byte (the reference box in `metrics`)
        kernels = [np.ones(k), rng.random(k)]
        if k % 2:
            kernels.append(gaussian_kernel_1d(k, 1.5))
        for h, w in ((k, k), (k, k + 3), (k + 6, k + 1), (2 * k + 5, 3 * k)):
            third_h, third_w = max(h // 3, 1), max(w // 3, 1)
            boxes = [
                (slice(0, third_h), slice(0, third_w)),
                (slice(0, third_h), slice(w - third_w, w)),
                (slice(h - third_h, h), slice(0, third_w)),
                (slice(h - third_h, h), slice(w - third_w, w)),
                (slice(0, 1), slice(0, w)),
                (slice(h - 1, h), slice(0, w)),
                (slice(0, h), slice(0, 1)),
                (slice(0, h), slice(w - 1, w)),
                (slice(h // 2, h // 2 + 1), slice(w // 2, w // 2 + 1)),
                (slice(0, h), slice(0, w)),
            ]
            for rows, cols in boxes:
                values = np.zeros((h, w))
                inside = values[rows, cols]
                # real values, exact cancellations and signed zeros inside the box
                inside[...] = np.where(
                    rng.random(inside.shape) < 0.5,
                    rng.normal(size=inside.shape) * 100.0,
                    rng.integers(-2, 3, size=inside.shape),
                )
                inside[rng.random(inside.shape) < 0.2] = -0.0
                crop_rows = slice(max(rows.start - k + 1, 0), min(rows.stop + k - 1, h))
                crop_cols = slice(max(cols.start - k + 1, 0), min(cols.stop + k - 1, w))
                for kernel in kernels:
                    want = np.zeros((h - k + 1, w - k + 1))
                    want[crop_rows.start : crop_rows.stop - k + 1, crop_cols.start : crop_cols.stop - k + 1] = (
                        window_sums(values[crop_rows, crop_cols], kernel)
                    )
                    assert window_sums(values, kernel).tobytes() == want.tobytes(), (h, w, rows, cols)

    @pytest.mark.parametrize("planes", [(), (3,)], ids=["2d", "3"])
    @pytest.mark.parametrize("excess", [1, 2, 4])
    def test_window_longer_than_the_plane_is_refused(self, rng, planes, excess):
        # one pixel too short gives an empty window view; it must raise, not
        # give an empty array
        k = 5
        for shape in ((k - excess, k + 4), (k + 4, k - excess)):
            values = rng.normal(size=planes + shape)
            with pytest.raises(ValueError, match="window 5 longer"):
                window_sums(values, np.ones(k))
            with pytest.raises(ValueError, match="window 5 longer"):
                transposed_window_sums(np.ascontiguousarray(values.swapaxes(-1, -2)), np.ones(k))

    def test_transposed_entry_point_refuses_other_layouts(self, rng):
        values = rng.normal(size=(3, 12, 9))
        for layout in layouts(values)[1:] + (values.swapaxes(-1, -2),):
            with pytest.raises(ValueError, match="C-ordered"):
                transposed_window_sums(layout, np.ones(3))

    def test_integer_sums_exact_at_width_k(self, rng):
        # the W == k exception changes nothing where every partial sum is exact
        values = rng.integers(0, 256, size=(3, 20, 8)).astype(float)
        np.testing.assert_array_equal(
            window_sums(values, np.ones(8)), window_sums_loops(values, np.ones(8))
        )


class TestPadEdges:
    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    @pytest.mark.parametrize("planes", [(), (1,), (4,)], ids=["2d", "1", "4"])
    def test_matches_edge_mode_pad(self, rng, dtype, planes):
        for width in range(1, 7):
            for h in range(1, 10):
                for w in range(1, 8):
                    if dtype is np.uint8:
                        image = rng.integers(0, 256, size=planes + (h, w)).astype(np.uint8)
                    else:
                        image = rng.normal(size=planes + (h, w)) * 100.0
                    pads = [(0, 0)] * len(planes) + [(width, width)] * 2
                    want = np.pad(image, pads, mode="edge").astype(np.float64)
                    got = pad_edges(image, width)
                    assert got.dtype == np.float64
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (width, h, w)

    def test_other_layouts(self, rng):
        values = rng.normal(size=(2, 9, 7))
        want = np.pad(values, [(0, 0), (2, 2), (2, 2)], mode="edge")
        for layout in layouts(values):
            assert pad_edges(layout, 2).tobytes() == want.tobytes()


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


@st.composite
def preprocess_cases(draw):
    """PreprocessSpec windows and sigma from the whole range its validator
    accepts, and a small stack of 8-bit levels the blur kernel fits in. The
    other fields only pick which of the stages tested here run."""
    spec = PreprocessSpec(
        gaussian_kernel_size=2 * draw(st.integers(1, 4)) + 1,
        # every sigma > 0 whose square is above 0, infinity included
        gaussian_sigma=draw(st.floats(min_value=0.0, exclude_min=True).filter(lambda s: s * s > 0)),
        # up to 17, longer than any side drawn here: the pad is then wider than the plane
        closing_element=2 * draw(st.integers(1, 8)) + 1,
    )
    least = spec.gaussian_kernel_size
    shape = (draw(st.integers(1, 3)), draw(st.integers(least, least + 6)), draw(st.integers(least, least + 6)))
    # few levels make ties in the histogram and flat closing windows
    levels = draw(st.sampled_from([st.integers(0, 255), st.sampled_from([0, 7, 128, 255])]))
    return spec, draw(hnp.arrays(np.float64, shape, elements=levels.map(float)))


class TestOracleProperties:
    @settings(max_examples=60, deadline=None)
    @given(preprocess_cases())
    @example((PreprocessSpec(gaussian_kernel_size=3, closing_element=9), np.arange(24.0).reshape(2, 3, 4) * 10))
    def test_stages_match_oracles(self, case):
        spec, stack = case
        blurred = blur_array(stack, spec.gaussian_kernel_size, spec.gaussian_sigma)
        equalized = equalize_histogram(stack)
        closed = morphological_closing(stack, spec.closing_element)
        for i, plane in enumerate(stack):
            want = blur_loops(plane, spec.gaussian_kernel_size, spec.gaussian_sigma)
            np.testing.assert_allclose(blurred[i], want, rtol=0, atol=1e-9)
            np.testing.assert_array_equal(equalized[i], equalize_loops(plane))
            np.testing.assert_array_equal(closed[i], closing_loops(plane, spec.closing_element))
