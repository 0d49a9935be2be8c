"""Edge detection tests, checked against the nested-loop convolution oracle."""

import numpy as np
import pytest

from coastedge.edgedetect import (
    KERNELS,
    PREWITT,
    SCHARR,
    SOBEL,
    CannyParams,
    _direction_sector,
    _separable_gradients,
    canny,
    canny_debug,
    detect,
    gradient_field,
    gradient_magnitude,
    magnitude_to_edgemap,
)
from coastedge.errors import ParamError
from coastedge.preprocess import PreprocessSpec, blur_array, run_pipeline
from coastedge.synth import SynthSpec, generate_scene

from oracles import convolve2d_loops, hysteresis_bfs, nms_loops


def band_of(values):
    return np.asarray(values, dtype=np.float64)


def step_band(size=16, value=255.0):
    samples = np.zeros((size, size))
    samples[:, size // 2 :] = value
    return band_of(samples)


class TestKernels:
    def test_gy_is_transpose_and_zero_sum(self):
        for pair in (SOBEL, SCHARR, PREWITT):
            np.testing.assert_array_equal(pair.gy, pair.gx.T)
            assert pair.gx.sum() == 0
            assert pair.gy.sum() == 0

    def test_stated_sobel_rows(self):
        np.testing.assert_array_equal(SOBEL.gx, [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]])
        np.testing.assert_array_equal(SCHARR.gx, [[-3, 0, 3], [-10, 0, 10], [-3, 0, 3]])
        np.testing.assert_array_equal(PREWITT.gx, [[-1, 0, 1], [-1, 0, 1], [-1, 0, 1]])


class TestGradientField:
    def test_vertical_step_peak(self):
        band = step_band(16)
        field = gradient_field(band, SOBEL)
        # peak on the two columns adjacent to the step, value 4*255, direction 0
        for col in (7, 8):
            np.testing.assert_allclose(field.magnitude[5, col], 4 * 255.0)
            np.testing.assert_allclose(field.direction[5, col], 0.0, atol=1e-12)
        np.testing.assert_allclose(field.magnitude[:, :6], 0.0, atol=1e-9)

    def test_constant_zero_magnitude(self):
        field = gradient_field(band_of(np.full((8, 8), 120.0)), SCHARR)
        np.testing.assert_allclose(field.magnitude, 0.0, atol=1e-9)

    def test_diagonal_step_direction(self):
        size = 16
        rows, cols = np.mgrid[0:size, 0:size]
        samples = np.where(cols - rows > 0, 255.0, 0.0)
        field = gradient_field(band_of(samples), SOBEL)
        edge = np.abs(cols - rows) <= 1
        interior = edge & (rows > 1) & (rows < size - 2) & (cols > 1) & (cols < size - 2)
        np.testing.assert_allclose(
            np.abs(field.direction[interior]), np.pi / 4, atol=1e-9
        )

    def test_rotation_consistency(self, rng):
        image = rng.integers(0, 256, size=(10, 10)).astype(float)
        band = band_of(image)
        rotated = band_of(np.rot90(image).copy())
        mag = gradient_field(band, SOBEL).magnitude
        mag_rot = gradient_field(rotated, SOBEL).magnitude
        np.testing.assert_allclose(mag_rot, np.rot90(mag), atol=1e-9)

    def test_ramp_response_ratios(self):
        # all three gx kernels respond per unit slope with their total weight
        ramp = np.tile(np.arange(16, dtype=float), (16, 1))
        band = band_of(ramp)
        responses = {
            name: gradient_field(band, pair).magnitude[8, 8]
            for name, pair in KERNELS.items()
        }
        np.testing.assert_allclose(responses["sobel"], 8.0)
        np.testing.assert_allclose(responses["scharr"], 32.0)
        np.testing.assert_allclose(responses["prewitt"], 6.0)


class TestGradientMagnitude:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_equals_gradient_field_on_integer_bands(self, rng, name):
        for size in (3, 7, 24):
            band = band_of(rng.integers(0, 256, size=(size, size + 1)))
            np.testing.assert_array_equal(
                gradient_magnitude(band, KERNELS[name]),
                gradient_field(band, KERNELS[name]).magnitude,
            )


def integer_images(rng):
    """Integer-valued test bands: dense 8-bit and 16-bit, sparse 0/255, a step."""
    for shape in ((3, 3), (3, 8), (7, 5), (24, 25), (64, 64)):
        yield rng.integers(0, 256, size=shape).astype(float)
        yield rng.integers(0, 65536, size=shape).astype(float)
        yield np.where(rng.random(shape) < 0.05, 255.0, 0.0)
        step = np.zeros(shape)
        step[:, shape[1] // 2 :] = 255.0
        yield step


class TestSeparableGradients:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_equals_convolve2d_bit_for_bit_on_integer_bands(self, rng, name):
        pair = KERNELS[name]
        for image in integer_images(rng):
            gx, gy = _separable_gradients(image, pair)
            # against the nested-loop convolution, byte for byte: signed
            # zeros must agree too (atan2 sees them)
            assert gx.tobytes() == convolve2d_loops(image, pair.gx).tobytes()
            assert gy.tobytes() == convolve2d_loops(image, pair.gy).tobytes()

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_matches_loop_oracle_on_float_input(self, rng, name):
        pair = KERNELS[name]
        for shape in ((3, 3), (5, 9), (8, 8)):
            image = rng.normal(size=shape) * 100
            image -= image.min()
            gx, gy = _separable_gradients(image, pair)
            np.testing.assert_allclose(gx, convolve2d_loops(image, pair.gx), atol=1e-9)
            np.testing.assert_allclose(gy, convolve2d_loops(image, pair.gy), atol=1e-9)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_magnitude_flip_and_transpose_symmetric(self, rng, name):
        # exact on float input, such as Canny's blurred image
        pair = KERNELS[name]
        for _ in range(50):
            image = rng.random((40, 40)) * 255.0
            magnitude = gradient_field(image, pair).magnitude
            for op in (np.fliplr, np.flipud, np.transpose):
                moved = gradient_field(np.ascontiguousarray(op(image)), pair).magnitude
                assert moved.tobytes() == np.ascontiguousarray(op(magnitude)).tobytes(), op

    def test_layout_does_not_change_bits(self, rng):
        image = rng.random((24, 31)) * 255.0
        c_field = gradient_field(np.ascontiguousarray(image), SOBEL)
        f_field = gradient_field(np.asfortranarray(image), SOBEL)
        assert c_field.magnitude.tobytes() == np.ascontiguousarray(f_field.magnitude).tobytes()
        assert c_field.direction.tobytes() == np.ascontiguousarray(f_field.direction).tobytes()

    def test_integer_dtype_input_does_not_wrap(self):
        image = np.zeros((5, 5), dtype=np.uint8)
        image[:, 3:] = 255
        field = gradient_field(image, SOBEL)
        np.testing.assert_array_equal(field.magnitude, gradient_field(band_of(image), SOBEL).magnitude)


def sector_by_remainder(direction):
    """The sector as first written: % 180 and masked assignment."""
    angle = np.rad2deg(direction) % 180.0
    sector = np.zeros_like(angle, dtype=np.int8)
    sector[(angle >= 22.5) & (angle < 67.5)] = 1
    sector[(angle >= 67.5) & (angle < 112.5)] = 2
    sector[(angle >= 112.5) & (angle < 157.5)] = 3
    return sector


class TestDirectionSector:
    def test_dense_sweep(self):
        direction = np.concatenate(
            [np.linspace(-np.pi, np.pi, 1_000_001), [-np.pi, -0.0, 0.0, np.pi]]
        )
        np.testing.assert_array_equal(
            _direction_sector(direction), sector_by_remainder(direction)
        )

    def test_near_every_threshold(self):
        steps = np.arange(-2000, 2001)
        tiny = np.arange(2001).view(np.float64)  # +0 and the smallest subnormals
        nearby = [tiny, -tiny]
        for degrees in (22.5, 67.5, 90.0, 112.5, 157.5, 180.0):
            for sign in (1.0, -1.0):
                bits = np.float64(np.deg2rad(sign * degrees)).view(np.int64)
                nearby.append((bits + steps).view(np.float64))
        direction = np.concatenate(nearby)
        direction = direction[np.abs(direction) <= np.pi]
        np.testing.assert_array_equal(
            _direction_sector(direction), sector_by_remainder(direction)
        )

    def test_integer_gradient_directions(self):
        gy, gx = np.mgrid[-300:301, -300:301].astype(float)
        direction = np.arctan2(gy, gx)
        np.testing.assert_array_equal(
            _direction_sector(direction), sector_by_remainder(direction)
        )


class TestMagnitudeToEdgemap:
    def test_zero_field(self):
        band = band_of(np.full((8, 8), 9.0))
        edge = magnitude_to_edgemap(gradient_field(band, SOBEL).magnitude)
        assert (edge.values == 0).all()
        assert edge.kind == "magnitude"

    def test_unique_max_maps_to_255(self, rng):
        image = rng.integers(0, 200, size=(10, 10)).astype(float)
        image[4, 4] = 30000.0  # dominant spike
        field = gradient_field(band_of(image), SOBEL)
        edge = magnitude_to_edgemap(field.magnitude)
        assert edge.values.max() == 255
        assert edge.values[np.unravel_index(field.magnitude.argmax(), image.shape)] == 255


class TestCanny:
    def test_constant_is_empty(self):
        edge = canny(band_of(np.full((16, 16), 77.0)))
        assert (edge.values == 0).all()
        assert edge.kind == "binary"

    def test_clean_vertical_step_thin_line(self):
        edge = canny(step_band(32), CannyParams())
        cols = np.nonzero(edge.values.any(axis=0))[0]
        # NMS thins the response to the ridge straddling the step
        assert len(cols) in (1, 2)
        assert set(cols) <= {15, 16}
        assert (edge.values[:, cols] == 255).all()

    def test_binary_mask_edges_touch_opposite_class(self, noisy_scene):
        label = noisy_scene.label
        edge = canny(label.values * 255.0, CannyParams(smoothing=False))
        padded = np.pad(label.values, 1, mode="edge")
        for r, c in zip(*np.nonzero(edge.values)):
            window = padded[r : r + 3, c : c + 3]
            assert (window != label.values[r, c]).any()

    def test_structural_invariants(self, noisy_scene):
        from coastedge.preprocess import PreprocessSpec, run_pipeline
        from coastedge.raster import BandName

        params = CannyParams()
        band = run_pipeline(noisy_scene.stack[list(BandName).index(BandName.NIR)], PreprocessSpec())
        edge, debug = canny_debug(band, params)
        on = edge.values == 255
        assert np.isin(edge.values, (0, 255)).all()
        # every edge pixel reaches the low threshold
        assert (debug["normalized_magnitude"][on] >= params.low_threshold).all()
        # weak pixels must be 8-connected to a strong pixel through edge pixels
        from scipy import ndimage

        labels, count = ndimage.label(on, structure=np.ones((3, 3)))
        strong_labels = set(np.unique(labels[debug["strong"]]))
        for lbl in range(1, count + 1):
            assert lbl in strong_labels

    def test_hysteresis_does_not_link_planes(self):
        # plane 0's strong edge lies on the pixels of plane 1's weak edge
        strong = np.zeros((24, 24))
        strong[:, 16:] = 255.0
        weak = np.zeros((24, 24))
        weak[:, 6:] = 255.0
        weak[:, 16:] += 80.0
        stack = band_of([strong, weak])
        edges, debug = canny_debug(stack, CannyParams())
        _, alone = canny_debug(weak, CannyParams())
        column = alone["normalized_magnitude"][:, 16]
        assert ((column >= 50) & (column < 150)).all()
        assert (edges.values[0][:, 16] == 255).all()
        assert (edges.values[1][:, 14:19] == 0).all()
        for plane, got in zip(stack, edges.values):
            np.testing.assert_array_equal(got, canny(plane).values)

    def test_param_validation(self):
        with pytest.raises(ParamError):
            CannyParams(low_threshold=0)
        with pytest.raises(ParamError):
            CannyParams(low_threshold=200, high_threshold=100)
        with pytest.raises(ParamError):
            CannyParams(high_threshold=300)
        for sigma in (0.0, float("nan"), 1e-170):
            with pytest.raises(ParamError, match="smooth_sigma"):
                CannyParams(smooth_sigma=sigma)


def near_tie_stacks():
    """Band stacks of noise-free scenes with development rectangles.

    Neighbouring Canny magnitudes along their blurred straight edges tie or
    differ by less than one ulp, so suppression hangs on `>=` and on which
    neighbours are compared. Each scene gives its preprocessed 12-band stack
    under two variants and its label x 255, the reference's input.
    """
    for boundary in ("halfplane", "blob", "sinusoid"):
        scene = generate_scene(
            SynthSpec(
                size=32, seed=1, boundary=boundary, noise_sigma=0.0,
                sinusoid_amplitude=6.0, sinusoid_period=16.0,
                development_count=2, development_size=6,
            )
        )
        yield run_pipeline(scene.stack, PreprocessSpec())
        yield run_pipeline(scene.stack, PreprocessSpec(equalize=False, noise_reduction="closing"))
        yield scene.label.values[None] * 255.0


# defaults, then non-default --canny-low/high and --canny-smooth-* values
ORACLE_PARAMS = [
    CannyParams(),
    CannyParams(low_threshold=10.0, high_threshold=40.0, smooth_kernel_size=3, smooth_sigma=0.8),
    CannyParams(low_threshold=100.0, high_threshold=101.0, smooth_kernel_size=7, smooth_sigma=2.5),
    CannyParams(low_threshold=1.0, high_threshold=255.0, smoothing=False),
]


class TestCannyOracle:
    """Canny's suppression and hysteresis against the per-pixel oracles.

    The oracles take the toolkit's own gradient field, so a near-tie is
    decided on the same bits; the gradient core has its own oracle above.
    """

    @pytest.mark.parametrize("params", ORACLE_PARAMS, ids=["default", "low", "narrow", "unsmoothed"])
    def test_stack_planes_match_oracles(self, rng, params):
        noisy = rng.integers(0, 256, size=(3, 20, 23)).astype(float)
        for stack in [*near_tie_stacks(), noisy]:
            edges, debug = canny_debug(stack, params)
            for i, plane in enumerate(stack):
                if params.smoothing:
                    plane = blur_array(plane, params.smooth_kernel_size, params.smooth_sigma)
                field = gradient_field(plane, SOBEL)
                nms = nms_loops(field.magnitude, field.direction)
                np.testing.assert_array_equal(debug["nms_mask"][i], nms)
                keep = hysteresis_bfs(field.magnitude, nms, params.low_threshold, params.high_threshold)
                np.testing.assert_array_equal(edges.values[i], np.where(keep, 255, 0))

    def test_oracle_sees_near_ties(self):
        # the near-tie stacks hold nonzero magnitudes equal to their right-hand
        # neighbour's, and ones that differ from it by less than 1e-9
        ties = near = 0
        for stack in near_tie_stacks():
            field = gradient_field(blur_array(stack, 5, 1.4), SOBEL)
            padded = np.pad(field.magnitude, ((0, 0), (0, 0), (1, 1)), mode="edge")
            diff = field.magnitude - padded[..., 2:]
            ties += int(((diff == 0) & (field.magnitude > 0)).sum())
            near += int(((diff != 0) & (np.abs(diff) < 1e-9)).sum())
        assert ties > 0 and near > 0


class TestDetect:
    def test_sobel_dispatch_equals_manual(self, rng):
        band = band_of(rng.integers(0, 256, size=(12, 12)))
        manual = magnitude_to_edgemap(gradient_field(band, SOBEL).magnitude)
        np.testing.assert_array_equal(detect(band, "sobel").values, manual.values)

    def test_kinds(self):
        band = step_band(16)
        assert detect(band, "canny").kind == "binary"
        assert detect(band, "prewitt").kind == "magnitude"

    def test_unknown_algorithm(self):
        with pytest.raises(ParamError):
            detect(step_band(16), "laplacian")
