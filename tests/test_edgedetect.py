"""Edge detection tests, checked against the nested-loop convolution oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from coastedge.edgedetect import (
    KERNELS,
    CannyParams,
    _direction_sector,
    _hysteresis,
    _separable_gradients,
    canny,
    canny_debug,
    detect,
    gradient_magnitude,
    magnitude_to_edgemap,
)
from coastedge.errors import ParamError
from coastedge.preprocess import PreprocessSpec, blur_array, run_pipeline
from coastedge.synth import SynthSpec, generate_scene

from oracles import GRADIENT_KERNELS, convolve2d_loops, hysteresis_bfs, nms_loops

SOBEL = KERNELS["sobel"]


def band_of(values):
    return np.asarray(values, dtype=np.float64)


def direction(image, weights):
    """Per-pixel gradient direction, atan2(gy, gx), of a `KERNELS` entry."""
    gx, gy = _separable_gradients(image, weights)
    return np.arctan2(gy, gx)


def step_band(size=16, value=255.0):
    samples = np.zeros((size, size))
    samples[:, size // 2 :] = value
    return band_of(samples)


class TestKernels:
    def test_gy_is_transpose_and_zero_sum(self, rng):
        # gy of an image is gx of its transpose, and a constant image gives 0
        image = rng.integers(0, 256, size=(7, 9)).astype(float)
        for weights in KERNELS.values():
            gx, gy = _separable_gradients(image, weights)
            gx_t, gy_t = _separable_gradients(np.ascontiguousarray(image.T), weights)
            assert gy.tobytes() == np.ascontiguousarray(gx_t.T).tobytes()
            assert gx.tobytes() == np.ascontiguousarray(gy_t.T).tobytes()
            for g in _separable_gradients(np.full((5, 6), 77.0), weights):
                assert (g == 0).all()

    def test_stated_sobel_rows(self):
        # each entry is the right-hand column's (s0, s1) of the textbook kernel
        assert sorted(KERNELS) == sorted(GRADIENT_KERNELS)
        for name, matrix in GRADIENT_KERNELS.items():
            assert KERNELS[name] == (matrix[0, 2], matrix[1, 2])
            np.testing.assert_array_equal(matrix, np.outer(matrix[:, 2], [-1, 0, 1]))


class TestGradientField:
    def test_vertical_step_peak(self):
        band = step_band(16)
        magnitude, angle = gradient_magnitude(band, SOBEL), direction(band, SOBEL)
        # peak on the two columns adjacent to the step, value 4*255, direction 0
        for col in (7, 8):
            np.testing.assert_allclose(magnitude[5, col], 4 * 255.0)
            np.testing.assert_allclose(angle[5, col], 0.0, atol=1e-12)
        np.testing.assert_allclose(magnitude[:, :6], 0.0, atol=1e-9)

    def test_constant_zero_magnitude(self):
        magnitude = gradient_magnitude(band_of(np.full((8, 8), 120.0)), KERNELS["scharr"])
        np.testing.assert_allclose(magnitude, 0.0, atol=1e-9)

    def test_diagonal_step_direction(self):
        size = 16
        rows, cols = np.mgrid[0:size, 0:size]
        samples = np.where(cols - rows > 0, 255.0, 0.0)
        angle = direction(band_of(samples), SOBEL)
        edge = np.abs(cols - rows) <= 1
        interior = edge & (rows > 1) & (rows < size - 2) & (cols > 1) & (cols < size - 2)
        np.testing.assert_allclose(np.abs(angle[interior]), np.pi / 4, atol=1e-9)

    def test_rotation_consistency(self, rng):
        image = rng.integers(0, 256, size=(10, 10)).astype(float)
        band = band_of(image)
        rotated = band_of(np.rot90(image).copy())
        mag = gradient_magnitude(band, SOBEL)
        mag_rot = gradient_magnitude(rotated, SOBEL)
        np.testing.assert_allclose(mag_rot, np.rot90(mag), atol=1e-9)

    def test_ramp_response_ratios(self):
        # all three gx kernels respond per unit slope with their total weight
        ramp = np.tile(np.arange(16, dtype=float), (16, 1))
        band = band_of(ramp)
        responses = {
            name: gradient_magnitude(band, weights)[8, 8]
            for name, weights in KERNELS.items()
        }
        np.testing.assert_allclose(responses["sobel"], 8.0)
        np.testing.assert_allclose(responses["scharr"], 32.0)
        np.testing.assert_allclose(responses["prewitt"], 6.0)


def integer_images(rng):
    """Integer-valued test bands: dense 8-bit and 16-bit, sparse 0/255, a step."""
    for shape in ((3, 3), (3, 8), (7, 5), (24, 25), (64, 64)):
        yield rng.integers(0, 256, size=shape).astype(float)
        yield rng.integers(0, 65536, size=shape).astype(float)
        yield np.where(rng.random(shape) < 0.05, 255.0, 0.0)
        step = np.zeros(shape)
        step[:, shape[1] // 2 :] = 255.0
        yield step


# Sobel gives (gx, gy) = (-361, 361) at row 1, column 0, where np.hypot
# returns 510.53109601668734, 1 ulp above the correctly rounded 510.5310960166873.
HYPOT_OFF = np.array([[0.0, 134.0], [165.0, 0.0]])


def exact_magnitude(image, matrix):
    """sqrt of the exact integer gx**2 + gy**2 of the loop oracle, rounded once."""
    gx = convolve2d_loops(image, matrix)
    gy = convolve2d_loops(image, matrix.T)
    return np.array(
        [[math.sqrt(int(x) ** 2 + int(y) ** 2) for x, y in zip(*rows)] for rows in zip(gx, gy)]
    )


class TestGradientMagnitude:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_equals_gradient_field_on_integer_bands(self, rng, name):
        # the magnitude of the field (gx, gy) that Canny's NMS directions come from
        for size in (3, 7, 24):
            band = band_of(rng.integers(0, 256, size=(size, size + 1)))
            gx, gy = _separable_gradients(band, KERNELS[name])
            np.testing.assert_array_equal(gradient_magnitude(band, KERNELS[name]), np.sqrt(gx * gx + gy * gy))

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_correctly_rounded_on_integer_bands(self, rng, name):
        for image in [HYPOT_OFF, *integer_images(rng)]:
            want = exact_magnitude(image, GRADIENT_KERNELS[name]).tobytes()
            assert gradient_magnitude(image, KERNELS[name]).tobytes() == want
            want_map = magnitude_to_edgemap(exact_magnitude(image, GRADIENT_KERNELS[name]))
            assert detect(image, name).tobytes() == want_map.tobytes()

    def test_hypot_is_one_ulp_off_on_the_pinned_plane(self):
        want = exact_magnitude(HYPOT_OFF, GRADIENT_KERNELS["sobel"])[1, 0]
        gx, gy = _separable_gradients(HYPOT_OFF, SOBEL)
        assert (gx[1, 0], gy[1, 0]) == (-361.0, 361.0)
        assert np.hypot(gx[1, 0], gy[1, 0]) == np.nextafter(want, np.inf)
        assert gradient_magnitude(HYPOT_OFF, SOBEL)[1, 0] == want


class TestSeparableGradients:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_equals_convolve2d_bit_for_bit_on_integer_bands(self, rng, name):
        matrix = GRADIENT_KERNELS[name]
        for image in integer_images(rng):
            gx, gy = _separable_gradients(image, KERNELS[name])
            # against the nested-loop convolution, byte for byte: signed
            # zeros must agree too (atan2 sees them)
            assert gx.tobytes() == convolve2d_loops(image, matrix).tobytes()
            assert gy.tobytes() == convolve2d_loops(image, matrix.T).tobytes()

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_matches_loop_oracle_on_float_input(self, rng, name):
        matrix = GRADIENT_KERNELS[name]
        for shape in ((3, 3), (5, 9), (8, 8)):
            image = rng.normal(size=shape) * 100
            image -= image.min()
            gx, gy = _separable_gradients(image, KERNELS[name])
            np.testing.assert_allclose(gx, convolve2d_loops(image, matrix), atol=1e-9)
            np.testing.assert_allclose(gy, convolve2d_loops(image, matrix.T), atol=1e-9)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_magnitude_flip_and_transpose_symmetric(self, rng, name):
        # exact on float input, such as Canny's blurred image
        weights = KERNELS[name]
        for _ in range(50):
            image = rng.random((40, 40)) * 255.0
            magnitude = gradient_magnitude(image, weights)
            for op in (np.fliplr, np.flipud, np.transpose):
                moved = gradient_magnitude(np.ascontiguousarray(op(image)), weights)
                assert moved.tobytes() == np.ascontiguousarray(op(magnitude)).tobytes(), op

    def test_layout_does_not_change_bits(self, rng):
        image = rng.random((24, 31)) * 255.0
        c_image, f_image = np.ascontiguousarray(image), np.asfortranarray(image)
        c_magnitude, f_magnitude = gradient_magnitude(c_image, SOBEL), gradient_magnitude(f_image, SOBEL)
        assert c_magnitude.tobytes() == np.ascontiguousarray(f_magnitude).tobytes()
        c_angle, f_angle = direction(c_image, SOBEL), direction(f_image, SOBEL)
        assert c_angle.tobytes() == np.ascontiguousarray(f_angle).tobytes()

    def test_integer_dtype_input_does_not_wrap(self):
        image = np.zeros((5, 5), dtype=np.uint8)
        image[:, 3:] = 255
        np.testing.assert_array_equal(gradient_magnitude(image, SOBEL), gradient_magnitude(band_of(image), SOBEL))


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
        edge = magnitude_to_edgemap(gradient_magnitude(band, SOBEL))
        assert edge.dtype == np.uint8
        assert (edge == 0).all()

    def test_unique_max_maps_to_255(self, rng):
        image = rng.integers(0, 200, size=(10, 10)).astype(float)
        image[4, 4] = 30000.0  # dominant spike
        magnitude = gradient_magnitude(band_of(image), SOBEL)
        edge = magnitude_to_edgemap(magnitude)
        assert edge.max() == 255
        assert edge[np.unravel_index(magnitude.argmax(), image.shape)] == 255


class TestCanny:
    def test_constant_is_empty(self):
        edge = canny(band_of(np.full((16, 16), 77.0)))
        assert edge.dtype == np.uint8
        assert (edge == 0).all()

    def test_clean_vertical_step_thin_line(self):
        edge = canny(step_band(32), CannyParams())
        cols = np.nonzero(edge.any(axis=0))[0]
        # NMS thins the response to the ridge straddling the step
        assert len(cols) in (1, 2)
        assert set(cols) <= {15, 16}
        assert (edge[:, cols] == 255).all()

    def test_binary_mask_edges_touch_opposite_class(self, noisy_scene):
        label = noisy_scene.label
        edge = canny(label.values * 255.0, CannyParams(smoothing=False))
        padded = np.pad(label.values, 1, mode="edge")
        for r, c in zip(*np.nonzero(edge)):
            window = padded[r : r + 3, c : c + 3]
            assert (window != label.values[r, c]).any()

    def test_structural_invariants(self, noisy_scene):
        from coastedge.preprocess import PreprocessSpec, run_pipeline
        from coastedge.raster import BandName

        params = CannyParams()
        band = run_pipeline(noisy_scene.stack[list(BandName).index(BandName.NIR)], PreprocessSpec())
        edge, debug = canny_debug(band, params)
        on = edge == 255
        assert np.isin(edge, (0, 255)).all()
        # every strong pixel is an edge pixel
        assert on[debug["strong"]].all()
        # every edge pixel reaches the low threshold
        assert (debug["normalized_magnitude"][on] >= params.low_threshold).all()
        # weak pixels must be 8-connected to a strong pixel through edge pixels
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
        assert (edges[0][:, 16] == 255).all()
        assert (edges[1][:, 14:19] == 0).all()
        for plane, got in zip(stack, edges):
            np.testing.assert_array_equal(got, canny(plane))

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


def assert_planes_match_oracles(stack, params):
    """Each plane's NMS mask and edges from one Canny call on the stack equal the oracles'."""
    edges, debug = canny_debug(stack, params)
    for i, plane in enumerate(stack):
        if params.smoothing:
            plane = blur_array(plane, params.smooth_kernel_size, params.smooth_sigma)
        magnitude = gradient_magnitude(plane, SOBEL)
        nms = nms_loops(magnitude, direction(plane, SOBEL))
        np.testing.assert_array_equal(debug["nms_mask"][i], nms)
        keep = hysteresis_bfs(magnitude, nms, params.low_threshold, params.high_threshold)
        np.testing.assert_array_equal(edges[i], np.where(keep, 255, 0))


@st.composite
def canny_cases(draw):
    """CannyParams from the whole range its validator accepts, and a small
    stack the smoothing kernel fits in, of 0/255 or 8-bit levels."""
    low, high = sorted(draw(st.floats(0.0, 255.0, exclude_min=True)) for _ in range(2))
    assume(low < high)
    params = CannyParams(
        low_threshold=low,
        high_threshold=high,
        smoothing=draw(st.booleans()),
        smooth_kernel_size=2 * draw(st.integers(1, 6)) + 1,
        # every sigma > 0 whose square is above 0, infinity included
        smooth_sigma=draw(st.floats(min_value=0.0, exclude_min=True).filter(lambda s: s * s > 0)),
    )
    least = params.smooth_kernel_size if params.smoothing else 3
    shape = (draw(st.integers(1, 3)), draw(st.integers(least, least + 8)), draw(st.integers(least, least + 8)))
    levels = draw(st.sampled_from([st.sampled_from([0.0, 255.0]), st.integers(0, 255).map(float)]))
    return params, draw(hnp.arrays(np.float64, shape, elements=levels))


class TestCannyOracle:
    """Canny's suppression and hysteresis against the per-pixel oracles.

    The oracles take the toolkit's own gradient field, so a near-tie is
    decided on the same bits; the gradient core has its own oracle above.
    """

    @pytest.mark.parametrize("params", ORACLE_PARAMS, ids=["default", "low", "narrow", "unsmoothed"])
    def test_stack_planes_match_oracles(self, rng, params):
        noisy = rng.integers(0, 256, size=(3, 20, 23)).astype(float)
        for stack in [*near_tie_stacks(), noisy]:
            assert_planes_match_oracles(stack, params)

    @settings(max_examples=60, deadline=None)
    @given(canny_cases(), st.data())
    def test_every_accepted_param_matches_oracles(self, case, data):
        params, stack = case
        # or thresholds that suppressed-in magnitudes equal exactly: ties
        _, debug = canny_debug(stack, params)
        levels = np.unique(debug["normalized_magnitude"][debug["nms_mask"]])
        levels = levels[levels > 0].tolist()
        if len(levels) > 1 and data.draw(st.booleans()):
            ties = data.draw(st.lists(st.sampled_from(levels), min_size=2, max_size=2, unique=True))
            params = replace(params, low_threshold=min(ties), high_threshold=max(ties))
        assert_planes_match_oracles(stack, params)

    def test_oracle_sees_near_ties(self):
        # the near-tie stacks hold nonzero magnitudes equal to their right-hand
        # neighbour's, and ones that differ from it by less than 1e-9
        ties = near = 0
        for stack in near_tie_stacks():
            magnitude = gradient_magnitude(blur_array(stack, 5, 1.4), SOBEL)
            padded = np.pad(magnitude, ((0, 0), (0, 0), (1, 1)), mode="edge")
            diff = magnitude - padded[..., 2:]
            ties += int(((diff == 0) & (magnitude > 0)).sum())
            near += int(((diff != 0) & (np.abs(diff) < 1e-9)).sum())
        assert ties > 0 and near > 0


def hysteresis_of(candidate, strong):
    """`_hysteresis` on boolean candidate and strong masks, as a boolean mask."""
    index = np.flatnonzero(candidate)
    edges = _hysteresis(candidate.shape, index, strong.ravel()[index])
    assert edges.dtype == np.uint8 and np.isin(edges, (0, 255)).all()
    return edges == 255


def hysteresis_by_labels(candidate, strong):
    """The candidates whose 8-connected component in their plane holds a strong pixel."""
    keep = np.zeros_like(candidate)
    for i, plane in enumerate(candidate):
        labels, _ = ndimage.label(plane, structure=np.ones((3, 3)))
        keep[i] = np.isin(labels, labels[strong[i]]) & (labels > 0)
    return keep


@st.composite
def hysteresis_cases(draw):
    """Candidate masks of 1-3 planes, sides 1-40 and any density, and strong
    masks among their candidates."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    candidate = rng.random(shape) < draw(st.floats(0.0, 1.0))
    strong = candidate & (rng.random(shape) < draw(st.floats(0.0, 1.0)))
    return candidate, strong


def plane_ends_case():
    """Plane 0 ends in a strong row, plane 1 starts with weak candidates, and
    a weak pixel starts the row after a strong one ends: in flat order each
    pair is adjacent, but none are 8-neighbours."""
    candidate = np.zeros((2, 4, 4), dtype=bool)
    strong = np.zeros_like(candidate)
    candidate[0, 3] = strong[0, 3] = True
    candidate[1, 0] = True
    candidate[1, 2, 3] = strong[1, 2, 3] = True
    candidate[1, 3, 0] = True
    return candidate, strong


def border_case():
    """A ring along every border with one strong corner, a full plane without
    a strong pixel and a full plane with one."""
    candidate = np.ones((3, 5, 6), dtype=bool)
    candidate[0, 1:-1, 1:-1] = False
    strong = np.zeros_like(candidate)
    strong[0, -1, -1] = strong[2, 2, 3] = True
    return candidate, strong


class TestHysteresis:
    """The union-find hysteresis against connected components from scipy."""

    @settings(max_examples=200, deadline=None)
    @given(hysteresis_cases())
    @example(plane_ends_case())
    @example(border_case())
    def test_keeps_components_that_hold_a_strong_pixel(self, case):
        candidate, strong = case
        np.testing.assert_array_equal(hysteresis_of(candidate, strong), hysteresis_by_labels(candidate, strong))


class TestDetect:
    def test_sobel_dispatch_equals_manual(self, rng):
        band = band_of(rng.integers(0, 256, size=(12, 12)))
        manual = magnitude_to_edgemap(gradient_magnitude(band, SOBEL))
        np.testing.assert_array_equal(detect(band, "sobel"), manual)

    def test_kinds(self, rng):
        # Canny gives a binary 0/255 map, a gradient operator graded magnitudes
        band = band_of(rng.integers(0, 256, size=(16, 16)))
        canny_map, prewitt_map = detect(band, "canny"), detect(band, "prewitt")
        assert canny_map.dtype == prewitt_map.dtype == np.uint8
        assert set(np.unique(canny_map)) == {0, 255}
        assert len(np.unique(prewitt_map)) > 2

    def test_unknown_algorithm(self):
        with pytest.raises(ParamError):
            detect(step_band(16), "laplacian")
