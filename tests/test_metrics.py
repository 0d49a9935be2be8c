"""Metric tests against direct-definition oracles."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coastedge import metrics
from coastedge.edgedetect import ALGORITHMS, CannyParams, derive_reference, detect
from coastedge.errors import ParamError, ShapeError, WindowError
from coastedge.harness import ExperimentSpec, aggregate_records, run_experiment
from coastedge.metrics import MetricParams, MetricRecord, PreparedReference, compute_all
from coastedge.threads import run_beside
from coastedge.preprocess import PreprocessSpec, run_pipeline, window_sums
from coastedge.synth import SynthSpec, generate_corpus, generate_scene

from oracles import rmse_direct, ssim_direct, uqi_direct


def score(a, b, params=MetricParams()) -> dict:
    """All four metrics of candidate `a` against reference `b` prepared for `params`."""
    return compute_all(a, PreparedReference(b, params))


# windows that fit an 8x8 image, for tests of RMSE and PSNR on one
SMALL_WINDOWS = MetricParams(ssim_window=3, uqi_window=2)


def random_pair(rng, size=32):
    a = rng.integers(0, 256, size=(size, size)).astype(float)
    b = rng.integers(0, 256, size=(size, size)).astype(float)
    return a, b


def sparse_edge_pair(rng, size=32):
    """Mostly-zero 0/255 maps, where many windows are flat in both images."""
    a = np.where(rng.random((size, size)) < 0.05, 255.0, 0.0)
    b = np.where(rng.random((size, size)) < 0.05, 255.0, 0.0)
    return a, b


def step_pair(size=32):
    """A vertical 0/255 step and the same step one column to the right."""
    a = np.zeros((size, size))
    a[:, size // 2 :] = 255.0
    b = np.zeros((size, size))
    b[:, size // 2 + 1 :] = 255.0
    return a, b


class TestRmse:
    def test_identical(self, rng):
        a, _ = random_pair(rng, 16)
        assert score(a, a)["rmse"] == 0.0

    def test_maximal_constant(self):
        a = np.zeros((8, 8))
        b = np.full((8, 8), 255.0)
        assert score(a, b, SMALL_WINDOWS)["rmse"] == 255.0

    def test_matches_oracle(self, rng):
        for _ in range(10):
            a, b = random_pair(rng, 16)
            assert abs(score(a, b)["rmse"] - rmse_direct(a, b)) < 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            score(np.zeros((4, 4)), np.zeros((5, 5)))


class TestPsnr:
    def test_identical_is_infinite(self, rng):
        a, _ = random_pair(rng, 16)
        assert score(a, a)["psnr"] == math.inf

    def test_full_scale_error_is_zero_db(self):
        assert score(np.zeros((8, 8)), np.full((8, 8), 255.0), SMALL_WINDOWS)["psnr"] == 0.0

    def test_unit_error_closed_form(self):
        a = np.full((8, 8), 100.0)
        b = np.full((8, 8), 101.0)
        assert abs(score(a, b, SMALL_WINDOWS)["psnr"] - 20 * math.log10(255.0)) < 1e-12

    def test_monotone_in_rmse(self, rng):
        a = rng.integers(0, 200, size=(16, 16)).astype(float)
        noise = rng.normal(size=(16, 16))
        previous = math.inf
        for scale in (1.0, 2.0, 4.0, 8.0):
            value = score(a, a + noise * scale)["psnr"]
            assert value < previous
            previous = value


class TestSsim:
    def test_identical_is_one(self, rng):
        a, _ = random_pair(rng)
        assert score(a, a)["ssim"] == 1.0

    def test_negated_high_variance_is_negative(self, rng):
        a = np.where(rng.random((32, 32)) < 0.5, 0.0, 255.0)
        assert score(a, 255.0 - a)["ssim"] < -0.5

    def test_matches_oracle(self, rng):
        for _ in range(5):
            a, b = random_pair(rng)
            assert abs(score(a, b)["ssim"] - ssim_direct(a, b)) < 1e-6

    @pytest.mark.parametrize("window", (5, 7, 9))
    def test_matches_oracle_other_windows(self, rng, window):
        params = MetricParams(ssim_window=window, ssim_sigma=1.2)
        for a, b in (random_pair(rng), sparse_edge_pair(rng), step_pair()):
            assert abs(score(a, b, params)["ssim"] - ssim_direct(a, b, window, 1.2)) < 1e-6

    def test_window_error(self):
        # UQI's default window of 8 fits
        with pytest.raises(WindowError, match="SSIM window 11"):
            score(np.zeros((8, 8)), np.zeros((8, 8)))


class TestUqi:
    def test_identical_nonconstant_is_one(self, rng):
        a, _ = random_pair(rng)
        assert abs(score(a, a)["uqi"] - 1.0) < 1e-12

    def test_distinct_constants_zero(self):
        a = np.full((16, 16), 10.0)
        b = np.full((16, 16), 20.0)
        assert score(a, b)["uqi"] == 0.0

    def test_matches_oracle(self, rng):
        for _ in range(5):
            a, b = random_pair(rng)
            assert abs(score(a, b)["uqi"] - uqi_direct(a, b)) < 1e-6

    @pytest.mark.parametrize("window", (5, 7, 9))
    def test_matches_oracle_other_windows(self, rng, window):
        params = MetricParams(uqi_window=window)
        for a, b in (random_pair(rng), sparse_edge_pair(rng), step_pair()):
            assert abs(score(a, b, params)["uqi"] - uqi_direct(a, b, window)) < 1e-6

    def test_shifted_step_at_window_7(self):
        # 1/49-weighted float sums once made flat windows look non-flat here
        # (0.7635); the definition gives 0.4594 (exact rational arithmetic)
        a, b = step_pair()
        assert abs(score(a, b, MetricParams(uqi_window=7))["uqi"] - 0.459373876822897) < 1e-12

    def test_window_error(self):
        # an SSIM window of 3 fits
        with pytest.raises(WindowError, match="UQI window 8"):
            score(np.zeros((4, 4)), np.zeros((4, 4)), MetricParams(ssim_window=3))


def uqi_always_masked(a, b, window):
    """UQI with the degenerate-window masking and compaction always applied."""
    n, ones = window * window, np.ones(window)
    total_a, total_aa = window_sums(a, ones), window_sums(a * a, ones)
    total_b, total_bb = window_sums(b, ones), window_sums(b * b, ones)
    mu_a, mu_b = total_a / n, total_b / n
    mu_a_sq, mu_b_sq = mu_a**2, mu_b**2
    var_a, var_b = total_aa / n - mu_a_sq, total_bb / n - mu_b_sq
    degenerate = (n * total_aa - total_a * total_a) + (n * total_bb - total_b * total_b) <= 0
    contributing = ~(degenerate & (total_a == total_b))
    if not contributing.any():
        return 0.0
    cov = window_sums(a * b, ones) / n - mu_a * mu_b
    with np.errstate(divide="ignore", invalid="ignore"):
        q = (4.0 * cov * mu_a * mu_b) / ((var_a + var_b) * (mu_a_sq + mu_b_sq))
    q = np.where(degenerate, 0.0, q)
    return float(q[contributing].mean())


def flat_halves_pair(rng, size=32):
    """Left halves flat at different levels: degenerate windows, none skipped."""
    a, b = np.full((size, size), 10.0), np.full((size, size), 20.0)
    a[:, size // 2 :] = rng.integers(0, 256, size=(size, size - size // 2))
    b[:, size // 2 :] = rng.integers(0, 256, size=(size, size - size // 2))
    return a, b


class TestWidthEqualsSsimWindow:
    """A planned numeric change of the shared window-sum kernel.

    When a chip is exactly one SSIM window wide, the second pass of
    `window_sums` has one output per row. The earlier matmul/einsum sums
    added its taps in an order of their own; `window_sums` now adds them in
    kernel order there too, as at every other width. SSIM may differ from
    the earlier values in the last bits, within 1e-13 absolute (SSIM lies
    in [-1, 1]; near 0 a relative bound would not hold). UQI (exact integer
    sums) and RMSE do not move.
    """

    # seed, SSIM window and sigma, height, UQI window, then the SSIM, UQI and
    # RMSE the earlier matmul/einsum window sums gave on these 0/255 maps
    EARLIER = [
        (1, 11, 1.5, 40, 8, 0.05259101465825345, -0.012463436325071995, 167.56782887155657),
        (2, 7, 1.2, 7, 5, -0.08911608816999954, -0.10223462807135109, 170.86514553642493),
        (4, 13, 2.5, 64, 9, -0.04980369431278491, -0.04804697667854582, 167.03697843130885),
        (5, 5, 1.0, 24, 2, -0.20433904470348635, -0.15376564827114278, 190.5403500574091),
    ]

    @pytest.mark.parametrize("case", EARLIER, ids=lambda case: f"seed{case[0]}")
    def test_within_planned_tolerance(self, case):
        seed, window, sigma, height, uqi_window, *earlier = case
        rng = np.random.default_rng(seed)
        a = np.where(rng.random((height, window)) < 0.3, 255.0, 0.0)
        b = np.where(rng.random((height, window)) < 0.3, 255.0, 0.0)
        values = score(a, b, MetricParams(window, sigma, uqi_window))
        ssim_, uqi_, rmse_ = earlier
        assert abs(values["ssim"] - ssim_) <= 1e-13
        assert values["uqi"] == uqi_
        assert values["rmse"] == rmse_


class TestUqiFastPath:
    @pytest.mark.parametrize("window", (5, 7, 8, 9))
    def test_bit_identical_to_always_masked(self, rng, window):
        params = MetricParams(uqi_window=window)
        pairs = [
            random_pair(rng),
            random_pair(rng, size=256),
            sparse_edge_pair(rng),
            sparse_edge_pair(rng, size=256),
            step_pair(),
            flat_halves_pair(rng),
            (np.zeros((16, 16)), np.zeros((16, 16))),
        ]
        for a, b in pairs:
            assert score(a, b, params)["uqi"] == uqi_always_masked(a, b, window)


@st.composite
def metric_cases(draw):
    """MetricParams from the whole range its validator accepts, and a 0/255 or
    8-bit chip pair the windows fit in."""
    params = MetricParams(
        ssim_window=2 * draw(st.integers(1, 6)) + 1,
        # every sigma > 0 whose square is above 0, infinity included
        ssim_sigma=draw(st.floats(min_value=0.0, exclude_min=True).filter(lambda s: s * s > 0)),
        uqi_window=draw(st.integers(2, 13)),
    )
    least = max(params.ssim_window, params.uqi_window)
    shape = (draw(st.integers(least, least + 8)), draw(st.integers(least, least + 8)))
    levels = draw(st.sampled_from([st.sampled_from([0.0, 255.0]), st.integers(0, 255).map(float)]))
    pair = [draw(hnp.arrays(np.float64, shape, elements=levels)) for _ in range(2)]
    return params, *pair


class TestOracleProperties:
    @settings(max_examples=60, deadline=None)
    @given(metric_cases())
    def test_ssim_and_uqi_match_oracles(self, case):
        params, a, b = case
        want_ssim = ssim_direct(a, b, params.ssim_window, params.ssim_sigma)
        values = score(a, b, params)
        assert abs(values["ssim"] - want_ssim) < 1e-6
        assert abs(values["uqi"] - uqi_direct(a, b, params.uqi_window)) < 1e-6


# UQI of a against b is 0.35999999999999993 and of b against a 0.36: one window, 1 ulp apart
UQI_ASYMMETRIC = (
    MetricParams(ssim_window=3, uqi_window=3),
    np.diag([0.0, 0.0, 1.0]),
    np.diag([0.0, 0.0, 3.0]),
)

# an identical pair whose one UQI window's index rounds to 1.0000000000000002,
# which the mean must not pass on
UQI_ABOVE_ONE = (MetricParams(ssim_window=3, uqi_window=9), np.zeros((9, 9)), np.zeros((9, 9)))
UQI_ABOVE_ONE[1][0, :4] = UQI_ABOVE_ONE[2][0, :4] = 255.0


class TestSymmetryProperties:
    """SSIM and UQI are symmetric in their two images and lie in [-1, 1]
    (Wang & Bovik 2002; Wang et al. 2004)."""

    @settings(max_examples=150, deadline=None)
    @given(metric_cases())
    def test_ssim_symmetric_bit_for_bit_and_bounded(self, case):
        # every term is a commutative product or sum of the two images' stats
        params, a, b = case
        value = score(a, b, params)["ssim"]
        assert score(b, a, params)["ssim"] == value
        assert -1.0 <= value <= 1.0

    @settings(max_examples=150, deadline=None)
    @given(metric_cases())
    @example(UQI_ASYMMETRIC)
    @example(UQI_ABOVE_ONE)
    def test_uqi_symmetric_to_rounding_and_bounded(self, case):
        # 4.0 * cov * mu_a * mu_b multiplies left to right, so swapping the
        # images swaps the last two factors and can move each window's index
        # by a rounding; the mean then moves by at most a few ulps of 1
        params, a, b = case
        value = score(a, b, params)["uqi"]
        assert abs(score(b, a, params)["uqi"] - value) <= 4 * np.finfo(np.float64).eps
        assert -1.0 <= value <= 1.0


class TestSymmetry:
    def test_all_metrics_symmetric(self, rng):
        for _ in range(5):
            a, b = random_pair(rng)
            forward, backward = score(a, b), score(b, a)
            assert forward["rmse"] == backward["rmse"]
            assert forward["psnr"] == backward["psnr"]
            assert abs(forward["ssim"] - backward["ssim"]) < 1e-12
            assert abs(forward["uqi"] - backward["uqi"]) < 1e-12

    def test_compute_all_keys(self, rng):
        a, b = random_pair(rng)
        assert set(score(a, b)) == {"rmse", "psnr", "ssim", "uqi"}


class TestMetricParams:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("ssim_window", 4),
            ("ssim_window", 1),
            ("ssim_window", -3),
            ("ssim_sigma", 0.0),
            ("ssim_sigma", -1.5),
            ("ssim_sigma", math.nan),
            ("ssim_sigma", 1e-170),
            ("uqi_window", 1),
            ("uqi_window", 0),
            ("uqi_window", -2),
        ],
    )
    def test_rejected_at_construction(self, field, value):
        with pytest.raises(ParamError, match=field):
            MetricParams(**{field: value})

    def test_smallest_valid_windows(self, rng):
        params = MetricParams(ssim_window=3, ssim_sigma=0.1, uqi_window=2)
        a, b = random_pair(rng)
        values = score(a, b, params)
        assert all(math.isfinite(values[m]) for m in ("rmse", "ssim", "uqi"))


class TestPreparedReference:
    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            compute_all(np.zeros((16, 16)), PreparedReference(np.zeros((20, 20))))


@pytest.fixture()
def serial(monkeypatch):
    """`score` with every plane below the two-thread threshold: the serial bits to compare with."""

    def scored(a, b, params=MetricParams()) -> dict:
        with monkeypatch.context() as patch:
            patch.setattr(metrics, "_THREAD_PIXELS", np.asarray(a).size + 1)
            return score(a, b, params)

    return scored


def bits(values: dict) -> dict:
    return {name: np.float64(value).tobytes() for name, value in values.items()}


@pytest.fixture(scope="module")
def scene256_cells():
    """(band, algorithm, edge map) of every cell of the 256² seed-1000 scene, and its reference."""
    scene = generate_scene(SynthSpec(size=256, seed=1000, noise_sigma=300.0))
    cells = []
    for band, samples in enumerate(scene.stack):
        processed = run_pipeline(samples, PreprocessSpec())
        cells += [(band, algorithm, detect(processed, algorithm, CannyParams())) for algorithm in ALGORITHMS]
    return cells, derive_reference(scene.label, CannyParams())


@pytest.fixture()
def beside_calls(monkeypatch):
    """The number of `compute_all` calls that scored on a second thread; no thread may outlive the test."""
    calls = []

    def counted(side, main):
        calls.append(1)
        return run_beside(side, main)

    monkeypatch.setattr(metrics, "run_beside", counted)
    before = threading.active_count()
    yield calls
    assert threading.active_count() == before


class TestTwoThreads:
    """`compute_all` scores large planes' SSIM and UQI on two threads, with the serial bits and errors."""

    def test_scene_cells_equal_serial(self, scene256_cells, beside_calls, serial):
        cells, reference = scene256_cells
        prepared = PreparedReference(reference)
        for band, algorithm, edges in cells:
            got = compute_all(edges, prepared)
            assert bits(got) == bits(serial(edges, reference)), (band, algorithm)
        assert len(beside_calls) == len(cells) == 48

    @pytest.mark.parametrize(
        "shape, threaded",
        [((159, 161), False), ((160, 160), True), ((128, 256), True)],
        ids=["just_below", "at", "above"],
    )
    def test_threshold(self, rng, beside_calls, serial, shape, threaded):
        assert (math.prod(shape) >= metrics._THREAD_PIXELS) == threaded
        a = np.where(rng.random(shape) < 0.1, 255, 0).astype(np.uint8)
        b = np.where(rng.random(shape) < 0.1, 255.0, 0.0)
        assert bits(score(a, b)) == bits(serial(a, b))
        assert len(beside_calls) == threaded

    def test_canny_map_where_uqi_compacts(self, scene256_cells, beside_calls, serial):
        # most UQI windows of a Canny map are flat and equal in both maps and
        # skipped; the rest are gathered and scored
        cells, reference = scene256_cells
        (edges,) = [e for band, algorithm, e in cells if (band, algorithm) == (7, "canny")]
        a, b = edges.astype(float), reference.astype(float)
        win = MetricParams().uqi_window
        ones = np.ones(win)
        spreads = [win * win * window_sums(x * x, ones) - window_sums(x, ones) ** 2 for x in (a, b)]
        skip = (spreads[0] + spreads[1] <= 0) & (window_sums(a, ones) == window_sums(b, ones))
        assert skip.any() and not skip.all()
        assert bits(score(edges, reference)) == bits(serial(edges, reference))
        assert len(beside_calls) == 1

    def test_real_valued_pair(self, rng, beside_calls, serial):
        a = rng.normal(100.0, 40.0, (256, 256))
        b = rng.normal(100.0, 40.0, (256, 256))
        for params in (MetricParams(), MetricParams(ssim_window=7, ssim_sigma=1.0, uqi_window=5)):
            assert bits(score(a, b, params)) == bits(serial(a, b, params))
        assert len(beside_calls) == 2

    def test_concurrent_callers_share_one_reference(self, scene256_cells, beside_calls, serial):
        # three callers on two cores, each scoring on two threads, race on one
        # reference's statistics with a short switch interval: every cell keeps
        # its serial bits
        cells, reference = scene256_cells
        cells = cells[:6]
        expected = [bits(serial(edges, reference)) for _, _, edges in cells]
        prepared = PreparedReference(reference)
        got = {}

        def score_cells(worker):
            for i in range(worker, len(cells), 3):
                got[i] = bits(compute_all(cells[i][2], prepared))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=score_cells, args=(w,)) for w in range(3)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert [got.get(i) for i in range(len(cells))] == expected
        assert len(beside_calls) == len(cells)

    def test_reference_is_complete_when_made(self, scene256_cells, beside_calls, serial):
        # scoring adds nothing to a reference and replaces nothing in it
        cells, reference = scene256_cells
        cells = cells[:3]
        prepared = PreparedReference(reference)
        made = dict(vars(prepared))
        for _, _, edges in cells:
            assert bits(compute_all(edges, prepared)) == bits(serial(edges, reference))
        assert len(beside_calls) == len(cells)
        assert vars(prepared).keys() == made.keys()
        assert all(vars(prepared)[name] is value for name, value in made.items())

    def test_ssim_window_fault_wins(self, beside_calls):
        params = MetricParams(ssim_window=257, uqi_window=257)
        with pytest.raises(WindowError, match="SSIM window 257"):
            score(np.zeros((256, 256)), np.zeros((256, 256)), params)

    def test_uqi_window_fault_alone(self, beside_calls):
        with pytest.raises(WindowError, match="UQI window 257"):
            score(np.zeros((256, 256)), np.zeros((256, 256)), MetricParams(uqi_window=257))

    def test_bug_in_second_thread_escapes_compute_all(self, rng, monkeypatch, beside_calls):
        def broken_uqi(products, ref):
            raise RuntimeError("bug in _uqi")

        monkeypatch.setattr(metrics, "_uqi", broken_uqi)
        a, b = random_pair(rng, 256)
        with pytest.raises(RuntimeError, match="bug in _uqi"):
            score(a, b)
        assert len(beside_calls) == 1

    def test_bug_in_second_thread_escapes_run_experiment(self, tmp_path, monkeypatch, beside_calls):
        def broken_uqi(products, ref):
            raise RuntimeError("bug in _uqi")

        manifest = generate_corpus(1, SynthSpec(size=256, seed=1000, noise_sigma=300.0), tmp_path)
        monkeypatch.setattr(metrics, "_uqi", broken_uqi)
        with pytest.raises(RuntimeError, match="bug in _uqi"):
            run_experiment(manifest, ExperimentSpec("table1"))
        assert len(beside_calls) == 1


def whole_plane_box(b, params):
    """`metrics._coastline_box` as the whole plane: every sum with b as a factor taken on all of it."""
    return slice(0, b.shape[0]), slice(0, b.shape[1]), np.ascontiguousarray(b.T)


def coastline(shape, where) -> np.ndarray:
    """A 0/255 reference whose nonzero samples lie at `where` (an index into the plane)."""
    b = np.zeros(shape)
    b[where] = 255.0
    return b


BOX_REFERENCES = {
    "all_zero": (slice(0, 0),),
    "top_left": (0, 0),
    "top_right": (0, -1),
    "bottom_left": (-1, 0),
    "bottom_right": (-1, -1),
    "first_row": (0,),
    "last_row": (-1,),
    "first_column": (slice(None), 0),
    "last_column": (slice(None), -1),
    "narrower_than_windows": (slice(20, 23), slice(30, 32)),
    "full_plane": ([0, -1, 25], [0, -1, 10]),
}


class TestReferenceBox:
    """Sums with the reference as a factor, taken on its box alone, keep the whole plane's bits."""

    @pytest.mark.parametrize("threaded", [False, True], ids=["serial", "threaded"])
    @pytest.mark.parametrize("where", BOX_REFERENCES.values(), ids=BOX_REFERENCES.keys())
    @pytest.mark.parametrize(
        "params",
        [MetricParams(), MetricParams(ssim_window=5, ssim_sigma=0.8, uqi_window=12)],
        ids=["default", "wide_uqi"],
    )
    def test_same_bits_as_the_whole_plane(self, rng, monkeypatch, where, threaded, params):
        monkeypatch.setattr(metrics, "_THREAD_PIXELS", 0 if threaded else math.inf)
        b = coastline((48, 61), where)
        candidates = [
            np.where(rng.random(b.shape) < 0.1, 255, 0).astype(np.uint8),
            rng.integers(0, 256, b.shape).astype(np.uint8),
            b.astype(np.uint8),
        ]
        rows, cols, _ = PreparedReference(b, params).box
        margin = max(params.ssim_window, params.uqi_window) - 1
        if not b.any():
            assert (rows, cols) == (slice(0, margin + 1), slice(0, margin + 1))
        else:
            assert (rows.stop - rows.start, cols.stop - cols.start) != b.shape or where is BOX_REFERENCES["full_plane"]
            assert min(rows.stop - rows.start, cols.stop - cols.start) >= margin + 1
        got = [bits(compute_all(a, PreparedReference(b, params))) for a in candidates]
        monkeypatch.setattr(metrics, "_coastline_box", whole_plane_box)
        assert got == [bits(compute_all(a, PreparedReference(b, params))) for a in candidates]

    def test_scene_cells(self, scene256_cells, monkeypatch):
        cells, reference = scene256_cells
        rows, cols, _ = PreparedReference(reference).box
        assert (rows.stop - rows.start) * (cols.stop - cols.start) < reference.size / 2
        got = {}
        for box in ("crop", "whole_plane"):
            if box == "whole_plane":
                monkeypatch.setattr(metrics, "_coastline_box", whole_plane_box)
            for threaded in (False, True):
                monkeypatch.setattr(metrics, "_THREAD_PIXELS", 0 if threaded else math.inf)
                prepared = PreparedReference(reference)
                got[box, threaded] = [bits(compute_all(edges, prepared)) for _, _, edges in cells]
        assert got["crop", False] == got["crop", True] == got["whole_plane", False] == got["whole_plane", True]

    def test_nan_counts_as_nonzero(self):
        b = coastline((40, 40), (5, 30))
        b[30, 4] = np.nan
        rows, cols, _ = PreparedReference(b).box
        assert (rows, cols) == (slice(0, 40), slice(0, 40))


def record(image_id, psnr_value):
    return MetricRecord(
        image_id=image_id,
        band_name="Blue",
        algorithm="canny",
        preprocess_tag="eq=on,noise=gaussian",
        rmse=1.0,
        psnr=psnr_value,
        ssim=0.5,
        uqi=0.5,
    )


def blue_canny_psnr(records):
    """The (Blue, canny) PSNR row `aggregate_records` gives over `records` in the table1 grid."""
    rows = aggregate_records(records, ExperimentSpec("table1"))
    (row,) = [r for r in rows if (r["band"], r["algorithm"], r["metric"]) == ("Blue", "canny", "psnr")]
    return row


class TestAggregate:
    """Corpus aggregation of metric records (`harness.aggregate_records`)."""

    def test_mean_and_population_std(self):
        records = [record(f"i{i}", float(v)) for i, v in enumerate((1, 2, 3))]
        row = blue_canny_psnr(records)
        assert row["mean"] == 2.0
        assert abs(row["std"] - math.sqrt(2.0 / 3.0)) < 1e-12
        assert row["n_included"] == 3 and row["n_excluded"] == 0

    def test_infinite_values_excluded(self):
        records = [record("a", 5.0), record("b", math.inf)]
        row = blue_canny_psnr(records)
        assert row["mean"] == 5.0
        assert row["n_included"] == 1 and row["n_excluded"] == 1

    def test_error_records_excluded(self):
        records = [
            record("a", 5.0),
            MetricRecord("b", "Blue", "canny", "eq=on,noise=gaussian", error="boom"),
        ]
        row = blue_canny_psnr(records)
        assert row["mean"] == 5.0
        assert row["n_included"] == 1 and row["n_excluded"] == 1

    def test_order_independent(self, rng):
        records = [record(f"i{i}", float(v)) for i, v in enumerate(rng.random(6) * 30)]
        spec = ExperimentSpec("table1")
        forward = aggregate_records(records, spec)
        assert aggregate_records(records[::-1], spec) == forward
        assert aggregate_records([records[i] for i in rng.permutation(6)], spec) == forward

    def test_matches_two_pass(self, rng):
        values = rng.random(20) * 30
        records = [record(f"i{i:02d}", float(v)) for i, v in enumerate(values)]
        row = blue_canny_psnr(records)
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        assert abs(row["mean"] - mean) < 1e-12
        assert abs(row["std"] - math.sqrt(var)) < 1e-12

    def test_empty_group(self):
        # only the (Blue, canny) group has records; every other group gives no rows
        rows = aggregate_records([record("a", 1.0)], ExperimentSpec("table1"))
        assert [(r["band"], r["algorithm"], r["metric"]) for r in rows] == [
            ("Blue", "canny", metric) for metric in ("rmse", "psnr", "ssim", "uqi")
        ]
        assert aggregate_records([], ExperimentSpec("table1")) == []
