"""Metric tests against direct-definition oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coastedge.errors import EmptyGroupError, ParamError, ShapeError, WindowError
from coastedge.metrics import (
    MetricParams,
    MetricRecord,
    PreparedReference,
    aggregate,
    compute_all,
    psnr,
    rmse,
    ssim,
    uqi,
)
from coastedge.preprocess import window_sums

from oracles import rmse_direct, ssim_direct, uqi_direct


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
        assert rmse(a, a) == 0.0

    def test_maximal_constant(self):
        a = np.zeros((8, 8))
        b = np.full((8, 8), 255.0)
        assert rmse(a, b) == 255.0

    def test_matches_oracle(self, rng):
        for _ in range(10):
            a, b = random_pair(rng, 16)
            assert abs(rmse(a, b) - rmse_direct(a, b)) < 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            rmse(np.zeros((4, 4)), np.zeros((5, 5)))


class TestPsnr:
    def test_identical_is_infinite(self, rng):
        a, _ = random_pair(rng, 16)
        assert psnr(a, a) == math.inf

    def test_full_scale_error_is_zero_db(self):
        assert psnr(np.zeros((8, 8)), np.full((8, 8), 255.0)) == 0.0

    def test_unit_error_closed_form(self):
        a = np.full((8, 8), 100.0)
        b = np.full((8, 8), 101.0)
        assert abs(psnr(a, b) - 20 * math.log10(255.0)) < 1e-12

    def test_monotone_in_rmse(self, rng):
        a = rng.integers(0, 200, size=(16, 16)).astype(float)
        noise = rng.normal(size=(16, 16))
        previous = math.inf
        for scale in (1.0, 2.0, 4.0, 8.0):
            value = psnr(a, a + noise * scale)
            assert value < previous
            previous = value


class TestSsim:
    def test_identical_is_one(self, rng):
        a, _ = random_pair(rng)
        assert ssim(a, a) == 1.0

    def test_negated_high_variance_is_negative(self, rng):
        a = np.where(rng.random((32, 32)) < 0.5, 0.0, 255.0)
        assert ssim(a, 255.0 - a) < -0.5

    def test_matches_oracle(self, rng):
        for _ in range(5):
            a, b = random_pair(rng)
            assert abs(ssim(a, b) - ssim_direct(a, b)) < 1e-6

    @pytest.mark.parametrize("window", (5, 7, 9))
    def test_matches_oracle_other_windows(self, rng, window):
        params = MetricParams(ssim_window=window, ssim_sigma=1.2)
        for a, b in (random_pair(rng), sparse_edge_pair(rng), step_pair()):
            assert abs(ssim(a, b, params) - ssim_direct(a, b, window, 1.2)) < 1e-6

    def test_window_error(self):
        with pytest.raises(WindowError):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)))


class TestUqi:
    def test_identical_nonconstant_is_one(self, rng):
        a, _ = random_pair(rng)
        assert abs(uqi(a, a) - 1.0) < 1e-12

    def test_distinct_constants_zero(self):
        a = np.full((16, 16), 10.0)
        b = np.full((16, 16), 20.0)
        assert uqi(a, b) == 0.0

    def test_matches_oracle(self, rng):
        for _ in range(5):
            a, b = random_pair(rng)
            assert abs(uqi(a, b) - uqi_direct(a, b)) < 1e-6

    @pytest.mark.parametrize("window", (5, 7, 9))
    def test_matches_oracle_other_windows(self, rng, window):
        params = MetricParams(uqi_window=window)
        for a, b in (random_pair(rng), sparse_edge_pair(rng), step_pair()):
            assert abs(uqi(a, b, params) - uqi_direct(a, b, window)) < 1e-6

    def test_shifted_step_at_window_7(self):
        # 1/49-weighted float sums once made flat windows look non-flat here
        # (0.7635); the definition gives 0.4594 (exact rational arithmetic)
        a, b = step_pair()
        assert abs(uqi(a, b, MetricParams(uqi_window=7)) - 0.459373876822897) < 1e-12

    def test_window_error(self):
        with pytest.raises(WindowError):
            uqi(np.zeros((4, 4)), np.zeros((4, 4)))


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
    """The planned numeric change of the shared window-sum kernel.

    When a chip is exactly one SSIM window wide, the second pass of
    `window_sums` has one output per row, and there einsum sums in an order
    of its own; the earlier matmul/einsum sums took another. SSIM may move
    in the last bits, within 1e-13 absolute (SSIM lies in [-1, 1]; near 0
    a relative bound would not hold). UQI (exact integer sums) and RMSE do
    not move.
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
        values = compute_all(a, b, MetricParams(window, sigma, uqi_window))
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
            assert uqi(a, b, params) == uqi_always_masked(a, b, window)


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
        assert abs(ssim(a, b, params) - want_ssim) < 1e-6
        assert abs(uqi(a, b, params) - uqi_direct(a, b, params.uqi_window)) < 1e-6


class TestSymmetry:
    def test_all_metrics_symmetric(self, rng):
        for _ in range(5):
            a, b = random_pair(rng)
            assert rmse(a, b) == rmse(b, a)
            assert psnr(a, b) == psnr(b, a)
            assert abs(ssim(a, b) - ssim(b, a)) < 1e-12
            assert abs(uqi(a, b) - uqi(b, a)) < 1e-12

    def test_compute_all_keys(self, rng):
        a, b = random_pair(rng)
        assert set(compute_all(a, b)) == {"rmse", "psnr", "ssim", "uqi"}


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
        values = compute_all(a, b, params)
        assert all(math.isfinite(values[m]) for m in ("rmse", "ssim", "uqi"))


class TestPreparedReference:
    def test_same_values_as_raw_reference(self, rng):
        params = MetricParams(ssim_window=7, uqi_window=5)
        a, b = sparse_edge_pair(rng)
        prepared = PreparedReference(b, params)
        for candidate in (a, random_pair(rng)[0], b):
            assert compute_all(candidate, prepared, params) == compute_all(candidate, b, params)
            assert ssim(candidate, prepared, params) == ssim(candidate, b, params)
            assert uqi(candidate, prepared, params) == uqi(candidate, b, params)
            assert rmse(candidate, prepared) == rmse(candidate, b)

    def test_other_params_rejected(self, rng):
        a, b = random_pair(rng)
        with pytest.raises(ParamError):
            compute_all(a, PreparedReference(b, MetricParams(uqi_window=5)))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            compute_all(np.zeros((16, 16)), PreparedReference(np.zeros((20, 20))))

    def test_each_metric_checks_only_its_window(self):
        params = MetricParams(ssim_window=5, uqi_window=9)
        prepared = PreparedReference(np.zeros((6, 6)), params)
        assert ssim(np.zeros((6, 6)), prepared, params) == 1.0
        with pytest.raises(WindowError, match="UQI window 9"):
            uqi(np.zeros((6, 6)), prepared, params)


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


class TestAggregate:
    def test_mean_and_population_std(self):
        records = [record(f"i{i}", float(v)) for i, v in enumerate((1, 2, 3))]
        cell = aggregate(records, "Blue", "canny", "psnr")
        assert cell.mean == 2.0
        assert abs(cell.std - math.sqrt(2.0 / 3.0)) < 1e-12
        assert cell.n_included == 3 and cell.n_excluded == 0

    def test_infinite_values_excluded(self):
        records = [record("a", 5.0), record("b", math.inf)]
        cell = aggregate(records, "Blue", "canny", "psnr")
        assert cell.mean == 5.0
        assert cell.n_included == 1 and cell.n_excluded == 1

    def test_error_records_excluded(self):
        records = [
            record("a", 5.0),
            MetricRecord("b", "Blue", "canny", "eq=on,noise=gaussian", error="boom"),
        ]
        cell = aggregate(records, "Blue", "canny", "psnr")
        assert cell.n_included == 1 and cell.n_excluded == 1

    def test_order_independent(self):
        records = [record(f"i{i}", float(i)) for i in range(6)]
        forward = aggregate(records, "Blue", "canny", "psnr")
        backward = aggregate(records[::-1], "Blue", "canny", "psnr")
        assert forward == backward

    def test_matches_two_pass(self, rng):
        values = rng.random(20) * 30
        records = [record(f"i{i:02d}", float(v)) for i, v in enumerate(values)]
        cell = aggregate(records, "Blue", "canny", "psnr")
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        assert abs(cell.mean - mean) < 1e-12
        assert abs(cell.std - math.sqrt(var)) < 1e-12

    def test_empty_group(self):
        with pytest.raises(EmptyGroupError):
            aggregate([record("a", 1.0)], "Red", "canny", "psnr")
