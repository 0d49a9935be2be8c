"""Image quality metrics (RMSE, PSNR, SSIM, UQI) and corpus aggregation.

SSIM's Gaussian-weighted and UQI's unweighted window sums are taken by
`preprocess.window_sums`: along the last axis first, each output adding its
products one after another in kernel order. The golden records are pinned
to the bits of that order, so keep it. UQI's sums are exact integers on
integer-valued images (every edge map), whatever the order; SSIM's are not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyGroupError, ParamError, ShapeError, WindowError
from .preprocess import check_sigma, gaussian_kernel_1d, window_sums
from .raster import EdgeMap


@dataclass(frozen=True)
class MetricParams:
    """Window configuration for the windowed metrics."""

    ssim_window: int = 11
    ssim_sigma: float = 1.5
    uqi_window: int = 8

    def __post_init__(self):
        if self.ssim_window < 3 or self.ssim_window % 2 == 0:
            raise ParamError(f"ssim_window must be odd and >= 3, got {self.ssim_window}")
        check_sigma("ssim_sigma", self.ssim_sigma)
        if self.uqi_window < 2:
            raise ParamError(f"uqi_window must be >= 2, got {self.uqi_window}")


@dataclass(frozen=True)
class MetricRecord:
    """One (image, band, algorithm, preprocessing) cell of the benchmark grid."""

    image_id: str
    band_name: str
    algorithm: str
    preprocess_tag: str
    rmse: float = math.nan
    psnr: float = math.nan
    ssim: float = math.nan
    uqi: float = math.nan
    error: str = ""


@dataclass(frozen=True)
class AggregateCell:
    """Mean +/- population std for one (band, algorithm, metric) group."""

    band_name: str
    algorithm: str
    metric_name: str
    mean: float
    std: float
    n_included: int
    n_excluded: int


def _as_float(img) -> np.ndarray:
    if isinstance(img, (EdgeMap, PreparedReference)):
        img = img.values
    return np.asarray(img, dtype=np.float64)


def _check_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a, b = _as_float(a), _as_float(b)
    if a.shape != b.shape:
        raise ShapeError(f"image shapes differ: {a.shape} vs {b.shape}")
    return a, b


def _rmse(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean((a - b) ** 2)))


def _psnr(err: float) -> float:
    if err == 0.0:
        return math.inf
    return 20.0 * math.log10(255.0 / err)


def rmse(a, b) -> float:
    """Root mean square pixel error on the 0..255 scale."""
    return _rmse(*_check_pair(a, b))


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB; +inf for identical images."""
    return _psnr(rmse(a, b))


def _check_window(shape: tuple, window: int, metric: str) -> None:
    if min(shape) < window:
        raise WindowError(f"image {shape} smaller than {metric} window {window}")


@dataclass(frozen=True, eq=False)
class PreparedReference:
    """A reference image with its window statistics, computed once for many candidates.

    Each metric's statistics are computed on first use and then kept, so
    scoring every edge map of a scene against one PreparedReference does
    the reference-only work once. A reference scored by one metric only
    never needs the other metric's window to fit.
    """

    values: np.ndarray  # 2D float64
    params: MetricParams = MetricParams()

    def __post_init__(self):
        object.__setattr__(self, "values", _as_float(self.values))

    @cached_property
    def ssim_stats(self) -> tuple:
        """Gaussian window weights, then mu_b, mu_b**2 and var_b per SSIM window."""
        b, win = self.values, self.params.ssim_window
        _check_window(b.shape, win, "SSIM")
        weights = gaussian_kernel_1d(win, self.params.ssim_sigma)
        mu = window_sums(b, weights)
        mu_sq = mu**2
        return weights, mu, mu_sq, window_sums(b * b, weights) - mu_sq

    @cached_property
    def uqi_stats(self) -> tuple:
        """Per UQI window: sum(b), mu_b, mu_b**2, var_b and n*sum(b*b) - sum(b)**2."""
        b, win = self.values, self.params.uqi_window
        _check_window(b.shape, win, "UQI")
        n, ones = win * win, np.ones(win)
        total, total_sq = window_sums(b, ones), window_sums(b * b, ones)
        mu = total / n
        mu_sq = mu**2
        return total, mu, mu_sq, total_sq / n - mu_sq, n * total_sq - total * total


def _prepared_pair(a, b, params: MetricParams) -> tuple[np.ndarray, PreparedReference]:
    """The candidate as float64 and the reference prepared for `params`."""
    if not isinstance(b, PreparedReference):
        a, b = _check_pair(a, b)
        return a, PreparedReference(b, params)
    if b.params != params:
        raise ParamError(f"reference prepared for {b.params}, scored with {params}")
    a, _ = _check_pair(a, b)
    return a, b


def _ssim(a: np.ndarray, aa: np.ndarray, ab: np.ndarray, ref: PreparedReference) -> float:
    weights, mu_b, mu_b_sq, var_b = ref.ssim_stats
    mu_a = window_sums(a, weights)
    mu_a_sq = mu_a**2
    var_a = window_sums(aa, weights) - mu_a_sq
    cov = window_sums(ab, weights) - mu_a * mu_b

    c1 = (0.01 * 255.0) ** 2
    c2 = (0.03 * 255.0) ** 2
    index = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a_sq + mu_b_sq + c1) * (var_a + var_b + c2)
    )
    return float(index.mean())


def _uqi(a: np.ndarray, aa: np.ndarray, ab: np.ndarray, ref: PreparedReference) -> float:
    total_b, mu_b, mu_b_sq, var_b, spread_b = ref.uqi_stats
    win = ref.params.uqi_window
    n, ones = win * win, np.ones(win)
    total_a, total_aa = window_sums(a, ones), window_sums(aa, ones)

    # Decided on the unweighted sums, which are exact for integer-valued
    # images: both windows are flat iff n*sum(a*a) - sum(a)**2 and its b
    # counterpart are 0, and their means are equal iff the sums are.
    degenerate = (n * total_aa - total_a * total_a) + spread_b <= 0
    skip = None
    if degenerate.any():
        skip = degenerate & (total_a == total_b)
        if skip.all():
            return 0.0

    mu_a = total_a / n
    mu_a_sq = mu_a**2
    var_a = total_aa / n - mu_a_sq
    # freed before the q temporaries are made, the memory peak of scoring
    del total_a, total_aa
    cov = window_sums(ab, ones) / n - mu_a * mu_b
    with np.errstate(divide="ignore", invalid="ignore"):
        q = (4.0 * cov * mu_a * mu_b) / ((var_a + var_b) * (mu_a_sq + mu_b_sq))
    if skip is not None:
        q = np.where(degenerate, 0.0, q)
        if skip.any():
            q = q[~skip]
    # q is C-contiguous, so a full q sums in the order of its compacted copy
    return float(q.mean())


def ssim(a, b, params: MetricParams = MetricParams()) -> float:
    """Mean structural similarity with a Gaussian-weighted sliding window.

    Windows lie fully inside the image (no padding); stabilizers use the
    standard K1=0.01, K2=0.03 on the 255 dynamic range. `b` may be a
    PreparedReference for `params`.
    """
    a, ref = _prepared_pair(a, b, params)
    return _ssim(a, a * a, a * ref.values, ref)


def uqi(a, b, params: MetricParams = MetricParams()) -> float:
    """Universal image quality index over uniform sliding windows.

    Fully degenerate windows (zero variance and zero means) are skipped;
    zero-variance windows with differing means contribute 0. Identical flat
    windows carry no information and are skipped as well. `b` may be a
    PreparedReference for `params`.
    """
    a, ref = _prepared_pair(a, b, params)
    return _uqi(a, a * a, a * ref.values, ref)


METRIC_NAMES = ("rmse", "psnr", "ssim", "uqi")


def compute_all(a, b, params: MetricParams = MetricParams()) -> dict:
    """All four metrics for one image pair; `b` may be a PreparedReference for `params`."""
    a, ref = _prepared_pair(a, b, params)
    err = _rmse(a, ref.values)
    aa, ab = a * a, a * ref.values
    return {
        "rmse": err,
        "psnr": _psnr(err),
        "ssim": _ssim(a, aa, ab, ref),
        "uqi": _uqi(a, aa, ab, ref),
    }


def aggregate(
    records: list[MetricRecord], band_name: str, algorithm: str, metric_name: str
) -> AggregateCell:
    """Mean and population std over the group's finite metric values.

    Records are sorted by image_id first so the reduction is independent
    of arrival order; non-finite values (PSNR +inf) and error records are
    counted as excluded.
    """
    group = [
        r
        for r in records
        if r.band_name == band_name and r.algorithm == algorithm
    ]
    if not group:
        raise EmptyGroupError(f"no records for ({band_name}, {algorithm})")
    group.sort(key=lambda r: r.image_id)
    values = np.array(
        [getattr(r, metric_name) if not r.error else math.nan for r in group]
    )
    finite = values[np.isfinite(values)]
    n_excluded = len(values) - len(finite)
    if len(finite) == 0:
        return AggregateCell(band_name, algorithm, metric_name, math.nan, math.nan, 0, n_excluded)
    mean = float(finite.mean())
    std = float(np.sqrt(np.mean((finite - mean) ** 2)))
    return AggregateCell(band_name, algorithm, metric_name, mean, std, len(finite), n_excluded)
