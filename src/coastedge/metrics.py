"""Image quality metrics: RMSE, PSNR, SSIM and UQI.

SSIM's Gaussian-weighted and UQI's unweighted window sums are taken by
`preprocess.window_sums`: along the last axis first, each output adding its
products one after another in kernel order. The golden records are pinned
to the bits of that order, so keep it. UQI's sums are exact integers on
integer-valued images (every edge map), whatever the order; SSIM's are not.

A scored candidate `a` enters the window sums through
`preprocess.transposed_window_sums`: its transpose is built once, straight
from the uint8 map, and a*a and a*b are taken on it, so SSIM and UQI share
the first step of every sum and keep its order. RMSE is taken in the
original layout, where the pairwise order of its mean fixes its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParamError, ShapeError, WindowError
from .preprocess import check_sigma, gaussian_kernel_1d, transposed_window_sums, window_sums


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


def _as_float(img) -> np.ndarray:
    if isinstance(img, PreparedReference):
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
    """The candidate as an array of its own dtype and the reference prepared for `params`."""
    a = np.asarray(a)
    if not isinstance(b, PreparedReference):
        b = PreparedReference(b, params)
    elif b.params != params:
        raise ParamError(f"reference prepared for {b.params}, scored with {params}")
    if a.shape != b.values.shape:
        raise ShapeError(f"image shapes differ: {a.shape} vs {b.values.shape}")
    return a, b


def _transposed_products(a: np.ndarray, ref: PreparedReference) -> tuple:
    """a, a*a and a*b as C-ordered float64 transposes, for `transposed_window_sums`."""
    at = np.array(a.swapaxes(-1, -2), dtype=np.float64, order="C")
    return at, at * at, at * ref.values.swapaxes(-1, -2)


def _ssim(at: np.ndarray, aat: np.ndarray, abt: np.ndarray, ref: PreparedReference) -> float:
    weights, mu_b, mu_b_sq, var_b = ref.ssim_stats
    mu_a = transposed_window_sums(at, weights)
    mu_a_sq = mu_a**2
    var_a = transposed_window_sums(aat, weights) - mu_a_sq
    cov = transposed_window_sums(abt, weights) - mu_a * mu_b

    c1 = (0.01 * 255.0) ** 2
    c2 = (0.03 * 255.0) ** 2
    index = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a_sq + mu_b_sq + c1) * (var_a + var_b + c2)
    )
    return float(index.mean())


def _uqi(at: np.ndarray, aat: np.ndarray, abt: np.ndarray, ref: PreparedReference) -> float:
    total_b, mu_b, mu_b_sq, var_b, spread_b = ref.uqi_stats
    win = ref.params.uqi_window
    n, ones = win * win, np.ones(win)
    total_a, total_aa = transposed_window_sums(at, ones), transposed_window_sums(aat, ones)

    # Decided on the unweighted sums, which are exact for integer-valued
    # images: both windows are flat iff n*sum(a*a) - sum(a)**2 and its b
    # counterpart are 0, and their means are equal iff the sums are.
    degenerate = (n * total_aa - total_a * total_a) + spread_b <= 0
    keep = None
    if not degenerate.any():
        degenerate = None
    else:
        skip = degenerate & (total_a == total_b)
        if skip.all():
            return 0.0
        if skip.any():
            # only the windows that count, gathered in C order: each of their
            # q is computed as on the whole plane, on a fraction of it (on a
            # Canny map most windows are skipped)
            keep = np.flatnonzero(~skip)
            total_a = total_a.ravel()[keep]
            total_aa = total_aa.ravel()[keep]
            degenerate = degenerate.ravel()[keep]
            mu_b, mu_b_sq, var_b = mu_b.ravel()[keep], mu_b_sq.ravel()[keep], var_b.ravel()[keep]

    mu_a = total_a / n
    mu_a_sq = mu_a**2
    var_a = total_aa / n - mu_a_sq
    # each sum is freed before the next full-plane temporaries are made,
    # the memory peak of scoring
    del total_a, total_aa
    total_ab = transposed_window_sums(abt, ones)
    if keep is not None:
        total_ab = total_ab.ravel()[keep]
    cov = total_ab / n - mu_a * mu_b
    del total_ab
    with np.errstate(divide="ignore", invalid="ignore"):
        q = (4.0 * cov * mu_a * mu_b) / ((var_a + var_b) * (mu_a_sq + mu_b_sq))
    if degenerate is not None:
        q = np.where(degenerate, 0.0, q)
    # q is C-contiguous, so a whole-plane q sums in the order of a gathered one.
    # Each index lies in [-1, 1] in exact arithmetic, but a rounded one can
    # land an ulp outside it (identical images can give 1.0000000000000002),
    # and so can their mean; np.clip brings the mean back and keeps a NaN.
    return float(np.clip(q.mean(), -1.0, 1.0))


def ssim(a, b, params: MetricParams = MetricParams()) -> float:
    """Mean structural similarity with a Gaussian-weighted sliding window.

    Windows lie fully inside the image (no padding); stabilizers use the
    standard K1=0.01, K2=0.03 on the 255 dynamic range. `b` may be a
    PreparedReference for `params`.
    """
    a, ref = _prepared_pair(a, b, params)
    return _ssim(*_transposed_products(a, ref), ref)


def uqi(a, b, params: MetricParams = MetricParams()) -> float:
    """Universal image quality index over uniform sliding windows.

    Fully degenerate windows (zero variance and zero means) are skipped;
    zero-variance windows with differing means contribute 0. Identical flat
    windows carry no information and are skipped as well. `b` may be a
    PreparedReference for `params`.
    """
    a, ref = _prepared_pair(a, b, params)
    return _uqi(*_transposed_products(a, ref), ref)


METRIC_NAMES = ("rmse", "psnr", "ssim", "uqi")


def compute_all(a, b, params: MetricParams = MetricParams()) -> dict:
    """All four metrics for one image pair; `b` may be a PreparedReference for `params`."""
    a, ref = _prepared_pair(a, b, params)
    # a - b casts each sample of a to float64 exactly, as a float copy would
    err = _rmse(a, ref.values)
    products = _transposed_products(a, ref)
    return {
        "rmse": err,
        "psnr": _psnr(err),
        "ssim": _ssim(*products, ref),
        "uqi": _uqi(*products, ref),
    }
