"""Image quality metrics: RMSE, PSNR, SSIM and UQI.

SSIM's Gaussian-weighted and UQI's unweighted window sums are taken by
`preprocess.window_sums`: along the last axis first, each output adding its
products one after another in kernel order, at every plane width. The
golden records are pinned to the bits of that order, so keep it. UQI's sums
are exact integers on integer-valued images (every edge map), whatever the
order; SSIM's are not.

A scored candidate `a` enters the window sums through
`preprocess.transposed_window_sums`: its transpose is built once, straight
from the uint8 map, and a*a and a*b are taken on it, so SSIM and UQI share
the first step of every sum and keep its order. RMSE is taken in the
original layout, where the pairwise order of its mean fixes its bits.

`compute_all`, the one scorer, scores a plane of at least `_THREAD_PIXELS`
(160²) pixels on two threads: UQI on a second thread (`threads.run_beside`),
SSIM on the caller's. numpy releases the GIL in its loops, so the two
overlap. On a shared 2-vCPU host, serial against threaded took 0.7 / 1.2 ms
a cell at 64², 1.8 / 1.9 ms at 128², 2.1 / 2.1 ms at 144², 2.5 / 2.4 ms at
160² and 6.7 / 5.0 ms at 256² (median of many interleaved calls), so smaller
planes stay serial. `PreparedReference.window_stats` builds both reference
statistics first, SSIM's before UQI's: a window fault shows as in the serial
order, and the threads only read them (`cached_property` takes no lock from
Python 3.12). `detect --label` builds them on its reference thread.

Neither thread writes what the other reads, so the bits are the serial
ones. Each metric builds its index in place, in buffers it already holds:
`num = mu_a; num *= 2; num *= mu_b; num += c1` performs the operations of
`2 * mu_a * mu_b + c1` on the same operands in the same order, and every
one of them is rounded once either way, so in-place arithmetic moves no
bit. It only lowers the memory two threads hold at once, as does popping
each product of the candidate once its last sum is taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParamError, ShapeError, WindowError
from .preprocess import check_sigma, gaussian_kernel_1d, transposed_window_sums, window_sums
from .threads import run_beside


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


def _rmse(a: np.ndarray, b: np.ndarray) -> float:
    # a - b casts each sample of a to float64 exactly, as a float copy would
    return float(np.sqrt(np.mean((a - b) ** 2)))


def _psnr(err: float) -> float:
    if err == 0.0:
        return math.inf
    return 20.0 * math.log10(255.0 / err)


def _check_window(shape: tuple, window: int, metric: str) -> None:
    if min(shape) < window:
        raise WindowError(f"image {shape} smaller than {metric} window {window}")


@dataclass(frozen=True, eq=False)
class PreparedReference:
    """A reference image with its window statistics, computed once for many candidates.

    The statistics are built on first use and then kept, so scoring every
    edge map of a scene against one PreparedReference does the
    reference-only work once. They stay lazy so that a window fault belongs
    to each cell and comes after its own faults: `evaluate` prepares a
    scene's reference before any band, and a cell's preprocessing and
    detection run before it is scored, so a band fault wins over a window
    fault there, as it does in `detect --label`.
    """

    values: np.ndarray  # 2D float64
    params: MetricParams = MetricParams()

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))

    @cached_property
    def window_stats(self) -> tuple:
        """SSIM's Gaussian weights, then mu_b, mu_b**2 and var_b per window; then UQI's
        sum(b), mu_b, mu_b**2, var_b and n*sum(b*b) - sum(b)**2 per window."""
        b, params = self.values, self.params
        _check_window(b.shape, params.ssim_window, "SSIM")
        weights = gaussian_kernel_1d(params.ssim_window, params.ssim_sigma)
        mu = window_sums(b, weights)
        mu_sq = mu**2
        ssim_stats = weights, mu, mu_sq, window_sums(b * b, weights) - mu_sq

        win = params.uqi_window
        _check_window(b.shape, win, "UQI")
        n, ones = win * win, np.ones(win)
        total, total_sq = window_sums(b, ones), window_sums(b * b, ones)
        mu = total / n
        mu_sq = mu**2
        return ssim_stats, (total, mu, mu_sq, total_sq / n - mu_sq, n * total_sq - total * total)


def _transposed_products(a: np.ndarray, ref: PreparedReference) -> list:
    """a, a*a and a*b as C-ordered float64 transposes, for `transposed_window_sums`."""
    at = np.array(a.swapaxes(-1, -2), dtype=np.float64, order="C")
    return [at, at * at, at * ref.values.swapaxes(-1, -2)]


# Each metric pops a product from its own list as it sums it, so a product is
# freed once both metrics have taken their last sum of it. The in-place steps
# below are those of the expression in the comment above them, in its order.


def _ssim(products: list, ref: PreparedReference) -> float:
    weights, mu_b, mu_b_sq, var_b = ref.window_stats[0]
    mu_a = transposed_window_sums(products.pop(0), weights)
    var_a = transposed_window_sums(products.pop(0), weights)
    var_a -= mu_a**2
    cov = transposed_window_sums(products.pop(0), weights)
    cov -= mu_a * mu_b

    c1 = (0.01 * 255.0) ** 2
    c2 = (0.03 * 255.0) ** 2
    # ((2*mu_a*mu_b + c1) * (2*cov + c2)) / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))
    var_a += var_b
    var_a += c2
    den = mu_a**2
    den += mu_b_sq
    den += c1
    den *= var_a
    del var_a
    num = mu_a
    num *= 2
    num *= mu_b
    num += c1
    cov *= 2
    cov += c2
    num *= cov
    del cov
    num /= den
    return float(num.mean())


def _uqi(products: list, ref: PreparedReference) -> float:
    total_b, mu_b, mu_b_sq, var_b, spread_b = ref.window_stats[1]
    win = ref.params.uqi_window
    n, ones = win * win, np.ones(win)
    total_a = transposed_window_sums(products.pop(0), ones)
    total_aa = transposed_window_sums(products.pop(0), ones)

    # Decided on the unweighted sums, which are exact for integer-valued
    # images: both windows are flat iff n*sum(a*a) - sum(a)**2 and its b
    # counterpart are 0, and their means are equal iff the sums are.
    spread = n * total_aa
    spread -= total_a * total_a
    spread += spread_b
    degenerate = spread <= 0
    del spread
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

    mu_a = total_a
    mu_a /= n
    var_a = total_aa
    var_a /= n
    var_a -= mu_a**2
    del total_a, total_aa
    cov = transposed_window_sums(products.pop(0), ones)
    if keep is not None:
        cov = cov.ravel()[keep]
    cov /= n
    cov -= mu_a * mu_b
    # (4*cov*mu_a*mu_b) / ((var_a + var_b) * (mu_a**2 + mu_b**2))
    q = cov
    q *= 4.0
    q *= mu_a
    q *= mu_b
    del cov
    var_a += var_b
    mu_a *= mu_a
    mu_a += mu_b_sq
    var_a *= mu_a
    del mu_a
    with np.errstate(divide="ignore", invalid="ignore"):
        q /= var_a
    if degenerate is not None:
        q[degenerate] = 0.0
    # q is C-contiguous, so a whole-plane q sums in the order of a gathered one.
    # Each index lies in [-1, 1] in exact arithmetic, but a rounded one can
    # land an ulp outside it (identical images can give 1.0000000000000002),
    # and so can their mean; np.clip brings the mean back and keeps a NaN.
    return float(np.clip(q.mean(), -1.0, 1.0))


METRIC_NAMES = ("rmse", "psnr", "ssim", "uqi")

# Planes of at least this many pixels are scored on two threads, SSIM on the
# caller's and UQI on a second one (see the module docstring).
_THREAD_PIXELS = 160 * 160


def compute_all(a, reference: PreparedReference) -> dict:
    """RMSE, PSNR, SSIM and UQI of candidate `a` against `reference`, with its `params`.

    Images are on the 0..255 scale and of one shape. RMSE is the root mean
    square pixel error and PSNR is 20*log10(255 / RMSE) dB, +inf for
    identical images. SSIM is the mean structural similarity over a
    Gaussian-weighted sliding window, and UQI the mean universal quality
    index over a uniform one. Windows lie fully inside the image (no
    padding); SSIM's stabilizers use the standard K1=0.01, K2=0.03 on the
    255 dynamic range. UQI skips a window flat in both images at one level
    (it carries no information), scores 0 a window flat in both at differing
    levels, and is 0 when every window is skipped. A window that does not
    fit the image is a WindowError, SSIM's checked first.
    """
    a = np.asarray(a)
    if a.shape != reference.values.shape:
        raise ShapeError(f"image shapes differ: {a.shape} vs {reference.values.shape}")
    err = _rmse(a, reference.values)
    reference.window_stats  # built before any thread reads them
    at, aat, abt = _transposed_products(a, reference)
    ssim_products, uqi_products = [at, aat, abt], [at, aat, abt]
    del at, aat, abt
    if a.size >= _THREAD_PIXELS:
        ssim_value, uqi_value = run_beside(
            lambda: _uqi(uqi_products, reference), lambda: _ssim(ssim_products, reference)
        )
    else:
        ssim_value, uqi_value = _ssim(ssim_products, reference), _uqi(uqi_products, reference)
    return {"rmse": err, "psnr": _psnr(err), "ssim": ssim_value, "uqi": uqi_value}
