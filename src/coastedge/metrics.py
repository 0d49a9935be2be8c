"""Image quality metrics: RMSE, PSNR, SSIM and UQI.

SSIM's Gaussian-weighted and UQI's unweighted window sums are taken by
`preprocess.window_sums`: along the last axis first, each output adding its
products one after another in kernel order, at every plane width. The
golden records are pinned to the bits of that order, so keep it. UQI's sums
are exact integers on integer-valued images (every edge map), whatever the
order; SSIM's are not.

Every window sum with the reference b as a factor (of b, b*b and a*b) is
taken on `PreparedReference.box` alone, the crop that holds every window
with a nonzero sample of b, and written into zeros; this keeps every bit.
The kernel adds each output's taps to +0 one after another. A tap on a zero
sample adds w*0 = +-0, and x + (+-0) = x for every partial sum it can hold
(the sum starts at +0, and only -0 + -0 gives -0). So a sum's bits depend
only on its nonzero taps, in kernel order: a window outside the box sums to
+0 as it does on the whole plane, and a window inside it adds the same taps
from the crop in the same order. Reference coastlines are thin: on a 256²
sinusoid chip the box covers 24% of the plane, on a 256² blob 57%. The one
result this changes is that of a candidate with a non-finite sample outside
the box, whose a*b there was NaN; edge maps are uint8, and `compute_all`
takes 0..255 images.

A scored candidate `a` enters the window sums through
`preprocess.transposed_window_sums`: its transpose is built once, straight
from the uint8 map, and a*a and (on the box's crop) a*b are taken on it, so
SSIM and UQI share the first step of every sum and keep its order. RMSE is
taken in the original layout, where the pairwise order of its mean fixes
its bits.

`compute_all`, the one scorer, scores a plane of at least `_THREAD_PIXELS`
(160²) pixels on two threads: UQI on a second thread (`threads.run_beside`),
SSIM on the caller's. numpy releases the GIL in its loops, so the two
overlap. On a shared 2-vCPU host, serial against threaded took 0.6 / 1.4 ms
a cell at 64², 1.5-1.7 / 1.6-2.0 ms at 128², 2.1-2.2 / 2.2-2.3 ms at 144²,
2.4-2.6 / 2.4 ms at 160² and 5.8-6.0 / 4.6 ms at 256² (2026-10-21, medians
of 60 interleaved rounds, two runs), so smaller planes stay serial.
`PreparedReference.window_stats` builds its `box`, then both reference
statistics, SSIM's before UQI's: a window fault shows as in the serial
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
from .preprocess import check_sigma, gaussian_kernel_1d, transposed_window_sums
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
    def box(self) -> tuple | None:
        """(rows, cols, transposed): the crop of the plane that holds every window
        with a nonzero sample, and the crop's C-ordered float64 transpose.

        The crop is the bounding box of the nonzero samples (a NaN counts as
        one), widened on each side by the larger window less one and clamped
        to the plane, so it is at least as long as either window wherever
        that window fits the plane. None when every sample is zero.
        """
        b = self.values
        nonzero = b != 0
        rows, cols = np.flatnonzero(nonzero.any(axis=1)), np.flatnonzero(nonzero.any(axis=0))
        if rows.size == 0:
            return None
        margin = max(self.params.ssim_window, self.params.uqi_window) - 1
        height, width = b.shape
        rows = slice(max(int(rows[0]) - margin, 0), min(int(rows[-1]) + 1 + margin, height))
        cols = slice(max(int(cols[0]) - margin, 0), min(int(cols[-1]) + 1 + margin, width))
        return rows, cols, np.ascontiguousarray(b[rows, cols].T)

    @cached_property
    def window_stats(self) -> tuple:
        """SSIM's Gaussian weights, then mu_b, mu_b**2 and var_b per window; then UQI's
        sum(b), mu_b, mu_b**2, var_b and n*sum(b*b) - sum(b)**2 per window."""
        b, params = self.values, self.params
        _check_window(b.shape, params.ssim_window, "SSIM")
        box = self.box
        bt = None if box is None else box[2]
        bbt = None if box is None else bt * bt
        weights = gaussian_kernel_1d(params.ssim_window, params.ssim_sigma)
        mu = _box_window_sums(bt, weights, self)
        mu_sq = mu**2
        ssim_stats = weights, mu, mu_sq, _box_window_sums(bbt, weights, self) - mu_sq

        win = params.uqi_window
        _check_window(b.shape, win, "UQI")
        n, ones = win * win, np.ones(win)
        total, total_sq = _box_window_sums(bt, ones, self), _box_window_sums(bbt, ones, self)
        mu = total / n
        mu_sq = mu**2
        return ssim_stats, (total, mu, mu_sq, total_sq / n - mu_sq, n * total_sq - total * total)


def _box_window_sums(transposed, kernel: np.ndarray, ref: PreparedReference) -> np.ndarray:
    """`window_sums` of a plane that is 0 outside `ref.box`, from the crop's C-ordered
    transpose (None when there is no box), with the whole plane's bits (see above)."""
    k = len(kernel)
    height, width = ref.values.shape
    shape = (height - k + 1, width - k + 1)
    if transposed is None:
        return np.zeros(shape)
    sums = transposed_window_sums(transposed, kernel)
    if sums.shape == shape:
        return sums
    rows, cols, _ = ref.box
    out = np.zeros(shape)
    out[rows.start : rows.stop - k + 1, cols.start : cols.stop - k + 1] = sums
    return out


def _transposed_products(a: np.ndarray, ref: PreparedReference) -> list:
    """a, a*a and a*b as C-ordered float64 transposes; a*b on `ref.box`'s crop only."""
    at = np.array(a.swapaxes(-1, -2), dtype=np.float64, order="C")
    box = ref.box
    abt = None if box is None else at[box[1], box[0]] * box[2]
    return [at, at * at, abt]


# Each metric pops a product from its own list as it sums it, so a product is
# freed once both metrics have taken their last sum of it. The in-place steps
# below are those of the expression in the comment above them, in its order.


def _ssim(products: list, ref: PreparedReference) -> float:
    weights, mu_b, mu_b_sq, var_b = ref.window_stats[0]
    mu_a = transposed_window_sums(products.pop(0), weights)
    var_a = transposed_window_sums(products.pop(0), weights)
    var_a -= mu_a**2
    cov = _box_window_sums(products.pop(0), weights, ref)
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
    cov = _box_window_sums(products.pop(0), ones, ref)
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
    fit the image is a WindowError, SSIM's checked first. SSIM's and UQI's
    sums of a*b are taken on the reference's box alone (see the module
    docstring), so a non-finite sample of `a` outside it, which is no 0..255
    value, does not turn them into NaN.
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
