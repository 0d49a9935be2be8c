"""Band preprocessing: min-max scaling, histogram equalization, noise reduction.

Every step is a pure array -> array transform on float64 samples of shape
(..., H, W): each plane over the last two axes is processed on its own, so
a band stack and a single 2D band take the same code.
Quantization always uses round-half-up so results are bit-reproducible.

`window_sums` is the one separable window-sum kernel: the Gaussian blur here
(Canny's smoothing too) and the SSIM and UQI window statistics in `metrics`
go through it. It sums along the last axis first, then along the one before
it, and each output adds its products to 0 one after another, in kernel
order. Keep that order: float sums taken in another order round differently,
and the golden records and the benchmark digests are pinned to these bits
(Canny's NMS keeps a pixel on a tie, so one ulp of blur can move an edge).
Its first step is a C-ordered copy of each plane's transpose;
`transposed_window_sums` is the rest, for a caller that already holds that
copy, and `window_sums` is the copy followed by it, so both keep one order.

A 64x64 plane is small enough that numpy's per-call cost weighs as much as
the arithmetic, and every stage goes through these helpers many times per
cell. So the window view is built directly as an ndarray on the planes'
buffer (2.9 us a call, against 23 us for numpy's sliding-window view), and
`pad_edges` replicates borders by slice copies (numpy.pad in edge mode
costs about 50 us a call at 64x64 and at 256x256). Both give the same
values, so every sum keeps its bits.

The closing is a separable window max, then a window min, over edge pads;
max and min are exact, so it equals scipy.ndimage.grey_closing in nearest
mode bit for bit. This package needs numpy alone at run time: importing
scipy.ndimage took 0.4 s of a fresh process, and its closing ran 3-6x
slower than these numpy passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KernelTooLarge, ParamError

NOISE_REDUCTIONS = ("none", "gaussian", "closing")


@dataclass(frozen=True)
class PreprocessSpec:
    """Preprocessing configuration: scaling is always on."""

    equalize: bool = True
    noise_reduction: str = "gaussian"
    gaussian_kernel_size: int = 5
    gaussian_sigma: float = 1.0
    closing_element: int = 3

    def __post_init__(self):
        if self.noise_reduction not in NOISE_REDUCTIONS:
            raise ParamError(f"bad noise_reduction {self.noise_reduction!r}")
        if self.gaussian_kernel_size < 3 or self.gaussian_kernel_size % 2 == 0:
            raise ParamError("gaussian_kernel_size must be odd and >= 3")
        check_sigma("gaussian_sigma", self.gaussian_sigma)
        if self.closing_element < 3 or self.closing_element % 2 == 0:
            raise ParamError("closing_element must be odd and >= 3")

    @property
    def tag(self) -> str:
        """Stable identifier used in records and report files."""
        return f"eq={'on' if self.equalize else 'off'},noise={self.noise_reduction}"


def round_half_up(x: np.ndarray) -> np.ndarray:
    """Round half-up quantization of non-negative float values, in x's own buffer."""
    x += 0.5
    return np.floor(x, out=x)


def normalize_planes(image: np.ndarray) -> np.ndarray:
    """Min-max map of each float plane (..., H, W) to the 0..255 scale; constant planes give 0.

    Subtract, divide and scale run in one buffer.
    """
    lo = image.min(axis=(-2, -1), keepdims=True)
    span = image.max(axis=(-2, -1), keepdims=True) - lo
    # a constant plane has image - lo == 0, so any nonzero span gives its zeros
    out = image - lo
    out /= np.where(span == 0, 1.0, span)
    out *= 255.0
    return out


def scale_minmax(image: np.ndarray) -> np.ndarray:
    """Rescale each plane (..., H, W) to 0..255 integers. Constant planes map to all zeros."""
    return round_half_up(normalize_planes(image))


def equalize_histogram(image: np.ndarray) -> np.ndarray:
    """Classic 256-bin CDF remap of each plane (..., H, W). Expects 0..255 integer samples.

    One bincount serves every plane: plane p's samples are offset by 256 * p.
    A constant plane is left as it is.
    """
    planes = image.reshape(-1, image.shape[-2] * image.shape[-1]).astype(np.int64)
    count, n = planes.shape
    bins = planes + 256 * np.arange(count)[:, None]
    cdf = np.cumsum(np.bincount(bins.ravel(), minlength=256 * count).reshape(count, 256), axis=1)
    cdf_min = cdf[np.arange(count), planes.min(axis=1)][:, None]
    constant = cdf_min[:, 0] == n
    remap = round_half_up((cdf - cdf_min) / np.where(constant[:, None], 1, n - cdf_min) * 255.0)
    remap[constant] = np.arange(256)
    return remap.ravel()[bins].reshape(image.shape)


def check_sigma(name: str, sigma: float) -> None:
    """Reject a Gaussian sigma that is not > 0 or whose square underflows to 0."""
    if not (sigma > 0 and sigma * sigma > 0):
        raise ParamError(f"{name} must be > 0 with a square above 0, got {sigma}")


def gaussian_kernel_1d(size: int, sigma: float) -> np.ndarray:
    """Sampled, sum-normalized 1D Gaussian of odd length."""
    if size < 1 or size % 2 == 0:
        raise ParamError("gaussian kernel size must be odd and positive")
    offsets = np.arange(size) - size // 2
    # a tiny sigma's outer exponents overflow to -inf, whose weight is 0
    with np.errstate(over="ignore"):
        weights = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    return weights / weights.sum()


def window_sums(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Separable weighted sums over the windows fully inside each plane (..., H, W).

    Gives (..., H - k + 1, W - k + 1) for a kernel of length k, summed along
    the last axis first. Each output adds its k products to 0 one after
    another, in kernel order, as a sequential loop would. The one exception
    is W == k: with a single output per row, einsum sums the second pass in
    an order of its own, which can differ in the last bits.
    """
    return transposed_window_sums(np.ascontiguousarray(image.swapaxes(-1, -2)), kernel)


def transposed_window_sums(transposed: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """`window_sums` of the image whose planes `transposed` holds transposed.

    `transposed` must be C-ordered; other layouts raise ValueError. The
    result is in the image's own layout, with the bits of `window_sums`. A
    caller that sums several products of one image (SSIM and UQI take a,
    a*a and a*b) builds the transpose once.
    """
    rows = _column_window_sums(transposed, kernel)
    return _column_window_sums(np.ascontiguousarray(rows.swapaxes(-1, -2)), kernel)


def _column_window_sums(planes: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Window sums down axis -2 of C-ordered planes, taps added in kernel order."""
    # Here the summed axis is the strided one: einsum's inner loop runs along
    # the contiguous axis and adds the taps in its outer loop, one after
    # another. Summing along the contiguous axis (matmul, or einsum's
    # reduction loops) is 2.5-3x slower at 256x256, and the reduction loops
    # take another order.
    # The (..., H - k + 1, W, k) window view is built directly on the planes'
    # buffer, with the strides numpy's sliding-window view would give it: on
    # a 64x64 plane that takes 2.9 us a call, against 23 us for the
    # sliding-window view and 10 us for as_strided, while the einsum after it
    # takes 22 us. The buffer is only read right for C-ordered planes, and a
    # window longer than the planes would give an empty view, so both are
    # refused here.
    if not planes.flags.c_contiguous:
        raise ValueError("window sums need C-ordered planes")
    k, height = len(kernel), planes.shape[-2]
    if k > height:
        raise ValueError(f"window {k} longer than the planes' axis of {height}")
    s = planes.strides
    windows = np.ndarray(
        (*planes.shape[:-2], height - k + 1, planes.shape[-1], k),
        planes.dtype,
        buffer=planes,
        strides=(*s[:-1], s[-1], s[-2]),
    )
    return np.einsum("...ijk,k->...ij", windows, kernel)


def pad_edges(image: np.ndarray, width: int) -> np.ndarray:
    """Each plane (..., H, W) as float64 with a `width`-pixel edge-replicated border.

    Equals numpy.pad(image, ..., mode="edge") cast to float64, without its
    per-call cost (about 50 us on a 64x64 plane): the plane is copied into
    the centre, then the edge columns out to the sides, then the edge rows,
    corners included, up and down.
    """
    image = np.asarray(image)
    h, w = image.shape[-2:]
    out = np.empty((*image.shape[:-2], h + 2 * width, w + 2 * width))
    bottom, right = width + h, width + w
    out[..., width:bottom, width:right] = image
    out[..., width:bottom, :width] = image[..., :, :1]
    out[..., width:bottom, right:] = image[..., :, -1:]
    out[..., :width, :] = out[..., width : width + 1, :]
    out[..., bottom:, :] = out[..., bottom - 1 : bottom, :]
    return out


def blur_array(image: np.ndarray, kernel_size: int, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of each plane (..., H, W) of a float array (no quantization)."""
    if kernel_size > min(image.shape[-2:]):
        raise KernelTooLarge(f"kernel {kernel_size} larger than image {image.shape[-2:]}")
    padded = pad_edges(image, kernel_size // 2)
    return window_sums(padded, gaussian_kernel_1d(kernel_size, sigma))


def gaussian_blur(image: np.ndarray, kernel_size: int = 5, sigma: float = 1.0) -> np.ndarray:
    """Gaussian blur, re-quantized to 0..255 by round-and-clamp."""
    out = blur_array(image, kernel_size, sigma)
    return np.clip(round_half_up(out), 0.0, 255.0)


def _window_extreme(image: np.ndarray, size: int, extreme) -> np.ndarray:
    """`extreme` (np.maximum or np.minimum) over each size x size window of each plane.

    Edge-replicated borders, taken separably: along the rows of the padded
    planes, then down their columns. Max and min are exact, so the order of
    the taps does not matter.
    """
    h, w = image.shape[-2:]
    padded = pad_edges(image, size // 2)
    rows = extreme(padded[..., :, :w], padded[..., :, 1 : 1 + w])
    for t in range(2, size):
        extreme(rows, padded[..., :, t : t + w], out=rows)
    out = extreme(rows[..., :h, :], rows[..., 1 : 1 + h, :])
    for t in range(2, size):
        extreme(out, rows[..., t : t + h, :], out=out)
    return out


def morphological_closing(image: np.ndarray, element_size: int = 3) -> np.ndarray:
    """Grayscale closing of each plane (..., H, W): window max, then window min.

    Square element, edge-replicated borders; the element may be wider than
    the planes, where the border pad is too.
    """
    if element_size < 3 or element_size % 2 == 0:
        raise ParamError("closing element must be odd and >= 3")
    dilated = _window_extreme(image, element_size, np.maximum)
    return _window_extreme(dilated, element_size, np.minimum)


def run_pipeline(image: np.ndarray, spec: PreprocessSpec) -> np.ndarray:
    """Apply scale -> (equalize) -> (noise reduction) in order to each plane (..., H, W)."""
    out = scale_minmax(image)
    if spec.equalize:
        out = equalize_histogram(out)
    if spec.noise_reduction == "gaussian":
        out = gaussian_blur(out, spec.gaussian_kernel_size, spec.gaussian_sigma)
    elif spec.noise_reduction == "closing":
        out = morphological_closing(out, spec.closing_element)
    return out
