"""Band preprocessing: min-max scaling, histogram equalization, noise reduction.

Every step is a pure array -> array transform on 2D float64 samples.
Quantization always uses round-half-up so results are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

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
        if self.gaussian_sigma <= 0:
            raise ParamError("gaussian_sigma must be > 0")
        if self.closing_element < 3 or self.closing_element % 2 == 0:
            raise ParamError("closing_element must be odd and >= 3")

    @property
    def tag(self) -> str:
        """Stable identifier used in records and report files."""
        return f"eq={'on' if self.equalize else 'off'},noise={self.noise_reduction}"


def round_half_up(x: np.ndarray) -> np.ndarray:
    """Round half-up quantization for non-negative values."""
    return np.floor(np.asarray(x) + 0.5)


def scale_minmax(image: np.ndarray) -> np.ndarray:
    """Linearly rescale samples to 0..255 integers. Constant images map to all zeros."""
    lo, hi = image.min(), image.max()
    if hi == lo:
        return np.zeros_like(image)
    return round_half_up((image - lo) / (hi - lo) * 255.0)


def equalize_histogram(image: np.ndarray) -> np.ndarray:
    """Classic 256-bin CDF remap. Expects 0..255 integer samples."""
    x = image.astype(np.int64)
    hist = np.bincount(x.ravel(), minlength=256)
    cdf = np.cumsum(hist)
    occupied = np.nonzero(hist)[0]
    cdf_min = cdf[occupied[0]]
    n = x.size
    if cdf_min == n:
        # constant image: nothing to stretch
        return image
    remap = round_half_up((cdf - cdf_min) / (n - cdf_min) * 255.0)
    return remap[x].astype(np.float64)


def gaussian_kernel_1d(size: int, sigma: float) -> np.ndarray:
    """Sampled, sum-normalized 1D Gaussian of odd length."""
    if size < 1 or size % 2 == 0:
        raise ParamError("gaussian kernel size must be odd and positive")
    offsets = np.arange(size) - size // 2
    weights = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    return weights / weights.sum()


def _correlate_rows(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """1D correlation along rows with edge replication, same output size."""
    half = len(kernel) // 2
    padded = np.pad(image, ((0, 0), (half, half)), mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, len(kernel), axis=1)
    return windows @ kernel


def blur_array(image: np.ndarray, kernel_size: int, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of a 2D float array (no quantization)."""
    if kernel_size > min(image.shape):
        raise KernelTooLarge(
            f"kernel {kernel_size} larger than image {image.shape}"
        )
    k = gaussian_kernel_1d(kernel_size, sigma)
    out = _correlate_rows(image, k)
    out = _correlate_rows(out.T, k).T
    return out


def gaussian_blur(image: np.ndarray, kernel_size: int = 5, sigma: float = 1.0) -> np.ndarray:
    """Gaussian blur, re-quantized to 0..255 by round-and-clamp."""
    out = blur_array(image, kernel_size, sigma)
    return np.clip(round_half_up(out), 0.0, 255.0)


def morphological_closing(image: np.ndarray, element_size: int = 3) -> np.ndarray:
    """Grayscale closing: window max (dilation) then window min (erosion).

    Square element, edge-replicated borders.
    """
    if element_size < 3 or element_size % 2 == 0:
        raise ParamError("closing element must be odd and >= 3")
    return ndimage.grey_closing(image, size=element_size, mode="nearest")


def run_pipeline(image: np.ndarray, spec: PreprocessSpec) -> np.ndarray:
    """Apply scale -> (equalize) -> (noise reduction) in order."""
    out = scale_minmax(image)
    if spec.equalize:
        out = equalize_histogram(out)
    if spec.noise_reduction == "gaussian":
        out = gaussian_blur(out, spec.gaussian_kernel_size, spec.gaussian_sigma)
    elif spec.noise_reduction == "closing":
        out = morphological_closing(out, spec.closing_element)
    return out
