"""Edge detection: Canny plus the Sobel, Scharr and Prewitt gradient operators.

All four correlate with 3x3 kernels over edge-replicated borders, through
one separable core with integer weights: exact on integer-valued samples,
and exactly flip- and transpose-symmetric on float ones. The detectors
take plain arrays of shape (..., H, W) and treat each plane over the last
two axes on its own, so a band stack and a single 2D band take the same
code; samples are validated once, where a raster is read. Each returns its
8-bit edge maps as one uint8 array of the input's shape: 0/255 for Canny,
the normalized gradient magnitude for the other three. The magnitude is
sqrt(gx*gx + gy*gy): exact and correctly rounded on integer samples, where
every square and their sum are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ParamError
from .preprocess import blur_array, check_sigma, normalize_planes, pad_edges

ALGORITHMS = ("canny", "sobel", "scharr", "prewitt")


# Each operator's gx kernel is a column of integer weights (s0, s1, s0) times
# the row difference [-1, 0, 1], and its gy kernel the transpose; stored as
# (s0, s1), the separable form the gradient core computes.
KERNELS = {"sobel": (1, 2), "scharr": (3, 10), "prewitt": (1, 1)}


@dataclass(frozen=True)
class CannyParams:
    """Canny thresholds on the normalized 0..255 magnitude scale."""

    low_threshold: float = 50.0
    high_threshold: float = 150.0
    smoothing: bool = True
    smooth_kernel_size: int = 5
    smooth_sigma: float = 1.4

    def __post_init__(self):
        if not (0 < self.low_threshold < self.high_threshold <= 255):
            raise ParamError(
                f"need 0 < low < high <= 255, got low={self.low_threshold} "
                f"high={self.high_threshold}"
            )
        if self.smooth_kernel_size < 3 or self.smooth_kernel_size % 2 == 0:
            raise ParamError("smooth_kernel_size must be odd and >= 3")
        check_sigma("smooth_sigma", self.smooth_sigma)


@dataclass(frozen=True)
class GradientField:
    """Per-pixel gradient magnitude and direction (atan2(gy, gx))."""

    magnitude: np.ndarray
    direction: np.ndarray


def _separable_gradients(image: np.ndarray, weights: tuple[int, int]) -> tuple:
    """gx and gy of a `KERNELS` entry (s0, s1), edge-replicated borders.

    gx is the column weights (s0, s1, s0) times a [-1, 0, 1] row difference,
    and gy its transpose. The weights are integers, so on integer-valued
    samples every partial result is a small integer and the output is exact.
    On any input each output sums its terms in a mirror-symmetric order, so
    flipping or transposing the image flips or transposes gx and gy exactly.
    """
    s0, s1 = weights
    padded = pad_edges(image, 1)
    gx = padded[..., :, 2:] - padded[..., :, :-2]
    gy = padded[..., 2:, :] - padded[..., :-2, :]
    gx = s0 * (gx[..., :-2, :] + gx[..., 2:, :]) + s1 * gx[..., 1:-1, :]
    gy = s0 * (gy[..., :-2] + gy[..., 2:]) + s1 * gy[..., 1:-1]
    return gx, gy


def _magnitude(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """sqrt(gx*gx + gy*gy), built in one buffer.

    On integer gradients the sum of squares is an exact integer below 2**53
    for any 0..255 plane, and IEEE sqrt rounds once, so the magnitude is the
    correctly rounded one (np.hypot can be 1 ulp off). The sum is symmetric
    in gx and gy, so flips and transposes keep their bits. Squaring
    overflows for |g| above about 1e154; detectors only see 0..255 planes.
    """
    magnitude = gx * gx
    magnitude += gy * gy
    return np.sqrt(magnitude, out=magnitude)


def gradient_field(image: np.ndarray, weights: tuple[int, int]) -> GradientField:
    """Gradient responses of a `KERNELS` entry; magnitude = sqrt(gx² + gy²), direction = atan2."""
    gx, gy = _separable_gradients(image, weights)
    return GradientField(magnitude=_magnitude(gx, gy), direction=np.arctan2(gy, gx))


def gradient_magnitude(image: np.ndarray, weights: tuple[int, int]) -> np.ndarray:
    """Gradient magnitude only; equals gradient_field(image, weights).magnitude."""
    return _magnitude(*_separable_gradients(image, weights))


def magnitude_to_edgemap(magnitude: np.ndarray) -> np.ndarray:
    """Quantize each plane's normalized gradient magnitude to an 8-bit uint8 map.

    round_half_up(normalize_planes(magnitude)), done in normalize_planes' buffer.
    """
    levels = normalize_planes(magnitude)
    levels += 0.5
    return np.floor(levels, out=levels).astype(np.uint8)


def _direction_sector(direction: np.ndarray) -> np.ndarray:
    """Quantize atan2 directions to 4 sectors of 45 degrees, centred on 0/45/90/135.

    For every atan2 output the unwrapped angle equals `rad2deg(direction)
    % 180.0`: fmod is exact for |angle| < 180, and numpy's remainder then
    adds 180 to a negative angle. -180 maps to 0 here and +180 stays, but
    both lie in sector 0, as a count of 4 thresholds passed wraps to 0.
    """
    angle = np.rad2deg(direction)
    angle = np.where(angle < 0, angle + 180.0, angle)
    sector = np.zeros(angle.shape, dtype=np.int8)
    for threshold in (22.5, 67.5, 112.5, 157.5):
        sector += angle >= threshold
    sector &= 3
    return sector


def _nms_mask(magnitude: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Non-maximum suppression along the quantized gradient direction.

    A pixel survives when its magnitude is >= both directional neighbors
    (flat plateaus survive whole). Border neighbors are edge-replicated.
    """
    padded = pad_edges(magnitude, 1)
    h, w = magnitude.shape[-2:]

    def shifted(dr, dc):
        return padded[..., 1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]

    sector = _direction_sector(direction)

    # neighbor offsets per sector: 0 deg -> left/right, 45 -> down-right/up-left
    # (row axis points down, so +gy responds to top->bottom increase)
    offsets = {0: (0, 1), 1: (1, 1), 2: (1, 0), 3: (1, -1)}
    keep = np.zeros_like(magnitude, dtype=bool)
    for s, (dr, dc) in offsets.items():
        mask = sector == s
        n1 = shifted(dr, dc)
        n2 = shifted(-dr, -dc)
        keep |= mask & (magnitude >= n1) & (magnitude >= n2)
    return keep


def _plane_neighbours(ndim: int) -> np.ndarray:
    """8-connectivity within each plane (..., H, W), none across the leading axes."""
    structure = np.zeros((3,) * ndim, dtype=bool)
    structure[(1,) * (ndim - 2)] = True
    return structure


def canny(image: np.ndarray, params: CannyParams = CannyParams()) -> np.ndarray:
    """Full Canny chain: smooth, Sobel gradients, NMS, double-threshold, hysteresis.

    Gives a uint8 map of the input's shape, 255 on edge pixels and 0 elsewhere.
    """
    edges, _ = canny_debug(image, params)
    return edges


def canny_debug(image: np.ndarray, params: CannyParams = CannyParams()):
    """Canny returning the edge map plus intermediate fields for verification.

    Debug dict keys: normalized_magnitude, nms_mask, strong. Every strong
    pixel is an edge pixel.
    """
    if params.smoothing:
        image = blur_array(image, params.smooth_kernel_size, params.smooth_sigma)
    field = gradient_field(image, KERNELS["sobel"])
    normalized = normalize_planes(field.magnitude)
    nms = _nms_mask(field.magnitude, field.direction)

    # strong pixels reach the high threshold, and candidates (strong or weak) the low one
    strong = nms & (normalized >= params.high_threshold)
    candidate = nms & (normalized >= params.low_threshold)

    labels, count = ndimage.label(candidate, structure=_plane_neighbours(strong.ndim))
    if count:
        has_strong = np.zeros(count + 1, dtype=bool)
        has_strong[np.unique(labels[strong])] = True
        keep = has_strong[labels] & (labels > 0)
    else:
        keep = np.zeros_like(strong)

    edges = np.where(keep, 255, 0).astype(np.uint8)
    debug = {"normalized_magnitude": normalized, "nms_mask": nms, "strong": strong}
    return edges, debug


def detect(image: np.ndarray, algorithm: str, params: CannyParams = CannyParams()) -> np.ndarray:
    """Dispatch to Canny or a gradient operator's normalized magnitude map (uint8)."""
    if algorithm == "canny":
        return canny(image, params)
    if algorithm in KERNELS:
        return magnitude_to_edgemap(gradient_magnitude(image, KERNELS[algorithm]))
    raise ParamError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
