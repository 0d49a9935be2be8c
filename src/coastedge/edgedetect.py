"""Edge detection: Canny plus the Sobel, Scharr and Prewitt gradient operators.

All four correlate with 3x3 kernels over edge-replicated borders, through
one separable core with integer weights: exact on integer-valued samples,
and exactly flip- and transpose-symmetric on float ones. The detectors
take plain arrays of shape (..., H, W) and treat each plane over the last
two axes on its own, so a band stack and a single 2D band take the same
code; samples are validated once, where a raster is read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ParamError
from .preprocess import blur_array, check_sigma, normalize_planes, round_half_up
from .raster import EdgeMap

ALGORITHMS = ("canny", "sobel", "scharr", "prewitt")


@dataclass(frozen=True)
class GradientKernelPair:
    """Horizontal/vertical 3x3 gradient kernels; gy is the transpose of gx.

    gx must be a column (s0, s1, s0) of integer weights times [-1, 0, 1],
    the separable form the gradient core computes.
    """

    name: str
    gx: np.ndarray
    gy: np.ndarray


def _kernel_pair(name: str, gx_rows) -> GradientKernelPair:
    gx = np.array(gx_rows, dtype=np.float64)
    return GradientKernelPair(name=name, gx=gx, gy=gx.T.copy())


SOBEL = _kernel_pair("sobel", [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]])
SCHARR = _kernel_pair("scharr", [[-3, 0, 3], [-10, 0, 10], [-3, 0, 3]])
PREWITT = _kernel_pair("prewitt", [[-1, 0, 1], [-1, 0, 1], [-1, 0, 1]])

KERNELS = {"sobel": SOBEL, "scharr": SCHARR, "prewitt": PREWITT}


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


def _pad_planes(image: np.ndarray) -> np.ndarray:
    """Each plane (..., H, W) with a one-pixel edge-replicated border."""
    return np.pad(image, [(0, 0)] * (image.ndim - 2) + [(1, 1), (1, 1)], mode="edge")


def _separable_gradients(image: np.ndarray, kernels: GradientKernelPair) -> tuple:
    """gx and gy of a 3x3 pair from its separable form, edge-replicated borders.

    gx is the column weights (s0, s1, s0) times a [-1, 0, 1] row difference,
    and gy its transpose. The weights are integers, so on integer-valued
    samples every partial result is a small integer and the output is exact.
    On any input each output sums its terms in a mirror-symmetric order, so
    flipping or transposing the image flips or transposes gx and gy exactly.
    """
    s0, s1, _ = kernels.gx[:, 2].tolist()
    padded = _pad_planes(np.asarray(image, dtype=np.float64))
    gx = padded[..., :, 2:] - padded[..., :, :-2]
    gy = padded[..., 2:, :] - padded[..., :-2, :]
    gx = s0 * (gx[..., :-2, :] + gx[..., 2:, :]) + s1 * gx[..., 1:-1, :]
    gy = s0 * (gy[..., :-2] + gy[..., 2:]) + s1 * gy[..., 1:-1]
    return gx, gy


def gradient_field(image: np.ndarray, kernels: GradientKernelPair) -> GradientField:
    """Gradient responses; magnitude = hypot, direction = atan2."""
    gx, gy = _separable_gradients(image, kernels)
    return GradientField(magnitude=np.hypot(gx, gy), direction=np.arctan2(gy, gx))


def gradient_magnitude(image: np.ndarray, kernels: GradientKernelPair) -> np.ndarray:
    """Gradient magnitude only; equals gradient_field(image, kernels).magnitude."""
    return np.hypot(*_separable_gradients(image, kernels))


def magnitude_to_edgemap(magnitude: np.ndarray) -> EdgeMap:
    """Quantize each plane's normalized gradient magnitude to an 8-bit map."""
    normalized = round_half_up(normalize_planes(magnitude))
    return EdgeMap(values=normalized.astype(np.uint8), kind="magnitude")


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
    padded = _pad_planes(magnitude)
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


def canny(image: np.ndarray, params: CannyParams = CannyParams()) -> EdgeMap:
    """Full Canny chain: smooth, Sobel gradients, NMS, double-threshold, hysteresis."""
    edges, _ = canny_debug(image, params)
    return edges


def canny_debug(image: np.ndarray, params: CannyParams = CannyParams()):
    """Canny returning the edge map plus intermediate fields for verification.

    Debug dict keys: normalized_magnitude, nms_mask, strong, weak.
    """
    if params.smoothing:
        image = blur_array(image, params.smooth_kernel_size, params.smooth_sigma)
    field = gradient_field(image, SOBEL)
    normalized = normalize_planes(field.magnitude)
    nms = _nms_mask(field.magnitude, field.direction)

    strong = nms & (normalized >= params.high_threshold)
    weak = nms & (normalized >= params.low_threshold) & ~strong

    labels, count = ndimage.label(strong | weak, structure=_plane_neighbours(strong.ndim))
    if count:
        has_strong = np.zeros(count + 1, dtype=bool)
        has_strong[np.unique(labels[strong])] = True
        keep = has_strong[labels] & (labels > 0)
    else:
        keep = np.zeros_like(strong)

    edges = EdgeMap(values=np.where(keep, 255, 0).astype(np.uint8), kind="binary")
    debug = {
        "normalized_magnitude": normalized,
        "nms_mask": nms,
        "strong": strong & keep,
        "weak": weak & keep,
    }
    return edges, debug


def detect(image: np.ndarray, algorithm: str, params: CannyParams = CannyParams()) -> EdgeMap:
    """Dispatch to Canny or a gradient operator's normalized magnitude map."""
    if algorithm == "canny":
        return canny(image, params)
    if algorithm in KERNELS:
        return magnitude_to_edgemap(gradient_magnitude(image, KERNELS[algorithm]))
    raise ParamError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
