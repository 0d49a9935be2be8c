"""Edge detection: Canny plus the Sobel, Scharr and Prewitt gradient operators.

All four correlate with 3x3 kernels over edge-replicated borders. On
integer-valued bands (kinds raw16 and scaled8) the gradients come from one
separable integer core, exact whatever the sum order. A blurred float image
(kind float, Canny with smoothing on) keeps the einsum convolution core,
whose sum order its last bits depend on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import KernelTooLarge, ParamError
from .preprocess import blur_array, round_half_up
from .raster import Band, EdgeMap

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
        if self.smooth_sigma <= 0:
            raise ParamError("smooth_sigma must be > 0")


@dataclass(frozen=True)
class GradientField:
    """Per-pixel gradient magnitude and direction (atan2(gy, gx))."""

    magnitude: np.ndarray
    direction: np.ndarray


def convolve2d(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Correlation-convention sliding window, edge replication, same size.

    The last bits of einsum's sum depend on the memory layout of `image`:
    blur_array returns a transposed (F-ordered) view, and a C-ordered copy
    of the same blurred image changes Canny's normalized magnitude (though
    not its edges). Keep the layout of the arrays passed here as it is.
    """
    image = np.asarray(image, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1] or kernel.shape[0] % 2 == 0:
        raise ParamError(f"kernel must be odd square, got shape {kernel.shape}")
    k = kernel.shape[0]
    if k > min(image.shape):
        raise KernelTooLarge(f"kernel {k}x{k} larger than image {image.shape}")
    half = k // 2
    padded = np.pad(image, half, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k))
    return np.einsum("ijkl,kl->ij", windows, kernel)


def _separable_gradients(image: np.ndarray, kernels: GradientKernelPair) -> tuple:
    """gx and gy of a 3x3 pair from its separable form, edge-replicated borders.

    gx is the column weights (s0, s1, s0) times a [-1, 0, 1] row difference,
    and gy its transpose. The weights are integers, so on integer-valued
    samples every partial result is a small integer and the output equals
    convolve2d's bit for bit whatever the summation order.
    """
    s0, s1, _ = kernels.gx[:, 2].tolist()
    padded = np.pad(image, 1, mode="edge")
    gx = padded[:, 2:] - padded[:, :-2]
    gy = padded[2:, :] - padded[:-2, :]
    gx = s0 * (gx[:-2] + gx[2:]) + s1 * gx[1:-1]
    gy = s0 * (gy[:, :-2] + gy[:, 2:]) + s1 * gy[:, 1:-1]
    return gx, gy


def gradient_field(band: Band, kernels: GradientKernelPair) -> GradientField:
    """Gradient responses; magnitude = hypot, direction = atan2.

    Integer-kind bands take the exact separable core; float bands go
    through convolve2d.
    """
    if band.value_kind == "float":
        gx = convolve2d(band.samples, kernels.gx)
        gy = convolve2d(band.samples, kernels.gy)
    else:
        gx, gy = _separable_gradients(band.samples, kernels)
    return GradientField(magnitude=np.hypot(gx, gy), direction=np.arctan2(gy, gx))


def gradient_magnitude(band: Band, kernels: GradientKernelPair) -> np.ndarray:
    """Gradient magnitude only, edge-replicated borders.

    On integer-valued samples (every scaled8 band) this equals
    gradient_field(band, kernels).magnitude bit for bit.
    """
    return np.hypot(*_separable_gradients(band.samples, kernels))


def _normalize_magnitude(magnitude: np.ndarray) -> np.ndarray:
    """Min-max map to the 0..255 float scale; all-constant fields map to 0."""
    lo, hi = magnitude.min(), magnitude.max()
    if hi == lo:
        return np.zeros_like(magnitude)
    return (magnitude - lo) / (hi - lo) * 255.0


def magnitude_to_edgemap(magnitude: np.ndarray) -> EdgeMap:
    """Quantize the normalized gradient magnitude to an 8-bit map."""
    normalized = round_half_up(_normalize_magnitude(magnitude))
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
    padded = np.pad(magnitude, 1, mode="edge")
    h, w = magnitude.shape

    def shifted(dr, dc):
        return padded[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]

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


_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)


def canny(band: Band, params: CannyParams = CannyParams()) -> EdgeMap:
    """Full Canny chain: smooth, Sobel gradients, NMS, double-threshold, hysteresis."""
    edges, _ = canny_debug(band, params)
    return edges


def canny_debug(band: Band, params: CannyParams = CannyParams()):
    """Canny returning the edge map plus intermediate fields for verification.

    Debug dict keys: normalized_magnitude, nms_mask, strong, weak.
    """
    if params.smoothing:
        image = blur_array(band.samples, params.smooth_kernel_size, params.smooth_sigma)
        band = Band(band.name, np.maximum(image, 0.0), "float")
    field = gradient_field(band, SOBEL)
    normalized = _normalize_magnitude(field.magnitude)
    nms = _nms_mask(field.magnitude, field.direction)

    strong = nms & (normalized >= params.high_threshold)
    weak = nms & (normalized >= params.low_threshold) & ~strong

    labels, count = ndimage.label(strong | weak, structure=_EIGHT_CONNECTED)
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


def detect(band: Band, algorithm: str, params: CannyParams = CannyParams()) -> EdgeMap:
    """Dispatch to Canny or a gradient operator's normalized magnitude map."""
    if algorithm == "canny":
        return canny(band, params)
    if algorithm in KERNELS:
        return magnitude_to_edgemap(gradient_magnitude(band, KERNELS[algorithm]))
    raise ParamError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
