"""Canny's intermediate fields, for tests that check its structure.

Unlike `oracles`, this module reuses the package's own steps: it runs the
chain of `edgedetect.canny` again and keeps what each step gave.
"""

import numpy as np

from coastedge.edgedetect import KERNELS, CannyParams, _magnitude, _nms_at, _separable_gradients, canny
from coastedge.preprocess import blur_array, normalize_planes


def canny_debug(image, params=CannyParams()):
    """`canny`'s edge map, and a dict of the fields its steps computed.

    The keys are normalized_magnitude, nms_mask (over every pixel) and
    strong (NMS survivors that reach the high threshold). Every strong pixel
    is an edge pixel.
    """
    edges = canny(image, params)
    if params.smoothing:
        image = blur_array(image, params.smooth_kernel_size, params.smooth_sigma)
    gx, gy = _separable_gradients(image, KERNELS["sobel"])
    magnitude = _magnitude(gx, gy)
    normalized = normalize_planes(magnitude)
    nms = _nms_at(magnitude, gx, gy, np.arange(magnitude.size)).reshape(magnitude.shape)
    strong = nms & (normalized >= params.high_threshold)
    return edges, {"normalized_magnitude": normalized, "nms_mask": nms, "strong": strong}
