"""Brute-force reference implementations used to check the optimized code.

These are written from the metric/convolution/Canny definitions directly,
with plain nested loops, and deliberately share no code with the package.
"""

import math
from collections import deque

import numpy as np


# The textbook horizontal gradient kernels; each vertical kernel is the transpose.
GRADIENT_KERNELS = {
    "sobel": np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64),
    "scharr": np.array([[-3, 0, 3], [-10, 0, 10], [-3, 0, 3]], dtype=np.float64),
    "prewitt": np.array([[-1, 0, 1], [-1, 0, 1], [-1, 0, 1]], dtype=np.float64),
}


def convolve2d_loops(image, kernel):
    """Direct nested-loop correlation with edge-clamped borders."""
    image = np.asarray(image, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    h, w = image.shape
    k = kernel.shape[0]
    half = k // 2
    out = np.zeros((h, w))
    for r in range(h):
        for c in range(w):
            acc = 0.0
            for i in range(k):
                for j in range(k):
                    rr = min(max(r + i - half, 0), h - 1)
                    cc = min(max(c + j - half, 0), w - 1)
                    acc += image[rr, cc] * kernel[i, j]
            out[r, c] = acc
    return out


def closing_loops(image, size):
    """Grayscale closing from the definition: window max, then window min, edge-clamped."""
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape
    half = size // 2

    def window_extreme(src, pick):
        out = np.zeros((h, w))
        for r in range(h):
            for c in range(w):
                values = [
                    src[min(max(r + i, 0), h - 1), min(max(c + j, 0), w - 1)]
                    for i in range(-half, half + 1)
                    for j in range(-half, half + 1)
                ]
                out[r, c] = pick(values)
        return out

    return window_extreme(window_extreme(image, max), min)


def rmse_direct(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    total = 0.0
    for r in range(a.shape[0]):
        for c in range(a.shape[1]):
            total += (a[r, c] - b[r, c]) ** 2
    return math.sqrt(total / a.size)


def psnr_direct(a, b):
    err = rmse_direct(a, b)
    if err == 0.0:
        return math.inf
    return 20.0 * math.log10(255.0 / err)


def _gaussian_window(size, sigma):
    half = size // 2
    w = np.array(
        [[math.exp(-(i * i + j * j) / (2 * sigma * sigma)) for j in range(-half, half + 1)]
         for i in range(-half, half + 1)]
    )
    return w / w.sum()


def ssim_direct(a, b, window=11, sigma=1.5):
    """Windowed SSIM from the definition, one window at a time."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    w = _gaussian_window(window, sigma)
    c1 = (0.01 * 255.0) ** 2
    c2 = (0.03 * 255.0) ** 2
    values = []
    for r in range(a.shape[0] - window + 1):
        for c in range(a.shape[1] - window + 1):
            pa = a[r : r + window, c : c + window]
            pb = b[r : r + window, c : c + window]
            mu_a = (w * pa).sum()
            mu_b = (w * pb).sum()
            var_a = (w * pa * pa).sum() - mu_a**2
            var_b = (w * pb * pb).sum() - mu_b**2
            cov = (w * pa * pb).sum() - mu_a * mu_b
            values.append(
                ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))
            )
    return float(np.mean(values))


def uqi_direct(a, b, window=8):
    """Windowed UQI from the definition, with the degenerate-window rules."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    values = []
    for r in range(a.shape[0] - window + 1):
        for c in range(a.shape[1] - window + 1):
            pa = a[r : r + window, c : c + window]
            pb = b[r : r + window, c : c + window]
            mu_a = pa.mean()
            mu_b = pb.mean()
            var_a = (pa * pa).mean() - mu_a**2
            var_b = (pb * pb).mean() - mu_b**2
            cov = (pa * pb).mean() - mu_a * mu_b
            var_sum = var_a + var_b
            mean_sum = mu_a**2 + mu_b**2
            if var_sum <= 0.0:
                if mean_sum == 0.0 or mu_a == mu_b:
                    continue  # fully degenerate or identical flat window
                values.append(0.0)
                continue
            values.append((4.0 * cov * mu_a * mu_b) / (var_sum * mean_sum))
    if not values:
        return 0.0
    return float(np.mean(values))


def blur_loops(image, size, sigma):
    """Sampled-Gaussian blur from the definition: 2D weighted sum, edge-clamped."""
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape
    half = size // 2
    weights = [math.exp(-(i * i) / (2.0 * sigma * sigma)) for i in range(-half, half + 1)]
    total = sum(weights)
    weights = [x / total for x in weights]
    out = np.zeros((h, w))
    for r in range(h):
        for c in range(w):
            acc = 0.0
            for i in range(size):
                for j in range(size):
                    rr = min(max(r + i - half, 0), h - 1)
                    cc = min(max(c + j - half, 0), w - 1)
                    acc += weights[i] * weights[j] * image[rr, cc]
            out[r, c] = acc
    return out


def equalize_loops(image):
    """256-bin histogram equalization from the definition, one pixel at a time.

    cdf_min is the cumulative count of the lowest occupied level; a constant
    image is returned unchanged.
    """
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape
    n = h * w
    hist = [0] * 256
    for r in range(h):
        for c in range(w):
            hist[int(image[r, c])] += 1
    cdf, running = [], 0
    for count in hist:
        running += count
        cdf.append(running)
    cdf_min = next(cdf[level] for level in range(256) if hist[level])
    if cdf_min == n:
        return image.copy()
    out = np.zeros((h, w))
    for r in range(h):
        for c in range(w):
            level = int(image[r, c])
            out[r, c] = math.floor((cdf[level] - cdf_min) / (n - cdf_min) * 255.0 + 0.5)
    return out


def sector_loops(theta):
    """Canny's 4 direction sectors of one atan2 angle: 0, 45, 90 or 135 degrees +- 22.5."""
    angle = math.degrees(theta) % 180.0
    if angle < 22.5 or angle >= 157.5:
        return 0
    if angle < 67.5:
        return 1
    if angle < 112.5:
        return 2
    return 3


# neighbours along the gradient, per sector; rows point down, so a 45-degree
# gradient (gx > 0, gy > 0) runs from the upper-left to the lower-right pixel
_SECTOR_STEPS = {0: (0, 1), 1: (1, 1), 2: (1, 0), 3: (1, -1)}


def nms_loops(magnitude, direction):
    """Non-maximum suppression, one pixel at a time: a pixel stays when its
    magnitude is >= both neighbours along its sector, edge-clamped."""
    h, w = magnitude.shape
    keep = np.zeros((h, w), dtype=bool)
    for r in range(h):
        for c in range(w):
            dr, dc = _SECTOR_STEPS[sector_loops(direction[r, c])]
            ahead = magnitude[min(max(r + dr, 0), h - 1), min(max(c + dc, 0), w - 1)]
            behind = magnitude[min(max(r - dr, 0), h - 1), min(max(c - dc, 0), w - 1)]
            keep[r, c] = magnitude[r, c] >= ahead and magnitude[r, c] >= behind
    return keep


def hysteresis_bfs(magnitude, nms, low, high):
    """Canny's double threshold and hysteresis from the definition.

    The magnitude is min-max normalized to 0..255 (all zeros when constant).
    Suppressed pixels reaching `high` are strong and those reaching `low`
    weak; a breadth-first search over 8-neighbours from every strong pixel
    keeps the weak pixels it reaches through strong or weak ones.
    """
    h, w = magnitude.shape
    lo, hi = float(magnitude.min()), float(magnitude.max())
    candidate = np.zeros((h, w), dtype=bool)
    queue = deque()
    keep = np.zeros((h, w), dtype=bool)
    for r in range(h):
        for c in range(w):
            value = 0.0 if hi == lo else (magnitude[r, c] - lo) / (hi - lo) * 255.0
            candidate[r, c] = nms[r, c] and value >= low
            if nms[r, c] and value >= high:
                keep[r, c] = True
                queue.append((r, c))
    while queue:
        r, c = queue.popleft()
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                rr, cc = r + dr, c + dc
                if 0 <= rr < h and 0 <= cc < w and candidate[rr, cc] and not keep[rr, cc]:
                    keep[rr, cc] = True
                    queue.append((rr, cc))
    return keep


def window_sums_loops(image, kernel):
    """Separable window sums from the definition, over the windows fully inside
    each plane (..., H, W): along the last axis, then along the one before it.

    Every output adds its products to 0.0 one after another, in kernel order.
    """
    image = np.asarray(image, dtype=np.float64)
    kernel = [float(x) for x in kernel]
    k = len(kernel)
    *lead, h, w = image.shape
    out = []
    for plane in image.reshape(-1, h, w).tolist():
        rows = []
        for r in range(h):
            row = []
            for c in range(w - k + 1):
                acc = 0.0
                for t in range(k):
                    acc += plane[r][c + t] * kernel[t]
                row.append(acc)
            rows.append(row)
        sums = []
        for r in range(h - k + 1):
            row = []
            for c in range(w - k + 1):
                acc = 0.0
                for t in range(k):
                    acc += rows[r + t][c] * kernel[t]
                row.append(acc)
            sums.append(row)
        out.append(sums)
    return np.array(out, dtype=np.float64).reshape(*lead, h - k + 1, w - k + 1)
