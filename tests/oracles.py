"""Brute-force reference implementations used to check the optimized code.

These are written from the metric/convolution definitions directly, with
plain nested loops, and deliberately share no code with the package.
"""

import math

import numpy as np


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
