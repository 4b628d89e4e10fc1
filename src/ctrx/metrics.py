"""PSNR and SSIM image quality metrics.

PSNR is computed over all channels jointly (single MSE); SSIM uses the
canonical 11x11 Gaussian window with sigma 1.5, K1 = 0.01, K2 = 0.03, valid
windows only, averaged over channels. The window is separable, so each local
mean is two 1-D "valid" correlations, along rows and then along columns;
numpy does both, and the module needs nothing from scipy.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, ValidationError
from .tensorops import as_image

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _check_same_shape(a, b):
    a = as_image(a)
    b = as_image(b)
    if a.shape != b.shape:
        raise DimensionError(f"shapes differ: {a.shape} vs {b.shape}")
    return a, b


def _check_peak(peak):
    if not (math.isfinite(peak) and peak > 0):
        raise ValidationError(f"peak must be finite and positive, got {peak}")


def psnr(a, b, peak=1.0):
    """Peak signal-to-noise ratio in dB; ``inf`` for identical inputs."""
    _check_peak(peak)
    a, b = _check_same_shape(a, b)
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def _gaussian_taps(size=SSIM_WINDOW, sigma=SSIM_SIGMA):
    """Normalized 1-D Gaussian taps; their outer product is the 2-D window."""
    half = (size - 1) / 2.0
    coords = np.arange(size) - half
    g = np.exp(-(coords ** 2) / (2.0 * sigma ** 2))
    return g / g.sum()


def _gaussian_filter_valid(x, taps):
    """Valid correlation of the last two axes of ``x`` with ``outer(taps, taps)``."""
    n = taps.shape[0]
    rows = sliding_window_view(x, n, axis=-1) @ taps
    return sliding_window_view(rows, n, axis=-2) @ taps


def _ssim_channel(a, b, peak):
    g = _gaussian_taps()
    c1 = (SSIM_K1 * peak) ** 2
    c2 = (SSIM_K2 * peak) ** 2
    mu_a = _gaussian_filter_valid(a, g)
    mu_b = _gaussian_filter_valid(b, g)
    e_aa = _gaussian_filter_valid(a * a, g)
    e_bb = _gaussian_filter_valid(b * b, g)
    e_ab = _gaussian_filter_valid(a * b, g)
    var_a = e_aa - mu_a ** 2
    var_b = e_bb - mu_b ** 2
    cov = e_ab - mu_a * mu_b
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def _ssim_channels(a, b, peak):
    """Mean local SSIM of each channel of two (C, H, W) images."""
    _check_peak(peak)
    a, b = _check_same_shape(a, b)
    h, w = a.shape[-2:]
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise DimensionError(
            f"image {h}x{w} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window")
    if a.ndim != 3:
        raise DimensionError(f"ssim expects a single image (C, H, W), got {a.shape}")
    return [_ssim_channel(a[c], b[c], peak) for c in range(a.shape[0])]


def ssim(a, b, peak=1.0):
    """Mean local structural similarity, channels averaged."""
    return float(np.mean(_ssim_channels(a, b, peak)))


@dataclass(frozen=True)
class MetricReport:
    """Joint metrics plus the per-channel breakdown as (psnr, ssim) pairs."""

    psnr_db: float
    ssim: float
    per_channel: tuple


def metric_report(a, b, peak=1.0):
    """PSNR/SSIM summary matching the reporting conventions of the tables.

    The overall SSIM is the mean of the per-channel values, as ``ssim``
    computes it, so each channel is filtered once.
    """
    ssims = _ssim_channels(a, b, peak)
    a, b = _check_same_shape(a, b)
    per = tuple((psnr(a[c:c + 1], b[c:c + 1], peak), s)
                for c, s in enumerate(ssims))
    return MetricReport(psnr(a, b, peak), float(np.mean(ssims)), per)
