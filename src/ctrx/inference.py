"""Full-resolution denoising by windowed overlap-add of fixed-size patches.

The image is padded circularly so a grid of P x P patches with stride s
covers it, the denoiser runs once on the batch of all patches, and outputs
are blended under a 2D Tukey window. The blend divides by the plan's
accumulated window map (an exact partition of unity), so an identity
denoiser reproduces the input for any taper and stride the plan accepts.

Windows use the periodic (DFT-even) Tukey convention: taper 0 is the
all-ones rectangle, taper 1 the periodic Hann, and for taper > 0 only sample
0 is zero. Non-overlapping plans (s = P) therefore require taper 0; the plan
constructor rejects any geometry whose accumulated weight is not strictly
positive.

On robustness: each output pixel is a convex combination (weights w/W) of
per-patch outputs, so by Jensen the squared output change is at most the
weighted mean of per-patch squared changes; per-patch changes are bounded by
the per-patch Lipschitz constant times the local input change. Overlap makes
the patchwise sum overcount the input change, so this argument alone bounds
the blended map by L * P/s rather than L; the stronger per-model statement
(output change <= input change for trained networks) is established
empirically by the perturbation tests.
"""

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, ValidationError
from .layers import network_forward
from .tensorops import as_image

DEFAULT_TAPER = 0.5


def tukey_window(patch, taper):
    """Periodic Tukey window of length ``patch``, outer-product to 2D.

    ``taper`` in [0, 1] interpolates from rectangular (0) to periodic Hann
    (1). Returns a (patch, patch) array.
    """
    if not 0.0 <= taper <= 1.0:
        raise ValidationError(f"taper must be in [0, 1], got {taper}")
    if patch < 1:
        raise ValidationError(f"patch must be positive, got {patch}")
    n = np.arange(patch, dtype=np.float64)
    d = np.minimum(n, patch - n)   # distance to the window's edge
    w = np.ones(patch)
    edge = d < taper * patch / 2.0
    w[edge] = 0.5 * (1.0 + np.cos(np.pi * (2.0 * d[edge] / (taper * patch) - 1.0)))
    return np.outer(w, w)


def _cover(length, patch, stride):
    """Padding and patch starts covering ``length`` samples along one axis.

    Pads ``patch - stride`` before (so every original sample sees window
    interior) and enough after to align the last patch. Returns
    (pad_before, padded_length, starts).
    """
    before = patch - stride
    span = before + length + (patch - stride)
    n_steps = max(0, -(-(span - patch) // stride))
    padded = patch + n_steps * stride
    return before, padded, np.arange(0, padded - patch + 1, stride)


@dataclass(frozen=True, eq=False)
class PatchPlan:
    """Geometry of one overlap-add pass over a fixed image size."""

    patch: int
    stride: int
    taper: float
    height: int
    width: int
    window: np.ndarray
    pad_top: int
    pad_left: int
    padded_h: int
    padded_w: int
    row_starts: np.ndarray
    col_starts: np.ndarray
    weight: np.ndarray = None   # the accumulated window on the image, > 0


def _overlap_add(tiles, plan):
    """Sum (R, Q, C, P, P) tiles, tile (i, j) at (i s, j s); (C, H, W) on the image.

    Block (a, b) of s x s of every tile lands on one strided slice, so the
    sum is one slice add per block phase. Descending phases add each pixel's
    terms in ascending (row, column) tile order.
    """
    n_r, n_c, c = tiles.shape[:3]
    s, k = plan.stride, plan.patch // plan.stride
    out = np.zeros((c, plan.padded_h // s, s, plan.padded_w // s, s))
    blocks = tiles.reshape(n_r, n_c, c, k, s, k, s)
    for a, b in reversed(list(np.ndindex(k, k))):
        out[:, a:a + n_r, :, b:b + n_c] += blocks[:, :, :, a, :, b].transpose(2, 0, 3, 1, 4)
    return out.reshape(c, plan.padded_h, plan.padded_w)[
        :, plan.pad_top:plan.pad_top + plan.height, plan.pad_left:plan.pad_left + plan.width]


def plan_patches(height, width, patch, stride, taper=DEFAULT_TAPER):
    """Build and validate an overlap-add plan for an image size.

    Requires ``patch % stride == 0``. Accumulates the window over the patch
    grid once, into ``plan.weight``, and rejects the plan unless that weight
    is strictly positive on the image: a zero-boundary window with
    non-overlapping stride fails here rather than producing 0/0 pixels later.
    """
    if stride < 1 or patch < 1:
        raise ValidationError(f"patch and stride must be positive, got {patch}, {stride}")
    if patch % stride != 0:
        raise ValidationError(
            f"stride must divide the patch size, got patch={patch} stride={stride}")
    if height < 1 or width < 1:
        raise DimensionError(f"empty image {height}x{width}")
    window = tukey_window(patch, taper)
    pad_top, padded_h, row_starts = _cover(height, patch, stride)
    pad_left, padded_w, col_starts = _cover(width, patch, stride)
    plan = PatchPlan(patch, stride, float(taper), height, width, window,
                     pad_top, pad_left, padded_h, padded_w, row_starts, col_starts)
    tiles = np.broadcast_to(window, (len(row_starts), len(col_starts), 1, patch, patch))
    weight = _overlap_add(tiles, plan)[0]
    if not np.all(weight > 0.0):
        raise ValidationError(
            "accumulated window weight vanishes somewhere; use a smaller "
            "stride or taper 0 for non-overlapping patches")
    return replace(plan, weight=weight)


def patch_denoise(x, denoiser, plan):
    """Apply a patch denoiser over the whole image with windowed overlap-add.

    ``denoiser`` is NetworkParams or a callable, called once on the batch of
    every patch, (N, C, P, P), and returning the same shape. A 1-channel
    network on a C-channel image denoises each channel of each patch as its
    own batch entry, which is the network applied channel by channel.
    """
    x = as_image(x)
    if x.ndim != 3:
        raise DimensionError(f"patch_denoise expects (C, H, W), got {x.shape}")
    if x.shape[1:] != (plan.height, plan.width):
        raise DimensionError(
            f"plan was built for {plan.height}x{plan.width}, image is "
            f"{x.shape[1]}x{x.shape[2]}")
    c, p, s = x.shape[0], plan.patch, plan.stride
    rows = (np.arange(plan.padded_h) - plan.pad_top) % plan.height
    cols = (np.arange(plan.padded_w) - plan.pad_left) % plan.width
    windows = sliding_window_view(x[:, rows[:, None], cols], (p, p), axis=(1, 2))
    tiles = windows[:, ::s, ::s].transpose(1, 2, 0, 3, 4)   # (R, Q, C, P, P)
    if callable(denoiser):
        outs = denoiser(tiles.reshape(-1, c, p, p))
    else:
        entry = 1 if denoiser.channels == 1 else c
        outs = network_forward(tiles.reshape(-1, entry, p, p), denoiser)
    outs = np.reshape(outs, tiles.shape)
    return _overlap_add(outs * plan.window, plan) / plan.weight
