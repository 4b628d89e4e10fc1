"""Full-resolution denoising by windowed overlap-add of fixed-size patches.

A grid of P x P patches with stride s covers the image extended
circularly, and the outputs are blended under a 2D Tukey window. The blend
divides by the plan's accumulated window map (an exact partition of
unity), so an identity denoiser reproduces the input for any taper and
stride the plan accepts.

A network streams: ``layers.run_chunks`` runs the batch in the chunks of
the network forward, each chunk's patches are read from the image with
modular indices, and the outputs it yields are windowed and added into
one padded sum on the calling thread, in chunk order. Only the image,
that sum and a few chunks are in memory, never the whole batch. A
1-channel network on a C-channel image streams one channel after another;
a callable denoiser is still called once on the batch of all patches, and
its output goes through the same loop as one chunk. Each pixel adds its tile
terms in ascending row-major tile order however the batch is cut, so the
output is bitwise the same for any chunk size.

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

from .errors import DimensionError, ValidationError
from .layers import run_chunks
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


def _runs(lo, hi, width):
    """Entries [lo, hi) of a row-major grid ``width`` wide as at most three
    rectangles (row, rows, col, cols), in order: a partial first row, whole
    rows, a partial last row. Each is contiguous in the flat order."""
    runs = []
    while lo < hi:
        row, col = divmod(lo, width)
        if col == 0 and hi - lo >= width:
            rows, cols = (hi - lo) // width, width
        else:
            rows, cols = 1, min(width - col, hi - lo)
        runs.append((row, rows, col, cols))
        lo += rows * cols
    return runs


def _overlap_add(acc, tiles, first, plan):
    """Add (n, C, P, P) tiles, tiles first .. first + n - 1 of the plan, into
    the padded sum ``acc`` (C, padded_h, padded_w).

    Tile t = (i, j) in row-major order lands at (i s, j s). Each rectangle
    of tiles (see :func:`_runs`) is one slice add per s x s block phase:
    block (a, b) of every tile lands on one strided slice, and descending
    phases add each pixel's terms in ascending (row, column) tile order, so
    any split of the batch into ascending ranges sums bitwise alike.
    """
    s, k = plan.stride, plan.patch // plan.stride
    blocks = acc.reshape(len(acc), plan.padded_h // s, s, plan.padded_w // s, s)
    phases = list(reversed(list(np.ndindex(k, k))))
    at = 0
    for i, n_i, j, n_j in _runs(first, first + len(tiles), len(plan.col_starts)):
        rect = tiles[at:at + n_i * n_j].reshape(n_i, n_j, len(acc), k, s, k, s)
        at += n_i * n_j
        for a, b in phases:
            blocks[:, i + a:i + a + n_i, :, j + b:j + b + n_j] += (
                rect[:, :, :, a, :, b].transpose(2, 0, 3, 1, 4))


def _crop(acc, plan):
    """The image's part of a padded (C, padded_h, padded_w) array."""
    return acc[:, plan.pad_top:plan.pad_top + plan.height,
               plan.pad_left:plan.pad_left + plan.width]


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
    acc = np.zeros((1, padded_h, padded_w))
    _overlap_add(acc, np.broadcast_to(window, (len(row_starts) * len(col_starts), 1,
                                               patch, patch)), 0, plan)
    weight = _crop(acc, plan)[0]
    if not np.all(weight > 0.0):
        raise ValidationError(
            "accumulated window weight vanishes somewhere; use a smaller "
            "stride or taper 0 for non-overlapping patches")
    return replace(plan, weight=weight)


def patch_denoise(x, denoiser, plan):
    """Apply a patch denoiser over the whole image with windowed overlap-add.

    ``denoiser`` is NetworkParams or a callable. A callable is called once
    on the batch of every patch, (N, C, P, P), and returns the same shape.
    A network runs in the chunks of ``layers.run_chunks``: each chunk's
    patches are gathered from ``x`` with modular indices, and its windowed
    output is added into the padded sum before the next chunk's, so no
    array of the whole batch exists. A 1-channel network on a C-channel
    image runs once per channel, on that channel's (N, 1, P, P) patches.
    One loop windows (out of place) and adds each chunk and a callable's
    output alike, so a callable's returned array is never written to.
    """
    x = as_image(x)
    if x.ndim != 3:
        raise DimensionError(f"patch_denoise expects (C, H, W), got {x.shape}")
    if x.shape[1:] != (plan.height, plan.width):
        raise DimensionError(
            f"plan was built for {plan.height}x{plan.width}, image is "
            f"{x.shape[1]}x{x.shape[2]}")
    c, p, s = x.shape[0], plan.patch, plan.stride
    m = c if callable(denoiser) else denoiser.channels   # channels per run
    if m not in (1, c):
        raise DimensionError(
            f"a {m}-channel network cannot denoise a {c}-channel image")
    rows = (np.arange(plan.padded_h) - plan.pad_top) % plan.height
    cols = (np.arange(plan.padded_w) - plan.pad_left) % plan.width
    n_cols = len(plan.col_starts)
    n = len(plan.row_starts) * n_cols
    ch = np.arange(m)[:, None, None]
    acc = np.zeros((c, plan.padded_h, plan.padded_w))
    for k in range(0, c, m):
        img, out = x[k:k + m], acc[k:k + m]

        def gather(lo, hi):
            """Tiles [lo, hi) of ``img``, (hi - lo, m, P, P)."""
            i, j = np.divmod(np.arange(lo, hi), n_cols)
            r = rows[s * i[:, None] + np.arange(p)]
            q = cols[s * j[:, None] + np.arange(p)]
            return img[ch, r[:, None, :, None], q[:, None, None, :]]

        if callable(denoiser):
            chunks = [(0, n, np.reshape(denoiser(gather(0, n)), (n, m, p, p)))]
        else:
            chunks = run_chunks(denoiser, (n, m, p, p), lambda lo, hi: (gather(lo, hi), None))
        for lo, _, tiles in chunks:
            _overlap_add(out, tiles * plan.window, lo, plan)
    return _crop(acc, plan) / plan.weight
