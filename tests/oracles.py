"""Reference implementations the tests compare the run path against.

None of these runs in a ``ctrx`` command. The kernel's spectrum is the FFT
of the kernel zero-padded to the grid, the circular convolution multiplies
by it on whole images, the dense operator and its norm materialize the
convolution column by column, ``idwt2`` is the inverse (= adjoint) of
``ctrx.wavelets.dwt2`` as a product with the transposed analysis matrices,
and ``correlate_valid`` is SSIM's 2-D window filter as one weighted sum per
output pixel.
"""

import numpy as np
from scipy import fft

from ctrx.errors import DimensionError, ValidationError
from ctrx.tensorops import as_image, as_kernel
from ctrx.wavelets import _analysis_matrix


class SizeGuardError(ValidationError):
    """Raised when an operation would materialize something too large."""


def padded_fft_spectrum(k, grid_h, grid_w):
    """Complex (c_out, c_in, H, W) spectrum of the kernel on the full grid:
    the FFT of the kernel zero-padded to the grid and circularly shifted so
    that its centre tap lands on index (0, 0)."""
    c_out, c_in, k_h, k_w = k.shape
    if grid_h < k_h or grid_w < k_w:
        raise DimensionError(
            f"grid {grid_h}x{grid_w} smaller than kernel {k_h}x{k_w}")
    pad = np.zeros((c_out, c_in, grid_h, grid_w), dtype=np.float64)
    rows = (np.arange(k_h) - k_h // 2) % grid_h
    cols = (np.arange(k_w) - k_w // 2) % grid_w
    pad[:, :, rows[:, None], cols[None, :]] = k
    return np.fft.fft2(pad, axes=(-2, -1))


def conv2d_circular(x, k):
    """Multichannel circular convolution of ``x`` with kernel ``k``.

    Args:
        x: Image array of shape (..., c_in, H, W).
        k: Kernel array of shape (c_out, c_in, k_h, k_w).

    Returns:
        Array of shape (..., c_out, H, W): at spatial index ``n`` and output
        channel ``o``, ``sum_{i,a} k[o,i,a] * x[i, n + center - a mod (H,W)]``.
    """
    x = as_image(x)
    k = as_kernel(k)
    if x.shape[-3] != k.shape[1]:
        raise DimensionError(
            f"input has {x.shape[-3]} channels, kernel expects {k.shape[1]}")
    h, w = x.shape[-2:]
    kf = padded_fft_spectrum(k, h, w)[..., :w // 2 + 1]
    xf = fft.rfft2(x, axes=(-2, -1))
    yf = np.einsum("oihw,...ihw->...ohw", kf, xf)
    return fft.irfft2(yf, s=(h, w), axes=(-2, -1))


def _dense_matrix(k, grid_h, grid_w):
    """Materialize the circulant operator of conv2d_circular as a dense matrix."""
    k = as_kernel(k)
    c_out, c_in = k.shape[:2]
    n_in = c_in * grid_h * grid_w
    if grid_h * grid_w * max(c_in, c_out) > 4096:
        raise SizeGuardError(
            f"dense operator too large: {grid_h}x{grid_w} grid with "
            f"{max(c_in, c_out)} channels exceeds the 4096-row guard")
    basis = np.eye(n_in).reshape(n_in, c_in, grid_h, grid_w)
    cols = conv2d_circular(basis, k).reshape(n_in, -1)
    return cols.T  # (c_out*H*W, c_in*H*W)


def dense_norm_oracle(k, grid_h, grid_w):
    """Operator norm via the explicit dense matrix, independent of the FFT path.

    Builds the full circulant matrix column by column and takes its largest
    singular value by dense SVD, exact to rounding. Guarded to small grids.
    """
    return float(np.linalg.norm(_dense_matrix(k, grid_h, grid_w), 2))


def idwt2(c, fam):
    """Inverse (= adjoint) of ``ctrx.wavelets.dwt2``: ``c`` holds the bands
    (ll, lh, hl, hh), as dwt2's one array or as four arrays."""
    ll, lh, hl, hh = c
    shapes = {ll.shape, lh.shape, hl.shape, hh.shape}
    if len(shapes) != 1:
        raise DimensionError(f"subband shapes disagree: {sorted(shapes)}")
    y = np.block([[ll, lh], [hl, hh]])
    h, w = y.shape[-2:]
    return _analysis_matrix(fam, h).T @ y @ _analysis_matrix(fam, w)


def correlate_valid(x, win):
    """2-D "valid" correlation of the last two axes of ``x`` with ``win``.

    ``out[..., r, c] = sum(win * x[..., r:r + kh, c:c + kw])``, one window
    position at a time.
    """
    x = np.asarray(x, dtype=np.float64)
    kh, kw = win.shape
    h, w = x.shape[-2:]
    out = np.empty(x.shape[:-2] + (h - kh + 1, w - kw + 1))
    for r in range(h - kh + 1):
        for c in range(w - kw + 1):
            out[..., r, c] = np.sum(win * x[..., r:r + kh, c:c + kw], axis=(-2, -1))
    return out
