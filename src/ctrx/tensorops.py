"""Circular 2D convolution and exact operator norms for multichannel kernels.

Images are float64 arrays of shape ``(C, H, W)``; a leading batch axis is
accepted by every operation and broadcast through. Kernels are float64 arrays
of shape ``(c_out, c_in, k_h, k_w)`` with odd spatial extents.

Convention: true convolution under periodic boundary, with the kernel's
center tap ``(k_h//2, k_w//2)`` sitting at the spatial origin. The padded
kernel is circularly shifted so that the center tap lands on DFT index
``(0, 0)`` before the FFT; this makes spatial convolution and per-frequency
matrix multiplication agree to machine precision.

Images and kernels are real, so their spectra are conjugate-symmetric:
``X[-u, -v] = conj(X[u, v])``. Every convolution therefore runs on the real
half-spectrum, ``scipy.fft.rfft2`` over columns ``0 .. W//2`` and
``irfft2`` back with the explicit grid size ``s=(H, W)`` (odd widths need
it). The operator norm is exact on the half-spectrum too: the channel
matrix at ``-f`` is the complex conjugate of the one at ``f``, and a
matrix and its conjugate have the same singular values, so the half
covers every singular value of the full grid (Sedghi, Gupta & Long, "The
Singular Values of Convolutional Layers", ICLR 2019).
:func:`freq_response` alone returns the full ``H x W`` grid.

No run path calls :func:`conv2d_circular`: ``ctrx.layers`` folds each
layer's convolution, with its wavelet synthesis and the next analysis, into
one matrix per frequency of the half grid, and ``ctrx.pnp`` multiplies by
the blur's :func:`_kernel_rfft` (same centre-tap convention). The
convolution serves the dense oracles and is the tests' reference for both.
:func:`conv_operator_norm` still gives every layer its normalizer.

:func:`conv_operator_norm` runs the SVD only on the frequencies that can
hold the maximum: two upper bounds on each frequency's Gram matrix
(Gershgorin's and a trace bound), taken on the spectrum scaled by an exact
power of two, drop those whose bound is below one exact singular value.
The returned norm is bitwise the maximum of the SVD of every matrix. With
3 channels near the identity on a 32x32 grid, a few of the 544 frequencies
reach the SVD; with 8 channels near the identity the bounds are looser,
about three in four remain, and forming the bounds is overhead.
"""

import numpy as np
from scipy import fft

from .errors import DimensionError, SizeGuardError, ValidationError

# numerical guard added to the spectral norm in the normalized convolution
NORM_GUARD = 1e-12


def as_image(x, name="image"):
    """Coerce to a float64 array of shape (..., C, H, W) and validate it."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 3:
        raise DimensionError(f"{name} must have shape (..., C, H, W), got {x.shape}")
    if min(x.shape[-3:]) < 1:
        raise DimensionError(f"{name} has an empty axis: {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"{name} contains non-finite values")
    return x


def as_kernel(k, name="kernel"):
    """Coerce to a float64 array of shape (c_out, c_in, k_h, k_w) and validate it."""
    k = np.asarray(k, dtype=np.float64)
    if k.ndim != 4:
        raise DimensionError(
            f"{name} must have shape (c_out, c_in, k_h, k_w), got {k.shape}")
    c_out, c_in, k_h, k_w = k.shape
    if min(k.shape) < 1:
        raise DimensionError(f"{name} has an empty axis: {k.shape}")
    if k_h % 2 == 0 or k_w % 2 == 0:
        raise DimensionError(f"{name} spatial extents must be odd, got {k_h}x{k_w}")
    if not np.all(np.isfinite(k)):
        raise ValidationError(f"{name} contains non-finite values")
    return k


def _padded_kernel(k, grid_h, grid_w):
    """The kernel zero-padded to the grid, center tap at the origin.

    Returns a real array of shape (c_out, c_in, H, W).
    """
    c_out, c_in, k_h, k_w = k.shape
    if grid_h < k_h or grid_w < k_w:
        raise DimensionError(
            f"grid {grid_h}x{grid_w} smaller than kernel {k_h}x{k_w}")
    pad = np.zeros((c_out, c_in, grid_h, grid_w), dtype=np.float64)
    rows = (np.arange(k_h) - k_h // 2) % grid_h
    cols = (np.arange(k_w) - k_w // 2) % grid_w
    pad[:, :, rows[:, None], cols[None, :]] = k
    return pad


def _kernel_rfft(k, grid_h, grid_w):
    """Half-spectrum of the padded kernel: complex (c_out, c_in, H, W//2 + 1)."""
    return fft.rfft2(_padded_kernel(k, grid_h, grid_w), axes=(-2, -1))


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
    kf = _kernel_rfft(k, h, w)
    xf = fft.rfft2(x, axes=(-2, -1))
    yf = np.einsum("oihw,...ihw->...ohw", kf, xf)
    return fft.irfft2(yf, s=(h, w), axes=(-2, -1))


def freq_response(k, grid_h, grid_w):
    """Per-frequency channel-mixing matrices of the circular convolution.

    Args:
        k: Kernel array of shape (c_out, c_in, k_h, k_w).
        grid_h, grid_w: Grid the convolution acts on; must cover the kernel.

    Returns:
        Complex array of shape (H, W, c_out, c_in); entry ``[u, v]`` is the
        channel matrix at frequency ``(u, v)``, aligned with the same origin
        convention as :func:`conv2d_circular` so that convolution in space is
        per-frequency matrix multiplication.
    """
    k = as_kernel(k)
    kf = np.fft.fft2(_padded_kernel(k, grid_h, grid_w), axes=(-2, -1))
    return np.transpose(kf, (2, 3, 0, 1))


def conv_operator_norm(k, grid_h, grid_w):
    """Exact Euclidean operator norm of the circular convolution on a grid.

    Equals the maximum over the H*W frequencies of the largest singular value
    of the per-frequency channel matrix. Computed by exact SVD of the small
    matrices that can hold the maximum, so the result is a certificate, not
    an estimate. Only the H*(W//2 + 1) frequencies of the half-spectrum are
    visited; the others hold conjugate matrices with the same singular
    values.

    The SVD is pruned without changing the result. The Gram matrix ``G`` of
    each frequency, on the smaller side (``M M^H`` or ``M^H M``), gets two
    cheap upper bounds on its largest eigenvalue, sigma_max^2: Gershgorin's
    largest absolute row sum, and the trace bound of Wolkowicz & Styan,
    ``m + sqrt((n-1)/n) * ||G - m I||_F`` with ``m`` the mean of the
    diagonal (the n eigenvalues of ``G - m I`` sum to zero, and their norm
    is that Frobenius norm). Gershgorin is tight when ``G`` is nearly
    diagonal, the trace bound when ``G`` is near a multiple of the
    identity, as for near-identity kernels; the smaller of the two is
    used. One SVD, of the matrix with the largest bound, gives a lower
    bound on the maximum. A frequency whose upper bound is below it, by
    more than a 1e-9 relative margin for rounding, cannot hold the maximum;
    the batched SVD runs on the rest. LAPACK factors each matrix of
    a batch on its own, so the frequency that holds the maximum gives the
    same bits as in an SVD of every matrix.

    The bounds and the lower bound are computed on the spectrum scaled by
    ``2^-e``, where ``e`` is the exponent of its largest entry, so every
    entry has modulus below 1. Unscaled, the Gram overflows for kernels near
    1e150 and above and loses its small entries to underflow, and the
    singular values of a subnormal matrix come back rounded to multiples of
    2^-1074, which can lift them above their own bound. A power of two
    scales every entry exactly. The batched SVD, whose values are returned,
    runs on the unscaled matrices.
    """
    k = as_kernel(k)
    kf = _kernel_rfft(k, grid_h, grid_w)
    c_out, c_in = kf.shape[:2]
    if c_out == 1 and c_in == 1:
        return float(np.abs(kf).max())
    e = np.frexp(np.abs(kf).max())[1]
    scaled = np.ldexp(kf.view(np.float64), -e).view(np.complex128)
    scaled = scaled.reshape(c_out, c_in, -1)
    gram = np.einsum("aif,bif->abf" if c_out <= c_in else "iaf,ibf->abf",
                     scaled, np.conj(scaled))
    n = gram.shape[0]
    mag = np.abs(gram)
    gershgorin = mag.sum(axis=1).max(axis=0)
    diag = gram[range(n), range(n)].real
    mean = diag.mean(axis=0)
    mag[range(n), range(n)] = np.abs(diag - mean)
    spread = np.sqrt((mag ** 2).sum(axis=(0, 1)) * ((n - 1) / n))
    bound = np.sqrt(np.minimum(gershgorin, mean + spread))
    lower = np.linalg.svd(scaled[:, :, np.argmax(bound)], compute_uv=False)[0]
    # "not below" rather than "at least", so a NaN bound keeps its frequency
    keep = ~(bound * (1.0 + 1e-9) < lower)
    mats = kf.reshape(c_out, c_in, -1).transpose(2, 0, 1)
    sv = np.linalg.svd(mats[keep], compute_uv=False)
    return float(sv[:, 0].max())


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
    singular value by dense SVD, exact to rounding. Guarded to small grids;
    intended as a test oracle for :func:`conv_operator_norm`.
    """
    return float(np.linalg.norm(_dense_matrix(k, grid_h, grid_w), 2))


def dense_top_singular_vector(k, grid_h, grid_w):
    """Top right-singular vector of the dense operator, as an image.

    Returns ``(sigma, v)`` where ``v`` has shape (c_in, H, W) and unit norm;
    ``conv2d_circular(v, k)`` attains the operator norm ``sigma`` to rounding.
    """
    _, sv, vt = np.linalg.svd(_dense_matrix(k, grid_h, grid_w),
                              full_matrices=False)
    return float(sv[0]), vt[0].reshape(k.shape[1], grid_h, grid_w)
