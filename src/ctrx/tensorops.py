"""Spectra and exact operator norms of multichannel circular convolutions.

Images are float64 arrays of shape ``(..., C, H, W)``. Kernels are float64
arrays of shape ``(c_out, c_in, k_h, k_w)`` with odd spatial extents.

Convention: true convolution under periodic boundary, with the kernel's
center tap ``(k_h//2, k_w//2)`` sitting at the spatial origin. Every kernel
spectrum in ctrx is :func:`kernel_spectrum`, the DFT of the taps at those
offsets on any set of columns (the layers' kernel gradient is the adjoint
of its :func:`tap_bases`); this makes spatial convolution and per-frequency
matrix multiplication agree to machine precision.

Images and kernels are real, so their spectra are conjugate-symmetric:
``X[-u, -v] = conj(X[u, v])``. Every convolution therefore runs on the real
half-spectrum, :func:`rfft2` over columns ``0 .. W//2`` and :func:`irfft2`
back with the explicit grid size ``(H, W)`` (odd widths need it). The pair
runs ``numpy.fft`` one axis at a time and is bitwise equal to
``scipy.fft.rfft2``/``irfft2``, so ctrx needs nothing from scipy. The
operator norm is exact on the half-spectrum too: the channel matrix at
``-f`` is the complex conjugate of the one at ``f``, and a matrix and its
conjugate have the same singular values, so the half covers every
singular value of the full grid (Sedghi, Gupta & Long, "The Singular
Values of Convolutional Layers", ICLR 2019).

No convolution runs in space: ``ctrx.layers`` folds each layer's
convolution, with its wavelet synthesis and the next analysis, into one
matrix per frequency of the half grid, and ``ctrx.pnp`` multiplies by the
blur's spectrum. :func:`conv_operator_norm` gives every layer its normalizer.

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

from .errors import DimensionError, ValidationError

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


def rfft2(x):
    """Half-spectrum over the last two axes, complex (..., H, W//2 + 1):
    ``rfft`` along the columns, then the complex FFT along the rows, in
    place."""
    spec = np.fft.rfft(x, axis=-1)
    return np.fft.fft(spec, axis=-2, out=spec)


def irfft2(spec, shape):
    """Real (..., H, W) signals whose :func:`rfft2` is ``spec``, for
    ``shape`` = (H, W). Both passes run unscaled (``norm="forward"`` on an
    inverse) and one multiply by ``1 / (H W)`` follows: numpy's per-axis
    scaling (``np.fft.irfft2``) rounds differently from ``scipy.fft.irfft2``,
    this does not."""
    h, w = shape
    x = np.fft.irfft(np.fft.ifft(spec, n=h, axis=-2, norm="forward"),
                     n=w, axis=-1, norm="forward")
    x *= 1.0 / (h * w)
    return x


def tap_bases(kernel_shape, grid_h, grid_w, cols):
    """DFT rows ``e^(-2 pi i f t / n)`` for the kernel taps t (centre at 0):
    (H, k_h) over every row frequency, and (len(cols), k_w) over the column
    frequencies ``cols``. ``f t`` is reduced mod n first, so the phase is
    exact."""

    def basis(freqs, size, n):
        return np.exp(-2j * np.pi * (np.outer(freqs, np.arange(size) - size // 2) % n) / n)
    return (basis(np.arange(grid_h), kernel_shape[-2], grid_h),
            basis(cols, kernel_shape[-1], grid_w))


def kernel_spectrum(k, grid_h, grid_w, cols=None):
    """Complex (..., H, len(cols)) channel matrices of the circular conv by
    ``k``, (..., k_h, k_w): the DFT of the taps, centre tap at the origin,
    at every row frequency and the column frequencies ``cols`` of the H x W
    grid (``None``: the half-spectrum ``0 .. W//2``), which must cover k."""
    k_h, k_w = k.shape[-2:]
    if grid_h < k_h or grid_w < k_w:
        raise DimensionError(
            f"grid {grid_h}x{grid_w} smaller than kernel {k_h}x{k_w}")
    if cols is None:
        cols = np.arange(grid_w // 2 + 1)
    rows, cols = tap_bases(k.shape, grid_h, grid_w, cols)
    return rows @ k @ cols.T


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
    kf = kernel_spectrum(k, grid_h, grid_w)
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

