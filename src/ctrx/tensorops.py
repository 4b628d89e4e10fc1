"""Circular 2D convolution and exact operator norms for multichannel kernels.

Images are float64 arrays of shape ``(C, H, W)``; a leading batch axis is
accepted by every operation and broadcast through. Kernels are float64 arrays
of shape ``(c_out, c_in, k_h, k_w)`` with odd spatial extents.

Convention: true convolution under periodic boundary, with the kernel's
center tap ``(k_h//2, k_w//2)`` sitting at the spatial origin. The padded
kernel is circularly shifted so that the center tap lands on DFT index
``(0, 0)`` before the FFT; this makes spatial convolution and per-frequency
matrix multiplication agree to machine precision.
"""

import numpy as np

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


def _padded_kernel_fft(k, grid_h, grid_w):
    """FFT of the kernel zero-padded to the grid, center tap at the origin.

    Returns a complex array of shape (c_out, c_in, H, W).
    """
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
    kf = _padded_kernel_fft(k, h, w)
    xf = np.fft.fft2(x, axes=(-2, -1))
    yf = np.einsum("oihw,...ihw->...ohw", kf, xf)
    return np.fft.ifft2(yf, axes=(-2, -1)).real


def conv2d_circular_adjoint(g, k):
    """Adjoint of :func:`conv2d_circular` in its image argument.

    Maps (..., c_out, H, W) back to (..., c_in, H, W); the per-frequency
    channel matrix is conjugate-transposed, which is exactly the transpose of
    the circulant operator.
    """
    g = as_image(g)
    k = as_kernel(k)
    if g.shape[-3] != k.shape[0]:
        raise DimensionError(
            f"input has {g.shape[-3]} channels, kernel adjoint expects {k.shape[0]}")
    h, w = g.shape[-2:]
    kf = _padded_kernel_fft(k, h, w)
    gf = np.fft.fft2(g, axes=(-2, -1))
    yf = np.einsum("oihw,...ohw->...ihw", np.conj(kf), gf)
    return np.fft.ifft2(yf, axes=(-2, -1)).real


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
    kf = _padded_kernel_fft(k, grid_h, grid_w)
    return np.transpose(kf, (2, 3, 0, 1))


def conv_operator_norm(k, grid_h, grid_w):
    """Exact Euclidean operator norm of the circular convolution on a grid.

    Equals the maximum over the H*W frequencies of the largest singular value
    of the per-frequency channel matrix. Computed by exact SVD of each small
    matrix, so the result is a certificate, not an estimate.
    """
    k = as_kernel(k)
    kf = _padded_kernel_fft(k, grid_h, grid_w)
    c_out, c_in = kf.shape[:2]
    if c_out == 1 and c_in == 1:
        return float(np.abs(kf).max())
    mats = kf.reshape(c_out, c_in, -1).transpose(2, 0, 1)
    sv = np.linalg.svd(mats, compute_uv=False)
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


def _power_iteration_top_singular(mat, tol=1e-12, max_iters=300_000):
    """Largest singular value of ``mat`` by power iteration on ``mat.T @ mat``.

    Returns ``(sigma, v)`` with ``v`` the corresponding unit right-singular
    vector. Stops when the Rayleigh estimate of sigma^2 is stable to ``tol``
    relative, three iterations in a row.
    """
    gram = mat.T @ mat
    rng = np.random.default_rng(0)
    v = rng.standard_normal(gram.shape[0])
    v /= np.linalg.norm(v)
    prev = -1.0
    stable = 0
    for _ in range(max_iters):
        w = gram @ v
        est = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0, v
        v = w / nw
        if prev >= 0 and abs(est - prev) <= tol * max(est, np.finfo(float).tiny):
            stable += 1
            if stable >= 3:
                prev = est
                break
        else:
            stable = 0
        prev = est
    return float(np.sqrt(max(prev, 0.0))), v


def dense_norm_oracle(k, grid_h, grid_w):
    """Operator norm via the explicit dense matrix, independent of the FFT path.

    Builds the full circulant matrix column by column and runs power iteration
    on its Gram matrix to relative tolerance 1e-10. Guarded to small grids;
    intended as a test oracle for :func:`conv_operator_norm`.
    """
    sigma, _ = _power_iteration_top_singular(_dense_matrix(k, grid_h, grid_w))
    return sigma


def dense_top_singular_vector(k, grid_h, grid_w):
    """Top right-singular vector of the dense operator, as an image.

    Returns ``(sigma, v)`` where ``v`` has shape (c_in, H, W) and unit norm;
    ``conv2d_circular(v, k)`` attains the operator norm up to the power
    iteration tolerance.
    """
    mat = _dense_matrix(k, grid_h, grid_w)
    sigma, v = _power_iteration_top_singular(mat)
    return sigma, v.reshape(k.shape[1], grid_h, grid_w)


def clip_norm(k, grid_h, grid_w, budget):
    """Rescale the kernel if its operator norm on the grid exceeds ``budget``.

    Returns ``k`` unchanged when already within budget, else
    ``k * budget / (s + 1e-12)`` where ``s`` is the computed norm.
    """
    if not budget > 0:
        raise ValidationError(f"budget must be positive, got {budget}")
    k = as_kernel(k)
    s = conv_operator_norm(k, grid_h, grid_w)
    if s <= budget:
        return k
    return k * (budget / (s + NORM_GUARD))

