"""Contractive denoiser layers, the depth-M network, and its certificate.

One layer blends the fixed observation into the running state (gradient step
on the quadratic data term), soft-thresholds the high-frequency wavelet
coefficients of the blend (the exact proximal map of a weighted l1 penalty on
those coefficients), then refines with a norm-controlled convolution scaled
by ``1 / ((1 - alpha) + eps)``.

With ``alpha`` in (0, 1) the blend-plus-prox map is ``(1 - alpha)``-Lipschitz
in the state; the normalized convolution is below 1; so every layer's state
map has Lipschitz constant at most ``(1 - alpha) / ((1 - alpha) + eps) < 1``
and the depth-M composition contracts by the product of the per-layer
bounds. That product is computed exactly (FFT + per-frequency SVD), making
the certificate a checkable artifact rather than an estimate.

:func:`network_forward` flattens the leading axes of a batch and cuts it
with ``np.array_split`` into ``ceil(nbytes / CHUNK_BYTES)`` chunks (at most
one per patch), so every layer's temporaries stay cache-sized. A batch of
one chunk runs inline; more run on a thread pool of ``min(chunks, CPUs
available)`` workers and are concatenated in order. Every stage (stacked
``matmul``, per-item FFTs, ``einsum``, ufuncs) computes each patch on its
own, so the output is bitwise equal to the forward of the whole batch at
once, and every finiteness check still sees every element.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import CertificateError, DimensionError, ValidationError
from .tensorops import (NORM_GUARD, as_image, as_kernel, conv2d_circular,
                        conv_operator_norm)
from .wavelets import FAMILY_CYCLE, WaveletFamily, dwt2, get_family, idwt2, soft_threshold_hf

ALPHA_MIN = 1e-3
DEFAULT_EPS = 1e-3
# batch bytes per chunk of network_forward: a chunk's per-layer temporaries
# then fit in cache and are reused by the allocator instead of each being a
# fresh mmap of the whole batch's size
CHUNK_BYTES = 512 * 1024


def softplus(raw):
    """Strictly positive reparameterization, floored at the smallest normal."""
    return np.maximum(np.logaddexp(0.0, raw), np.finfo(np.float64).tiny)


def softplus_inverse(value):
    """Raw parameter whose softplus is ``value`` (> 0)."""
    value = np.asarray(value, dtype=np.float64)
    if not np.all(value > 0):
        raise ValidationError("softplus_inverse needs positive values")
    return value + np.log(-np.expm1(-value))


@dataclass
class LayerParams:
    """Parameters of one contractive layer.

    ``raw_thresholds`` has shape (3, C, P/2, P/2) and passes through softplus,
    so thresholds are positive by construction. Treat instances as immutable
    after creation; updates should build new objects.
    """

    alpha: float
    raw_thresholds: np.ndarray
    kernel: np.ndarray
    family: WaveletFamily
    _norm_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _thresholds: np.ndarray = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        self.alpha = float(self.alpha)
        if not np.isfinite(self.alpha):
            raise ValidationError(f"alpha must be finite, got {self.alpha}")
        self.raw_thresholds = np.asarray(self.raw_thresholds, dtype=np.float64)
        if self.raw_thresholds.ndim != 4 or self.raw_thresholds.shape[0] != 3:
            raise DimensionError(
                f"raw_thresholds must have shape (3, C, P/2, P/2), got "
                f"{self.raw_thresholds.shape}")
        if not np.all(np.isfinite(self.raw_thresholds)):
            raise ValidationError("raw_thresholds contain non-finite values")
        self.kernel = as_kernel(self.kernel)
        if self.kernel.shape[0] != self.kernel.shape[1]:
            raise DimensionError(
                f"layer kernels must have c_out = c_in, got {self.kernel.shape}")

    def thresholds(self):
        """Softplus of ``raw_thresholds``, computed once and read-only."""
        if self._thresholds is None:
            thr = softplus(self.raw_thresholds)
            thr.flags.writeable = False
            self._thresholds = thr
        return self._thresholds

    def conv_norm(self, grid_h, grid_w):
        """Operator norm of this layer's kernel on the grid, cached."""
        key = (grid_h, grid_w)
        if key not in self._norm_cache:
            self._norm_cache[key] = conv_operator_norm(self.kernel, grid_h, grid_w)
        return self._norm_cache[key]


@dataclass
class NetworkParams:
    """Ordered layer list plus the shared layer epsilon and patch geometry."""

    layers: list
    eps: float = DEFAULT_EPS
    patch: int = 64
    channels: int = 1

    def __post_init__(self):
        if len(self.layers) < 1:
            raise ValidationError("network needs at least one layer")
        if not self.eps > 0:
            raise ValidationError(f"eps must be positive, got {self.eps}")
        if self.patch < 2 or self.patch % 2:
            raise ValidationError(f"patch must be even and >= 2, got {self.patch}")
        half = self.patch // 2
        for i, layer in enumerate(self.layers):
            want_family = FAMILY_CYCLE[i % len(FAMILY_CYCLE)]
            if layer.family.name != want_family:
                raise ValidationError(
                    f"layer {i} has family {layer.family.name!r}; the cycle "
                    f"requires {want_family!r}")
            if layer.raw_thresholds.shape != (3, self.channels, half, half):
                raise DimensionError(
                    f"layer {i} thresholds shaped {layer.raw_thresholds.shape}, "
                    f"expected {(3, self.channels, half, half)}")
            if layer.kernel.shape[0] != self.channels:
                raise DimensionError(
                    f"layer {i} kernel has {layer.kernel.shape[0]} channels, "
                    f"network declares {self.channels}")

    @property
    def depth(self):
        return len(self.layers)


def gain_denominator(alpha, eps):
    """``(1 - alpha) + eps``: each layer scales its normalized conv by the
    reciprocal, the gain ``1 / ((1 - alpha) + eps)``.

    The one place that rule is written: the forward pass, its backward, the
    certificate and the kernel projection all divide by this value.
    """
    return (1.0 - alpha) + eps


def layer_forward(x, y, p, eps, s):
    """One layer with the kernel normalized by ``s``, and its backward tape.

    Returns ``(out, (shrunk, u, vraw))``: ``shrunk`` holds the
    soft-thresholded wavelet coefficients of the blend, ``u`` their
    synthesis (the prox of the wavelet penalty at the blend, so
    ``(1 - alpha)``-Lipschitz in ``x``), ``vraw`` the unnormalized
    convolution of ``u``, and ``out = vraw / ((s + NORM_GUARD) *
    gain_denominator(alpha, eps))``, one scalar factor. With ``s`` the
    kernel's norm on the grid of ``x``, the map ``x -> out`` at fixed ``y``
    is at most ``(1 - alpha) / ((1 - alpha) + eps)``-Lipschitz. Inference
    discards the tape; training keeps it for backpropagation. Inputs are
    not validated here.
    """
    # wavelet coefficients of the blend, detail subbands soft-thresholded;
    # one expression, so the blend is freed before the synthesis
    shrunk = soft_threshold_hf(dwt2((1.0 - p.alpha) * x + p.alpha * y, p.family),
                               p.thresholds())
    u = idwt2(shrunk, p.family)
    vraw = conv2d_circular(u, p.kernel)
    scale = 1.0 / ((s + NORM_GUARD) * gain_denominator(p.alpha, eps))
    return vraw * scale, (shrunk, u, vraw)


def network_forward(y, net, x0=None):
    """Run the depth-M network on an observation of shape (..., C, P, P).

    The state starts at ``y`` and every layer's gradient step blends against
    the same ``y``. Passing ``x0`` overrides only the starting state, which is
    what the contraction guarantee quantifies: two runs with the same ``y``
    but different ``x0`` approach each other by the certificate's total bound.

    A batch above ``CHUNK_BYTES`` is split into ``ceil(nbytes /
    CHUNK_BYTES)`` chunks of patches (at most one per patch) that run on
    ``min(chunks, CPUs available)`` threads; the result is bitwise equal to
    the unsplit forward. An error raised in any chunk is raised here.
    """
    y = as_image(y)
    if y.shape[-3] != net.channels or y.shape[-2:] != (net.patch, net.patch):
        raise DimensionError(
            f"expected input shape (..., {net.channels}, {net.patch}, "
            f"{net.patch}), got {y.shape}")
    if x0 is None:
        x = y
    else:
        x = as_image(x0)
        if x.shape != y.shape:
            raise DimensionError(
                f"x0 shape {x.shape} must match observation shape {y.shape}")
    # both caches are filled here, so worker threads only read them
    norms = [layer.conv_norm(net.patch, net.patch) for layer in net.layers]
    for layer in net.layers:
        layer.thresholds()

    def run(x, y):
        for layer, s in zip(net.layers, norms):
            # indexing drops the tape before the next layer runs
            x = layer_forward(x, y, layer, net.eps, s)[0]
        return x

    chunks = min(math.ceil(y.nbytes / CHUNK_BYTES), math.prod(y.shape[:-3]))
    if chunks <= 1:
        return run(x, y)
    flat = (-1,) + y.shape[-3:]
    with ThreadPoolExecutor(min(chunks, len(os.sched_getaffinity(0)))) as pool:
        outs = list(pool.map(run, np.array_split(x.reshape(flat), chunks),
                             np.array_split(y.reshape(flat), chunks)))
    return np.concatenate(outs).reshape(y.shape)


@dataclass(frozen=True)
class LayerBound:
    """Exact per-layer certificate entries."""

    conv_norm: float      # s, the kernel's operator norm on the patch grid
    conv_budget: float    # 1 / ((1 - alpha) + eps), the projection's budget
    layer_bound: float    # Lipschitz bound of the layer's state map


@dataclass(frozen=True)
class ContractionCertificate:
    """Machine-checked Lipschitz bounds for a network on its P x P patch grid.

    ``total_bound`` bounds the state map (same observation injected along both
    trajectories) and is provably < 1. ``observation_bound`` bounds the full
    input-output map, accumulating the per-layer observation blend
    ``alpha * conv_factor / ((1 - alpha) + eps)``: it can exceed 1 and is
    reported, not asserted.
    """

    per_layer: tuple
    total_bound: float
    observation_bound: float


def contraction_certificate(net):
    """Per-layer and composed contraction bounds on the network's patch grid.

    Each layer divides by its kernel's norm on the P x P grid, and a circular
    conv's norm depends on the grid, so that is the one grid certified.
    """
    per_layer = []
    total = 1.0
    obs = 1.0
    for i, layer in enumerate(net.layers):
        s = layer.conv_norm(net.patch, net.patch)
        denom = gain_denominator(layer.alpha, net.eps)
        conv_factor = min(1.0, s / (s + NORM_GUARD))
        bound = ((1.0 - layer.alpha) / denom) * conv_factor
        if not bound < 1.0:
            raise CertificateError(
                f"layer {i} bound {bound} is not < 1; alpha={layer.alpha}, "
                f"s={s} -- this indicates a bug, not bad input")
        per_layer.append(LayerBound(s, 1.0 / denom, bound))
        obs = bound * obs + (conv_factor / denom) * layer.alpha
        total *= bound
    if not total < 1.0:
        raise CertificateError(f"total bound {total} is not < 1")
    return ContractionCertificate(tuple(per_layer), total, obs)


def constrain_params(net):
    """Project parameters back into the certified region.

    Alphas are clipped into [1e-3, 1 - 1e-3]. A kernel whose operator norm
    on the patch grid exceeds the layer's gain ``1 / ((1 - alpha) + eps)``
    is rescaled to ``budget / (s + NORM_GUARD)`` times itself, just under
    that budget; one within it is returned as the same array, so a second
    projection changes nothing. Thresholds need no projection (softplus
    keeps them positive). A kernel left unchanged keeps its cached norms,
    so the next forward does not recompute them; a rescaled one starts
    with an empty cache. Returns a new NetworkParams; the input is left
    untouched.
    """
    constrained = []
    for layer in net.layers:
        alpha = float(np.clip(layer.alpha, ALPHA_MIN, 1.0 - ALPHA_MIN))
        budget = 1.0 / gain_denominator(alpha, net.eps)
        s = layer.conv_norm(net.patch, net.patch)
        if s <= budget:
            kernel, cache = layer.kernel, dict(layer._norm_cache)
        else:
            kernel, cache = layer.kernel * (budget / (s + NORM_GUARD)), {}
        constrained.append(LayerParams(alpha, layer.raw_thresholds, kernel,
                                       layer.family, cache))
    return NetworkParams(constrained, eps=net.eps, patch=net.patch,
                         channels=net.channels)


def init_network(depth=30, patch=64, channels=1, kernel_size=3, eps=DEFAULT_EPS,
                 seed=0, alpha_range=(0.1, 0.7), threshold_mean=0.05,
                 kernel_noise=0.05):
    """Random constrained initialization.

    Kernels start at identity plus Gaussian noise so the untrained network is
    a mild perturbation of the prox-wavelet cascade; the result is passed
    through :func:`constrain_params`, so the certificate holds from step zero.
    """
    if kernel_size < 1:
        raise ValidationError(f"kernel size must be >= 1, got {kernel_size}")
    rng = np.random.default_rng(seed)
    half = patch // 2
    raw0 = float(softplus_inverse(threshold_mean))
    layers = []
    for i in range(depth):
        alpha = float(rng.uniform(*alpha_range))
        raw = raw0 + 0.1 * rng.standard_normal((3, channels, half, half))
        kernel = kernel_noise * rng.standard_normal(
            (channels, channels, kernel_size, kernel_size))
        center = kernel_size // 2
        for c in range(channels):
            kernel[c, c, center, center] += 1.0
        layers.append(LayerParams(alpha, raw, kernel,
                                  get_family(FAMILY_CYCLE[i % 3])))
    net = NetworkParams(layers, eps=eps, patch=patch, channels=channels)
    return constrain_params(net)
