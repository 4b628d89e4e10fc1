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

The layers run in the wavelet domain. The state of a patch is the four
wavelet bands of the next layer's family, (4C, P/2, P/2), band-major. The
blend is linear, so it runs on the bands against the observation's bands,
which :func:`wavelet_state` computes once per family with the dense
``dwt2``; those products, and the tests, are the only place the dense
wavelet matrices still run. A layer's synthesis, convolution and the next
family's analysis are all circular and shift invariant by two, so together
they are one 4C x 4C matrix per frequency of the half grid's half-spectrum
(the polyphase form of the filter bank, built from the kernel's spectrum at
the four aliases of that frequency; :func:`_transfers`). The ll band is
never thresholded, so it stays a spectrum from layer to layer; only the
three detail bands pass through ``irfft2``/``rfft2`` around the threshold.
The last layer maps to the polyphase split of the output image. Every
forward runs the constants of :func:`forward_steps` with :func:`run_network`;
:meth:`NetworkParams.steps` keeps the network's own, on its patch grid.

:func:`network_forward` flattens the leading axes of a batch and cuts it
with ``np.array_split`` into ``ceil(nbytes / CHUNK_BYTES)`` chunks (at most
one per patch), so every layer's temporaries stay cache-sized. A batch of
one chunk runs inline; more run on a thread pool of ``min(chunks, CPUs
available)`` workers, each writing its slice of one output array. Every
stage (the dense analysis, FFTs over the last two axes, ufuncs, and the
per-frequency mix, one complex multiply-add per matrix entry rather than a
BLAS product, whose rounding may depend on the number of rows) computes
each patch on its own, so the output is bitwise equal to the forward of the
whole batch at once.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import fft

from .errors import CertificateError, DimensionError, ValidationError
from .tensorops import NORM_GUARD, as_image, as_kernel, conv_operator_norm
from .wavelets import (FAMILY_CYCLE, WaveletFamily, dwt2, get_family, shrink,
                       synthesis_aliases)

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
        """Softplus of ``raw_thresholds``."""
        return softplus(self.raw_thresholds)

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
    _steps: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.layers) < 1:
            raise ValidationError("network needs at least one layer")
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ValidationError(f"eps must be finite and positive, got {self.eps}")
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

    def conv_norms(self):
        """Every layer's conv norm on the patch grid."""
        return [layer.conv_norm(self.patch, self.patch) for layer in self.layers]

    def steps(self):
        """The :func:`forward_steps` table on the patch grid, built on the
        first call and kept (treat the network as immutable); its arrays are
        read-only, so threads share it."""
        if self._steps is None:
            steps = tuple(forward_steps(self.layers, self.eps, self.conv_norms(),
                                        self.patch, self.patch))
            for *_, thresholds, transfer in steps:
                thresholds.flags.writeable = transfer.flags.writeable = False
            self._steps = steps
        return self._steps


def gain_denominator(alpha, eps):
    """``(1 - alpha) + eps``: each layer scales its normalized conv by the
    reciprocal, the gain ``1 / ((1 - alpha) + eps)``.

    The one place that rule is written: the forward pass, its backward, the
    certificate and the kernel projection all divide by this value.
    """
    return (1.0 - alpha) + eps


def band_layout(bands):
    """(n, B, C, h, w) bands to the step's layout (nC, B, h, w), band-major."""
    n, b, c = bands.shape[:3]
    return bands.transpose(0, 2, 1, 3, 4).reshape((n * c, b) + bands.shape[3:])


def band_aliases(fam, grid_h, grid_w):
    """Complex (4, 4, H/2, W/4 + 1) 2D synthesis: entry ``[e, j]`` takes band
    j = (a, b) at each frequency of the half grid's half-spectrum to alias
    e = (e1, e2) of the full grid, pairs flattened row-major (``fam=None``:
    the polyphase split)."""
    rows = synthesis_aliases(fam, grid_h).transpose(1, 2, 0)
    cols = synthesis_aliases(fam, grid_w)[:grid_w // 4 + 1].transpose(1, 2, 0)
    m = rows[:, None, :, None, :, None] * cols[None, :, None, :, None, :]
    return m.reshape((4, 4) + m.shape[-2:])


def tap_bases(kernel_shape, grid_h, grid_w):
    """DFT rows ``e^(-2 pi i f t / n)`` for the kernel taps t (centre at 0):
    (H, k_h) over every row frequency, and (2 (W/4 + 1), k_w) over the
    column frequencies of the four aliases of the half grid's
    half-spectrum, e2-major. ``f t`` is reduced mod n first, so the phase
    is exact."""
    half_w = grid_w // 2

    def basis(freqs, size, n):
        return np.exp(-2j * np.pi * (np.outer(freqs, np.arange(size) - size // 2) % n) / n)
    cols = (np.arange(2)[:, None] * half_w + np.arange(half_w // 2 + 1)).ravel()
    return (basis(np.arange(grid_h), kernel_shape[-2], grid_h),
            basis(cols, kernel_shape[-1], grid_w))


def _transfers(layers, scales, targets, grid_h, grid_w):
    """Each layer's per-frequency map from its shrunk bands to its target.

    Layer l's transfer ``t`` is complex (4C, 4C, H/2, W/4 + 1), channels
    band-major: ``t[s, r]`` is the coefficient of input band-channel s in
    output r at every frequency of the half grid's half-spectrum, for
    ``scales[l]`` times (analysis by ``targets[l]``) o conv o (synthesis by
    the layer's family); a target of None is the polyphase split of the
    output. The synthesis ``M`` takes the bands to the four aliases of the
    full grid, where the conv is the kernel's channel matrix at each (a DFT
    of its taps, centre tap at the origin as in ``conv2d_circular``), and
    the analysis is ``M^H / 4``. The layers of one (family, target) pair
    are built together.
    """
    half_h = grid_h // 2
    bases, pairs = {}, {}
    for i, (layer, target) in enumerate(zip(layers, targets)):
        key = (layer.family.name, target and target.name)
        pairs.setdefault(key, (layer.family, target, []))[2].append(i)
    out = [None] * len(layers)
    for fam, target, idx in pairs.values():
        # the kernels' spectra at the aliases, (e1 e2, layer, i, o, f1, f2)
        spec = []
        for i in idx:
            kernel = layers[i].kernel * (0.25 * scales[i])
            if kernel.shape not in bases:
                bases[kernel.shape] = tap_bases(kernel.shape, grid_h, grid_w)
            rows, cols = bases[kernel.shape]
            spec.append(rows @ kernel @ cols.T)
        c = spec[0].shape[0]
        k = np.stack(spec).reshape(len(idx), c, c, 2, half_h, 2, -1)
        k = k.transpose(3, 5, 0, 2, 1, 4, 6).reshape((4, len(idx), c, c, half_h, -1))
        mi, mo = band_aliases(fam, grid_h, grid_w), np.conj(band_aliases(target, grid_h, grid_w))
        # sum over the aliases e of M_in[e, J] K[e, o, i] conj(M_out[e, j])
        t = np.zeros((len(idx), 4, c, 4, c) + k.shape[-2:], dtype=np.complex128)
        for e in range(4):
            t += (k[e][:, None, :, None] * (mi[e][:, None] * mo[e][None, :])[:, None, :, None])
        t = t.reshape((len(idx), 4 * c, 4 * c) + k.shape[-2:])
        for j, i in enumerate(idx):
            out[i] = t[j]
    return out


def forward_steps(layers, eps, norms, grid_h, grid_w):
    """Per layer the constants of :func:`step` on a grid_h x grid_w grid:
    family, target, alpha, scale, thresholds (3C, 1, H/2, W/2) and transfer.

    The one place they are computed: a layer's conv is scaled by one over
    its norm in ``norms`` (plus NORM_GUARD) times its gain denominator, and
    its target is the next layer's family, None (the polyphase split of the
    output) for the last. Built afresh on every call.
    """
    scales = [1.0 / ((s + NORM_GUARD) * gain_denominator(layer.alpha, eps))
              for layer, s in zip(layers, norms)]
    targets = [layer.family for layer in layers[1:]] + [None]
    transfers = _transfers(layers, scales, targets, grid_h, grid_w)
    return [(layer.family, target, layer.alpha, scale,
             layer.thresholds().reshape((-1, 1) + layer.raw_thresholds.shape[2:]), t)
            for layer, target, scale, t in zip(layers, targets, scales, transfers)]


def wavelet_state(x, fam):
    """(B, C, H, W) images as a state of the step: the spectrum of their ll
    band, complex (C, B, H/2, W/4 + 1), and their three detail bands,
    (3C, B, H/2, W/2)."""
    c = dwt2(x, fam)
    return (fft.rfft2(band_layout(c.ll[None])),
            band_layout(np.stack((c.lh, c.hl, c.hh))))


def mix(bands, transfer):
    """``out[r] = sum_s transfer[s, r] * bands[s]`` at every frequency.

    One complex multiply-add per (s, r) over the batch, in ascending s, so
    each patch's output is computed on its own, the same way in any batch.
    """
    out = np.empty((transfer.shape[1],) + bands[0].shape, dtype=np.complex128)
    tmp = np.empty_like(out[0])
    for r, out_r in enumerate(out):
        np.multiply(transfer[0, r], bands[0], out=out_r)
        for s in range(1, len(bands)):
            out_r += np.multiply(transfer[s, r], bands[s], out=tmp)
    return out


def step(ll, det, y_state, alpha, thresholds, transfer):
    """One layer on the wavelet-domain state; returns the next state's
    spectrum, complex (4C, B, H/2, W/4 + 1), and the tape ``(kept, w)``.

    The state is the spectrum ``ll`` of the ll band and the detail bands
    ``det``. Both are blended with the observation's state ``y_state``;
    the blended details are soft-thresholded in place of ``det``, which
    becomes ``kept``. ``w`` holds the spectra of the shrunk bands, ll and
    details, and :func:`mix` takes them to the next state with the
    transfer.
    """
    y_ll, y_det = y_state
    det *= 1.0 - alpha
    det += alpha * y_det
    kept = shrink(det, thresholds, out=det)
    w = ((1.0 - alpha) * ll + alpha * y_ll, fft.rfft2(kept))
    return mix([*w[0], *w[1]], transfer), (kept, w)


def run_network(y, steps, x0=None, tapes=None, out=None):
    """The one runner of :func:`step`: ``steps`` on observations (B, C, H,
    W), or one (B = 1) for every state, from ``x0`` or from ``y``.

    Returns the output images, written into ``out`` if given, and the
    observation's wavelet state per family. ``tapes``, if given, gets each
    layer's input state and tape.
    """
    families = {fam.name: fam for fam, *_ in steps}
    y_states = {name: wavelet_state(y, fam) for name, fam in families.items()}
    fam = steps[0][0]
    ll, det = y_states[fam.name] if x0 is None else wavelet_state(x0, fam)
    det = det.copy()  # each step shrinks det in place; y's bands must stay
    half_h, half_w = det.shape[-2:]
    c = ll.shape[0]
    for i, (fam, _, alpha, _, thresholds, transfer) in enumerate(steps):
        state_in = (ll, det.copy()) if tapes is not None else ()
        spec, tape = step(ll, det, y_states[fam.name], alpha, thresholds, transfer)
        if tapes is not None:
            tapes.append(state_in + tape)
        # the step shrank det in place; dropping it frees the buffer early
        del tape, det
        if i + 1 < len(steps):
            ll = spec[:c].copy()
            det = fft.irfft2(spec[c:], s=(half_h, half_w))
            del spec
    return polyphase_image(spec, half_h, half_w, out), y_states


def polyphase_image(spec, half_h, half_w, out=None):
    """Polyphase spectrum (4C, B, h, w/2 + 1) to (B, C, 2h, 2w) images,
    written into ``out`` if given."""
    x = fft.irfft2(spec, s=(half_h, half_w))
    c, b = x.shape[0] // 4, x.shape[1]
    x = x.reshape(2, 2, c, b, half_h, half_w).transpose(3, 2, 4, 0, 5, 1)
    if out is None:
        out = np.empty((b, c, 2 * half_h, 2 * half_w))
    out.reshape(x.shape)[...] = x
    return out


def layer_forward(x, y, p, eps, s):
    """One layer on images with the kernel normalized by ``s``, and its tape.

    Runs the layer's one step on the grid of ``x`` from ``x``, and returns
    ``(out, (kept, w))``: the image ``out`` of the shape of ``x``, and the
    step's tape.
    ``out`` is the soft-thresholded blend ``(1 - alpha) x + alpha y``
    (the prox of the wavelet penalty at the blend, so ``(1 - alpha)``-
    Lipschitz in ``x``), synthesized, convolved and scaled by ``1 / ((s +
    NORM_GUARD) * gain_denominator(alpha, eps))``. With ``s`` the kernel's
    norm on the grid of ``x``, the map ``x -> out`` at fixed ``y`` is at
    most ``(1 - alpha) / ((1 - alpha) + eps)``-Lipschitz. ``y`` has the
    shape of ``x`` or is one image. Inputs are not validated here.
    """
    flat = lambda a: a.reshape((-1,) + a.shape[-3:])
    tapes = []
    out, _ = run_network(flat(y), forward_steps([p], eps, [s], *x.shape[-2:]),
                         flat(x), tapes)
    return out.reshape(x.shape), tapes[0][2:]


def network_forward(y, net, x0=None):
    """Run the depth-M network on an observation of shape (..., C, P, P).

    The state starts at ``y`` and every layer's gradient step blends against
    the same ``y``. Passing ``x0`` overrides only the starting state, which is
    what the contraction guarantee quantifies: two runs with the same ``y``
    but different ``x0`` approach each other by the certificate's total bound.

    The layers run in the wavelet domain (:func:`step`): the observation is
    analysed once per family, the state once at the start, and the output
    is the last step's polyphase split, with ``net.steps()`` (built here, on
    the first forward of ``net``, before any chunk). A batch above
    ``CHUNK_BYTES`` is split into ``ceil(nbytes / CHUNK_BYTES)`` chunks of
    patches (at most one per patch) that run on ``min(chunks, CPUs
    available)`` threads; the result is bitwise equal to the unsplit
    forward. A non-finite output raises ValidationError, from any chunk.
    """
    y = as_image(y)
    if y.shape[-3] != net.channels or y.shape[-2:] != (net.patch, net.patch):
        raise DimensionError(
            f"expected input shape (..., {net.channels}, {net.patch}, "
            f"{net.patch}), got {y.shape}")
    if x0 is not None:
        x0 = as_image(x0)
        if x0.shape != y.shape:
            raise DimensionError(
                f"x0 shape {x0.shape} must match observation shape {y.shape}")
    steps = net.steps()
    flat = (-1,) + y.shape[-3:]
    result = np.empty(y.shape).reshape(flat)

    def run(y, x0, out):
        run_network(y, steps, x0, out=out)
        if not np.all(np.isfinite(out)):
            raise ValidationError("network output contains non-finite values")

    chunks = max(1, min(math.ceil(y.nbytes / CHUNK_BYTES), math.prod(y.shape[:-3])))
    parts = [np.array_split(a.reshape(flat), chunks) if a is not None
             else [None] * chunks for a in (y, x0, result)]
    if chunks == 1:
        run(*(p[0] for p in parts))
    else:
        with ThreadPoolExecutor(min(chunks, len(os.sched_getaffinity(0)))) as pool:
            # list() re-raises the first error of any chunk
            list(pool.map(run, *parts))
    return result.reshape(y.shape)


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
    for i, (layer, s) in enumerate(zip(net.layers, net.conv_norms())):
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
    for layer, s in zip(net.layers, net.conv_norms()):
        alpha = float(np.clip(layer.alpha, ALPHA_MIN, 1.0 - ALPHA_MIN))
        budget = 1.0 / gain_denominator(alpha, net.eps)
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
