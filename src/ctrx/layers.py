"""Contractive layers, the depth-M network, its certificate and its backward.

One layer blends the fixed observation into the running state (gradient step
on the quadratic data term), soft-thresholds the high-frequency wavelet
coefficients of the blend (the exact proximal map of a weighted l1 penalty on
those coefficients), then refines with a norm-controlled convolution scaled
by ``1 / ((1 - alpha) + eps)``.

With ``alpha`` in (0, 1) the blend-plus-prox map is ``(1 - alpha)``-Lipschitz
in the state; the normalized convolution is below 1; so every layer's state
map has Lipschitz constant at most ``(1 - alpha) / ((1 - alpha) + eps) < 1``
and the depth-M composition contracts by the product of the per-layer
bounds. That product is computed exactly (kernel spectrum + per-frequency
SVD), making the certificate a checkable artifact rather than an estimate.

The layers run in the wavelet domain (README, "The wavelet-domain layer").
The state of a patch is the four wavelet bands of the next layer's family,
(4C, P/2, P/2), band-major; the blend runs on the bands against the
observation's, which :func:`wavelet_state` computes once per family, and
only the detail bands leave the spectrum, around the threshold. A layer's
synthesis, convolution and the next family's analysis are circular and shift
invariant by two, so together they are one 4C x 4C matrix per frequency of
the half grid's half-spectrum, the polyphase form of the filter bank
(:func:`_transfer`). The last layer's target is ``wavelets.POLYPHASE``, the
polyphase split of the output image (:func:`polyphase_split`), which
:func:`polyphase_image` undoes. Every forward runs the constants of
:func:`forward_steps` with :func:`run_network`; :meth:`NetworkParams.steps`
keeps the network's own.

The backward, :func:`network_vjp`, runs that forward keeping every tape
and goes back through the same steps on the same spectra: each transfer by
its conjugate transpose at every frequency, the blend by its scalars, and
the kernel gradient as the correlation of the conv's input and output
gradient on the four aliases of each frequency, evaluated at the taps. The
soft threshold uses the subgradient ``1{|z| > lambda}`` on coefficient
paths and ``-sign(z)`` inside the active set for the threshold parameters.
The convolution normalizer ``s(K) + NORM_GUARD`` is held constant during
differentiation (the projection step re-imposes the norm constraint
anyway), so gradients are exact up to that straight-through choice, which
the finite-difference checker accounts for.

:func:`run_chunks` is the one chunk runner; it cuts a batch into chunks of
about ``CHUNK_BYTES`` that run on a thread pool. Every stage (the dense
analysis, FFTs over the last two axes, ufuncs, and the per-frequency mix,
one complex multiply-add per matrix entry rather than a BLAS product, whose
rounding may depend on the number of rows) computes each patch on its own,
so the output is bitwise equal to the forward of the whole batch at once.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import CertificateError, DimensionError, TrainingFailureError, ValidationError
from .tensorops import (NORM_GUARD, as_image, as_kernel, conv_operator_norm,
                        irfft2, kernel_spectrum, rfft2)
from . import tensorops, wavelets
from .wavelets import FAMILY_CYCLE, POLYPHASE, WaveletFamily, dwt2, get_family, shrink

ALPHA_MIN = 1e-3
DEFAULT_EPS = 1e-3
# batch bytes per chunk of run_chunks: a chunk's per-layer temporaries
# then fit in cache and are reused by the allocator instead of each being a
# fresh mmap of the whole batch's size
CHUNK_BYTES = 512 * 1024
# std of the Gaussian noise init_network adds to its identity kernels
KERNEL_NOISE = 0.05


def softplus(raw):
    """Strictly positive reparameterization, floored at the smallest normal."""
    return np.maximum(np.logaddexp(0.0, raw), np.finfo(np.float64).tiny)


def sigmoid(raw):
    """Softplus's derivative, ``1 / (1 + exp(-raw))``. Below raw = -709.78
    ``exp`` overflows to inf, quietly, and the value is 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-raw))


def softplus_inverse(value):
    """Raw parameter whose softplus is ``value`` (> 0)."""
    value = np.asarray(value, dtype=np.float64)
    if not np.all(value > 0):
        raise ValidationError("softplus_inverse needs positive values")
    return value + np.log(-np.expm1(-value))


@dataclass(eq=False)
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
    _norm_cache: dict = field(default_factory=dict, repr=False)

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

    @property
    def params(self):
        """The trained ``(alpha, raw_thresholds, kernel)``, in constructor order."""
        return self.alpha, self.raw_thresholds, self.kernel

    def thresholds(self):
        """Softplus of ``raw_thresholds``."""
        return softplus(self.raw_thresholds)

    def conv_norm(self, grid_h, grid_w):
        """Operator norm of this layer's kernel on the grid, cached."""
        key = (grid_h, grid_w)
        if key not in self._norm_cache:
            self._norm_cache[key] = conv_operator_norm(self.kernel, grid_h, grid_w)
        return self._norm_cache[key]


@dataclass(eq=False)
class NetworkParams:
    """Ordered layer list plus the shared layer epsilon and patch geometry."""

    layers: list
    eps: float = DEFAULT_EPS
    patch: int = 64
    channels: int = 1
    _steps: tuple = field(default=None, init=False, repr=False)

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


def _transfer(layer, scale, target, grid_h, grid_w):
    """The layer's per-frequency map from its shrunk bands to its target.

    Complex (4C, 4C, H/2, W/4 + 1), channels band-major: ``t[s, r]`` is the
    coefficient of input band-channel s in output r at every frequency of
    the half grid's half-spectrum, for ``scale`` times (analysis by the
    family ``target``) o conv o (synthesis by the layer's family). The
    synthesis ``M`` (``wavelets.band_aliases``) takes
    the bands to the four aliases of the full grid, where the conv is the
    kernel's channel matrix at each (``tensorops.kernel_spectrum``), and
    the analysis is ``M^H / 4``.
    """
    c, half_h = layer.kernel.shape[0], grid_h // 2
    # the kernel's spectrum at the aliases, (e1 e2, i, o, f1, f2)
    k = kernel_spectrum(layer.kernel * (0.25 * scale), grid_h, grid_w,
                        wavelets.alias_columns(grid_w)).reshape(c, c, 2, half_h, 2, -1)
    k = k.transpose(2, 4, 1, 0, 3, 5).reshape(4, c, c, half_h, -1)
    mi = wavelets.band_aliases(layer.family, grid_h, grid_w)
    mo = np.conj(wavelets.band_aliases(target, grid_h, grid_w))
    # sum over the aliases e of M_in[e, J] K[e, o, i] conj(M_out[e, j])
    t = np.zeros((4, c, 4, c) + k.shape[-2:], dtype=np.complex128)
    for e in range(4):
        t += k[e][None, :, None] * (mi[e][:, None] * mo[e][None, :])[:, None, :, None]
    return t.reshape((4 * c, 4 * c) + k.shape[-2:])


def forward_steps(layers, eps, norms, grid_h, grid_w):
    """Per layer the constants of :func:`step` on a grid_h x grid_w grid:
    family, target, alpha, scale, thresholds (3C, 1, H/2, W/2) and transfer.

    The one place they are computed: a layer's conv is scaled by one over
    its norm in ``norms`` (plus NORM_GUARD) times its gain denominator, and
    its target is the next layer's family, ``POLYPHASE`` (the polyphase
    split of the output) for the last. Built afresh on every call.
    """
    targets = [layer.family for layer in layers[1:]] + [POLYPHASE]
    steps = []
    for layer, s, target in zip(layers, norms, targets):
        scale = 1.0 / ((s + NORM_GUARD) * gain_denominator(layer.alpha, eps))
        steps.append((layer.family, target, layer.alpha, scale,
                      layer.thresholds().reshape((-1, 1) + layer.raw_thresholds.shape[2:]),
                      _transfer(layer, scale, target, grid_h, grid_w)))
    return steps


def wavelet_state(x, fam):
    """(B, C, H, W) images as a state of the step: the spectrum of their ll
    band, complex (C, B, H/2, W/4 + 1), and their three detail bands,
    (3C, B, H/2, W/2)."""
    bands = band_layout(dwt2(x, fam))
    c = len(bands) // 4
    return rfft2(bands[:c]), bands[c:]


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
    w = ((1.0 - alpha) * ll + alpha * y_ll, rfft2(kept))
    return mix([*w[0], *w[1]], transfer), (kept, w)


def run_network(y, steps, x0=None, tapes=None):
    """The one runner of :func:`step`: ``steps`` on observations (B, C, H,
    W), or one (B = 1) for every state, from ``x0`` or from ``y``.

    Returns the output images and the observation's wavelet state per
    family. ``tapes``, if given, gets each
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
            det = irfft2(spec[c:], (half_h, half_w))
            del spec
    return polyphase_image(spec, half_h, half_w), y_states


def polyphase_image(spec, half_h, half_w):
    """Polyphase spectrum (4C, B, h, w/2 + 1) to (B, C, 2h, 2w) images."""
    x = irfft2(spec, (half_h, half_w))
    c, b = x.shape[0] // 4, x.shape[1]
    x = x.reshape(2, 2, c, b, half_h, half_w).transpose(3, 2, 4, 0, 5, 1)
    return x.reshape(b, c, 2 * half_h, 2 * half_w)


def polyphase_split(x):
    """(B, C, 2h, 2w) images to their polyphase split (4C, B, h, w): exactly
    ``band_layout(dwt2(x, POLYPHASE))``, whose 0/1 matrices only permute."""
    b, c, h, w = x.shape
    x = x.reshape(b, c, h // 2, 2, w // 2, 2).transpose(3, 5, 1, 0, 2, 4)
    return x.reshape(4 * c, b, h // 2, w // 2)


def _rfft_weights(n):
    """Weight of each ``rfft`` column of a length-n axis in a sum over the
    full spectrum: 1 for the columns that are their own conjugate (0, and
    n/2 for even n), 2 for the others."""
    weight = np.full(n // 2 + 1, 2.0)
    weight[0] = 1.0
    if n % 2 == 0:
        weight[-1] = 1.0
    return weight


def _spectral_dot(a, b, n):
    """Inner product of the real signals on an n x n grid whose spectra over
    the last two axes (``rfft2``) are ``a`` and ``b``, by Parseval. A ufunc
    sum rather than ``np.vdot``, whose BLAS rounding depends on the thread
    count."""
    return float(np.sum((np.conj(a) * b).real * _rfft_weights(n))) / (n * n)


def _adjoint(g, transfer):
    """``out[s] = sum_r conj(transfer[s, r]) * g[r]`` at every frequency: the
    transfer's conjugate transpose, as one batched product over the
    frequencies. Unlike the forward's :func:`mix`, its rounding may depend
    on the batch size, which a batch-summed gradient does not need."""
    n = g[0, 0].size
    gm = g.reshape(g.shape[:2] + (n,)).transpose(2, 1, 0)
    tm = np.conj(transfer.reshape(transfer.shape[:2] + (n,)).transpose(2, 1, 0))
    return np.matmul(gm, tm).transpose(2, 1, 0).reshape((tm.shape[2],) + g.shape[1:])


def _kernel_gradient(w, gout, scale, fam, target, kshape, grid):
    """d loss / d kernel of one layer, batch-summed, from its spectra.

    ``w`` is the spectrum of the layer's shrunk bands and ``gout`` that of
    the loss gradient at its output, both (4C, B, h, h/2 + 1). The conv
    input ``u`` (synthesis by ``fam``) and the gradient ``gv`` at the conv
    output (``scale`` times the synthesis by ``target``) are formed on the
    four aliases of the full grid, and their correlation is evaluated at
    the kernel taps: ``sum_n gv[o, n] u[i, n - t]``, by Parseval on the
    full grid.
    """
    c, half = w.shape[0] // 4, w.shape[2]
    n = w[0, 0].size

    def aliases(spec, f):
        # (frequency, alias, channel, batch)
        m = wavelets.band_aliases(f, grid, grid).reshape(4, 4, n).transpose(2, 0, 1)
        x = spec.reshape(4, -1, n).transpose(2, 0, 1)
        return np.matmul(m, x).reshape(n, 4, c, -1)
    u = aliases(w, fam)
    gv = aliases(gout, target) * scale
    # every frequency of the half-spectrum stands for its conjugate too
    corr = np.matmul(gv, np.conj(u).swapaxes(-1, -2)).transpose(2, 3, 1, 0)
    corr = corr.reshape(c, c, 2, 2, half, -1) * _rfft_weights(half)
    corr = corr.transpose(0, 1, 2, 4, 3, 5).reshape(c, c, grid, -1)
    rows, cols = tensorops.tap_bases(kshape, grid, grid, wavelets.alias_columns(grid))
    return (np.conj(rows).T @ corr @ np.conj(cols)).real / (grid * grid)


def network_vjp(net, y):
    """``(pred, vjp)``: the network's output on a batch (B, C, P, P), and
    ``vjp(g)``, which takes the loss gradient at ``pred`` to one batch-summed
    gradient tuple per layer, shaped as ``LayerParams.params``. A non-finite
    alpha or kernel gradient raises TrainingFailureError."""
    steps = net.steps()
    tapes = []
    pred, y_states = run_network(y, steps, tapes=tapes)

    def vjp(g):
        p, c = net.patch, net.channels
        half = p // 2
        gf = rfft2(polyphase_split(g))
        grads = [None] * net.depth
        for idx in range(net.depth - 1, -1, -1):
            layer = net.layers[idx]
            fam, target, _, scale, _, transfer = steps[idx]
            ll_in, det_in, kept, w = tapes[idx]
            w = np.concatenate(w)
            denom = gain_denominator(layer.alpha, net.eps)
            gw = _adjoint(gf, transfer)
            # out = scale * ...; alpha enters through denom, d denom/d alpha = -1
            alpha_grad = _spectral_dot(gw, w, half) / denom
            kernel_grad = _kernel_gradient(w, gf, scale, fam, target, layer.kernel.shape, p)
            # kept = sign(z) * max(|z| - lambda, 0) is nonzero exactly where
            # |z| > lambda; there d kept/dz = 1 and d kept/d lambda = -sign(kept)
            g_det = irfft2(gw[c:], (half, half)) * (kept != 0)
            lam_grad = -np.sum(np.sign(kept) * g_det, axis=1)
            raw_grad = lam_grad.reshape(layer.raw_thresholds.shape) * sigmoid(layer.raw_thresholds)
            y_ll, y_det = y_states[fam.name]
            alpha_grad += (_spectral_dot(gw[:c], y_ll - ll_in, half)
                           + float(np.sum(g_det * (y_det - det_in))))
            if idx:
                gf = (1.0 - layer.alpha) * np.concatenate((gw[:c], rfft2(g_det)))
            grads[idx] = (alpha_grad, raw_grad, kernel_grad)
            if not np.isfinite(alpha_grad) or not np.all(np.isfinite(kernel_grad)):
                raise TrainingFailureError(f"non-finite gradient at layer {idx}")
        return grads
    return pred, vjp


def run_chunks(net, shape, gather):
    """The one chunk runner of the network on a batch of ``shape`` (..., C,
    P, P), which need not exist as one array; a generator of ``(lo, hi,
    out)``.

    The flat entries ``[0, N)`` are cut as ``np.array_split`` cuts them
    into ``ceil(nbytes / CHUNK_BYTES)`` parts (at most one per entry), with
    ``net.steps()`` built once, before any chunk. For each chunk a worker
    runs ``gather(lo, hi)``, which returns the chunk's observations and
    starting states ``(y, x0)`` (``x0`` may be None), the network and the
    finiteness check; the output ``out`` of entries ``[lo, hi)`` is then
    yielded on the calling thread, in ascending chunk order. More than one
    chunk runs on ``min(chunks, CPUs available)`` threads. A non-finite
    output raises ValidationError, from any chunk.
    """
    if shape[-3] != net.channels or shape[-2:] != (net.patch, net.patch):
        raise DimensionError(
            f"expected input shape (..., {net.channels}, {net.patch}, "
            f"{net.patch}), got {shape}")
    steps = net.steps()
    n = math.prod(shape[:-3])
    chunks = max(1, min(math.ceil(8 * math.prod(shape) / CHUNK_BYTES), n))
    # np.array_split's rule: the first n % chunks parts get one entry more
    size, extra = divmod(n, chunks)
    edges = [i * size + min(i, extra) for i in range(chunks + 1)]

    def run(lo, hi):
        y, x0 = gather(lo, hi)
        out = run_network(y, steps, x0)[0]
        if not np.all(np.isfinite(out)):
            raise ValidationError("network output contains non-finite values")
        return out

    if chunks == 1:
        yield 0, n, run(0, n)
        return
    # sched_getaffinity exists only on Linux
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    with ThreadPoolExecutor(min(chunks, cpus)) as pool:
        # map yields in submission order and re-raises a chunk's error
        yield from zip(edges, edges[1:], pool.map(run, edges, edges[1:]))


def network_forward(y, net, x0=None):
    """Run the depth-M network on an observation of shape (..., C, P, P).

    The state starts at ``y`` and every layer's gradient step blends against
    the same ``y``. Passing ``x0`` overrides only the starting state, which is
    what the contraction guarantee quantifies: two runs with the same ``y``
    but different ``x0`` approach each other by the certificate's total bound.

    The chunks that :func:`run_chunks` yields fill one result array; it is
    bitwise equal to the unsplit forward.
    """
    y = as_image(y)
    if x0 is not None:
        x0 = as_image(x0)
        if x0.shape != y.shape:
            raise DimensionError(
                f"x0 shape {x0.shape} must match observation shape {y.shape}")
    flat = (-1,) + y.shape[-3:]
    ys = y.reshape(flat)
    x0s = x0 if x0 is None else x0.reshape(flat)
    result = np.empty(ys.shape)
    for lo, hi, out in run_chunks(
            net, y.shape, lambda lo, hi: (ys[lo:hi], x0s if x0s is None else x0s[lo:hi])):
        result[lo:hi] = out
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
    The bounds hold only for alpha in [0, 1]; any other alpha is a
    ValidationError (``constrain_params`` projects it into range).
    """
    per_layer = []
    total = 1.0
    obs = 1.0
    for i, (layer, s) in enumerate(zip(net.layers, net.conv_norms())):
        if not 0.0 <= layer.alpha <= 1.0:
            raise ValidationError(f"layer {i} alpha {layer.alpha} is outside [0, 1]")
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
                 seed=0, alpha_range=(0.1, 0.7), threshold_mean=0.05):
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
        kernel = KERNEL_NOISE * rng.standard_normal(
            (channels, channels, kernel_size, kernel_size))
        center = kernel_size // 2
        for c in range(channels):
            kernel[c, c, center, center] += 1.0
        layers.append(LayerParams(alpha, raw, kernel,
                                  get_family(FAMILY_CYCLE[i % 3])))
    net = NetworkParams(layers, eps=eps, patch=patch, channels=channels)
    return constrain_params(net)
