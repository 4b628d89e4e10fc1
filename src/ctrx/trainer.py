"""Projected gradient training with analytic backprop through every layer.

The loss is mean squared error between the network output and the clean
target. The forward is inference's: :func:`ctrx.layers.run_network` on the
network's step table, ``net.steps()``, keeping every tape. The backward
runs through the same steps on the same spectra: each transfer by its
conjugate transpose at every frequency, the blend by its scalars, and the
kernel gradient as the correlation of the conv's input and output gradient
on the four aliases of each frequency, evaluated at the taps. The soft
threshold uses the subgradient ``1{|z| > lambda}`` on coefficient paths and
``-sign(z)`` inside the active set for the threshold parameters. The
convolution normalizer ``s(K) + NORM_GUARD`` is held constant during
differentiation (the projection step re-imposes the norm constraint
anyway), so gradients are exact up to that straight-through choice, which
the finite-difference checker accounts for.

Optimization is SGD with momentum plus the constraint projection after every
step, so the contraction certificate holds at every point of training.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import fft
from scipy.special import expit

from .errors import DimensionError, TrainingFailureError, ValidationError
from .io import Rng, add_awgn, open_new
from .layers import (LayerParams, NetworkParams, band_aliases, band_layout,
                     constrain_params, contraction_certificate, forward_steps,
                     gain_denominator, network_forward, run_network, tap_bases)
from .metrics import psnr


DECAY_FACTOR = 0.1
MOMENTUM = 0.9


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    epochs: int = 30
    batch_size: int = 16
    sigma: float = 25.0 / 255.0
    decay_epochs: tuple = (10, 20)
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValidationError(f"lr must be finite and positive, got {self.lr}")
        if self.batch_size < 1:
            raise ValidationError(f"batch size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValidationError(f"epochs must be >= 0, got {self.epochs}")
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValidationError(f"sigma must be finite and >= 0, got {self.sigma}")
        if list(self.decay_epochs) != sorted(self.decay_epochs):
            raise ValidationError("decay epochs must be ascending")


@dataclass
class GradientSet:
    """Per-layer gradients mirroring LayerParams shapes."""

    alpha: list = field(default_factory=list)
    raw_thresholds: list = field(default_factory=list)
    kernel: list = field(default_factory=list)


def loss_mse(pred, target):
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DimensionError(f"shapes differ: {pred.shape} vs {target.shape}")
    return float(np.mean((pred - target) ** 2))


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
    the last two axes (``rfft2``) are ``a`` and ``b``, by Parseval."""
    return float(np.vdot(a * _rfft_weights(n), b).real) / (n * n)


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
        m = band_aliases(f, grid, grid).reshape(4, 4, n).transpose(2, 0, 1)
        x = spec.reshape(4, -1, n).transpose(2, 0, 1)
        return np.matmul(m, x).reshape(n, 4, c, -1)
    u = aliases(w, fam)
    gv = aliases(gout, target) * scale
    # every frequency of the half-spectrum stands for its conjugate too
    corr = np.matmul(gv, np.conj(u).swapaxes(-1, -2)).transpose(2, 3, 1, 0)
    corr = corr.reshape(c, c, 2, 2, half, -1) * _rfft_weights(half)
    corr = corr.transpose(0, 1, 2, 4, 3, 5).reshape(c, c, grid, -1)
    rows, cols = tap_bases(kshape, grid, grid)
    return (np.conj(rows).T @ corr @ np.conj(cols)).real / (grid * grid)


def _patches(data, net, name):
    """``data`` as float64 (N, C, P, P) patches of ``net``, checked to be
    of that shape, non-empty and finite; ``name`` names it in errors."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 4 or data.shape[1:] != (net.channels, net.patch, net.patch):
        raise DimensionError(f"{name} must be (N, {net.channels}, {net.patch}, "
                             f"{net.patch}), got {data.shape}")
    if data.shape[0] == 0:
        raise ValidationError(f"{name} is empty")
    if not np.all(np.isfinite(data)):
        raise ValidationError(f"{name} contains non-finite values")
    return data


def backward(net, y, target):
    """Loss and analytic parameter gradients for a batch.

    ``y`` and ``target`` are (B, C, P, P) (a single image is promoted).
    The gradient runs back through the same steps: through each transfer
    by its conjugate transpose, per frequency, on the same spectra.
    """
    y = np.asarray(y, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if y.ndim == 3:
        y = y[None]
        target = target[None]
    y = _patches(y, net, "the batch")
    if y.shape != target.shape:
        raise DimensionError(f"shapes differ: {y.shape} vs {target.shape}")
    steps = net.steps()
    tapes = []
    pred, y_states = run_network(y, steps, tapes=tapes)
    if not np.all(np.isfinite(pred)):
        raise TrainingFailureError("non-finite prediction in forward pass")
    loss = loss_mse(pred, target)
    g = 2.0 * (pred - target) / pred.size

    p, c = net.patch, net.channels
    half = p // 2
    # the gradient at the output, as the spectrum of its polyphase split
    phases = g.reshape(-1, c, half, 2, half, 2).transpose(3, 5, 0, 1, 2, 4)
    gf = fft.rfft2(band_layout(phases.reshape((4,) + phases.shape[2:])))
    grads = GradientSet([None] * net.depth, [None] * net.depth, [None] * net.depth)
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
        g_det = fft.irfft2(gw[c:], s=(half, half)) * (kept != 0)
        lam_grad = -np.sum(np.sign(kept) * g_det, axis=1)
        raw_grad = lam_grad.reshape(layer.raw_thresholds.shape) * expit(layer.raw_thresholds)
        y_ll, y_det = y_states[fam.name]
        alpha_grad += (_spectral_dot(gw[:c], y_ll - ll_in, half)
                       + float(np.sum(g_det * (y_det - det_in))))
        if idx:
            gf = (1.0 - layer.alpha) * np.concatenate((gw[:c], fft.rfft2(g_det)))
        grads.alpha[idx] = alpha_grad
        grads.raw_thresholds[idx] = raw_grad
        grads.kernel[idx] = kernel_grad
        if not np.isfinite(alpha_grad) or not np.all(np.isfinite(kernel_grad)):
            raise TrainingFailureError(f"non-finite gradient at layer {idx}")
    return loss, grads


def _loss_and_masks(net, y, target, norms):
    """Loss at the given conv norms and every layer's threshold mask."""
    tapes = []
    pred, _ = run_network(y, forward_steps(net.layers, net.eps, norms, net.patch,
                                           net.patch), tapes=tapes)
    return loss_mse(pred, target), [tape[2] != 0 for tape in tapes]


def _perturbed_net(net, layer_idx, kind, coord, delta):
    layers = list(net.layers)
    layer = layers[layer_idx]
    alpha, raw, kernel = layer.alpha, layer.raw_thresholds, layer.kernel
    if kind == "alpha":
        alpha = alpha + delta
    elif kind == "raw":
        raw = raw.copy()
        raw[coord] += delta
    else:
        kernel = kernel.copy()
        kernel[coord] += delta
    layers[layer_idx] = LayerParams(alpha, raw, kernel, layer.family)
    return NetworkParams(layers, eps=net.eps, patch=net.patch,
                         channels=net.channels)


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    worst_coordinate: tuple
    checked: int
    skipped_kinks: int


def grad_check(net, y, target, step=1e-6, tol=1e-4, max_coords=500, seed=0):
    """Central finite differences against :func:`backward`.

    Coordinates whose threshold activation pattern differs between the two
    perturbed evaluations sit next to a soft-threshold kink where central
    differences are invalid; they are skipped and counted. Both perturbed
    evaluations keep the unperturbed conv norms, so they differentiate the
    same frozen-normalizer objective that backward's straight-through rule
    implements, and each gives its loss and its masks in one forward pass.
    """
    if y.ndim == 3:
        y = y[None]
        target = target[None]
    _, grads = backward(net, y, target)
    base_norms = net.conv_norms()
    rng = np.random.default_rng(seed)
    coords = []
    for li, layer in enumerate(net.layers):
        coords.append((li, "alpha", ()))
        for flat in rng.choice(layer.raw_thresholds.size,
                               min(4, layer.raw_thresholds.size), replace=False):
            coords.append((li, "raw", np.unravel_index(flat, layer.raw_thresholds.shape)))
        for flat in rng.choice(layer.kernel.size,
                               min(6, layer.kernel.size), replace=False):
            coords.append((li, "kernel", np.unravel_index(flat, layer.kernel.shape)))
    if len(coords) > max_coords:
        coords = coords[:max_coords]

    worst = 0.0
    worst_coord = None
    skipped = 0
    checked = 0
    for li, kind, coord in coords:
        plus = _perturbed_net(net, li, kind, coord, step)
        minus = _perturbed_net(net, li, kind, coord, -step)
        loss_p, masks_p = _loss_and_masks(plus, y, target, base_norms)
        loss_m, masks_m = _loss_and_masks(minus, y, target, base_norms)
        if not all(map(np.array_equal, masks_p, masks_m)):
            skipped += 1
            continue
        fd = (loss_p - loss_m) / (2 * step)
        if kind == "alpha":
            an = grads.alpha[li]
        elif kind == "raw":
            an = grads.raw_thresholds[li][coord]
        else:
            an = grads.kernel[li][coord]
        rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
        checked += 1
        if rel > worst:
            worst = rel
            worst_coord = (li, kind, coord)
    report = GradCheckReport(worst, worst_coord, checked, skipped)
    if worst > tol:
        raise TrainingFailureError(
            f"gradient check failed: rel error {worst:.3e} at {worst_coord}")
    return report


def synth_patches(n, patch, channels=1, seed=0):
    """Seeded synthetic clean patches: low-pass textures plus blocks and ramps."""
    if n < 0:
        raise ValidationError(f"patch count must be >= 0, got {n}")
    if patch < 4:
        raise ValidationError(f"synthetic patches must be >= 4 pixels wide, got {patch}")
    rng = Rng(seed)
    out = np.empty((n, channels, patch, patch))
    coords = np.arange(patch) / patch
    for i in range(n):
        noise = rng.normal(channels * patch * patch).reshape(channels, patch, patch)
        cutoff = 1 + int(rng.integers(1, patch // 4)[0])
        f = np.fft.fft2(noise, axes=(-2, -1))
        freq = np.fft.fftfreq(patch) * patch
        keep = (np.abs(freq[:, None]) <= cutoff) & (np.abs(freq[None, :]) <= cutoff)
        smooth = np.fft.ifft2(f * keep, axes=(-2, -1)).real
        lo, hi = smooth.min(), smooth.max()
        img = (smooth - lo) / (hi - lo) if hi > lo else np.full_like(smooth, 0.5)
        r0, c0 = rng.integers(2, patch // 2)
        rh, cw = 1 + rng.integers(2, patch // 2)
        level = rng.uniform(1)[0]
        img[:, r0:r0 + rh, c0:c0 + cw] = 0.7 * img[:, r0:r0 + rh, c0:c0 + cw] + 0.3 * level
        slope = rng.uniform(2) - 0.5
        img += 0.2 * (slope[0] * coords[None, :, None] + slope[1] * coords[None, None, :])
        out[i] = np.clip(img, 0.0, 1.0)
    return out


def load_patch_dataset(images, patch, stride=4, limit=None):
    """Crop P x P patches at a fixed stride from full images (C, H, W)."""
    patches = []
    for img in images:
        c, h, w = img.shape
        for r in range(0, h - patch + 1, stride):
            for col in range(0, w - patch + 1, stride):
                patches.append(img[:, r:r + patch, col:col + patch])
                if limit is not None and len(patches) >= limit:
                    return np.stack(patches)
    if not patches:
        raise ValidationError(f"no {patch}x{patch} patches fit the given images")
    return np.stack(patches)


def _augment(batch, bits):
    """Flip and rotate each patch by the bits of its 4-bit code."""
    out = np.empty_like(batch)
    for i, b in enumerate(bits):
        item = batch[i]
        if b & 1:
            item = item[:, ::-1, :]
        if b & 2:
            item = item[:, :, ::-1]
        out[i] = np.rot90(item, k=(b >> 2) & 3, axes=(-2, -1))
    return out


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_psnr: float
    certificate_bound: float


def curve_to_csv(curve, path):
    with open_new(path, "w", newline="\n") as f:
        f.write("epoch,train_loss,val_psnr,certificate_bound\n")
        for e in curve:
            f.write(f"{e.epoch},{e.train_loss!r},{e.val_psnr!r},"
                    f"{e.certificate_bound!r}\n")


def train(net, dataset, cfg, val_dataset=None):
    """Supervised denoising training; returns (trained net, loss curve).

    Each step samples a batch of clean patches, augments, adds AWGN at
    ``cfg.sigma``, runs forward/backward, applies the momentum update, then
    projects with constrain_params. The certificate is checked every epoch.
    """
    dataset = _patches(dataset, net, "the training set")
    val = None if val_dataset is None else _patches(val_dataset, net, "the validation set")
    rng = Rng(cfg.seed)
    net = constrain_params(net)
    vel_alpha = [0.0] * net.depth
    vel_raw = [np.zeros_like(l.raw_thresholds) for l in net.layers]
    vel_kernel = [np.zeros_like(l.kernel) for l in net.layers]
    curve = []
    initial_loss = None
    bad_epochs = 0
    n = dataset.shape[0]
    steps = max(1, n // cfg.batch_size)
    for epoch in range(1, cfg.epochs + 1):
        lr = cfg.lr * DECAY_FACTOR ** sum(epoch > d for d in cfg.decay_epochs)
        order = np.argsort(rng.uniform(n), kind="stable")
        epoch_loss = 0.0
        for step_i in range(steps):
            idx = order[step_i * cfg.batch_size:(step_i + 1) * cfg.batch_size]
            clean = dataset[idx]
            clean = _augment(clean, rng.integers(idx.size, 16))
            noisy = add_awgn(clean, cfg.sigma, rng)
            loss, grads = backward(net, noisy, clean)
            epoch_loss += loss
            new_layers = []
            for li, layer in enumerate(net.layers):
                vel_alpha[li] = MOMENTUM * vel_alpha[li] + grads.alpha[li]
                vel_raw[li] = MOMENTUM * vel_raw[li] + grads.raw_thresholds[li]
                vel_kernel[li] = MOMENTUM * vel_kernel[li] + grads.kernel[li]
                new_layers.append(LayerParams(
                    layer.alpha - lr * vel_alpha[li],
                    layer.raw_thresholds - lr * vel_raw[li],
                    layer.kernel - lr * vel_kernel[li],
                    layer.family))
            net = constrain_params(NetworkParams(
                new_layers, eps=net.eps, patch=net.patch, channels=net.channels))
        epoch_loss /= steps
        cert = contraction_certificate(net)
        val_psnr = float("nan")
        if val is not None:
            noisy_val = add_awgn(val, cfg.sigma, Rng(cfg.seed + 10_000 + epoch))
            denoised = network_forward(noisy_val, net)
            val_psnr = psnr(denoised, val)
        curve.append(EpochStats(epoch, epoch_loss, val_psnr, cert.total_bound))
        if initial_loss is None:
            initial_loss = epoch_loss
        if epoch_loss > 10.0 * initial_loss:
            bad_epochs += 1
            if bad_epochs >= 3:
                raise TrainingFailureError(
                    f"loss diverged: {epoch_loss:.3e} vs initial {initial_loss:.3e}")
        else:
            bad_epochs = 0
    return net, curve
