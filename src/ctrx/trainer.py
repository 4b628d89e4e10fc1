"""Projected gradient training with analytic backprop through every layer.

The loss is mean squared error between the network output and the clean
target. Linear blocks (wavelet transforms, convolutions, the gradient-step
blend) backpropagate by their exact adjoints; the soft threshold uses the
subgradient ``1{|z| > lambda}`` on coefficient paths and ``-sign(z)`` inside
the active set for the threshold parameters. The convolution normalizer
``s(K) + NORM_GUARD`` is held constant during differentiation (the
projection step re-imposes the norm constraint anyway), so gradients are
exact up to that straight-through choice, which the finite-difference
checker accounts for.

Optimization is SGD with momentum plus the constraint projection after every
step, so the contraction certificate holds at every point of training.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import fft
from scipy.special import expit

from .errors import DimensionError, TrainingFailureError, ValidationError
from .io import Rng, add_awgn, open_new
from .layers import (LayerParams, NetworkParams, constrain_params,
                     contraction_certificate, gain_denominator, layer_forward,
                     network_forward)
from .metrics import psnr
from .tensorops import NORM_GUARD, conv2d_circular_adjoint
from .wavelets import WaveletCoeffs, dwt2, idwt2


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    epochs: int = 30
    batch_size: int = 16
    sigma: float = 25.0 / 255.0
    decay_epochs: tuple = (10, 20)
    decay_factor: float = 0.1
    momentum: float = 0.9
    flips: bool = True
    rotations: bool = True
    seed: int = 0

    def __post_init__(self):
        if not self.lr > 0:
            raise ValidationError(f"lr must be positive, got {self.lr}")
        if self.batch_size < 1:
            raise ValidationError(f"batch size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValidationError(f"epochs must be >= 0, got {self.epochs}")
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


def _kernel_gradient(u, gv, kshape):
    """d loss / d kernel for vraw = conv2d_circular(u, K), batch-summed.

    ``u`` is (B, c_in, H, W), ``gv`` the upstream gradient (B, c_out, H, W).
    The cross-correlation runs on the real half-spectrum.
    """
    h, w = u.shape[-2:]
    uf = fft.rfft2(u, axes=(-2, -1))
    gf = fft.rfft2(gv, axes=(-2, -1))
    corr = fft.irfft2(np.einsum("bihw,bohw->oihw", np.conj(uf), gf),
                      s=(h, w), axes=(-2, -1))
    c_out, c_in, kh, kw = kshape
    rows = (np.arange(kh) - kh // 2) % h
    cols = (np.arange(kw) - kw // 2) % w
    return corr[:, :, rows[:, None], cols[None, :]]


def _conv_norms(net):
    return [layer.conv_norm(net.patch, net.patch) for layer in net.layers]


def _forward_collect(net, y, norms):
    """Forward pass at the given conv norms, keeping what backward needs.

    Returns the prediction and, per layer, its input state followed by the
    tape of :func:`layer_forward`.
    """
    x = y
    tapes = []
    for layer, s in zip(net.layers, norms):
        out, tape = layer_forward(x, y, layer, net.eps, s)
        tapes.append((x, *tape))
        x = out
    return x, tapes


def backward(net, y, target):
    """Loss and analytic parameter gradients for a batch.

    ``y`` and ``target`` are (B, C, P, P) (a single image is promoted).
    """
    y = np.asarray(y, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if y.ndim == 3:
        y = y[None]
        target = target[None]
    if y.shape != target.shape:
        raise DimensionError(f"shapes differ: {y.shape} vs {target.shape}")
    norms = _conv_norms(net)
    pred, tapes = _forward_collect(net, y, norms)
    if not np.all(np.isfinite(pred)):
        raise TrainingFailureError("non-finite prediction in forward pass")
    loss = loss_mse(pred, target)
    g = 2.0 * (pred - target) / pred.size

    grads = GradientSet([None] * net.depth, [None] * net.depth, [None] * net.depth)
    for idx in range(net.depth - 1, -1, -1):
        layer = net.layers[idx]
        x_in, shrunk, u, vraw = tapes[idx]
        s = norms[idx]
        denom = gain_denominator(layer.alpha, net.eps)
        scale = 1.0 / ((s + NORM_GUARD) * denom)
        # out = vraw * scale; alpha enters through denom, d denom/d alpha = -1
        alpha_grad = float(np.sum(g * vraw) / (s + NORM_GUARD) / denom ** 2)
        gv = g * scale
        kernel_grad = _kernel_gradient(u, gv, layer.kernel.shape)
        gu = conv2d_circular_adjoint(gv, layer.kernel)
        gc = dwt2(gu, layer.family)
        lam_grad = np.empty_like(layer.raw_thresholds)
        detail_grads = []
        for i, (band, kept) in enumerate(zip((gc.lh, gc.hl, gc.hh),
                                             (shrunk.lh, shrunk.hl, shrunk.hh))):
            # kept = sign(z) * max(|z| - lambda, 0) is nonzero exactly where
            # |z| > lambda; there d kept/dz = 1 and d kept/d lambda = -sign(kept)
            active = band * (kept != 0)
            lam_grad[i] = -np.sum(np.sign(kept) * active, axis=0)
            detail_grads.append(active)
        raw_grad = lam_grad * expit(layer.raw_thresholds)
        gz = idwt2(WaveletCoeffs(gc.ll, *detail_grads), layer.family)
        alpha_grad += float(np.sum(gz * (y - x_in)))
        g = (1.0 - layer.alpha) * gz
        grads.alpha[idx] = alpha_grad
        grads.raw_thresholds[idx] = raw_grad
        grads.kernel[idx] = kernel_grad
        if not np.isfinite(alpha_grad) or not np.all(np.isfinite(kernel_grad)):
            raise TrainingFailureError(f"non-finite gradient at layer {idx}")
    return loss, grads


def _loss_and_masks(net, y, target, norms):
    """Loss at the given conv norms and every layer's threshold masks."""
    pred, tapes = _forward_collect(net, y, norms)
    masks = [band != 0 for _, shrunk, _, _ in tapes
             for band in (shrunk.lh, shrunk.hl, shrunk.hh)]
    return loss_mse(pred, target), masks


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
    base_norms = _conv_norms(net)
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


def _augment(batch, bits, flips, rotations):
    out = np.empty_like(batch)
    for i, b in enumerate(bits):
        item = batch[i]
        if flips and (b & 1):
            item = item[:, ::-1, :]
        if flips and (b & 2):
            item = item[:, :, ::-1]
        if rotations:
            item = np.rot90(item, k=(b >> 2) & 3, axes=(-2, -1))
        out[i] = item
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
    dataset = np.asarray(dataset, dtype=np.float64)
    if dataset.ndim != 4 or dataset.shape[1] != net.channels \
            or dataset.shape[2:] != (net.patch, net.patch):
        raise DimensionError(
            f"dataset must be (N, {net.channels}, {net.patch}, {net.patch}), "
            f"got {dataset.shape}")
    if dataset.shape[0] == 0:
        raise ValidationError("the training set is empty")
    if val_dataset is not None:
        val = np.asarray(val_dataset, dtype=np.float64)
        if val.size == 0:
            raise ValidationError("the validation set is empty")
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
        lr = cfg.lr * cfg.decay_factor ** sum(epoch > d for d in cfg.decay_epochs)
        order = np.argsort(rng.uniform(n), kind="stable")
        epoch_loss = 0.0
        for step_i in range(steps):
            idx = order[step_i * cfg.batch_size:(step_i + 1) * cfg.batch_size]
            if idx.size == 0:
                continue
            clean = dataset[idx]
            if cfg.flips or cfg.rotations:
                bits = rng.integers(idx.size, 16)
                clean = _augment(clean, bits, cfg.flips, cfg.rotations)
            noisy = add_awgn(clean, cfg.sigma, rng)
            loss, grads = backward(net, noisy, clean)
            epoch_loss += loss
            new_layers = []
            for li, layer in enumerate(net.layers):
                vel_alpha[li] = cfg.momentum * vel_alpha[li] + grads.alpha[li]
                vel_raw[li] = cfg.momentum * vel_raw[li] + grads.raw_thresholds[li]
                vel_kernel[li] = cfg.momentum * vel_kernel[li] + grads.kernel[li]
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
        if val_dataset is not None:
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
