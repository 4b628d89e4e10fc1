"""Projected gradient training: SGD with momentum on the mean squared error
of the network output, with the gradients of :func:`ctrx.layers.network_vjp`
and the constraint projection after every step, so the contraction
certificate holds at every point of training."""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, TrainingFailureError, ValidationError
from .io import Rng, add_awgn, open_new
from .layers import (LayerParams, NetworkParams, constrain_params,
                     contraction_certificate, forward_steps, network_forward,
                     network_vjp, run_network)
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


def loss_mse(pred, target):
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DimensionError(f"shapes differ: {pred.shape} vs {target.shape}")
    return float(np.mean((pred - target) ** 2))


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


def _batch(net, y, target):
    """``y`` and ``target`` as the (B, C, P, P) batches :func:`backward` takes."""
    y = np.asarray(y, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if y.ndim == 3:
        y = y[None]
        target = target[None]
    y = _patches(y, net, "the batch")
    if y.shape != target.shape:
        raise DimensionError(f"shapes differ: {y.shape} vs {target.shape}")
    return y, target


def backward(net, y, target):
    """Loss and analytic parameter gradients for a batch.

    ``y`` and ``target`` are (B, C, P, P) (a single image is promoted).
    The gradients are one tuple per layer, shaped as ``LayerParams.params``.
    """
    y, target = _batch(net, y, target)
    pred, vjp = network_vjp(net, y)
    if not np.all(np.isfinite(pred)):
        raise TrainingFailureError("non-finite prediction in forward pass")
    loss = loss_mse(pred, target)
    return loss, vjp(2.0 * (pred - target) / pred.size)


def _loss_and_masks(net, y, target, norms):
    """Loss at the given conv norms and every layer's threshold mask."""
    tapes = []
    pred, _ = run_network(y, forward_steps(net.layers, net.eps, norms, net.patch,
                                           net.patch), tapes=tapes)
    return loss_mse(pred, target), [tape[2] != 0 for tape in tapes]


def _perturbed_net(net, layer_idx, kind, coord, delta):
    """``net`` with ``delta`` added to ``params[kind][coord]`` of one layer."""
    layers = list(net.layers)
    layer = layers[layer_idx]
    params = [np.array(p) for p in layer.params]
    params[kind][coord] += delta
    layers[layer_idx] = LayerParams(*params, layer.family)
    return NetworkParams(layers, eps=net.eps, patch=net.patch,
                         channels=net.channels)


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    worst_coordinate: tuple
    checked: int
    skipped_kinks: int


def grad_check(net, y, target, step=1e-6, tol=1e-4, seed=0):
    """Central finite differences against :func:`backward`, at each layer's
    alpha and 4 threshold and 6 kernel entries drawn at random; a coordinate
    is named (layer, "alpha" | "raw" | "kernel", index).

    Coordinates whose threshold activation pattern differs between the two
    perturbed evaluations sit next to a soft-threshold kink where central
    differences are invalid; they are skipped and counted. Both perturbed
    evaluations keep the unperturbed conv norms, so they differentiate the
    same frozen-normalizer objective that backward's straight-through rule
    implements, and each gives its loss and its masks in one forward pass.
    """
    y, target = _batch(net, y, target)
    _, grads = backward(net, y, target)
    base_norms = net.conv_norms()
    rng = np.random.default_rng(seed)
    coords = []
    for li, layer in enumerate(net.layers):
        coords.append((li, 0, ()))
        for kind, count in ((1, 4), (2, 6)):
            arr = layer.params[kind]
            coords += [(li, kind, np.unravel_index(flat, arr.shape))
                       for flat in rng.choice(arr.size, min(count, arr.size), replace=False)]

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
        an = np.asarray(grads[li][kind])[coord]
        rel = float(abs(fd - an) / max(abs(fd), abs(an), 1e-8))
        checked += 1
        if rel > worst:
            worst = rel
            worst_coord = (li, ("alpha", "raw", "kernel")[kind], coord)
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
    """Crop P x P patches at a fixed stride from full images (C, H, W).

    ``images`` may be any iterable, such as a generator that decodes one
    image at a time: each image's crops are copied out before the next is
    drawn, and none is drawn once ``limit`` (a positive integer, or None
    for no limit) patches are cropped.
    """
    if limit is not None and limit < 1:
        raise ValidationError(f"limit must be at least 1, got {limit}")
    parts, count = [], 0
    for img in images:
        c, h, w = img.shape
        crops = [img[:, r:r + patch, col:col + patch]
                 for r in range(0, h - patch + 1, stride)
                 for col in range(0, w - patch + 1, stride)]
        if limit is not None:
            crops = crops[:limit - count]
        if crops:
            parts.append(np.stack(crops))
            count += len(crops)
        del img, crops   # the crops are copied; free the image before the next
        if count == limit:
            break
    if not parts:
        raise ValidationError(f"no {patch}x{patch} patches fit the given images")
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


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
    # one momentum tuple per layer, like the gradients; a scalar 0 gives the
    # first step exactly as arrays of zeros would
    vel = [(0.0, 0.0, 0.0)] * net.depth
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
            vel = [tuple(MOMENTUM * v + g for v, g in zip(vs, gs))
                   for vs, gs in zip(vel, grads)]
            net = constrain_params(NetworkParams(
                [LayerParams(*(p - lr * v for p, v in zip(layer.params, vs)), layer.family)
                 for layer, vs in zip(net.layers, vel)],
                eps=net.eps, patch=net.patch, channels=net.channels))
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
