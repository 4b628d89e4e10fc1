#!/usr/bin/env python3
"""Train a small contractive denoiser on synthetic patches.

Projected SGD with momentum: after every step the step sizes are clipped
into (0, 1) and each kernel is rescaled to its Lipschitz budget, so the
contraction certificate holds at every epoch, not only at the end. The
trained weights and the loss curve are written to a temporary directory,
where ``ctrx certify`` checks the weights file, and removed at exit.
"""

import tempfile
from pathlib import Path

import numpy as np

from ctrx import TrainConfig, contraction_certificate, init_network, \
    network_forward, psnr, train
from ctrx.cli import main as ctrx_main
from ctrx.io import Rng, add_awgn, save_weights
from ctrx.trainer import curve_to_csv, synth_patches

sigma = 25.0 / 255.0

data = synth_patches(200, 32, seed=1)
train_set, heldout = data[:160], data[160:]
net = init_network(depth=5, patch=32, channels=1, seed=0)
cfg = TrainConfig(lr=0.03, epochs=15, batch_size=8, sigma=sigma,
                  decay_epochs=(10, 13), seed=0)

print(f"training depth-{net.depth} network on {train_set.shape[0]} patches "
      f"at sigma {sigma * 255:.0f}/255 ...")
trained, curve = train(net, train_set, cfg, val_dataset=heldout)
for stats in curve[::3]:
    print(f"epoch {stats.epoch:2d}: loss {stats.train_loss:.5f}  "
          f"val psnr {stats.val_psnr:.2f} dB  "
          f"certificate {stats.certificate_bound:.4f}")

noisy = add_awgn(heldout, sigma, Rng(99))
denoised = network_forward(noisy, trained)
print(f"\nheld-out: noisy {psnr(noisy, heldout):.2f} dB -> "
      f"denoised {psnr(denoised, heldout):.2f} dB")

cert = contraction_certificate(trained)
print(f"final certificate: total bound {cert.total_bound:.6f} < 1")

with tempfile.TemporaryDirectory(prefix="ctrx_demo_") as tmp:
    out_dir = Path(tmp)
    weights = out_dir / "toy.ctrx"
    save_weights(weights, trained)
    curve_to_csv(curve, out_dir / "curve.csv")
    print(f"\nweights -> {weights}")
    print(f"curve   -> {out_dir / 'curve.csv'}")
    print(f"\nctrx certify --weights {weights}")
    if ctrx_main(["certify", "--weights", str(weights)]) != 0:
        raise SystemExit("ctrx certify rejected the trained weights")
