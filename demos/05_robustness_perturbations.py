#!/usr/bin/env python3
"""Perturbation robustness of a trained contractive denoiser.

The trained network is run through patched inference on a perturbed and an
unperturbed copy of the same image. White-noise perturbations at several
magnitudes and chroma subsampling come out strictly attenuated; a pure
intensity rescale, which perturbs along the image itself, lands at a ratio
near 1, bounded by the observation certificate.
"""

import numpy as np

from ctrx import TrainConfig, init_network, patch_denoise, plan_patches, train
from ctrx.io import Rng, add_awgn, chroma_subsample
from ctrx.trainer import synth_patches

sigma = 25.0 / 255.0
data = synth_patches(200, 32, seed=1)
net = init_network(depth=5, patch=32, channels=1, seed=0)
cfg = TrainConfig(lr=0.03, epochs=15, batch_size=8, sigma=sigma,
                  decay_epochs=(10, 13), seed=0)
print("training a toy denoiser ...")
trained, _ = train(net, data, cfg)

plan = plan_patches(96, 96, 32, 16, taper=0.5)
x = synth_patches(1, 96, seed=42)[0]
base = patch_denoise(x, trained, plan)

print("\n== white-noise perturbations ==")
rng = np.random.default_rng(7)
for magnitude in (1e-3, 1e-2, 1e-1):
    worst = 0.0
    for _ in range(25):
        delta = rng.standard_normal(x.shape)
        delta *= magnitude / np.linalg.norm(delta)
        out = patch_denoise(x + delta, trained, plan)
        worst = max(worst, np.linalg.norm(out - base) / magnitude)
    print(f"|delta| = {magnitude:.0e}: worst output/input ratio {worst:.4f}")

print("\n== chroma subsampling (grayscale net applied per channel) ==")
rgb = synth_patches(3, 96, seed=43)[:, 0]
pert = chroma_subsample(rgb)
delta = np.linalg.norm(pert - rgb)
# a 1-channel network denoises a color image channel by channel
gap = np.linalg.norm(patch_denoise(pert, trained, plan)
                     - patch_denoise(rgb, trained, plan))
print(f"input change {delta:.4f} -> output change {gap:.4f} "
      f"(ratio {gap / delta:.4f})")

print("\n== small intensity rescale ==")
# a rescale perturbs along the image itself, the direction a denoiser tracks
# most faithfully; the measured ratio sits near 1 and is bounded by the
# observation certificate rather than by the state bound
for eps in (0.01, 0.05):
    pert = (1 + eps) * x
    out = patch_denoise(pert, trained, plan)
    ratio = np.linalg.norm(out - base) / np.linalg.norm(pert - x)
    print(f"scale 1+{eps}: ratio {ratio:.4f}")
