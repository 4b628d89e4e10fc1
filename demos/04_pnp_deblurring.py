#!/usr/bin/env python3
"""Convergent plug-and-play deblurring, and what happens without the guarantee.

Three runs on the same blurred observation:

1. a denoiser whose input-output Lipschitz bound is certified < 1, so the
   PnP-FBS iteration is provably a contraction: residual ratios stay below
   the composite bound and the iterates reach a unique fixed point;
2. a trained denoiser (certified in its state argument, empirically
   contractive end to end) which actually restores image quality;
3. a 1.2-expansive map in the denoiser slot, which blows up, reproducing
   the divergence of unconstrained models.
"""

import numpy as np

from ctrx import (ForwardModel, TrainConfig, apply_forward,
                  composite_contraction_bound, contraction_certificate,
                  init_network, network_forward, pnp_fbs, psnr, train)
from ctrx.errors import DivergenceError
from ctrx.io import Rng, add_awgn
from ctrx.pnp import gaussian_blur
from ctrx.trainer import synth_patches

model = ForwardModel(gaussian_blur(9, 2.0), stride=1)
alpha = 1.0

print("== 1. certified convergence (provably input-contractive denoiser) ==")
rng = np.random.default_rng(0)
flat_clean = rng.random((1, 64, 64))
y1 = add_awgn(apply_forward(flat_clean, model), 0.01, Rng(1))
# alpha < eps makes even the input-output map provably contractive
net = init_network(depth=3, patch=64, channels=1, seed=2,
                   alpha_range=(0.05, 0.25), eps=0.3)
lip = contraction_certificate(net).observation_bound
bound = composite_contraction_bound(model, alpha, lip, 64, 64)
print(f"denoiser bound {lip:.4f}, composite bound {bound:.4f} < 1")
trace = pnp_fbs(y1, model, lambda z: network_forward(z, net), alpha,
                max_iters=500, tol=1e-6)
ratios = [trace.residuals[k + 1] / trace.residuals[k]
          for k in range(min(10, trace.iterations - 1))]
print(f"converged in {trace.iterations} iterations; "
      f"max residual ratio {max(ratios):.4f} <= bound {bound:.4f}")

print("\n== 2. restoration quality with a trained denoiser ==")
data = synth_patches(256, 32, seed=1)
print("training a small denoiser ...")
trained, _ = train(init_network(depth=5, patch=32, channels=1, seed=0), data,
                   TrainConfig(lr=0.05, epochs=24, batch_size=16,
                               sigma=25 / 255.0, decay_epochs=(12, 20), seed=2))
clean = synth_patches(1, 64, seed=9)[0]
hard_model = ForwardModel(gaussian_blur(11, 4.0), stride=1)
y2 = apply_forward(clean, hard_model)
from ctrx import patch_denoise, plan_patches
plan = plan_patches(64, 64, 32, 16, taper=0.5)
denoiser = lambda z: patch_denoise(z, trained, plan)
trace2 = pnp_fbs(y2, hard_model, denoiser, 1.9, max_iters=500, tol=1e-6,
                 ref=clean)
print(f"converged in {trace2.iterations} iterations: "
      f"blurred {psnr(np.asarray(y2), clean):.2f} dB -> "
      f"restored {psnr(trace2.final, clean):.2f} dB")

print("\n== 3. the same problem with a 1.2-expansive 'denoiser' ==")
try:
    bad = pnp_fbs(y2, model, lambda z: 1.2 * z, alpha, max_iters=500, tol=1e-6)
    print(f"no fixed point: converged={bad.converged}, residual grew from "
          f"{bad.residuals[10]:.3e} (iter 11) to {bad.residuals[-1]:.3e} "
          f"(iter {bad.iterations})")
except DivergenceError as err:
    print(f"diverged after {err.trace.iterations} iterations "
          f"(non-finite iterate)")
