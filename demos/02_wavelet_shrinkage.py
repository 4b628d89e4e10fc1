#!/usr/bin/env python3
"""Orthonormal wavelet transforms and soft-thresholding as a denoiser.

All three shipped filter banks (haar, db4, sym4) are exactly orthogonal
under periodic boundary: analysis preserves the norm (Parseval).
Soft-thresholding the detail subbands of a noisy image is the exact
proximal map of a weighted l1 penalty and already denoises on its own.
``dwt2`` returns the four subbands stacked, ll first. Because the
transform is orthonormal, the PSNR of the subbands is the PSNR of the
images they synthesize, so the demo never leaves the wavelet domain.
"""

import numpy as np

from ctrx import FAMILIES, dwt2, psnr
from ctrx.io import Rng, add_awgn
from ctrx.trainer import synth_patches
from ctrx.wavelets import shrink


rng = np.random.default_rng(0)

print("== orthonormality ==")
x = rng.standard_normal((1, 64, 64))
for name in ("haar", "db4", "sym4"):
    parseval = abs(np.linalg.norm(dwt2(x, FAMILIES[name])) - np.linalg.norm(x))
    print(f"{name:5s}: Parseval gap {parseval:.2e}")

print("\n== one-shot wavelet shrinkage ==")
clean = synth_patches(1, 64, seed=3)[0]
sigma = 25.0 / 255.0
noisy = add_awgn(clean, sigma, Rng(1))
fam = FAMILIES["db4"]
clean_bands = dwt2(clean, fam)
noisy_bands = dwt2(noisy, fam)
print(f"noisy: {psnr(noisy, clean):.2f} dB in the image, "
      f"{psnr(noisy_bands, clean_bands):.2f} dB on the bands")
for lam_scale in (1.0, 2.0, 3.0):
    shrunk = np.concatenate([noisy_bands[:1],
                             shrink(noisy_bands[1:], lam_scale * sigma)])
    print(f"threshold {lam_scale:.0f}*sigma: "
          f"{psnr(noisy_bands, clean_bands):.2f} dB -> {psnr(shrunk, clean_bands):.2f} dB")
