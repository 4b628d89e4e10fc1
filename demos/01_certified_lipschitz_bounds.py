#!/usr/bin/env python3
"""Exact Lipschitz certificates for multichannel circular convolutions.

The operator norm of a circular convolution is the largest singular value of
its per-frequency channel matrix: the DFT of the kernel's taps at each
frequency (``ctrx.tensorops.kernel_spectrum``), then an exact SVD on the
frequencies that can hold the maximum. The demo compares that pruned norm
against the SVD of every frequency's matrix on the full grid, shows
``constrain_params`` projecting an over-budget kernel back under its layer's
gain, and prints the per-layer certificate of a network.
"""

import numpy as np

from ctrx import (LayerParams, NetworkParams, constrain_params, conv_operator_norm,
                  contraction_certificate, get_family, init_network)
from ctrx.tensorops import kernel_spectrum

rng = np.random.default_rng(0)

print("== pruned SVD vs the SVD of every frequency ==")
for trial in range(5):
    k = rng.standard_normal((3, 3, 3, 3))
    pruned = conv_operator_norm(k, 8, 8)
    # (c_out, c_in, H, W) at every column of the 8x8 grid, as (H, W) matrices
    every = kernel_spectrum(k, 8, 8, np.arange(8)).transpose(2, 3, 0, 1)
    full = np.linalg.svd(every, compute_uv=False).max()
    print(f"kernel {trial}: pruned {pruned:.12f}   every frequency {full:.12f}   "
          f"gap {abs(pruned - full):.2e}")

print("\n== projecting a kernel back under its layer's gain ==")
k = 5.0 * rng.standard_normal((2, 2, 3, 3))
layer = LayerParams(0.5, np.zeros((3, 2, 8, 8)), k, get_family("haar"))
projected = constrain_params(NetworkParams([layer], eps=1e-3, patch=16, channels=2))
budget = contraction_certificate(projected).per_layer[0].conv_budget
print(f"norm before projection: {conv_operator_norm(k, 16, 16):.4f}")
print(f"budget 1 / ((1 - alpha) + eps) at alpha 0.5, eps 1e-3: {budget:.10f}")
print(f"norm after projection: "
      f"{conv_operator_norm(projected.layers[0].kernel, 16, 16):.10f}")

print("\n== per-layer network certificate ==")
net = init_network(depth=6, patch=32, channels=1, seed=1)
cert = contraction_certificate(net)
for i, lb in enumerate(cert.per_layer, start=1):
    print(f"layer {i}: conv norm {lb.conv_norm:.4f}  budget {lb.conv_budget:.4f}"
          f"  state bound {lb.layer_bound:.6f}")
print(f"total state bound: {cert.total_bound:.6f}  (provably < 1)")
print(f"observation bound: {cert.observation_bound:.4f}  (input-output map)")
