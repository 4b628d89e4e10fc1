"""Provably contractive wavelet-prox denoisers with exact Lipschitz
certificates, and convergent plug-and-play restoration built on them."""

from .inference import patch_denoise, plan_patches, tukey_window
from .layers import (ContractionCertificate, LayerParams, NetworkParams,
                     constrain_params, contraction_certificate, init_network,
                     layer_forward, network_forward)
from .metrics import metric_report, psnr, ssim
from .pnp import (ForwardModel, apply_adjoint, apply_forward,
                  composite_contraction_bound, grad_datafit, parse_blur_spec,
                  pnp_drs, pnp_fbs, simulate, trace_to_csv)
from .tensorops import (conv2d_circular, conv_operator_norm, dense_norm_oracle,
                        freq_response)
from .trainer import TrainConfig, backward, grad_check, loss_mse, synth_patches, train
from .wavelets import FAMILIES, WaveletCoeffs, dwt2, get_family, idwt2, soft_threshold_hf

__version__ = "0.1.0"

__all__ = [
    "ContractionCertificate", "FAMILIES", "ForwardModel", "LayerParams",
    "NetworkParams", "TrainConfig", "WaveletCoeffs", "apply_adjoint",
    "apply_forward", "backward",
    "composite_contraction_bound", "constrain_params",
    "contraction_certificate", "conv2d_circular", "conv_operator_norm",
    "dense_norm_oracle", "dwt2", "freq_response", "get_family",
    "grad_check", "grad_datafit", "idwt2", "init_network", "layer_forward",
    "loss_mse", "metric_report", "network_forward", "parse_blur_spec",
    "patch_denoise", "plan_patches", "pnp_drs", "pnp_fbs", "psnr",
    "simulate", "soft_threshold_hf", "ssim", "synth_patches",
    "trace_to_csv", "train", "tukey_window",
]
