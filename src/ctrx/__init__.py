"""Provably contractive wavelet-prox denoisers with exact Lipschitz
certificates, and convergent plug-and-play restoration built on them."""

from .inference import patch_denoise, plan_patches, tukey_window
from .layers import (ContractionCertificate, LayerParams, NetworkParams,
                     constrain_params, contraction_certificate, init_network,
                     network_forward)
from .metrics import metric_report, psnr, ssim
from .pnp import (ForwardModel, apply_adjoint, apply_forward,
                  composite_contraction_bound, grad_datafit, parse_blur_spec,
                  pnp_fbs, trace_to_csv)
from .tensorops import conv_operator_norm
from .trainer import TrainConfig, backward, grad_check, loss_mse, synth_patches, train
from .wavelets import FAMILIES, dwt2, get_family

__version__ = "0.1.0"

__all__ = [
    "ContractionCertificate", "FAMILIES", "ForwardModel", "LayerParams",
    "NetworkParams", "TrainConfig", "apply_adjoint",
    "apply_forward", "backward",
    "composite_contraction_bound", "constrain_params",
    "contraction_certificate", "conv_operator_norm",
    "dwt2", "get_family",
    "grad_check", "grad_datafit", "init_network",
    "loss_mse", "metric_report", "network_forward", "parse_blur_spec",
    "patch_denoise", "plan_patches", "pnp_fbs", "psnr",
    "ssim", "synth_patches",
    "trace_to_csv", "train", "tukey_window",
]
