"""Command-line interface: denoise, restore, certify, train, perturb, metrics.

Exit codes: 0 success, 2 invalid configuration (stride violations, bad
flags), 3 corrupt weights, 4 I/O failure, 5 solver divergence, 6 unsound
composite bound (suppressible with --allow-expansive). Certificates and
convergence figures go to stderr as ``key=value`` lines so scripts can parse
them; primary results go to stdout.
"""

import argparse
import ctypes
import os
import sys

import numpy as np

from . import io as cio
from .errors import (CertificateError, CorruptWeightsError, DivergenceError,
                     TrainingFailureError, ValidationError)
from .inference import DEFAULT_TAPER, patch_denoise, plan_patches
from .layers import contraction_certificate, init_network
from .metrics import metric_report, psnr
from .pnp import (ForwardModel, composite_contraction_bound, parse_blur_spec,
                  pnp_fbs, trace_to_csv)
from .trainer import (TrainConfig, curve_to_csv, load_patch_dataset,
                      synth_patches, train)

EXIT_CONFIG = 2
EXIT_WEIGHTS = 3
EXIT_IO = 4
EXIT_DIVERGED = 5
EXIT_EXPANSIVE = 6

# The heap policy of a command. A PnP iteration frees 150-230 KB of
# temporaries at the top of the heap; glibc's dynamic trim threshold hands
# those pages back to the kernel after every iteration and the next one
# faults them in again: about 7.7k minor faults per 25-iteration 64x64 x2
# super-resolution restore, 2-3 with this policy (2-core Xeon VM). Arrays up
# to MMAP_THRESHOLD come from the heap, and up to TRIM_THRESHOLD of free heap
# top stays mapped. Both are set: fixing either turns glibc's dynamic
# adjustment off and leaves the other at its 128 KiB default (trim alone:
# 8.9k faults per restore; mmap alone: 16.5k). A 64 MiB trim threshold kept
# 9-12 MB more at the peak of a 1024x1024 or 2048x2048 denoise; 8 MiB let a
# training epoch fault 5.4k pages again.
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 16 << 20
# mallopt parameter numbers, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _emit(key, value):
    print(f"{key}={value}", file=sys.stderr)


def _seed(args):
    """The --seed flag, a non-negative integer."""
    if args.seed < 0:
        raise ValidationError(f"--seed must be a non-negative integer, got {args.seed}")
    return args.seed


def _denoiser_for(args, shape):
    """Build the denoiser of (C, H, W) images and report its certificates.

    Returns (denoise_fn, lipschitz_bound). Grayscale weights denoise a color
    image channel by channel.
    """
    if args.identity:
        # no patch plan is made to check these flags, so they are checked here
        if args.stride is not None and args.stride < 1:
            raise ValidationError(f"stride must be positive, got {args.stride}")
        if not 0.0 <= args.taper <= 1.0:
            raise ValidationError(f"taper must be in [0, 1], got {args.taper}")
        _emit("certificate", 1.0)
        return (lambda img: img), 1.0
    if not args.weights:
        raise ValidationError("pass --weights FILE or --identity")
    net = cio.load_weights(args.weights)
    if net.channels not in (1, shape[0]):
        raise ValidationError(
            f"weights expect {net.channels} channels, image has {shape[0]}")
    stride = args.stride if args.stride is not None else net.patch // 2
    plan = plan_patches(shape[1], shape[2], net.patch, stride, args.taper)
    cert = contraction_certificate(net)
    _emit("certificate", cert.total_bound)
    _emit("observation_bound", cert.observation_bound)
    return (lambda img: patch_denoise(img, net, plan)), cert.observation_bound


def cmd_denoise(args):
    x = cio.read_image(args.infile)
    fn, _ = _denoiser_for(args, x.shape)
    cio.write_image(args.outfile, fn(x))
    return 0


def cmd_restore(args):
    if not args.alpha_step > 0:
        raise ValidationError(f"alpha_step must be finite and positive, "
                              f"got {args.alpha_step}")
    y = cio.read_image(args.infile)
    model = ForwardModel(parse_blur_spec(args.blur),
                         stride=1 if args.task == "deblur" else args.stride_sr)
    full_h, full_w = y.shape[1] * model.stride, y.shape[2] * model.stride
    fn, lip = _denoiser_for(args, (y.shape[0], full_h, full_w))
    bound = composite_contraction_bound(model, args.alpha_step, lip, full_h, full_w)
    _emit("composite_bound", bound)
    if not bound < 1 and not args.allow_expansive:
        print("composite bound >= 1: convergence is not certified "
              "(pass --allow-expansive to run anyway)", file=sys.stderr)
        return EXIT_EXPANSIVE
    ref = cio.read_image(args.ref) if args.ref else None
    code = 0
    try:
        trace = pnp_fbs(y, model, fn, args.alpha_step, max_iters=args.iters,
                        tol=args.tol, ref=ref)
    except DivergenceError as err:
        trace, code = err.trace, EXIT_DIVERGED
        print(f"divergence: {err}", file=sys.stderr)
    else:
        _emit("iterations", trace.iterations)
        _emit("converged", int(trace.converged))
        _emit("final_residual", trace.residuals[-1])
    if args.trace:
        trace_to_csv(trace, args.trace)
        _emit("trace_path", args.trace)
    if code:
        return code
    cio.write_image(args.outfile, trace.final)
    return 0


def cmd_certify(args):
    cert = contraction_certificate(cio.load_weights(args.weights))
    for i, lb in enumerate(cert.per_layer, start=1):
        print(f"layer={i} s={lb.conv_norm!r} budget={lb.conv_budget!r} "
              f"bound={lb.layer_bound!r}")
    print(f"total_bound={cert.total_bound!r}")
    print(f"observation_bound={cert.observation_bound!r}")
    _emit("certificate", cert.total_bound)
    return 0


def _parse_perturbation(spec, x, seed):
    kind, *args = str(spec).split(":")
    try:
        if kind == "chroma" and not args:
            return cio.chroma_subsample(x)
        if kind in ("awgn", "scale") and len(args) == 1:
            value = float(args[0])
            if not np.isfinite(value):
                raise ValueError("the number must be finite")
            # an overflow is caught by the bound below, not warned about
            with np.errstate(over="ignore", invalid="ignore"):
                out = (cio.add_awgn(x, value / 255.0, cio.Rng(seed)) if kind == "awgn"
                       else (1.0 + value) * x)
            if not np.all(np.abs(out) <= cio.MAX_ABS_VALUE):
                raise ValueError(f"the perturbed image must stay within "
                                 f"+-{cio.MAX_ABS_VALUE:g}")
            return out
    except ValueError as exc:
        raise ValidationError(f"bad perturbation spec {spec!r}: {exc}") from exc
    raise ValidationError(f"unrecognized perturbation spec {spec!r}")


def cmd_perturb(args):
    x = cio.read_image(args.infile)
    x_pert = _parse_perturbation(args.perturb, x, _seed(args))
    fn, _ = _denoiser_for(args, x.shape)
    delta = float(np.linalg.norm(x_pert - x))
    base = fn(x)
    pert = fn(x_pert)
    out_delta = float(np.linalg.norm(pert - base))
    ratio = out_delta / delta if delta > 0 else float("nan")
    print(f"delta_norm={delta!r}")
    print(f"output_delta_norm={out_delta!r}")
    print(f"ratio={ratio!r}")
    if args.ref:
        ref = cio.read_image(args.ref)
        print(f"psnr_base={psnr(base, ref)!r}")
        print(f"psnr_perturbed={psnr(pert, ref)!r}")
    return 0


def cmd_metrics(args):
    a = cio.read_image(args.a)
    b = cio.read_image(args.b)
    rep = metric_report(a, b, args.peak)
    print(f"psnr={rep.psnr_db!r}")
    print(f"ssim={rep.ssim!r}")
    if args.per_channel:
        for c, (p, s) in enumerate(rep.per_channel):
            print(f"psnr_ch{c}={p!r}")
            print(f"ssim_ch{c}={s!r}")
    return 0


def _training_image(args, name):
    """The image ``name`` of ``--data``, with ``--channels`` channels."""
    img = cio.read_image(os.path.join(args.data, name))
    if img.shape[0] != args.channels:
        raise ValidationError(f"{name} has {img.shape[0]} channels, "
                              f"--channels says {args.channels}")
    return img


def cmd_train(args):
    seed = _seed(args)
    # the network first: it names a bad patch size before the data does
    net = init_network(depth=args.depth, patch=args.patch,
                       channels=args.channels, kernel_size=args.kernel_size,
                       eps=args.eps, seed=seed)
    if args.data:
        if args.max_patches < 1:
            raise ValidationError(
                f"--max-patches must be at least 1, got {args.max_patches}")
        names = [n for n in sorted(os.listdir(args.data))
                 if n.endswith((".pgm", ".ppm", ".raw"))]
        if not names:
            raise ValidationError(f"no PNM or raw images found in {args.data}")
        # decoded one at a time: the dataset copies each image's crops out
        # before it draws the next, and stops drawing at --max-patches
        images = (_training_image(args, name) for name in names)
        dataset = load_patch_dataset(images, args.patch, stride=4,
                                     limit=args.max_patches)
    else:
        dataset = synth_patches(args.patches, args.patch, args.channels,
                                seed=seed + 1)
    n_val = max(1, dataset.shape[0] // 10)
    val, dataset = dataset[:n_val], dataset[n_val:]
    cfg = TrainConfig(lr=args.lr, epochs=args.epochs, batch_size=args.batch,
                      sigma=args.sigma / 255.0, seed=seed)
    trained, curve = train(net, dataset, cfg, val_dataset=val)
    cio.save_weights(args.outfile, trained)
    if args.curve:
        curve_to_csv(curve, args.curve)
    cert = contraction_certificate(trained)
    _emit("certificate", cert.total_bound)
    if curve:
        _emit("final_train_loss", curve[-1].train_loss)
        _emit("final_val_psnr", curve[-1].val_psnr)
    return 0


def _add_denoiser_flags(p):
    p.add_argument("--weights", help="weights file produced by train")
    p.add_argument("--identity", action="store_true",
                   help="bypass the network (identity denoiser)")
    p.add_argument("--stride", type=int, default=None,
                   help="patch stride (default: patch/2)")
    p.add_argument("--taper", type=float, default=DEFAULT_TAPER,
                   help="Tukey taper in [0,1]; use 0 with stride = patch")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ctrx",
        description="Provably contractive wavelet-prox denoisers and "
                    "convergent plug-and-play restoration.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("denoise", help="denoise an image with patched inference")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    _add_denoiser_flags(p)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("restore", help="PnP deblurring or superresolution")
    p.add_argument("--in", dest="infile", required=True,
                   help="observed (degraded) image")
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--trace", help="write the convergence trace CSV here")
    p.add_argument("--task", choices=("deblur", "sr"), required=True)
    p.add_argument("--blur", default="delta",
                   help="blur spec, e.g. gauss:9:2.0, box:9, disk:5, "
                        "aniso:21:3.0:1.5:45, motion:15:diag, sparse:15:0.9:0")
    p.add_argument("--stride-sr", type=int, default=2,
                   help="decimation factor for --task sr")
    p.add_argument("--alpha-step", type=float, default=1.0,
                   help="gradient step size for PnP-FBS (finite, > 0; "
                        "default 1.0)")
    p.add_argument("--algo", choices=("fbs",), default="fbs",
                   help="PnP-FBS, the only solver; kept because existing "
                        "scripts pass --algo fbs")
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--ref", help="clean reference for per-iteration PSNR")
    p.add_argument("--allow-expansive", action="store_true",
                   help="run even when the composite bound is >= 1")
    _add_denoiser_flags(p)
    p.set_defaults(func=cmd_restore)

    p = sub.add_parser("certify", help="print per-layer and total contraction "
                       "bounds on the weights' patch grid")
    p.add_argument("--weights", required=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("perturb", help="measure output change under a perturbation")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--perturb", required=True,
                   help="chroma | awgn:SIGMA (0-255 scale) | scale:EPS")
    p.add_argument("--ref", help="clean reference for PSNR reporting")
    _add_denoiser_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("metrics", help="PSNR and SSIM between two images")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--peak", type=float, default=1.0)
    p.add_argument("--per-channel", action="store_true",
                   help="also print the per-channel breakdown")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("train", help="train a contractive denoiser")
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--data", help="directory of PNM/raw training images")
    p.add_argument("--curve", help="write the per-epoch loss curve CSV here")
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--patch", type=int, default=32)
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--kernel-size", type=int, default=3)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--lr", type=float, default=0.02)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--sigma", type=float, default=25.0,
                   help="noise level on the 0-255 scale")
    p.add_argument("--patches", type=int, default=200,
                   help="synthetic patch count when --data is absent")
    p.add_argument("--max-patches", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    return ap


def keep_freed_heap_mapped():
    """Set the heap policy above; mallopt's two results, or None where the C
    library has no ``mallopt`` (macOS, Windows)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD),
            mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD))


def main(argv=None):
    keep_freed_heap_mapped()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CorruptWeightsError as err:
        print(f"weights error: {err}", file=sys.stderr)
        return EXIT_WEIGHTS
    except (ValidationError, TrainingFailureError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except CertificateError as err:
        print(f"certificate error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
