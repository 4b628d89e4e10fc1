"""Command-line interface: denoise, restore, certify, train, perturb, metrics, trace.

Exit codes: 0 success, 2 invalid configuration (stride violations, bad
flags), 3 corrupt weights, 4 I/O failure, 5 solver divergence, 6 unsound
composite bound (suppressible with --allow-expansive). Certificates and
convergence figures go to stderr as ``key=value`` lines so scripts can parse
them; primary results go to stdout.
"""

import argparse
import os
import sys

import numpy as np

from . import io as cio
from .errors import (CertificateError, CorruptWeightsError, DivergenceError,
                     TrainingFailureError, ValidationError)
from .inference import DEFAULT_TAPER, patch_denoise, plan_patches
from .layers import contraction_certificate, init_network
from .metrics import metric_report, psnr, ssim
from .pnp import (ForwardModel, composite_contraction_bound, drs_contraction_bound,
                  parse_blur_spec, pnp_drs, pnp_fbs, trace_to_csv)
from .trainer import (TrainConfig, curve_to_csv, load_patch_dataset,
                      synth_patches, train)

EXIT_CONFIG = 2
EXIT_WEIGHTS = 3
EXIT_IO = 4
EXIT_DIVERGED = 5
EXIT_EXPANSIVE = 6


def _emit(key, value):
    print(f"{key}={value}", file=sys.stderr)


def _seed(args):
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("CTRX_SEED", "0"))


def _denoiser_for(args, shape):
    """Build the denoiser of (C, H, W) images and report its certificates.

    Returns (denoise_fn, lipschitz_bound). Grayscale weights denoise a color
    image channel by channel.
    """
    if args.identity:
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


def _forward_model(args):
    blur = parse_blur_spec(args.blur)
    stride = 1 if args.task == "deblur" else args.stride_sr
    return ForwardModel(blur, stride=stride)


def _run_solver(args):
    y = cio.read_image(args.infile)
    model = _forward_model(args)
    full_h, full_w = y.shape[1] * model.stride, y.shape[2] * model.stride
    fn, lip = _denoiser_for(args, (y.shape[0], full_h, full_w))
    solve, bound_of, step = ((pnp_fbs, composite_contraction_bound, args.alpha_step)
                             if args.algo == "fbs" else
                             (pnp_drs, drs_contraction_bound, args.step))
    bound = bound_of(model, step, lip, full_h, full_w)
    _emit("composite_bound", bound)
    if not bound < 1 and not args.allow_expansive:
        print("composite bound >= 1: convergence is not certified "
              "(pass --allow-expansive to run anyway)", file=sys.stderr)
        return None, EXIT_EXPANSIVE
    ref = cio.read_image(args.ref) if args.ref else None
    trace = solve(y, model, fn, step, max_iters=args.iters, tol=args.tol, ref=ref)
    _emit("iterations", trace.iterations)
    _emit("converged", int(trace.converged))
    if trace.residuals:
        _emit("final_residual", trace.residuals[-1])
    return trace, 0


def _solve_and_trace(args):
    """Run the solver and write the trace CSV when asked; (trace, exit code)."""
    try:
        trace, code = _run_solver(args)
    except DivergenceError as err:
        trace, code = err.trace, EXIT_DIVERGED
        print(f"divergence: {err}", file=sys.stderr)
    if args.trace and trace is not None:
        trace_to_csv(trace, args.trace)
        _emit("trace_path", args.trace)
    return trace, code


def cmd_restore(args):
    trace, code = _solve_and_trace(args)
    if code:
        return code
    cio.write_image(args.outfile, trace.final)
    return 0


def cmd_trace(args):
    return _solve_and_trace(args)[1]


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
    print(f"psnr={psnr(a, b, args.peak)!r}")
    print(f"ssim={ssim(a, b, args.peak)!r}")
    if args.per_channel:
        rep = metric_report(a, b, args.peak)
        for c, (p, s) in enumerate(rep.per_channel):
            print(f"psnr_ch{c}={p!r}")
            print(f"ssim_ch{c}={s!r}")
    return 0


def cmd_train(args):
    seed = _seed(args)
    # the network first: it names a bad patch size before the data does
    net = init_network(depth=args.depth, patch=args.patch,
                       channels=args.channels, kernel_size=args.kernel_size,
                       eps=args.eps, seed=seed)
    if args.data:
        names = [n for n in sorted(os.listdir(args.data))
                 if n.endswith((".pgm", ".ppm", ".raw"))]
        if not names:
            raise ValidationError(f"no PNM or raw images found in {args.data}")
        images = [cio.read_image(os.path.join(args.data, n)) for n in names]
        for name, img in zip(names, images):
            if img.shape[0] != args.channels:
                raise ValidationError(f"{name} has {img.shape[0]} channels, "
                                      f"--channels says {args.channels}")
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


def _add_solver_flags(p):
    p.add_argument("--task", choices=("deblur", "sr"), required=True)
    p.add_argument("--blur", default="delta",
                   help="blur spec, e.g. gauss:9:2.0, box:9, disk:5, "
                        "aniso:21:3.0:1.5:45, motion:15:diag, sparse:15:0.9:0")
    p.add_argument("--stride-sr", type=int, default=2,
                   help="decimation factor for --task sr")
    p.add_argument("--alpha-step", type=float, default=1.0,
                   help="gradient step size for PnP-FBS (default 1.0; DRS "
                        "does not read it)")
    p.add_argument("--algo", choices=("fbs", "drs"), default="fbs")
    p.add_argument("--step", type=float, default=1.0,
                   help="DRS prox weight is 1/step")
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--ref", help="clean reference for per-iteration PSNR")
    p.add_argument("--allow-expansive", action="store_true",
                   help="run even when the composite bound is >= 1")


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
    _add_solver_flags(p)
    _add_denoiser_flags(p)
    p.set_defaults(func=cmd_restore)

    p = sub.add_parser("trace", help="run a solve and export only the trace CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--trace", required=True)
    _add_solver_flags(p)
    _add_denoiser_flags(p)
    p.set_defaults(func=cmd_trace)

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
    p.add_argument("--seed", type=int, default=None)
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
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    return ap


def main(argv=None):
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
