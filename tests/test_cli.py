import os
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ctrx.cli
import ctrx.layers
import ctrx.metrics
import ctrx.trainer
from ctrx.cli import main
from ctrx.io import Rng, add_awgn, load_weights, read_image, save_weights, write_image
from ctrx.layers import LayerParams, NetworkParams, init_network, network_forward
from ctrx.metrics import psnr, ssim
from ctrx.pnp import ForwardModel, apply_forward, gaussian_blur
from ctrx.trainer import TrainConfig, synth_patches, train


@pytest.fixture(scope="module")
def toy_weights(tmp_path_factory):
    """A small trained grayscale network saved to disk."""
    root = tmp_path_factory.mktemp("weights")
    data = synth_patches(256, 32, seed=1)
    net = init_network(depth=5, patch=32, channels=1, seed=0)
    cfg = TrainConfig(lr=0.05, epochs=24, batch_size=16, sigma=25 / 255.0,
                      decay_epochs=(12, 20), seed=2)
    trained, _ = train(net, data, cfg)
    path = root / "toy.ctrx"
    save_weights(path, trained)
    return str(path), trained


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(stream):
    out = {}
    for line in stream.splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            if " " not in key:
                out[key] = val
    return out


def test_denoise_identity_roundtrip(tmp_path, capsys):
    x = np.random.default_rng(0).random((1, 20, 24))
    src = tmp_path / "in.raw"
    dst = tmp_path / "out.raw"
    write_image(src, x)
    code, _, err = run(["denoise", "--in", str(src), "--out", str(dst),
                        "--identity"], capsys)
    assert code == 0
    assert kv(err)["certificate"] == "1.0"
    np.testing.assert_array_equal(read_image(dst), x)


def test_denoise_with_trained_weights_improves_psnr(tmp_path, capsys, toy_weights):
    wpath, net = toy_weights
    clean = synth_patches(1, 32, seed=9)[0]
    noisy = add_awgn(clean, 25 / 255.0, Rng(3))
    src = tmp_path / "noisy.raw"
    dst = tmp_path / "den.raw"
    write_image(src, noisy)
    code, _, err = run(["denoise", "--in", str(src), "--out", str(dst),
                        "--weights", wpath, "--stride", "16"], capsys)
    assert code == 0
    cert = float(kv(err)["certificate"])
    assert cert < 1.0
    out = read_image(dst)
    assert psnr(out, clean) > psnr(noisy, clean)


def test_denoise_grayscale_weights_on_color_image(tmp_path, capsys, toy_weights):
    wpath, _ = toy_weights
    x = np.random.default_rng(1).random((3, 32, 32))
    src = tmp_path / "c.raw"
    dst = tmp_path / "c_out.raw"
    write_image(src, x)
    code, _, _ = run(["denoise", "--in", str(src), "--out", str(dst),
                      "--weights", wpath, "--stride", "16"], capsys)
    assert code == 0
    assert read_image(dst).shape == (3, 32, 32)


def test_denoise_color_weights_on_grayscale_image_exits_2(tmp_path, capsys):
    wpath = tmp_path / "rgb.ctrx"
    save_weights(wpath, init_network(depth=1, patch=8, channels=3, seed=2))
    src = tmp_path / "g.raw"
    write_image(src, np.zeros((1, 16, 16)))
    code, _, err = run(["denoise", "--in", str(src), "--out",
                        str(tmp_path / "g_out.raw"), "--weights", str(wpath)],
                       capsys)
    assert code == 2
    assert "error:" in err
    assert not (tmp_path / "g_out.raw").exists()


def test_denoise_stride_violation_exits_2(tmp_path, capsys, toy_weights):
    wpath, _ = toy_weights
    src = tmp_path / "x.raw"
    write_image(src, np.zeros((1, 32, 32)))
    code, _, _ = run(["denoise", "--in", str(src), "--out",
                      str(tmp_path / "y.raw"), "--weights", wpath,
                      "--stride", "5"], capsys)
    assert code == 2


@pytest.mark.parametrize("flags, message", [
    ([], "error: pass --weights FILE or --identity"),
    (["--weights", "WEIGHTS", "--stride", "0"],
     "error: patch and stride must be positive, got 32, 0"),
], ids=["no_denoiser", "stride_0"])
def test_denoise_bad_denoiser_flags_exit_2(tmp_path, capsys, toy_weights, flags,
                                           message):
    src = tmp_path / "x.raw"
    write_image(src, np.zeros((1, 32, 32)))
    flags = [toy_weights[0] if f == "WEIGHTS" else f for f in flags]
    code, out, err = run(["denoise", "--in", str(src), "--out",
                          str(tmp_path / "y.raw"), *flags], capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == message
    assert not (tmp_path / "y.raw").exists()


@pytest.mark.parametrize("command", [
    ["denoise", "--out", "{out}"],
    ["restore", "--out", "{out}", "--task", "deblur", "--allow-expansive"],
    ["perturb", "--perturb", "awgn:10"],
], ids=["denoise", "restore", "perturb"])
@pytest.mark.parametrize("flags, message", [
    (["--stride", "0"], "error: stride must be positive, got 0"),
    (["--stride", "-3"], "error: stride must be positive, got -3"),
    (["--taper", "5"], "error: taper must be in [0, 1], got 5.0"),
    (["--taper", "nan"], "error: taper must be in [0, 1], got nan"),
], ids=["stride_0", "stride_-3", "taper_5", "taper_nan"])
def test_identity_checks_the_patch_flags_exit_2(tmp_path, capsys, command,
                                                flags, message):
    # the identity denoiser makes no patch plan, yet its flags are checked
    src = tmp_path / "x.raw"
    write_image(src, np.zeros((1, 32, 32)))
    command = [arg.format(out=tmp_path / "y.raw") for arg in command]
    code, out, err = run([command[0], "--in", str(src), *command[1:],
                          "--identity", *flags], capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == message
    assert not (tmp_path / "y.raw").exists()


def test_denoise_corrupt_weights_exits_3(tmp_path, capsys):
    wpath = tmp_path / "bad.ctrx"
    net = init_network(depth=2, patch=8, channels=1, seed=4)
    save_weights(wpath, net)
    raw = bytearray(wpath.read_bytes())
    raw[-10] ^= 0xFF
    wpath.write_bytes(bytes(raw))
    src = tmp_path / "x.raw"
    write_image(src, np.zeros((1, 8, 8)))
    code, _, err = run(["denoise", "--in", str(src), "--out",
                        str(tmp_path / "y.raw"), "--weights", str(wpath)],
                       capsys)
    assert code == 3
    assert "CRC" in err or "corrupt" in err.lower()


def test_denoise_rejects_values_beyond_the_input_bound(tmp_path, capsys):
    # the finite 1.5e308 block used to overflow inside the first dwt2 and
    # fail a later finiteness check; the read now names the bound, and no
    # RuntimeWarning (an error under this suite) is raised on the way
    wpath = tmp_path / "w.ctrx"
    save_weights(wpath, init_network(depth=2, patch=64, channels=1, seed=4))
    x = np.random.default_rng(5).random((1, 256, 256))
    x[0, 232:240, 232:240] = 1.5e308
    src = tmp_path / "x.raw"
    dst = tmp_path / "y.raw"
    write_image(src, x)
    code, out, err = run(["denoise", "--in", str(src), "--out", str(dst),
                          "--weights", str(wpath)], capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: {src}: raw image values must be finite and within +-1e+64"]
    assert not dst.exists()


def test_certify_malformed_weights_exits_3(crafted_weights, capsys):
    # the CRC is valid; the float patch size used to escape as a TypeError
    code, _, err = run(["certify", "--weights", str(crafted_weights(patch=4.0))],
                       capsys)
    assert code == 3
    assert "malformed weights file" in err


def test_certify_rejects_kernel_taps_beyond_the_bound_exits_3(tmp_path, capsys):
    # taps of 1e308 are finite, but their spectrum overflows: the SVD of the
    # normalizer used to fail inside LAPACK with a traceback and exit 1
    net = init_network(depth=1, patch=8, channels=2, seed=0)
    layer = net.layers[0]
    huge = LayerParams(layer.alpha, layer.raw_thresholds,
                       np.full_like(layer.kernel, 1e308), layer.family)
    wpath = tmp_path / "huge.ctrx"
    save_weights(wpath, NetworkParams([huge], eps=net.eps, patch=8, channels=2))
    code, out, err = run(["certify", "--weights", str(wpath)], capsys)
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "weights error: layer 0 kernel taps must be finite and within +-1e+64"]


def test_denoise_missing_input_exits_4(tmp_path, capsys):
    code, _, _ = run(["denoise", "--in", str(tmp_path / "absent.raw"),
                      "--out", str(tmp_path / "y.raw"), "--identity"], capsys)
    assert code == 4


def test_restore_identity_delta_blur_one_iteration(tmp_path, capsys):
    y = np.random.default_rng(2).random((1, 16, 16))
    src = tmp_path / "y.raw"
    dst = tmp_path / "x.raw"
    write_image(src, y)
    code, _, err = run(["restore", "--in", str(src), "--out", str(dst),
                        "--task", "deblur", "--blur", "delta",
                        "--alpha-step", "1.0", "--identity"], capsys)
    assert code == 0
    stats = kv(err)
    assert float(stats["composite_bound"]) == 0.0
    assert stats["converged"] == "1"
    np.testing.assert_allclose(read_image(dst), y, atol=1e-10)


def test_restore_deblur_with_trace(tmp_path, capsys, toy_weights):
    wpath, net = toy_weights
    clean = synth_patches(1, 64, seed=9)[0]
    m = ForwardModel(gaussian_blur(9, 2.0), stride=1)
    y = apply_forward(clean, m)
    src = tmp_path / "blurred.raw"
    dst = tmp_path / "restored.raw"
    ref = tmp_path / "ref.raw"
    tr = tmp_path / "trace.csv"
    write_image(src, y)
    write_image(ref, clean)
    code, _, err = run(["restore", "--in", str(src), "--out", str(dst),
                        "--task", "deblur", "--blur", "gauss:9:2.0",
                        "--alpha-step", "1.0", "--weights", wpath,
                        "--stride", "16", "--trace", str(tr), "--ref", str(ref),
                        "--allow-expansive"], capsys)
    assert code == 0
    lines = tr.read_text().splitlines()
    assert lines[0] == "iter,residual,datafit,psnr"
    assert len(lines) > 2
    restored = read_image(dst)
    assert psnr(restored, clean) > psnr(np.asarray(y), clean)


def test_restore_expansive_bound_blocks_without_flag(tmp_path, capsys, toy_weights):
    wpath, _ = toy_weights
    src = tmp_path / "y.raw"
    write_image(src, np.random.default_rng(3).random((1, 32, 32)))
    code, _, err = run(["restore", "--in", str(src), "--out",
                        str(tmp_path / "x.raw"), "--task", "deblur",
                        "--blur", "gauss:5:1.5", "--alpha-step", "1.0",
                        "--weights", wpath, "--stride", "16"], capsys)
    assert code == 6
    assert float(kv(err)["composite_bound"]) >= 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flags, message", [
    (["--blur", "box:3", "--alpha-step", "inf"],
     "alpha_step must be finite and >= 0, got inf"),
    (["--blur", "box:3", "--alpha-step", "0"],
     "alpha_step must be finite and positive, got 0.0"),
], ids=["fbs_alpha_step_inf", "fbs_alpha_step_0"])
def test_restore_rejects_a_step_with_no_finite_bound(tmp_path, capsys, toy_weights,
                                                     flags, message):
    # inf used to print composite_bound=nan with a RuntimeWarning, pass the
    # gate (nan >= 1 is False) and fail in the solve on non-finite values;
    # 0 used to print a bound and exit 6, though no step of 0 can solve
    src = tmp_path / "lr.raw"
    write_image(src, np.random.default_rng(6).random((1, 16, 16)))
    code, _, err = run(["restore", "--in", str(src), "--out",
                        str(tmp_path / "hr.raw"), "--task", "sr", *flags,
                        "--weights", toy_weights[0], "--iters", "2"], capsys)
    assert code == 2
    assert [line for line in err.splitlines()
            if line.startswith("error:")] == [f"error: {message}"]
    assert "composite_bound" not in kv(err)
    assert not (tmp_path / "hr.raw").exists()


def test_restore_a_nan_bound_is_not_certified(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ctrx.cli, "composite_contraction_bound",
                        lambda *args: float("nan"))
    src = tmp_path / "y.raw"
    write_image(src, np.random.default_rng(2).random((1, 16, 16)))
    code, _, err = run(["restore", "--in", str(src), "--out",
                        str(tmp_path / "x.raw"), "--task", "deblur",
                        "--identity"], capsys)
    assert code == 6
    assert kv(err)["composite_bound"] == "nan"
    assert not (tmp_path / "x.raw").exists()


@pytest.mark.parametrize("command", [
    ["restore", "--out", "{out}", "--task", "deblur", "--blur", "gauss:5:1.0",
     "--iters", "25", "--tol", "0", "--allow-expansive"],
    ["perturb", "--perturb", "awgn:10", "--seed", "3"],
], ids=["restore", "perturb"])
def test_one_step_table_per_command(tmp_path, capsys, monkeypatch, toy_weights,
                                    command):
    # the network's step table is built on its first forward and kept: a
    # 25-iteration restore used to build it 25 times, perturb twice
    calls = []
    real = ctrx.layers.forward_steps
    monkeypatch.setattr(ctrx.layers, "forward_steps",
                        lambda *args: calls.append(1) or real(*args))
    src = tmp_path / "x.raw"
    write_image(src, synth_patches(1, 32, seed=4)[0])
    command = [arg.format(out=tmp_path / "y.raw") for arg in command]
    code, _, err = run([command[0], "--in", str(src), *command[1:],
                        "--weights", toy_weights[0], "--stride", "16"], capsys)
    assert code == 0
    if command[0] == "restore":
        assert kv(err)["iterations"] == "25"
    assert calls == [1]


def test_restore_sr_doubles_dimensions(tmp_path, capsys):
    y = np.random.default_rng(4).random((1, 8, 8))
    src = tmp_path / "lr.raw"
    dst = tmp_path / "hr.raw"
    write_image(src, y)
    code, _, _ = run(["restore", "--in", str(src), "--out", str(dst),
                      "--task", "sr", "--stride-sr", "2", "--blur",
                      "gauss:3:1.0", "--alpha-step", "0.8", "--identity",
                      "--iters", "50", "--allow-expansive"], capsys)
    assert code == 0
    assert read_image(dst).shape == (1, 16, 16)


def test_restore_sr_identity_is_not_certified(tmp_path, capsys):
    # decimation gives A^T A a null space, so ||I - alpha A^T A|| >= 1 and an
    # L_D = 1 denoiser cannot certify superresolution
    src = tmp_path / "lr.raw"
    write_image(src, np.random.default_rng(4).random((1, 8, 8)))
    code, _, err = run(["restore", "--in", str(src), "--out",
                        str(tmp_path / "hr.raw"), "--task", "sr",
                        "--stride-sr", "2", "--blur", "gauss:3:1.0",
                        "--alpha-step", "0.8", "--identity", "--iters", "50"],
                       capsys)
    assert code == 6
    assert kv(err)["composite_bound"] == "1.0"
    assert not (tmp_path / "hr.raw").exists()


def test_restore_divergence_exits_5(tmp_path, capsys):
    # an aggressive step size makes the gradient step strongly expansive even
    # with the identity denoiser (||I - alpha A^T A|| ~ 49), so the iterates
    # overflow to non-finite values well inside the iteration budget
    y = np.random.default_rng(5).random((1, 16, 16))
    src = tmp_path / "y.raw"
    tr = tmp_path / "trace.csv"
    write_image(src, y)
    code, _, err = run(["restore", "--in", str(src), "--out",
                        str(tmp_path / "x.raw"), "--task", "deblur",
                        "--blur", "gauss:3:1.0", "--alpha-step", "50",
                        "--identity", "--trace", str(tr), "--iters", "400",
                        "--allow-expansive"], capsys)
    assert code == 5
    assert tr.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_restore_divergence_exits_5_without_a_warning(tmp_path, capsys):
    # the divergence case above, with any numpy RuntimeWarning an error
    y = np.random.default_rng(5).random((1, 16, 16))
    src = tmp_path / "y.raw"
    write_image(src, y)
    code, _, err = run(["restore", "--in", str(src), "--out",
                        str(tmp_path / "x.raw"), "--task", "deblur",
                        "--blur", "gauss:3:1.0", "--alpha-step", "50",
                        "--identity", "--iters", "400",
                        "--allow-expansive"], capsys)
    assert code == 5
    assert "divergence:" in err


@pytest.mark.parametrize("flags, message", [
    (["--algo", "drs"], "invalid choice: 'drs'"),
    (["--step", "1.0"], "unrecognized arguments: --step"),
], ids=["algo_drs", "step"])
def test_restore_has_no_drs_solver_and_no_step_flag(tmp_path, capsys, flags, message):
    # PnP-FBS is the only solver: --algo takes only fbs, and --step is gone
    src = tmp_path / "y.raw"
    write_image(src, np.random.default_rng(9).random((1, 16, 16)))
    with pytest.raises(SystemExit) as exc:
        main(["restore", "--in", str(src), "--out", str(tmp_path / "x.raw"),
              "--task", "deblur", "--identity", *flags])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.raw").exists()


def test_fbs_alpha_step_defaults_to_one(tmp_path, capsys):
    src = tmp_path / "y.raw"
    write_image(src, np.random.default_rng(9).random((1, 16, 16)))

    def bound(*flags):
        code, _, err = run(["restore", "--in", str(src), "--out",
                            str(tmp_path / "x.raw"), "--task", "deblur",
                            "--blur", "gauss:3:1.0", "--iters", "1",
                            "--identity", *flags], capsys)
        assert code == 0
        return kv(err)["composite_bound"]
    assert bound() == bound("--alpha-step", "1.0")
    assert bound() != bound("--alpha-step", "0.5")


@pytest.mark.parametrize("flags", [[], ["--allow-expansive"]],
                         ids=["gated", "allow_expansive"])
def test_restore_channel_mismatch_exits_2(tmp_path, capsys, flags):
    # 3-channel weights cannot denoise a 1-channel image: that is a bad
    # configuration, found before the composite-bound gate
    wpath = tmp_path / "rgb.ctrx"
    save_weights(wpath, init_network(depth=1, patch=8, channels=3, seed=2))
    src = tmp_path / "y.raw"
    dst = tmp_path / "x.raw"
    write_image(src, np.random.default_rng(3).random((1, 16, 16)))
    code, _, err = run(["restore", "--in", str(src), "--out", str(dst),
                        "--task", "deblur", "--blur", "gauss:3:1.0",
                        "--alpha-step", "1.0", "--weights", str(wpath),
                        *flags], capsys)
    assert code == 2
    assert "error: weights expect 3 channels, image has 1" in err
    assert "composite_bound" not in err
    assert not dst.exists()


def _restore_writing(out, written):
    """The head of a restore argv: ``out`` is the image (``written="restore"``)
    or the ``--trace`` CSV, with the image as x.raw beside it."""
    if written == "restore":
        return ["restore", "--out", str(out)]
    return ["restore", "--out", str(out.with_name("x.raw")), "--trace", str(out)]


@pytest.mark.parametrize("written", ["restore", "trace"])
@pytest.mark.parametrize("iters", ["0", "-2"])
def test_solvers_reject_fewer_than_one_iteration(tmp_path, capsys, written, iters):
    # with no iteration there is no result: the start A^T y must not be
    # written as one, nor a trace CSV holding only its header
    src = tmp_path / "y.raw"
    out = tmp_path / "out"
    write_image(src, np.random.default_rng(6).random((1, 16, 16)))
    code, _, err = run([*_restore_writing(out, written), "--in", str(src),
                        "--task", "deblur", "--blur", "gauss:3:1.0",
                        "--alpha-step", "1.0", "--identity", "--iters", iters],
                       capsys)
    assert code == 2
    assert "\nerror: max_iters must be >= 1" in err
    assert not out.exists()
    assert not (tmp_path / "x.raw").exists()


@pytest.mark.parametrize("written", ["restore", "trace"])
@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_solvers_reject_a_negative_or_non_finite_tol(tmp_path, capsys, written, tol):
    src = tmp_path / "y.raw"
    out = tmp_path / "out"
    write_image(src, np.random.default_rng(6).random((1, 16, 16)))
    code, _, err = run([*_restore_writing(out, written), "--in", str(src),
                        "--task", "deblur", "--blur", "gauss:3:1.0",
                        "--identity", "--tol", tol], capsys)
    assert code == 2
    assert "\nerror: tol must be finite and >= 0" in err
    assert not out.exists()
    assert not (tmp_path / "x.raw").exists()


def test_restore_tol_zero_runs_every_iteration(tmp_path, capsys):
    src = tmp_path / "y.raw"
    write_image(src, np.random.default_rng(6).random((1, 16, 16)))
    code, _, err = run(["restore", "--in", str(src), "--out",
                        str(tmp_path / "x.raw"), "--task", "deblur", "--blur",
                        "gauss:3:1.0", "--identity", "--iters", "3", "--tol",
                        "0"], capsys)
    assert code == 0
    assert kv(err)["iterations"] == "3"


def test_trace_command_is_gone(tmp_path, capsys):
    # restore --trace writes the same CSV
    src = tmp_path / "y.raw"
    tr = tmp_path / "t.csv"
    write_image(src, np.random.default_rng(6).random((1, 16, 16)))
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--in", str(src), "--trace", str(tr), "--task", "deblur",
              "--blur", "gauss:3:1.0", "--alpha-step", "1.0", "--identity"])
    assert exc.value.code == 2
    assert "invalid choice: 'trace'" in capsys.readouterr().err
    assert not tr.exists()


def test_certify_prints_layers_and_exits_zero(tmp_path, capsys):
    net = init_network(depth=4, patch=16, channels=1, seed=5)
    wpath = tmp_path / "w.ctrx"
    save_weights(wpath, net)
    code, out, err = run(["certify", "--weights", str(wpath)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("layer=")) == 4
    total = [l for l in lines if l.startswith("total_bound=")]
    assert float(total[0].split("=")[1]) < 1.0


def test_certify_uses_the_patch_grid_and_takes_no_grid(tmp_path, capsys):
    # each layer divides by its kernel's norm on the P x P grid, so that is
    # the norm certify must print, whatever the default image size
    net = init_network(depth=3, patch=32, channels=3, seed=0)
    wpath = tmp_path / "w.ctrx"
    save_weights(wpath, net)
    code, out, _ = run(["certify", "--weights", str(wpath)], capsys)
    assert code == 0
    printed = [kv(line.replace(" ", "\n"))["s"]
               for line in out.splitlines() if line.startswith("layer=")]
    assert printed == [repr(layer.conv_norm(32, 32)) for layer in net.layers]
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--weights", str(wpath), "--grid", "8x8"])
    assert exc.value.code == 2


def test_perturb_chroma_noop_on_gray_rgb(tmp_path, capsys):
    g = np.random.default_rng(7).random((1, 16, 16))
    x = np.repeat(g, 3, axis=0)
    src = tmp_path / "x.raw"
    write_image(src, x)
    code, out, _ = run(["perturb", "--in", str(src), "--perturb", "chroma",
                        "--identity"], capsys)
    assert code == 0
    stats = kv(out)
    assert float(stats["delta_norm"]) <= 1e-10


def test_perturb_awgn_ratio_below_one_for_trained(tmp_path, capsys, toy_weights):
    wpath, _ = toy_weights
    x = synth_patches(1, 32, seed=21)[0]
    src = tmp_path / "x.raw"
    write_image(src, x)
    code, out, _ = run(["perturb", "--in", str(src), "--perturb", "awgn:10",
                        "--weights", wpath, "--stride", "16", "--seed", "3"],
                       capsys)
    assert code == 0
    stats = kv(out)
    assert float(stats["ratio"]) <= 1.0


def test_perturb_zero_delta_reports_nan(tmp_path, capsys):
    x = np.random.default_rng(8).random((1, 8, 8))
    src = tmp_path / "x.raw"
    write_image(src, x)
    code, out, _ = run(["perturb", "--in", str(src), "--perturb", "scale:0",
                        "--identity"], capsys)
    assert code == 0
    assert kv(out)["ratio"] == "nan"


def test_perturb_ref_reports_what_metrics_reports(tmp_path, capsys):
    # with the identity denoiser the two outputs are the input and the
    # perturbed input, so each PSNR is the metrics command's for that pair
    rng = np.random.default_rng(11)
    ref = rng.random((1, 16, 16))
    x = ref + 0.05 * rng.standard_normal(ref.shape)
    src, perturbed, clean = tmp_path / "x.raw", tmp_path / "p.raw", tmp_path / "ref.raw"
    write_image(src, x)
    write_image(perturbed, (1.0 + 0.1) * x)
    write_image(clean, ref)
    code, out, _ = run(["perturb", "--in", str(src), "--perturb", "scale:0.1",
                        "--identity", "--ref", str(clean)], capsys)
    assert code == 0
    stats = kv(out)
    for key, image in (("psnr_base", src), ("psnr_perturbed", perturbed)):
        code, metrics_out, _ = run(["metrics", "--a", str(image), "--b", str(clean)],
                                   capsys)
        assert code == 0
        assert stats[key] == kv(metrics_out)["psnr"]
    assert float(stats["psnr_base"]) > float(stats["psnr_perturbed"])


@pytest.mark.parametrize("spec", ["awgn:abc", "awgn:nan", "scale:nan",
                                  "scale:inf", "scale:-inf", "awgn:", "blur:3"])
def test_perturb_rejects_bad_specs_with_exit_2(tmp_path, capsys, spec):
    src = tmp_path / "x.raw"
    write_image(src, np.random.default_rng(9).random((1, 8, 8)))
    code, out, err = run(["perturb", "--in", str(src), "--perturb", spec,
                          "--identity"], capsys)
    assert code == 2
    assert "perturbation spec" in err
    assert "delta_norm" not in out


@pytest.mark.parametrize("spec", ["scale:1e300", "awgn:1e308", "scale:-1e70"])
def test_perturb_beyond_the_input_bound_exits_2(tmp_path, capsys, spec):
    # the perturbed image is held to the bound of an input image, so no
    # overflow warning (an error under this suite) and no inf or nan ratio
    wpath = tmp_path / "w.ctrx"
    save_weights(wpath, init_network(depth=2, patch=16, channels=1, seed=0))
    src = tmp_path / "x.raw"
    write_image(src, np.random.default_rng(10).random((1, 32, 32)))
    code, out, err = run(["perturb", "--in", str(src), "--perturb", spec,
                          "--weights", str(wpath)], capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: bad perturbation spec {spec!r}: the perturbed image must stay "
        f"within +-1e+64"]


def test_metrics_command(tmp_path, capsys):
    rng = np.random.default_rng(9)
    a = rng.random((1, 16, 16))
    pa = tmp_path / "a.raw"
    pb = tmp_path / "b.raw"
    write_image(pa, a)
    write_image(pb, a)
    code, out, _ = run(["metrics", "--a", str(pa), "--b", str(pb)], capsys)
    assert code == 0
    stats = kv(out)
    assert stats["psnr"] == "inf"
    assert float(stats["ssim"]) == 1.0


def test_metrics_per_channel_filters_each_channel_once(tmp_path, capsys,
                                                      monkeypatch):
    rng = np.random.default_rng(10)
    a = rng.random((3, 16, 18))
    b = rng.random((3, 16, 18))
    pa, pb = tmp_path / "a.raw", tmp_path / "b.raw"
    write_image(pa, a)
    write_image(pb, b)
    calls = []
    real = ctrx.metrics._ssim_channel

    def counted(x, y, peak):
        calls.append(x.shape)
        return real(x, y, peak)

    # the overall ssim= line used to filter every channel twice more
    monkeypatch.setattr(ctrx.metrics, "_ssim_channel", counted)
    code, out, _ = run(["metrics", "--a", str(pa), "--b", str(pb),
                        "--per-channel"], capsys)
    assert code == 0
    assert calls == [(16, 18)] * 3
    stats = kv(out)
    assert stats["psnr"] == repr(psnr(a, b))
    assert stats["ssim"] == repr(ssim(a, b))
    for c in range(3):
        assert stats[f"ssim_ch{c}"] == repr(ssim(a[c:c + 1], b[c:c + 1]))
        assert stats[f"psnr_ch{c}"] == repr(psnr(a[c:c + 1], b[c:c + 1]))


@pytest.mark.parametrize("peak", ["inf", "nan", "0", "-1"])
def test_metrics_rejects_a_peak_that_is_not_finite_and_positive(tmp_path, capsys,
                                                                 peak):
    # --peak inf used to print psnr=inf, warn from inside SSIM and print
    # ssim=nan with exit 0
    pa = tmp_path / "a.raw"
    write_image(pa, np.random.default_rng(9).random((1, 16, 16)))
    code, out, err = run(["metrics", "--a", str(pa), "--b", str(pa),
                          "--peak", peak], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: peak must be finite and positive, got {float(peak)}\n"


def test_train_command_produces_certified_weights(tmp_path, capsys):
    wpath = tmp_path / "trained.ctrx"
    curve = tmp_path / "curve.csv"
    code, _, err = run(["train", "--out", str(wpath), "--depth", "2",
                        "--patch", "16", "--epochs", "2", "--patches", "40",
                        "--lr", "0.02", "--batch", "8", "--curve", str(curve),
                        "--seed", "1"], capsys)
    assert code == 0
    stats = kv(err)
    assert float(stats["certificate"]) < 1.0
    net = load_weights(wpath)
    assert net.depth == 2
    assert curve.read_text().startswith("epoch,train_loss,val_psnr,certificate_bound")


def test_train_from_image_directory(tmp_path, capsys):
    datadir = tmp_path / "data"
    datadir.mkdir()
    imgs = synth_patches(2, 24, seed=31)
    for i, img in enumerate(imgs):
        write_image(datadir / f"img{i}.pgm", img)
    wpath = tmp_path / "w.ctrx"
    code, _, _ = run(["train", "--out", str(wpath), "--data", str(datadir),
                      "--depth", "1", "--patch", "16", "--epochs", "1",
                      "--batch", "8", "--seed", "0"], capsys)
    assert code == 0
    assert load_weights(wpath).patch == 16


def test_train_rejects_images_with_other_channel_counts(tmp_path, capsys):
    datadir = tmp_path / "data"
    datadir.mkdir()
    write_image(datadir / "a_gray.pgm", synth_patches(1, 24, seed=32)[0])
    write_image(datadir / "b_color.ppm", synth_patches(1, 24, 3, seed=33)[0])
    wpath = tmp_path / "w.ctrx"
    code, _, err = run(["train", "--out", str(wpath), "--data", str(datadir),
                        "--depth", "1", "--patch", "16", "--epochs", "1",
                        "--seed", "0"], capsys)
    assert code == 2
    assert "error: b_color.ppm has 3 channels, --channels says 1" in err
    assert not wpath.exists()


def test_train_data_without_images_exits_2(tmp_path, capsys):
    datadir = tmp_path / "data"
    datadir.mkdir()
    (datadir / "notes.txt").write_text("no image here")
    wpath = tmp_path / "w.ctrx"
    code, out, err = run(["train", "--out", str(wpath), "--data", str(datadir),
                          "--depth", "1", "--patch", "16", "--epochs", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: no PNM or raw images found in {datadir}\n"
    assert not wpath.exists()


def test_train_max_patches_below_one_exits_2_before_decoding(tmp_path, capsys,
                                                              monkeypatch):
    # used to decode every image and then report an empty training set
    datadir = tmp_path / "data"
    datadir.mkdir()
    write_image(datadir / "a.pgm", synth_patches(1, 24, seed=34)[0])
    monkeypatch.setattr(ctrx.cli.cio, "read_image",
                        lambda path: pytest.fail(f"decoded {path}"))
    wpath = tmp_path / "w.ctrx"
    code, out, err = run(["train", "--out", str(wpath), "--data", str(datadir),
                          "--depth", "1", "--patch", "16", "--epochs", "1",
                          "--max-patches", "0"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: --max-patches must be at least 1, got 0\n"
    assert not wpath.exists()


def test_train_stops_decoding_at_max_patches(tmp_path, capsys):
    # the first image gives 9 patches, so the corrupt second one is never read
    datadir = tmp_path / "data"
    datadir.mkdir()
    write_image(datadir / "a.pgm", synth_patches(1, 24, seed=35)[0])
    (datadir / "b.pgm").write_bytes(b"P5\n24 24\n255\n")
    wpath = tmp_path / "w.ctrx"
    args = ["train", "--out", str(wpath), "--data", str(datadir), "--depth", "1",
            "--patch", "16", "--epochs", "1", "--batch", "4", "--seed", "0"]
    code, _, err = run([*args, "--max-patches", "10"], capsys)
    assert code == 2
    assert err == "error: truncated PNM payload\n"
    assert not wpath.exists()
    assert run([*args, "--max-patches", "9"], capsys)[0] == 0
    assert load_weights(wpath).patch == 16


def test_seed_defaults_to_zero_whatever_the_environment(tmp_path, capsys,
                                                        monkeypatch, toy_weights):
    # no environment variable stands in for --seed
    wpath, _ = toy_weights
    x = synth_patches(1, 32, seed=22)[0]
    src = tmp_path / "x.raw"
    write_image(src, x)
    monkeypatch.setenv("CTRX_SEED", "55")
    outs = [run(["perturb", "--in", str(src), "--perturb", "awgn:10",
                 "--weights", wpath, "--stride", "16", *seed], capsys)
            for seed in ([], ["--seed", "0"], ["--seed", "55"])]
    assert [code for code, _, _ in outs] == [0, 0, 0]
    assert kv(outs[0][1]) == kv(outs[1][1]) != kv(outs[2][1])


def _seed_command(command, tmp_path, weights):
    src = tmp_path / "x.raw"
    write_image(src, synth_patches(1, 32, seed=22)[0])
    return {"train": ["train", "--out", str(tmp_path / "w.ctrx"), "--depth", "1",
                      "--patch", "16", "--epochs", "1"],
            "perturb": ["perturb", "--in", str(src), "--perturb", "awgn:10",
                        "--weights", weights, "--stride", "16"]}[command]


@pytest.mark.parametrize("command", ["train", "perturb"])
def test_negative_seed_exits_2(tmp_path, capsys, toy_weights, command):
    # train used to escape as numpy's ValueError traceback (exit 1), and
    # perturb ran with the seed
    args = _seed_command(command, tmp_path, toy_weights[0])
    code, out, err = run([*args, "--seed", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: --seed must be a non-negative integer, got -1\n"
    assert not (tmp_path / "w.ctrx").exists()


@pytest.mark.parametrize("flags", [
    ["--batch", "0"],        # used to raise ZeroDivisionError (exit 1)
    ["--batch", "-4"],       # used to train and exit 0
    ["--patches", "1"],      # the validation split left no training patch
    ["--patches", "0"],      # no patch at all; printed final_val_psnr=nan
    ["--patches", "-3"],     # used to escape as a ValueError traceback
    ["--epochs", "-1"],      # used to write untrained weights and exit 0
    ["--kernel-size", "0"],  # used to escape init_network as an IndexError
    ["--kernel-size", "-1"],  # used to escape init_network as a ValueError
], ids=["batch_0", "batch_negative", "patches_1", "patches_0",
        "patches_negative", "epochs_negative", "kernel_size_0",
        "kernel_size_negative"])
def test_train_rejects_out_of_range_flags(tmp_path, capsys, flags):
    wpath = tmp_path / "w.ctrx"
    code, _, err = run(["train", "--out", str(wpath), "--depth", "1",
                        "--patch", "16", "--epochs", "1", "--seed", "0",
                        *flags], capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert not wpath.exists()


@pytest.mark.parametrize("flags, message", [
    (["--patch", "3"], "patch must be even and >= 2, got 3"),
    (["--patch", "2"], "grid 2x2 smaller than kernel 3x3"),
    (["--patch", "2", "--kernel-size", "1"],
     "synthetic patches must be >= 4 pixels wide, got 2"),
], ids=["patch_3", "patch_2", "patch_2_kernel_1"])
def test_train_names_a_bad_patch_size(tmp_path, capsys, flags, message):
    # each used to print "bound must be positive, got 0" from inside the
    # synthetic data's random draws
    wpath = tmp_path / "w.ctrx"
    code, _, err = run(["train", "--out", str(wpath), "--depth", "1",
                        "--epochs", "1", "--seed", "0", *flags], capsys)
    assert code == 2
    assert err.startswith(f"error: {message}")
    assert not wpath.exists()


@pytest.mark.parametrize("flags, message", [
    # --sigma nan and inf used to fail as "image contains non-finite values"
    (["--sigma", "nan"], "sigma must be finite and >= 0, got nan"),
    (["--sigma", "inf"], "sigma must be finite and >= 0, got inf"),
    (["--sigma", "-25"], "sigma must be finite and >= 0, got -0.098"),
    # --eps inf used to exit 0 with certificate=0.0 and all-zero kernels
    (["--eps", "inf"], "eps must be finite and positive, got inf"),
], ids=["sigma_nan", "sigma_inf", "sigma_negative", "eps_inf"])
def test_train_names_a_bad_sigma_or_eps(tmp_path, capsys, flags, message):
    wpath = tmp_path / "w.ctrx"
    code, _, err = run(["train", "--out", str(wpath), "--depth", "1",
                        "--patch", "16", "--epochs", "1", "--seed", "0",
                        *flags], capsys)
    assert code == 2
    assert err.startswith(f"error: {message}")
    assert not wpath.exists()


@pytest.mark.parametrize("lr", ["inf", "nan"])
def test_train_rejects_a_non_finite_lr_before_any_step(tmp_path, capsys,
                                                       monkeypatch, lr):
    # --lr inf used to run a step and then blame alpha: "alpha must be
    # finite, got -inf"
    calls = []
    real = ctrx.trainer.backward
    monkeypatch.setattr(ctrx.trainer, "backward",
                        lambda *args: calls.append(1) or real(*args))
    wpath = tmp_path / "w.ctrx"
    code, _, err = run(["train", "--out", str(wpath), "--depth", "1",
                        "--patch", "16", "--epochs", "1", "--seed", "0",
                        "--lr", lr], capsys)
    assert code == 2
    assert err.startswith(f"error: lr must be finite and positive, got {lr}")
    assert calls == []
    assert not wpath.exists()


def test_certify_weights_with_an_infinite_eps_exits_3(crafted_weights, capsys):
    # JSON writes the float inf as Infinity and reads it back; the network
    # it describes has no finite gain, so the file is corrupt
    code, out, err = run(["certify", "--weights",
                          str(crafted_weights(eps=float("inf")))], capsys)
    assert code == 3
    assert out == ""
    assert "eps must be finite and positive" in err


@pytest.mark.parametrize("alpha", [-5.0, 1.0008, 1.5])
@pytest.mark.parametrize("command", ["certify", "restore"])
def test_weights_with_an_alpha_outside_the_certified_range_exit_3(
        tmp_path, capsys, crafted_weights, command, alpha):
    # the certificate's formulas assume 0 <= alpha <= 1: an alpha of 1.0008
    # used to certify a negative bound, and one of -5 a negative composite
    # bound under which restore ran as certified
    wpath = str(crafted_weights(blocks=([alpha], np.zeros(12), np.full(9, 0.1))))
    dst = tmp_path / "hr.raw"
    args = ["certify", "--weights", wpath]
    if command == "restore":
        src = tmp_path / "lr.raw"
        write_image(src, np.random.default_rng(7).random((1, 8, 8)))
        args = ["restore", "--in", str(src), "--out", str(dst), "--task", "sr",
                "--weights", wpath, "--iters", "2"]
    code, out, err = run(args, capsys)
    assert code == 3
    assert out == ""
    assert f"layer 0 alpha {alpha} is outside [0.001, 0.999]" in err
    assert not {"certificate", "observation_bound", "composite_bound"} & set(kv(err))
    assert not dst.exists()


@pytest.fixture(scope="module")
def saved_rgb_weights(tmp_path_factory):
    path = tmp_path_factory.mktemp("flip") / "w.ctrx"
    save_weights(path, init_network(depth=2, patch=8, channels=3, seed=6))
    return path.read_bytes()


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_property_any_flipped_byte_exits_3(tmp_path, capsys, saved_rgb_weights,
                                           data):
    raw = bytearray(saved_rgb_weights)
    pos = data.draw(st.integers(0, len(raw) - 1), label="pos")
    raw[pos] ^= data.draw(st.integers(1, 255), label="xor")
    path = tmp_path / "flipped.ctrx"
    path.unlink(missing_ok=True)  # a fresh file: a truncated one is flushed on close
    path.write_bytes(bytes(raw))
    code, out, err = run(["certify", "--weights", str(path)], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("weights error: ")


@pytest.mark.parametrize("command, flags", [
    ("restore", ["--lip", "0.5"]),
    ("denoise", ["--patch", "32"]),
    ("denoise", ["--seed", "3"]),
    ("restore", ["--seed", "3"]),
], ids=["restore_lip", "denoise_patch", "denoise_seed", "restore_seed"])
def test_removed_flags_are_rejected(tmp_path, capsys, toy_weights, command, flags):
    # the certified numbers come from the weights alone: no flag overrides
    # the denoiser's bound or restates its patch size, and only perturb and
    # train read a seed
    wpath, _ = toy_weights
    src = tmp_path / "x.raw"
    write_image(src, synth_patches(1, 32, seed=23)[0])
    argv = {"denoise": ["denoise", "--out", str(tmp_path / "y.raw")],
            "restore": ["restore", "--out", str(tmp_path / "y.raw"),
                        "--task", "sr", "--blur", "gauss:9:2.0",
                        "--alpha-step", "1.0", "--iters", "3"]}[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--in", str(src), "--weights", wpath, *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


GLIBC = platform.libc_ver()[0] == "glibc"


@pytest.mark.skipif(not GLIBC, reason="mallopt's results are glibc's")
def test_heap_policy_sets_both_thresholds_and_can_be_set_again():
    assert ctrx.cli.keep_freed_heap_mapped() == (1, 1)
    assert ctrx.cli.keep_freed_heap_mapped() == (1, 1)


def test_heap_policy_does_nothing_without_mallopt(tmp_path, capsys, monkeypatch):
    class NoMallopt:
        def __init__(self, name):
            pass

    monkeypatch.setattr(ctrx.cli.ctypes, "CDLL", NoMallopt)
    assert ctrx.cli.keep_freed_heap_mapped() is None
    src = tmp_path / "in.raw"
    write_image(src, np.zeros((1, 4, 4)))
    code, _, _ = run(["denoise", "--in", str(src), "--out",
                      str(tmp_path / "out.raw"), "--identity"], capsys)
    assert code == 0


# three x2 super-resolution restores of a 64x64 image with a depth-3 P=32
# net, in-process, as a fresh interpreter runs them; prints the third's faults
_FAULTS_OF_A_THIRD_RESTORE = """
import contextlib, io, resource, sys
from ctrx.cli import main
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not GLIBC, reason="the heap policy needs glibc's mallopt")
def test_repeated_sr_restores_stop_page_faulting(tmp_path):
    # each PnP iteration frees its temporaries at the top of the heap; with
    # glibc's dynamic thresholds every restore faults about 7k pages back in.
    # The thresholds depend on what the process freed before (importing
    # pytest alone raises them), so the restores run in a new interpreter
    rng = np.random.default_rng(5)
    weights = tmp_path / "sr.ctrx"
    save_weights(weights, init_network(depth=3, patch=32, channels=1, seed=0,
                                       alpha_range=(0.05, 0.25), eps=0.3))
    write_image(tmp_path / "low.raw", rng.random((1, 32, 32)))
    write_image(tmp_path / "clean.raw", rng.random((1, 64, 64)))
    argv = ["restore", "--in", str(tmp_path / "low.raw"),
            "--out", str(tmp_path / "out.raw"), "--task", "sr",
            "--stride-sr", "2", "--blur", "gauss:9:2.0", "--alpha-step", "1.0",
            "--tol", "0", "--iters", "25", "--ref", str(tmp_path / "clean.raw"),
            "--trace", str(tmp_path / "trace.csv"), "--weights", str(weights)]
    src = os.path.dirname(os.path.dirname(ctrx.cli.__file__))
    proc = subprocess.run([sys.executable, "-c", _FAULTS_OF_A_THIRD_RESTORE, *argv],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 500
