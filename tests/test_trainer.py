import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import fft

import ctrx.trainer
from ctrx.errors import DimensionError, TrainingFailureError, ValidationError
from ctrx.io import Rng, add_awgn
from ctrx.layers import (_kernel_gradient, contraction_certificate, forward_steps,
                         init_network, network_forward, run_network)
from ctrx.metrics import psnr
from ctrx.wavelets import POLYPHASE, get_family
from ctrx.trainer import (EpochStats, GradCheckReport, TrainConfig, backward,
                          curve_to_csv, grad_check, load_patch_dataset, loss_mse,
                          synth_patches, train)


def test_loss_mse_basics():
    a = np.zeros((1, 4, 4))
    assert loss_mse(a, a) == 0.0
    assert loss_mse(a, a + 0.1) == pytest.approx(0.01, rel=1e-12)
    rng = np.random.default_rng(0)
    x = rng.random((2, 5, 5))
    y = rng.random((2, 5, 5))
    assert loss_mse(x, y) == pytest.approx(float(np.mean((x - y) ** 2)), rel=1e-13)
    with pytest.raises(DimensionError):
        loss_mse(np.zeros((1, 4, 4)), np.zeros((1, 4, 5)))


def test_backward_loss_is_the_inference_loss_bitwise():
    # training and inference share one layer forward, so the loss backward
    # reports is exactly the loss of network_forward's output
    net = init_network(depth=3, patch=8, channels=3, seed=4)
    rng = np.random.default_rng(5)
    target = rng.random((2, 3, 8, 8))
    y = target + 0.1 * rng.standard_normal(target.shape)
    loss, _ = backward(net, y, target)
    assert loss == loss_mse(network_forward(y, net), target)


def test_backward_zero_residual_gives_zero_grads():
    net = init_network(depth=2, patch=8, channels=1, seed=0)
    y = np.random.default_rng(1).random((1, 1, 8, 8))
    pred = network_forward(y, net)
    loss, grads = backward(net, y, pred)
    assert loss == 0.0
    assert len(grads) == net.depth
    for alpha_grad, raw_grad, kernel_grad in grads:
        assert alpha_grad == 0.0
        np.testing.assert_array_equal(raw_grad, 0.0)
        np.testing.assert_array_equal(kernel_grad, 0.0)


def test_backward_matches_network_forward_loss():
    net = init_network(depth=3, patch=8, channels=2, seed=2)
    rng = np.random.default_rng(3)
    y = rng.random((4, 2, 8, 8))
    target = rng.random((4, 2, 8, 8))
    loss, _ = backward(net, y, target)
    assert loss == pytest.approx(loss_mse(network_forward(y, net), target), rel=1e-12)


@pytest.mark.parametrize("patch, fam, target", [
    (8, "haar", "db4"), (10, "db4", "sym4"), (6, "sym4", "polyphase"), (16, "sym4", "haar")])
def test_kernel_gradient_matches_the_spatial_chain(spatial_transfer, patch, fam, target):
    # <gout, scale * analysis(conv(synthesis(w), K))> is linear in K; its
    # gradient, batch summed, comes from the spectra alone, half grids of
    # odd size (patch 10 and 6) included
    rng = np.random.default_rng(patch)
    half = patch // 2
    fam = get_family(fam)
    target = POLYPHASE if target == "polyphase" else get_family(target)
    bands = rng.standard_normal((8, 3, half, half))
    gout = rng.standard_normal((8, 3, half, half))
    shape = (2, 2, 3, 5)
    want = np.empty(shape)
    for idx in np.ndindex(shape):
        basis = np.zeros(shape)
        basis[idx] = 1.0
        want[idx] = np.sum(gout * spatial_transfer(bands, basis, 0.7, fam, target))
    got = _kernel_gradient(fft.rfft2(bands), fft.rfft2(gout), 0.7, fam, target,
                           shape, patch)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_grad_check_small_net():
    net = init_network(depth=2, patch=8, channels=1, seed=4)
    rng = np.random.default_rng(5)
    y = rng.random((2, 1, 8, 8))
    target = rng.random((2, 1, 8, 8))
    report = grad_check(net, y, target, step=1e-6, tol=1e-4)
    assert report.checked > 0
    assert report.max_rel_error <= 1e-4


def test_grad_check_takes_array_likes_as_backward_does():
    # nested lists, and a single image promoted to a batch of one
    net = init_network(depth=1, patch=8, channels=1, seed=4)
    rng = np.random.default_rng(5)
    y, target = rng.random((1, 8, 8)), rng.random((1, 8, 8))
    want = grad_check(net, y[None], target[None], step=1e-6, tol=1e-4)
    for args in ((y.tolist(), target.tolist()), ([y.tolist()], [target.tolist()])):
        assert backward(net, *args)[0] == backward(net, y, target)[0]
        assert grad_check(net, *args, step=1e-6, tol=1e-4) == want


def test_grad_check_ll_only_path():
    # huge thresholds kill every detail coefficient: gradients flow only
    # through the ll path and must still match finite differences
    net = init_network(depth=1, patch=8, channels=1, seed=6, threshold_mean=50.0)
    rng = np.random.default_rng(7)
    y = rng.random((1, 1, 8, 8))
    target = rng.random((1, 1, 8, 8))
    _, grads = backward(net, y, target)
    assert np.any(grads[0][2] != 0.0)
    report = grad_check(net, y, target, step=1e-6, tol=1e-4)
    assert report.max_rel_error <= 1e-4


def test_grad_check_many_random_configs():
    rng = np.random.default_rng(8)
    for trial in range(8):
        depth = int(rng.integers(1, 4))
        channels = int(rng.integers(1, 3))
        net = init_network(depth=depth, patch=8, channels=channels,
                           seed=100 + trial)
        y = rng.random((1, channels, 8, 8))
        target = rng.random((1, channels, 8, 8))
        report = grad_check(net, y, target, step=1e-6, tol=1e-4,
                            seed=trial)
        assert report.max_rel_error <= 1e-4


def test_grad_check_failure_names_the_parameter_of_its_worst_coordinate():
    net = init_network(depth=2, patch=8, channels=1, seed=4)
    rng = np.random.default_rng(5)
    y = rng.random((2, 1, 8, 8))
    target = rng.random((2, 1, 8, 8))
    report = grad_check(net, y, target, step=1e-6, tol=1e-4)
    li, kind, coord = report.worst_coordinate
    assert kind in ("alpha", "raw", "kernel")
    with pytest.raises(TrainingFailureError) as exc:
        grad_check(net, y, target, step=1e-6, tol=0)
    assert str(exc.value) == (f"gradient check failed: rel error "
                              f"{report.max_rel_error:.3e} at {(li, kind, coord)}")


def test_grad_check_skips_the_coordinates_whose_masks_flip():
    # a coarse step moves coefficients across their thresholds; those
    # coordinates are counted as kinks and not checked. Per layer: alpha,
    # 4 thresholds and 6 kernel taps
    net = init_network(depth=3, patch=8, channels=1, seed=4)
    rng = np.random.default_rng(5)
    y = rng.random((3, 1, 8, 8))
    target = rng.random((3, 1, 8, 8))
    fine = grad_check(net, y, target, step=1e-6, tol=1e-4)
    assert (fine.checked, fine.skipped_kinks) == (33, 0)
    coarse = grad_check(net, y, target, step=0.05, tol=1.0)
    assert coarse.skipped_kinks > 0
    assert coarse.checked + coarse.skipped_kinks == 33


def _diverging_backward(monkeypatch, losses):
    """Make ``backward`` return zero gradients and the next of ``losses``;
    returns the list of the losses it returned."""
    returned = []

    def fake(net, y, target):
        returned.append(losses[len(returned)])
        return returned[-1], [tuple(np.zeros_like(np.asarray(p)) for p in layer.params)
                              for layer in net.layers]
    monkeypatch.setattr(ctrx.trainer, "backward", fake)
    return returned


@pytest.mark.parametrize("losses, diverges_at", [
    ([1.0, 20.0, 20.0], None),                     # two bad epochs pass
    ([1.0, 20.0, 20.0, 20.0, 1.0], 4),             # the third one raises
    ([1.0, 20.0, 20.0, 1.0, 20.0, 20.0], None),    # a good epoch resets the count
    ([1.0, 20.0, 20.0, 1.0, 20.0, 20.0, 20.0], 7),
    ([1.0, 10.0, 10.0, 10.0], None),               # 10x the first is not bad
])
def test_train_raises_on_the_third_consecutive_diverged_epoch(monkeypatch, losses,
                                                             diverges_at):
    net = init_network(depth=1, patch=8, channels=1, seed=9)
    data = synth_patches(8, 8, seed=2)   # one batch, so one step per epoch
    cfg = TrainConfig(lr=0.01, epochs=len(losses), batch_size=8)
    returned = _diverging_backward(monkeypatch, losses)
    if diverges_at is None:
        _, curve = train(net, data, cfg)
        assert [e.train_loss for e in curve] == losses
        return
    with pytest.raises(TrainingFailureError,
                       match=r"^loss diverged: 2\.000e\+01 vs initial 1\.000e\+00$"):
        train(net, data, cfg)
    assert returned == losses[:diverges_at]


def test_synth_patches_deterministic_in_range():
    a = synth_patches(10, 16, seed=1)
    b = synth_patches(10, 16, seed=1)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (10, 1, 16, 16)
    assert a.min() >= 0.0 and a.max() <= 1.0
    assert np.std(a) > 0.01  # not degenerate


def test_load_patch_dataset_counts():
    img = np.zeros((1, 16, 20))
    patches = load_patch_dataset([img], patch=8, stride=4)
    assert patches.shape[0] == ((16 - 8) // 4 + 1) * ((20 - 8) // 4 + 1)
    assert patches.shape[1:] == (1, 8, 8)
    with pytest.raises(ValidationError):
        load_patch_dataset([np.zeros((1, 4, 4))], patch=8)


def test_load_patch_dataset_stops_drawing_at_its_limit():
    rng = np.random.default_rng(3)
    images = [rng.random((2, 12, 16)) for _ in range(3)]   # 6 patches each
    drawn = []

    def source():
        for i, img in enumerate(images):
            drawn.append(i)
            yield img
    patches = load_patch_dataset(source(), patch=8, stride=4, limit=9)
    assert drawn == [0, 1]
    want = [img[:, r:r + 8, c:c + 8] for img in images
            for r in (0, 4) for c in (0, 4, 8)]
    np.testing.assert_array_equal(patches, np.stack(want[:9]))
    np.testing.assert_array_equal(load_patch_dataset(iter(images), 8), np.stack(want))


@pytest.mark.parametrize("limit", [0, -2])
def test_load_patch_dataset_rejects_a_limit_below_one(limit):
    # both used to return one patch
    with pytest.raises(ValidationError, match=f"limit must be at least 1, got {limit}"):
        load_patch_dataset([np.zeros((1, 16, 16))], patch=8, limit=limit)


def test_train_zero_epochs_returns_projection_only():
    net = init_network(depth=2, patch=8, channels=1, seed=9)
    data = synth_patches(8, 8, seed=2)
    cfg = TrainConfig(epochs=0, batch_size=4)
    out, curve = train(net, data, cfg)
    assert curve == []
    for a, b in zip(net.layers, out.layers):
        assert a.alpha == b.alpha
        np.testing.assert_array_equal(a.kernel, b.kernel)


def test_train_improves_loss_and_keeps_certificate():
    net = init_network(depth=3, patch=16, channels=1, seed=10)
    data = synth_patches(48, 16, seed=3)
    val = synth_patches(8, 16, seed=4)
    cfg = TrainConfig(lr=0.05, epochs=8, batch_size=8, sigma=25 / 255.0, seed=0)
    trained, curve = train(net, data, cfg, val_dataset=val)
    assert len(curve) == 8
    assert curve[-1].train_loss < curve[0].train_loss
    for stats in curve:
        assert stats.certificate_bound < 1.0
    cert = contraction_certificate(trained)
    assert cert.total_bound < 1.0
    for layer in trained.layers:
        assert 1e-3 <= layer.alpha <= 1 - 1e-3
        budget = 1.0 / ((1 - layer.alpha) + trained.eps)
        assert layer.conv_norm(16, 16) <= budget + 1e-9


def test_trained_layers_still_obey_their_bounds():
    # the per-layer contraction guarantee is structural, so it must survive
    # training, not just random initialization
    net = init_network(depth=3, patch=16, channels=1, seed=20)
    data = synth_patches(48, 16, seed=6)
    trained, _ = train(net, data, TrainConfig(lr=0.05, epochs=6, batch_size=8))
    rng = np.random.default_rng(21)
    cert = contraction_certificate(trained)
    y = rng.standard_normal((1, 16, 16))
    a = rng.standard_normal((500, 1, 16, 16))
    b = rng.standard_normal((500, 1, 16, 16))
    for layer, lb in zip(trained.layers, cert.per_layer):
        steps = forward_steps([layer], trained.eps, [layer.conv_norm(16, 16)], 16, 16)
        out_a, _ = run_network(y[None], steps, a)
        out_b, _ = run_network(y[None], steps, b)
        num = np.linalg.norm((out_a - out_b).reshape(500, -1), axis=1)
        den = np.linalg.norm((a - b).reshape(500, -1), axis=1)
        assert lb.layer_bound < 1
        assert np.all(num / den <= lb.layer_bound)


def test_train_deterministic():
    net = init_network(depth=2, patch=8, channels=1, seed=11)
    data = synth_patches(16, 8, seed=5)
    cfg = TrainConfig(lr=0.02, epochs=3, batch_size=8, seed=7)
    t1, c1 = train(net, data, cfg)
    t2, c2 = train(net, data, cfg)
    # val_psnr is nan without a validation set, so compare the other fields
    assert [(e.epoch, e.train_loss, e.certificate_bound) for e in c1] \
        == [(e.epoch, e.train_loss, e.certificate_bound) for e in c2]
    for a, b in zip(t1.layers, t2.layers):
        assert a.alpha == b.alpha
        np.testing.assert_array_equal(a.raw_thresholds, b.raw_thresholds)
        np.testing.assert_array_equal(a.kernel, b.kernel)


def test_trained_weights_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 3 channels at P=32 and batch 16 give spectra of 27,648 entries, above
    # the length from which OpenBLAS splits a complex dot product over threads
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"w{threads}.ctrx"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "ctrx.cli", "train", "--out", str(out),
             "--channels", "3", "--depth", "2", "--patch", "32", "--batch", "16",
             "--epochs", "1", "--patches", "40", "--seed", "3"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_train_rejects_wrong_dataset_shape():
    net = init_network(depth=2, patch=8, channels=1, seed=12)
    with pytest.raises(DimensionError):
        train(net, np.zeros((4, 1, 16, 16)), TrainConfig(epochs=1))


@pytest.mark.parametrize("shape", [(2, 1, 16, 16), (2, 2, 8, 8), (2, 8, 8)],
                         ids=["patch_16", "channels_2", "one_image_channels_2"])
def test_backward_rejects_a_batch_of_the_wrong_shape(shape):
    # a P=8, 1-channel net used to fail inside the first step with numpy's
    # "operands could not be broadcast together"
    net = init_network(depth=2, patch=8, channels=1, seed=0)
    batch = np.zeros(shape)
    with pytest.raises(DimensionError, match=r"the batch must be \(N, 1, 8, 8\)"):
        backward(net, batch, batch)


@pytest.mark.parametrize("val, error", [
    (np.zeros((4, 1, 16, 16)), DimensionError),
    (np.full((4, 1, 8, 8), np.nan), ValidationError),
], ids=["wrong_shape", "non_finite"])
def test_train_checks_the_validation_set_before_any_step(monkeypatch, val, error):
    # a bad validation set used to fail only after the first epoch's steps
    calls = []
    real = ctrx.trainer.backward
    monkeypatch.setattr(ctrx.trainer, "backward",
                        lambda *args: calls.append(1) or real(*args))
    net = init_network(depth=2, patch=8, channels=1, seed=12)
    data = synth_patches(64, 8, seed=13)
    with pytest.raises(error, match="the validation set"):
        train(net, data, TrainConfig(epochs=1, batch_size=8), val_dataset=val)
    assert calls == []


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -0.1])
def test_train_config_rejects_a_non_finite_or_negative_sigma(sigma):
    with pytest.raises(ValidationError, match="sigma must be finite and >= 0"):
        TrainConfig(sigma=sigma)


@pytest.mark.parametrize("lr", [np.nan, np.inf, -0.1])
def test_train_config_rejects_a_non_finite_or_non_positive_lr(lr):
    with pytest.raises(ValidationError, match="lr must be finite and positive"):
        TrainConfig(lr=lr)


def test_curve_csv(tmp_path):
    curve = [EpochStats(1, 0.5, 22.25, 0.9), EpochStats(2, 0.25, float("nan"), 0.8)]
    path = tmp_path / "curve.csv"
    curve_to_csv(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_psnr,certificate_bound"
    assert lines[1] == "1,0.5,22.25,0.9"
    assert lines[2].endswith("nan,0.8")
